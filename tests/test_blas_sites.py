"""Where the package may call numpy's BLAS.

`numerics.matmul` sums every product in k-ascending order, so its bits do
not depend on the BLAS build; `@`, `dot`, `einsum`, `tensordot`, `inner`,
`np.matmul` and `np.linalg` do. This test pins the sites that still use
them, so a new one (say in the per-sample Fisher or the index draws) fails
here instead of quietly tying an artifact to the BLAS kernel.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ilora_lab"
BLAS_CALLS = {"dot", "einsum", "tensordot", "inner"}

# (file, enclosing function, operation): number of sites.
ALLOWED = Counter({
    # stream rotations and class means, and the class-mean distances
    ("bench.py", "_rotation_step", "@"): 1,
    ("bench.py", "make_stream", "@"): 2,
    ("bench.py", "make_stream", "np.linalg.norm"): 1,
    # AGEM's two dots and the EWC penalty value
    ("optim.py", "agem_project", "@"): 2,
    ("optim.py", "ewc_penalty_grad", "@"): 1,
    # CKA
    ("connectivity.py", "linear_cka", "@"): 3,
    ("connectivity.py", "linear_cka", "np.linalg.norm"): 3,
})


def _dotted(node) -> str | None:
    """'a.b.c' for a Name/Attribute chain, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _operation(node) -> str | None:
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and \
            isinstance(node.op, ast.MatMult):
        return "@"
    if isinstance(node, ast.Call):
        name = _dotted(node.func)
        if name is None:
            return None
        parts = name.split(".")
        if parts[-1] in BLAS_CALLS or name.endswith("np.matmul") or \
                "linalg" in parts[:-1]:
            return name
    return None


def blas_sites(path: Path) -> Counter:
    sites = Counter()

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        op = _operation(node)
        if op is not None:
            sites[(path.name, func, op)] += 1
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(path.read_text()), "<module>")
    return sites


def test_blas_sites_are_exactly_the_allowlist():
    found = Counter()
    for path in sorted(SRC.glob("*.py")):
        found += blas_sites(path)
    assert found == ALLOWED


def test_the_scanner_sees_each_form(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(
        "import numpy as np\n"
        "def f(a, b):\n"
        "    a @= b\n"
        "    return (a @ b, np.dot(a, b), a.dot(b), np.einsum('i,i', a, b),\n"
        "            np.tensordot(a, b), np.inner(a, b), np.matmul(a, b),\n"
        "            np.linalg.norm(a), matmul(a, b))\n")
    assert blas_sites(path) == Counter({
        ("m.py", "f", "@"): 2, ("m.py", "f", "np.dot"): 1,
        ("m.py", "f", "a.dot"): 1, ("m.py", "f", "np.einsum"): 1,
        ("m.py", "f", "np.tensordot"): 1, ("m.py", "f", "np.inner"): 1,
        ("m.py", "f", "np.matmul"): 1, ("m.py", "f", "np.linalg.norm"): 1})
