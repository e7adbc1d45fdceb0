"""Where the package may call numpy's BLAS.

`numerics.matmul` sums every product in k-ascending order, so its bits do
not depend on the BLAS build; `@`, `dot`, `einsum`, `tensordot`, `inner`,
`np.matmul` and `np.linalg` do. This test pins the sites that still use
them, so a new one (say in the per-sample Fisher or the index draws) fails
here instead of quietly tying an artifact to the BLAS kernel.

numpy's C einsum loop never calls BLAS, so two einsum calls are not sites:
one that passes the literal keyword `optimize=False`, which `np.einsum`
forwards to that loop, and a call of the loop's own entry, `c_einsum`,
under its exact import `from numpy._core.multiarray import c_einsum`.
`numerics` binds that entry as its kernel, and `tests/test_numerics.py`
pins its bits. Any other `optimize`, or none, may hand the contraction to
`tensordot` and BLAS, and an einsum imported any other way counts by the
name it is called by.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ilora_lab"
BLAS_CALLS = {"dot", "einsum", "tensordot", "inner"}
# numpy's C einsum entry, as `from <module> import <name>` binds it
C_EINSUM = ("numpy._core.multiarray", "c_einsum")

# (file, enclosing function, operation): number of sites.
ALLOWED = Counter({
    # stream rotations and class means, and the class-mean distances
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


def _unoptimized(call: ast.Call) -> bool:
    """Whether the call passes the literal keyword ``optimize=False``."""
    return any(kw.arg == "optimize" and isinstance(kw.value, ast.Constant)
               and kw.value.value is False for kw in call.keywords)


def _einsum_imports(tree) -> dict[str, bool]:
    """Each name that a `from ... import` binds to an einsum, and whether
    every such import of it is the exact import of numpy's C entry."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name.endswith("einsum"):
                    name = alias.asname or alias.name
                    exact = (node.module, alias.name) == C_EINSUM and \
                        alias.asname is None
                    names[name] = names.get(name, True) and exact
    return names


def _operation(node, einsums: dict[str, bool]) -> str | None:
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and \
            isinstance(node.op, ast.MatMult):
        return "@"
    if isinstance(node, ast.Call):
        name = _dotted(node.func)
        if name is None or einsums.get(name) or \
                name.split(".")[-1] == "einsum" and _unoptimized(node):
            return None
        parts = name.split(".")
        if parts[-1] in BLAS_CALLS or parts[-1].endswith("einsum") or \
                name in einsums or name.endswith("np.matmul") or \
                "linalg" in parts[:-1]:
            return name
    return None


def blas_sites(path: Path) -> Counter:
    sites = Counter()
    tree = ast.parse(path.read_text())
    einsums = _einsum_imports(tree)

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        op = _operation(node, einsums)
        if op is not None:
            sites[(path.name, func, op)] += 1
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, "<module>")
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
        "from numpy import einsum as ce\n"
        "def f(a, b):\n"
        "    from numpy._core.multiarray import c_einsum\n"
        "    a @= b\n"
        "    return (a @ b, np.dot(a, b), a.dot(b), np.einsum('i,i', a, b),\n"
        "            np.einsum('i,i', a, b, optimize=True),\n"
        "            np.einsum('i,i', a, b, optimize=flag),\n"
        "            np.einsum('i,i', a, b, optimize=False),\n"
        "            c_einsum('i,i', a, b), ce('i,i', a, b),\n"
        "            np._core.multiarray.c_einsum('i,i', a, b),\n"
        "            np.tensordot(a, b), np.inner(a, b), np.matmul(a, b),\n"
        "            np.linalg.norm(a), matmul(a, b))\n")
    # only the literal optimize=False einsum and the C entry under its
    # exact import are BLAS-free
    assert blas_sites(path) == Counter({
        ("m.py", "f", "@"): 2, ("m.py", "f", "np.dot"): 1,
        ("m.py", "f", "a.dot"): 1, ("m.py", "f", "np.einsum"): 3,
        ("m.py", "f", "ce"): 1,
        ("m.py", "f", "np._core.multiarray.c_einsum"): 1,
        ("m.py", "f", "np.tensordot"): 1, ("m.py", "f", "np.inner"): 1,
        ("m.py", "f", "np.matmul"): 1, ("m.py", "f", "np.linalg.norm"): 1})
    # a c_einsum bound any other way, or by the exact import and another
    # one as well, is a site
    for imports in ("from numpy._core.einsumfunc import c_einsum\n",
                    "from numpy._core.multiarray import c_einsum as c\n"
                    "from numpy import einsum as c_einsum\n",
                    "from numpy._core.multiarray import c_einsum\n"
                    "from numpy import einsum as c_einsum\n"):
        path.write_text(imports + "def g(a, b):\n"
                        "    return c_einsum('i,i', a, b)\n")
        assert blas_sites(path) == Counter({("m.py", "g", "c_einsum"): 1})
