"""Where the package may read the RNG jump table, and how it may draw.

Every draw reads ``RngState.uniforms``'s lookahead, whose blocks
``numerics._states_after`` makes from the jump table. These tests pin that
one reader, so a second walker over the table (a skip or a jump of its own)
fails here instead of growing beside the lookahead, and that one draw path,
so a scalar draw (one value at a time, as the tests' oracle steps) does not
come back beside the bulk one.
"""

import ast
from collections import Counter
from pathlib import Path

from ilora_lab import RngState

from test_blas_sites import SRC

SCALAR_DRAWS = ("next_u64", "next_float", "next_below", "gauss_pair")


def name_sites(path: Path, name: str) -> Counter:
    """(file, enclosing function): references to `name`, called or not, by
    name or as an attribute; its definition and imports are not
    references."""
    sites = Counter()

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if (isinstance(node, ast.Name) and node.id == name) or \
                (isinstance(node, ast.Attribute) and node.attr == name):
            sites[(path.name, func)] += 1
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(path.read_text()), "<module>")
    return sites


def test_only_states_after_reads_the_jump_table():
    found = Counter()
    for path in sorted(SRC.glob("*.py")):
        found += name_sites(path, "_jump_table")
    assert found == Counter({("numerics.py", "_states_after"): 1})


def test_nothing_in_src_draws_one_value_at_a_time():
    for name in SCALAR_DRAWS:
        found = Counter()
        for path in sorted(SRC.glob("*.py")):
            found += name_sites(path, name)
        assert found == Counter(), name


def test_rng_state_draws_only_in_bulk():
    public = {name for name in vars(RngState) if not name.startswith("_")}
    assert public == {"uniforms", "shuffled", "choose_without_replacement"}


def test_the_scanner_sees_each_form(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(
        "def _jump_table():\n"
        "    return None\n"
        "table = _jump_table\n"
        "def f(x):\n"
        "    return _jump_table()[x], numerics._jump_table()\n")
    assert name_sites(path, "_jump_table") == Counter(
        {("m.py", "<module>"): 1, ("m.py", "f"): 2})
