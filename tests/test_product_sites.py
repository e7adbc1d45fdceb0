"""Where the package may run a product.

Every product is the 2-D `numerics.matmul`, which hands its operands to
`numerics._products`; `_bind` calls `_products` once more, to check the
kernel it binds. These tests pin those two callers, so a second product
path (a stacked one, say) fails here instead of growing beside `matmul`,
and pin that the parameter-stack path once beside it stays gone: the
stacked product, its picker and the probes' blocked embeddings.
"""

from collections import Counter

import pytest

from test_blas_sites import SRC
from test_jump_table_sites import name_sites


def sites(name: str) -> Counter:
    found = Counter()
    for path in sorted(SRC.glob("*.py")):
        found += name_sites(path, name)
    return found


def test_only_matmul_and_bind_call_products():
    assert sites("_products") == Counter({("numerics.py", "matmul"): 1,
                                          ("numerics.py", "_bind"): 1})


@pytest.mark.parametrize("name", ["stacked_matmul", "_product",
                                  "embeddings"])
def test_no_module_names_the_stack_path(name):
    assert sites(name) == Counter()
    for path in sorted(SRC.glob("*.py")):
        assert f"def {name}(" not in path.read_text(), (path.name, name)


def test_the_scanner_sees_each_form(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(
        "from .numerics import _products\n"
        "def _products(x, y):\n"
        "    return x\n"
        "product = _products\n"
        "def f(a, b):\n"
        "    return _products(a, b), numerics._products(a, b)\n")
    assert name_sites(path, "_products") == Counter(
        {("m.py", "<module>"): 1, ("m.py", "f"): 2})
