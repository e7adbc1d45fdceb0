"""Where the package may run a stacked product.

`model._product` is the one place that picks `numerics.stacked_matmul` (the
G products of two (G, ...) stacks) over the 2-D `matmul`, by the operand's
rank; the inference forward, its head, the effective weights and the
backward call it for a vector and a stack alike. This test pins that one
caller, so a stacked product called anywhere else fails here instead of
growing beside `_product`.
"""

from collections import Counter

from test_blas_sites import SRC
from test_jump_table_sites import name_sites


def test_only_product_calls_stacked_matmul():
    found = Counter()
    for path in sorted(SRC.glob("*.py")):
        found += name_sites(path, "stacked_matmul")
    assert found == Counter({("model.py", "_product"): 1})


def test_the_scanner_sees_each_form(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(
        "from .numerics import stacked_matmul\n"
        "def stacked_matmul(a, b):\n"
        "    return a\n"
        "product = stacked_matmul\n"
        "def f(a, b):\n"
        "    return stacked_matmul(a, b), numerics.stacked_matmul(a, b)\n")
    assert name_sites(path, "stacked_matmul") == Counter(
        {("m.py", "<module>"): 1, ("m.py", "f"): 2})
