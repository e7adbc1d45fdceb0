"""Where the package may run a stacked product.

`model._product` is the one place that picks `numerics.stacked_matmul` (the
G products of two (G, ...) stacks) over the 2-D `matmul`, by the operand's
rank. Stacks are only for stacked parameter vectors: `_product` builds the
effective weights and runs the inference forward's second layer, for a
vector and a stack alike, while the head, the training forward and every
backward are 2-D. These tests pin that one caller of `stacked_matmul` and
`_product`'s own callers, so a stacked product called anywhere else, on the
training side above all, fails here instead of growing beside `_product`.
"""

from collections import Counter

from test_blas_sites import SRC
from test_jump_table_sites import name_sites


def sites(name: str) -> Counter:
    found = Counter()
    for path in sorted(SRC.glob("*.py")):
        found += name_sites(path, name)
    return found


def test_only_product_calls_stacked_matmul():
    assert sites("stacked_matmul") == Counter({("model.py", "_product"): 1})


def test_product_runs_only_on_the_parameter_stack_path():
    assert sites("_product") == Counter({
        ("model.py", "_effective_weights"): 2,
        ("model.py", "_embed_transposed"): 1})


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
