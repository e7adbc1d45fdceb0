"""The adapter chain rule as a property: for any shapes, rank and number
of pairs, `_adapter_grads` gives, row by row, the bytes of the chain rule
written out pair by pair (`reference_adapter_grads`): s * B.T dW and
s * dW A.T of each 2-D weight gradient, joined in layout order. The
weight-gradient stacks come C-contiguous, as every other slice of a longer
stack, or with each slice column-major, and hold signed zeros.

hypothesis runs derandomized and without an example database, so a run of
the same command on the same tree tries the same examples, alone or in the
whole suite (see `tests/test_rng_property.py`).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ilora_lab.model import _adapter_grads, param_length, split_params

from conftest import make_tiny_net, random_theta
from test_model import reference_adapter_grads


def weight_grads(rng, n, rows, cols, layout):
    """An (n, rows, cols) stack of weight gradients in the given layout,
    a fifth of its entries signed zeros."""
    x = rng.standard_normal((n, rows, cols)) * 10.0 ** rng.integers(
        -6, 6, (n, rows, cols))
    hit = rng.random(x.shape) < 0.2
    x[hit] = np.where(rng.random(x.shape) < 0.5, 0.0, -0.0)[hit]
    if layout == "every other":
        return np.repeat(x, 2, axis=0)[::2]
    if layout == "column-major":
        return x.transpose(0, 2, 1).copy().transpose(0, 2, 1)
    return x


@st.composite
def cases(draw):
    """A net, its adapter factors and (n, h, d), (n, e, h) stacks."""
    d, h, e = (draw(st.integers(1, top)) for top in (24, 40, 24))
    net = make_tiny_net(draw(st.integers(0, 99)), d=d, h=h, e=e,
                        rank=draw(st.integers(1, 8)),
                        alpha=draw(st.sampled_from([1.0, 4.0, 16.0])))
    factors = split_params(net, random_theta(
        net, seed=draw(st.integers(0, 99)),
        std=draw(st.sampled_from([0.02, 0.3, 1.0]))))
    n = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    layout = draw(st.sampled_from(["C", "every other", "column-major"]))
    dW1 = weight_grads(rng, n, h, d, layout)
    dW2 = weight_grads(rng, n, e, h, layout)
    return net, factors, dW1, dW2


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(cases())
def test_rows_are_the_written_out_chain_rule(case):
    net, factors, dW1, dW2 = case
    got = _adapter_grads(net, dW1, dW2, *factors)
    want = reference_adapter_grads(net, dW1, dW2, *factors)
    assert got.shape == (len(dW1), param_length(net))
    assert got.tobytes() == want.tobytes()
