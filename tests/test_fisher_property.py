"""The per-row gradients as a property: for any shapes, class count and row
count, each row `per_sample_grads` yields has the bytes of `loss_and_grad`
on that row alone, and `ewc_fisher` is the row-by-row mean of their squares.

The element budget is lowered so that blocks hold a few rows and the row
counts cross block boundaries. Class counts run from 2 to 11, both sides of
the 8 classes from which softmax's per-row sum is pairwise. NaNs are left
out: any NaN ends a run with exit 4.

hypothesis runs derandomized and without an example database, so a run of
the same command on the same tree tries the same examples, alone or in the
whole suite (see `tests/test_rng_property.py`).
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ilora_lab import Batch, RngState, ewc_fisher, loss_and_grad, model
from ilora_lab.model import param_length, per_sample_grads

from conftest import make_batch, make_tiny_net, random_theta
from test_optim import per_row_fisher


@st.composite
def cases(draw):
    """A net, adapters, a batch and a block size whose blocks the batch
    crosses."""
    d, h, e = (draw(st.integers(1, top)) for top in (16, 40, 16))
    net = make_tiny_net(draw(st.integers(0, 99)), d=d, h=h, e=e,
                        c=draw(st.integers(2, 11)),
                        rank=draw(st.integers(1, 8)), alpha=4.0)
    theta = random_theta(net, seed=draw(st.integers(0, 99)),
                         std=draw(st.sampled_from([0.05, 0.3, 1.0])))
    block = draw(st.integers(1, 5))
    n = draw(st.integers(1, 3 * block + 1))
    data = make_batch(RngState(draw(st.integers(0, 99))), n, d, net.c)
    if draw(st.booleans()):
        data.X[:, 0] = -0.0
    return net, theta, data, block


def one_row_grad(net, theta, data, i):
    """`loss_and_grad` on row i alone, or None where it raises."""
    try:
        return loss_and_grad(net, theta, Batch(data.X[i:i + 1],
                                               data.y[i:i + 1]))[1]
    except ArithmeticError:
        return None


@pytest.mark.filterwarnings("ignore:divide by zero encountered in log")
@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(cases())
def test_rows_are_one_row_loss_and_grad_and_fisher_their_mean(case):
    net, theta, data, block = case
    row = net.h * net.d + net.e * net.h + param_length(net)
    wants = [one_row_grad(net, theta, data, i) for i in range(data.n)]
    with mock.patch.object(model, "_PER_SAMPLE_ELEMS", block * row):
        if any(want is None for want in wants):
            # a row whose true class underflows: both paths refuse it
            with pytest.raises(ArithmeticError):
                ewc_fisher(net, theta, data)
            return
        blocks = list(per_sample_grads(net, theta, data))
        fisher = ewc_fisher(net, theta, data)
    assert [len(b) for b in blocks[:-1]] == [block] * (len(blocks) - 1)
    grads = np.concatenate(blocks)
    assert len(grads) == data.n
    for i, want in enumerate(wants):
        assert grads[i].tobytes() == want.tobytes(), i
    assert fisher.tobytes() == per_row_fisher(net, theta, data).tobytes()
