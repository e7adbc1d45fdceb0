"""What one product may call.

At 16-row batches a product's fixed cost is as large as its sum, and each
Python-level wrapper between `matmul` and numpy's C einsum entry adds to
it. `matmul` goes through one function, `numerics._products`, to the bound
kernel; this test pins the C functions a product calls, from
`sys.setprofile`'s c_call events, so a wrapper creeping back fails here
instead of quietly slowing every product.
"""

import sys

import numpy as np
import pytest
from numpy._core.multiarray import c_einsum

from ilora_lab import matmul, numerics


def c_calls(fn, *args):
    """The names of the C functions that fn(*args) calls, in order."""
    calls = []

    def profile(frame, event, arg):
        if event == "c_call":
            calls.append(arg)

    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    assert calls.pop() is sys.setprofile
    return [call.__name__ for call in calls]


@pytest.fixture
def bound():
    matmul(np.ones((1, 2)), np.ones((2, 2)))  # binds the kernel
    assert numerics._kernel is c_einsum


# (a, b, the C calls in order): a C-contiguous b; the switch, which sums
# from a C-contiguous copy of a.T and copies its result's transpose; and a
# b that is not C-contiguous
CASES = {
    "16x16x32": (np.ones((16, 16)), np.ones((16, 32)), ["empty", "c_einsum"]),
    "switched 32x16x16": (np.ones((32, 16)), np.ones((16, 16)),
                          ["ascontiguousarray", "empty", "c_einsum", "copy"]),
    "strided b": (np.ones((16, 16)), np.ones((16, 64))[:, ::2],
                  ["ascontiguousarray", "empty", "c_einsum"]),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_a_product_calls_only_the_entry_and_its_output(bound, case):
    a, b, want = CASES[case]
    assert c_calls(matmul, a, b) == want


def test_the_probe_runs_once(monkeypatch):
    # the probe's products have K = 74; every other product here has K = 3
    ks = []

    def entry(subscripts, x, y, **kwargs):
        ks.append(len(x))
        return c_einsum(subscripts, x, y, **kwargs)

    monkeypatch.setattr(numerics, "_kernel", numerics._bind)
    monkeypatch.setattr(np._core.multiarray, "c_einsum", entry)
    for _ in range(3):
        matmul(np.ones((4, 3)), np.ones((3, 5)))
        matmul(np.ones((5, 3)), np.ones((3, 4)))
        matmul(np.ones((4, 3))[::2], np.ones((3, 5)))
    assert numerics._kernel is entry
    # one probe, then the nine products
    assert ks == [74] + [3] * 9
