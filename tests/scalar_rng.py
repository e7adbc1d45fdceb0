"""The scalar reference for ``ilora_lab.numerics.RngState``.

``ScalarRng`` is a plain xorshift64*, stepped one draw at a time in Python
integers, as the RNG contract in the ``numerics`` docstring writes it. It
seeds through ``numerics._seed_state``, so the seed rule has one source. The
helpers below build each bulk consumer's output from its scalar draws: the
Fisher-Yates shuffle, the Box-Muller fill and the labels of
``conftest.make_batch``. The tests compare the bulk draws with them byte
for byte, and the next uniforms with this generator's next values.
"""

import math

import numpy as np

from ilora_lab import Batch
from ilora_lab.numerics import (_JUMP_ROWS, _MASK64, _XORSHIFT_MULT,
                                _seed_state)

# Uniforms that assert_same_next compares: more than a lookahead block, so
# the comparison crosses a block boundary wherever it starts.
NEXT = 600
assert NEXT > _JUMP_ROWS


class ScalarRng:
    """xorshift64*, one draw at a time; ``state`` is the last state
    handed out."""

    def __init__(self, seed: int):
        self.state = _seed_state(seed)

    @classmethod
    def from_state(cls, state: int) -> "ScalarRng":
        rng = cls(0)
        rng.state = state
        return rng

    def next_u64(self) -> int:
        x = self.state
        x ^= x >> 12
        x ^= (x << 25) & _MASK64
        x ^= x >> 27
        self.state = x
        return (x * _XORSHIFT_MULT) & _MASK64

    def next_float(self) -> float:
        """Uniform in [0, 1), 53 bits of mantissa."""
        return (self.next_u64() >> 11) * 2.0 ** -53

    def floats(self, count: int) -> list[float]:
        return [self.next_float() for _ in range(count)]

    def next_below(self, n: int) -> int:
        """Uniform integer in [0, n). One uniform draw per call."""
        if n <= 0:
            raise ValueError("next_below requires n >= 1")
        return int(self.next_float() * n)

    def gauss_pair(self) -> tuple[float, float]:
        """One Box-Muller pair; consumes exactly two uniforms."""
        u1 = self.next_float()
        u2 = self.next_float()
        if u1 == 0.0:
            u1 = 2.0 ** -53
        r = math.sqrt(-2.0 * math.log(u1))
        a = 2.0 * math.pi * u2
        return r * math.cos(a), r * math.sin(a)


def shuffled(rng: ScalarRng, n: int, k: int) -> list[int]:
    """The first k entries of a Fisher-Yates shuffle of range(n), one
    next_below draw per entry."""
    idx = list(range(n))
    for i in range(k):
        j = i + rng.next_below(n - i)
        idx[i], idx[j] = idx[j], idx[i]
    return idx[:k]


def gauss_fill(rng: ScalarRng, rows: int, cols: int, mean: float = 0.0,
               std: float = 1.0) -> np.ndarray:
    """A rows x cols fill done pair by pair through gauss_pair; an odd
    count drops its last pair's second value."""
    n = rows * cols
    vals = np.empty(n)
    for i in range(0, n - 1, 2):
        vals[i], vals[i + 1] = rng.gauss_pair()
    if n % 2 == 1:
        vals[n - 1], _ = rng.gauss_pair()
    return (mean + std * vals).reshape(rows, cols)


def make_batch(rng: ScalarRng, n: int, d: int, c: int) -> Batch:
    """``conftest.make_batch`` drawn one value at a time: a Gaussian fill,
    then one next_below label per row."""
    X = gauss_fill(rng, n, d)
    y = np.array([rng.next_below(c) for _ in range(n)], dtype=np.int64)
    return Batch(X, y)


def assert_same_next(bulk, oracle: ScalarRng, *context) -> None:
    """The bulk generator's next NEXT uniforms are the oracle's next NEXT:
    the check that a draw left the bulk generator where the oracle is."""
    assert bulk.uniforms(NEXT).tolist() == oracle.floats(NEXT), context
