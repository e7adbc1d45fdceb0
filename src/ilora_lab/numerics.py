"""Deterministic dense linear algebra, seeded RNG, and a finite-difference oracle.

All numeric state is float64 numpy. The matmul kernel accumulates over the
inner dimension in ascending order so results are bit-identical to a naive
triple loop, independent of BLAS build details. It has two paths, both on
C-contiguous copies of the operands:

- small products (K*m*n <= _VECTOR_MAX_ELEMS, output not 1x1) build the
  K x m x n array of products and sum it over its outer axis, which numpy
  does slice by slice, i.e. k-ascending. ``+ 0.0`` then turns a ``-0.0``
  total into ``+0.0`` as the loop's zero start does, on numpy releases whose
  sum starts from the first slice rather than from ``+0.0``. A 1x1 output is
  left to the loop because numpy reduces a contiguous axis pairwise.
- larger products loop over k, accumulating into one reused buffer, so the
  temporary stays m x n.

The kernel does not check finiteness; the model checks its losses,
gradients, logits and embeddings once per call instead.

RNG contract (xorshift64*, seeded through splitmix64):

    state' = xorshift64*(state)
    u64    = (state' * 0x2545F4914F6CDD1D) mod 2^64
    f      = (u64 >> 11) * 2^-53          # uniform in [0, 1)

Reference stream for seed=1, first five uniforms:
    0.29404672187536496, 0.8432913574055981, 0.37141301636381596,
    0.23114710925829274, 0.8590431711703592
(regenerate with ``RngState(1).next_float()``).

Gaussians come in Box-Muller pairs, ``gauss_pair`` one at a time and
``gaussian_fill`` in bulk; both give the same bytes and leave the generator
in the same state. The bulk path:

- ``RngState.next_states`` computes a block of up to 512 consecutive states
  at once. xorshift is linear over GF(2), so the state i+1 steps after x is
  the xor, over the set bits b of x, of the state i+1 steps after ``1 << b``;
  those 64 x 512 states are one jump table (256 KB), built on first use.
  The next block starts from the last state of the previous one.
- uniforms are ``(state' * MULT) >> 11`` on uint64 arrays (numpy wraps
  like ``mod 2^64``), converted to float64 and scaled by 2^-53, exactly.
- log, cos and sin are ``math``'s, mapped over Python floats: ``np.log``
  rounds differently from ``math.log`` on some inputs (6,986 of 2,000,000
  uniforms on numpy 2.4.6), which would change the stream. sqrt and the
  products are correctly rounded in both and stay vectorised.
- the fill runs in chunks of 1,024 states, so its temporaries stay under
  100 KB whatever the matrix size.

``RngState.advance`` skips states without computing them: the state k
steps after x (k <= 512) is the xor of column k-1 of the jump table over
the set bits of x, so a skip of n states costs ceil(n/512) such xors and no
Box-Muller. ``skip_gaussian_fill`` uses it to pass over a fill that is
never read, e.g. a training set when only eval sets are needed.

``RngState.uniforms`` serves batch index draws in bulk. It keeps a
lookahead block: the next 512 states and their uniforms, made by the jump
table, plus how many of them have been read. A call returns the next
``count`` uniforms of the block and starts a new block from the block's
last state when it runs out, so its values and final state are those of
``count`` ``next_float`` calls; ``int(u * n)`` on them is ``next_below(n)``.
Every other consumer (``next_u64``, ``next_states``, ``advance``, and
through them ``gaussian_fill``, ``gauss_pair`` and
``choose_without_replacement``) first resyncs: the generator's state
becomes the last state read and the unread rest of the block is dropped.
Interleaving bulk and scalar draws therefore leaves the stream unchanged.
"""

from __future__ import annotations

import functools
import math

import numpy as np

_MASK64 = (1 << 64) - 1
_XORSHIFT_MULT = 0x2545F4914F6CDD1D
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
# States per jump-table block: the table is 64 x 512 uint64, 256 KB.
_JUMP_ROWS = 512


def _splitmix64(x: int) -> int:
    x = (x + _SPLITMIX_GAMMA) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class RngState:
    """xorshift64* generator; single-owner mutable, no platform entropy."""

    def __init__(self, seed: int):
        state = _splitmix64(seed & _MASK64)
        if state == 0:
            state = _SPLITMIX_GAMMA
        self._state = state
        # uniforms() lookahead: the next states after _state, their uniforms
        # and how many have been read; None when there is none.
        self._ahead: np.ndarray | None = None
        self._ahead_u: np.ndarray | None = None
        self._read = 0

    def _resync(self) -> None:
        """Move the state to the last lookahead state read and drop the
        rest; a no-op without a lookahead."""
        if self._read:
            self._state = int(self._ahead[self._read - 1])
        self._ahead = self._ahead_u = None
        self._read = 0

    def next_u64(self) -> int:
        if self._ahead is not None:
            self._resync()
        x = self._state
        x ^= (x >> 12)
        x ^= (x << 25) & _MASK64
        x ^= (x >> 27)
        self._state = x
        return (x * _XORSHIFT_MULT) & _MASK64

    def next_float(self) -> float:
        """Uniform in [0, 1), 53 bits of mantissa."""
        return (self.next_u64() >> 11) * 2.0 ** -53

    def next_below(self, n: int) -> int:
        """Uniform integer in [0, n). One uniform draw per call."""
        if n <= 0:
            raise ValueError("next_below requires n >= 1")
        return int(self.next_float() * n)

    def choose_without_replacement(self, n: int, k: int) -> list[int]:
        """k distinct indices from [0, n), ascending. Consumes exactly k draws."""
        if not 0 <= k <= n:
            raise ValueError(f"cannot choose {k} from {n}")
        idx = list(range(n))
        for i in range(k):
            j = i + self.next_below(n - i)
            idx[i], idx[j] = idx[j], idx[i]
        return sorted(idx[:k])

    def gauss_pair(self) -> tuple[float, float]:
        """One Box-Muller pair; consumes exactly two uniforms."""
        u1 = self.next_float()
        u2 = self.next_float()
        if u1 == 0.0:
            u1 = 2.0 ** -53
        r = math.sqrt(-2.0 * math.log(u1))
        a = 2.0 * math.pi * u2
        return r * math.cos(a), r * math.sin(a)

    def uniforms(self, count: int) -> np.ndarray:
        """The next ``count`` uniforms as a float64 array: the values and
        final state of ``count`` ``next_float`` calls, served from the
        lookahead block."""
        out = np.empty(count)
        done = 0
        while done < count:
            if self._ahead is None or self._read == _JUMP_ROWS:
                self._resync()
                self._ahead = _states_after(self._state, _JUMP_ROWS)
                self._ahead_u = _uniforms_of(self._ahead)
            k = min(count - done, _JUMP_ROWS - self._read)
            out[done:done + k] = self._ahead_u[self._read:self._read + k]
            self._read += k
            done += k
        return out

    def next_states(self, count: int) -> np.ndarray:
        """The next ``count`` raw xorshift states (the ``state'`` of the
        contract) as a uint64 array; leaves the generator where ``count``
        ``next_u64`` calls would."""
        self._resync()
        out = np.empty(count, dtype=np.uint64)
        x = self._state
        for start in range(0, count, _JUMP_ROWS):
            k = min(_JUMP_ROWS, count - start)
            out[start:start + k] = _states_after(x, k)
            x = int(out[start + k - 1])
        self._state = x
        return out

    def advance(self, count: int) -> None:
        """Skip ``count`` states without computing the ones in between;
        leaves the generator where ``count`` ``next_u64`` calls would."""
        if count < 0:
            raise ValueError("advance requires count >= 0")
        self._resync()
        tab = _jump_table()
        x = self._state
        for start in range(0, count, _JUMP_ROWS):
            k = min(_JUMP_ROWS, count - start)
            x = int(np.bitwise_xor.reduce(tab[_set_bits(x), k - 1]))
        self._state = x


def _states_after(x: int, k: int) -> np.ndarray:
    """The k (<= _JUMP_ROWS) states that follow state x."""
    return np.bitwise_xor.reduce(_jump_table()[_set_bits(x), :k], axis=0)


def _uniforms_of(states: np.ndarray) -> np.ndarray:
    """``next_float``'s uniform for each raw state: (state' * MULT) mod 2^64
    (uint64 wraps), its top 53 bits, times 2^-53; every step is exact."""
    u64 = states * np.uint64(_XORSHIFT_MULT)
    return (u64 >> 11).astype(np.float64) * 2.0 ** -53


def _set_bits(x: int) -> list[int]:
    return [b for b in range(64) if x >> b & 1]


@functools.cache
def _jump_table() -> np.ndarray:
    """TAB[b, i]: the state reached from state ``1 << b`` after i+1 steps.

    xorshift is linear over GF(2), so the state i+1 steps after x is the xor
    of TAB[b, i] over the set bits b of x. Stored bit-major so that a block's
    reduction runs over contiguous rows. Built on first use, not at import.
    """
    x = np.uint64(1) << np.arange(64, dtype=np.uint64)
    tab = np.empty((64, _JUMP_ROWS), dtype=np.uint64)
    for i in range(_JUMP_ROWS):
        x = x ^ (x >> 12)
        x = x ^ (x << 25)
        x = x ^ (x >> 27)
        tab[:, i] = x
    tab.flags.writeable = False
    return tab


def as_matrix(data) -> np.ndarray:
    m = np.asarray(data, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"expected 2-D matrix, got ndim={m.ndim}")
    return m


# Largest K*m*n product that matmul computes as one K x m x n array
# (32k float64 values, a 256 KB temporary); larger products take the k loop.
_VECTOR_MAX_ELEMS = 1 << 15


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Deterministic product: accumulation over k ascending, bit-equal to the
    naive triple loop."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul dimension mismatch: {a.shape} x {b.shape}")
    m, K = a.shape
    n = b.shape[1]
    at = np.ascontiguousarray(a.T)
    b = np.ascontiguousarray(b)
    if m * n > 1 and K * m * n <= _VECTOR_MAX_ELEMS:
        return (at[:, :, None] * b[:, None, :]).sum(axis=0) + 0.0
    out = np.zeros((m, n))
    tmp = np.empty((m, n))
    for k in range(K):
        np.multiply(at[k, :, None], b[k], out=tmp)
        out += tmp
    return out


# States per gaussian_fill chunk (even, so chunks hold whole pairs). Small
# chunks keep the arrays and Python float lists off the peak RSS; larger
# ones measured no faster.
_FILL_CHUNK = 2 * _JUMP_ROWS


def _box_muller(states: np.ndarray) -> np.ndarray:
    """Gaussians from an even number of consecutive states, pair by pair
    exactly as ``gauss_pair`` computes them. log, cos and sin are ``math``'s
    because numpy's do not always round the same way."""
    u = _uniforms_of(states)
    u1 = u[0::2]
    u1[u1 == 0.0] = 2.0 ** -53
    half = len(u1)
    logs = np.fromiter(map(math.log, u1.tolist()), np.float64, half)
    r = np.sqrt(-2.0 * logs)
    angles = ((2.0 * math.pi) * u[1::2]).tolist()
    out = np.empty(len(states))
    out[0::2] = r * np.fromiter(map(math.cos, angles), np.float64, half)
    out[1::2] = r * np.fromiter(map(math.sin, angles), np.float64, half)
    return out


def _fill_states(rows: int, cols: int) -> int:
    """States a rows x cols fill consumes: whole pairs, so an odd count
    draws one more."""
    n = rows * cols
    return n + n % 2


def gaussian_fill(rng: RngState, rows: int, cols: int,
                  mean: float = 0.0, std: float = 1.0) -> np.ndarray:
    """rows x cols matrix of i.i.d. Gaussians via Box-Muller.

    Consumes 2*ceil(rows*cols/2) uniform draws; the trailing value of an odd
    request's final pair is discarded. Bit-identical to filling the matrix
    pair by pair with ``gauss_pair``.
    """
    if std < 0:
        raise ValueError("std must be >= 0")
    n = rows * cols
    n_states = _fill_states(rows, cols)
    vals = np.empty(n_states)
    for start in range(0, n_states, _FILL_CHUNK):
        stop = min(start + _FILL_CHUNK, n_states)
        vals[start:stop] = _box_muller(rng.next_states(stop - start))
    return (mean + std * vals[:n]).reshape(rows, cols)


def skip_gaussian_fill(rng: RngState, rows: int, cols: int) -> None:
    """Leave ``rng`` where ``gaussian_fill(rng, rows, cols)`` would, without
    drawing the values."""
    rng.advance(_fill_states(rows, cols))


def finite_diff_grad(loss_fn, theta: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient oracle: (f(t+h e_i) - f(t-h e_i)) / 2h."""
    if h <= 0:
        raise ValueError("h must be > 0")
    theta = np.asarray(theta, dtype=np.float64)
    grad = np.empty_like(theta)
    for i in range(theta.size):
        bump = np.zeros_like(theta)
        bump[i] = h
        fp = loss_fn(theta + bump)
        fm = loss_fn(theta - bump)
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise ArithmeticError("non-finite loss value in finite_diff_grad")
        grad[i] = (fp - fm) / (2.0 * h)
    return grad
