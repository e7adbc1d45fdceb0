"""Deterministic dense linear algebra, seeded RNG, and a finite-difference oracle.

All numeric state is float64 numpy. The matmul kernel accumulates over the
inner dimension in ascending order so results are bit-identical to a naive
triple loop (up to NaN payloads, below), whatever the BLAS build. It is
the package's one product, and it is 2-D: an operand that is already a 2-D
float64 ndarray is used as it is; anything else goes through
``as_matrix``, which refuses any other rank.

The product is the sum over k of the outer products of column k of a and
row k of b: ``_products(a.T, b)``, the sum over k of x[k] (x) y[k] for
K-row x and y. It holds the one orientation switch: when n < m it sums
y (x) x and returns a C-contiguous copy of that n x m result's transpose.
Products commute and every entry is still summed k-ascending from +0.0, so
the bytes are the same, and the product it computes is never narrower than
it is tall: n >= 2 for every output but a 1x1 one.

The sum is one call of numpy's C einsum entry, ``c_einsum`` from
``numpy._core.multiarray``, which ``np.einsum(..., optimize=False)``
forwards to and which never calls BLAS. ``_products`` calls it directly,
``c_einsum(subscripts, x, y, out=out)``, with y C-contiguous (copied only
when it is not) and ``out`` a C-order ``np.empty``. einsum zeroes the
output and then runs one iterator over k, i and j. j is the only axis with
a unit stride in both y and out (out's k stride is 0, and y's k stride is
n >= 2 values), so the iterator makes j its inner axis and each inner loop
computes ``out[i, j] += x[k, i] * y[k, j]`` over a row; k is an outer axis,
run in ascending order because y's k stride is positive. That is the
triple loop: each entry is the k-ascending sum from +0.0, a multiply then
an add, so a ``-0.0`` total comes out ``+0.0``. numpy 2.4.6 builds its
einsum loops for the x86-64-v2 baseline, which has no FMA, and the SIMD
level does not change them. ``order="C"`` would put k innermost, where a
contiguous k runs numpy's vector dot loop, which sums in another order.

The entry is private to numpy and the rule rests on how numpy builds it,
so the first product binds the kernel, once per process: ``_bind``
imports the entry, makes it ``_kernel`` and checks it through
``_products`` against left-to-right sums of Python-float products.
-1 + (1 + 2^-30)^2 must come out 2^-29, which an FMA would not give, and a
long sum of 1e16, 1, -1e16, ... must match, which any other order would
not. If the import fails (a numpy without the entry) or the
check does (a build whose baseline fuses the multiply-add, say),
``_kernel`` is ``_k_loop`` for good. ``_k_loop`` serves a 1x1 output too,
where n >= 2 cannot hold: it adds ``x[k] * y[k]`` into a zeroed output one
k at a time, which gives the same bits.

NaN payloads are outside the contract: any NaN ends a run with exit 4, so
no artifact holds one. The positions of NaNs and infinities are the triple
loop's; the payloads need not be. The triple loop keeps the first operand's
payload where two NaNs meet. einsum adds the running total to the new
product as ``product + total``, so a NaN product carries its own payload
past a NaN total, and a product of two NaNs carries either factor's
payload, depending on the entry's position (numpy's vector loop and its
scalar tail differ) and on the switch.

The kernel does not check finiteness; the model checks its losses,
gradients, logits and embeddings once per call instead, with ``all_finite``.

RNG contract (xorshift64*, seeded through splitmix64):

    state0 = splitmix64(seed), or its gamma if that is 0; 0 <= seed < 2^64
    state' = xorshift64*(state)
    u64    = (state' * 0x2545F4914F6CDD1D) mod 2^64
    f      = (u64 >> 11) * 2^-53          # uniform in [0, 1)

Reference stream for seed=1, first five uniforms:
    0.29404672187536496, 0.8432913574055981, 0.37141301636381596,
    0.23114710925829274, 0.8590431711703592
(regenerate with ``RngState(1).uniforms(5)``).

``RngState`` draws in bulk: ``uniforms(count)`` returns the next ``count``
uniforms in a new array, which the caller may write into (``_box_muller``
does). It serves them from a lookahead block of 512. xorshift is linear
over GF(2), so the state i+1 steps after x is the xor, over the set bits b
of x, of the state i+1 steps after ``1 << b``; those 64 x 512 states are
one jump table (256 KB), built on first use, and a block is one xor
reduction over it, from the last state of the block before. Its uniforms
are ``(state' * MULT) >> 11`` on uint64 arrays (numpy wraps like
``mod 2^64``), converted to float64 and scaled by 2^-53, exactly.

Each consumer is a formula on consecutive uniforms u. ``Batch.draw`` and
replay sampling index with ``int(u * n)``. ``shuffled``, a Fisher-Yates
shuffle, swaps entry i with entry ``i + int(u * (n - i))``.
``gaussian_fill`` makes Box-Muller pairs: (u1, u2) gives
``sqrt(-2 log u1) * (cos, sin)(2 pi u2)``, a zero u1 taken as 2^-53. Its
log, cos and sin are ``math``'s, mapped over Python floats: ``np.log``
rounds differently from ``math.log`` on some inputs (6,986 of 2,000,000
uniforms on numpy 2.4.6), which would change the stream. sqrt and the
products are correctly rounded in both and stay vectorised. The fill runs
in chunks of 1,024 uniforms, so its temporaries stay under 100 KB whatever
the matrix size. ``tests/scalar_rng.py`` steps the same generator one draw
at a time; the tests compare every consumer with it.
"""

from __future__ import annotations

import functools
import math
import operator

import numpy as np

_MASK64 = (1 << 64) - 1
_XORSHIFT_MULT = 0x2545F4914F6CDD1D
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
# States per jump-table block: the table is 64 x 512 uint64, 256 KB.
_JUMP_ROWS = 512
# Bit positions 0..63, to pick a state's set bits as a mask.
_BIT_INDEX = np.arange(64, dtype=np.uint64)


def _splitmix64(x: int) -> int:
    x = (x + _SPLITMIX_GAMMA) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def check_seed(seed) -> int:
    """``seed`` as an int, for an integer in [0, 2^64) (numpy integers too,
    bools not); any other seed raises ValueError rather than aliasing one in
    range. Checkpoint headers store the seed as a u64."""
    if isinstance(seed, (int, np.integer)) and not isinstance(seed, bool) \
            and 0 <= int(seed) <= _MASK64:
        return int(seed)
    raise ValueError(f"seed must be an integer in [0, 2**64), got {seed!r}")


def _seed_state(seed: int) -> int:
    """The state the stream of ``seed`` starts from (see `check_seed`)."""
    return _splitmix64(check_seed(seed)) or _SPLITMIX_GAMMA


class RngState:
    """xorshift64* generator drawn in bulk; single-owner mutable, no
    platform entropy."""

    def __init__(self, seed: int):
        # The lookahead: a block's uniforms, how many have been read, and
        # the state the next block starts from (the block's last state).
        # The first call makes the first block.
        self._block: np.ndarray | None = None
        self._read = _JUMP_ROWS
        self._next = _seed_state(seed)

    def uniforms(self, count: int) -> np.ndarray:
        """The stream's next ``count`` uniforms as a new float64 array,
        served from the lookahead block."""
        out = np.empty(count)
        done = 0
        while done < count:
            if self._read == _JUMP_ROWS:
                states = _states_after(self._next)
                self._next = int(states[-1])
                self._block = _uniforms_of(states)
                self._read = 0
            k = min(count - done, _JUMP_ROWS - self._read)
            out[done:done + k] = self._block[self._read:self._read + k]
            self._read += k
            done += k
        return out

    def shuffled(self, n: int, k: int) -> list[int]:
        """The first k entries of a Fisher-Yates shuffle of range(n): entry
        i swaps with entry i + int(u * (n - i)), for i < k and the next k
        uniforms u."""
        if not 0 <= k <= n:
            raise ValueError(f"cannot choose {k} from {n}")
        idx = list(range(n))
        for i, u in enumerate(self.uniforms(k).tolist()):
            j = i + int(u * (n - i))
            idx[i], idx[j] = idx[j], idx[i]
        return idx[:k]

    def choose_without_replacement(self, n: int, k: int) -> list[int]:
        """k distinct indices from [0, n), ascending. Consumes exactly k draws."""
        return sorted(self.shuffled(n, k))


def _states_after(x: int) -> np.ndarray:
    """The _JUMP_ROWS states that follow state x: the xor of the jump
    table's rows at the set bits of x, picked by one boolean mask."""
    bits = np.uint64(x) >> _BIT_INDEX & np.uint64(1) == 1
    return np.bitwise_xor.reduce(_jump_table()[bits], axis=0)


def _uniforms_of(states: np.ndarray) -> np.ndarray:
    """The contract's uniform for each raw state: (state' * MULT) mod 2^64
    (uint64 wraps), its top 53 bits, times 2^-53; every step is exact."""
    u64 = states * np.uint64(_XORSHIFT_MULT)
    return (u64 >> 11).astype(np.float64) * 2.0 ** -53


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


_FLOAT64 = np.dtype(np.float64)
_SUBSCRIPTS = "ki,kj->ij"


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Deterministic product: accumulation over k ascending, bit-equal to the
    naive triple loop up to NaN payloads (see the module docstring)."""
    if type(a) is not np.ndarray or a.dtype is not _FLOAT64 or a.ndim != 2:
        a = as_matrix(a)
    if type(b) is not np.ndarray or b.dtype is not _FLOAT64 or b.ndim != 2:
        b = as_matrix(b)
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul dimension mismatch: {a.shape} x {b.shape}")
    return _products(a.T, b)


def _products(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x.T @ y for K-row x and y, C-contiguous: the sum over k of the outer
    products x[k] (x) y[k], k ascending from +0.0, by the bound `_kernel`
    (`_k_loop` for an output of one value). x (K, m) and y (K, n) give
    (m, n). For n < m it sums y.T @ x and returns its transpose's copy."""
    if switched := y.shape[1] < x.shape[1]:
        x, y = y, x
    y = y if y.flags.c_contiguous else np.ascontiguousarray(y)
    out = np.empty((x.shape[1], y.shape[1]))
    (_kernel if y.shape[1] > 1 else _k_loop)(_SUBSCRIPTS, x, y, out=out)
    return out.T.copy() if switched else out


def _k_loop(subscripts, x, y, out):
    """The fallback sum, called as the C entry is: x[k] (x) y[k] added one
    k at a time to a +0.0 start (Python's ``sum`` starts from 0), into
    ``out``."""
    out[...] = sum(p * q for p, q in zip(x[:, :, None], y[:, None, :]))


def _bind(subscripts, x, y, out):
    """The kernel until the first product: binds numpy's C einsum entry as
    `_kernel` if it imports and gives the k loop's bits through
    `_products`, else `_k_loop`, then sums with what it bound. The bits are
    checked against left-to-right sums of Python-float products: entry
    (0, 0) is -1 + (1 + 2^-30)^2, which is 2^-29 unfused and 2^-29 + 2^-60
    under an FMA; entry (1, 1) adds a long run of terms whose sum changes
    with any other order."""
    global _kernel
    try:
        from numpy._core.multiarray import c_einsum
    except ImportError:  # a numpy without the entry
        c_einsum = _k_loop
    _kernel = c_einsum
    terms = [1e16, 1.0, -1e16, 1.0, 3.0, -2.0, 0.5, 1e-3] * 9
    rows = [[-1.0, 1.0 + 2.0 ** -30] + [0.0] * len(terms), [0.0, 0.0] + terms]
    cols = [[1.0, 1.0 + 2.0 ** -30] + terms[::-1], [1.0] * (2 + len(terms))]
    want = [[functools.reduce(operator.add, map(operator.mul, r, c), 0.0)
             for c in cols] for r in rows]
    if _products(np.array(rows).T, np.array(cols).T).tolist() != want:
        _kernel = _k_loop
    _kernel(subscripts, x, y, out=out)


# What sums a product whose output holds more than one value: `_bind` until
# the first such product, then numpy's C einsum entry or `_k_loop`.
_kernel = _bind


def all_finite(x: np.ndarray) -> bool:
    """Whether every entry of x is finite: ``np.isfinite(x).all()`` without
    the Python wrapper of ``ndarray.all``."""
    return bool(np.logical_and.reduce(np.isfinite(x), axis=None))


# Uniforms per gaussian_fill chunk (even, so chunks hold whole pairs). Small
# chunks keep the arrays and Python float lists off the peak RSS; larger
# ones measured no faster.
_FILL_CHUNK = 2 * _JUMP_ROWS


def _box_muller(u: np.ndarray) -> np.ndarray:
    """Gaussians from an even number of consecutive uniforms, pair by pair:
    (u1, u2) gives r cos a and r sin a, r = sqrt(-2 log u1), a = 2 pi u2.
    Zero u1 values are replaced by 2^-53 in u itself. log, cos and sin are
    ``math``'s because numpy's do not always round the same way."""
    u1 = u[0::2]
    u1[u1 == 0.0] = 2.0 ** -53
    half = len(u1)
    logs = np.fromiter(map(math.log, u1.tolist()), np.float64, half)
    r = np.sqrt(-2.0 * logs)
    angles = ((2.0 * math.pi) * u[1::2]).tolist()
    out = np.empty(len(u))
    out[0::2] = r * np.fromiter(map(math.cos, angles), np.float64, half)
    out[1::2] = r * np.fromiter(map(math.sin, angles), np.float64, half)
    return out


def gaussian_fill(rng: RngState, rows: int, cols: int,
                  mean: float = 0.0, std: float = 1.0) -> np.ndarray:
    """rows x cols matrix of i.i.d. Gaussians via Box-Muller.

    Consumes 2*ceil(rows*cols/2) uniform draws; the trailing value of an odd
    request's final pair is discarded. The matrix is filled row-major with
    ``_box_muller``'s pairs.
    """
    if std < 0:
        raise ValueError("std must be >= 0")
    n = rows * cols
    n_states = n + n % 2
    vals = np.empty(n_states)
    for start in range(0, n_states, _FILL_CHUNK):
        stop = min(start + _FILL_CHUNK, n_states)
        vals[start:stop] = _box_muller(rng.uniforms(stop - start))
    return (mean + std * vals[:n]).reshape(rows, cols)


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
