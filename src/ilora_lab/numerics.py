"""Deterministic dense linear algebra, seeded RNG, and a finite-difference oracle.

All numeric state is float64 numpy. The matmul kernel accumulates over the
inner dimension in ascending order so results are bit-identical to a naive
triple loop (up to NaN payloads, below), whatever the BLAS build. An
operand that is already a 2-D float64 ndarray is used as it is; anything
else goes through ``as_matrix``.

The product is the sum over k of the outer products of column k of a and
row k of b: ``_outer_sum(a.T, b)``, the sum over k of x[k] (x) y[k] for
K-row x and y. It holds the one orientation switch: when n < m it sums
y (x) x and returns that n x m result's transpose as a C-contiguous copy.
Products commute and every entry is still summed k-ascending from +0.0, so
the bytes are the same, and the rows of the product it computes are never
shorter than its columns. NaN payloads are the one exception, where two
NaNs of different payloads meet in a product: x86 keeps the first factor's
payload, and the switch multiplies b's entry by a's, so a 2x1 NaN column
times a 1x1 NaN carries b's payload where the unswitched order carries
a's. numpy's vector loops keep the second factor's payload in some
positions too: on numpy 2.4.6 a 3x1 NaN column times a 1x3 NaN row,
unswitched, carries b's payload in entry (2, 2) alone. Any NaN ends a run
with exit 4, so no artifact holds one. It then takes one of three paths:

- the vector path: small products (K*m*n <= _VECTOR_MAX_ELEMS, output not
  1x1) build a C-contiguous array of the K x rows x cols products and sum
  it over its outer axis, which numpy does slice by slice, i.e.
  k-ascending. Its inner axis is the longer side, because numpy runs one
  inner loop per row and fewer, longer rows cost less. The sum starts from
  ``initial=0.0``, the loop's own zero start, so a ``-0.0`` total comes out
  ``+0.0``. A 1x1 output is left to the k loop because numpy reduces a
  contiguous axis pairwise.
- blocked sums: a larger product whose output is small but whose K is long
  (output not 1x1, rows of at most _BLOCK_MAX_ROW values, and a block of
  _BLOCK_MAX_ELEMS // output-size >= _ROW_BLOCK k's) is summed a block of
  k's at a time. The block's products go into one preallocated
  (block, ..., rows, cols) array, the running total is added into its
  first slice as ``total + products[0]``, and ``np.add.reduce`` over the
  outer axis writes the block's sum into the total. The reduce runs along
  a non-contiguous axis, so numpy adds the slices one by one in k order,
  the running sum as the first operand, as the k loop's ``out += tmp``
  does; it starts from its identity +0.0, which changes no sum that starts
  at +0.0. So each entry is the same k-ascending sum, NaN payloads
  included. A block makes 3 ufunc calls where the k loop makes 2 per k,
  and that per-call cost is most of what the K=256 products of a wide
  adapter step pay: interleaved in-process medians went from 1.87 to
  1.51 ms (h1 @ W2eff.T, 64x256x64), 1.53 to 0.94 ms (64x256x32) and 1.32
  to 0.73 ms (32x256x64). A block of fewer k's, or rows over 256 values
  whose one-k temporary stays in L1, measured slower than the k loop.
- the k loop: any other product loops over k, making each outer product in
  one reused buffer and adding it to the output, so the temporary stays
  the output's size. x[k] is read in place; y is copied to C order
  _ROW_BLOCK rows at a time (a view when it already is), so the copy stays
  _ROW_BLOCK rows. Blocked sums copy each block's y rows the same way.

numpy copies both operands of a broadcast multiply into its ufunc buffers
(8,192 values by default) when a row is shorter than the buffer; with the
buffer size at most the row length it runs its vector loop on each row in
place, 2-3x faster at 256-value rows. So around blocked sums and the k loop
the buffer size is the row length rounded down to a multiple of 16 (numpy
rejects other sizes), and at least 16; a ``finally`` restores the caller's
size on return and on an exception. Every operation there is elementwise
or a slice-by-slice sum, so the buffer size changes no bytes.

``stacked_matmul(a, b)`` computes the G products a[g] @ b[g] of a (G, m, K)
and a (G, K, n) stack through the same ``_outer_sum``, with x (K, G, m) and
y (K, G, n). The switch and all three paths are written with ``...``, so
they serve 2-D and stacked operands; the vector budget counts the whole
stack's K*G*m*n products and the block budget its G*m*n outputs. Slice g
is byte for byte ``matmul(a[g], b[g])``, and each k iteration does G
products' work, which pays where many small products share their shapes.
``matmul`` stays 2-D.

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
# Largest K*m*n product that matmul computes as one K x m x n array
# (32k float64 values, a 256 KB temporary); larger ones take a blocked sum
# or the k loop.
_VECTOR_MAX_ELEMS = 1 << 15
# Rows of y that the k loop copies to C order at a time; also the fewest
# k's a blocked sum takes at a time.
_ROW_BLOCK = 8
# Products a blocked sum multiplies at a time (64k float64 values, a 512 KB
# buffer): a block takes this over the output's size (the whole stack's)
# k's.
_BLOCK_MAX_ELEMS = 1 << 16
# Longest output row that a blocked sum takes; longer rows keep the k loop.
_BLOCK_MAX_ROW = 256


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Deterministic product: accumulation over k ascending, bit-equal to the
    naive triple loop up to NaN payloads (see the module docstring)."""
    if type(a) is not np.ndarray or a.dtype is not _FLOAT64 or a.ndim != 2:
        a = as_matrix(a)
    if type(b) is not np.ndarray or b.dtype is not _FLOAT64 or b.ndim != 2:
        b = as_matrix(b)
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul dimension mismatch: {a.shape} x {b.shape}")
    return _outer_sum(a.T, b)


def stacked_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The G products a[g] @ b[g] of a (G, m, K) and a (G, K, n) float64
    stack as one C-contiguous (G, m, n) array, each bit-equal to
    ``matmul(a[g], b[g])``."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 3 or b.ndim != 3 or a.shape[0] != b.shape[0] \
            or a.shape[2] != b.shape[1]:
        raise ValueError(f"stacked_matmul shape mismatch: "
                         f"{a.shape} x {b.shape}")
    return _outer_sum(a.transpose(2, 0, 1), b.transpose(1, 0, 2))


def _outer_sum(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x.T @ y for K-row x and y, C-contiguous: the sum over k of the outer
    products x[k] (x) y[k], k ascending from +0.0; for n < m, the transpose
    of y.T @ x. x (K, m) and y (K, n) give (m, n); stacks x (K, G, m) and
    y (K, G, n) give the G products as (G, m, n)."""
    if y.shape[-1] < x.shape[-1]:
        return np.ascontiguousarray(_outer_sum(y, x).swapaxes(-1, -2))
    m = x.shape[-1]
    n = y.shape[-1]
    if m * n > 1 and x.size * n <= _VECTOR_MAX_ELEMS:
        return np.add.reduce(np.multiply(x[..., None], y[..., None, :],
                                         order="C"), axis=0, initial=0.0)
    out = np.zeros((*x.shape[1:], n))
    block = 0
    if m * n > 1 and n <= _BLOCK_MAX_ROW:
        block = _BLOCK_MAX_ELEMS // out.size
    caller_bufsize = np.setbufsize(max(16, n // 16 * 16))
    try:
        if block >= _ROW_BLOCK:
            products = np.empty((block, *out.shape))
            for start in range(0, len(x), block):
                stop = start + block
                rows = np.ascontiguousarray(y[start:stop])
                p = products[:len(rows)]
                np.multiply(x[start:stop, ..., None], rows[..., None, :],
                            out=p)
                np.add(out, p[0], out=p[0])
                np.add.reduce(p, axis=0, out=out)
        else:
            tmp = np.empty_like(out)
            for start in range(0, len(x), _ROW_BLOCK):
                stop = start + _ROW_BLOCK
                rows = np.ascontiguousarray(y[start:stop])[..., None, :]
                for x_k, y_k in zip(x[start:stop, ..., None], rows):
                    np.multiply(x_k, y_k, out=tmp)
                    out += tmp
    finally:
        np.setbufsize(caller_bufsize)
    return out


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
