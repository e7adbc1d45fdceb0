import json
import types

import numpy as np
import pytest
from numpy._core.multiarray import c_einsum

from ilora_lab import (Batch, RngState, finite_diff_grad, gaussian_fill,
                       matmul, numerics)
from ilora_lab.numerics import (_FILL_CHUNK, _JUMP_ROWS, _box_muller,
                                _states_after)

import scalar_rng
from conftest import make_batch
from scalar_rng import ScalarRng, assert_same_next
from test_golden import GOLDEN, run_digests

# The former kernel's thresholds, kept as the sizes its tests straddle: the
# vector path took K*m*n <= 32k products, and blocked sums took 64k
# products a block.
OLD_VECTOR_MAX = 1 << 15
OLD_BLOCK_MAX = 1 << 16


def loop_sum(xs, ys):
    """The sum over k of xs[k] * ys[k], k-ascending from 0.0, on Python
    floats. A step whose two operands are both NaN calls the ufunc on
    float64 scalars, which keeps the first operand's payload: CPython's
    float operators keep either one, depending on whether the interpreter
    has specialised the code. One NaN operand leaves no choice."""
    s = 0.0
    for x, y in zip(xs, ys):
        p = x * y if x == x or y == y else np.multiply(x, y)
        s = s + p if s == s or p == p else np.add(s, p)
    return s


def triple_loop_matmul(a, b):
    """The naive product: each entry a `loop_sum`, a's entry the first
    factor and the running sum the first addend."""
    rows = np.asarray(a, dtype=np.float64).tolist()
    cols = np.asarray(b, dtype=np.float64).T.tolist()
    out = np.zeros((len(rows), len(cols)))
    for i, row in enumerate(rows):
        for j, col in enumerate(cols):
            out[i, j] = loop_sum(row, col)
    return out


def loop_entry(a, b, i, j):
    """Entry (i, j) of the triple loop."""
    return loop_sum(a[i].tolist(), b[:, j].tolist())


def signed_zeros(rng, x, frac=0.2):
    """x with a fraction of its entries replaced by 0.0 or -0.0."""
    x = x.copy()
    hit = rng.random(x.shape) < frac
    x[hit] = np.where(rng.random(x.shape) < 0.5, 0.0, -0.0)[hit]
    return x


def operand(rng, rows, cols, layout):
    """A rows x cols operand: C-contiguous, a transposed view or a strided
    column slice."""
    if layout == "T":
        return signed_zeros(rng, rng.standard_normal((cols, rows))).T
    if layout == "strided":
        return signed_zeros(rng, rng.standard_normal((rows, 2 * cols)))[:, ::2]
    return signed_zeros(rng, rng.standard_normal((rows, cols)))


def assert_bit_equal_to_loop(a, b, rng, max_full=4096, samples=16):
    """Byte-compare matmul with the triple loop: every entry for small
    products, a seeded sample of entries for large ones."""
    out = matmul(a, b)
    m, k = a.shape
    n = b.shape[1]
    if m * k * n <= max_full:
        assert out.tobytes() == triple_loop_matmul(a, b).tobytes(), (m, k, n)
        return
    for _ in range(samples):
        i, j = int(rng.integers(m)), int(rng.integers(n))
        want = np.float64(loop_entry(a, b, i, j))
        assert out[i, j].tobytes() == want.tobytes(), (m, k, n, i, j)


def spy_einsum(monkeypatch, fail_at=0):
    """Record (x shape, y shape, buffer size) of every call of the bound
    kernel, numpy's C einsum entry; raise FloatingPointError at call number
    fail_at."""
    matmul(np.ones((1, 2)), np.ones((2, 2)))  # binds the kernel
    assert numerics._kernel is c_einsum
    calls = []

    def spy(subscripts, x, y, **kwargs):
        calls.append((x.shape, y.shape, np.getbufsize()))
        if len(calls) == fail_at:
            raise FloatingPointError("injected")
        return c_einsum(subscripts, x, y, **kwargs)

    monkeypatch.setattr(numerics, "_kernel", spy)
    return calls


@pytest.fixture
def bufsize_4096():
    old = np.setbufsize(4096)
    yield
    np.setbufsize(old)


def bits(x):
    return np.ascontiguousarray(x).view(np.uint64)


class TestMatmulBitExact:
    """matmul must reproduce the naive k-ascending triple loop bit for bit on
    both kernel paths, whatever the operand layout."""

    SIDES = (1, 2, 3, 16, 64, 256)
    INNER = (1, 2, 9, 16, 33, 64, 256)
    LAYOUTS = ("C", "T", "strided")

    def test_shape_grid(self):
        rng = np.random.default_rng(20240229)
        for m in self.SIDES:
            for n in self.SIDES:
                for k in self.INNER:
                    a = operand(rng, m, k, self.LAYOUTS[rng.integers(3)])
                    b = operand(rng, k, n, self.LAYOUTS[rng.integers(3)])
                    assert_bit_equal_to_loop(a, b, rng)

    def test_both_sides_of_vector_cutoff(self):
        # both sides of the former vector path's 32k-product cutoff
        rng = np.random.default_rng(7)
        for m, k, n in ((2, 256, 64), (3, 256, 64), (16, 64, 32),
                        (16, 64, 33), (1, 256, 128), (1, 256, 129)):
            for layout in self.LAYOUTS:
                a = operand(rng, m, k, layout)
                b = operand(rng, k, n, layout)
                assert_bit_equal_to_loop(a, b, rng, max_full=OLD_VECTOR_MAX * 2)

    def test_single_output_uses_sequential_sum(self):
        # numpy sums a contiguous axis pairwise; a 1x1 output must not
        rng = np.random.default_rng(3)
        for k in (16, 64, 256, 1000):
            a = rng.standard_normal((1, k)) * 10.0 ** rng.integers(-8, 8, (1, k))
            b = rng.standard_normal((k, 1))
            assert_bit_equal_to_loop(a, b, rng, max_full=k)

    def test_negative_zero_total_becomes_positive_zero(self):
        # B = 0 at adapter init: every product of B @ A is +-0.0
        rng = np.random.default_rng(5)
        for m, k, n in ((8, 4, 16), (32, 8, 16), (64, 32, 256)):
            a = np.zeros((m, k))
            b = -np.abs(rng.standard_normal((k, n)))
            out = matmul(a, b)
            assert not np.signbit(out).any()
            assert out.tobytes() == triple_loop_matmul(a, b).tobytes()

    def test_skewed_shapes_just_under_the_cutoff(self):
        # skewed shapes under the former vector cutoff; when n < m the
        # kernel sums b x a.T and returns its transpose
        rng = np.random.default_rng(13)
        for m, k, n in ((256, 16, 8), (255, 16, 8), (1024, 32, 1),
                        (8, 16, 256), (8, 16, 255), (1, 32, 1024),
                        (64, 2, 255), (2, 64, 255)):
            for layout_a in self.LAYOUTS:
                for layout_b in self.LAYOUTS:
                    a = operand(rng, m, k, layout_a)
                    b = operand(rng, k, n, layout_b)
                    out = matmul(a, b)
                    assert out.flags.c_contiguous, (m, k, n)
                    assert_bit_equal_to_loop(a, b, rng,
                                             max_full=OLD_VECTOR_MAX)


class TestMatmulLongRows:
    """Products with long rows or a long K give the loop's bytes, and run
    under the caller's ufunc buffer size: the kernel sets none."""

    # (long side, k, short side), each over the former vector cutoff:
    # around and over 256-value rows, the joined 1,820-row sweep,
    # wide-adapter's three 64-value-row products and a product whose longer
    # side is under 16
    SHAPES = ((255, 17, 8), (256, 17, 8), (257, 17, 8), (300, 17, 8),
              (1820, 5, 4), (64, 256, 64), (64, 256, 32), (4, 4096, 4))

    def test_long_rows_give_the_loop_bytes(self):
        rng = np.random.default_rng(29)
        layouts = TestMatmulBitExact.LAYOUTS
        for long, k, short in self.SHAPES:
            for m, n in ((long, short), (short, long)):
                for layout_a in layouts:
                    for layout_b in layouts:
                        a = operand(rng, m, k, layout_a)
                        b = operand(rng, k, n, layout_b)
                        out = matmul(a, b)
                        assert out.flags.c_contiguous, (m, k, n)
                        assert_bit_equal_to_loop(a, b, rng,
                                                 max_full=k * m * n)

    @pytest.mark.parametrize("m, n", [(1820, 4), (4, 1820), (300, 8),
                                      (64, 64), (4, 4)])
    def test_buffer_size_scoped_to_the_loop(self, monkeypatch, bufsize_4096,
                                            m, n):
        # the einsum loop runs in the caller's buffer-size scope: one call,
        # on the longer side's rows, under the caller's 4096
        k = max(16, OLD_VECTOR_MAX // (m * n) + 1)
        calls = spy_einsum(monkeypatch)
        out = matmul(np.ones((m, k)), np.ones((k, n)))
        assert (out == k).all()
        short, long = sorted((m, n))
        assert calls == [((k, short), (k, long), 4096)]
        assert np.getbufsize() == 4096

    @pytest.mark.parametrize("m, n", [(1820, 4), (4, 1820)])
    def test_buffer_size_restored_after_an_error(self, monkeypatch,
                                                 bufsize_4096, m, n):
        calls = spy_einsum(monkeypatch, fail_at=1)
        with pytest.raises(FloatingPointError, match="injected"):
            matmul(np.ones((m, 16)), np.ones((16, n)))
        assert calls == [((16, 4), (16, 1820), 4096)]
        assert np.getbufsize() == 4096


def nan(payload, negative=False):
    """A quiet NaN with the given payload."""
    word = 0x7FF8000000000000 | payload | (1 << 63 if negative else 0)
    return np.array(word, dtype=np.uint64).view(np.float64)[()]


def test_the_loop_keeps_the_first_nan_on_every_call():
    # products and sums of two NaNs: CPython's `*` on Python floats keeps
    # the second payload until the interpreter specialises the code, and
    # the first after; a fresh copy of loop_sum's code starts unspecialised
    fresh = types.FunctionType(loop_sum.__code__.replace(), globals())
    xs = [float(nan(1)), float(nan(3))]
    ys = [float(nan(2, True)), float(nan(4))]
    for _ in range(20):
        assert (bits(fresh(xs, ys)) == bits(nan(1))).all()


def product_first_matmul(a, b):
    """The triple loop with einsum's sum order where two NaNs meet: the
    product as the first addend, ``product + total``. No product in the
    test's operands has two NaN factors."""
    out = np.zeros((a.shape[0], b.shape[1]))
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            s = np.float64(0.0)
            for x, y in zip(a[i], b[:, j]):
                s = np.add(np.multiply(x, y), s)
            out[i, j] = s
    return out


class TestMatmulBlocked:
    """Shapes at the edges of the former blocked sums, which summed a small
    output over a long K a block of 65,536 / output-size k's at a time:
    each entry is still the triple loop's k-ascending sum from +0.0, bit
    for bit."""

    @staticmethod
    def k_around(block):
        return (block - 1, block, block + 1, 2 * block + 3)

    # both sides of the orientation switch, and a block of 256 k's
    @pytest.mark.parametrize("m, n", [(64, 32), (32, 64), (64, 64), (16, 16)])
    def test_block_edges_give_the_loop_bits(self, m, n):
        block = OLD_BLOCK_MAX // (m * n)
        rng = np.random.default_rng(m * 1000 + n)
        for k in self.k_around(block):
            a = operand(rng, m, k, "T")
            b = operand(rng, k, n, "strided")
            out = matmul(a, b)
            assert out.flags.c_contiguous
            assert (bits(out) == bits(triple_loop_matmul(a, b))).all()

    # the slices of a (G, ...) stack, around the block of its G products
    @pytest.mark.parametrize("G, m, n", [(1, 32, 16), (3, 16, 32),
                                         (3, 32, 16)])
    def test_stacks_give_the_loop_bits(self, G, m, n):
        block = OLD_BLOCK_MAX // (G * m * n)
        rng = np.random.default_rng(G * 10007 + m * 101 + n)
        for k in self.k_around(block):
            a = stack_operand(rng, G, m, k, "inner")
            b = stack_operand(rng, G, k, n, "T")
            for g in range(G):
                want = triple_loop_matmul(a[g], b[g])
                out = matmul(a[g], b[g])
                assert (bits(out) == bits(want)).all(), (G, m, k, n, g)

    def test_negative_zero_total_becomes_positive_zero(self):
        # every product is -0.0; the loop's sum starts at +0.0
        rng = np.random.default_rng(17)
        for m, k, n in ((64, 256, 64), (64, 256, 32), (16, 300, 16)):
            a = np.zeros((m, k))
            b = -np.abs(rng.standard_normal((k, n)))
            out = matmul(a, b)
            assert not np.signbit(out).any()
            assert (bits(out) == bits(triple_loop_matmul(a, b))).all()

    @pytest.mark.parametrize("m, n", [(64, 32), (32, 64)])
    def test_nan_payloads_and_infinities_match_the_loop(self, m, n):
        # NaNs and infinities sit where the loop puts them, and every other
        # entry has the loop's bits; the payloads follow einsum's
        # ``product + total``, so the last NaN product's payload survives
        block = OLD_BLOCK_MAX // (m * n)
        k = 2 * block + 3
        rng = np.random.default_rng(43)
        a = rng.standard_normal((m, k))
        b = rng.standard_normal((k, n))
        a[3, 0], a[3, block], a[3, block + 1] = nan(1), nan(2, True), nan(3)
        a[5, block + 2] = nan(4, True)
        b[block + 4, 7] = nan(5)
        b[9, :] = np.inf
        a[7, 9], a[8, 9] = 0.0, -np.inf
        b[2 * block, 1] = -np.inf
        with np.errstate(invalid="ignore"):
            out = matmul(a, b)
            want = triple_loop_matmul(a, b)
            product_first = product_first_matmul(a, b)
        is_nan = np.isnan(want)
        assert (np.isnan(out) == is_nan).all()
        assert np.isinf(want).any()
        assert (bits(out)[~is_nan] == bits(want)[~is_nan]).all()
        assert (bits(out) == bits(product_first)).all()
        payloads = {int(w) for w in bits(out)[np.isnan(out)]}
        assert {int(nan(3).view(np.uint64)), int(nan(4, True).view(np.uint64)),
                int(nan(5).view(np.uint64))} < payloads
        # two NaNs in one product: a NaN either way, of either payload
        a, b = np.array([[nan(6)]]), np.array([[nan(7), nan(8, True)]])
        with np.errstate(invalid="ignore"):
            out = matmul(a, b)
        assert np.isnan(out).all()
        factors = (nan(6), nan(7), nan(8, True))
        assert set(bits(out).ravel().tolist()) <= \
            {int(f.view(np.uint64)) for f in factors}

    # a return, and an error in the second product
    @pytest.mark.parametrize("fail_at", [0, 2])
    def test_buffer_size_restored(self, monkeypatch, bufsize_4096, fail_at):
        calls = spy_einsum(monkeypatch, fail_at)
        a, b = np.ones((16, 256)), np.ones((256, 64))
        assert (matmul(a, b) == 256.0).all()
        if fail_at:
            with pytest.raises(FloatingPointError, match="injected"):
                matmul(a, b)
        assert calls == [((256, 16), (256, 64), 4096)] * (fail_at or 1)
        assert np.getbufsize() == 4096

    @pytest.mark.parametrize("G", [1, 3])
    def test_single_outputs_stay_sequential(self, monkeypatch, G):
        # numpy sums a contiguous (K, 1) axis pairwise; a 1x1 output takes
        # the k loop however long K is, never einsum, here G of them
        rng = np.random.default_rng(G)
        k = 1000
        scale = 10.0 ** rng.integers(-8, 8, (G, 1, k))
        a = rng.standard_normal((G, 1, k)) * scale
        b = rng.standard_normal((G, k, 1))
        calls = spy_einsum(monkeypatch)
        outs = [matmul(x, y) for x, y in zip(a, b)]
        assert calls == []
        for g in range(G):
            want = triple_loop_matmul(a[g], b[g])
            assert (bits(outs[g]) == bits(want)).all()


class TestMatmulCallerBufsize:
    """The caller's ufunc buffer size changes no byte of a product, on
    either kernel path."""

    # the former vector path's, blocked sums' and k loop's shapes, both
    # orientations, and the 1x1 output
    SHAPES = ((8, 16, 64), (64, 16, 8), (64, 256, 32), (32, 256, 64),
              (300, 17, 8), (8, 17, 300), (1, 300, 1))

    @pytest.mark.parametrize("m, k, n", SHAPES)
    def test_bytes_do_not_depend_on_the_callers_buffer(self, m, k, n):
        rng = np.random.default_rng(m * 1000 + n)
        a = operand(rng, m, k, "T")
        b = operand(rng, k, n, "strided")
        outs = set()
        for size in (16, 8192, 1 << 16):
            old = np.setbufsize(size)
            try:
                outs.add(matmul(a, b).tobytes())
                assert np.getbufsize() == size
            finally:
                np.setbufsize(old)
        assert len(outs) == 1


def stack_operand(rng, G, rows, cols, layout):
    """A (G, rows, cols) stack: C-contiguous, each slice a transposed view,
    every other column, or the stack axis inside (the layout of a
    (rows, G, cols) array seen as G slices)."""
    if layout == "T":
        x = rng.standard_normal((G, cols, rows)).transpose(0, 2, 1)
    elif layout == "strided":
        x = rng.standard_normal((G, rows, 2 * cols))[:, :, ::2]
    elif layout == "inner":
        x = rng.standard_normal((rows, G, cols)).transpose(1, 0, 2)
    else:
        x = rng.standard_normal((G, rows, cols))
    hit = rng.random(x.shape) < 0.2
    x[hit] = np.where(rng.random(x.shape) < 0.5, 0.0, -0.0)[hit]
    return x


class TestStackedMatmul:
    """matmul over the slices of (G, ...) stacks, one 2-D product a slice:
    each gives the triple loop's bytes, on both kernel paths and in both
    orientations, whatever the stack's layout; a stack itself is refused."""

    LAYOUTS = ("C", "T", "strided", "inner")
    # (G, m, K, n): the former vector path with n >= m and n < m; the
    # former blocked sums with n >= m and n < m, a whole block and a
    # partial one; a 1x1 output, rows over 256 values in both orientations
    # and the former k loop's block under 8 k's; and G = 1
    SHAPES = ((3, 4, 5, 6), (3, 6, 5, 4), (8, 16, 8, 32), (8, 32, 8, 16),
              (2, 1, 9, 1), (3, 20, 30, 70), (3, 70, 30, 20), (4, 5, 33, 9),
              (1, 8, 8, 32), (1, 64, 17, 40), (1, 40, 17, 64),
              (2, 3, 40, 300), (2, 300, 40, 3), (3, 48, 8, 60))

    @pytest.mark.parametrize("G, m, k, n", SHAPES)
    def test_slices_match_the_loop(self, G, m, k, n):
        rng = np.random.default_rng(G * 10007 + m * 101 + n)
        for layout_a in self.LAYOUTS:
            for layout_b in self.LAYOUTS:
                a = stack_operand(rng, G, m, k, layout_a)
                b = stack_operand(rng, G, k, n, layout_b)
                for g in range(G):
                    out = matmul(a[g], b[g])
                    assert out.flags.c_contiguous
                    want = triple_loop_matmul(a[g], b[g]).tobytes()
                    assert out.tobytes() == want, (G, m, k, n, g)

    # (G, m, K, n) and the (x, y) shapes einsum sees for each slice: y is
    # the longer side
    PATHS = (
        ((8, 16, 8, 32), [((8, 16), (8, 32))] * 8),
        ((3, 70, 30, 20), [((30, 20), (30, 70))] * 3),
        ((1, 2, 60, 300), [((60, 2), (60, 300))]),
        # a 1x1 output: the k loop
        ((2, 1, 40, 1), []))

    def test_both_paths_are_taken(self, monkeypatch):
        calls = spy_einsum(monkeypatch)
        for (G, m, k, n), shapes in self.PATHS:
            calls.clear()
            a, b = np.ones((G, m, k)), np.ones((G, k, n))
            for x, y in zip(a, b):
                assert (matmul(x, y) == k).all()
            assert [call[:2] for call in calls] == shapes, (G, m, k, n)

    def test_negative_zero_total_becomes_positive_zero(self):
        rng = np.random.default_rng(5)
        for G, m, k, n in ((4, 8, 4, 16), (4, 16, 4, 8), (2, 64, 32, 256)):
            a = np.zeros((G, m, k))
            b = -np.abs(rng.standard_normal((G, k, n)))
            for x, y in zip(a, b):
                assert not np.signbit(matmul(x, y)).any()

    def test_shape_mismatch(self):
        # a stack is not a matrix, and slices must still fit each other
        for a, b in ((np.ones((2, 3, 4)), np.ones((2, 4, 6))),
                     (np.ones((3, 4)), np.ones((2, 4, 6))),
                     (np.ones((2, 3, 4))[0], np.ones((2, 5, 6))[0])):
            with pytest.raises(ValueError):
                matmul(a, b)

    @pytest.mark.parametrize("m, n", [(300, 8), (8, 300)])
    def test_buffer_size_restored_after_an_error(self, monkeypatch,
                                                 bufsize_4096, m, n):
        calls = spy_einsum(monkeypatch, fail_at=1)
        a, b = np.ones((4, m, 16)), np.ones((4, 16, n))
        with pytest.raises(FloatingPointError, match="injected"):
            matmul(a[0], b[0])
        assert calls == [((16, 8), (16, 300), 4096)]
        assert np.getbufsize() == 4096


def blas_einsum(subscripts, x, y, out):
    """A stand-in that hands the product to BLAS, which fuses and reorders."""
    out[...] = np.matmul(x.T, y)
    return out


def fused_einsum(subscripts, x, y, out):
    """A stand-in that rounds each sum once, from extended precision, as a
    fused multiply-add does."""
    out[...] = c_einsum(subscripts, x.astype(np.longdouble),
                        y.astype(np.longdouble))
    return out


def dot_einsum(subscripts, x, y, out):
    """A stand-in that makes k y's contiguous axis, so einsum runs its
    vector dot loop over k, which sums in another order."""
    return c_einsum(subscripts, x, y.copy(order="F"), out=out)


class TestEinsumProbe:
    """The first product binds numpy's C einsum entry as the kernel when
    the probe passes it, and the k loop when the probe rejects a fused or
    reordering entry or the entry does not import; then every product
    takes the k loop, which gives the same bits."""

    @pytest.fixture
    def fresh_probe(self, monkeypatch):
        monkeypatch.setattr(numerics, "_kernel", numerics._bind)

    def test_this_numpy_passes(self, fresh_probe):
        assert (matmul(np.ones((2, 3)), np.ones((3, 4))) == 3.0).all()
        assert numerics._kernel is c_einsum

    @pytest.mark.parametrize("stand_in", [blas_einsum, fused_einsum,
                                          dot_einsum])
    def test_a_fused_or_reordering_einsum_is_rejected(
            self, monkeypatch, fresh_probe, stand_in):
        calls = []

        def spy(*args, **kw):
            calls.append(args[0])
            return stand_in(*args, **kw)

        monkeypatch.setattr(np._core.multiarray, "c_einsum", spy)
        assert (matmul(np.ones((2, 2)), np.ones((2, 2))) == 2.0).all()
        assert numerics._kernel is numerics._k_loop
        probed = len(calls)
        assert probed >= 1
        rng = np.random.default_rng(61)
        for m, k, n in ((3, 70, 5), (64, 256, 32), (16, 9, 40)):
            a = operand(rng, m, k, "T")
            b = operand(rng, k, n, "strided")
            assert (bits(matmul(a, b)) == bits(triple_loop_matmul(a, b))).all()
        a = stack_operand(rng, 3, 6, 40, "inner")
        b = stack_operand(rng, 3, 40, 9, "C")
        for g in range(3):
            assert (bits(matmul(a[g], b[g])) ==
                    bits(triple_loop_matmul(a[g], b[g]))).all()
        assert len(calls) == probed

    def test_the_fallback_keeps_a_golden_digest(self, monkeypatch, tmp_path,
                                                fresh_probe):
        monkeypatch.setattr(np._core.multiarray, "c_einsum", blas_einsum)
        golden = json.loads(GOLDEN.read_text())
        assert run_digests(tmp_path, "default", "ILORA") == \
            golden["default/ILORA"]
        assert numerics._kernel is numerics._k_loop

    def test_a_missing_c_entry_keeps_a_golden_digest(self, monkeypatch,
                                                     tmp_path, fresh_probe):
        monkeypatch.delattr(np._core.multiarray, "c_einsum")
        with pytest.raises(ImportError):
            from numpy._core.multiarray import c_einsum  # noqa: F401
        golden = json.loads(GOLDEN.read_text())
        assert run_digests(tmp_path, "default", "ILORA") == \
            golden["default/ILORA"]
        assert numerics._kernel is numerics._k_loop


class TestMatmulOperands:
    """2-D float64 ndarrays go straight to the kernel; every other operand
    goes through as_matrix, as before."""

    A = [[1.5, -0.0, 2.0], [0.25, 3.0, -1.0]]
    # a 2x2 and a 2x1 product: both orientations of the vector path
    PARTNERS = ([[2.0, 0.5], [-0.0, 1.0], [4.0, -2.5]],
                [[-0.0], [1.0], [4.0]])

    def reference(self, a, b):
        return triple_loop_matmul(np.asarray(a, dtype=np.float64),
                                  np.asarray(b, dtype=np.float64))

    @pytest.mark.parametrize("convert", [
        lambda x: x,
        np.array,
        np.asfortranarray,
        lambda x: np.array(x, dtype=np.float32),
        lambda x: np.array(x, dtype=">f8"),
        lambda x: np.array(x).view(_Sub),
    ], ids=["list", "ndarray", "fortran", "float32", "big-endian",
            "subclass"])
    def test_converted_operands_give_the_loop_bytes(self, convert):
        for partner in self.PARTNERS:
            a, b = convert(self.A), convert(partner)
            out = matmul(a, b)
            assert type(out) is np.ndarray and out.dtype == np.float64
            assert out.tobytes() == self.reference(a, b).tobytes()
            assert matmul(self.A, b).tobytes() == out.tobytes()
            assert matmul(a, np.array(partner)).tobytes() == out.tobytes()

    def test_int64_operands(self):
        a = np.arange(6, dtype=np.int64).reshape(2, 3) - 2
        b = np.arange(6, dtype=np.int64).reshape(3, 2)
        out = matmul(a, b)
        assert out.dtype == np.float64
        assert out.tobytes() == self.reference(a, b).tobytes()

    @pytest.mark.parametrize("bad", [np.zeros(3), np.zeros((1, 3, 2)),
                                     [1.0, 2.0], np.float64(1.0)],
                             ids=["1-D", "3-D", "flat-list", "0-D"])
    def test_non_matrices_rejected(self, bad):
        good = np.zeros((3, 3))
        for a, b in ((bad, good), (good, bad)):
            with pytest.raises(ValueError, match="expected 2-D matrix"):
                matmul(a, b)

    def test_inputs_are_not_modified(self):
        a = np.array(self.A)
        b = np.array(self.PARTNERS[0])
        before = a.tobytes(), b.tobytes()
        matmul(a, b)
        matmul(a.T, a)
        assert (a.tobytes(), b.tobytes()) == before


class _Sub(np.ndarray):
    pass


class TestMatmul:
    def test_identity(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(matmul(a, np.eye(2)), a)

    def test_annihilation(self):
        a = np.array([[1.0, 0.0], [0.0, 0.0]])
        b = np.array([[0.0], [5.0]])
        assert np.array_equal(matmul(a, b), np.zeros((2, 1)))

    def test_matches_triple_loop_exactly(self):
        rng = RngState(3)
        a = gaussian_fill(rng, 7, 5)
        b = gaussian_fill(rng, 5, 3)
        assert np.array_equal(matmul(a, b), triple_loop_matmul(a, b))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            matmul(np.zeros((2, 3)), np.zeros((2, 3)))

    def test_associativity(self):
        rng = RngState(11)
        for _ in range(10):
            a = gaussian_fill(rng, 4, 6)
            b = gaussian_fill(rng, 6, 5)
            c = gaussian_fill(rng, 5, 3)
            left = matmul(matmul(a, b), c)
            right = matmul(a, matmul(b, c))
            assert np.allclose(left, right, rtol=1e-9, atol=1e-12)


class TestRng:
    def test_stream_reproducible(self):
        assert RngState(42).uniforms(1000).tolist() == \
               RngState(42).uniforms(1000).tolist()

    def test_documented_reference_stream(self):
        want = [0.29404672187536496, 0.8432913574055981, 0.37141301636381596,
                0.23114710925829274, 0.8590431711703592]
        assert RngState(1).uniforms(5).tolist() == want
        assert ScalarRng(1).floats(5) == want

    def test_different_seeds_differ(self):
        assert RngState(0).uniforms(1)[0] != RngState(1).uniforms(1)[0]

    def test_next_below_range(self):
        draws = (RngState(5).uniforms(500) * 7).astype(np.int64).tolist()
        oracle = ScalarRng(5)
        assert draws == [oracle.next_below(7) for _ in range(500)]
        assert set(draws) == set(range(7))

    @pytest.mark.parametrize("seed", [-1, 2 ** 64, 2 ** 64 + 5, -2 ** 64,
                                      np.int64(-1), 1.0, 5.5, "3", True,
                                      None])
    def test_seed_outside_u64_or_not_an_integer_rejected(self, seed):
        # -1 and 2**64 + 5 used to alias 2**64 - 1 and 5
        with pytest.raises(ValueError, match="seed"):
            RngState(seed)

    @pytest.mark.parametrize("seed, same", [
        (np.uint64(2 ** 64 - 1), 2 ** 64 - 1), (np.int32(5), 5),
        (np.int64(0), 0)])
    def test_numpy_integer_seeds_accepted(self, seed, same):
        assert RngState(seed).uniforms(3).tolist() == \
               RngState(same).uniforms(3).tolist()

    def test_choose_without_replacement(self):
        rng = RngState(9)
        chosen = rng.choose_without_replacement(20, 8)
        assert chosen == sorted(chosen)
        assert len(set(chosen)) == 8
        assert all(0 <= i < 20 for i in chosen)
        assert RngState(9).choose_without_replacement(20, 8) == chosen

    @pytest.mark.parametrize("n, k", [(3, 4), (3, -1), (0, 1)])
    def test_shuffled_rejects_k_outside_0_to_n(self, n, k):
        with pytest.raises(ValueError):
            RngState(0).shuffled(n, k)

    @pytest.mark.parametrize("n, c", [(1, 2), (7, 3), (40, 11), (513, 11),
                                      (600, 4)])
    def test_make_batch_matches_the_oracle(self, n, c):
        # the acceptance tests' batches: labels as int(u * c) on bulk
        # uniforms are the oracle's next_below(c), byte for byte
        for seed in (0, 2 ** 64 - 1):
            bulk, oracle = RngState(seed), ScalarRng(seed)
            got = make_batch(bulk, n, 3, c)
            want = scalar_rng.make_batch(oracle, n, 3, c)
            assert got.X.tobytes() == want.X.tobytes(), (n, c, seed)
            assert got.y.dtype == want.y.dtype
            assert got.y.tobytes() == want.y.tobytes(), (n, c, seed)
            assert_same_next(bulk, oracle, n, c, seed)


class TestShuffled:
    """shuffled() through the uniforms lookahead against the oracle."""

    B = _JUMP_ROWS
    CASES = [(0, 0), (1, 0), (1, 1), (7, 0), (7, 7), (20, 8), (B, B),
             (B + 3, B + 3), (3 * B, 5), (2 * B + 1, 2 * B)]

    @pytest.mark.parametrize("already_read", [0, 100, B - 2])
    def test_matches_scalar_fisher_yates(self, already_read):
        # already_read uniforms leave a lookahead block partly read; at
        # B - 2 the shuffle crosses into the next block
        for seed in (0, 2 ** 64 - 1):
            for n, k in self.CASES:
                bulk, oracle = RngState(seed), ScalarRng(seed)
                bulk.uniforms(already_read)
                oracle.floats(already_read)
                ref = scalar_rng.shuffled(oracle, n, k)
                assert bulk.shuffled(n, k) == ref, (seed, n, k)
                assert_same_next(bulk, oracle, seed, n, k)

    def test_choose_is_sorted_shuffle_with_the_same_state(self):
        for n, k in self.CASES:
            bulk, oracle = RngState(n), ScalarRng(n)
            bulk.uniforms(37)
            oracle.floats(37)
            assert bulk.choose_without_replacement(n, k) == \
                   sorted(scalar_rng.shuffled(oracle, n, k)), (n, k)
            assert_same_next(bulk, oracle, n, k)

    def test_k_zero_draws_nothing(self):
        for n in (0, 1, 9):
            rng = RngState(3)
            assert rng.shuffled(n, 0) == []
            assert_same_next(rng, ScalarRng(3), n)


class TestGaussianFill:
    def test_zero_std_gives_mean(self):
        m = gaussian_fill(RngState(1), 3, 4, mean=2.5, std=0.0)
        assert np.array_equal(m, np.full((3, 4), 2.5))

    def test_same_seed_identical(self):
        a = gaussian_fill(RngState(7), 6, 6)
        b = gaussian_fill(RngState(7), 6, 6)
        assert np.array_equal(a, b)

    def test_sample_moments(self):
        m = gaussian_fill(RngState(7), 100, 100, mean=1.0, std=2.0)
        assert abs(m.mean() - 1.0) < 0.05 * 2.0  # tolerance scales with std
        assert abs(m.std() - 2.0) < 0.05 * 2.0

    def test_negative_std_rejected(self):
        with pytest.raises(ValueError):
            gaussian_fill(RngState(0), 2, 2, std=-1.0)


class TestBulkGaussianFill:
    """gaussian_fill's jump-table path against the oracle's gauss_pair."""

    SEEDS = (0, 1, 2 ** 63, 2 ** 64 - 1)
    B = _JUMP_ROWS

    def test_fill_bytes_and_final_state_match_gauss_pair(self):
        B = self.B
        shapes = [(1, 1), (1, 7), (3, 5), (1, B - 1), (2, B // 2),
                  (1, B + 1), (1, 2 * B + 1), (2 * B + 1, 1), (17, 31),
                  (1, _FILL_CHUNK - 1), (3, _FILL_CHUNK + 1)]
        for seed in self.SEEDS:
            for rows, cols in shapes:
                bulk, oracle = RngState(seed), ScalarRng(seed)
                got = gaussian_fill(bulk, rows, cols, 0.25, 1.5)
                want = scalar_rng.gauss_fill(oracle, rows, cols, 0.25, 1.5)
                assert got.shape == (rows, cols)
                assert got.tobytes() == want.tobytes(), (seed, rows, cols)
                assert_same_next(bulk, oracle, seed, rows, cols)

    def test_consecutive_fills_stay_on_the_stream(self):
        bulk, oracle = RngState(3), ScalarRng(3)
        for rows, cols in ((5, 3), (1, 1), (64, 16), (2, 2)):
            assert gaussian_fill(bulk, rows, cols).tobytes() == \
                   scalar_rng.gauss_fill(oracle, rows, cols).tobytes()
        assert_same_next(bulk, oracle)

    def test_zero_uniform_is_replaced_as_in_gauss_pair(self):
        u = np.array([0.0, 0.6180339887498949])
        oracle = ScalarRng(0)
        draws = iter(u.tolist())
        oracle.next_float = lambda: next(draws)
        want = np.array(oracle.gauss_pair())
        got = _box_muller(u.copy())
        assert np.isfinite(got).all()
        assert got.tobytes() == want.tobytes()


class TestBulkUniforms:
    """uniforms() through its lookahead block against the oracle."""

    B = _JUMP_ROWS

    @pytest.mark.parametrize("n", [1, 37, 512, 2 ** 31 - 1])
    def test_indices_and_final_state_match_next_below(self, n):
        B = self.B
        for counts in ((16,) * 70, (1, B - 1, 1), (B + 1, 2 * B - 3, 5),
                       (3 * B + 7,), (0, 9, 0)):
            bulk, oracle = RngState(n), ScalarRng(n)
            for count in counts:
                got = (bulk.uniforms(count) * n).astype(np.int64)
                want = [oracle.next_below(n) for _ in range(count)]
                assert got.tolist() == want, (n, count)
            assert_same_next(bulk, oracle, n, counts)

    @pytest.mark.parametrize("x", [1, 1 << 63, 2 ** 64 - 1,
                                   0x5555555555555555])
    def test_block_is_the_next_states_for_any_bits(self, x):
        oracle = ScalarRng.from_state(x)
        want = []
        for _ in range(self.B):
            oracle.next_u64()
            want.append(oracle.state)
        assert _states_after(x).tolist() == want

    def test_values_are_next_float(self):
        got = RngState(1).uniforms(2 * self.B + 3)
        assert got.dtype == np.float64
        assert got.tolist() == ScalarRng(1).floats(2 * self.B + 3)

    def test_other_consumers_go_on_from_a_partly_read_block(self):
        # each consumer runs with part of a lookahead block read and the
        # rest unread; the stream must go on from the last value read
        batch = Batch(np.arange(20.0).reshape(10, 2), np.arange(10))
        consumers = [
            (lambda r: gaussian_fill(r, 3, 5).tobytes(),
             lambda o: scalar_rng.gauss_fill(o, 3, 5).tobytes()),
            (lambda r: r.choose_without_replacement(30, 7),
             lambda o: sorted(scalar_rng.shuffled(o, 30, 7))),
            (lambda r: r.shuffled(30, 7),
             lambda o: scalar_rng.shuffled(o, 30, 7)),
            (lambda r: batch.draw(13, r).y.tolist(),
             lambda o: [o.next_below(10) for _ in range(13)]),
        ]
        bulk, oracle = RngState(12), ScalarRng(12)
        for i, (consume, oracle_consume) in enumerate(consumers):
            count = 100 + 211 * i  # ends at varying points of a block
            assert bulk.uniforms(count).tolist() == oracle.floats(count), i
            assert consume(bulk) == oracle_consume(oracle), i
        assert bulk.uniforms(5).tolist() == oracle.floats(5)
        assert_same_next(bulk, oracle)

    # from a fresh generator and from a partly read block
    @pytest.mark.parametrize("before", [0, 100])
    def test_state_is_the_last_state_handed_out(self, before):
        # a draw of `steps` values leaves the generator at the oracle's
        # state after exactly that many draws: the next uniforms match
        batch = Batch(np.arange(20.0).reshape(10, 2), np.arange(10))
        draws = [*((lambda r, k=k: r.uniforms(k), k)
                   for k in (0, 1, 511, 512, 513, 1025)),
                 (lambda r: r.shuffled(30, 7), 7),
                 (lambda r: gaussian_fill(r, 3, 5), 16),
                 (lambda r: batch.draw(13, r), 13)]
        for i, (draw, steps) in enumerate(draws):
            rng, oracle = RngState(3), ScalarRng(3)
            rng.uniforms(before)
            draw(rng)
            oracle.floats(before + steps)
            assert_same_next(rng, oracle, i)

    def test_writing_a_returned_array_leaves_the_stream(self):
        bulk, oracle = RngState(8), ScalarRng(8)
        for count in (5, 5, self.B - 10, self.B, 3):
            bulk.uniforms(count)[:] = 0.0
            assert bulk.uniforms(2).tolist() == \
                   oracle.floats(count + 2)[-2:], count
        assert_same_next(bulk, oracle)

    def test_fill_then_bulk_then_fill(self):
        bulk, oracle = RngState(4), ScalarRng(4)
        assert gaussian_fill(bulk, 2, 3).tobytes() == \
               scalar_rng.gauss_fill(oracle, 2, 3).tobytes()
        assert bulk.uniforms(17).tolist() == oracle.floats(17)
        assert gaussian_fill(bulk, 7, 9).tobytes() == \
               scalar_rng.gauss_fill(oracle, 7, 9).tobytes()
        assert_same_next(bulk, oracle)


class TestFiniteDiff:
    def test_quadratic(self):
        g = finite_diff_grad(lambda t: float(np.sum(t * t)),
                             np.array([1.0, -2.0]), h=1e-5)
        assert np.allclose(g, [2.0, -4.0], atol=1e-6)

    def test_constant(self):
        g = finite_diff_grad(lambda t: 3.0, np.array([0.3, 0.7, -1.0]))
        assert np.allclose(g, 0.0, atol=1e-9)

    def test_product(self):
        g = finite_diff_grad(lambda t: float(t[0] * t[1]),
                             np.array([3.0, 5.0]), h=1e-5)
        assert np.allclose(g, [5.0, 3.0], atol=1e-6)

    def test_matches_analytic_forms(self):
        rng = RngState(13)
        theta = gaussian_fill(rng, 1, 6)[0]
        cases = [
            (lambda t: float(np.sum(np.sin(t))), np.cos(theta)),
            (lambda t: float(np.exp(t).sum()), np.exp(theta)),
        ]
        for fn, expected in cases:
            g = finite_diff_grad(fn, theta, h=1e-5)
            assert np.allclose(g, expected, rtol=1e-5)

    def test_non_finite_loss_raises(self):
        with pytest.raises(ArithmeticError):
            finite_diff_grad(lambda t: float("nan"), np.array([1.0]))

    def test_bad_h_rejected(self):
        with pytest.raises(ValueError):
            finite_diff_grad(lambda t: 0.0, np.array([1.0]), h=0.0)
