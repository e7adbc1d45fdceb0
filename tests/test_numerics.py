import numpy as np
import pytest

from ilora_lab import (Batch, RngState, finite_diff_grad, gaussian_fill,
                       matmul)
from ilora_lab.numerics import (_BLOCK_MAX_ELEMS, _FILL_CHUNK, _JUMP_ROWS,
                                _VECTOR_MAX_ELEMS, _box_muller,
                                _states_after, skip_gaussian_fill,
                                stacked_matmul)


def triple_loop_matmul(a, b):
    """The naive product: each entry summed k-ascending from 0.0. It runs on
    Python floats, the same IEEE doubles as the float64 entries."""
    m, _ = a.shape
    _, n = b.shape
    rows = np.asarray(a, dtype=np.float64).tolist()
    cols = np.asarray(b, dtype=np.float64).T.tolist()
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            s = 0.0
            for x, y in zip(rows[i], cols[j]):
                s += x * y
            out[i, j] = s
    return out


def loop_entry(a, b, i, j):
    """Entry (i, j) of the triple loop."""
    s = 0.0
    for kk in range(a.shape[1]):
        s += a[i, kk] * b[kk, j]
    return s


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


def spy_products(monkeypatch, fail_at=0):
    """Record (shape, buffer size) of every product array np.multiply
    makes; raise FloatingPointError at call number fail_at."""
    calls = []
    multiply = np.multiply

    def spy(x, y, *args, **kwargs):
        calls.append((np.broadcast_shapes(x.shape, y.shape), np.getbufsize()))
        if len(calls) == fail_at:
            raise FloatingPointError("injected")
        return multiply(x, y, *args, **kwargs)

    monkeypatch.setattr(np, "multiply", spy)
    return calls


@pytest.fixture
def bufsize_4096():
    old = np.setbufsize(4096)
    yield
    np.setbufsize(old)


def product_shapes(calls):
    return [shape for shape, _ in calls]


def block_shapes(k, block, shape):
    """The product shapes of a blocked sum over k: whole blocks, then the
    rest."""
    return [(min(block, k - start), *shape) for start in range(0, k, block)]


def bits(x):
    return np.ascontiguousarray(x).view(np.uint64)


class TestMatmulBitExact:
    """matmul must reproduce the naive k-ascending triple loop bit for bit on
    every kernel path, whatever the operand layout."""

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
        rng = np.random.default_rng(7)
        for m, k, n in ((2, 256, 64), (3, 256, 64), (16, 64, 32),
                        (16, 64, 33), (1, 256, 128), (1, 256, 129)):
            for layout in self.LAYOUTS:
                a = operand(rng, m, k, layout)
                b = operand(rng, k, n, layout)
                assert_bit_equal_to_loop(a, b, rng, max_full=_VECTOR_MAX_ELEMS * 2)

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
        # the product array's inner axis is the longer of m and n; when
        # n < m the kernel sums b x a.T and returns its transpose
        rng = np.random.default_rng(13)
        for m, k, n in ((256, 16, 8), (255, 16, 8), (1024, 32, 1),
                        (8, 16, 256), (8, 16, 255), (1, 32, 1024),
                        (64, 2, 255), (2, 64, 255)):
            assert m * k * n <= _VECTOR_MAX_ELEMS
            for layout_a in self.LAYOUTS:
                for layout_b in self.LAYOUTS:
                    a = operand(rng, m, k, layout_a)
                    b = operand(rng, k, n, layout_b)
                    out = matmul(a, b)
                    assert out.flags.c_contiguous, (m, k, n)
                    assert_bit_equal_to_loop(a, b, rng,
                                             max_full=_VECTOR_MAX_ELEMS)


class TestMatmulLongRows:
    """Products over the vector cutoff, blocked or in the k loop, run along
    their longer axis with numpy's buffer size set to that row length
    rounded down to a multiple of 16 (at least 16), then restore the
    caller's."""

    # (long side, k, short side), each over the vector cutoff: around and
    # over 256-value rows, the stacked 1,820-row sweep, wide-adapter's three
    # 64-value-row products and a product whose longer side is under 16;
    # those with rows of at most 256 values are blocked sums
    SHAPES = ((255, 17, 8), (256, 17, 8), (257, 17, 8), (300, 17, 8),
              (1820, 5, 4), (64, 256, 64), (64, 256, 32), (4, 4096, 4))

    def test_long_rows_give_the_loop_bytes(self):
        rng = np.random.default_rng(29)
        layouts = TestMatmulBitExact.LAYOUTS
        for long, k, short in self.SHAPES:
            for m, n in ((long, short), (short, long)):
                assert k * m * n > _VECTOR_MAX_ELEMS
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
        # every product sees its longer side rounded down to a multiple of
        # 16, at least 16; the caller's size is back afterwards. (64, 64)
        # and (4, 4) are blocked sums (3-D product arrays), the rest k loops
        k = max(16, _VECTOR_MAX_ELEMS // (m * n) + 1)
        calls = spy_products(monkeypatch)
        matmul(np.ones((m, k)), np.ones((k, n)))
        long = max(m, n)
        assert {size for _, size in calls} == {max(16, long // 16 * 16)}
        blocked = (m, n) in ((64, 64), (4, 4))
        assert {len(shape) for shape in product_shapes(calls)} == \
            {3 if blocked else 2}
        assert np.getbufsize() == 4096

    @pytest.mark.parametrize("m, n", [(1820, 4), (4, 1820)])
    def test_buffer_size_restored_after_an_error(self, monkeypatch,
                                                 bufsize_4096, m, n):
        calls = spy_products(monkeypatch, fail_at=3)
        with pytest.raises(FloatingPointError, match="injected"):
            matmul(np.ones((m, 16)), np.ones((16, n)))
        assert calls == [((4, 1820), 1808)] * 3  # k-loop products
        assert np.getbufsize() == 4096


def nan(payload, negative=False):
    """A quiet NaN with the given payload."""
    word = 0x7FF8000000000000 | payload | (1 << 63 if negative else 0)
    return np.array(word, dtype=np.uint64).view(np.float64)[()]


class TestMatmulBlocked:
    """A product with a small output and a long K is summed a block of k's
    at a time: the block's products in one array, the running total added
    to its first slice, the block summed over its outer axis into the
    total. Each entry is still the triple loop's k-ascending sum from +0.0,
    bit for bit."""

    @staticmethod
    def k_around(block):
        return (block - 1, block, block + 1, 2 * block + 3)

    # both sides of the orientation switch, and a block of 256 k's
    @pytest.mark.parametrize("m, n", [(64, 32), (32, 64), (64, 64), (16, 16)])
    def test_block_edges_give_the_loop_bits(self, monkeypatch, m, n):
        block = _BLOCK_MAX_ELEMS // (m * n)
        rng = np.random.default_rng(m * 1000 + n)
        for k in self.k_around(block):
            a = operand(rng, m, k, "T")
            b = operand(rng, k, n, "strided")
            calls = spy_products(monkeypatch)
            out = matmul(a, b)
            monkeypatch.undo()
            assert product_shapes(calls) == block_shapes(
                k, block, (min(m, n), max(m, n))), (m, k, n)
            assert out.flags.c_contiguous
            assert (bits(out) == bits(triple_loop_matmul(a, b))).all()

    @pytest.mark.parametrize("G, m, n", [(1, 32, 16), (3, 16, 32),
                                         (3, 32, 16)])
    def test_stacks_give_the_loop_bits(self, monkeypatch, G, m, n):
        block = _BLOCK_MAX_ELEMS // (G * m * n)
        rng = np.random.default_rng(G * 10007 + m * 101 + n)
        for k in self.k_around(block):
            a = stack_operand(rng, G, m, k, "inner")
            b = stack_operand(rng, G, k, n, "T")
            calls = spy_products(monkeypatch)
            out = stacked_matmul(a, b)
            monkeypatch.undo()
            assert product_shapes(calls) == block_shapes(
                k, block, (G, min(m, n), max(m, n))), (G, m, k, n)
            for g in range(G):
                want = triple_loop_matmul(a[g], b[g])
                assert (bits(out[g]) == bits(want)).all(), (G, m, k, n, g)

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
        # the total is the first operand of every add: a NaN carried into a
        # block keeps its payload over the NaN of the block's first k, and
        # one summed within a block keeps it over a later one
        block = _BLOCK_MAX_ELEMS // (m * n)
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
        payloads = {int(w) for w in bits(out)[np.isnan(out)]}
        assert {int(nan(1).view(np.uint64)),
                int(nan(4, True).view(np.uint64))} < payloads
        assert (bits(out) == bits(want)).all()

    # a return, and an error in the second block
    @pytest.mark.parametrize("fail_at", [0, 2])
    def test_buffer_size_restored(self, monkeypatch, bufsize_4096, fail_at):
        calls = spy_products(monkeypatch, fail_at)
        a, b = np.ones((16, 256)), np.ones((256, 64))
        if fail_at:
            with pytest.raises(FloatingPointError, match="injected"):
                matmul(a, b)
        else:
            matmul(a, b)
        assert calls == [((64, 16, 64), 64)] * (fail_at or 4)
        assert np.getbufsize() == 4096

    @pytest.mark.parametrize("G", [1, 3])
    def test_single_outputs_stay_sequential(self, monkeypatch, G):
        # numpy sums a contiguous (K, 1) axis pairwise; a 1x1 output, alone
        # or stacked, takes the k loop however long K is
        rng = np.random.default_rng(G)
        k = 1000
        scale = 10.0 ** rng.integers(-8, 8, (G, 1, k))
        a = rng.standard_normal((G, 1, k)) * scale
        b = rng.standard_normal((G, k, 1))
        calls = spy_products(monkeypatch)
        out = stacked_matmul(a, b)
        monkeypatch.undo()
        assert product_shapes(calls) == [(G, 1, 1)] * k
        for g in range(G):
            want = triple_loop_matmul(a[g], b[g])
            assert (bits(out[g]) == bits(want)).all()
            assert (bits(matmul(a[g], b[g])) == bits(want)).all()


class TestMatmulCallerBufsize:
    """The caller's ufunc buffer size changes no byte of a product: blocked
    sums and the k loop set their own, and the vector path's sum is
    k-ascending at any."""

    # the vector path, blocked sums and the k loop, both orientations, and
    # the 1x1 output
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
    """stacked_matmul gives each slice the triple loop's bytes, on all three
    kernel paths and in both orientations, whatever the stack's layout."""

    LAYOUTS = ("C", "T", "strided", "inner")
    # (G, m, K, n): the vector path with n >= m and n < m; blocked sums with
    # n >= m and n < m, a whole block and a partial one; the k loop for a
    # 1x1 output, for rows over 256 values in both orientations and for a
    # block under 8 k's; and G = 1 on the first two paths
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
                out = stacked_matmul(a, b)
                assert out.shape == (G, m, n)
                assert out.flags.c_contiguous
                for g in range(G):
                    want = triple_loop_matmul(a[g], b[g]).tobytes()
                    assert out[g].tobytes() == want, (G, m, k, n, g)
                    assert matmul(a[g], b[g]).tobytes() == want

    # (G, m, K, n) and the product shapes np.multiply makes
    PATHS = (
        # vector path: one (K, G, m, n) product array
        ((8, 16, 8, 32), [(8, 8, 16, 32)]),
        # blocked sum: 65,536 // 4,200 = 15 k's a block
        ((3, 20, 30, 70), [(15, 3, 20, 70)] * 2),
        # k loop: one (G, m, n) product per k, for rows over 256 values, a
        # block under 8 k's (65,536 // 8,400 = 7) and a 1x1 output
        ((1, 2, 60, 300), [(1, 2, 300)] * 60),
        ((3, 40, 30, 70), [(3, 40, 70)] * 30),
        ((2, 1, 40, 1), [(2, 1, 1)] * 40))

    def test_all_three_paths_are_taken(self, monkeypatch):
        calls = spy_products(monkeypatch)
        for (G, m, k, n), products in self.PATHS:
            calls.clear()
            stacked_matmul(np.ones((G, m, k)), np.ones((G, k, n)))
            assert product_shapes(calls) == products, (G, m, k, n)

    def test_negative_zero_total_becomes_positive_zero(self):
        rng = np.random.default_rng(5)
        for G, m, k, n in ((4, 8, 4, 16), (4, 16, 4, 8), (2, 64, 32, 256)):
            a = np.zeros((G, m, k))
            b = -np.abs(rng.standard_normal((G, k, n)))
            out = stacked_matmul(a, b)
            assert not np.signbit(out).any()

    def test_shape_mismatch(self):
        for a, b in ((np.ones((2, 3, 4)), np.ones((2, 5, 6))),
                     (np.ones((2, 3, 4)), np.ones((3, 4, 6))),
                     (np.ones((3, 4)), np.ones((4, 6)))):
            with pytest.raises(ValueError):
                stacked_matmul(a, b)

    @pytest.mark.parametrize("m, n", [(300, 8), (8, 300)])
    def test_buffer_size_restored_after_an_error(self, monkeypatch,
                                                 bufsize_4096, m, n):
        calls = spy_products(monkeypatch, fail_at=3)
        with pytest.raises(FloatingPointError, match="injected"):
            stacked_matmul(np.ones((4, m, 16)), np.ones((4, 16, n)))
        assert calls == [((4, 8, 300), 288)] * 3  # k-loop products
        assert np.getbufsize() == 4096


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
        a = RngState(42)
        b = RngState(42)
        assert [a.next_u64() for _ in range(1000)] == \
               [b.next_u64() for _ in range(1000)]

    def test_documented_reference_stream(self):
        r = RngState(1)
        assert [r.next_float() for _ in range(5)] == [
            0.29404672187536496, 0.8432913574055981, 0.37141301636381596,
            0.23114710925829274, 0.8590431711703592]

    def test_different_seeds_differ(self):
        assert RngState(0).next_u64() != RngState(1).next_u64()

    def test_next_below_range(self):
        rng = RngState(5)
        draws = [rng.next_below(7) for _ in range(500)]
        assert set(draws) <= set(range(7))
        assert len(set(draws)) == 7

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


def scalar_shuffled(rng, n, k):
    """The first k entries of a Fisher-Yates shuffle of range(n), one
    next_below draw per entry: the reference ``shuffled`` must reproduce."""
    idx = list(range(n))
    for i in range(k):
        j = i + rng.next_below(n - i)
        idx[i], idx[j] = idx[j], idx[i]
    return idx[:k]


class TestShuffled:
    """shuffled() through the uniforms lookahead against scalar draws."""

    B = _JUMP_ROWS
    CASES = [(0, 0), (1, 0), (1, 1), (7, 0), (7, 7), (20, 8), (B, B),
             (B + 3, B + 3), (3 * B, 5), (2 * B + 1, 2 * B)]

    @pytest.mark.parametrize("already_read", [0, 100, B - 2])
    def test_matches_scalar_fisher_yates(self, already_read):
        # already_read uniforms leave a lookahead block partly read; at
        # B - 2 the shuffle crosses into the next block
        for seed in (0, 2 ** 64 - 1):
            for n, k in self.CASES:
                bulk, scalar = RngState(seed), RngState(seed)
                bulk.uniforms(already_read)
                scalar.uniforms(already_read)
                ref = scalar_shuffled(scalar, n, k)
                assert bulk.shuffled(n, k) == ref, (seed, n, k)
                assert bulk.next_u64() == scalar.next_u64(), (seed, n, k)

    def test_choose_is_sorted_shuffle_with_the_same_state(self):
        for n, k in self.CASES:
            bulk, scalar = RngState(n), RngState(n)
            bulk.uniforms(37)
            scalar.uniforms(37)
            assert bulk.choose_without_replacement(n, k) == \
                   sorted(scalar_shuffled(scalar, n, k)), (n, k)
            assert bulk.next_u64() == scalar.next_u64(), (n, k)

    def test_k_zero_draws_nothing(self):
        for n in (0, 1, 9):
            rng = RngState(3)
            assert rng.shuffled(n, 0) == []
            assert rng.next_u64() == RngState(3).next_u64()


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


def gauss_pair_fill(rng, rows, cols, mean=0.0, std=1.0):
    """The fill done pair by pair through gauss_pair: the reference the bulk
    path must reproduce byte for byte."""
    n = rows * cols
    vals = np.empty(n)
    for i in range(0, n - 1, 2):
        vals[i], vals[i + 1] = rng.gauss_pair()
    if n % 2 == 1:
        vals[n - 1], _ = rng.gauss_pair()
    return (mean + std * vals).reshape(rows, cols)


class TestBulkGaussianFill:
    """gaussian_fill's jump-table path against the scalar generator."""

    SEEDS = (0, 1, 2 ** 63, 2 ** 64 - 1)
    B = _JUMP_ROWS

    def test_fill_bytes_and_final_state_match_gauss_pair(self):
        B = self.B
        shapes = [(1, 1), (1, 7), (3, 5), (1, B - 1), (2, B // 2),
                  (1, B + 1), (1, 2 * B + 1), (2 * B + 1, 1), (17, 31),
                  (1, _FILL_CHUNK - 1), (3, _FILL_CHUNK + 1)]
        for seed in self.SEEDS:
            for rows, cols in shapes:
                bulk, scalar = RngState(seed), RngState(seed)
                got = gaussian_fill(bulk, rows, cols, 0.25, 1.5)
                want = gauss_pair_fill(scalar, rows, cols, 0.25, 1.5)
                assert got.shape == (rows, cols)
                assert got.tobytes() == want.tobytes(), (seed, rows, cols)
                assert bulk.next_u64() == scalar.next_u64(), (seed, rows, cols)

    def test_consecutive_fills_stay_on_the_stream(self):
        bulk, scalar = RngState(3), RngState(3)
        for rows, cols in ((5, 3), (1, 1), (64, 16), (2, 2)):
            assert gaussian_fill(bulk, rows, cols).tobytes() == \
                   gauss_pair_fill(scalar, rows, cols).tobytes()
        assert bulk.next_float() == scalar.next_float()

    def test_zero_uniform_is_replaced_as_in_gauss_pair(self):
        u = np.array([0.0, 0.6180339887498949])
        rng = RngState(0)
        draws = iter(u.tolist())
        rng.next_float = lambda: next(draws)
        want = np.array(rng.gauss_pair())
        got = _box_muller(u.copy())
        assert np.isfinite(got).all()
        assert got.tobytes() == want.tobytes()


class TestAdvance:
    """Advancing the generator past a fill that is never read."""

    def test_skip_leaves_the_state_a_fill_leaves(self):
        for rows, cols in ((1, 1), (3, 5), (4, 6), (129, 7), (512, 16)):
            skipped, filled = RngState(5), RngState(5)
            skip_gaussian_fill(skipped, rows, cols)
            gaussian_fill(filled, rows, cols)
            assert skipped.next_u64() == filled.next_u64(), (rows, cols)

    def test_skip_across_blocks_matches_stepping(self):
        # from a partly read block, over whole blocks, to a partly read one
        for seed in (0, 2 ** 64 - 1):
            skipped, stepped = RngState(seed), RngState(seed)
            skipped.uniforms(100)
            skip_gaussian_fill(skipped, 7, 10001)
            for _ in range(100 + 70008):
                stepped.next_u64()
            assert skipped.next_u64() == stepped.next_u64(), seed


class TestBulkUniforms:
    """uniforms() through its lookahead block against scalar draws."""

    B = _JUMP_ROWS

    @pytest.mark.parametrize("n", [1, 37, 512, 2 ** 31 - 1])
    def test_indices_and_final_state_match_next_below(self, n):
        B = self.B
        for counts in ((16,) * 70, (1, B - 1, 1), (B + 1, 2 * B - 3, 5),
                       (3 * B + 7,), (0, 9, 0)):
            bulk, scalar = RngState(n), RngState(n)
            for count in counts:
                got = (bulk.uniforms(count) * n).astype(np.int64)
                want = [scalar.next_below(n) for _ in range(count)]
                assert got.tolist() == want, (n, count)
            assert bulk.next_u64() == scalar.next_u64(), (n, counts)

    @pytest.mark.parametrize("x", [1, 1 << 63, 2 ** 64 - 1,
                                   0x5555555555555555])
    def test_block_is_the_next_states_for_any_bits(self, x):
        rng = RngState(0)
        rng._state = x
        want = []
        for _ in range(self.B):
            rng.next_u64()
            want.append(rng._state)
        assert _states_after(x).tolist() == want

    def test_values_are_next_float(self):
        bulk, scalar = RngState(1), RngState(1)
        got = bulk.uniforms(2 * self.B + 3)
        assert got.dtype == np.float64
        assert got.tolist() == [scalar.next_float()
                                for _ in range(2 * self.B + 3)]

    def test_other_consumers_go_on_from_a_partly_read_block(self):
        # each consumer runs with part of a lookahead block read and the
        # rest unread; the stream must go on from the last value read
        consumers = [
            lambda r: gaussian_fill(r, 3, 5).tobytes(),
            lambda r: skip_gaussian_fill(r, 4, 10),
            lambda r: r.next_u64(),
            lambda r: r.next_below(9),
            lambda r: r.choose_without_replacement(30, 7),
            lambda r: r.gauss_pair(),
        ]
        bulk, scalar = RngState(12), RngState(12)
        for i, consume in enumerate(consumers):
            count = 100 + 211 * i  # ends at varying points of a block
            assert bulk.uniforms(count).tolist() == \
                   [scalar.next_float() for _ in range(count)], i
            assert consume(bulk) == consume(scalar), i
        assert bulk.uniforms(5).tolist() == \
               [scalar.next_float() for _ in range(5)]
        assert bulk.next_u64() == scalar.next_u64()

    @staticmethod
    def stepped_state(seed, steps):
        """The state of a scalar generator after ``steps`` draws."""
        rng = RngState(seed)
        for _ in range(steps):
            rng.next_u64()
        return rng._state

    # from a fresh generator and from a partly read block
    @pytest.mark.parametrize("before", [0, 100])
    def test_state_is_the_last_state_handed_out(self, before):
        batch = Batch(np.arange(20.0).reshape(10, 2), np.arange(10))
        draws = [*((lambda r, k=k: r.uniforms(k), k)
                   for k in (0, 1, 511, 512, 513, 1025)),
                 (lambda r: r.shuffled(30, 7), 7),
                 (lambda r: gaussian_fill(r, 3, 5), 16),
                 (lambda r: skip_gaussian_fill(r, 7, 9), 64),
                 (lambda r: batch.draw(13, r), 13)]
        for i, (draw, steps) in enumerate(draws):
            rng = RngState(3)
            rng.uniforms(before)
            draw(rng)
            assert rng._state == self.stepped_state(3, before + steps), i

    def test_writing_a_returned_array_leaves_the_stream(self):
        bulk, scalar = RngState(8), RngState(8)
        for count in (5, 5, self.B - 10, self.B, 3):
            bulk.uniforms(count)[:] = 0.0
            assert bulk.uniforms(2).tolist() == \
                   [scalar.next_float() for _ in range(count + 2)][-2:], count
        assert bulk.next_u64() == scalar.next_u64()

    def test_fill_then_bulk_then_fill(self):
        bulk, scalar = RngState(4), RngState(4)
        assert gaussian_fill(bulk, 2, 3).tobytes() == \
               gauss_pair_fill(scalar, 2, 3).tobytes()
        assert bulk.uniforms(17).tolist() == \
               [scalar.next_float() for _ in range(17)]
        assert gaussian_fill(bulk, 7, 9).tobytes() == \
               gauss_pair_fill(scalar, 7, 9).tobytes()
        assert bulk.next_u64() == scalar.next_u64()


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
