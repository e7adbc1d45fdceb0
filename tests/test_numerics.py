import numpy as np
import pytest

from ilora_lab import RngState, finite_diff_grad, gaussian_fill, matmul
from ilora_lab.numerics import (_FILL_CHUNK, _JUMP_ROWS, _MASK64,
                                _XORSHIFT_MULT, _VECTOR_MAX_ELEMS, _box_muller,
                                skip_gaussian_fill)


def triple_loop_matmul(a, b):
    m, k = a.shape
    _, n = b.shape
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            s = 0.0
            for kk in range(k):
                s += a[i, kk] * b[kk, j]
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

    def test_next_states_follow_next_u64(self):
        for seed in self.SEEDS:
            for count in (0, 1, self.B - 1, self.B, self.B + 1,
                          2 * self.B + 1):
                bulk, scalar = RngState(seed), RngState(seed)
                states = bulk.next_states(count)
                assert states.dtype == np.uint64 and states.shape == (count,)
                assert [(s * _XORSHIFT_MULT) & _MASK64
                        for s in states.tolist()] == \
                       [scalar.next_u64() for _ in range(count)]
                assert bulk.next_u64() == scalar.next_u64(), (seed, count)

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
        # this state's output is 1, so its top 53 bits, and u1, are zero
        zero = pow(_XORSHIFT_MULT, -1, 1 << 64)
        other = 0x0123456789ABCDEF
        assert (zero * _XORSHIFT_MULT) & _MASK64 == 1
        rng = RngState(0)
        outputs = iter([1, (other * _XORSHIFT_MULT) & _MASK64])
        rng.next_u64 = lambda: next(outputs)
        want = np.array(rng.gauss_pair())
        got = _box_muller(np.array([zero, other], dtype=np.uint64))
        assert np.isfinite(got).all()
        assert got.tobytes() == want.tobytes()


class TestAdvance:
    """Skipping states through the jump table against stepping over them."""

    SEEDS = (0, 1, 2 ** 63, 2 ** 64 - 1)

    def test_advance_matches_next_u64_calls(self):
        B = _JUMP_ROWS
        for seed in self.SEEDS:
            for count in (0, 1, B - 1, B, B + 1, 2 * B, 2 * B + 1, 70001):
                jumped, stepped = RngState(seed), RngState(seed)
                jumped.advance(count)
                for _ in range(count):
                    stepped.next_u64()
                assert jumped.next_u64() == stepped.next_u64(), (seed, count)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            RngState(0).advance(-1)

    def test_skip_leaves_the_state_a_fill_leaves(self):
        for rows, cols in ((1, 1), (3, 5), (4, 6), (129, 7), (512, 16)):
            skipped, filled = RngState(5), RngState(5)
            skip_gaussian_fill(skipped, rows, cols)
            gaussian_fill(filled, rows, cols)
            assert skipped.next_u64() == filled.next_u64(), (rows, cols)


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

    def test_values_are_next_float(self):
        bulk, scalar = RngState(1), RngState(1)
        got = bulk.uniforms(2 * self.B + 3)
        assert got.dtype == np.float64
        assert got.tolist() == [scalar.next_float()
                                for _ in range(2 * self.B + 3)]

    def test_other_consumers_resync_at_a_partly_read_block(self):
        # each consumer runs with part of a lookahead block read and the
        # rest unread; the stream must go on from the last value read
        consumers = [
            lambda r: gaussian_fill(r, 3, 5).tobytes(),
            lambda r: r.advance(40),
            lambda r: r.next_u64(),
            lambda r: r.next_below(9),
            lambda r: r.choose_without_replacement(30, 7),
            lambda r: r.next_states(700).tolist(),
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
