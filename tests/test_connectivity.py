import numpy as np
import pytest

from ilora_lab import (RngState, default_lambda_grid, embed, gaussian_fill,
                       interpolate, landscape_grid, linear_cka,
                       predict_accuracy, sweep_lambda, weight_distance)

from conftest import make_batch, make_tiny_net, random_theta


class TestInterpolate:
    def test_endpoints_bit_exact(self):
        a = gaussian_fill(RngState(1), 1, 30)[0]
        b = gaussian_fill(RngState(2), 1, 30)[0]
        assert np.array_equal(interpolate(a, b, 0.0), a)
        assert np.array_equal(interpolate(a, b, 1.0), b)

    def test_midpoint(self):
        a, b = np.array([0.0, 2.0]), np.array([4.0, 4.0])
        assert np.array_equal(interpolate(a, b, 0.5), [2.0, 3.0])

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            interpolate(np.zeros(2), np.zeros(2), 1.1)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            interpolate(np.zeros(2), np.zeros(3), 0.5)


class TestLambdaGrid:
    def test_default_grid(self):
        grid = default_lambda_grid()
        assert len(grid) == 21
        assert grid[0] == 0.0 and grid[-1] == 1.0
        assert np.allclose(np.diff(grid), 0.05, atol=1e-15)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            default_lambda_grid(1)


class TestSweepLambda:
    def test_endpoints_match_direct_evaluation(self):
        net = make_tiny_net()
        ta = random_theta(net, seed=1, std=0.3)
        tb = random_theta(net, seed=2, std=0.3)
        rng = RngState(3)
        past = [make_batch(rng, 16, net.d, net.c) for _ in range(2)]
        new = make_batch(rng, 16, net.d, net.c)
        sweep = sweep_lambda(ta, tb, net, past, new, transition=2)
        assert sweep.An[0] == predict_accuracy(net, ta, new)
        assert sweep.An[-1] == predict_accuracy(net, tb, new)
        pa = np.mean([predict_accuracy(net, ta, ev) for ev in past])
        assert sweep.Ap[0] == pa

    def test_aall_is_unweighted_mean(self):
        net = make_tiny_net()
        ta = random_theta(net, seed=4, std=0.3)
        tb = random_theta(net, seed=5, std=0.3)
        rng = RngState(6)
        past = [make_batch(rng, 10, net.d, net.c) for _ in range(3)]
        new = make_batch(rng, 10, net.d, net.c)
        sweep = sweep_lambda(ta, tb, net, past, new)
        expected = (3 * sweep.Ap + sweep.An) / 4
        assert np.allclose(sweep.Aall, expected, atol=1e-12)

    def test_identical_endpoints_flat(self):
        net = make_tiny_net()
        theta = random_theta(net, seed=7, std=0.3)
        rng = RngState(8)
        past = [make_batch(rng, 12, net.d, net.c)]
        new = make_batch(rng, 12, net.d, net.c)
        sweep = sweep_lambda(theta, theta.copy(), net, past, new)
        assert np.all(sweep.Aall == sweep.Aall[0])

    def test_stacked_forward_matches_per_set_accuracy(self):
        # the stacked forward (1,820 rows) takes matmul's k loop while each
        # set alone (up to 1,000 rows) takes the vectorised path
        net = make_tiny_net()
        ta = random_theta(net, seed=9, std=0.4)
        tb = random_theta(net, seed=10, std=0.4)
        rng = RngState(11)
        past = [make_batch(rng, n, net.d, net.c) for n in (7, 300, 1000)]
        new = make_batch(rng, 513, net.d, net.c)
        grid = default_lambda_grid(6)
        sweep = sweep_lambda(ta, tb, net, past, new, grid, transition=3)
        Ap, An, Aall = (np.empty(len(grid)) for _ in range(3))
        for i, lam in enumerate(grid):
            theta = interpolate(ta, tb, float(lam))
            accs = [predict_accuracy(net, theta, ev) for ev in past]
            An[i] = predict_accuracy(net, theta, new)
            Ap[i] = np.mean(accs)
            Aall[i] = (sum(accs) + An[i]) / 4
        assert sweep.Ap.tobytes() == Ap.tobytes()
        assert sweep.An.tobytes() == An.tobytes()
        assert sweep.Aall.tobytes() == Aall.tobytes()

    def test_nan_endpoint_raises(self):
        net = make_tiny_net()
        theta = random_theta(net)
        rng = RngState(12)
        past = [make_batch(rng, 5, net.d, net.c)]
        with pytest.raises(ArithmeticError):
            sweep_lambda(theta, np.full_like(theta, np.nan), net, past,
                         make_batch(rng, 5, net.d, net.c))

    def test_needs_past_tasks(self):
        net = make_tiny_net()
        theta = random_theta(net)
        with pytest.raises(ValueError):
            sweep_lambda(theta, theta, net, [], make_batch(RngState(1), 4,
                                                           net.d, net.c))


class TestWeightDistance:
    def test_zero_for_identical(self):
        theta = gaussian_fill(RngState(1), 1, 10)[0]
        assert weight_distance(theta, theta.copy()) == 0.0

    def test_pythagorean_case(self):
        assert weight_distance(np.array([0.0, 0.0]),
                               np.array([3.0, 4.0])) == 5.0

    def test_symmetry_and_triangle(self):
        rng = RngState(2)
        a = gaussian_fill(rng, 1, 20)[0]
        b = gaussian_fill(rng, 1, 20)[0]
        c = gaussian_fill(rng, 1, 20)[0]
        assert weight_distance(a, b) == weight_distance(b, a)
        assert weight_distance(a, c) <= (weight_distance(a, b)
                                         + weight_distance(b, c) + 1e-12)

    def test_non_finite_distance_rejected(self):
        a = np.array([0.0, 1.0])
        for b in (np.array([np.nan, 1.0]), np.array([np.inf, 1.0])):
            with pytest.raises(ArithmeticError):
                weight_distance(a, b)


class TestLinearCka:
    def test_self_similarity(self):
        X = gaussian_fill(RngState(1), 50, 8)
        assert abs(linear_cka(X, X) - 1.0) <= 1e-10

    def test_orthogonal_invariance(self):
        X = gaussian_fill(RngState(2), 60, 6)
        M = gaussian_fill(RngState(3), 6, 6)
        Q, _ = np.linalg.qr(M)
        assert abs(linear_cka(X, X @ Q) - 1.0) <= 1e-8

    def test_isotropic_scaling_invariance(self):
        X = gaussian_fill(RngState(4), 40, 5)
        Y = gaussian_fill(RngState(5), 40, 5)
        base = linear_cka(X, Y)
        assert abs(linear_cka(3.7 * X, Y) - base) <= 1e-8
        assert abs(linear_cka(X, 0.01 * Y) - base) <= 1e-8

    def test_independent_features_near_zero(self):
        X = gaussian_fill(RngState(6), 500, 20)
        Y = gaussian_fill(RngState(7), 500, 20)
        assert linear_cka(X, Y) < 0.1

    def test_range(self):
        rng = RngState(8)
        for _ in range(10):
            X = gaussian_fill(rng, 30, 4)
            Y = gaussian_fill(rng, 30, 4)
            v = linear_cka(X, Y)
            assert 0.0 <= v <= 1.0 + 1e-12

    def test_constant_features_rejected(self):
        X = gaussian_fill(RngState(9), 10, 3)
        with pytest.raises(ValueError):
            linear_cka(X, np.ones((10, 3)))

    def test_row_count_mismatch(self):
        with pytest.raises(ValueError):
            linear_cka(np.zeros((5, 2)), np.zeros((6, 2)))


class TestLandscapeGrid:
    def test_origin_exactly_zero(self):
        net = make_tiny_net()
        theta = random_theta(net, seed=1, std=0.3)
        d1 = random_theta(net, seed=2, std=0.1)
        d2 = random_theta(net, seed=3, std=0.1)
        probe = make_batch(RngState(4), 8, net.d, net.c)
        coords = np.linspace(-1.0, 1.0, 5)
        grid = landscape_grid(theta, d1, d2, coords, coords, net, probe)
        assert grid.values[2, 2] == 0.0
        assert np.all(grid.values >= 0.0)

    @staticmethod
    def per_point(theta, d1, d2, a_grid, b_grid, net, probe):
        """The landscape one embed per grid point: the reference bytes."""
        z0 = embed(net, theta, probe.X)
        values = np.zeros((len(a_grid), len(b_grid)))
        for i, a in enumerate(np.asarray(a_grid, dtype=np.float64)):
            for j, b in enumerate(np.asarray(b_grid, dtype=np.float64)):
                if a != 0.0 or b != 0.0:
                    z = embed(net, theta + a * d1 + b * d2, probe.X)
                    values[i, j] = np.mean((z - z0) ** 2)
        return values

    # (net shape, probe rows, a points, b points): one point, grids with
    # and without the origin, and 256 rows at the default shapes
    CASES = ((dict(), 6, 1, 1), (dict(), 6, 3, 4), (dict(), 6, 5, 5),
             (dict(), 20, 4, 5), (dict(rank=3), 33, 7, 3),
             (dict(d=16, h=32, e=16, rank=8), 256, 11, 10))

    def test_matches_direct_evaluation(self):
        for shape, rows, na, nb in self.CASES:
            net = make_tiny_net(**shape)
            theta = random_theta(net, seed=5, std=0.3)
            d1 = random_theta(net, seed=6, std=0.1)
            d2 = random_theta(net, seed=7, std=0.1)
            probe = make_batch(RngState(8), rows, net.d, net.c)
            a_grid = [0.5] if na == 1 else np.linspace(-1.5, 1.5, na)
            b_grid = [-0.25] if nb == 1 else np.linspace(-1.0, 1.0, nb)
            grid = landscape_grid(theta, d1, d2, a_grid, b_grid, net, probe)
            want = self.per_point(theta, d1, d2, a_grid, b_grid, net, probe)
            assert grid.values.tobytes() == want.tobytes(), (shape, rows)

    @pytest.mark.parametrize("which", ["d1", "d2"])
    def test_nan_direction_raises(self, which):
        net = make_tiny_net()
        theta = random_theta(net, seed=5, std=0.3)
        dirs = {"d1": random_theta(net, seed=6),
                "d2": random_theta(net, seed=7)}
        dirs[which][3] = np.nan
        coords = np.linspace(-1.0, 1.0, 5)
        with pytest.raises(ArithmeticError):
            landscape_grid(theta, dirs["d1"], dirs["d2"], coords, coords, net,
                           make_batch(RngState(8), 6, net.d, net.c))

    def test_zero_directions_flat(self):
        net = make_tiny_net()
        theta = random_theta(net, seed=9, std=0.3)
        zero = np.zeros_like(theta)
        probe = make_batch(RngState(10), 6, net.d, net.c)
        grid = landscape_grid(theta, zero, zero, [-1, 0, 1], [-1, 0, 1],
                              net, probe)
        assert np.array_equal(grid.values, np.zeros((3, 3)))

    def test_shape_mismatch(self):
        net = make_tiny_net()
        theta = random_theta(net)
        with pytest.raises(ValueError):
            landscape_grid(theta, theta[:-1], theta, [0], [0], net,
                           make_batch(RngState(1), 4, net.d, net.c))
