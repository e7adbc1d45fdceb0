import math

import numpy as np
import pytest

from ilora_lab import (Batch, RngState, embed, finite_diff_grad, forward,
                       gaussian_fill, init_params, loss_and_grad,
                       param_length, predict_accuracy)
from ilora_lab import numerics
from ilora_lab.model import (_effective_weights, _embed_cached, _head,
                             accuracy, backbone_from_vector, backbone_vector,
                             init_backbone, join_params, split_params,
                             softmax)

from conftest import make_batch, make_tiny_net, random_theta
from scalar_rng import ScalarRng, assert_same_next, gauss_fill


def backbone_only_forward(net, X):
    from ilora_lab import matmul
    pre1 = matmul(X, net.W1.T) + net.b1
    h1 = np.maximum(pre1, 0.0)
    z = matmul(h1, net.W2.T) + net.b2
    return matmul(z, net.Whead.T) + net.bhead, z


def backbone_arrays(net, vec):
    """The backbone arrays of a flat backbone vector, in flat order."""
    b = backbone_from_vector(vec, net.d, net.h, net.e, net.c, net.rank,
                             net.alpha)
    return b.W1, b.b1, b.W2, b.b2, b.Whead, b.bhead


class TestParamLayout:
    """Both flat vectors: the adapters, split by `split_params`, and the
    backbone, split by `backbone_from_vector`."""

    # layout: (splitter, length at make_tiny_net()'s d=4, h=5, e=4, c=3,
    # rank=2 written out, fresh vector, the same from the scalar oracle)
    LAYOUTS = {
        "adapter": (split_params, 2 * 4 + 5 * 2 + 2 * 5 + 4 * 2, init_params,
                    lambda net, oracle: join_params(
                        gauss_fill(oracle, net.rank, net.d, 0.0, 0.02),
                        np.zeros((net.h, net.rank)),
                        gauss_fill(oracle, net.rank, net.h, 0.0, 0.02),
                        np.zeros((net.e, net.rank)))),
        "backbone": (backbone_arrays, 5 * 4 + 5 + 4 * 5 + 4 + 3 * 4 + 3,
                     lambda net, rng: init_backbone(rng, net.d, net.h,
                                                    net.e, net.c),
                     lambda net, oracle: join_params(
                         gauss_fill(oracle, net.h, net.d, 0.0,
                                    1.0 / math.sqrt(net.d)),
                         np.zeros(net.h),
                         gauss_fill(oracle, net.e, net.h, 0.0,
                                    1.0 / math.sqrt(net.h)),
                         np.zeros(net.e),
                         gauss_fill(oracle, net.c, net.e, 0.0,
                                    1.0 / math.sqrt(net.e)),
                         np.zeros(net.c))),
    }

    def test_flatten_unflatten_roundtrip(self):
        net = make_tiny_net()
        for split, length, _, _ in self.LAYOUTS.values():
            vec = gaussian_fill(RngState(4), 1, length)[0]
            views = split(net, vec)
            assert np.array_equal(join_params(*views), vec)
            for view in views:
                assert np.shares_memory(view, vec)

    def test_backbone_vector_roundtrip(self):
        net = make_tiny_net()
        vec = backbone_vector(net)
        for view, arr in zip(backbone_arrays(net, vec),
                             (net.W1, net.b1, net.W2, net.b2, net.Whead,
                              net.bhead)):
            assert view.shape == arr.shape
            assert view.tobytes() == arr.tobytes()
        assert backbone_vector(backbone_from_vector(
            vec, net.d, net.h, net.e, net.c, net.rank,
            net.alpha)).tobytes() == vec.tobytes()

    def test_length(self):
        net = make_tiny_net()
        assert param_length(net) == self.LAYOUTS["adapter"][1]
        assert backbone_vector(net).shape == (self.LAYOUTS["backbone"][1],)
        for _, length, fresh, _ in self.LAYOUTS.values():
            assert fresh(net, RngState(0)).shape == (length,)

    def test_init_draws_in_order(self):
        net = make_tiny_net(d=6, h=7, e=5, c=3, rank=3)
        for layout, (_, _, fresh, reference) in self.LAYOUTS.items():
            rng, oracle = RngState(11), ScalarRng(11)
            assert fresh(net, rng).tobytes() == \
                reference(net, oracle).tobytes(), layout
            assert_same_next(rng, oracle, layout)

    def test_wrong_length_rejected(self):
        net = make_tiny_net()
        for split, length, _, _ in self.LAYOUTS.values():
            for delta in (-1, 1):
                with pytest.raises(ValueError):
                    split(net, np.zeros(length + delta))
            for shape in ((3, length + 1), (2, 3, length)):
                with pytest.raises(ValueError):
                    split(net, np.zeros(shape))

    def test_two_d_backbone_vector_rejected(self):
        net = make_tiny_net()
        vec = backbone_vector(net)
        for shape in ((1, vec.size), (2, vec.size)):
            with pytest.raises(ValueError):
                backbone_arrays(net, np.zeros(shape))

    def test_stack_splits_row_by_row(self):
        net = make_tiny_net()
        thetas = np.stack([random_theta(net, seed=s) for s in (1, 2, 3)])
        stacks = split_params(net, thetas)
        for g, theta in enumerate(thetas):
            for stacked, single in zip(stacks, split_params(net, theta)):
                assert np.shares_memory(stacked, thetas)
                assert stacked[g].tobytes() == single.tobytes()


class TestForward:
    def test_zero_init_matches_backbone_bit_exact(self):
        net = make_tiny_net()
        theta = init_params(net, RngState(3))  # B factors are zero
        X = gaussian_fill(RngState(5), 6, net.d)
        logits, z = forward(net, theta, X)
        ref_logits, ref_z = backbone_only_forward(net, X)
        assert np.array_equal(logits, ref_logits)
        assert np.array_equal(z, ref_z)

    def test_zero_input_zero_biases(self):
        net = make_tiny_net()
        net = type(net)(net.W1, np.zeros(net.h), net.W2, np.zeros(net.e),
                        net.Whead, np.zeros(net.c), net.rank, net.alpha)
        theta = random_theta(net, seed=8)
        logits, z = forward(net, theta, np.zeros((1, net.d)))
        assert np.array_equal(z, np.zeros((1, net.e)))
        assert np.array_equal(logits, np.zeros((1, net.c)))

    def test_softmax_rows_normalized(self):
        net = make_tiny_net()
        theta = random_theta(net, seed=2)
        X = gaussian_fill(RngState(6), 3, net.d)
        logits, _ = forward(net, theta, X)
        assert np.allclose(softmax(logits).sum(axis=1), 1.0, atol=1e-12)

    def test_pure_function(self):
        net = make_tiny_net()
        theta = random_theta(net, seed=2)
        X = gaussian_fill(RngState(6), 4, net.d)
        l1, z1 = forward(net, theta, X)
        l2, z2 = forward(net, theta, X)
        assert np.array_equal(l1, l2) and np.array_equal(z1, z2)

    def test_dim_mismatch(self):
        net = make_tiny_net()
        with pytest.raises(ValueError):
            forward(net, random_theta(net), np.zeros((2, net.d + 1)))


class TestLoss:
    def test_uniform_logits_ce_is_log_c(self):
        net = make_tiny_net()
        # zero head makes every logit row identically zero: uniform softmax
        net = type(net)(net.W1, net.b1, net.W2, net.b2,
                        np.zeros_like(net.Whead), np.zeros(net.c),
                        net.rank, net.alpha)
        batch = make_batch(RngState(1), 8, net.d, net.c)
        loss, _ = loss_and_grad(net, random_theta(net), batch)
        assert abs(loss - math.log(net.c)) < 1e-12

    def test_self_target_mse_vanishes(self):
        net = make_tiny_net()
        theta = random_theta(net, seed=3)
        batch = make_batch(RngState(2), 6, net.d, net.c)
        mem = make_batch(RngState(3), 4, net.d, net.c)
        _, z_now = forward(net, theta, mem.X)
        base, gbase = loss_and_grad(net, theta, batch)
        full, _ = loss_and_grad(net, theta, batch, gamma=1.0, mem_batch=mem,
                                z_target=z_now)
        assert full == base

    def test_loss_nonnegative(self):
        net = make_tiny_net()
        theta = random_theta(net, seed=5)
        batch = make_batch(RngState(4), 10, net.d, net.c)
        loss, _ = loss_and_grad(net, theta, batch)
        assert loss >= 0.0

    def test_gamma_requires_memory(self):
        net = make_tiny_net()
        batch = make_batch(RngState(4), 4, net.d, net.c)
        with pytest.raises(ValueError):
            loss_and_grad(net, random_theta(net), batch, gamma=0.5)

    @pytest.mark.parametrize("gamma", [0.0, 0.5, 2.0])
    def test_gradient_matches_finite_differences(self, gamma):
        net = make_tiny_net()
        for seed in range(7):
            theta = random_theta(net, seed=seed, std=0.2)
            rng = RngState(100 + seed)
            batch = make_batch(rng, 5, net.d, net.c)
            mem = make_batch(rng, 3, net.d, net.c) if gamma > 0 else None
            z_t = None
            if gamma > 0:
                z_t = forward(net, random_theta(net, seed=seed + 50), mem.X)[1]
            _, grad = loss_and_grad(net, theta, batch, gamma=gamma,
                                    mem_batch=mem, z_target=z_t)
            oracle = finite_diff_grad(
                lambda t: loss_and_grad(net, t, batch, gamma=gamma,
                                        mem_batch=mem, z_target=z_t)[0],
                theta, h=1e-5)
            denom = np.maximum(np.abs(oracle), 1e-3)
            assert np.max(np.abs(grad - oracle) / denom) <= 1e-5


class TestPredictAccuracy:
    def test_all_correct_and_all_wrong(self):
        net = make_tiny_net()
        theta = init_params(net, RngState(0))
        X = gaussian_fill(RngState(7), 10, net.d)
        logits, _ = forward(net, theta, X)
        right = Batch(X, np.argmax(logits, axis=1))
        wrong = Batch(X, (np.argmax(logits, axis=1) + 1) % net.c)
        assert predict_accuracy(net, theta, right) == 1.0
        assert predict_accuracy(net, theta, wrong) == 0.0

    def test_three_of_five_correct(self):
        net = make_tiny_net()
        theta = init_params(net, RngState(0))
        X = gaussian_fill(RngState(8), 5, net.d)
        logits, _ = forward(net, theta, X)
        y = np.argmax(logits, axis=1)
        y[3] = (y[3] + 1) % net.c
        y[4] = (y[4] + 1) % net.c
        assert predict_accuracy(net, theta, Batch(X, y)) == 0.6

    def test_tie_breaks_to_lowest_class(self):
        # identical logits on every class: argmax must pick class 0
        net = make_tiny_net()
        net = type(net)(net.W1, net.b1, net.W2, net.b2,
                        np.zeros_like(net.Whead), np.zeros(net.c),
                        net.rank, net.alpha)
        theta = init_params(net, RngState(0))
        X = gaussian_fill(RngState(9), 4, net.d)
        assert predict_accuracy(net, theta, Batch(X, np.zeros(4, dtype=np.int64))) == 1.0
        assert predict_accuracy(net, theta, Batch(X, np.ones(4, dtype=np.int64))) == 0.0

    def test_nan_theta_raises_instead_of_argmax(self):
        # an argmax over NaN logits would silently predict class 0
        net = make_tiny_net()
        theta = np.full(param_length(net), np.nan)
        X = gaussian_fill(RngState(9), 4, net.d)
        with pytest.raises(ArithmeticError):
            predict_accuracy(net, theta, Batch(X, np.zeros(4, dtype=np.int64)))
        with pytest.raises(ArithmeticError):
            forward(net, theta, X)


def training_embedding(net, theta, X):
    """The training forward written out in 2-D `matmul`s, X @ W1eff.T + b1,
    ReLU, @ W2eff.T + b2: the reference for `embed`."""
    from ilora_lab import matmul
    A1, B1, A2, B2 = split_params(net, theta)
    W1eff = net.W1 + net.scaling * matmul(B1, A1)
    W2eff = net.W2 + net.scaling * matmul(B2, A2)
    h1 = np.maximum(matmul(X, W1eff.T) + net.b1, 0.0)
    return matmul(h1, W2eff.T) + net.b2


class TestEmbed:
    """`embed` of a vector, and each slice of `embed` of a (G, P) stack,
    are byte for byte the training forward's embedding, on the vector
    path and in every k loop they can take."""

    # (net shape, rows, G): all vector paths; the default shapes at 256
    # rows, whose first and second layers run the k loop; effective-weight
    # products over the vector cutoff
    CASES = ((dict(), 37, 3), (dict(d=16, h=32, e=16, rank=8), 256, 8),
             (dict(d=40, h=64, e=24, rank=8), 9, 4))

    @pytest.mark.parametrize("shape, rows, G", CASES)
    def test_stack_slices_match_the_training_forward(self, shape, rows, G):
        net = make_tiny_net(**shape)
        X = gaussian_fill(RngState(rows), rows, net.d)
        thetas = np.stack([random_theta(net, seed=s, std=0.3)
                           for s in range(G - 1)]
                          + [init_params(net, RngState(G))])
        z = embed(net, thetas, X)
        assert z.shape == (G, rows, net.e)
        assert z.flags.c_contiguous
        for g, theta in enumerate(thetas):
            want = training_embedding(net, theta, X).tobytes()
            assert z[g].tobytes() == want, g

    @pytest.mark.parametrize("shape, rows, G", CASES)
    def test_vector_gives_a_contiguous_n_by_e(self, shape, rows, G):
        net = make_tiny_net(**shape)
        X = gaussian_fill(RngState(rows), rows, net.d)
        theta = random_theta(net, seed=G, std=0.3)
        z = embed(net, theta, X)
        assert z.shape == (rows, net.e)
        assert z.flags.c_contiguous
        assert z.tobytes() == training_embedding(net, theta, X).tobytes()

    @pytest.mark.parametrize("shape, rows, G", CASES)
    def test_stack_of_one_matches_its_vector(self, shape, rows, G):
        net = make_tiny_net(**shape)
        X = gaussian_fill(RngState(rows), rows, net.d)
        theta = random_theta(net, seed=G, std=0.3)
        z = embed(net, theta[None], X)
        assert z.shape == (1, rows, net.e)
        assert z[0].tobytes() == embed(net, theta, X).tobytes()

    def test_embedding_matches_forward_byte_for_byte(self):
        net = make_tiny_net()
        X = gaussian_fill(RngState(4), 37, net.d)
        for seed in (1, 2, 3):
            theta = random_theta(net, seed=seed, std=0.3)
            _, z = forward(net, theta, X)
            assert embed(net, theta, X).tobytes() == z.tobytes()

    def test_nan_theta_raises(self):
        net = make_tiny_net()
        theta = np.full(param_length(net), np.nan)
        with pytest.raises(ArithmeticError):
            embed(net, theta, gaussian_fill(RngState(9), 4, net.d))

    def test_one_nan_theta_raises(self):
        net = make_tiny_net()
        thetas = np.stack([random_theta(net, seed=s) for s in (1, 2, 3)])
        thetas[1, 0] = np.nan
        with pytest.raises(ArithmeticError):
            embed(net, thetas, gaussian_fill(RngState(9), 4, net.d))

    def test_input_dim_checked(self):
        net = make_tiny_net()
        with pytest.raises(ValueError):
            embed(net, random_theta(net), np.zeros((2, net.d + 1)))

    @pytest.mark.parametrize("call", [embed, forward])
    def test_one_d_input_rejected(self, call):
        net = make_tiny_net()
        with pytest.raises(ValueError, match=r"input shape \(4,\)"):
            call(net, random_theta(net), np.zeros(net.d))

    def test_stack_input_dim_checked(self):
        net = make_tiny_net()
        thetas = np.stack([random_theta(net, seed=s) for s in (1, 2)])
        for stack in (thetas[:1], thetas):
            with pytest.raises(ValueError):
                embed(net, stack, np.zeros((2, net.d + 1)))


def training_forward(net, theta, X):
    """Logits and embedding of the training forward, `_embed_cached` then
    `_head`, under a vector theta."""
    W1eff, W2eff = _effective_weights(net, *split_params(net, theta))
    z = _embed_cached(net, W1eff, W2eff, X)[0]
    return _head(net, z), z


def spy_switches(monkeypatch):
    """The (x, y) shapes of every `_outer_sum` call that switches
    orientation (y.shape[-1] < x.shape[-1]), its own recursion included."""
    switched = []
    real = numerics._outer_sum

    def spy(x, y):
        if y.shape[-1] < x.shape[-1]:
            switched.append((x.shape, y.shape))
        return real(x, y)

    monkeypatch.setattr(numerics, "_outer_sum", spy)
    return switched


class TestInferenceForward:
    """`embed` and `forward` run the feature-major inference forward. Its
    bytes are the row-major training forward's, on both sides of each
    layer's orientation switch, and a batch at least as long as the layers
    are wide makes it switch nowhere."""

    # one row, rows around hidden=32 (the first layer's switch) and an eval
    # set's 256
    @pytest.mark.parametrize("rows", [1, 31, 32, 33, 256])
    @pytest.mark.parametrize("c", [4, 11])
    def test_vector_and_stack_match_the_training_forward(self, rows, c):
        net = make_tiny_net(d=16, h=32, e=16, c=c, rank=8)
        X = gaussian_fill(RngState(rows), rows, net.d)
        thetas = np.stack([random_theta(net, seed=s, std=0.3)
                           for s in (1, 2, 3)])
        want = [[a.tobytes() for a in training_forward(net, theta, X)]
                for theta in thetas]
        for g, theta in enumerate(thetas):
            logits, z = forward(net, theta, X)
            assert logits.shape == (rows, c) and z.shape == (rows, net.e)
            assert [logits.tobytes(), z.tobytes()] == want[g], g
        assert embed(net, thetas[0], X).tobytes() == want[0][1]
        embedded = embed(net, thetas, X)
        assert embedded.shape == (3, rows, net.e)
        for g, (_, want_z) in enumerate(want):
            assert embedded[g].tobytes() == want_z, g
        y = np.arange(rows) % c
        assert predict_accuracy(net, thetas[1], Batch(X, y)) == accuracy(
            training_forward(net, thetas[1], X)[0], y)

    def test_forward_refuses_a_stack(self):
        net = make_tiny_net()
        thetas = np.stack([random_theta(net, seed=s) for s in (1, 2)])
        with pytest.raises(ValueError):
            forward(net, thetas, np.zeros((3, net.d)))

    # d >= h >= e: no effective-weight product switches either, so the
    # spy sees every product of the call
    @pytest.mark.parametrize("rows", [8, 40])
    def test_a_2d_forward_of_rows_at_least_hidden_switches_nowhere(
            self, monkeypatch, rows):
        net = make_tiny_net(d=8, h=8, e=4, c=3)
        X = gaussian_fill(RngState(rows), rows, net.d)
        theta = random_theta(net, std=0.3)
        switched = spy_switches(monkeypatch)
        training_forward(net, theta, X)
        assert switched  # the row-major forward does switch here
        switched.clear()
        forward(net, theta, X)
        assert switched == []

    @pytest.mark.parametrize("rows", [24, 64])
    def test_a_stacked_embed_of_rows_at_least_g_hidden_switches_nowhere(
            self, monkeypatch, rows):
        net = make_tiny_net(d=8, h=8, e=4, c=3)
        X = gaussian_fill(RngState(rows), rows, net.d)
        thetas = np.stack([random_theta(net, seed=s, std=0.3)
                           for s in (1, 2, 3)])
        switched = spy_switches(monkeypatch)
        embed(net, thetas, X)
        assert switched == []


def reference_adapter_grads(net, dW1, dW2, A1, B1, A2, B2):
    """The chain rule written out pair by pair: s * B.T dW and s * dW A.T
    of each 2-D weight gradient, joined in layout order, one row a pair."""
    from ilora_lab import matmul
    s = net.scaling
    return np.stack([join_params(s * matmul(B1.T, a), s * matmul(a, A1.T),
                                 s * matmul(B2.T, b), s * matmul(b, A2.T))
                     for a, b in zip(dW1, dW2)])


class TestAdapterGrads:
    """`_adapter_grads`, the one chain rule of `loss_and_grad` and
    `per_sample_grads`, against the pair-by-pair products."""

    # the tiny net on the vector path; the wide adapter, whose K=256
    # products take blocked sums
    SHAPES = (dict(d=9, h=16, e=6, rank=3),
              dict(d=64, h=256, e=64, rank=32))

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("n", [1, 3])
    def test_rows_match_the_written_out_products(self, shape, n):
        from ilora_lab import matmul
        from ilora_lab.model import (_adapter_grads, _effective_weights,
                                     _embed_cached)
        net = make_tiny_net(**shape)
        factors = split_params(net, random_theta(net, std=0.3))
        W1eff, W2eff = _effective_weights(net, *factors)
        X = gaussian_fill(RngState(n), n, net.d)
        _, h1 = _embed_cached(net, W1eff, W2eff, X)
        dz = gaussian_fill(RngState(n + 1), n, net.e)
        dpre1 = matmul(dz, W2eff) * (h1 > 0.0)
        # each row's K=1 outer products, as per_sample_grads builds them:
        # the bytes of that row's one-row matmul
        dW1 = dpre1[:, :, None] * X[:, None] + 0.0
        dW2 = dz[:, :, None] * h1[:, None] + 0.0
        for i in range(n):
            assert dW1[i].tobytes() == matmul(dpre1[i:i + 1].T,
                                              X[i:i + 1]).tobytes()
            assert dW2[i].tobytes() == matmul(dz[i:i + 1].T,
                                              h1[i:i + 1]).tobytes()
        # the stacks per_sample_grads hands over, then views of the same
        # values that are not C-contiguous: every other slice of a doubled
        # stack, and each slice laid out column-major
        stacks = [(dW1, dW2), (np.repeat(dW1, 2, axis=0)[::2],
                               np.repeat(dW2, 2, axis=0)[::2]),
                  (dW1.transpose(0, 2, 1).copy().transpose(0, 2, 1),
                   dW2.transpose(0, 2, 1).copy().transpose(0, 2, 1))]
        want = reference_adapter_grads(net, dW1, dW2, *factors)
        assert want.shape == (n, param_length(net))
        for a, b in stacks:
            got = _adapter_grads(net, a, b, *factors)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        assert not any(a.flags.c_contiguous for a in stacks[2])


class TestFiniteness:
    def test_nan_theta_rejected_by_loss_and_grad(self):
        net = make_tiny_net()
        batch = make_batch(RngState(2), 6, net.d, net.c)
        theta = random_theta(net)
        theta[0] = np.nan
        with pytest.raises(ArithmeticError):
            loss_and_grad(net, theta, batch)

    def test_backbone_loss_and_grad_rejects_nan_input(self):
        from ilora_lab.model import backbone_loss_and_grad
        net = make_tiny_net()
        batch = make_batch(RngState(2), 6, net.d, net.c)
        X = batch.X.copy()
        X[0, 0] = np.nan
        with pytest.raises(ArithmeticError):
            backbone_loss_and_grad(net, Batch(X, batch.y))


def _bytes(x) -> bytes:
    return np.float64(x).tobytes()


class TestDirectReductions:
    """The step path and the landscape probe call numpy's reductions
    directly instead of through the Python wrappers (`np.mean`,
    `ndarray.sum`, `ndarray.max`); each must give the wrapper's bytes."""

    @pytest.mark.parametrize("n", [1, 3, 16, 17, 64, 256, 1280])
    def test_head_loss_is_the_mean_of_log_p(self, n):
        from ilora_lab.model import _head, _head_loss
        net = make_tiny_net(d=16, h=32, e=16, c=4)
        rng = np.random.default_rng(n)
        z = rng.standard_normal((n, net.e)) * 3.0
        y = rng.integers(0, net.c, n)
        p = softmax(_head(net, z))
        want = float(-np.mean(np.log(p[np.arange(n), y])))
        loss, _, _ = _head_loss(net, z, y)
        assert _bytes(loss) == _bytes(want)

    def test_softmax_matches_the_wrapper_form(self):
        rng = np.random.default_rng(11)
        for n, c in ((1, 1), (1, 4), (16, 4), (17, 10), (1280, 4)):
            logits = rng.standard_normal((n, c)) * 10.0 ** rng.integers(
                -3, 3, (n, c))
            shifted = logits - logits.max(axis=1, keepdims=True)
            ex = np.exp(shifted)
            want = ex / ex.sum(axis=1, keepdims=True)
            assert softmax(logits).tobytes() == want.tobytes()

    def test_backbone_grad_matches_the_sum_form(self):
        from ilora_lab.model import (_embed_cached, _head_loss,
                                     _hidden_backward, backbone_loss_and_grad)
        from ilora_lab import matmul
        net = make_tiny_net(d=16, h=32, e=16, c=4)
        for n in (1, 16, 17):
            batch = make_batch(RngState(n), n, net.d, net.c)
            z, h1 = _embed_cached(net, net.W1, net.W2, batch.X)
            want_loss, dlogits, dz = _head_loss(net, z, batch.y)
            dW1, dW2, dpre1 = _hidden_backward(dz, h1, batch.X, net.W2)
            want = join_params(dW1, dpre1.sum(axis=0), dW2, dz.sum(axis=0),
                               matmul(dlogits.T, z), dlogits.sum(axis=0))
            loss, grad = backbone_loss_and_grad(net, batch)
            assert _bytes(loss) == _bytes(want_loss)
            assert grad.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [1, 17, 64, 256, 1280])
    def test_landscape_value_is_the_mean_of_squares(self, n):
        from ilora_lab import landscape_grid
        net = make_tiny_net(d=16, h=32, e=16, c=4)
        theta = random_theta(net, seed=n, std=0.3)
        d1 = random_theta(net, seed=n + 1)
        d2 = random_theta(net, seed=n + 2)
        probe = make_batch(RngState(n + 3), n, net.d, net.c)
        coords = np.array([-1.0, 0.0, 0.5])
        grid = landscape_grid(theta, d1, d2, coords, coords, net, probe)
        z0 = embed(net, theta, probe.X)
        want = np.zeros((3, 3))
        for i, a in enumerate(coords):
            for j, b in enumerate(coords):
                if a != 0.0 or b != 0.0:
                    z = embed(net, theta + a * d1 + b * d2, probe.X)
                    want[i, j] = np.mean((z - z0) ** 2)
        assert grid.values.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [1, 17, 64, 256])
    def test_deviation_term_is_the_mean_of_squares(self, n):
        net = make_tiny_net(d=16, h=32, e=16, c=4)
        batch = make_batch(RngState(4), 16, net.d, net.c)
        for seed in range(4):
            theta = random_theta(net, seed=3 + seed)
            mem = make_batch(RngState(5 + seed), n, net.d, net.c)
            z_target = embed(net, random_theta(net, seed=6 + seed), mem.X)
            ce, _ = loss_and_grad(net, theta, batch)
            diff = embed(net, theta, mem.X) - z_target
            want = ce + 1e3 * float(np.mean(diff * diff))
            loss, _ = loss_and_grad(net, theta, batch, gamma=1e3,
                                    mem_batch=mem, z_target=z_target)
            assert _bytes(loss) == _bytes(want), seed
