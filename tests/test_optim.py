import numpy as np
import pytest

from ilora_lab import (AdamState, Batch, EwcState, GradRef, RngState,
                       adam_step, agem_project, ema_update, ewc_fisher,
                       ewc_penalty_grad, finite_diff_grad, gaussian_fill,
                       init_params, loss_and_grad, lr_at, sgd_step)
from ilora_lab.model import Network

from conftest import make_batch, make_tiny_net, random_theta


class TestWarmupSchedule:
    def setup_method(self):
        self.state = AdamState.fresh(1, base_lr=1e-4, warmup_ratio=0.2,
                                     total_steps=100)

    def test_mid_ramp(self):
        assert lr_at(self.state, 10) == pytest.approx(5e-5, abs=0)

    def test_end_of_ramp(self):
        assert lr_at(self.state, 20) == 1e-4

    def test_post_warmup_plateau(self):
        assert lr_at(self.state, 80) == 1e-4

    def test_non_decreasing(self):
        lrs = [lr_at(self.state, s) for s in range(1, 101)]
        assert all(b >= a for a, b in zip(lrs, lrs[1:]))


class TestAdam:
    def test_zero_grad_no_move(self):
        st = AdamState.fresh(3, 1e-2, 0.0, 10)
        theta = np.array([1.0, -2.0, 0.5])
        new_theta, new_st = adam_step(st, theta, np.zeros(3))
        assert np.array_equal(new_theta, theta)
        assert new_st.step == 1

    def test_monotone_descent_on_constant_grad(self):
        st = AdamState.fresh(1, 1e-2, 0.0, 100)
        theta = np.array([0.0])
        prev = theta[0]
        for _ in range(20):
            theta, st = adam_step(st, theta, np.array([1.0]))
            assert theta[0] < prev
            prev = theta[0]

    def test_matches_reference_implementation(self):
        st = AdamState.fresh(1, 0.1, 0.0, 10)
        theta = np.array([1.0])
        grads = []
        seen = []
        for _ in range(3):
            g = 2.0 * theta[0]  # f(x) = x^2
            grads.append(g)
            theta, st = adam_step(st, theta, np.array([g]))
            seen.append(theta[0])
        # reference needs the same gradient sequence, replayed independently
        ref = []
        x, m, v = 1.0, 0.0, 0.0
        for t, g in enumerate(grads, start=1):
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            x = x - 0.1 * (m / (1 - 0.9 ** t)) / ((v / (1 - 0.999 ** t)) ** 0.5 + 1e-8)
            ref.append(x)
        assert np.allclose(seen, ref, atol=1e-12)

    def test_non_finite_grad_rejected(self):
        st = AdamState.fresh(1, 1e-2, 0.0, 10)
        with pytest.raises(ArithmeticError):
            adam_step(st, np.array([0.0]), np.array([np.nan]))

    @pytest.mark.parametrize("step", [adam_step, sgd_step])
    def test_input_state_left_unchanged(self, step):
        st = AdamState.fresh(3, 1e-2, 0.0, 10)
        theta = np.array([1.0, -2.0, 0.5])
        _, st = adam_step(st, theta, np.array([0.3, -0.1, 2.0]))
        m, v = st.m.copy(), st.v.copy()
        _, new = step(st, theta, np.array([-1.0, 0.5, 0.25]))
        assert st.step == 1 and new.step == 2
        assert st.m.tobytes() == m.tobytes() and st.v.tobytes() == v.tobytes()


class TestEma:
    def test_lambda_zero_returns_fast(self):
        tl, tw = np.array([1.0, 2.0]), np.array([3.0, 4.0])
        assert np.array_equal(ema_update(tl, tw, 0.0), tw)

    def test_lambda_one_returns_slow(self):
        tl, tw = np.array([1.0, 2.0]), np.array([3.0, 4.0])
        assert np.array_equal(ema_update(tl, tw, 1.0), tl)

    def test_scalar_step(self):
        out = ema_update(np.array([1.0]), np.array([2.0]), 0.9)
        assert out[0] == pytest.approx(1.1, abs=1e-15)

    def test_fixed_point(self):
        theta = np.array([0.3, -0.7, 2.0])
        for lam in [0.0, 0.25, 0.5, 0.95, 1.0]:
            assert np.allclose(ema_update(theta, theta, lam), theta,
                               rtol=0, atol=1e-15)

    def test_lambda_out_of_range(self):
        with pytest.raises(ValueError):
            ema_update(np.zeros(2), np.zeros(2), 1.5)


class TestAgemProject:
    def test_nonnegative_dot_passthrough(self):
        g = np.array([1.0, 0.0])
        out = agem_project(g, GradRef(np.array([0.0, 1.0])))
        assert out is g or np.array_equal(out, g)

    def test_closed_form_projection(self):
        out = agem_project(np.array([1.0, -1.0]), GradRef(np.array([0.0, 1.0])))
        assert np.allclose(out, [1.0, 0.0], atol=1e-15)

    def test_zero_reference_passthrough(self):
        g = np.array([1.0, 2.0])
        assert np.array_equal(agem_project(g, GradRef(np.zeros(2))), g)

    def test_property_sweep(self):
        rng = RngState(21)
        for _ in range(200):
            g = gaussian_fill(rng, 1, 50)[0]
            ref = GradRef(gaussian_fill(rng, 1, 50)[0])
            out = agem_project(g, ref)
            assert float(out @ ref.g_ref) >= -1e-12
            # idempotence
            again = agem_project(out, ref)
            assert np.allclose(again, out, atol=1e-12)
            if float(g @ ref.g_ref) >= 0:
                assert np.array_equal(out, g)


def saturated_net(scale=50.0):
    """Identity-wired net whose softmax is one-hot on the input's hot index."""
    d = c = 3
    return Network(W1=np.eye(d) * 1.0, b1=np.zeros(d),
                   W2=np.eye(d), b2=np.zeros(d),
                   Whead=np.eye(c) * scale, bhead=np.zeros(c),
                   rank=2, alpha=2.0)


class TestEwcFisher:
    def test_zero_at_saturated_optimum(self):
        net = saturated_net()
        theta = init_params(net, RngState(0))
        X = np.eye(3) * 5.0
        y = np.array([0, 1, 2], dtype=np.int64)
        fisher = ewc_fisher(net, theta, Batch(X, y))
        assert np.all(fisher >= 0)
        assert np.max(fisher) < 1e-8

    def test_duplicate_sample_mean_invariance(self):
        net = make_tiny_net()
        theta = random_theta(net, seed=3)
        x = gaussian_fill(RngState(4), 1, net.d)
        y = np.array([1], dtype=np.int64)
        once = ewc_fisher(net, theta, Batch(x, y))
        twice = ewc_fisher(net, theta, Batch(np.vstack([x, x]),
                                             np.array([1, 1], dtype=np.int64)))
        assert np.allclose(once, twice, rtol=0, atol=1e-16)

    def test_matches_per_sample_gradient_squares(self):
        net = make_tiny_net()
        theta = random_theta(net, seed=6, std=0.2)
        batch = make_batch(RngState(10), 4, net.d, net.c)
        fisher = ewc_fisher(net, theta, batch)
        acc = np.zeros_like(theta)
        for i in range(batch.n):
            one = Batch(batch.X[i:i + 1], batch.y[i:i + 1])
            g = finite_diff_grad(lambda t: loss_and_grad(net, t, one)[0],
                                 theta, h=1e-6)
            acc += g * g
        assert np.allclose(fisher, acc / batch.n, rtol=1e-6, atol=1e-10)


class TestEwcPenalty:
    def test_zero_at_anchor(self):
        theta = np.array([0.5, -1.0])
        st = EwcState(theta.copy(), np.array([1.0, 2.0]), 10.0)
        pen, grad = ewc_penalty_grad(theta, [st])
        assert pen == 0.0
        assert np.array_equal(grad, np.zeros(2))

    def test_scalar_case(self):
        st = EwcState(np.array([1.0]), np.array([2.0]), 1.0)
        pen, grad = ewc_penalty_grad(np.array([2.0]), [st])
        assert pen == 1.0
        assert grad[0] == 2.0

    def test_grad_matches_finite_differences(self):
        rng = RngState(33)
        theta = gaussian_fill(rng, 1, 8)[0]
        states = [EwcState(gaussian_fill(rng, 1, 8)[0],
                           np.abs(gaussian_fill(rng, 1, 8)[0]), 3.0)
                  for _ in range(2)]
        _, grad = ewc_penalty_grad(theta, states)
        oracle = finite_diff_grad(
            lambda t: ewc_penalty_grad(t, states)[0], theta, h=1e-6)
        assert np.allclose(grad, oracle, atol=1e-6)

    def test_nonnegative(self):
        rng = RngState(34)
        for _ in range(20):
            theta = gaussian_fill(rng, 1, 5)[0]
            st = EwcState(gaussian_fill(rng, 1, 5)[0],
                          np.abs(gaussian_fill(rng, 1, 5)[0]), 2.0)
            pen, _ = ewc_penalty_grad(theta, [st])
            assert pen >= 0.0
