import numpy as np
import pytest

from ilora_lab import (AdamState, ArchConfig, Batch, DualMemoryState,
                       ReplayBuffer, RngState, StrategyConfig, TaskSpec,
                       gaussian_fill, ilora_step, init_params, make_stream,
                       param_length, predict_accuracy, pretrain_backbone,
                       run_sequence)
from ilora_lab.strategies import KINDS, steps_per_task

from conftest import make_tiny_net


SPEC = TaskSpec(n_train=96, n_eval=64, input_dim=8, classes=3)
ARCH = ArchConfig(hidden=12, embed=8, rank=4, alpha=8.0, pretrain_epochs=8)


def small_env(seed=0, T=3, spec=SPEC):
    stream = make_stream(seed, T, spec)
    net = pretrain_backbone(stream.anchor[0], ARCH, seed,
                            classes=spec.classes)
    return stream, net


def checkpoint_stack(record):
    return np.stack(record.checkpoints)


class TestRunShape:
    def test_single_task_matrix(self):
        stream, net = small_env(T=1)
        record = run_sequence(StrategyConfig(kind="SEQ", epochs=1),
                              stream.pairs, net, RngState(0))
        R = record.result_matrix
        assert R.T == 1
        assert 0.0 <= R.get(1, 1) <= 1.0
        assert len(record.checkpoints) == 1

    def test_lower_triangle_filled(self):
        stream, net = small_env(T=3)
        record = run_sequence(StrategyConfig(kind="SEQ", epochs=1),
                              stream.pairs, net, RngState(0))
        entries = list(record.result_matrix.defined_entries())
        assert len(entries) == 6
        assert all(0.0 <= v <= 1.0 for _, _, v in entries)

    def test_empty_stream_rejected(self):
        _, net = small_env(T=1)
        with pytest.raises(ValueError):
            run_sequence(StrategyConfig(), [], net, RngState(0))

    @pytest.mark.parametrize("kind,deploy_slow", [
        *((k, True) for k in KINDS), ("ILORA", False)])
    def test_general_retention_reads_the_result_matrix(self, kind,
                                                        deploy_slow):
        # the reference is the old two-forward formula: the deployed vector's
        # accuracy on the anchor's eval set minus the untrained adapters'
        stream, net = small_env(seed=5, T=2)
        record = run_sequence(StrategyConfig(kind=kind, epochs=1,
                                             deploy_slow=deploy_slow),
                              stream.pairs, net, RngState(5))
        anchor = stream.anchor[1]
        slow = kind == "ILORA" and deploy_slow
        deployed = (record.slow_checkpoints if slow else record.checkpoints)[-1]
        expected = (predict_accuracy(net, deployed, anchor)
                    - predict_accuracy(net, init_params(net, RngState(5)),
                                       anchor))
        assert record.general_retention.hex() == expected.hex()
        if kind != "ILORA":
            assert record.slow_checkpoints == []

    @pytest.mark.parametrize("T", [1, 3])
    def test_ewc_estimates_no_fisher_after_the_last_task(self, monkeypatch,
                                                         T):
        from ilora_lab import strategies
        stream, net = small_env(T=T)
        fisher, calls = strategies.ewc_fisher, []

        def counted(*args):
            calls.append(args)
            return fisher(*args)

        monkeypatch.setattr(strategies, "ewc_fisher", counted)
        run_sequence(StrategyConfig(kind="EWC", epochs=1), stream.pairs, net,
                     RngState(0))
        assert len(calls) == T - 1

    def test_steps_per_task(self):
        cfg = StrategyConfig(epochs=3, batch_size=16)
        assert steps_per_task(96, cfg) == 18
        assert steps_per_task(97, cfg) == 21


class TestLearning:
    def test_seq_learns_each_task(self):
        stream, net = small_env(seed=1, T=3)
        record = run_sequence(StrategyConfig(kind="SEQ", epochs=3),
                              stream.pairs, net, RngState(1))
        R = record.result_matrix
        for t in range(1, 4):
            assert R.get(t, t) >= 0.9  # diagonal: accuracy right after training

    def test_mtl_rows_constant(self):
        stream, net = small_env(seed=2, T=3)
        record = run_sequence(StrategyConfig(kind="MTL", epochs=2),
                              stream.pairs, net, RngState(2))
        R = record.result_matrix
        # one set of joint parameters scores every row
        for j in range(1, 4):
            vals = {R.get(t, j) for t in range(j, 4)}
            assert len(vals) == 1

    def test_determinism(self):
        stream, net = small_env(seed=3, T=3)
        cfg = StrategyConfig(kind="ILORA", epochs=2)
        a = run_sequence(cfg, stream.pairs, net, RngState(3))
        b = run_sequence(cfg, stream.pairs, net, RngState(3))
        assert np.array_equal(checkpoint_stack(a), checkpoint_stack(b))
        assert np.array_equal(np.stack(a.slow_checkpoints),
                              np.stack(b.slow_checkpoints))


class TestReductions:
    def test_er_with_rho_zero_is_seq(self):
        stream, net = small_env(seed=4, T=3)
        seq = run_sequence(StrategyConfig(kind="SEQ", epochs=2),
                           stream.pairs, net, RngState(4))
        er = run_sequence(StrategyConfig(kind="ER", epochs=2, rho=0.0),
                          stream.pairs, net, RngState(4))
        assert np.array_equal(checkpoint_stack(seq), checkpoint_stack(er))

    def test_ewc_with_zero_penalty_is_seq(self):
        stream, net = small_env(seed=5, T=3)
        seq = run_sequence(StrategyConfig(kind="SEQ", epochs=2),
                           stream.pairs, net, RngState(5))
        ewc = run_sequence(StrategyConfig(kind="EWC", epochs=2,
                                          lambda_ewc=0.0),
                           stream.pairs, net, RngState(5))
        assert np.array_equal(checkpoint_stack(seq), checkpoint_stack(ewc))

    def test_ilora_null_params_is_er(self):
        stream, net = small_env(seed=6, T=3)
        er = run_sequence(StrategyConfig(kind="ER", epochs=2, rho=0.1),
                          stream.pairs, net, RngState(6))
        ilora = run_sequence(StrategyConfig(kind="ILORA", epochs=2, rho=0.1,
                                            gamma=0.0, lambda_ema=0.0,
                                            update_frequency=1),
                             stream.pairs, net, RngState(6))
        assert np.array_equal(checkpoint_stack(er), checkpoint_stack(ilora))
        # with lambda=0 the slow learner shadows the fast learner exactly
        assert np.array_equal(np.stack(ilora.slow_checkpoints),
                              checkpoint_stack(ilora))

    def test_lambda_one_freezes_slow_learner(self):
        stream, net = small_env(seed=7, T=2)
        record = run_sequence(StrategyConfig(kind="ILORA", epochs=2,
                                             lambda_ema=1.0),
                              stream.pairs, net, RngState(7))
        theta0 = init_params(net, RngState(7))
        assert np.array_equal(record.slow_checkpoints[0], theta0)
        assert np.array_equal(record.slow_checkpoints[1], theta0)


class TestBudgetParity:
    def test_all_strategies_take_same_step_count(self, monkeypatch):
        import ilora_lab.strategies as strategies
        counts = {}
        real = strategies.adam_step

        def counting(adam, theta, grad):
            counts[key] = counts.get(key, 0) + 1
            return real(adam, theta, grad)

        monkeypatch.setattr(strategies, "adam_step", counting)
        stream, net = small_env(seed=8, T=2)
        for key in ("SEQ", "ER", "EWC", "AGEM", "MTL", "ILORA"):
            run_sequence(StrategyConfig(kind=key, epochs=2),
                         stream.pairs, net, RngState(8))
        assert len(set(counts.values())) == 1


class TestIloraStep:
    def test_slow_learner_stays_between_snapshots(self):
        # every coordinate of the slow learner is a convex combination of
        # fast-learner iterates, so it stays inside their running hull
        net = make_tiny_net()
        n = param_length(net)
        rng = RngState(9)
        X = gaussian_fill(rng, 40, net.d)
        y = (rng.uniforms(40) * net.c).astype(np.int64)
        pool = Batch(X, y)
        buffer = ReplayBuffer(rho=0.5)
        buffer.ingest_task(pool, 1, rng)
        cfg = StrategyConfig(kind="ILORA", gamma=0.5, lambda_ema=0.9,
                             batch_size=8)
        theta0 = gaussian_fill(RngState(10), 1, n)[0] * 0.1
        state = DualMemoryState(theta0.copy(), theta0.copy(),
                                AdamState.fresh(n, 1e-2, 0.0, 30))
        lo, hi = theta0.copy(), theta0.copy()
        for k in range(1, 31):
            state = ilora_step(state, cfg, pool, buffer, net, rng, k)
            lo = np.minimum(lo, state.theta_w)
            hi = np.maximum(hi, state.theta_w)
            assert np.all(state.theta_l >= lo - 1e-12)
            assert np.all(state.theta_l <= hi + 1e-12)

    def test_update_frequency_gates_ema(self):
        net = make_tiny_net()
        n = param_length(net)
        rng = RngState(11)
        pool = Batch(gaussian_fill(rng, 20, net.d),
                     (rng.uniforms(20) * net.c).astype(np.int64))
        buffer = ReplayBuffer(rho=1.0)
        buffer.ingest_task(pool, 1, rng)
        cfg = StrategyConfig(kind="ILORA", lambda_ema=0.5, update_frequency=3,
                             batch_size=4)
        theta0 = gaussian_fill(RngState(12), 1, n)[0] * 0.1
        state = DualMemoryState(theta0.copy(), theta0.copy(),
                                AdamState.fresh(n, 1e-2, 0.0, 10))
        state = ilora_step(state, cfg, pool, buffer, net, rng, k=1)
        assert np.array_equal(state.theta_l, theta0)  # not an update step
        state = ilora_step(state, cfg, pool, buffer, net, rng, k=2)
        assert np.array_equal(state.theta_l, theta0)
        state = ilora_step(state, cfg, pool, buffer, net, rng, k=3)
        assert not np.array_equal(state.theta_l, theta0)  # k=3 triggers EMA


class TestConfigValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            StrategyConfig(kind="FOO")

    def test_bad_lambda(self):
        with pytest.raises(ValueError):
            StrategyConfig(lambda_ema=1.2)

    def test_bad_frequency(self):
        with pytest.raises(ValueError):
            StrategyConfig(update_frequency=0)

    def test_bad_optimizer(self):
        with pytest.raises(ValueError):
            StrategyConfig(optimizer="rmsprop")


class TestDeployment:
    def test_deploy_slow_controls_evaluation(self):
        stream, net = small_env(seed=13, T=2)
        slow = run_sequence(StrategyConfig(kind="ILORA", epochs=2,
                                           lambda_ema=0.99),
                            stream.pairs, net, RngState(13))
        fast = run_sequence(StrategyConfig(kind="ILORA", epochs=2,
                                           lambda_ema=0.99,
                                           deploy_slow=False),
                            stream.pairs, net, RngState(13))
        # identical trajectories, different deployed parameters
        assert np.array_equal(checkpoint_stack(slow), checkpoint_stack(fast))
        r_slow = slow.result_matrix.get(2, 2)
        expected = predict_accuracy(net, slow.slow_checkpoints[1],
                                    stream.pairs[1][1])
        assert r_slow == expected
        assert fast.result_matrix.get(2, 2) == predict_accuracy(
            net, fast.checkpoints[1], stream.pairs[1][1])
