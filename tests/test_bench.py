import math

import numpy as np
import pytest

from ilora_lab import (ArchConfig, RngState, StrategyConfig,
                       TaskSpec, bwt_t, make_stream, predict_accuracy,
                       pretrain_backbone, run_sequence)
from ilora_lab.bench import _rotation_step
from ilora_lab.model import backbone_vector

import scalar_rng
from scalar_rng import ScalarRng, assert_same_next


def nearest_centroid_accuracy(train, ev, classes):
    """Independent separability oracle: classify eval rows by the nearest
    per-class training mean."""
    means = np.stack([train.X[train.y == c].mean(axis=0)
                      for c in range(classes)])
    d2 = ((ev.X[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
    return float(np.mean(np.argmin(d2, axis=1) == ev.y))


class TestStreamConstruction:
    def test_shapes_and_sizes(self):
        spec = TaskSpec(n_train=64, n_eval=32, classes=3, input_dim=6)
        stream = make_stream(0, 4, spec)
        assert len(stream) == 4
        for train, ev, ts in stream.tasks:
            assert train.X.shape == (64, 6)
            assert ev.X.shape == (32, 6)
        assert all(ts is spec for _, _, ts in stream.tasks)

    def test_anchor_is_first_task(self):
        stream = make_stream(1, 3, TaskSpec(n_train=32, n_eval=16))
        assert stream.anchor[0] is stream.tasks[0][0]
        assert stream.anchor[1] is stream.tasks[0][1]

    def test_byte_identical_reconstruction(self):
        spec = TaskSpec(n_train=48, n_eval=24, input_dim=8)
        a = make_stream(7, 3, spec)
        b = make_stream(7, 3, spec)
        for (tr_a, ev_a, _), (tr_b, ev_b, _) in zip(a.tasks, b.tasks):
            assert np.array_equal(tr_a.X, tr_b.X)
            assert np.array_equal(tr_a.y, tr_b.y)
            assert np.array_equal(ev_a.X, ev_b.X)
            assert np.array_equal(ev_a.y, ev_b.y)

    def test_seeds_differ(self):
        spec = TaskSpec(n_train=32, n_eval=16)
        a = make_stream(0, 2, spec)
        b = make_stream(1, 2, spec)
        assert not np.array_equal(a.tasks[0][0].X, b.tasks[0][0].X)

    def test_labels_balanced(self):
        stream = make_stream(3, 2, TaskSpec(n_train=101, n_eval=50, classes=4))
        for train, ev, _ in stream.tasks:
            for y, n in [(train.y, 101), (ev.y, 50)]:
                counts = np.bincount(y, minlength=4)
                assert counts.max() - counts.min() <= 1
                assert counts.sum() == n

    def test_invalid_length(self):
        with pytest.raises(ValueError):
            make_stream(0, 0)

    def test_first_tasks_do_not_depend_on_length(self):
        # 33 * 7 values per training set: odd, so each training fill draws
        # and discards one tail value
        spec = TaskSpec(n_train=33, n_eval=20, classes=3, input_dim=7)
        full = make_stream(11, 5, spec)
        for T in range(1, 6):
            short = make_stream(11, T, spec)
            assert len(short) == T
            for (tr, ev, ts), (rtr, rev, rts) in zip(short.tasks,
                                                     full.tasks[:T],
                                                     strict=True):
                assert ts == rts
                for got, ref in ((tr, rtr), (ev, rev)):
                    assert got.X.tobytes() == ref.X.tobytes(), T
                    assert got.y.tobytes() == ref.y.tobytes(), T


def plane_by_plane_rotation(oracle, d, angle_rad):
    """The rotation step as d/2 plane rotations multiplied together, the
    permutation the scalar oracle's Fisher-Yates shuffle: the reference the
    direct block must reproduce byte for byte."""
    perm = scalar_rng.shuffled(oracle, d, d)
    c, s = math.cos(angle_rad), math.sin(angle_rad)
    Q = np.eye(d)
    for k in range(0, d - 1, 2):
        i, j = perm[k], perm[k + 1]
        P = np.eye(d)
        P[i, i] = P[j, j] = c
        P[i, j] = -s
        P[j, i] = s
        Q = P @ Q
    return Q


class TestDrift:
    @pytest.mark.parametrize("deg", [0.0, -0.0, 25.0, -25.0, 90.0, -90.0,
                                     120.0, 180.0, -180.0, 270.0, 359.9,
                                     360.0, 1e-300, 1e6])
    def test_rotation_step_matches_plane_by_plane_product(self, deg):
        angle = math.radians(deg)
        for d in (1, 2, 3, 6, 16, 17, 64):
            for seed in range(30):
                direct, oracle = RngState(seed), ScalarRng(seed)
                got = _rotation_step(direct, d, angle)
                want = plane_by_plane_rotation(oracle, d, angle)
                assert got.tobytes() == want.tobytes(), (deg, d, seed)
                assert_same_next(direct, oracle, deg, d, seed)

    def test_rotation_step_is_orthogonal(self):
        for seed in range(5):
            Q = _rotation_step(RngState(seed), 16, np.radians(25.0))
            assert np.allclose(Q @ Q.T, np.eye(16), atol=1e-10)
            assert abs(np.linalg.det(Q) - 1.0) < 1e-10

    def test_rotation_step_moves_most_coordinates(self):
        Q = _rotation_step(RngState(2), 16, np.radians(25.0))
        moved = np.sum(np.abs(np.diag(Q) - 1.0) > 1e-12)
        assert moved >= 14  # floor(16/2) planes touch 16 coordinates

    def test_tasks_actually_drift(self):
        spec = TaskSpec(n_train=256, n_eval=128)
        stream = make_stream(5, 3, spec)
        # class-0 training means should move task to task
        m = [tr.X[tr.y == 0].mean(axis=0) for tr, _, _ in stream.tasks]
        assert np.linalg.norm(m[1] - m[0]) > 0.3
        assert np.linalg.norm(m[2] - m[1]) > 0.3

    def test_zero_drift_keeps_distribution(self):
        spec = TaskSpec(n_train=2048, n_eval=128, rotation_deg=0.0,
                        mean_shift=0.0)
        stream = make_stream(9, 3, spec)
        m0 = stream.tasks[0][0].X[stream.tasks[0][0].y == 1].mean(axis=0)
        m2 = stream.tasks[2][0].X[stream.tasks[2][0].y == 1].mean(axis=0)
        assert np.linalg.norm(m2 - m0) < 0.3  # only sampling noise remains

    def test_every_task_separable(self):
        spec = TaskSpec()
        for seed in range(3):
            stream = make_stream(seed, 5, spec)
            for train, ev, _ in stream.tasks:
                assert nearest_centroid_accuracy(train, ev, spec.classes) >= 0.9


class TestPretrain:
    def test_backbone_fits_anchor(self):
        spec = TaskSpec()
        stream = make_stream(0, 1, spec)
        net = pretrain_backbone(stream.anchor[0], ArchConfig(), seed=0,
                                classes=spec.classes)
        from ilora_lab import init_params
        theta = init_params(net, RngState(0))
        assert predict_accuracy(net, theta, stream.anchor[1]) >= 0.85

    def test_bit_identical_across_calls(self):
        spec = TaskSpec(n_train=128)
        stream = make_stream(4, 1, spec)
        a = pretrain_backbone(stream.anchor[0], ArchConfig(pretrain_epochs=5),
                              seed=4, classes=spec.classes)
        b = pretrain_backbone(stream.anchor[0], ArchConfig(pretrain_epochs=5),
                              seed=4, classes=spec.classes)
        assert np.array_equal(backbone_vector(a), backbone_vector(b))

    def test_architecture_dimensions(self):
        spec = TaskSpec(input_dim=10, classes=3, n_train=64)
        stream = make_stream(2, 1, spec)
        arch = ArchConfig(hidden=12, embed=7, rank=3, alpha=6.0,
                          pretrain_epochs=1)
        net = pretrain_backbone(stream.anchor[0], arch, seed=2, classes=3)
        assert net.W1.shape == (12, 10)
        assert net.W2.shape == (7, 12)
        assert net.Whead.shape == (3, 7)
        assert net.rank == 3 and net.alpha == 6.0


class TestNullDriftControl:
    def test_no_drift_means_no_real_forgetting(self):
        # with the rotation and shift switched off every task is the same
        # distribution, so sequential training cannot forget much
        spec = TaskSpec(n_train=128, n_eval=128, rotation_deg=0.0,
                        mean_shift=0.0)
        stream = make_stream(11, 3, spec)
        net = pretrain_backbone(stream.anchor[0],
                                ArchConfig(pretrain_epochs=10), seed=11,
                                classes=spec.classes)
        cfg = StrategyConfig(kind="SEQ", epochs=2)
        record = run_sequence(cfg, stream.pairs, net, RngState(11))
        assert abs(bwt_t(record.result_matrix, 3)) < 0.05
