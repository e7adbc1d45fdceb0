import numpy as np
import pytest

from ilora_lab import Batch, ReplayBuffer, RngState

from conftest import make_batch


class TestIngest:
    def test_rho_one_keeps_everything_in_order(self):
        data = make_batch(RngState(1), 12, 3, 4)
        buf = ReplayBuffer(rho=1.0)
        buf.ingest_task(data, 1, RngState(2))
        X, y, tid = buf.stores[0]
        assert tid == 1
        assert np.array_equal(X, data.X)
        assert np.array_equal(y, data.y)

    def test_keep_fraction(self):
        data = make_batch(RngState(3), 5000, 2, 3)
        buf = ReplayBuffer(rho=0.1)
        buf.ingest_task(data, 1, RngState(4))
        assert buf.size == 500

    def test_at_least_one_row_when_rho_positive(self):
        data = make_batch(RngState(5), 4, 2, 2)
        buf = ReplayBuffer(rho=0.01)
        buf.ingest_task(data, 1, RngState(6))
        assert buf.size == 1

    def test_rho_zero_stores_nothing(self):
        data = make_batch(RngState(5), 40, 2, 2)
        buf = ReplayBuffer(rho=0.0)
        buf.ingest_task(data, 1, RngState(6))
        assert buf.size == 0
        assert buf.task_ids == [1]

    def test_rows_come_from_source(self):
        data = make_batch(RngState(7), 60, 3, 3)
        buf = ReplayBuffer(rho=0.25)
        buf.ingest_task(data, 1, RngState(8))
        X, y, _ = buf.stores[0]
        for row, label in zip(X, y):
            matches = np.where((data.X == row).all(axis=1))[0]
            assert len(matches) >= 1
            assert label in data.y[matches]

    def test_deterministic(self):
        data = make_batch(RngState(9), 100, 2, 2)
        a, b = ReplayBuffer(rho=0.2), ReplayBuffer(rho=0.2)
        a.ingest_task(data, 1, RngState(10))
        b.ingest_task(data, 1, RngState(10))
        assert np.array_equal(a.stores[0][0], b.stores[0][0])
        assert np.array_equal(a.stores[0][1], b.stores[0][1])

    def test_duplicate_task_rejected(self):
        data = make_batch(RngState(11), 10, 2, 2)
        buf = ReplayBuffer(rho=0.5)
        buf.ingest_task(data, 1, RngState(12))
        with pytest.raises(ValueError):
            buf.ingest_task(data, 1, RngState(13))

    def test_bad_rho_rejected(self):
        with pytest.raises(ValueError):
            ReplayBuffer(rho=1.5)


class TestSample:
    def test_empty_buffer_raises(self):
        with pytest.raises(ValueError):
            ReplayBuffer(rho=0.1).sample(4, RngState(0))

    def test_single_row_buffer(self):
        data = Batch(np.array([[1.0, 2.0]]), np.array([1], dtype=np.int64))
        buf = ReplayBuffer(rho=1.0)
        buf.ingest_task(data, 1, RngState(1))
        batch = buf.sample(6, RngState(2))
        assert batch.n == 6
        assert np.array_equal(batch.X, np.tile([[1.0, 2.0]], (6, 1)))
        assert np.array_equal(batch.y, np.ones(6, dtype=np.int64))

    def test_two_task_frequencies_roughly_uniform(self):
        # task 1 holds 100 rows labelled 0, task 2 holds 100 rows labelled 1:
        # uniform sampling over the union should pick each side about half
        # the time
        x1 = Batch(np.zeros((100, 2)), np.zeros(100, dtype=np.int64))
        x2 = Batch(np.ones((100, 2)), np.ones(100, dtype=np.int64))
        buf = ReplayBuffer(rho=1.0)
        buf.ingest_task(x1, 1, RngState(3))
        buf.ingest_task(x2, 2, RngState(4))
        batch = buf.sample(20000, RngState(5))
        frac = batch.y.mean()
        assert abs(frac - 0.5) < 0.03

    def test_union_draw_matches_concatenation_per_call(self):
        # the union built at ingest draws the bytes that concatenating every
        # store on each call drew, after each ingest, empty stores included
        buf = ReplayBuffer()
        plan = [(0.0, 30), (0.3, 40), (0.0, 25), (0.5, 33), (1.0, 7)]
        for tid, (rho, n) in enumerate(plan, start=1):
            buf.rho = rho
            buf.ingest_task(make_batch(RngState(20 + tid), n, 3, 4), tid,
                            RngState(30 + tid))
            if tid == 1:
                assert buf.size == 0 and buf.union is None
                continue
            all_x = np.concatenate([X for X, _, _ in buf.stores if len(X)])
            all_y = np.concatenate([y for _, y, _ in buf.stores if len(y)])
            ref_rng, rng = RngState(40 + tid), RngState(40 + tid)
            idx = [ref_rng.next_below(len(all_y)) for _ in range(19)]
            got = buf.sample(19, rng)
            assert got.X.tobytes() == all_x[idx].tobytes()
            assert got.y.tobytes() == all_y[idx].tobytes()
            assert rng.next_u64() == ref_rng.next_u64()

    def test_requested_size_and_determinism(self):
        data = make_batch(RngState(6), 50, 3, 4)
        buf = ReplayBuffer(rho=0.5)
        buf.ingest_task(data, 1, RngState(7))
        a = buf.sample(17, RngState(8))
        b = buf.sample(17, RngState(8))
        assert a.n == 17
        assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)

    def test_stratified_covers_small_task(self):
        # 1000 rows of class 0 vs 4 rows of class 1: stratified sampling picks
        # tasks first, so the small task supplies about half the batch
        big = Batch(np.zeros((1000, 2)), np.zeros(1000, dtype=np.int64))
        small = Batch(np.ones((4, 2)), np.ones(4, dtype=np.int64))
        buf = ReplayBuffer(rho=1.0, stratified=True)
        buf.ingest_task(big, 1, RngState(9))
        buf.ingest_task(small, 2, RngState(10))
        batch = buf.sample(2000, RngState(11))
        assert abs(batch.y.mean() - 0.5) < 0.05

    def test_stratified_matches_per_row_draws(self):
        # a store, then a row within it, by one next_below each per row:
        # the loop the bulk draw replaced, including an empty store
        buf = ReplayBuffer(stratified=True)
        for tid, (rho, n) in enumerate([(0.3, 40), (0.0, 25), (0.5, 33),
                                        (1.0, 7)], start=1):
            buf.rho = rho
            buf.ingest_task(make_batch(RngState(50 + tid), n, 3, 4), tid,
                            RngState(60 + tid))
        nonempty = [(X, y) for X, y, _ in buf.stores if len(y)]
        assert len(nonempty) == 3
        ref_rng, rng = RngState(70), RngState(70)
        for count in (1, 19, 300, 600):
            rows_x, rows_y = [], []
            for _ in range(count):
                X, y = nonempty[ref_rng.next_below(len(nonempty))]
                j = ref_rng.next_below(len(y))
                rows_x.append(X[j])
                rows_y.append(y[j])
            got = buf.sample(count, rng)
            assert got.X.tobytes() == np.array(rows_x).tobytes()
            assert got.y.dtype == np.int64
            assert got.y.tobytes() == \
                   np.array(rows_y, dtype=np.int64).tobytes()
        assert rng.next_u64() == ref_rng.next_u64()

    def test_stratified_skips_empty_stores(self):
        data = make_batch(RngState(12), 20, 2, 2)
        buf = ReplayBuffer(rho=0.0, stratified=True)
        buf.ingest_task(data, 1, RngState(13))
        buf.rho = 1.0
        buf.ingest_task(data, 2, RngState(14))
        batch = buf.sample(8, RngState(15))
        assert batch.n == 8
