import numpy as np
import pytest

from ilora_lab import ResultMatrix, acc_t, bwt_t

import reference_tables as ref


class TestResultMatrix:
    def test_round_trip(self):
        R = ResultMatrix(3)
        for t in range(1, 4):
            for j in range(1, t + 1):
                R.set(t, j, 0.1 * t + 0.01 * j)
        assert R.get(3, 2) == pytest.approx(0.32)

    def test_upper_triangle_rejected(self):
        R = ResultMatrix(3)
        with pytest.raises(ValueError):
            R.set(1, 2, 0.5)
        with pytest.raises(ValueError):
            R.get(2, 3)

    def test_from_rows(self):
        R = ResultMatrix.from_rows([[0.5], [0.4, 0.6]])
        assert R.get(1, 1) == 0.5
        assert R.get(2, 1) == 0.4
        assert R.get(2, 2) == 0.6

    def test_from_rows_tolerates_full_rows(self):
        R = ResultMatrix.from_rows(ref.SEQUENTIAL_MATRIX)
        assert R.T == 8
        assert R.get(1, 1) == 0.418

    def test_from_rows_short_row_rejected(self):
        with pytest.raises(ValueError):
            ResultMatrix.from_rows([[0.5], [0.4]])


class TestAccT:
    def test_single_task(self):
        R = ResultMatrix.from_rows([[0.7]])
        assert acc_t(R, 1) == 0.7

    def test_hand_case(self):
        R = ResultMatrix.from_rows([[0.8], [0.6, 0.9]])
        assert acc_t(R, 2) == pytest.approx(0.75, abs=1e-15)

    def test_out_of_range(self):
        R = ResultMatrix.from_rows([[0.5]])
        with pytest.raises(ValueError):
            acc_t(R, 2)

    @pytest.mark.parametrize("rows,expected", [
        (ref.SEQUENTIAL_MATRIX, ref.SEQUENTIAL_ACC8),
        (ref.REPLAY_MATRIX, ref.REPLAY_ACC8),
        (ref.DUAL_MEMORY_MATRIX, ref.DUAL_MEMORY_ACC8),
    ])
    def test_published_matrices(self, rows, expected):
        R = ResultMatrix.from_rows(rows)
        assert abs(acc_t(R, 8) - expected) <= 5e-4


class TestBwtT:
    def test_hand_case(self):
        R = ResultMatrix.from_rows([[0.8], [0.6, 0.9]])
        assert bwt_t(R, 2) == pytest.approx(-0.2, abs=1e-15)

    def test_no_forgetting_is_zero(self):
        R = ResultMatrix.from_rows([[0.8], [0.8, 0.9], [0.8, 0.9, 0.7]])
        assert bwt_t(R, 3) == 0.0

    def test_undefined_below_two(self):
        R = ResultMatrix.from_rows([[0.5], [0.5, 0.5]])
        with pytest.raises(ValueError):
            bwt_t(R, 1)

    @pytest.mark.parametrize("rows,expected", [
        (ref.SEQUENTIAL_MATRIX, ref.SEQUENTIAL_BWT8),
        (ref.REPLAY_MATRIX, ref.REPLAY_BWT8),
        (ref.DUAL_MEMORY_MATRIX, ref.DUAL_MEMORY_BWT8),
    ])
    def test_published_matrices(self, rows, expected):
        R = ResultMatrix.from_rows(rows)
        assert abs(bwt_t(R, 8) - expected) <= 5e-4

