import math

import numpy as np
import pytest

from filterlab.harness import _nees
from filterlab.metrics import consistency_interval, detect_divergence


def anees(errors, covs) -> float:
    """ANEES as the harness aggregates it: the mean over trials of each
    trial's NEES from the harness's stacked solve."""
    ne, singular = _nees(np.asarray(errors, dtype=float), np.asarray(covs, dtype=float))
    assert not singular.any()
    return float(ne.mean())


class TestAnees:
    def test_zero_errors(self):
        errs = np.zeros((5, 3))
        covs = [np.eye(3)] * 5
        assert anees(errs, covs) == 0.0

    def test_scalar_hand_case(self):
        assert abs(anees(np.array([[2.0]]), [np.array([[4.0]])]) - 1.0) < 1e-15

    def test_consistent_sampler(self):
        # errors drawn from the claimed covariance give mean close to the
        # state dimension
        rng = np.random.default_rng(0)
        L, N = 4, 20_000
        A = rng.standard_normal((L, L))
        P = A @ A.T + L * np.eye(L)
        chol = np.linalg.cholesky(P)
        errs = rng.standard_normal((N, L)) @ chol.T
        val = anees(errs, [P] * N)
        se = math.sqrt(2.0 * L / N)
        assert abs(val - L) < 3.0 * se


class TestConsistencyInterval:
    def test_small_case_closed_form(self):
        lo, hi = consistency_interval(1, 2, 0.05)
        assert abs(lo - (-2.0 * math.log(0.975))) < 1e-9
        assert abs(hi - (-2.0 * math.log(0.025))) < 1e-9

    def test_contains_dimension(self):
        for N in (1, 10, 100, 1000):
            lo, hi = consistency_interval(N, 4, 0.05)
            assert lo < 4.0 < hi

    def test_width_shrinks(self):
        lo1, hi1 = consistency_interval(100, 4, 0.05)
        lo2, hi2 = consistency_interval(1000, 4, 0.05)
        assert hi2 - lo2 < hi1 - lo1

    def test_domain(self):
        with pytest.raises(ValueError):
            consistency_interval(0, 0, 0.05)
        with pytest.raises(ValueError):
            consistency_interval(10, 4, 1.5)


class TestDetectDivergence:
    def test_self_never_diverges(self):
        se = np.array([1.0, 5.0, 2.0, 8.0, 3.0])
        assert not detect_divergence(se, se, 0)

    def test_exceedance_before_threshold_ignored(self):
        env = np.ones(10)
        se = np.ones(10)
        se[2] = 5.0
        assert not detect_divergence(se, env, 5)

    def test_single_exceedance_after_threshold(self):
        env = np.ones(10)
        se = np.ones(10)
        se[6] = 1.0001
        assert detect_divergence(se, env, 5)
        assert not detect_divergence(se, env, 6)

    def test_stack_gives_one_flag_per_trial(self):
        env = np.ones(10)
        stack = np.ones((4, 10))
        stack[1, 2] = 5.0      # before the threshold
        stack[2, 6] = 1.0001   # after it
        stack[3, 9] = np.inf   # a failed update
        flags = detect_divergence(stack, env, 5)
        assert flags.tolist() == [False, False, True, True]
        assert flags.tolist() == [detect_divergence(row, env, 5) for row in stack]
        assert detect_divergence(np.ones((0, 10)), env, 5).shape == (0,)

    def test_domain(self):
        with pytest.raises(ValueError):
            detect_divergence(np.ones(5), np.ones(4), 0)
        with pytest.raises(ValueError):
            detect_divergence(np.ones((3, 5)), np.ones(4), 0)
        with pytest.raises(ValueError):
            detect_divergence(np.ones(5), np.ones((1, 5)), 0)
        with pytest.raises(ValueError):
            detect_divergence(np.ones(5), np.ones(5), 5)
