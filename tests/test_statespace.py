import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import filterlab
from filterlab.kalman import pcrlb_recursion
from filterlab.nvmf import InverseGammaMixing, log_posterior, nvm_t_log_density, zeta
from filterlab.specfun import RngStream, sample_mvn
from filterlab.statespace import (
    GaussianBelief,
    LinearModel,
    cv_process_noise,
    cv_transition,
    predict,
    solve_pd,
    two_point_init,
    whitener,
)


class TestCvTransition:
    def test_identity_at_zero(self):
        assert np.array_equal(cv_transition(0.0), np.eye(4))

    def test_benchmark_period(self):
        F = cv_transition(3.0)
        expected = np.eye(4)
        expected[0, 2] = expected[1, 3] = 3.0
        assert np.array_equal(F, expected)

    def test_semigroup(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            t1, t2 = rng.uniform(-5, 5, size=2)
            assert np.allclose(cv_transition(t1) @ cv_transition(t2), cv_transition(t1 + t2))

    def test_inverse(self):
        assert np.allclose(cv_transition(2.5) @ cv_transition(-2.5), np.eye(4))


class TestCvProcessNoise:
    def test_zero_intensity(self):
        assert np.array_equal(cv_process_noise(3.0, 0.0), np.zeros((4, 4)))

    def test_unit_values(self):
        Q = cv_process_noise(1.0, 1.0)
        block = np.array([[1.0 / 3.0, 0.5], [0.5, 1.0]])
        assert np.allclose(Q, np.kron(block, np.eye(2)))

    def test_psd_random(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            Q = cv_process_noise(rng.uniform(0, 10), rng.uniform(0, 5))
            assert np.linalg.eigvalsh(Q)[0] >= -1e-12


class TestLinearModel:
    def test_unit_determinant_enforced(self):
        model = LinearModel(np.eye(4), np.zeros((4, 4)),
                            np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0]]),
                            4.0 * np.eye(2))
        assert abs(np.linalg.det(model.Rbar) - 1.0) < 1e-12

    def test_rejects_indefinite_q(self):
        with pytest.raises(ValueError):
            LinearModel(np.eye(2), np.diag([1.0, -1.0]), np.eye(2), np.eye(2))
        nan_diag = np.diag([1.0, np.nan])
        for F, Q, H in [(np.eye(2), nan_diag, np.eye(2)),
                        (np.eye(2), np.diag([np.inf, 1.0]), np.eye(2)),
                        (nan_diag, np.eye(2), np.eye(2)),
                        (np.eye(2), np.eye(2), nan_diag),
                        # inconsistent shapes: Q, H or F of the wrong size
                        (np.eye(4), np.eye(3), np.eye(2, 4)),
                        (np.eye(4), np.eye(4), np.eye(2, 3)),
                        (np.eye(4, 3), np.eye(4), np.eye(2, 4)),
                        (np.eye(2), np.eye(2), np.ones(2))]:
            with pytest.raises(ValueError):
                LinearModel(F, Q, H, np.eye(2))

    def test_accepts_rank_deficient_q(self):
        # Q = q G G' (piecewise-constant acceleration) has rank 2; at q = 1e8
        # its zero eigenvalues round to about -1e-7, which sample_mvn accepts.
        T, q = 3.0, 1e8
        G = np.kron(np.array([[T**2 / 2.0], [T]]), np.eye(2))
        Q = q * G @ G.T
        assert np.linalg.eigvalsh(Q)[0] < -1e-10
        model = LinearModel(cv_transition(T), Q, np.eye(2, 4), np.eye(2))
        assert np.array_equal(model.Q, Q)
        assert np.isfinite(sample_mvn(np.zeros(4), Q, RngStream(0))).all()

    def test_rejects_singular_rbar(self):
        with pytest.raises(ValueError):
            LinearModel(np.eye(2), np.eye(2), np.eye(2), np.zeros((2, 2)))
        # NaN, infinite, and asymmetric (its lower triangle alone is
        # positive definite)
        for Rbar in ([[1.0, np.nan], [np.nan, 1.0]], np.diag([np.inf, 1.0]),
                     [[1.0, 0.5], [0.0, 1.0]]):
            with pytest.raises(ValueError):
                LinearModel(np.eye(2), np.eye(2), np.eye(2), Rbar)
        # H is 2x4, so Rbar must be 2x2
        with pytest.raises(ValueError):
            LinearModel(np.eye(4), np.eye(4), np.eye(2, 4), np.eye(3))

    def test_whitened_factors_are_the_models_own(self):
        F, Q = cv_transition(3.0), cv_process_noise(3.0, 1.0)
        H = np.array([[1.0, 0.0, 0.5, 0.0], [0.0, 1.0, 0.0, 0.5]])
        first = LinearModel(F, Q, H, np.eye(2))
        second = LinearModel(F, Q, H, [[2.0, 0.6], [0.6, 1.0]])
        for model in (first, second):
            c_inv, wh, wh_info = model.whitened
            assert np.array_equal(c_inv, whitener(model.Rbar))
            assert np.array_equal(wh, c_inv @ H)
            assert np.array_equal(wh_info, wh.T @ wh)
            assert model.whitened is model.whitened   # computed once
        assert not np.array_equal(first.whitened[0], second.whitened[0])
        # the whitener applies Rbar^-1: |C^-1 r|^2 / 2 is zeta
        r = np.array([3.0, -1.0])
        white = second.whitened[0] @ r
        assert np.isclose(0.5 * white @ white, zeta(np.zeros(4), r, H, second.Rbar), rtol=1e-14)
        assert np.isclose(white @ white, r @ np.linalg.solve(second.Rbar, r), rtol=1e-13)


class TestGaussianBelief:
    @pytest.mark.parametrize("mean, cov", [
        (np.zeros(2), np.array([[1.0, np.nan], [np.nan, 1.0]])),
        (np.zeros(2), np.diag([np.inf, 1.0])),
        (np.array([0.0, np.nan]), np.eye(2)),
    ], ids=["nan_cov", "inf_cov", "nan_mean"])
    def test_validate_rejects_non_finite(self, mean, cov):
        # Under the suite's error::RuntimeWarning, a warning would fail this too.
        with pytest.raises(ValueError, match="not finite"):
            GaussianBelief(mean, cov).validate()

    def test_validate_keeps_its_relative_symmetry_scale(self):
        # Asymmetric by 1e-13 on entries of 1e-6: far below 1e-10 absolute,
        # but 1e-7 relative to the covariance's own scale.
        cov = 1e-6 * np.eye(2)
        cov[0, 1] = 1e-13
        with pytest.raises(ValueError, match="not symmetric"):
            GaussianBelief(np.zeros(2), cov).validate()


class TestPredict:
    def _model(self, F, Q):
        return LinearModel(F, Q, np.eye(F.shape[0])[:1], np.eye(1))

    def test_identity_noiseless(self):
        model = self._model(np.eye(2), np.zeros((2, 2)))
        belief = GaussianBelief(np.array([1.0, 2.0]), np.diag([3.0, 4.0]))
        out = predict(belief, model)
        assert np.array_equal(out.mean, belief.mean)
        assert np.array_equal(out.cov, belief.cov)

    def test_scalar_arithmetic(self):
        model = self._model(np.array([[2.0]]), np.array([[3.0]]))
        out = predict(GaussianBelief(np.array([1.0]), np.array([[1.0]])), model)
        assert out.mean[0] == 2.0
        assert out.cov[0, 0] == 7.0

    def test_preserves_pd(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            A = rng.standard_normal((4, 4))
            P = A @ A.T + 0.1 * np.eye(4)
            model = LinearModel(cv_transition(rng.uniform(0, 5)),
                                cv_process_noise(rng.uniform(0, 5), rng.uniform(0, 1)),
                                np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0]]), np.eye(2))
            out = predict(GaussianBelief(np.zeros(4), P), model)
            out.validate()


class TestTwoPointInit:
    def test_equal_measurements_zero_velocity(self):
        z = np.array([4.0, -2.0])
        belief = two_point_init(z, z, 3.0, np.eye(2))
        assert np.array_equal(belief.mean[2:], np.zeros(2))
        assert np.array_equal(belief.mean[:2], z)

    def test_benchmark_covariance(self):
        R = 100.0 * np.eye(2)
        belief = two_point_init(np.zeros(2), np.zeros(2), 3.0, R)
        expected = np.kron(np.array([[1.0, 1.0 / 3.0], [1.0 / 3.0, 2.0 / 9.0]]), R)
        assert np.allclose(belief.cov, expected)

    def test_domain(self):
        with pytest.raises(ValueError):
            two_point_init(np.zeros(2), np.zeros(2), 0.0, np.eye(2))

    def test_initial_estimate_consistency(self):
        # With Gaussian measurements of a known state, the normalized initial
        # error is chi-square with 4 dof, so its average over many draws is 4.
        rng = RngStream(123)
        T, R = 3.0, 100.0 * np.eye(2)
        x_true = np.array([100.0, 100.0, 20.0, 10.0])
        H = np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0]])
        back = np.array([100.0 - 20.0 * T, 100.0 - 10.0 * T, 20.0, 10.0])
        n = 10_000
        total = 0.0
        for _ in range(n):
            z_m1 = H @ back + sample_mvn(np.zeros(2), R, rng)
            z_0 = H @ x_true + sample_mvn(np.zeros(2), R, rng)
            belief = two_point_init(z_0, z_m1, T, R)
            err = belief.mean - x_true
            total += err @ np.linalg.solve(belief.cov, err)
        anees = total / n
        se = np.sqrt(2.0 * 4.0 / n)  # chi-square(4) variance is 8
        assert abs(anees - 4.0) < 3.0 * se


class TestSolvePd:
    def test_matches_general_solve(self):
        rng = np.random.default_rng(5)
        for n in (1, 2, 4):
            A = rng.standard_normal((n, n))
            a = A @ A.T + n * np.eye(n)
            for b in (rng.standard_normal(n), rng.standard_normal((n, 3)), np.eye(n)):
                x = solve_pd(a, b)
                assert x.shape == b.shape
                assert np.allclose(x, np.linalg.solve(a, b), rtol=1e-12, atol=1e-14)

    def test_rejects_indefinite_and_non_finite(self):
        with pytest.raises(np.linalg.LinAlgError):
            solve_pd(np.diag([1.0, -1.0]), np.ones(2))
        with pytest.raises(ValueError):
            solve_pd(np.eye(2), np.array([1.0, np.nan]))
        with pytest.raises(ValueError):
            solve_pd(np.diag([np.inf, 1.0]), np.ones(2))

    def test_import_loads_no_scipy(self):
        src = str(Path(filterlab.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
        code = ("import sys, filterlab, filterlab.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=120).stdout
        assert out.strip() == "[]"


def _model():
    return LinearModel(F=cv_transition(3.0), Q=cv_process_noise(3.0, 1e-3),
                       H=np.eye(2, 4), Rbar=np.eye(2))


def _posterior(cov):
    return log_posterior(np.ones(2), GaussianBelief(np.zeros(2), cov), np.ones(2),
                         np.eye(2), np.eye(2), InverseGammaMixing(1.0, 1.0))


# Each former scipy.linalg call site in the library, called with one matrix
# in place of a valid positive-definite one.
SOLVE_SITES = {
    "pcrlb_recursion": lambda a: pcrlb_recursion(np.kron(np.eye(2), a), _model(), 1.0),
    "log_posterior": _posterior,
    "nvm_t_log_density": lambda a: nvm_t_log_density(np.ones(2), InverseGammaMixing(1.0, 1.0), a),
}


@pytest.mark.parametrize("site", sorted(SOLVE_SITES))
@pytest.mark.parametrize("matrix, error", [
    (np.diag([1.0, -0.5]), np.linalg.LinAlgError),
    (np.array([[1.0, np.nan], [np.nan, 1.0]]), ValueError),
])
def test_solve_sites_reject_bad_matrices(site, matrix, error):
    with pytest.raises(error):
        SOLVE_SITES[site](matrix)
