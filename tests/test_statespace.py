import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import filterlab
from filterlab.kalman import pcrlb_recursion
from filterlab.nvmf import InverseGammaMixing, nvm_t_log_density
from filterlab.specfun import RngStream, sample_mvn
from filterlab.statespace import (
    Failure,
    GaussianBelief,
    LinearModel,
    cv_process_noise,
    cv_transition,
    lapack,
    predict,
    rowwise,
    solve_pd,
    two_point_init,
    whitener,
)

from oracles import log_posterior, zeta


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

    def test_rejects_asymmetric_rbar_at_any_scale(self):
        # The symmetry test is relative to Rbar's own scale: at 1e-12 the
        # asymmetry is far below 1e-10 absolute, and the unit-determinant
        # normalisation would turn it into the unit-scale matrix rejected above.
        with pytest.raises(ValueError, match="not symmetric"):
            LinearModel(np.eye(2), np.eye(2), np.eye(2), 1e-12 * np.array([[1.0, 0.5], [0.0, 1.0]]))

    @pytest.mark.parametrize("c", [1e200, 1e-200])
    def test_normalises_extreme_scales(self, c):
        # det(c I) overflows to inf at 1e200 and underflows to 0 at 1e-200.
        model = LinearModel(np.eye(2), np.eye(2), np.eye(2), c * np.eye(2))
        assert np.array_equal(model.Rbar, np.eye(2))

    def test_whitened_factors_are_the_models_own(self):
        F, Q = cv_transition(3.0), cv_process_noise(3.0, 1.0)
        H = np.array([[1.0, 0.0, 0.5, 0.0], [0.0, 1.0, 0.0, 0.5]])
        first = LinearModel(F, Q, H, np.eye(2))
        second = LinearModel(F, Q, H, [[2.0, 0.6], [0.6, 1.0]])
        for model in (first, second):
            c_inv, wh = model.whitened
            assert np.array_equal(c_inv, whitener(model.Rbar))
            assert np.array_equal(wh, c_inv @ H)
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
        # Nor does it load the process pool, which only a multi-worker run
        # needs.
        code = ("import sys, filterlab, filterlab.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'"
                " or m in ('multiprocessing', 'concurrent.futures.process')))")
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=120).stdout
        assert out.strip() == "[]"


def _model():
    return LinearModel(F=cv_transition(3.0), Q=cv_process_noise(3.0, 1e-3),
                       H=np.eye(2, 4), Rbar=np.eye(2))


def _posterior(cov):
    return log_posterior(np.ones(2), GaussianBelief(np.zeros(2), cov), np.ones(2),
                         np.eye(2), np.eye(2), InverseGammaMixing(1.0, 1.0))


# Each former scipy.linalg call site, called with one matrix in place of a
# valid positive-definite one: two library functions, and log_posterior,
# the direct form the NVMF tests score against, so that the reference fails
# as loudly as the library does.
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


# The stacked kernels call numpy's compiled loops directly: the LAPACK
# gufuncs behind numpy.linalg through rowwise, and np.matvec / np.vecdot
# for the contractions. These tests pin the numpy behaviour that keeps
# their results numpy.linalg's and matmul's bit for bit, so a numpy release
# that changes it fails here rather than in a run's output.

# gufunc -> (the numpy.linalg function it stands for, its extra arguments
# for a stack of n x n matrices).
LAPACK_PAIRS = {
    "cholesky_lo": (np.linalg.cholesky, lambda rng, N, n: ()),
    "inv": (np.linalg.inv, lambda rng, N, n: ()),
    "eigh_lo": (np.linalg.eigh, lambda rng, N, n: ()),
    "eigvalsh_lo": (np.linalg.eigvalsh, lambda rng, N, n: ()),
    "solve": (np.linalg.solve, lambda rng, N, n: (rng.standard_normal((N, n, 3)),)),
}


def _spd_stack(rng, N, n=4):
    A = rng.standard_normal((N, n, n)) * rng.lognormal(0.0, 2.0, (N, 1, 1))
    return A @ A.swapaxes(-1, -2) + np.eye(n)


def _same_bits(a, b):
    a, b = (tuple(x) if isinstance(x, tuple) else (x,) for x in (a, b))
    return len(a) == len(b) and all(
        x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()
        for x, y in zip(a, b))


def _rowwise(name, a, *args):
    status = np.zeros(a.shape[0], dtype=np.int8)
    return rowwise(status, Failure.NON_FINITE, getattr(lapack, name), a, *args), status


class TestLapackGufuncs:
    @pytest.mark.parametrize("N", [1, 64])
    @pytest.mark.parametrize("name", sorted(LAPACK_PAIRS))
    def test_equal_numpy_linalg_bitwise(self, name, N):
        rng = np.random.default_rng(40 + N)
        reference, extra = LAPACK_PAIRS[name]
        a = _spd_stack(rng, N)
        args = extra(rng, N, 4)
        out, status = _rowwise(name, a, *args)
        assert not status.any()
        assert _same_bits(out, tuple(reference(a, *args)) if name == "eigh_lo"
                          else reference(a, *args))

    @pytest.mark.parametrize("name", sorted(LAPACK_PAIRS))
    def test_bad_rows_fail_as_numpy_linalg_does(self, name):
        rng = np.random.default_rng(50)
        reference, extra = LAPACK_PAIRS[name]
        a = _spd_stack(rng, 8)
        a[1] = 0.0                                # singular
        a[4] = np.diag([1.0, -2.0, 3.0, 1.0])     # not positive definite
        a[6, 2, 2] = np.nan                       # NaN entry
        args = extra(rng, 8, 4)
        expected_bad = []
        for i in range(len(a)):
            try:
                with np.errstate(all="ignore"):
                    reference(a[i:i + 1], *(b[i:i + 1] for b in args))
                expected_bad.append(False)
            except np.linalg.LinAlgError:
                expected_bad.append(True)
        # Outside any np.errstate, no floating-point warning may escape.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out, status = _rowwise(name, a, *args)
        assert (status != 0).tolist() == expected_bad
        # LAPACK's own contract: a singular matrix has no inverse or
        # solve, and neither it nor an indefinite one a Cholesky factor.
        must_fail = {"cholesky_lo": [1, 4], "inv": [1], "solve": [1]}.get(name, [])
        assert all(expected_bad[i] for i in must_fail)
        for i in np.flatnonzero(~np.array(expected_bad)):
            with np.errstate(all="ignore"):
                one = reference(a[i:i + 1], *(b[i:i + 1] for b in args))
            rows = tuple(x[i:i + 1] for x in out) if name == "eigh_lo" else out[i:i + 1]
            assert _same_bits(rows, tuple(one) if name == "eigh_lo" else one)


# A row on which each gufunc's LAPACK routine fails: no Cholesky factor
# for an indefinite matrix, no inverse or solve for a singular one, and no
# eigendecomposition of a 4 x 4 matrix of NaN.
FAILING_ROW = {
    "cholesky_lo": np.diag([1.0, -2.0, 3.0, 1.0]),
    "inv": np.zeros((4, 4)),
    "solve": np.zeros((4, 4)),
    "eigh_lo": np.full((4, 4), np.nan),
    "eigvalsh_lo": np.full((4, 4), np.nan),
}


BAD_ROW = 3


def _one_failing_row(name, N=8):
    rng = np.random.default_rng(70)
    a = _spd_stack(rng, N)
    a[BAD_ROW] = FAILING_ROW[name]
    return a, LAPACK_PAIRS[name][1](rng, N, 4)


class TestLapackFailureContract:
    """rowwise reads a failed row off numpy's own report: the gufunc raises
    the invalid flag and fills that slice's output with NaN."""

    @pytest.mark.parametrize("name", sorted(LAPACK_PAIRS))
    def test_failed_slice_is_nan_filled_and_raises_invalid(self, name):
        a, args = _one_failing_row(name)
        gufunc = getattr(lapack, name)
        with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
            gufunc(a, *args)
        with np.errstate(invalid="ignore"):
            out = gufunc(a, *args)
        out = out if isinstance(out, tuple) else (out,)
        assert all(np.isnan(x[BAD_ROW]).all() for x in out)
        good = np.arange(len(a)) != BAD_ROW
        reference = LAPACK_PAIRS[name][0](a[good], *(b[good] for b in args))
        assert _same_bits(tuple(x[good] for x in out),
                          tuple(reference) if name == "eigh_lo" else reference)

    @pytest.mark.parametrize("name", sorted(LAPACK_PAIRS))
    def test_rowwise_makes_no_per_row_call(self, name):
        a, args = _one_failing_row(name)
        gufunc = getattr(lapack, name)
        stacks = []

        def counted(*call_args):
            stacks.append(len(call_args[0]))
            return gufunc(*call_args)

        status = np.zeros(len(a), dtype=np.int8)
        rowwise(status, Failure.NON_FINITE, counted, a, *args)
        # The call that reports the failure, and one repeat that ignores it.
        assert stacks == [len(a), len(a)]
        assert np.flatnonzero(status).tolist() == [BAD_ROW]


def _scaled(rng, shape):
    """Normal entries over many magnitudes, so any change in the order of
    a sum shows in the last bits."""
    return rng.standard_normal(shape) * rng.lognormal(0.0, 4.0, shape)


def _matvec_cases(rng, N):
    stacked = _scaled(rng, (N, 4, 4))
    return {
        "vector": (_scaled(rng, (4, 4)), _scaled(rng, 4)),
        "shared": (_scaled(rng, (4, 4)), _scaled(rng, (N, 4))),
        "shared wide": (_scaled(rng, (2, 4)), _scaled(rng, (N, 4))),
        "shared transposed": (_scaled(rng, (2, 4)).T, _scaled(rng, (N, 2))),
        "stacked": (stacked, _scaled(rng, (N, 4))),
        "stacked wide": (_scaled(rng, (N, 2, 4)), _scaled(rng, (N, 4))),
        "K over N": (_scaled(rng, (2, 4)), _scaled(rng, (3, N, 4))),
        "swapaxes": (stacked.swapaxes(-1, -2), _scaled(rng, (N, 4))),
        "sliced swapaxes": (_scaled(rng, (N, 2, 5))[..., :-1].swapaxes(-1, -2),
                            _scaled(rng, (N, 2))),
    }


class TestMatvecVecdot:
    @pytest.mark.parametrize("N", [1, 100_000])
    def test_matvec_equals_matmul_bitwise(self, N):
        rng = np.random.default_rng(60)
        for label, (A, x) in _matvec_cases(rng, N).items():
            assert _same_bits(np.matvec(A, x), (A @ x[..., None])[..., 0]), label

    @pytest.mark.parametrize("N", [1, 100_000])
    def test_vecdot_equals_matmul_bitwise(self, N):
        rng = np.random.default_rng(61)
        solved = _scaled(rng, (N, 2, 5))
        cases = {
            "vector": (_scaled(rng, 4), _scaled(rng, 4)),
            "stack": (_scaled(rng, (N, 4)), _scaled(rng, (N, 4))),
            "K over N": (_scaled(rng, (3, N, 2)), _scaled(rng, (3, N, 2))),
            "column view": (_scaled(rng, (N, 2)), solved[..., -1]),
            "swapaxes view": (solved.swapaxes(-1, -2)[:, 0], solved.swapaxes(-1, -2)[:, 1]),
        }
        for label, (a, b) in cases.items():
            assert _same_bits(np.vecdot(a, b), (a[..., None, :] @ b[..., None])[..., 0, 0]), label
