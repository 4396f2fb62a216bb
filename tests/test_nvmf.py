import math

import numpy as np
import pytest
import scipy.integrate
import scipy.special

from filterlab.errors import CovarianceCorrectionError, NumericalError
from filterlab.kalman import kf_update
from filterlab.nvmf import (
    InverseGammaMixing,
    NvmfConfig,
    calibrate_mixing,
    covariance_correction,
    log_posterior,
    nvm_t_log_density,
    nvmf_update,
    phi,
    posterior_r_params,
    psi,
    u_vector,
    zeta,
)
from filterlab.specfun import RngStream
from filterlab.statespace import GaussianBelief, LinearModel, cv_process_noise, cv_transition

TABLE_MIXING = InverseGammaMixing(0.9987, 99.84)


def ig_pdf(r, a, b):
    return np.exp(a * np.log(b) - scipy.special.gammaln(a) - (a + 1.0) * np.log(r) - b / r)


def ig_quad(f, a, b):
    # integral of f(r) * IG(r; a, b) over (0, inf), split at the mode
    mode = b / (a + 1.0)
    g = lambda r: f(r) * ig_pdf(r, a, b)
    lo, _ = scipy.integrate.quad(g, 0.0, mode, epsabs=0.0, epsrel=1e-12)
    hi, _ = scipy.integrate.quad(g, mode, np.inf, epsabs=0.0, epsrel=1e-12)
    return lo + hi


def scalar_model(Rbar=None):
    return LinearModel(np.eye(1), np.zeros((1, 1)), np.eye(1),
                       np.eye(1) if Rbar is None else Rbar)


def cv_model():
    H = np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0]])
    return LinearModel(cv_transition(3.0), cv_process_noise(3.0, 1e-6), H, np.eye(2))


class TestZeta:
    def test_zero_residual(self):
        H = np.array([[1.0, 0.0], [0.0, 1.0]])
        x = np.array([2.0, 3.0])
        assert zeta(x, H @ x, H, np.eye(2)) == 0.0

    def test_scalar_hand_case(self):
        # residual 2, unit shape: 0.5 * 2^2 = 2
        val = zeta(np.array([0.0]), np.array([2.0]), np.eye(1), np.eye(1))
        assert abs(val - 2.0) < 1e-14

    def test_rotation_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            resid = rng.standard_normal(2)
            theta = rng.uniform(0, 2 * np.pi)
            rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
            a = zeta(np.zeros(2), resid, np.eye(2), np.eye(2))
            b = zeta(np.zeros(2), rot @ resid, np.eye(2), np.eye(2))
            assert abs(a - b) < 1e-10 * max(a, 1.0)


class TestPsiPhi:
    def test_hand_values(self):
        # (0 + 99.84) / (1 + 0.9987) and (0 + 99.84) / sqrt(1.9987)
        assert abs(psi(0.0, TABLE_MIXING, 2) - 49.9524691049182) < 1e-10
        assert abs(phi(0.0, TABLE_MIXING, 2) - 70.6204964258609) < 1e-10

    def test_algebraic_tie(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            zv = rng.uniform(0, 100)
            mix = InverseGammaMixing(rng.uniform(0.2, 8), rng.uniform(0.1, 200))
            m = rng.integers(1, 5)
            assert abs(phi(zv, mix, m) - psi(zv, mix, m) * math.sqrt(m / 2.0 + mix.alpha)) < 1e-12 * phi(zv, mix, m)

    def test_quadrature_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            mix = InverseGammaMixing(rng.uniform(0.5, 5), rng.uniform(1, 150))
            m = int(rng.integers(1, 4))
            zv = rng.uniform(0, 300)
            a_post, b_post = m / 2.0 + mix.alpha, zv + mix.beta
            inv1 = ig_quad(lambda r: 1.0 / r, a_post, b_post)
            inv2 = ig_quad(lambda r: 1.0 / r**2, a_post, b_post)
            psi_ref = 1.0 / inv1
            phi_ref = 1.0 / math.sqrt(inv2 - inv1**2)
            assert abs(psi(zv, mix, m) - psi_ref) < 1e-8 * psi_ref
            assert abs(phi(zv, mix, m) - phi_ref) < 1e-8 * phi_ref

    def test_dirac_limit(self):
        # with beta = r0 (alpha - 1) and huge alpha, psi pins to r0
        r0 = 7.5
        alpha = 1e6
        mix = InverseGammaMixing(alpha, r0 * (alpha - 1.0))
        assert abs(psi(12.3, mix, 2) - r0) / r0 < 1e-5


class TestPosteriorRParams:
    def test_zero_residual(self):
        post = posterior_r_params(0.0, TABLE_MIXING, 2)
        assert post.alpha == 1.0 + TABLE_MIXING.alpha
        assert post.beta == TABLE_MIXING.beta

    def test_bayes_pointwise(self):
        # posterior density equals the normalized product of the Gaussian
        # likelihood and the prior on an r-grid
        mix = InverseGammaMixing(1.3, 40.0)
        m = 2
        resid = np.array([3.0, -1.0])
        zv = 0.5 * float(resid @ resid)
        post = posterior_r_params(zv, mix, m)

        def gauss(r):
            return np.exp(-0.5 * resid @ resid / r) / ((2 * np.pi * r) ** (m / 2.0))

        norm = ig_quad(gauss, mix.alpha, mix.beta)
        for r in [0.5, 2.0, 10.0, 40.0, 150.0]:
            lhs = ig_pdf(r, post.alpha, post.beta)
            rhs = gauss(r) * ig_pdf(r, mix.alpha, mix.beta) / norm
            assert abs(lhs - rhs) < 1e-7 * max(lhs, 1e-12)

    def test_posterior_inverse_moment(self):
        mix = InverseGammaMixing(2.0, 30.0)
        zv = 12.0
        post = posterior_r_params(zv, mix, 2)
        closed = post.alpha / post.beta
        quad = ig_quad(lambda r: 1.0 / r, post.alpha, post.beta)
        assert abs(closed - quad) < 1e-9 * closed


class TestLogPosterior:
    def test_zero_at_prior_mean_zero_residual(self):
        prior = GaussianBelief(np.array([1.0, 2.0]), np.eye(2))
        H = np.eye(2)
        assert log_posterior(prior.mean, prior, H @ prior.mean, H, np.eye(2), TABLE_MIXING) == 0.0

    def test_scalar_hand_case(self):
        prior = GaussianBelief(np.array([0.0]), np.array([[1.0]]))
        mix = InverseGammaMixing(1.0, 1.0)
        val = log_posterior(np.array([0.0]), prior, np.array([1.0]), np.eye(1), np.eye(1), mix)
        assert abs(val - (-1.5 * math.log(1.5))) < 1e-12

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n, m = 3, 2
            A = rng.standard_normal((n, n))
            prior = GaussianBelief(rng.standard_normal(n), A @ A.T + n * np.eye(n))
            H = rng.standard_normal((m, n))
            z = rng.standard_normal(m) * 3.0
            mix = InverseGammaMixing(rng.uniform(0.5, 4), rng.uniform(0.5, 50))
            x = rng.standard_normal(n)
            h = 1e-6
            for i in range(n):
                e = np.zeros(n)
                e[i] = h
                num = (log_posterior(x + e, prior, z, H, np.eye(m), mix)
                       - log_posterior(x - e, prior, z, H, np.eye(m), mix)) / (2 * h)
                # analytic gradient
                dx = x - prior.mean
                resid = H @ x - z
                zv = 0.5 * float(resid @ resid)
                grad = (-np.linalg.solve(prior.cov, dx)
                        - (m / 2.0 + mix.alpha) / (mix.beta + zv) * (H.T @ resid))
                assert abs(num - grad[i]) < 1e-5 * max(1.0, abs(grad[i]))


class TestUVector:
    def test_zero_residual(self):
        H = np.array([[1.0, 0.0], [0.0, 1.0]])
        x = np.array([1.0, 2.0])
        assert np.array_equal(u_vector(x, H @ x, H, np.eye(2), 3.0), np.zeros(2))

    def test_scalar_hand_case(self):
        # H=1, Rbar=1, phi=2, residual Hx - z = 4 -> u = 2
        u = u_vector(np.array([5.0]), np.array([1.0]), np.eye(1), np.eye(1), 2.0)
        assert abs(u[0] - 2.0) < 1e-14

    def test_linearity(self):
        rng = np.random.default_rng(4)
        H = rng.standard_normal((2, 3))
        x1, x2 = rng.standard_normal(3), rng.standard_normal(3)
        z = np.zeros(2)
        u1 = u_vector(x1, z, H, np.eye(2), 1.7)
        u2 = u_vector(x2, z, H, np.eye(2), 1.7)
        u12 = u_vector(x1 + x2, z, H, np.eye(2), 1.7)
        assert np.allclose(u12, u1 + u2, atol=1e-12)

    @pytest.mark.parametrize("phi_val", [0.0, -1.0, np.nan])
    def test_nonpositive_phi_raises(self, phi_val):
        with pytest.raises(ValueError):
            u_vector(np.array([5.0]), np.array([1.0]), np.eye(1), np.eye(1), phi_val)


class TestCovarianceCorrection:
    def test_zero_u(self):
        P = np.array([[2.0, 0.3], [0.3, 1.0]])
        assert np.array_equal(covariance_correction(P, np.zeros(2)), P)

    def test_scalar_hand_case(self):
        out = covariance_correction(np.array([[1.0]]), np.array([0.5]))
        assert abs(out[0, 0] - 4.0 / 3.0) < 1e-14
        assert abs(1.0 / out[0, 0] - 0.75) < 1e-14

    def test_inverse_identity_random(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = rng.integers(1, 6)
            A = rng.standard_normal((n, n))
            P = A @ A.T + n * np.eye(n)
            u = rng.standard_normal(n)
            upu = u @ P @ u
            if upu >= 0.95:
                u = u * math.sqrt(0.5 / upu)
            out = covariance_correction(P, u)
            lhs = np.linalg.inv(out)
            rhs = np.linalg.inv(P) - np.outer(u, u)
            assert np.abs(lhs - rhs).max() < 1e-8 * max(np.abs(rhs).max(), 1.0)

    def test_result_dominates_input(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            A = rng.standard_normal((3, 3))
            P = A @ A.T + 3 * np.eye(3)
            u = rng.standard_normal(3)
            u = u * math.sqrt(0.3 / (u @ P @ u))
            out = covariance_correction(P, u)
            assert np.linalg.eigvalsh(out - P)[0] > -1e-10

    def test_nonpositive_denominator_raises(self):
        P = np.eye(2)
        u = np.array([1.1, 0.0])
        with pytest.raises(CovarianceCorrectionError) as exc:
            covariance_correction(P, u)
        assert exc.value.denominator < 0.0
        # a NaN u has no denominator to check
        with pytest.raises(CovarianceCorrectionError):
            covariance_correction(P, np.array([np.nan, 0.0]))


class TestNvmfUpdate:
    def test_zero_innovation_fixed_point(self):
        model = cv_model()
        prior = GaussianBelief(np.array([10.0, -3.0, 1.0, 2.0]),
                               np.diag([5.0, 5.0, 1.0, 1.0]))
        z = model.H @ prior.mean
        post, diag = nvmf_update(prior, z, model, TABLE_MIXING, NvmfConfig())
        assert np.array_equal(post.mean, prior.mean)
        assert diag.correction_denominator == 1.0
        assert not diag.correction_fallback

    def test_dirac_limit_matches_kf(self):
        rng = np.random.default_rng(7)
        r_bar = 100.0
        alpha = 1e6
        mix = InverseGammaMixing(alpha, r_bar * (alpha - 1.0))
        model = cv_model()
        for _ in range(100):
            A = rng.standard_normal((4, 4))
            prior = GaussianBelief(rng.standard_normal(4) * 10, A @ A.T + 4 * np.eye(4))
            z = rng.standard_normal(2) * 20
            post, _ = nvmf_update(prior, z, model, mix, NvmfConfig(epsilon=1e-12, max_iterations=50))
            kf_post, _ = kf_update(prior, z, model.H, r_bar * model.Rbar)
            assert np.allclose(post.mean, kf_post.mean, rtol=1e-3, atol=1e-3)
            assert np.allclose(post.cov, kf_post.cov, rtol=1e-3)

    def test_scalar_map_grid_oracle(self):
        # converged mean must agree with a dense-grid argmax of the posterior
        rng = np.random.default_rng(8)
        grid = np.arange(-10.0, 10.0, 1e-4)
        model = scalar_model()
        cfg = NvmfConfig(epsilon=1e-13, max_iterations=300)
        for _ in range(10):
            alpha = rng.uniform(0.8, 3.0)
            beta = rng.uniform(0.5, 3.0)
            z = rng.uniform(-6.0, 6.0)
            mix = InverseGammaMixing(alpha, beta)
            prior = GaussianBelief(np.array([0.0]), np.array([[1.0]]))
            post, _ = nvmf_update(prior, np.array([z]), model, mix, cfg)
            objective = -0.5 * grid**2 - (0.5 + alpha) * np.log1p(0.5 * (z - grid) ** 2 / beta)
            assert abs(post.mean[0] - grid[np.argmax(objective)]) <= 1e-4

    def test_monotone_trace_and_stationarity(self):
        rng = np.random.default_rng(9)
        model = cv_model()
        cfg = NvmfConfig(epsilon=1e-14, max_iterations=300)
        for _ in range(200):
            A = rng.standard_normal((4, 4))
            prior = GaussianBelief(rng.standard_normal(4), A @ A.T + np.eye(4))
            scale = rng.uniform(0.5, 10.0)
            z = model.H @ prior.mean + rng.standard_normal(2) * scale
            post, diag = nvmf_update(prior, z, model, TABLE_MIXING, cfg)
            assert np.all(np.diff(diag.log_posterior_trace) >= -1e-9)
            # the public log posterior is the objective the EM tracked
            lam = log_posterior(post.mean, prior, z, model.H, model.Rbar, TABLE_MIXING)
            assert abs(diag.log_posterior_trace[-1] - lam) <= 1e-12 * max(1.0, abs(lam))
            # whitened gradient at the converged mean is negligible
            dx = post.mean - prior.mean
            resid = model.H @ post.mean - z
            grad = (-np.linalg.solve(prior.cov, dx)
                    - (1.0 + TABLE_MIXING.alpha) / (TABLE_MIXING.beta + 0.5 * resid @ resid)
                    * (model.H.T @ resid))
            chol = np.linalg.cholesky(prior.cov)
            assert np.abs(chol.T @ grad).max() < 1e-6

    def test_fixed_iteration_mode(self):
        model = cv_model()
        prior = GaussianBelief(np.zeros(4), np.eye(4))
        z = np.array([3.0, -2.0])
        _, diag = nvmf_update(prior, z, model, TABLE_MIXING,
                              NvmfConfig(max_iterations=25, fixed_iteration_mode=True))
        assert diag.iterations_used == 25
        assert diag.log_posterior_trace.shape == (26,)

    def test_correction_fallback_flagged(self):
        # early-terminated EM far from the optimum can give an indefinite
        # observed information; the update must fall back and flag it
        model = scalar_model()
        prior = GaussianBelief(np.array([0.0]), np.array([[1000.0]]))
        mix = InverseGammaMixing(5000.0, 1e-6)
        post, diag = nvmf_update(prior, np.array([100.0]), model, mix,
                                 NvmfConfig(max_iterations=1, fixed_iteration_mode=True))
        assert diag.correction_fallback
        assert diag.correction_denominator <= 1e-10
        post.validate()


class TestNvmTLogDensity:
    def test_symmetry(self):
        v = np.array([1.2, -0.7])
        a = nvm_t_log_density(v, TABLE_MIXING, np.eye(2))
        b = nvm_t_log_density(-v, TABLE_MIXING, np.eye(2))
        assert abs(a - b) < 1e-14

    def test_scalar_center_value(self):
        # M=1, alpha=beta gives unit scale; value at zero has a closed form
        for alpha in [1.0, 2.5]:
            nu = 2.0 * alpha
            mix = InverseGammaMixing(alpha, alpha)
            expected = (scipy.special.gamma((nu + 1) / 2)
                        / (math.sqrt(math.pi * nu) * scipy.special.gamma(nu / 2)))
            assert abs(math.exp(nvm_t_log_density(np.array([0.0]), mix, np.eye(1))) - expected) < 1e-12

    def test_quadrature_equivalence(self):
        mix = TABLE_MIXING
        for v in [np.array([0.0, 0.0]), np.array([5.0, -3.0]), np.array([30.0, 10.0])]:
            def integrand(r):
                return (np.exp(-0.5 * v @ v / r) / (2 * np.pi * r)) * ig_pdf(r, mix.alpha, mix.beta)
            mode = mix.beta / (mix.alpha + 1.0)
            lo, _ = scipy.integrate.quad(integrand, 0.0, mode, epsabs=0.0, epsrel=1e-11)
            hi, _ = scipy.integrate.quad(integrand, mode, np.inf, epsabs=0.0, epsrel=1e-11)
            closed = math.exp(nvm_t_log_density(v, mix, np.eye(2)))
            assert abs(closed - (lo + hi)) < 1e-6 * (lo + hi)


class TestCalibrateMixing:
    def test_recovers_benchmark_parameters(self):
        rng = RngStream(99)
        grid = np.arange(0.9, 1.1001, 0.01)
        mixing, residual = calibrate_mixing(
            100.0**2, 0.01, 100.0, 2,
            alpha_grid=grid, n_samples=20_000, rng=rng)
        assert abs(mixing.alpha - 0.9987) < 0.02
        assert abs(mixing.beta - 99.84) < 2.0
        assert residual < 1e-3

    def test_beta_rho_round_trip(self):
        from filterlab.specfun import reg_lower_inc_gamma
        rng = RngStream(100)
        mixing, _ = calibrate_mixing(
            100.0**2, 0.01, 100.0, 2,
            alpha_grid=np.arange(0.9, 1.1001, 0.01), n_samples=20_000, rng=rng)
        # tail probability of r_out under the fitted mixing must equal rho
        rho_back = reg_lower_inc_gamma(mixing.alpha, mixing.beta / 100.0**2)
        assert abs(rho_back - 0.01) < 1e-6

    def test_tail_collapse_monotonicity(self):
        # moving r_out toward the regular variance forces a larger shape
        rng = RngStream(101)
        grid = np.arange(0.5, 10.001, 0.25)
        near, _ = calibrate_mixing(1.01 * 100.0, 0.01, 100.0, 2,
                                   alpha_grid=grid, n_samples=10_000, rng=rng)
        far, _ = calibrate_mixing(100.0 * 100.0, 0.01, 100.0, 2,
                                  alpha_grid=grid, n_samples=10_000, rng=rng)
        assert near.alpha > far.alpha

    def test_domain(self):
        with pytest.raises(ValueError):
            calibrate_mixing(100.0, 1.5, 100.0, 2)
        with pytest.raises(ValueError):
            calibrate_mixing(100.0, 0.01, 100.0, 2, n_samples=100)

    @pytest.mark.parametrize("M", [0, -1, 1.5])
    def test_rejects_non_positive_or_fractional_dimension(self, M):
        rng = RngStream(102)
        with pytest.raises(ValueError, match="M must be a positive integer"):
            calibrate_mixing(100.0**2, 0.01, 100.0, M, n_samples=10_000, rng=rng)
        # rejected before any draw: the stream is where a fresh one starts
        assert rng.standard_normal(3).tolist() == RngStream(102).standard_normal(3).tolist()
