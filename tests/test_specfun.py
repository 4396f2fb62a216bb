import math

import numpy as np
import pytest
import scipy.integrate
import scipy.special
import scipy.stats

from filterlab.errors import ConvergenceError
from filterlab.specfun import (
    RngStream,
    chi_square_quantile,
    inv_reg_lower_inc_gamma,
    log_gamma,
    reg_lower_inc_gamma,
    sample_gamma,
    sample_inverse_gamma,
    sample_mvn,
)


class TestLogGamma:
    def test_integer_points(self):
        assert log_gamma(1.0) == 0.0
        assert log_gamma(2.0) == 0.0

    def test_half(self):
        # ln sqrt(pi), high-precision value
        assert abs(log_gamma(0.5) - 0.5723649429247001) < 1e-14

    def test_against_reference_wide_range(self):
        for a in [1e-3, 0.1, 0.7, 1.5, 20.0, 170.0, 1e4, 1e6]:
            ref = scipy.special.gammaln(a)
            tol = 1e-12 if abs(ref) < 1.0 else 1e-13 * abs(ref)
            assert abs(log_gamma(a) - ref) <= tol

    def test_domain(self):
        with pytest.raises(ValueError):
            log_gamma(0.0)
        with pytest.raises(ValueError):
            log_gamma(-1.0)
        with pytest.raises(ValueError):
            log_gamma(math.nan)


class TestRegLowerIncGamma:
    def test_at_zero(self):
        for a in [0.1, 1.0, 7.3]:
            assert reg_lower_inc_gamma(a, 0.0) == 0.0

    def test_exponential_special_case(self):
        # P(1, x) = 1 - exp(-x)
        assert abs(reg_lower_inc_gamma(1.0, math.log(2.0)) - 0.5) < 1e-14

    def test_calibration_regime_point(self):
        # alpha = 0.9987, x = beta / r_out from the standard benchmark setup;
        # cross-checked against quadrature of the gamma density below.
        val = reg_lower_inc_gamma(0.9987, 0.009984)
        assert abs(val - 0.01) < 1e-5

        def integrand(t):
            return math.exp((0.9987 - 1.0) * math.log(t) - t - math.lgamma(0.9987))

        quad, _ = scipy.integrate.quad(integrand, 0.0, 0.009984, epsabs=1e-14, epsrel=1e-12)
        assert abs(val - quad) < 1e-10

    def test_against_scipy_grid(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            a = 10.0 ** rng.uniform(-2, 3)
            x = 10.0 ** rng.uniform(-3, 3)
            assert abs(reg_lower_inc_gamma(a, x) - scipy.special.gammainc(a, x)) < 1e-10

    def test_monotone_in_x(self):
        for a in [0.3, 0.9987, 2.0, 15.0]:
            xs = np.linspace(0.0, 5.0 * a + 10.0, 200)
            vals = [reg_lower_inc_gamma(a, x) for x in xs]
            assert np.all(np.diff(vals) >= -1e-15)

    def test_domain(self):
        with pytest.raises(ValueError):
            reg_lower_inc_gamma(0.0, 1.0)
        with pytest.raises(ValueError):
            reg_lower_inc_gamma(1.0, -0.1)
        with pytest.raises(ValueError):
            reg_lower_inc_gamma(math.nan, 1.0)
        with pytest.raises(ValueError):
            reg_lower_inc_gamma(1.0, math.nan)


class TestInvRegLowerIncGamma:
    def test_exponential_closed_form(self):
        for p in [0.01, 0.5, 0.99]:
            assert abs(inv_reg_lower_inc_gamma(1.0, p) - (-math.log1p(-p))) < 1e-12

    def test_calibration_regime_point(self):
        assert abs(inv_reg_lower_inc_gamma(0.9987, 0.01) - 0.009984) < 1e-5

    def test_round_trip_random(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            a = 10.0 ** rng.uniform(-2, 3)
            p = rng.uniform(1e-6, 1.0 - 1e-6)
            x = inv_reg_lower_inc_gamma(a, p)
            assert abs(reg_lower_inc_gamma(a, x) - p) < 1e-9

    def test_domain(self):
        for bad_p in [0.0, 1.0, -0.5, 2.0, math.nan]:
            with pytest.raises(ValueError):
                inv_reg_lower_inc_gamma(1.0, bad_p)
        for bad_a in [-1.0, math.nan]:
            with pytest.raises(ValueError):
                inv_reg_lower_inc_gamma(bad_a, 0.5)


class TestChiSquareQuantile:
    def test_two_dof_closed_form(self):
        for p in [0.025, 0.5, 0.975]:
            assert abs(chi_square_quantile(2.0, p) - (-2.0 * math.log1p(-p))) < 1e-10

    def test_known_values(self):
        # frozen from numeric CDF inversion
        assert abs(chi_square_quantile(2.0, 0.975) - 7.377758908227871) < 1e-9
        assert abs(chi_square_quantile(4.0, 0.5) - 3.3566939800333227) < 1e-9

    def test_against_scipy(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            dof = rng.uniform(0.5, 900.0)
            p = rng.uniform(0.001, 0.999)
            ref = scipy.stats.chi2.ppf(p, dof)
            assert abs(chi_square_quantile(dof, p) - ref) < 1e-8 * max(1.0, ref)

    def test_domain(self):
        for bad_dof in [0.0, -2.0, math.nan]:
            with pytest.raises(ValueError):
                chi_square_quantile(bad_dof, 0.5)


class TestRngStream:
    def test_determinism(self):
        a = RngStream(42, 5)
        b = RngStream(42, 5)
        assert np.array_equal(a.standard_normal(100), b.standard_normal(100))
        assert np.array_equal(a.uniform(size=100), b.uniform(size=100))

    def test_distinct_streams_differ(self):
        a = RngStream(42, 1).standard_normal(50)
        b = RngStream(42, 2).standard_normal(50)
        assert not np.array_equal(a, b)

    def test_uniform_matches_generator_uniform(self):
        # uniform on [0, 1) takes numpy's random(); the draws and the stream
        # position are Generator.uniform's.
        rng = RngStream(42, 5)
        gen = np.random.Generator(np.random.Philox(key=np.array([42, 5], dtype=np.uint64)))
        assert rng.uniform(size=1000).tobytes() == gen.uniform(0.0, 1.0, 1000).tobytes()
        assert [rng.uniform() for _ in range(100)] == [gen.uniform() for _ in range(100)]
        assert rng.uniform(-2.0, 3.0, size=5).tobytes() == gen.uniform(-2.0, 3.0, 5).tobytes()
        assert rng.standard_normal(5).tobytes() == gen.standard_normal(5).tobytes()


class TestSampleGamma:
    def test_mean_large_sample(self):
        rng = RngStream(10)
        draws = sample_gamma(2.0, 1.0, rng, size=10**6)
        # mean alpha/rate = 2, sd of the mean = sqrt(2/1e6)
        assert abs(draws.mean() - 2.0) < 5.0 * math.sqrt(2.0 / 1e6)

    def test_second_moment(self):
        rng = RngStream(11)
        draws = sample_gamma(2.0, 1.0, rng, size=10**6)
        # E[tau^2] = alpha (alpha + 1) / rate^2 = 6
        assert abs((draws**2).mean() - 6.0) / 6.0 < 0.01

    def test_exponential_median(self):
        rng = RngStream(12)
        draws = sample_gamma(1.0, 2.0, rng, size=200_000)
        assert abs(np.median(draws) - math.log(2.0) / 2.0) < 0.01

    def test_small_shape_moments(self):
        # shape < 1 goes through the boosted path
        rng = RngStream(13)
        draws = sample_gamma(0.5, 1.0, rng, size=10**6)
        assert abs(draws.mean() - 0.5) < 0.01
        assert abs(draws.var() - 0.5) < 0.02

    def test_domain(self):
        rng = RngStream(0)
        with pytest.raises(ValueError):
            sample_gamma(0.0, 1.0, rng)
        with pytest.raises(ValueError):
            sample_gamma(1.0, -1.0, rng)
        with pytest.raises(ValueError):
            sample_gamma(math.nan, 1.0, rng)
        with pytest.raises(ValueError):
            sample_gamma(1.0, math.nan, rng)


class TestSampleInverseGamma:
    def test_reciprocal_identity(self):
        draws_g = sample_gamma(2.5, 3.0, RngStream(20, 4), size=1000)
        draws_ig = sample_inverse_gamma(2.5, 3.0, RngStream(20, 4), size=1000)
        assert np.array_equal(draws_ig, 1.0 / draws_g)

    def test_inverse_moments(self):
        # E[r^-n] under the inverse gamma equals prod(alpha + i - 1) / beta^n
        rng = RngStream(21)
        alpha, beta = 2.0, 3.0
        draws = sample_inverse_gamma(alpha, beta, rng, size=10**6)
        for n in (1, 2):
            closed = np.prod([alpha + i - 1 for i in range(1, n + 1)]) / beta**n
            moment = (1.0 / draws**n).mean()
            se = (1.0 / draws**n).std() / 1000.0
            assert abs(moment - closed) < 3.0 * se

    def test_median_alpha_one(self):
        rng = RngStream(22)
        draws = sample_inverse_gamma(1.0, 1.0, rng, size=200_000)
        assert abs(np.median(draws) - 1.0 / math.log(2.0)) < 0.02


class TestSampleMvn:
    def test_zero_cov_returns_mean(self):
        rng = RngStream(30)
        mean = np.array([1.0, -2.0, 3.0])
        out = sample_mvn(mean, np.zeros((3, 3)), rng)
        assert np.array_equal(out, mean)

    def test_sample_covariance(self):
        rng = RngStream(31)
        draws = sample_mvn(np.zeros(2), 100.0 * np.eye(2), rng, size=10**6)
        cov = np.cov(draws.T)
        assert np.abs(cov - 100.0 * np.eye(2)).max() < 2.0

    def test_affine_construction(self):
        cov = np.array([[4.0, 1.0], [1.0, 3.0]])
        factor = np.linalg.cholesky(cov)
        mu = np.array([5.0, -1.0])
        z = RngStream(32, 9).standard_normal(2)
        direct = sample_mvn(mu, cov, RngStream(32, 9))
        assert np.allclose(direct, mu + factor @ z, atol=1e-12)

    def test_non_psd_raises(self):
        rng = RngStream(33)
        bad = np.array([[1.0, 0.0], [0.0, -1.0]])
        with pytest.raises(np.linalg.LinAlgError):
            sample_mvn(np.zeros(2), bad, rng)
