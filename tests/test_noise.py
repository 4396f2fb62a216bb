import numpy as np
import pytest
import scipy.stats

from filterlab.noise import GaussianNoise, GaussianUniformNoise, MultivariateTNoise, sample_noise
from filterlab.specfun import RngStream, sample_inverse_gamma, sample_mvn

# Shape matrices no regime may be built with: NaN, indefinite, not square,
# not symmetric.
BAD_RBAR = [
    np.array([[1.0, np.nan], [np.nan, 1.0]]),
    np.diag([1.0, -1.0]),
    np.ones((2, 3)),
    np.array([[1.0, 0.5], [0.0, 1.0]]),
]
RBAR = np.array([[2.0, 0.7], [0.7, 0.5]])
SEMIDEFINITE_RBAR = np.array([[1.0, 1.0], [1.0, 1.0]])


def draw_many(regime, rng, n):
    return sample_noise(regime, rng, size=n)


def reference_draw(regime, rng):
    """One draw by the per-draw scheme: each covariance factored at its
    draw, the t scale by sample_inverse_gamma."""
    m = regime.Rbar.shape[0]
    if isinstance(regime, GaussianUniformNoise):
        if rng.uniform() < regime.p_out:
            half = 6.0 * np.sqrt(regime.r_out)
            return rng.uniform(-half, half, size=m)
        return sample_mvn(np.zeros(m), regime.r_bar * regime.Rbar, rng)
    if isinstance(regime, MultivariateTNoise):
        r = sample_inverse_gamma(regime.alpha, regime.beta, rng)
        return sample_mvn(np.zeros(m), r * regime.Rbar, rng)
    return sample_mvn(np.zeros(m), regime.r_bar * regime.Rbar, rng)


STREAM_REGIMES = [
    MultivariateTNoise(0.9987, 99.84, np.eye(2)),
    MultivariateTNoise(0.9987, 99.84, RBAR),
    MultivariateTNoise(2.5, 3.0, np.eye(2)),
    MultivariateTNoise(2.5, 3.0, RBAR),
    MultivariateTNoise(0.9987, 99.84, SEMIDEFINITE_RBAR),
    GaussianUniformNoise(100.0, np.eye(2), 0.0, 100.0**2),
    GaussianUniformNoise(100.0, RBAR, 0.0, 100.0**2),
    GaussianUniformNoise(100.0, np.eye(2), 0.3, 100.0**2),
    GaussianUniformNoise(100.0, RBAR, 0.3, 100.0**2),
    GaussianUniformNoise(100.0, np.eye(2), 1.0, 100.0**2),
    GaussianUniformNoise(100.0, RBAR, 1.0, 100.0**2),
    GaussianNoise(100.0, np.eye(2)),
    GaussianNoise(100.0, RBAR),
    GaussianNoise(100.0, SEMIDEFINITE_RBAR),
]


@pytest.mark.parametrize("regime", STREAM_REGIMES)
def test_block_equals_successive_draws(regime):
    # A block of K draws is the K single draws bit for bit, leaves the stream
    # where they leave it, and equals the per-draw reference scheme.
    K = 2000
    block_rng, single_rng, reference_rng = (RngStream(41, 3) for _ in range(3))
    block = sample_noise(regime, block_rng, size=K)
    single = np.stack([sample_noise(regime, single_rng) for _ in range(K)])
    reference = np.stack([reference_draw(regime, reference_rng) for _ in range(K)])
    assert block.shape == (K, 2)
    assert block.tobytes() == single.tobytes()
    # The reference adds a zero mean, which turns a -0.0 into +0.0.
    assert np.array_equal(block, reference)
    after = sample_noise(regime, block_rng)
    assert after.tobytes() == sample_noise(regime, single_rng).tobytes()
    assert np.array_equal(after, reference_draw(regime, reference_rng))


class TestGaussianRegime:
    def test_sample_covariance(self):
        rng = RngStream(1)
        draws = draw_many(GaussianNoise(100.0, np.eye(2)), rng, 100_000)
        cov = np.cov(draws.T)
        assert np.abs(cov - 100.0 * np.eye(2)).max() < 3.0

    def test_validation(self):
        with pytest.raises(ValueError):
            GaussianNoise(0.0, np.eye(2))
        for Rbar in BAD_RBAR:
            with pytest.raises(ValueError):
                GaussianNoise(100.0, Rbar)
        GaussianNoise(100.0, SEMIDEFINITE_RBAR)


class TestGaussianUniformRegime:
    def test_degenerate_mixture_matches_gaussian(self):
        # p_out = 0 must be distributionally Gaussian per coordinate
        rng = RngStream(2)
        gu = GaussianUniformNoise(100.0, np.eye(2), 0.0, 100.0**2)
        draws = draw_many(gu, rng, 100_000)
        for j in range(2):
            stat = scipy.stats.kstest(draws[:, j] / 10.0, "norm")
            assert stat.pvalue > 0.01

    def test_outlier_branch_variance(self):
        # uniform on [-600, 600] per coordinate has variance 600^2/3 = 12 r_out
        rng = RngStream(3)
        r_out = 100.0**2
        gu = GaussianUniformNoise(100.0, np.eye(2), 1.0, r_out)
        draws = draw_many(gu, rng, 200_000)
        var = draws.var(axis=0)
        assert np.abs(var - 12.0 * r_out).max() / (12.0 * r_out) < 0.02

    def test_outlier_fraction(self):
        rng = RngStream(4)
        p_out = 0.1
        gu = GaussianUniformNoise(100.0, np.eye(2), p_out, 100.0**2)
        draws = draw_many(gu, rng, 100_000)
        # beyond 6 sigma of the Gaussian branch, essentially only outliers land
        frac = np.mean(np.abs(draws).max(axis=1) > 60.0)
        # the uniform branch puts 90% of its mass beyond 60 per max-coordinate
        expected = p_out * (1.0 - (60.0 / 600.0) ** 2)
        se = np.sqrt(expected * (1 - expected) / 100_000)
        assert abs(frac - expected) < 5.0 * se

    def test_validation(self):
        with pytest.raises(ValueError):
            GaussianUniformNoise(100.0, np.eye(2), 1.5, 100.0)
        with pytest.raises(ValueError):
            GaussianUniformNoise(-1.0, np.eye(2), 0.1, 100.0)
        for Rbar in BAD_RBAR:
            with pytest.raises(ValueError):
                GaussianUniformNoise(100.0, Rbar, 0.1, 100.0)
        GaussianUniformNoise(100.0, SEMIDEFINITE_RBAR, 0.1, 100.0)


class TestMultivariateTRegime:
    def test_quantiles_match_t(self):
        # per-coordinate quantiles follow the univariate t implied by the
        # mixture: scale sqrt(beta/alpha), dof 2 alpha. No moment tests here:
        # the benchmark shape parameter gives infinite variance.
        rng = RngStream(5)
        alpha, beta = 0.9987, 99.84
        reg = MultivariateTNoise(alpha, beta, np.eye(2))
        draws = draw_many(reg, rng, 400_000)
        scale = np.sqrt(beta / alpha)
        for p in (0.9, 0.99):
            ref = scipy.stats.t.ppf(p, 2 * alpha) * scale
            emp = np.quantile(draws[:, 0], p)
            assert abs(emp - ref) / ref < 0.03

    def test_overflowing_scale_raises(self):
        # At alpha = 0.002 the boost u^(1/alpha) underflows for about a
        # quarter of the draws, so the scale r = 1/g would be infinite.
        reg = MultivariateTNoise(0.002, 1.0, np.eye(2))
        with pytest.raises(OverflowError):
            sample_noise(reg, RngStream(3), size=300)
        rng = RngStream(3)
        with pytest.raises(OverflowError):
            for _ in range(300):
                sample_noise(reg, rng)

    def test_validation(self):
        with pytest.raises(ValueError):
            MultivariateTNoise(0.0, 1.0, np.eye(2))
        for Rbar in BAD_RBAR:
            with pytest.raises(ValueError):
                MultivariateTNoise(1.0, 1.0, Rbar)
        MultivariateTNoise(1.0, 1.0, SEMIDEFINITE_RBAR)

    @pytest.mark.parametrize("alpha, beta", [(np.inf, 1.0), (1.0, np.inf)])
    def test_rejects_what_the_mixing_rejects(self, alpha, beta):
        # The regime's alpha and beta are checked by InverseGammaMixing itself.
        with pytest.raises(ValueError, match="mixing parameters"):
            MultivariateTNoise(alpha, beta, np.eye(2))


def test_unknown_regime_rejected():
    with pytest.raises(TypeError):
        sample_noise(object(), RngStream(0))
