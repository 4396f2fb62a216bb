"""Property tests of the batched PDAF update over random H, non-identity R,
and rows on both sides of the gate. The oracle is the PDAF written out from
kf_information_update: its Kalman posterior and innovation covariance, and
the association weights from scipy's Gaussian log density."""

import math

import numpy as np
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from filterlab.baselines import PdafConfig, pdaf_batch
from filterlab.kalman import kf_information_update
from filterlab.statespace import GaussianBelief, symmetrize

ROWS = 4
RTOL = 1e-10


def oracle_pdaf(prior: GaussianBelief, z, H, R, config: PdafConfig):
    """Posterior and gate decision of one PDAF update."""
    kalman, d = kf_information_update(prior, z, H, R)
    S, v = d.innovation_cov, d.innovation
    if v @ np.linalg.solve(S, v) > config.gate**2:
        return prior, True
    m = len(z)
    likelihood = math.exp(scipy.stats.multivariate_normal(np.zeros(m), S).logpdf(v))
    hit = config.p_detect * likelihood
    beta_1 = hit / (config.clutter_density * (1.0 - config.p_detect * config.gate_probability(m))
                    + hit)
    gv = kalman.mean - prior.mean
    cov = ((1.0 - beta_1) * prior.cov + beta_1 * kalman.cov
           + beta_1 * (1.0 - beta_1) * np.outer(gv, gv))
    return GaussianBelief(prior.mean + beta_1 * gv, cov), False


@st.composite
def problems(draw):
    """A random H (m x n) and R, a PDAF configuration, and ROWS predicted
    beliefs (cond(P) up to 1e3) with measurements whose Mahalanobis distance
    is half or one and a half times the gate, chosen per row."""
    n = draw(st.sampled_from([2, 4]))
    m = draw(st.integers(1, n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    H = rng.standard_normal((m, n))
    B = rng.standard_normal((m, m))
    R = 10.0 ** draw(st.floats(-1.0, 2.0)) * (B @ B.T + 0.5 * np.eye(m))
    config = PdafConfig(p_detect=draw(st.floats(0.5, 1.0)), gate=draw(st.floats(1.0, 5.0)),
                        clutter_density=10.0 ** draw(st.floats(-8.0, -1.0)))
    mean = rng.standard_normal((ROWS, n)) * 10.0
    cov = np.empty((ROWS, n, n))
    z = np.empty((ROWS, m))
    inside = np.array([draw(st.booleans()) for _ in range(ROWS)])
    for i in range(ROWS):
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        log_cond = draw(st.floats(0.0, 3.0))
        spectrum = 10.0 ** (draw(st.floats(-1.0, 3.0)) - log_cond * np.linspace(0.0, 1.0, n))
        cov[i] = symmetrize((q * spectrum) @ q.T)
        chol = np.linalg.cholesky(symmetrize(H @ cov[i] @ H.T + R))
        y = rng.standard_normal(m)
        distance = config.gate * (0.5 if inside[i] else 1.5)
        z[i] = H @ mean[i] + chol @ (y / np.linalg.norm(y)) * distance
    return H, R, config, mean, cov, z, ~inside


@settings(max_examples=200, deadline=None, derandomize=True)
@given(problems())
def test_pdaf_batch_matches_information_form_oracle(problem):
    H, R, config, mean, cov, z, outside = problem
    post_mean, post_cov, status, gated = pdaf_batch(mean, cov, z, H, R, config)
    assert not status.any()
    assert np.array_equal(gated, outside)
    for i in range(ROWS):
        post, gated_out = oracle_pdaf(GaussianBelief(mean[i], cov[i]), z[i], H, R, config)
        assert gated_out == gated[i]
        np.testing.assert_allclose(post_mean[i], post.mean, rtol=RTOL,
                                   atol=RTOL * np.abs(post.mean).max())
        np.testing.assert_allclose(post_cov[i], post.cov, rtol=RTOL,
                                   atol=RTOL * np.abs(post.cov).max())
