"""How close NVMF's one-step posterior is to the Bayes posterior of its own
model, where it is near-exact.

The oracle (tests/oracles.exact_posterior) integrates the mixture of Kalman
posteriors over the noise scale r. The setup is the benchmark's CV model
with Rbar = I and the default mixing, a measurement z = H m + (s sqrt(r_bar), 0)
with r_bar = 100, and the gap is the Mahalanobis distance of NVMF's mean from
the exact mean under the exact covariance ("exact sd"). NVMF is near-exact
at the steady-state predicted covariance and for gross outliers; it
under-covers where P is large and the residual is a few innovation sd
(gap 0.94 and trace ratio 0.62 at P = 1000 I, s = 10), which is not pinned.
"""

import numpy as np
import pytest
import scipy.integrate
import scipy.special

from filterlab.harness import ScenarioConfig
from filterlab.kalman import kf_update
from filterlab.nvmf import InverseGammaMixing, NvmfConfig, nvmf_update
from filterlab.statespace import GaussianBelief, LinearModel, predict, two_point_init

from oracles import exact_posterior

CONFIG = ScenarioConfig()
MODEL = CONFIG.model()
MIXING = CONFIG.mixing()
SQRT_R_BAR = np.sqrt(CONFIG.r_bar)
MEAN = np.array([100.0, 100.0, 20.0, 10.0])


def steady_state_cov():
    """The predicted covariance of KF at R = r_bar I after 150 updates."""
    R = CONFIG.r_bar * np.eye(2)
    belief = two_point_init(np.zeros(2), np.zeros(2), CONFIG.T, R)
    for _ in range(150):
        belief = predict(belief, MODEL)
        belief, _ = kf_update(belief, MODEL.H @ belief.mean, MODEL.H, R)
    return predict(belief, MODEL).cov


def gap_and_trace_ratio(P, s):
    prior = GaussianBelief(MEAN, P)
    z = MODEL.H @ MEAN + np.array([s * SQRT_R_BAR, 0.0])
    exact = exact_posterior(prior, z, MODEL, MIXING)
    nvmf, _ = nvmf_update(prior, z, MODEL, MIXING, NvmfConfig())
    d = nvmf.mean - exact.mean
    return np.sqrt(d @ np.linalg.solve(exact.cov, d)), np.trace(nvmf.cov) / np.trace(exact.cov)


def test_oracle_matches_direct_quadrature_over_r():
    # The integral in the state and measurement: N(v; 0, H P H' + r Rbar)
    # IG(r) times each Kalman posterior's moments, by adaptive quadrature in r.
    model = LinearModel(F=np.eye(4), Q=np.eye(4), H=np.eye(2, 4),
                        Rbar=np.array([[2.0, 0.5], [0.5, 1.0]]))
    mixing = InverseGammaMixing(1.7, 40.0)
    P = np.array([[30.0, 4.0, 2.0, 0.0], [4.0, 20.0, 0.0, 1.0],
                  [2.0, 0.0, 5.0, 0.5], [0.0, 1.0, 0.5, 3.0]])
    prior = GaussianBelief(np.array([1.0, -2.0, 0.5, 0.1]), P)
    z = np.array([25.0, -11.0])
    v = z - model.H @ prior.mean

    def moments(r):
        S = model.H @ P @ model.H.T + r * model.Rbar
        gain = P @ model.H.T @ np.linalg.inv(S)
        mean = prior.mean + gain @ v
        cov = P - gain @ model.H @ P
        log_ig = (mixing.alpha * np.log(mixing.beta) - scipy.special.gammaln(mixing.alpha)
                  - (mixing.alpha + 1.0) * np.log(r) - mixing.beta / r)
        density = np.exp(log_ig - 0.5 * v @ np.linalg.solve(S, v)) / np.sqrt(np.linalg.det(S))
        return density * np.concatenate([[1.0], mean, (cov + np.outer(mean, mean)).ravel()])

    total, _ = scipy.integrate.quad_vec(moments, 0.0, np.inf, epsabs=0.0, epsrel=1e-12)
    mean = total[1:5] / total[0]
    cov = total[5:].reshape(4, 4) / total[0] - np.outer(mean, mean)
    exact = exact_posterior(prior, z, model, mixing)
    np.testing.assert_allclose(exact.mean, mean, rtol=1e-9, atol=1e-9)
    np.testing.assert_allclose(exact.cov, cov, rtol=1e-8, atol=1e-8)


def test_near_exact_at_steady_state():
    # Measured on a 301-point scan of s in [0, 1000]: largest gap 0.0083
    # (near s = 1), trace ratio 0.9962 (s = 0) to 1.0003.
    P = steady_state_cov()
    for s in np.concatenate([np.linspace(0.0, 10.0, 41), np.geomspace(10.0, 1000.0, 9)]):
        gap, ratio = gap_and_trace_ratio(P, s)
        assert gap <= 0.01
        assert abs(ratio - 1.0) <= 0.01


@pytest.mark.parametrize("scale", [None, 100.0, 1000.0, 1e4])
def test_near_exact_for_gross_outliers(scale):
    # Measured for s from 100 to 1000 (30 points): largest gap 4.4e-4, at
    # P = 1e4 I and s = 100.
    P = steady_state_cov() if scale is None else scale * np.eye(4)
    for s in np.geomspace(100.0, 1000.0, 7):
        gap, _ = gap_and_trace_ratio(P, s)
        assert gap < 1e-3
