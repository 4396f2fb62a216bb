"""Property tests of the batched NVMF update over non-identity shape
matrices, M = 1 and 3, near-singular predicted covariances and residuals up
to 1e150 standard deviations. The oracle is the EM written out step by step:
a Kalman update in information form with noise covariance psi(zeta(x)) Rbar,
scored with the direct-form log_posterior. The covariance's oracle is the
paper's rank-one correction of that update's covariance at the final psi,
with u taken directly at the posterior mean."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from filterlab.nvmf import (
    InverseGammaMixing,
    NvmfConfig,
    covariance_correction,
    nvmf_batch,
    nvmf_update,
    phi,
    psi,
)
from filterlab.statespace import GaussianBelief, LinearModel, symmetrize

from oracles import kf_information_update, log_posterior, u_vector, zeta

EPSILON = 1e-12
CONFIG = NvmfConfig(epsilon=EPSILON, max_iterations=500)
ROWS = 3
EPS = np.finfo(float).eps


def oracle_em(prior: GaussianBelief, z, H, Rbar, mixing) -> np.ndarray:
    """MAP state by the plain EM recursion, with the kernel's stop rule."""
    x = prior.mean
    value = log_posterior(x, prior, z, H, Rbar, mixing)
    for _ in range(CONFIG.max_iterations):
        noise = psi(zeta(x, z, H, Rbar), mixing, len(z)) * Rbar
        x = kf_information_update(prior, z, H, noise)[0].mean
        previous, value = value, log_posterior(x, prior, z, H, Rbar, mixing)
        if value - previous < EPSILON:
            break
    return x


@st.composite
def problems(draw):
    """A model with random H and Rbar, a mixing, and ROWS predicted beliefs
    with measurements: cond(P) up to 1e10, residuals from 0.1 to 1e150
    times the larger of the predicted measurement spread and sqrt(beta)."""
    M = draw(st.sampled_from([1, 3]))
    n = draw(st.sampled_from([2, 4]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    B = rng.standard_normal((M, M))
    model = LinearModel(np.eye(n), np.zeros((n, n)), rng.standard_normal((M, n)),
                        B @ B.T + 0.1 * np.eye(M))
    mixing = InverseGammaMixing(draw(st.floats(0.5, 5.0)), 10.0 ** draw(st.floats(-2.0, 3.0)))
    chol = np.linalg.cholesky(model.Rbar)
    mean = rng.standard_normal((ROWS, n)) * 10.0
    cov = np.empty((ROWS, n, n))
    z = np.empty((ROWS, M))
    for i in range(ROWS):
        log_cond = draw(st.floats(0.0, 10.0))
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        spectrum = 10.0 ** (draw(st.floats(-2.0, 2.0)) - log_cond * np.linspace(0.0, 1.0, n))
        cov[i] = symmetrize((q * spectrum) @ q.T)
        spread = np.linalg.eigvalsh(model.H @ cov[i] @ model.H.T)[-1]
        sigma = np.sqrt(max(spread, mixing.beta))
        size = 10.0 ** draw(st.one_of(st.floats(-1.0, 3.0), st.floats(3.0, 150.0)))
        z[i] = model.H @ mean[i] + chol @ rng.standard_normal(M) * sigma * size
    return model, mixing, mean, cov, z


@settings(max_examples=200, deadline=None, derandomize=True)
@given(problems())
def test_nvmf_batch_matches_oracle_em(problem):
    model, mixing, mean, cov, z = problem
    post_mean, post_cov, status, diag = nvmf_batch(mean, cov, z, model, mixing, CONFIG)
    assert not status.any()
    for i in range(ROWS):
        prior = GaussianBelief(mean[i], cov[i])
        post, one = nvmf_update(prior, z[i], model, mixing, CONFIG)
        # a stacked row is its single call, bit for bit
        assert np.array_equal(post.mean, post_mean[i])
        assert np.array_equal(post.cov, post_cov[i])
        assert np.array_equal(one.log_posterior_trace, diag.row(i).log_posterior_trace)

        trace = one.log_posterior_trace
        assert np.all(np.diff(trace) >= -1e-12 * max(1.0, np.abs(trace).max()))
        value = log_posterior(post.mean, prior, z[i], model.H, model.Rbar, mixing)
        assert abs(trace[-1] - value) <= 1e-12 * max(1.0, abs(value))

        # The information form solves through P^-1, so the oracle itself is
        # only good to about cond(P) * eps (5.5e-9 at cond(P) = 1.9e8, against
        # the same EM run in 50-digit arithmetic).
        ref = oracle_em(prior, z[i], model.H, model.Rbar, mixing)
        rtol = 1e-8 + 100.0 * EPS * np.linalg.cond(cov[i])
        assert np.abs(post.mean - ref).max() <= rtol * np.abs(ref).max()

        # The covariance corrects the Kalman covariance at the final psi by
        # u at the posterior mean; a fallback row keeps the Kalman covariance.
        p_inf = kf_information_update(prior, z[i], model.H, one.final_psi * model.Rbar)[0].cov
        cov_ref = p_inf
        if not one.correction_fallback:
            phi_val = phi(zeta(post.mean, z[i], model.H, model.Rbar), mixing, len(z[i]))
            cov_ref = covariance_correction(
                p_inf, u_vector(post.mean, z[i], model.H, model.Rbar, phi_val))
        assert np.abs(post.cov - cov_ref).max() <= rtol * np.abs(cov_ref).max()
