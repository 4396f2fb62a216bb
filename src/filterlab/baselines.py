"""Robust baseline updates: per-component outlier rejection with noise
inflation, and a single-target probabilistic data association update."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .kalman import innovation_terms, kalman_step
from .specfun import reg_lower_inc_gamma
from .statespace import (
    GaussianBelief,
    identity,
    mark_non_finite,
    symmetrize,
    update_one,
)


@dataclass
class KforConfig:
    """Residual threshold tau and assumed uniform-outlier half width w."""

    tau: float
    w: float

    def __post_init__(self):
        if not (0.0 < self.tau < math.inf and 0.0 < self.w < math.inf):
            raise ValueError("tau and w must be positive and finite")


@dataclass
class PdafConfig:
    """Detection probability, gating threshold g, clutter density per unit
    measurement volume, and the in-gate probability (derived from g and the
    measurement dimension when not given explicitly)."""

    p_detect: float
    gate: float
    clutter_density: float
    p_gate: float | None = None

    def __post_init__(self):
        if not 0.0 < self.p_detect <= 1.0:
            raise ValueError("p_detect must lie in (0, 1]")
        if not 0.0 < self.gate < math.inf:
            raise ValueError("gate must be positive and finite")
        if not 0.0 <= self.clutter_density < math.inf:
            raise ValueError("clutter_density must be nonnegative and finite")
        if self.p_gate is not None and not 0.0 < self.p_gate <= 1.0:
            raise ValueError("p_gate must lie in (0, 1]")

    def gate_probability(self, meas_dim: int) -> float:
        if self.p_gate is not None:
            return self.p_gate
        return _chi_square_cdf(meas_dim, self.gate**2)


@lru_cache(maxsize=64)
def _chi_square_cdf(dof: int, x: float) -> float:
    """Chi-square CDF at x with dof degrees of freedom. Cached, since every
    PDAF update of a run asks for the same in-gate probability."""
    return reg_lower_inc_gamma(dof / 2.0, x / 2.0)


@np.errstate(all="ignore")
def kfor_batch(mean, cov, z, H, R, config: KforConfig):
    """Kalman update of a stack of beliefs with per-component outlier detection.

    A component whose normalized residual exceeds tau gets its measurement
    noise inflated by the variance of a zero-mean uniform outlier of half
    width w (w^2 / 3); unflagged updates are plain Kalman updates.
    Returns (mean, cov, status, flags (N, m)).
    """
    H, residual, hp, hph = innovation_terms(mean, cov, z, H)
    R_used, flags = _kfor_noise(hph, residual, R, config)
    mean, cov, status, _, _ = kalman_step(mean, cov, R_used, H, residual, hp, hph)
    return mean, cov, status, flags


def _kfor_noise(hph, residual, R, config: KforConfig):
    """KFOR's per-row measurement noise from innovation_terms' H P H' and
    residual: R with each flagged component inflated by w^2 / 3. Returns
    (R_used (N, m, m), flags (N, m))."""
    R = np.asarray(R, dtype=float)
    S_diag = np.diagonal(hph + R, axis1=-2, axis2=-1)
    # A non-positive variance gives NaN (no flag, no warning); kalman_step fails the row.
    flags = np.abs(residual) / np.sqrt(np.where(S_diag > 0.0, S_diag, np.nan)) > config.tau
    return R + (config.w**2 / 3.0) * (flags[..., None] * identity(R.shape[-1])), flags


def kfor_update(prior: GaussianBelief, z, H, R, config: KforConfig):
    """Kalman update with per-component outlier detection (kfor_batch for
    one belief). Returns the posterior and the flagged components."""
    post, flags = update_one(kfor_batch, prior, z, H, R, config)
    return post, flags[0]


@np.errstate(all="ignore")
def pdaf_batch(mean, cov, z, H, R, config: PdafConfig):
    """Probabilistic data association update of a stack of beliefs, one
    candidate measurement each.

    A measurement is validated when its squared Mahalanobis innovation is
    within the squared gate; otherwise the row keeps its prior unchanged.
    For a validated measurement the association weights follow the
    parametric clutter model with density lambda_c:

        beta_1 = P_D * L / (lambda_c * (1 - P_D * P_G) + P_D * L)
        beta_0 = 1 - beta_1

    where L is the Gaussian likelihood of the innovation. The combined
    posterior covariance is beta_0 * P_prior + beta_1 * P_kalman plus the
    spread-of-means term beta_1 * (1 - beta_1) * G v v' G'. The Kalman
    posterior, gain G, S^-1 v and the eigenvalues of S (which give log det S)
    are kf_batch's, so a row fails on the same innovation covariances as there.
    Returns (mean, cov, status, gated (N,)).
    """
    _, kf_cov, status, d, gv = kalman_step(mean, cov, R, *innovation_terms(mean, cov, z, H))
    return _pdaf_reweight(mean, cov, kf_cov, status, d, gv, config)


def _pdaf_reweight(mean, cov, kf_cov, status, d, gv, config: PdafConfig):
    """pdaf_batch from kalman_step's covariance, status, diagnostics and G v
    over the same prior rows. Marks non-finite posteriors in status in
    place. Returns (mean, cov, status, gated)."""
    m = d.innovation.shape[-1]
    d2 = np.vecdot(d.innovation, d.solved_innovation)
    gated = d2 > config.gate**2

    # NaN on a row whose S is not positive definite; kalman_step failed it.
    w = d.innovation_eigvals
    log_det = np.log(np.where(w > 0.0, w, np.nan)).sum(-1)
    likelihood = np.exp(-0.5 * d2 - 0.5 * (m * math.log(2.0 * math.pi) + log_det))
    weight_miss = config.clutter_density * (1.0 - config.p_detect * config.gate_probability(m))
    weight_hit = config.p_detect * likelihood
    total = weight_hit + weight_miss
    beta_1 = np.divide(weight_hit, total, out=np.ones_like(total), where=total != 0.0)
    beta_0 = 1.0 - beta_1

    post_mean = mean + beta_1[:, None] * gv
    spread = (beta_1 * beta_0)[:, None, None] * (gv[:, :, None] * gv[:, None, :])
    post_cov = symmetrize(beta_0[:, None, None] * cov + beta_1[:, None, None] * kf_cov + spread)
    if np.count_nonzero(gated):
        post_mean = np.where(gated[:, None], mean, post_mean)
        post_cov = np.where(gated[:, None, None], cov, post_cov)
    mark_non_finite(status, post_mean, post_cov)
    return post_mean, post_cov, status, gated


def pdaf_update(prior: GaussianBelief, z, H, R, config: PdafConfig) -> GaussianBelief:
    """Probabilistic data association update with one candidate measurement
    (pdaf_batch for one belief); a measurement outside the gate returns the
    prior unchanged."""
    return update_one(pdaf_batch, prior, z, H, R, config)[0]
