"""Robust baseline updates: per-component outlier rejection with noise
inflation, and a single-target probabilistic data association update."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kalman import kf_batch
from .specfun import reg_lower_inc_gamma
from .statespace import (
    Failure,
    GaussianBelief,
    finite_rows,
    mark_failed,
    matvec,
    rowdot,
    rowwise,
    symmetrize,
    update_one,
)


@dataclass
class KforConfig:
    """Residual threshold tau and assumed uniform-outlier half width w."""

    tau: float
    w: float

    def __post_init__(self):
        if self.tau <= 0.0 or self.w <= 0.0:
            raise ValueError("tau and w must be positive")


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
        if self.gate <= 0.0:
            raise ValueError("gate must be positive")
        if self.clutter_density < 0.0:
            raise ValueError("clutter_density must be nonnegative")
        if self.p_gate is not None and not 0.0 < self.p_gate <= 1.0:
            raise ValueError("p_gate must lie in (0, 1]")

    def gate_probability(self, meas_dim: int) -> float:
        if self.p_gate is not None:
            return self.p_gate
        # Chi-square CDF of the squared gate with meas_dim degrees of freedom.
        return reg_lower_inc_gamma(meas_dim / 2.0, self.gate**2 / 2.0)


def kfor_batch(mean, cov, z, H, R, config: KforConfig):
    """Kalman update of a stack of beliefs with per-component outlier detection.

    A component whose normalized residual exceeds tau gets its measurement
    noise inflated by the variance of a zero-mean uniform outlier of half
    width w (w^2 / 3); unflagged updates are plain Kalman updates.
    Returns (mean, cov, status, flags (N, m)).
    """
    H = np.asarray(H, dtype=float)
    R = np.asarray(R, dtype=float)
    residual = z - matvec(H, mean)
    S = symmetrize(H @ cov @ H.T + R)
    flags = np.abs(residual) / np.sqrt(np.diagonal(S, axis1=-2, axis2=-1)) > config.tau
    R_used = R + (config.w**2 / 3.0) * (flags[..., None] * np.eye(R.shape[-1]))
    mean, cov, status, _ = kf_batch(mean, cov, z, H, R_used)
    return mean, cov, status, flags


def kfor_update(prior: GaussianBelief, z, H, R, config: KforConfig):
    """Kalman update with per-component outlier detection (kfor_batch for
    one belief). Returns the posterior and the flagged components."""
    post, flags = update_one(kfor_batch, prior, z, H, R, config)
    return post, flags[0]


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
    spread-of-means term beta_1 * (1 - beta_1) * G v v' G'.
    Returns (mean, cov, status, gated (N,)).
    """
    H = np.asarray(H, dtype=float)
    R = np.asarray(R, dtype=float)
    m = H.shape[0]
    status = np.zeros(mean.shape[0], dtype=np.int8)
    hp = H @ cov
    S = symmetrize(hp @ H.T + R)
    chol, bad = rowwise(np.linalg.cholesky, S)
    mark_failed(status, bad, Failure.NOT_POSITIVE_DEFINITE)
    innovation = z - matvec(H, mean)
    # One solve gives S^-1 v and S^-1 H P.
    solved, bad = rowwise(np.linalg.solve, S, np.concatenate([innovation[..., None], hp], -1))
    mark_failed(status, bad, Failure.NOT_POSITIVE_DEFINITE)
    d2 = rowdot(innovation, solved[..., 0])
    gated = d2 > config.gate**2

    logdet = 2.0 * np.log(np.diagonal(chol, axis1=-2, axis2=-1)).sum(-1)
    likelihood = np.exp(-0.5 * d2 - 0.5 * (m * math.log(2.0 * math.pi) + logdet))
    weight_miss = config.clutter_density * (1.0 - config.p_detect * config.gate_probability(m))
    weight_hit = config.p_detect * likelihood
    total = weight_hit + weight_miss
    beta_1 = np.divide(weight_hit, total, out=np.ones_like(total), where=total != 0.0)
    beta_0 = 1.0 - beta_1

    gain = solved[..., 1:].swapaxes(-1, -2)
    gv = matvec(gain, innovation)
    post_mean = mean + beta_1[:, None] * gv
    p_update = (np.eye(cov.shape[-1]) - gain @ H) @ cov
    spread = (beta_1 * (1.0 - beta_1))[:, None, None] * (gv[:, :, None] * gv[:, None, :])
    post_cov = symmetrize(beta_0[:, None, None] * cov + beta_1[:, None, None] * p_update
                          + spread)
    mean = np.where(gated[:, None], mean, post_mean)
    cov = np.where(gated[:, None, None], cov, post_cov)
    mark_failed(status, ~(finite_rows(mean) & finite_rows(cov)), Failure.NON_FINITE)
    return mean, cov, status, gated


def pdaf_update(prior: GaussianBelief, z, H, R, config: PdafConfig) -> GaussianBelief:
    """Probabilistic data association update with one candidate measurement
    (pdaf_batch for one belief); a measurement outside the gate returns the
    prior unchanged."""
    return update_one(pdaf_batch, prior, z, H, R, config)[0]
