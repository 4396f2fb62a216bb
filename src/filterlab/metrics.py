"""Error, consistency, and divergence statistics for Monte Carlo runs."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .specfun import chi_square_quantile


@dataclass
class RunSummary:
    filters: tuple
    nrmse: dict
    anees: dict
    interval: tuple
    lost_tracks: dict
    n_trials: int
    n_eff: int
    kf_cov_trace: np.ndarray


def consistency_interval(N: int, L: int, s: float):
    """Two-sided acceptance interval for the average normalized error.

    N times the average is chi-square with N*L degrees of freedom for a
    consistent estimator; s is the excluded tail mass (s/2 per side), so the
    returned interval covers 1 - s of that distribution, scaled by 1/N.
    """
    if N * L < 1:
        raise ValueError("N * L must be at least 1")
    if not 0.0 < s < 1.0:
        raise ValueError(f"s must lie in (0, 1), got {s}")
    dof = N * L
    return (
        chi_square_quantile(dof, s / 2.0) / N,
        chi_square_quantile(dof, 1.0 - s / 2.0) / N,
    )


def detect_divergence(se, kf_envelope, k_star: int):
    """Per trial (row of se), whether the squared error exceeds the reference
    envelope at any position strictly after k_star; a 1-D se is one trial
    and gives one bool."""
    se = np.asarray(se, dtype=float)
    kf_envelope = np.asarray(kf_envelope, dtype=float)
    if kf_envelope.ndim != 1 or se.shape[-1:] != kf_envelope.shape:
        raise ValueError("sequences must have equal length")
    if not 0 <= k_star < kf_envelope.shape[0]:
        raise ValueError(f"k_star {k_star} out of range")
    out = np.any(se[..., k_star + 1:] > kf_envelope[k_star + 1:], axis=-1)
    return bool(out) if se.ndim == 1 else out
