"""Standard Kalman measurement update in covariance form, the one Kalman step
that the KF, KFOR and PDAF share, plus the posterior-information recursion
that the tests use as an independent oracle for the filter's covariance."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .statespace import (
    Failure,
    GaussianBelief,
    LinearModel,
    identity,
    lapack,
    mark_failed,
    mark_non_finite,
    rowwise,
    solve_pd,
    symmetrize,
    update_one,
)

# Innovation covariances worse conditioned than this are treated as singular
# rather than silently inverted.
COND_LIMIT = 1e12


@dataclass
class UpdateDiagnostics:
    """Innovation v, its covariance S, the gain, S^-1 v, and the ascending
    eigenvalues of S."""

    innovation: np.ndarray
    innovation_cov: np.ndarray
    gain: np.ndarray
    solved_innovation: np.ndarray
    innovation_eigvals: np.ndarray


@np.errstate(all="ignore")
def kf_batch(mean, cov, z, H, R):
    """Covariance-form measurement update of a stack of beliefs.

    R is one (m, m) covariance or one per row. An innovation covariance
    that is not positive definite or worse conditioned than COND_LIMIT
    fails its row. One solve through S gives the gain and S^-1 v, and the
    diagnostics carry the eigenvalues of the condition test, from which
    pdaf_batch takes log det S. Returns (mean, cov, status,
    UpdateDiagnostics of stacks).
    """
    return kalman_step(mean, cov, R, *innovation_terms(mean, cov, z, H))[:4]


def innovation_terms(mean, cov, z, H):
    """H as an array, then v = z - H x, H P and H P H' of a stack of
    beliefs: the part of kalman_step's input that does not depend on R."""
    H = np.asarray(H, dtype=float)
    hp = H @ cov
    return H, z - np.matvec(H, mean), hp, hp @ H.T


def kalman_step(mean, cov, R, H, innovation, hp, hph):
    """kf_batch from innovation_terms, which kfor_batch needs before it
    picks R. Returns kf_batch's (mean, cov, status, diagnostics) and G v,
    the correction the posterior mean adds, for pdaf_batch to reweight."""
    status = np.zeros(mean.shape[0], dtype=np.int8)
    S = symmetrize(hph + np.asarray(R, dtype=float))
    w = rowwise(status, Failure.NON_FINITE, lapack.eigvalsh_lo, S)
    mark_failed(status, ~(w[:, 0] > 0.0) | (w[:, -1] / COND_LIMIT > w[:, 0]),
                Failure.ILL_CONDITIONED)
    solved = rowwise(status, Failure.ILL_CONDITIONED, lapack.solve, S,
                     np.concatenate([hp, innovation[..., None]], -1))
    gain = solved[..., :-1].swapaxes(-1, -2)
    correction = np.matvec(gain, innovation)
    mean = mean + correction
    cov = symmetrize((identity(cov.shape[-1]) - gain @ H) @ cov)
    mark_non_finite(status, mean, cov)
    diagnostics = UpdateDiagnostics(innovation, S, gain, solved[..., -1], w)
    return mean, cov, status, diagnostics, correction


def kf_update(prior: GaussianBelief, z, H, R):
    """Measurement update in covariance form.

    Returns the posterior belief and the innovation/gain diagnostics. The
    gain solve goes through the innovation covariance after its eigenvalue
    check; the posterior covariance is re-symmetrized.
    """
    post, d = update_one(kf_batch, prior, z, H, R)
    return post, UpdateDiagnostics(*(field[0] for field in vars(d).values()))


def pcrlb_recursion(prior_info: np.ndarray, model: LinearModel, r: float) -> np.ndarray:
    """One predict-update step of the posterior Fisher information.

    The prediction propagates through the covariance domain,
    J -> (F J^-1 F' + Q)^-1, and the update adds (1/r) H' Rbar^-1 H. The
    inverse of the result is the matched Kalman filter's error covariance,
    so the tests check the error normalizer, the trace of the run's own KF
    rows' covariance, against it.
    """
    if not r > 0.0:
        raise ValueError(f"pcrlb_recursion requires r > 0, got {r}")
    n = prior_info.shape[0]
    cov = solve_pd(prior_info, np.eye(n))
    pred_cov = symmetrize(model.F @ cov @ model.F.T + model.Q)
    pred_info = solve_pd(pred_cov, np.eye(n))
    rbinv_h = solve_pd(model.Rbar, model.H)
    return symmetrize(pred_info + (model.H.T @ rbinv_h) / r)
