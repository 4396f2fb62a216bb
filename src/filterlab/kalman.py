"""Standard Kalman measurement update, in covariance and information forms,
plus the posterior-information recursion used to normalize benchmark errors."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .statespace import (
    Failure,
    GaussianBelief,
    LinearModel,
    identity,
    mark_failed,
    mark_non_finite,
    matvec,
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
    """Innovation v, its covariance S, the gain, S^-1 v, and log det S."""

    innovation: np.ndarray
    innovation_cov: np.ndarray
    gain: np.ndarray
    solved_innovation: np.ndarray
    innovation_log_det: np.ndarray


def _innovation_cov(P: np.ndarray, H: np.ndarray, R: np.ndarray):
    S = symmetrize(H @ P @ H.T + R)
    w = np.linalg.eigvalsh(S)
    if w[0] <= 0.0 or w[-1] / COND_LIMIT > w[0]:
        raise NumericalError(
            f"innovation covariance is singular or ill conditioned "
            f"(eigenvalue range [{w[0]:.3e}, {w[-1]:.3e}])"
        )
    return S, w


def kf_batch(mean, cov, z, H, R):
    """Covariance-form measurement update of a stack of beliefs.

    R is one (m, m) covariance or one per row. An innovation covariance
    that is not positive definite or worse conditioned than COND_LIMIT
    fails its row. One solve through S gives the gain and S^-1 v, and the
    eigenvalues of the condition test give log det S (NaN on a row whose S
    is not positive definite). Returns (mean, cov, status,
    UpdateDiagnostics of stacks).
    """
    return kalman_step(mean, cov, R, *innovation_terms(mean, cov, z, H))[:4]


def innovation_terms(mean, cov, z, H):
    """H as an array, then v = z - H x, H P and H P H' of a stack of
    beliefs: the part of kalman_step's input that does not depend on R."""
    H = np.asarray(H, dtype=float)
    hp = H @ cov
    return H, z - matvec(H, mean), hp, hp @ H.T


def kalman_step(mean, cov, R, H, innovation, hp, hph):
    """kf_batch from innovation_terms, which kfor_batch needs before it
    picks R. Returns kf_batch's (mean, cov, status, diagnostics) and G v,
    the correction the posterior mean adds, for pdaf_batch to reweight."""
    status = np.zeros(mean.shape[0], dtype=np.int8)
    S = symmetrize(hph + np.asarray(R, dtype=float))
    w, bad = rowwise(np.linalg.eigvalsh, S)
    mark_failed(status, bad, Failure.NON_FINITE)
    mark_failed(status, ~(w[:, 0] > 0.0) | (w[:, -1] / COND_LIMIT > w[:, 0]),
                Failure.ILL_CONDITIONED)
    log_det = np.log(np.where(w > 0.0, w, np.nan)).sum(-1)
    solved, bad = rowwise(np.linalg.solve, S, np.concatenate([hp, innovation[..., None]], -1))
    mark_failed(status, bad, Failure.ILL_CONDITIONED)
    gain = solved[..., :-1].swapaxes(-1, -2)
    correction = matvec(gain, innovation)
    mean = mean + correction
    cov = symmetrize((identity(cov.shape[-1]) - gain @ H) @ cov)
    mark_non_finite(status, mean, cov)
    diagnostics = UpdateDiagnostics(innovation, S, gain, solved[..., -1], log_det)
    return mean, cov, status, diagnostics, correction


def kf_update(prior: GaussianBelief, z, H, R):
    """Measurement update in covariance form.

    Returns the posterior belief and the innovation/gain diagnostics. The
    gain solve goes through the innovation covariance after its eigenvalue
    check; the posterior covariance is re-symmetrized.
    """
    post, d = update_one(kf_batch, prior, z, H, R)
    return post, UpdateDiagnostics(*(field[0] for field in vars(d).values()))


def kf_information_update(prior: GaussianBelief, z, H, R):
    """Measurement update through the information matrix.

    Posterior information is P^-1 + H' R^-1 H; the gain and mean are solved
    through that matrix instead of the innovation covariance. Agrees with
    kf_update on well-conditioned inputs.
    """
    z = np.asarray(z, dtype=float)
    H = np.asarray(H, dtype=float)
    R = np.asarray(R, dtype=float)
    P = prior.cov
    S, w = _innovation_cov(P, H, R)
    n = P.shape[0]
    prior_info = solve_pd(P, np.eye(n))
    rinv_h = solve_pd(R, H)
    info = symmetrize(prior_info + H.T @ rinv_h)
    gain = solve_pd(info, rinv_h.T)
    innovation = z - H @ prior.mean
    mean = prior.mean + gain @ innovation
    cov = symmetrize(solve_pd(info, np.eye(n)))
    diagnostics = UpdateDiagnostics(innovation, S, gain, solve_pd(S, innovation),
                                    np.log(w).sum())
    return GaussianBelief(mean, cov), diagnostics


def pcrlb_recursion(prior_info: np.ndarray, model: LinearModel, r: float) -> np.ndarray:
    """One predict-update step of the posterior Fisher information.

    The prediction propagates through the covariance domain,
    J -> (F J^-1 F' + Q)^-1, and the update adds (1/r) H' Rbar^-1 H. The
    inverse of the result is the matched Kalman filter's error covariance
    and the lower bound used as the error normalizer.
    """
    if not r > 0.0:
        raise ValueError(f"pcrlb_recursion requires r > 0, got {r}")
    n = prior_info.shape[0]
    cov = solve_pd(prior_info, np.eye(n))
    pred_cov = symmetrize(model.F @ cov @ model.F.T + model.Q)
    pred_info = solve_pd(pred_cov, np.eye(n))
    rbinv_h = solve_pd(model.Rbar, model.H)
    return symmetrize(pred_info + (model.H.T @ rbinv_h) / r)
