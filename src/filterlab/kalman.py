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
    finite_rows,
    mark_failed,
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
    innovation: np.ndarray
    innovation_cov: np.ndarray
    gain: np.ndarray


def _innovation_cov(P: np.ndarray, H: np.ndarray, R: np.ndarray) -> np.ndarray:
    S = symmetrize(H @ P @ H.T + R)
    w = np.linalg.eigvalsh(S)
    if w[0] <= 0.0 or w[-1] / COND_LIMIT > w[0]:
        raise NumericalError(
            f"innovation covariance is singular or ill conditioned "
            f"(eigenvalue range [{w[0]:.3e}, {w[-1]:.3e}])"
        )
    return S


def kf_batch(mean, cov, z, H, R):
    """Covariance-form measurement update of a stack of beliefs.

    R is one (m, m) covariance or one per row. An innovation covariance
    that is not positive definite or worse conditioned than COND_LIMIT
    fails its row. Returns (mean, cov, status, UpdateDiagnostics of stacks).
    """
    H = np.asarray(H, dtype=float)
    R = np.asarray(R, dtype=float)
    status = np.zeros(mean.shape[0], dtype=np.int8)
    hp = H @ cov
    S = symmetrize(hp @ H.T + R)
    w, bad = rowwise(np.linalg.eigvalsh, S)
    mark_failed(status, bad, Failure.NON_FINITE)
    mark_failed(status, ~(w[:, 0] > 0.0) | (w[:, -1] / COND_LIMIT > w[:, 0]),
                Failure.ILL_CONDITIONED)
    gain_t, bad = rowwise(np.linalg.solve, S, hp)
    mark_failed(status, bad, Failure.ILL_CONDITIONED)
    gain = gain_t.swapaxes(-1, -2)
    innovation = z - matvec(H, mean)
    mean = mean + matvec(gain, innovation)
    cov = symmetrize((np.eye(cov.shape[-1]) - gain @ H) @ cov)
    mark_failed(status, ~(finite_rows(mean) & finite_rows(cov)), Failure.NON_FINITE)
    return mean, cov, status, UpdateDiagnostics(innovation, S, gain)


def kf_update(prior: GaussianBelief, z, H, R):
    """Measurement update in covariance form.

    Returns the posterior belief and the innovation/gain diagnostics. The
    gain solve goes through the innovation covariance after its eigenvalue
    check; the posterior covariance is re-symmetrized.
    """
    post, d = update_one(kf_batch, prior, z, H, R)
    return post, UpdateDiagnostics(d.innovation[0], d.innovation_cov[0], d.gain[0])


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
    S = _innovation_cov(P, H, R)
    n = P.shape[0]
    prior_info = solve_pd(P, np.eye(n))
    rinv_h = solve_pd(R, H)
    info = symmetrize(prior_info + H.T @ rinv_h)
    gain = solve_pd(info, rinv_h.T)
    innovation = z - H @ prior.mean
    mean = prior.mean + gain @ innovation
    cov = symmetrize(solve_pd(info, np.eye(n)))
    return GaussianBelief(mean, cov), UpdateDiagnostics(innovation, S, gain)


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
