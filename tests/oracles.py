"""Reference code that the tests check the library's kernels against: the
Kalman measurement update in information form, which solves through the
posterior information matrix P^-1 + H' R^-1 H rather than through the
innovation covariance the library's kalman_step uses."""

import numpy as np

from filterlab.errors import NumericalError
from filterlab.kalman import COND_LIMIT, UpdateDiagnostics
from filterlab.statespace import GaussianBelief, solve_pd, symmetrize


def _innovation_cov(P: np.ndarray, H: np.ndarray, R: np.ndarray):
    S = symmetrize(H @ P @ H.T + R)
    w = np.linalg.eigvalsh(S)
    if w[0] <= 0.0 or w[-1] / COND_LIMIT > w[0]:
        raise NumericalError(
            f"innovation covariance is singular or ill conditioned "
            f"(eigenvalue range [{w[0]:.3e}, {w[-1]:.3e}])"
        )
    return S, w


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
