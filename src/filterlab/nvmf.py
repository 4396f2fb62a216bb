"""Measurement update for heavy-tailed noise via a normal variance mixture.

The measurement noise is modeled as Gaussian with covariance r * Rbar, where
the scale r is an unobserved inverse-gamma random variable. Treating r as
missing data, the state update becomes a short EM recursion in which every
maximization step is one standard Kalman update with an adapted noise
covariance psi * Rbar. After convergence, the reported error covariance is
the Kalman covariance of the final pass plus a rank-one term that accounts
for the information lost to the unobserved scale.

Because the inverse gamma family is conjugate for r, the per-iteration
quantities have closed forms:

    zeta = (1/2) (z - H x)' Rbar^-1 (z - H x)
    r | x, z  ~ InvGamma(M/2 + alpha, zeta + beta)
    psi  = (zeta + beta) / (M/2 + alpha)          # 1 / E[1/r]
    phi  = (zeta + beta) / sqrt(M/2 + alpha)      # 1 / sd[1/r]

Since psi is a scalar, every EM step's innovation covariance, whitened by
C = chol(Rbar), is C^-1 H P H' C^-T + psi I: the same eigenvectors at every
step, eigenvalues shifted by psi. The batched update therefore factors each
row once and runs the EM on elementwise arrays (see nvmf_batch).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError
from .kalman import COND_LIMIT
from .specfun import (
    RngStream,
    inv_reg_lower_inc_gamma,
    is_integer,
    sample_inverse_gamma,
)
from .statespace import (
    Failure,
    GaussianBelief,
    LinearModel,
    lapack,
    mark_failed,
    mark_non_finite,
    rowwise,
    symmetrize,
    update_one,
    whitener,
)

# Below this, the rank-one correction is considered degenerate and the update
# falls back to the uncorrected covariance (flagged in the diagnostics).
DENOMINATOR_FLOOR = 1e-10
_MONOTONICITY_TOL = 1e-9


@dataclass
class InverseGammaMixing:
    """Shape and scale of the inverse-gamma prior on the noise variance scale."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (0.0 < self.alpha < np.inf and 0.0 < self.beta < np.inf):
            raise ValueError("mixing parameters must be positive and finite")


@dataclass
class NvmfConfig:
    epsilon: float = 1e-6
    max_iterations: int = 25
    fixed_iteration_mode: bool = False

    def __post_init__(self):
        if not 0.0 < self.epsilon < np.inf:
            raise ValueError("epsilon must be positive and finite")
        if not is_integer(self.max_iterations) or self.max_iterations < 1:
            raise ValueError("max_iterations must be an integer of at least 1")
        if not isinstance(self.fixed_iteration_mode, (bool, np.bool_)):
            raise ValueError("fixed_iteration_mode must be a bool")


@dataclass
class NvmfDiagnostics:
    """What one update's EM and correction did. From nvmf_batch every field
    holds one entry per row, and log_posterior_trace is (N, max_iterations
    + 1), NaN past each row's last iteration."""

    iterations_used: int
    log_posterior_trace: np.ndarray
    final_psi: float
    final_phi: float
    correction_denominator: float
    correction_fallback: bool = field(default=False)

    def row(self, i: int) -> "NvmfDiagnostics":
        """The diagnostics of row i of a batched update."""
        iterations = int(self.iterations_used[i])
        return NvmfDiagnostics(
            iterations_used=iterations,
            log_posterior_trace=self.log_posterior_trace[i, :iterations + 1],
            final_psi=float(self.final_psi[i]),
            final_phi=float(self.final_phi[i]),
            correction_denominator=float(self.correction_denominator[i]),
            correction_fallback=bool(self.correction_fallback[i]),
        )


# The closed forms below take one value, or a stack with a leading batch
# axis (zeta_val (N,), P_inf (N, n, n), u (N, n)). nvmf_batch evaluates
# zeta, the log posterior and u in the whitened eigenbasis it factors once
# per row, and runs psi, phi and the correction's two halves on its stacks.
# The direct forms of zeta, the log posterior and u are the tests' reference
# (tests/oracles.py).

def psi(zeta_val, mixing: InverseGammaMixing, M: int):
    """Conditional noise-variance estimate 1 / E[1/r | x, z]."""
    return (zeta_val + mixing.beta) / (M / 2.0 + mixing.alpha)


def phi(zeta_val, mixing: InverseGammaMixing, M: int):
    """Conditional noise-variance spread 1 / sd[1/r | x, z]."""
    return (zeta_val + mixing.beta) / math.sqrt(M / 2.0 + mixing.alpha)


def posterior_r_params(zeta_val: float, mixing: InverseGammaMixing, M: int) -> InverseGammaMixing:
    """Conjugate posterior of the variance scale given the current residual."""
    return InverseGammaMixing(M / 2.0 + mixing.alpha, zeta_val + mixing.beta)


def covariance_correction(P_inf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Rank-one inflation of the converged Kalman covariance.

    Sherman-Morrison form of inverting P_inf^-1 - u u'; requires the
    denominator 1 - u' P_inf u to be positive, otherwise the corrected
    information matrix would not be positive definite.
    """
    P_inf = np.asarray(P_inf, dtype=float)
    pu, denom = _correction_denominator(P_inf, np.asarray(u, dtype=float))
    if not np.all(denom > 0.0):
        raise NumericalError(f"covariance correction denominator {float(np.min(denom)):.6g} "
                             "is not positive")
    return _corrected(P_inf, pu, denom)


def _correction_denominator(P_inf, u):
    pu = np.matvec(P_inf, u)
    return pu, 1.0 - np.vecdot(u, pu)


def _corrected(P_inf, pu, denom):
    return symmetrize(P_inf + pu[..., :, None] * pu[..., None, :] / denom[..., None, None])


@np.errstate(all="ignore")
def nvmf_batch(mean, cov, z, model: LinearModel, mixing: InverseGammaMixing,
               config: NvmfConfig):
    """Measurement update of a stack of predicted beliefs: EM to each row's
    MAP state, then the covariance correction.

    Each row's EM sequence starts at its predicted mean. Every iteration
    re-solves the Kalman update from the same predicted belief with noise
    covariance psi(x_i) * Rbar and tracks the log posterior; a row stops
    when its increase falls below epsilon (never, in fixed-iteration mode)
    or at max_iterations. A decrease beyond tolerance fails the row, since
    the recursion guarantees monotonicity.

    With C = chol(Rbar) and C^-1 H P H' C^-T = U diag(lam) U', the update at
    psi is x_pred + B w with B = P H' C^-T U, w = nu / (lam + psi) and
    nu = U' C^-1 (z - H x_pred). Its whitened residual is U (psi w), so
    zeta = |psi w|^2 / 2, and its prior quadratic form is sum(lam w^2). One
    eigendecomposition per row thus makes every iteration elementwise, and
    each row keeps its own stopping point through the active mask. The last
    pass runs every row at its final psi, so its w and zeta give the final
    state; the Kalman covariance there is P_inf = P - B diag(1/(lam + psi)) B',
    and u = -(C^-1 H)' U (psi w) / phi.

    A row fails at the first check it fails: a Cholesky factor of P
    (NOT_POSITIVE_DEFINITE), a finite z and eigendecomposition (NON_FINITE);
    at each EM step, lam + psi > 0 (NOT_POSITIVE_DEFINITE), a finite log
    posterior (NON_FINITE) and no decrease beyond tolerance
    (EM_NOT_MONOTONE); then (lam_max + psi) / psi at the final psi within
    kalman.COND_LIMIT (ILL_CONDITIONED), since the covariance form loses
    about eps times that ratio of a measured variance, and for a PSD P the
    ratio bounds the whitened innovation covariance's condition number,
    KF's test; last, a finite output (NON_FINITE).

    Returns (mean, cov, status, NvmfDiagnostics of per-row arrays).
    """
    H = model.H
    c_inv, wh = model.whitened
    N = mean.shape[0]
    m = H.shape[0]
    status = np.zeros(N, dtype=np.int8)

    # P's Cholesky factor is needed only as the check that P is positive definite.
    rowwise(status, Failure.NOT_POSITIVE_DEFINITE, lapack.cholesky_lo, cov)
    mark_non_finite(status, z)
    whp = wh @ cov
    lam, U = rowwise(status, Failure.NON_FINITE, lapack.eigh_lo, whp @ wh.T)
    basis = whp.swapaxes(-1, -2) @ U
    nu = np.matvec(U.swapaxes(-1, -2), np.matvec(c_inv, z - np.matvec(H, mean)))
    # Every lam_i + psi is positive exactly when the smallest is, and a sum
    # of two doubles is positive exactly when psi > -lam_min; min propagates
    # a NaN eigenvalue, which no shift makes positive.
    psi_floor = -lam.min(axis=1)

    shape = m / 2.0 + mixing.alpha
    zeta_x = 0.5 * np.vecdot(nu, nu)
    trace = np.empty((N, config.max_iterations + 1))
    log_post = -shape * np.log1p(zeta_x / mixing.beta)
    trace[:, 0] = log_post
    iterations = np.zeros(N, dtype=np.int64)
    psi_x = psi(zeta_x, mixing, m)
    active = status == 0
    for it in range(1, config.max_iterations + 1):
        psi_col = psi_x[:, None]
        shifted = lam + psi_col
        w = nu / shifted
        psi_w = psi_col * w
        zeta_x = 0.5 * np.vecdot(psi_w, psi_w)
        prev = log_post
        log_post = -0.5 * np.vecdot(lam * w, w) - shape * np.log1p(zeta_x / mixing.beta)
        delta = log_post - prev
        trace[:, it] = log_post
        iterations = iterations + active

        ok = (psi_x > psi_floor) & (delta >= -_MONOTONICITY_TOL)
        if np.count_nonzero(ok) < N:   # a row failed a check; it fails if active
            failed = active & ~ok
            mark_failed(status, failed & ~(psi_x > psi_floor), Failure.NOT_POSITIVE_DEFINITE)
            mark_failed(status, failed & ~np.isfinite(log_post), Failure.NON_FINITE)
            mark_failed(status, failed, Failure.EM_NOT_MONOTONE)
            active = active & ~failed
        if not config.fixed_iteration_mode:
            active = active & (delta >= config.epsilon)
        n_active = np.count_nonzero(active)
        if not n_active or it == config.max_iterations:
            break
        psi_next = psi(zeta_x, mixing, m)
        psi_x = psi_next if n_active == N else np.where(active, psi_next, psi_x)

    # Each row's trace ends at its last iteration; its last pass ran at its
    # final psi, so w, psi_w, zeta_x and shifted = lam + psi are final.
    mark_failed(status, shifted[:, -1] / COND_LIMIT > psi_x, Failure.ILL_CONDITIONED)
    trace[np.arange(config.max_iterations + 1) > iterations[:, None]] = np.nan
    x_out = mean + np.matvec(basis, w)
    p_inf = symmetrize(cov - (basis / shifted[:, None, :]) @ basis.swapaxes(-1, -2))
    phi_val = phi(zeta_x, mixing, m)
    u = -np.matvec(wh.T, np.matvec(U, psi_w)) / phi_val[:, None]
    pu, denom = _correction_denominator(p_inf, u)
    fallback = denom <= DENOMINATOR_FLOOR
    # A zero pu over a unit denominator returns p_inf itself for fallback rows.
    skip = fallback | (status != 0)
    denom_used = denom
    if np.count_nonzero(skip):
        pu, denom_used = np.where(skip[:, None], 0.0, pu), np.where(skip, 1.0, denom)
    cov_out = _corrected(p_inf, pu, denom_used)
    mark_non_finite(status, x_out, cov_out)

    diagnostics = NvmfDiagnostics(
        iterations_used=iterations,
        log_posterior_trace=trace,
        final_psi=psi_x,
        final_phi=phi_val,
        correction_denominator=denom,
        correction_fallback=fallback,
    )
    return x_out, cov_out, status, diagnostics


def nvmf_update(prior: GaussianBelief, z, model: LinearModel, mixing: InverseGammaMixing,
                config: NvmfConfig):
    """One measurement update: EM to the MAP state, then covariance correction
    (nvmf_batch for one belief). Raises NumericalError when the update fails."""
    post, diagnostics = update_one(nvmf_batch, prior, z, model, mixing, config)
    return post, diagnostics.row(0)


def nvm_t_log_density(v, mixing: InverseGammaMixing, Rbar) -> float:
    """Log density of the mixture noise in its closed multivariate-t form.

    With shape alpha and scale beta the mixture is the central t with
    nu = 2 alpha degrees of freedom and matrix Sigma = (beta/alpha) Rbar.
    """
    v = np.asarray(v, dtype=float)
    m = v.shape[0]
    nu = 2.0 * mixing.alpha
    scale = mixing.beta / mixing.alpha
    c_inv = whitener(Rbar, v)
    w = c_inv @ v
    quad = float(w @ w) / scale
    # log det Sigma = m log(scale) + log det Rbar, and det C^-1 = det Rbar^(-1/2).
    logdet = m * math.log(scale) - 2.0 * float(np.sum(np.log(np.diag(c_inv))))
    return (
        math.lgamma((nu + m) / 2.0)
        - math.lgamma(nu / 2.0)
        - 0.5 * m * math.log(math.pi * nu)
        - 0.5 * logdet
        - 0.5 * (nu + m) * math.log1p(quad / nu)
    )


def _expected_inverse_psi(alpha: float, beta: float, M: int, n_samples: int,
                          rng: RngStream) -> float:
    # E_v[1/psi(v)] with v drawn from the mixture: r ~ InvGamma(alpha, beta),
    # v = sqrt(r) chol(Rbar) y with y standard normal, so zeta(v) = r |y|^2 / 2
    # whatever Rbar is.
    r = sample_inverse_gamma(alpha, beta, rng, size=n_samples)
    y = rng.standard_normal((n_samples, M))
    zeta_s = 0.5 * r * np.vecdot(y, y)
    return float(np.mean((M / 2.0 + alpha) / (zeta_s + beta)))


def calibrate_mixing(r_out: float, rho: float, r_regular: float, M: int,
                     alpha_grid=None, n_samples: int = 100_000,
                     rng: RngStream | None = None):
    """Pick mixing parameters from the design pair (r_out, rho).

    r_out is the largest variance scale considered regular and rho the prior
    probability of exceeding it, so beta(alpha) solves the tail equation
    through the inverse regularized incomplete gamma. The shape alpha is then
    chosen so the expected complete-data information matches that of a
    matched fixed-variance filter: the sampled expectation of 1/psi(v) under
    the M-dimensional mixture noise must equal 1/r_regular. zeta(v) does not
    depend on the shape matrix Rbar there, so neither does the calibration.
    The grid scan is followed by one bisection pass between the bracketing
    neighbors of the best point.

    Returns the chosen mixing and the absolute residual of the matching
    equation at that point.
    """
    if not (0.0 < r_out < math.inf and 0.0 < r_regular < math.inf):
        raise ValueError("r_out and r_regular must be positive and finite")
    if not 0.0 < rho < 1.0:
        raise ValueError(f"rho must lie in (0, 1), got {rho}")
    if not is_integer(n_samples) or n_samples < 10_000:
        raise ValueError(f"n_samples must be an integer of at least 10000, got {n_samples!r}")
    if not is_integer(M) or M < 1:
        raise ValueError(f"M must be a positive integer, got {M!r}")
    if alpha_grid is None:
        alpha_grid = np.arange(0.5, 5.0001, 0.01)
    alpha_grid = np.asarray(alpha_grid, dtype=float)
    if alpha_grid.size == 0:
        raise ValueError("alpha_grid must be nonempty")
    if rng is None:
        rng = RngStream(0)

    target = 1.0 / r_regular

    def evaluate(alpha):
        beta = r_out * inv_reg_lower_inc_gamma(alpha, rho)
        signed = _expected_inverse_psi(alpha, beta, M, n_samples, rng) - target
        return signed, beta

    signed_residuals = np.empty(alpha_grid.size)
    betas = np.empty(alpha_grid.size)
    for i, alpha in enumerate(alpha_grid):
        signed_residuals[i], betas[i] = evaluate(alpha)
    finite = np.isfinite(signed_residuals)
    if not np.any(finite):
        raise NumericalError("all calibration residuals were non-finite")

    abs_res = np.where(finite, np.abs(signed_residuals), np.inf)
    best = int(np.argmin(abs_res))
    best_alpha = float(alpha_grid[best])
    best_beta = float(betas[best])
    best_abs = float(abs_res[best])

    # Refine between the sign-change neighbors of the grid minimum, keeping
    # the best point seen anywhere.
    lo = hi = None
    for j in (best - 1, best):
        if 0 <= j and j + 1 < alpha_grid.size and finite[j] and finite[j + 1]:
            if signed_residuals[j] * signed_residuals[j + 1] < 0.0:
                lo, f_lo = float(alpha_grid[j]), signed_residuals[j]
                hi = float(alpha_grid[j + 1])
                break
    if lo is not None:
        for _ in range(12):
            mid = 0.5 * (lo + hi)
            f_mid, beta_mid = evaluate(mid)
            if not math.isfinite(f_mid):
                break
            if abs(f_mid) < best_abs:
                best_alpha, best_beta, best_abs = mid, beta_mid, abs(f_mid)
            if f_lo * f_mid <= 0.0:
                hi = mid
            else:
                lo, f_lo = mid, f_mid

    return InverseGammaMixing(best_alpha, best_beta), best_abs
