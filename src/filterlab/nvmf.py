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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CalibrationError, CovarianceCorrectionError
from .specfun import RngStream, inv_reg_lower_inc_gamma, log_gamma, sample_inverse_gamma
from .statespace import (
    Failure,
    GaussianBelief,
    LinearModel,
    cholesky_pd,
    finite_rows,
    mark_failed,
    matvec,
    rowdot,
    rowwise,
    solve_pd,
    symmetrize,
    update_one,
)

# Below this, the rank-one correction is considered degenerate and the update
# falls back to the uncorrected covariance (flagged in the diagnostics).
DENOMINATOR_FLOOR = 1e-10
_MONOTONICITY_TOL = 1e-9
# The Sherman-Morrison identity audit is only meaningful away from the
# degenerate region; below this denominator it is skipped.
_AUDIT_DENOM_MIN = 1e-6
_AUDIT_TOL = 1e-6


@dataclass
class InverseGammaMixing:
    """Shape and scale of the inverse-gamma prior on the noise variance scale."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (self.alpha > 0.0 and self.beta > 0.0):
            raise ValueError("mixing parameters must be positive")


@dataclass
class NvmfConfig:
    epsilon: float = 1e-6
    max_iterations: int = 25
    fixed_iteration_mode: bool = False

    def __post_init__(self):
        if not self.epsilon > 0.0:
            raise ValueError("epsilon must be positive")
        if not isinstance(self.max_iterations, (int, np.integer)) or self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


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


# The closed forms below take one state, or a stack with a leading batch
# axis (x (N, n), z (N, m), zeta_val (N,), P_inf (N, n, n), u (N, n)).
# zeta and u_vector are thin wrappers that invert the shape matrix; the
# update kernel inverts it once and calls _zeta and _u_vector directly.

def zeta(x, z, H, Rbar):
    """Half squared Mahalanobis distance of the residual under the shape matrix."""
    return _zeta(x, z, H, np.linalg.inv(np.asarray(Rbar, dtype=float)))


def _zeta(x, z, H, rb_inv):
    resid = np.asarray(z, dtype=float) - matvec(np.asarray(H, dtype=float),
                                                np.asarray(x, dtype=float))
    return 0.5 * rowdot(resid, matvec(rb_inv, resid))


def psi(zeta_val, mixing: InverseGammaMixing, M: int):
    """Conditional noise-variance estimate 1 / E[1/r | x, z]."""
    return (zeta_val + mixing.beta) / (M / 2.0 + mixing.alpha)


def phi(zeta_val, mixing: InverseGammaMixing, M: int):
    """Conditional noise-variance spread 1 / sd[1/r | x, z]."""
    return (zeta_val + mixing.beta) / math.sqrt(M / 2.0 + mixing.alpha)


def posterior_r_params(zeta_val: float, mixing: InverseGammaMixing, M: int) -> InverseGammaMixing:
    """Conjugate posterior of the variance scale given the current residual."""
    return InverseGammaMixing(M / 2.0 + mixing.alpha, zeta_val + mixing.beta)


def log_posterior(x, prior: GaussianBelief, z, H, Rbar, mixing: InverseGammaMixing) -> float:
    """Log posterior of the state (up to x-independent constants):

        -(1/2)(x - x_pred)' P_pred^-1 (x - x_pred)
        - (M/2 + alpha) log(1 + zeta / beta)
    """
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    l_inv = np.linalg.inv(cholesky_pd(prior.cov, x - prior.mean))
    return float(_log_post(prior.mean, l_inv, x, zeta(x, z, H, Rbar), mixing, len(z)))


def _log_post(x_pred, l_inv, x, zeta_x, mixing: InverseGammaMixing, M: int):
    # l_inv is the inverse Cholesky factor of the predicted covariance, so
    # |l_inv (x - x_pred)|^2 is the prior quadratic form.
    w = matvec(l_inv, x - x_pred)
    return -0.5 * rowdot(w, w) - (M / 2.0 + mixing.alpha) * np.log1p(zeta_x / mixing.beta)


def u_vector(x_hat, z, H, Rbar, phi_val):
    """Scaled residual gradient H' (phi Rbar)^-1 (H x - z) used by the correction."""
    phi_val = np.asarray(phi_val, dtype=float)
    if np.any(phi_val <= 0.0):
        raise ValueError(f"u_vector requires phi_val > 0, got {phi_val}")
    return _u_vector(x_hat, z, H, np.linalg.inv(np.asarray(Rbar, dtype=float)), phi_val)


def _u_vector(x_hat, z, H, rb_inv, phi_val):
    # phi_val > 0 always holds for zeta >= 0 and beta > 0.
    H = np.asarray(H, dtype=float)
    resid = matvec(H, np.asarray(x_hat, dtype=float)) - np.asarray(z, dtype=float)
    return matvec(H.T, matvec(rb_inv, resid)) / phi_val[..., None]


def covariance_correction(P_inf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Rank-one inflation of the converged Kalman covariance.

    Sherman-Morrison form of inverting P_inf^-1 - u u'; requires the
    denominator 1 - u' P_inf u to be positive, otherwise the corrected
    information matrix would not be positive definite.
    """
    P_inf = np.asarray(P_inf, dtype=float)
    pu, denom = _correction_denominator(P_inf, np.asarray(u, dtype=float))
    if np.any(denom <= 0.0):
        raise CovarianceCorrectionError(float(np.min(denom)))
    return _corrected(P_inf, pu, denom)


def _correction_denominator(P_inf, u):
    pu = matvec(P_inf, u)
    return pu, 1.0 - rowdot(u, pu)


def _corrected(P_inf, pu, denom):
    return symmetrize(P_inf + pu[..., :, None] * pu[..., None, :] / denom[..., None, None])


def nvmf_batch(mean, cov, z, model: LinearModel, mixing: InverseGammaMixing,
               config: NvmfConfig):
    """Measurement update of a stack of predicted beliefs: EM to each row's
    MAP state, then the covariance correction.

    Each row's EM sequence starts at its predicted mean. Every iteration
    re-solves the Kalman update from the same predicted belief with noise
    covariance psi(x_i) * Rbar and tracks the log posterior; a row stops
    when its increase falls below epsilon (never, in fixed-iteration mode)
    or at max_iterations. A decrease beyond tolerance fails the row, since
    the recursion guarantees monotonicity. Rows leave the loop one by one,
    so each keeps its own stopping point.

    Returns (mean, cov, status, NvmfDiagnostics of per-row arrays).
    """
    H = model.H
    rb_inv = np.linalg.inv(model.Rbar)
    N, n = mean.shape
    m = H.shape[0]
    status = np.zeros(N, dtype=np.int8)

    p_chol, bad = rowwise(np.linalg.cholesky, cov)
    mark_failed(status, bad, Failure.NOT_POSITIVE_DEFINITE)
    p_chol_inv, bad = rowwise(np.linalg.inv, p_chol)
    mark_failed(status, bad | ~finite_rows(z), Failure.NON_FINITE)
    hp = H @ cov
    a_part = hp @ H.T            # H P H'
    innovation = z - matvec(H, mean)

    zeta_x = _zeta(mean, z, H, rb_inv)
    trace = np.full((N, config.max_iterations + 1), np.nan)
    trace[:, 0] = _log_post(mean, p_chol_inv, mean, zeta_x, mixing, m)
    iterations = np.zeros(N, dtype=np.int64)
    x_out = mean.copy()
    zeta_out = zeta_x.copy()
    psi_out = np.full(N, np.nan)
    gain_out = np.zeros((N, n, m))

    # Working set: the rows still iterating, compacted as rows leave.
    rows = np.flatnonzero(status == 0)
    state = [mean, z, hp, a_part, innovation, p_chol_inv, zeta_x, trace[:, 0]]
    if rows.size < N:
        state = [a[rows] for a in state]
    for it in range(1, config.max_iterations + 1):
        if not rows.size:
            break
        x_pred, z_r, hp_r, a_r, innov_r, l_inv_r, zeta_r, lam_r = state
        psi_r = psi(zeta_r, mixing, m)
        S = symmetrize(a_r + psi_r[:, None, None] * model.Rbar)
        _, not_pd = rowwise(np.linalg.cholesky, S)
        gain_t, singular = rowwise(np.linalg.solve, S, hp_r)
        gain = gain_t.swapaxes(-1, -2)
        x = x_pred + matvec(gain, innov_r)
        zeta_r = _zeta(x, z_r, H, rb_inv)
        lam = _log_post(x_pred, l_inv_r, x, zeta_r, mixing, m)
        delta = lam - lam_r
        trace[rows, it] = lam
        state[6:] = [zeta_r, lam]

        failed = not_pd | singular | ~(delta >= -_MONOTONICITY_TOL)
        done = failed | (it == config.max_iterations)
        if not config.fixed_iteration_mode:
            done |= delta < config.epsilon
        if done.any():
            if failed.any():
                row_status = np.zeros(rows.size, dtype=np.int8)
                mark_failed(row_status, not_pd | singular, Failure.NOT_POSITIVE_DEFINITE)
                mark_failed(row_status, ~np.isfinite(lam), Failure.NON_FINITE)
                mark_failed(row_status, failed, Failure.EM_NOT_MONOTONE)
                status[rows] = row_status
            out = rows[done]
            iterations[out] = it
            x_out[out] = x[done]
            zeta_out[out] = zeta_r[done]
            psi_out[out] = psi_r[done]
            gain_out[out] = gain[done]
            if done.all():
                break
            rows = rows[~done]
            state = [a[~done] for a in state]

    p_inf = symmetrize((np.eye(n) - gain_out @ H) @ cov)
    phi_val = phi(zeta_out, mixing, m)
    u = _u_vector(x_out, z, H, rb_inv, phi_val)
    pu, denom = _correction_denominator(p_inf, u)
    fallback = denom <= DENOMINATOR_FLOOR
    # A zero pu over a unit denominator returns p_inf itself for fallback rows.
    skip = fallback | (status != 0)
    cov_out = _corrected(p_inf, np.where(skip[:, None], 0.0, pu), np.where(skip, 1.0, denom))

    # The corrected covariance must invert the information-form expression
    # P_inf^-1 - u u'; P_inf^-1 is available cheaply as
    # P_pred^-1 + H' (psi Rbar)^-1 H.
    audited = (status == 0) & (denom >= _AUDIT_DENOM_MIN)
    if audited.any():
        p_info = p_chol_inv.swapaxes(-1, -2) @ p_chol_inv
        p_inf_info = p_info + (H.T @ rb_inv @ H) / psi_out[:, None, None]
        resid = (p_inf_info - u[:, :, None] * u[:, None, :]) @ cov_out - np.eye(n)
        violated = (resid * resid).sum(axis=(-2, -1)) > _AUDIT_TOL**2 * n
        mark_failed(status, audited & violated, Failure.CORRECTION_IDENTITY)
    mark_failed(status, ~(finite_rows(x_out) & finite_rows(cov_out)), Failure.NON_FINITE)

    diagnostics = NvmfDiagnostics(
        iterations_used=iterations,
        log_posterior_trace=trace,
        final_psi=psi_out,
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
    Rbar = np.asarray(Rbar, dtype=float)
    m = v.shape[0]
    nu = 2.0 * mixing.alpha
    sigma = (mixing.beta / mixing.alpha) * Rbar
    chol = cholesky_pd(sigma, v)
    w = np.linalg.solve(chol, v)
    quad = float(w @ w)
    logdet = 2.0 * float(np.sum(np.log(np.diag(chol))))
    return (
        log_gamma((nu + m) / 2.0)
        - log_gamma(nu / 2.0)
        - 0.5 * m * math.log(math.pi * nu)
        - 0.5 * logdet
        - 0.5 * (nu + m) * math.log1p(quad / nu)
    )


def _expected_inverse_psi(alpha: float, beta: float, chol_rbar: np.ndarray,
                          rb_inv: np.ndarray, M: int, n_samples: int,
                          rng: RngStream) -> float:
    # E_v[1/psi(v)] with v drawn from the mixture: r ~ InvGamma(alpha, beta),
    # v ~ N(0, r Rbar).
    r = sample_inverse_gamma(alpha, beta, rng, size=n_samples)
    y = rng.standard_normal((n_samples, M)) @ chol_rbar.T
    v = y * np.sqrt(r)[:, None]
    zeta_s = 0.5 * np.einsum("ij,jk,ik->i", v, rb_inv, v)
    return float(np.mean((M / 2.0 + alpha) / (zeta_s + beta)))


def calibrate_mixing(r_out: float, rho: float, r_regular: float, Rbar, M: int,
                     alpha_grid=None, n_samples: int = 100_000,
                     rng: RngStream | None = None):
    """Pick mixing parameters from the design pair (r_out, rho).

    r_out is the largest variance scale considered regular and rho the prior
    probability of exceeding it, so beta(alpha) solves the tail equation
    through the inverse regularized incomplete gamma. The shape alpha is then
    chosen so the expected complete-data information matches that of a
    matched fixed-variance filter: the sampled expectation of 1/psi(v) under
    the mixture noise must equal 1/r_regular. The grid scan is followed by
    one bisection pass between the bracketing neighbors of the best point.

    Returns the chosen mixing and the absolute residual of the matching
    equation at that point.
    """
    if not (r_out > 0.0 and r_regular > 0.0):
        raise ValueError("r_out and r_regular must be positive")
    if not 0.0 < rho < 1.0:
        raise ValueError(f"rho must lie in (0, 1), got {rho}")
    if n_samples < 10_000:
        raise ValueError("n_samples must be at least 10000")
    if alpha_grid is None:
        alpha_grid = np.arange(0.5, 5.0001, 0.01)
    alpha_grid = np.asarray(alpha_grid, dtype=float)
    if alpha_grid.size == 0:
        raise ValueError("alpha_grid must be nonempty")
    if rng is None:
        rng = RngStream(0)

    Rbar = np.asarray(Rbar, dtype=float)
    chol_rbar = np.linalg.cholesky(Rbar)
    rb_inv = solve_pd(Rbar, np.eye(M))
    target = 1.0 / r_regular

    def evaluate(alpha):
        beta = r_out * inv_reg_lower_inc_gamma(alpha, rho)
        signed = _expected_inverse_psi(alpha, beta, chol_rbar, rb_inv, M, n_samples, rng) - target
        return signed, beta

    signed_residuals = np.empty(alpha_grid.size)
    betas = np.empty(alpha_grid.size)
    for i, alpha in enumerate(alpha_grid):
        signed_residuals[i], betas[i] = evaluate(alpha)
    finite = np.isfinite(signed_residuals)
    if not np.any(finite):
        raise CalibrationError("all calibration residuals were non-finite")

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
