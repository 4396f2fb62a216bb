"""Reference code that the tests check the library against: the Kalman
measurement update in information form, which solves through the posterior
information matrix P^-1 + H' R^-1 H rather than through the innovation
covariance the library's kalman_step uses; the NVMF closed forms zeta, the
log posterior and u written directly in the state and measurement, where
nvmf_batch evaluates them in its whitened eigenbasis; NVMF's corrected
covariance in information form at 50 digits; the exact one-step
posterior that NVMF approximates, by quadrature; and the Monte Carlo
loop with one public batched kernel per filter, which the harness's stacked
loop must equal bit for bit."""

import math

import numpy as np

from filterlab.baselines import kfor_batch, pdaf_batch
from filterlab.errors import NumericalError
from filterlab.harness import FILTER_ORDER, MEAS_DIM, STATE_DIM, Trials, _nees, simulate_truth
from filterlab.kalman import COND_LIMIT, UpdateDiagnostics, kf_batch
from filterlab.noise import sample_noise
from filterlab.nvmf import InverseGammaMixing, nvmf_batch
from filterlab.specfun import RngStream
from filterlab.statespace import (
    GaussianBelief,
    cholesky_pd,
    predict_batch,
    solve_pd,
    symmetrize,
    two_point_init,
    whitener,
)


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
    diagnostics = UpdateDiagnostics(innovation, S, gain, solve_pd(S, innovation), w)
    return GaussianBelief(mean, cov), diagnostics


def zeta(x, z, H, Rbar):
    """Half squared Mahalanobis distance of the residual under the shape matrix."""
    resid = np.asarray(z, dtype=float) - np.matvec(np.asarray(H, dtype=float),
                                                   np.asarray(x, dtype=float))
    white = np.matvec(whitener(Rbar), resid)
    return 0.5 * np.vecdot(white, white)


def log_posterior(x, prior: GaussianBelief, z, H, Rbar, mixing: InverseGammaMixing) -> float:
    """Log posterior of the state (up to x-independent constants):

        -(1/2)(x - x_pred)' P_pred^-1 (x - x_pred)
        - (M/2 + alpha) log(1 + zeta / beta)
    """
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    dx = x - prior.mean
    w = np.linalg.solve(cholesky_pd(prior.cov, dx), dx)
    return float(-0.5 * (w @ w)
                 - (len(z) / 2.0 + mixing.alpha) * math.log1p(zeta(x, z, H, Rbar) / mixing.beta))


def u_vector(x_hat, z, H, Rbar, phi_val):
    """Scaled residual gradient H' (phi Rbar)^-1 (H x - z) used by the correction."""
    phi_val = np.asarray(phi_val, dtype=float)
    if not np.all(phi_val > 0.0):
        raise ValueError(f"u_vector requires phi_val > 0, got {phi_val}")
    H = np.asarray(H, dtype=float)
    c_inv = whitener(Rbar)
    resid = np.matvec(H, np.asarray(x_hat, dtype=float)) - np.asarray(z, dtype=float)
    return np.matvec((c_inv @ H).T, np.matvec(c_inv, resid)) / phi_val[..., None]


def nvmf_information_cov(prior: GaussianBelief, z, model, mixing: InverseGammaMixing,
                         psi_val: float):
    """NVMF's corrected covariance at noise scale psi_val, (P^-1 + H' (psi
    Rbar)^-1 H - u u')^-1, evaluated in 50-digit arithmetic as an mpmath
    matrix: the information form, which loses nothing to cancellation when
    P is diffuse. u = H' (phi Rbar)^-1 (H x - z) at the MAP state x for
    psi_val, and phi at that state's zeta."""
    import mpmath

    with mpmath.workdps(50):
        mat = lambda a: mpmath.matrix(np.asarray(a, dtype=float).tolist())
        H, x, z = mat(model.H), mat(prior.mean), mat(z)
        rbar_inv, p_inv = mat(model.Rbar) ** -1, mat(prior.cov) ** -1
        psi_mp = mpmath.mpf(float(psi_val))
        info = p_inv + H.T * rbar_inv * H / psi_mp
        x_map = info ** -1 * (p_inv * x + H.T * rbar_inv * z / psi_mp)
        resid = H * x_map - z
        zeta_mp = (resid.T * rbar_inv * resid)[0] / 2
        phi_mp = (zeta_mp + mixing.beta) / mpmath.sqrt(H.rows / mpmath.mpf(2) + mixing.alpha)
        u = H.T * rbar_inv * resid / phi_mp
        return (info - u * u.T) ** -1


def exact_posterior(prior: GaussianBelief, z, model, mixing: InverseGammaMixing) -> GaussianBelief:
    """Mean and covariance of the Bayes posterior of the state after one
    measurement under NVMF's model: prior N(m, P), noise N(0, r Rbar) with
    r ~ InvGamma(alpha, beta).

    Given r the posterior is the Kalman posterior at R = r Rbar, and r is
    weighted by N(v; 0, H P H' + r Rbar) times its inverse-gamma density.
    With C = chol(Rbar), C^-1 H P H' C^-T = U diag(lam) U', B = P H' C^-T U
    and nu = U' C^-1 v, the Kalman posterior at r is m + B w_r with
    w_r = nu / (lam + r) and covariance P - B diag(1/(lam + r)) B', and the
    weight is a product of 1-D Gaussians in nu_i of variance lam_i + r. So
    the posterior mean is m + B E[w_r], and its covariance adds B Cov(w_r) B'
    to E[P_r]. The expectations are trapezoid sums over t = log r on a grid
    wide enough that the weight at both ends is below e^-40 of its peak.
    """
    wh = model.whitened[1]
    lam, U = np.linalg.eigh(symmetrize(wh @ prior.cov @ wh.T))
    nu = U.T @ model.whitened[0] @ (np.asarray(z, dtype=float) - model.H @ prior.mean)
    basis = prior.cov @ wh.T @ U
    alpha, beta = mixing.alpha, mixing.beta
    # Below beta the density's exp(-beta / r) vanishes; above the largest of
    # beta, lam and |nu|^2 the weight decays at least as r^-(alpha + M/2).
    t = np.linspace(math.log(beta) - 40.0,
                    math.log(max(beta, lam[-1], nu @ nu)) + 40.0 / (alpha + len(nu) / 2.0) + 10.0,
                    20001)
    r = np.exp(t)
    shifted = lam + r[:, None]
    log_weight = -alpha * t - beta / r - 0.5 * np.sum(np.log(shifted) + nu**2 / shifted, axis=1)
    assert max(log_weight[0], log_weight[-1]) < log_weight.max() - 40.0
    weight = np.exp(log_weight - log_weight.max())
    weight /= np.trapezoid(weight, t)

    def expect(f):   # f holds one value per grid point on its first axis
        return np.trapezoid(weight * f.T, t).T

    w = nu / shifted
    mean_w = expect(w)
    cov_w = expect(w[:, :, None] * w[:, None, :]) - np.outer(mean_w, mean_w)
    cov = prior.cov - (basis * expect(1.0 / shifted)) @ basis.T + basis @ cov_w @ basis.T
    return GaussianBelief(prior.mean + basis @ mean_w, symmetrize(cov))


def run_trials_per_filter(config, trial_ids) -> Trials:
    """harness.run_trials as one loop per filter: each trial simulated by
    simulate_truth, then each filter's own stack of trials advanced by its
    public kernel, with its own predict, error, NEES and failure pass."""
    ids = np.array(list(trial_ids), dtype=np.int64)
    N = ids.size
    K = config.updates
    model = config.model()
    H = model.H
    R = config.r_bar * np.eye(MEAS_DIM)
    regime = config.noise_regime()
    truth = np.empty((N, K + 1, STATE_DIM))
    measurements = np.empty((K, N, MEAS_DIM))
    init_mean = np.empty((N, STATE_DIM))
    init_cov = np.empty((N, STATE_DIM, STATE_DIM))
    for j, trial_id in enumerate(ids.tolist()):
        rng = RngStream(config.seed, trial_id)
        truth[j], z_minus1, z_0 = simulate_truth(config, rng)
        measurements[:, j] = np.matvec(H, truth[j, 1:]) + sample_noise(regime, rng, size=K)
        init = two_point_init(z_0, z_minus1, config.T, R)
        init_mean[j], init_cov[j] = init.mean, init.cov

    kernels = {
        "kf": (kf_batch, H, R),
        "nvmf": (nvmf_batch, model, config.mixing(), config.nvmf_config()),
        "pdaf": (pdaf_batch, H, R, config.pdaf_config()),
        "kfor": (kfor_batch, H, R, config.kfor_config()),
    }
    updates = {f: kernels[f] for f in FILTER_ORDER if f in set(config.filters) | {"kf"}}
    squared_error = {f: np.full((N, K), np.inf) for f in updates}
    nees = {f: np.full((N, K), np.inf) for f in updates}
    failed = {f: np.zeros(N, dtype=bool) for f in updates}
    kf_cov_trace = np.full(K, np.nan)
    beliefs = {f: (np.arange(N), init_mean, init_cov) for f in updates}

    for k in range(K):
        for f, (kernel, *args) in updates.items():
            rows, mean, cov = beliefs[f]
            if not rows.size:
                continue
            mean, cov = predict_batch(mean, cov, model)
            mean, cov, status, _ = kernel(mean, cov, measurements[k, rows], *args)
            err = mean - truth[rows, k + 1]
            se = np.vecdot(err, err)
            with np.errstate(all="ignore"):   # a failed row's solve
                ne = _nees(err, cov)
            ok = (status == 0) & np.isfinite(se) & np.isfinite(ne)
            if not ok.all():
                failed[f][rows[~ok]] = True
                rows, mean, cov, se, ne = (a[ok] for a in (rows, mean, cov, se, ne))
            squared_error[f][rows, k] = se
            nees[f][rows, k] = ne
            beliefs[f] = rows, mean, cov
            if f == "kf" and rows.size:
                kf_cov_trace[k] = np.trace(cov[0])

    return Trials(ids, squared_error, nees, failed, kf_cov_trace)
