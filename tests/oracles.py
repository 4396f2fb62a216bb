"""Reference code that the tests check the library against: the Kalman
measurement update in information form, which solves through the posterior
information matrix P^-1 + H' R^-1 H rather than through the innovation
covariance the library's kalman_step uses; and the Monte Carlo loop with one
public batched kernel per filter, which the harness's stacked loop must
equal bit for bit."""

import numpy as np

from filterlab.baselines import KforConfig, PdafConfig, kfor_batch, pdaf_batch
from filterlab.errors import NumericalError
from filterlab.harness import FILTER_ORDER, MEAS_DIM, STATE_DIM, Trials, _nees, simulate_truth
from filterlab.kalman import COND_LIMIT, UpdateDiagnostics, kf_batch
from filterlab.noise import sample_noise
from filterlab.nvmf import nvmf_batch
from filterlab.specfun import RngStream
from filterlab.statespace import (
    GaussianBelief,
    matvec,
    predict_batch,
    rowdot,
    solve_pd,
    symmetrize,
    two_point_init,
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
    diagnostics = UpdateDiagnostics(innovation, S, gain, solve_pd(S, innovation),
                                    np.log(w).sum())
    return GaussianBelief(mean, cov), diagnostics


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
        measurements[:, j] = matvec(H, truth[j, 1:]) + sample_noise(regime, rng, size=K)
        init = two_point_init(z_0, z_minus1, config.T, R)
        init_mean[j], init_cov[j] = init.mean, init.cov

    kernels = {
        "kf": (kf_batch, H, R),
        "nvmf": (nvmf_batch, model, config.mixing(), config.nvmf_config()),
        "pdaf": (pdaf_batch, H, R,
                 PdafConfig(config.p_detect, config.gate, config.clutter_density)),
        "kfor": (kfor_batch, H, R, KforConfig(config.tau, config.w)),
    }
    updates = {f: kernels[f] for f in FILTER_ORDER if f in set(config.filters) | {"kf"}}
    squared_error = {f: np.full((N, K), np.inf) for f in updates}
    nees = {f: np.full((N, K), np.inf) for f in updates}
    failed = {f: np.zeros(N, dtype=bool) for f in updates}
    beliefs = {f: (np.arange(N), init_mean, init_cov) for f in updates}

    with np.errstate(all="ignore"):
        for k in range(K):
            for f, (kernel, *args) in updates.items():
                rows, mean, cov = beliefs[f]
                if not rows.size:
                    continue
                mean, cov = predict_batch(mean, cov, model)
                mean, cov, status, _ = kernel(mean, cov, measurements[k, rows], *args)
                err = mean - truth[rows, k + 1]
                se = rowdot(err, err)
                ne, singular = _nees(err, cov)
                ok = (status == 0) & ~singular & np.isfinite(se) & np.isfinite(ne)
                if not ok.all():
                    failed[f][rows[~ok]] = True
                    rows, mean, cov, se, ne = (a[ok] for a in (rows, mean, cov, se, ne))
                squared_error[f][rows, k] = se
                nees[f][rows, k] = ne
                beliefs[f] = rows, mean, cov

    return Trials(ids, squared_error, nees, failed)
