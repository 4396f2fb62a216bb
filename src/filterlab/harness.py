"""Benchmark scenario construction, Monte Carlo execution, and CSV output.

The scenario is a planar constant-velocity track observed through noisy
position measurements, run under one of three noise regimes. Trials are
independent and deterministic given (seed, trial id): each is simulated
from its own stream, and the filters then advance a stack of trials one
update at a time through their batched kernels, whose rows do not depend
on each other. The results are one stack of per-trial rows in trial-id
order, and every summary is a reduction over its rows, so neither the
stacking nor parallel execution over chunks of trials can change output.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

# kf_update, kfor_update, pdaf_update, nvmf_update, predict and pcrlb_recursion
# are not called here: they stay because the benchmark's tracer
# (perfbench/tracing.py) wraps them in this module, as it wraps run_trial and
# simulate_truth below, and its test_tracer_restores_wrapped_names fails
# without them. run_trials reaches the filters through the stacked kernels
# and the truth through _truth_draws and _propagate, so those spans read 0 in
# a traced run.
from .baselines import (
    KforConfig,
    PdafConfig,
    _kfor_noise,
    _pdaf_reweight,
    kfor_update,
    pdaf_update,
)
from .kalman import (UpdateDiagnostics, innovation_terms, kalman_step, kf_batch, kf_update,
                     pcrlb_recursion)
from .metrics import consistency_interval, detect_divergence, RunSummary
from .noise import GaussianNoise, GaussianUniformNoise, MultivariateTNoise, sample_noise
from .nvmf import InverseGammaMixing, NvmfConfig, nvmf_batch, nvmf_update
from .specfun import RngStream, is_integer, sample_mvn
from .statespace import (
    Failure,
    LinearModel,
    cv_process_noise,
    cv_transition,
    lapack,
    mark_failed,
    predict,
    predict_batch,
    two_point_init,
)

FILTER_ORDER = ("kf", "nvmf", "pdaf", "kfor")
STATE_DIM = 4
MEAS_DIM = 2
# The measurement matrix: the position part of the state.
POSITION_H = np.eye(MEAS_DIM, STATE_DIM)


@dataclass
class ScenarioConfig:
    """Benchmark parameter bundle with the standard values as defaults.

    The filter-design quantities (detection probability, gate, outlier half
    width, clutter density) are derived, so the cross-parameter relations
    hold by construction. Filter tuning is fixed: NvmfConfig()'s EM rule,
    KFOR's 3-sigma threshold (tau) and 0.1 PDAF clutter points per gate.
    """

    x0: tuple = (100.0, 100.0, 20.0, 10.0)
    T: float = 3.0
    q: float = 1e-6
    r_bar: float = 100.0
    r_out: float = 100.0**2
    p_out: float = 0.1
    rho: float = 0.01
    trials: int = 1000
    updates: int = 600
    k_star: int = 150
    seed: int = 0
    noise: str = "gaussian"
    filters: tuple = FILTER_ORDER
    alpha: float = 0.9987
    beta: float = 99.84
    workers: int = 1

    def __post_init__(self):
        self.x0 = tuple(float(v) for v in self.x0)
        self.filters = tuple(self.filters)
        if self.noise not in ("gaussian", "gu", "t"):
            raise ValueError(f"unknown noise regime {self.noise!r}")
        unknown = set(self.filters) - set(FILTER_ORDER)
        if unknown:
            raise ValueError(f"unknown filters {sorted(unknown)}")
        if not self.filters:
            raise ValueError("at least one filter must be selected")
        for name in ("trials", "updates", "k_star", "seed", "workers"):
            if not is_integer(getattr(self, name)):
                raise ValueError(f"{name} must be an integer")
        # RngStream's key range, checked without importing numpy.random for a stream.
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must lie in [0, 2**64)")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if not 0 < self.k_star < self.updates:
            raise ValueError("k_star must satisfy 0 < k_star < updates")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if len(self.x0) != STATE_DIM:
            raise ValueError(f"x0 must have {STATE_DIM} entries")
        if not all(map(math.isfinite, self.x0)):
            raise ValueError("x0 must be finite")
        for name in ("T", "r_bar", "r_out"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if not 0.0 <= self.q < math.inf:
            raise ValueError("q must be nonnegative and finite")
        if not 0.0 <= self.p_out <= 1.0:
            raise ValueError("p_out must lie in [0, 1]")
        if not 0.0 <= self.rho < 1.0:
            raise ValueError("rho must lie in [0, 1)")
        # A t draw's scale beta / g overflows when its Gamma(alpha) draw g
        # underflows, with probability about exp(-709 alpha): 4e-16 at 0.05.
        if self.noise == "t" and not self.alpha >= 0.05:
            raise ValueError("alpha must be at least 0.05 in the t regime")
        # Build what a run builds, so that no run rejects the configuration
        # later (w, the gate and the clutter density are checked here), but
        # for the one check run_monte_carlo keeps: that the reference KF
        # (kf_reference, a K-update recursion) does not fail. An overflow
        # in Q reads as a non-finite Q, except T**3's.
        try:
            with np.errstate(all="ignore"):
                self.model()
        except OverflowError:
            raise ValueError("T is too large: the process noise covariance overflows") from None
        for build in (self.noise_regime, self.mixing, self.kfor_config, self.pdaf_config):
            build()
        # Keep selection in canonical order for stable output columns.
        self.filters = tuple(f for f in FILTER_ORDER if f in self.filters)

    @property
    def p_detect(self) -> float:
        return 1.0 - self.rho

    @property
    def gate(self) -> float:
        return math.sqrt(self.r_out / self.r_bar)

    @property
    def tau(self) -> float:
        return 3.0

    @property
    def w(self) -> float:
        return 3.0 * math.sqrt(self.r_out)

    @property
    def clutter_density(self) -> float:
        # 0.1 is the assumed expected number of clutter points in the
        # validation region; the nominal region volume uses the regular
        # measurement covariance r_bar * I.
        gate_volume = math.pi * self.gate**2 * self.r_bar
        return 0.1 / gate_volume

    @cached_property
    def kf_reference(self):
        """The matched KF's gain (K, n, m), covariance (K, n, n) and status
        (K,) after each update, nonzero also where the NEES solve fails on
        the covariance (numpy's NaN fill, whatever the error). Neither reads
        a measurement, so this one recursion at N=1 with zero measurements
        is every trial's, bit for bit. Computed on first use and kept, also
        in a pickled copy, so a config must not change after its first run."""
        model, z = self.model(), np.zeros((1, MEAS_DIM))
        R = self.r_bar * np.eye(MEAS_DIM)
        mean, cov = np.zeros((1, STATE_DIM)), two_point_init(z[0], z[0], self.T, R).cov[None]
        steps = []
        with np.errstate(all="ignore"):
            for _ in range(self.updates):
                mean, cov = predict_batch(mean, cov, model)
                mean, cov, status, d = kf_batch(mean, cov, z, model.H, R)
                steps.append((d.gain[0], cov[0], status[0]))
            gain, cov, status = map(np.array, zip(*steps))
            mark_failed(status, np.isnan(_nees(np.zeros((self.updates, STATE_DIM)), cov)),
                        Failure.NOT_POSITIVE_DEFINITE)
        return gain, cov, status

    def model(self) -> LinearModel:
        return LinearModel(
            F=cv_transition(self.T),
            Q=cv_process_noise(self.T, self.q),
            H=POSITION_H,
            Rbar=np.eye(MEAS_DIM),
        )

    def mixing(self) -> InverseGammaMixing:
        return InverseGammaMixing(self.alpha, self.beta)

    def nvmf_config(self) -> NvmfConfig:
        return NvmfConfig()

    def kfor_config(self) -> KforConfig:
        return KforConfig(self.tau, self.w)

    def pdaf_config(self) -> PdafConfig:
        return PdafConfig(self.p_detect, self.gate, self.clutter_density)

    def noise_regime(self):
        Rbar = np.eye(MEAS_DIM)
        if self.noise == "gaussian":
            return GaussianNoise(self.r_bar, Rbar)
        if self.noise == "gu":
            return GaussianUniformNoise(self.r_bar, Rbar, self.p_out, self.r_out)
        return MultivariateTNoise(self.alpha, self.beta, Rbar)


@dataclass
class Trials:
    """Per-update results of every filter over a stack of trials, row j
    being trial trial_ids[j]: squared_error and nees map each filter to an
    (N, K) array (inf from a failed update on), failed and diverged (set by
    run_monte_carlo: failed, or out of the reference envelope) to (N,) flags."""

    trial_ids: np.ndarray
    squared_error: dict
    nees: dict
    failed: dict
    diverged: dict = field(default_factory=dict)

    @classmethod
    def concat(cls, parts) -> "Trials":
        """One stack from consecutive chunks, rows in the order given."""
        return cls(np.concatenate([p.trial_ids for p in parts]), *(
            {f: np.concatenate([getattr(p, attr)[f] for p in parts]) for f in parts[0].failed}
            for attr in ("squared_error", "nees", "failed")))


def simulate_truth(config: ScenarioConfig, rng: RngStream):
    """True trajectory for updates 0..K plus the two pre-track measurements.

    The truth starts at the configured state and evolves with white
    acceleration noise; the backward point feeding the first initialization
    measurement is the deterministic backstep of the initial state. In every
    noise regime the two initialization noises are N(0, r_bar I), the model
    the two-point initializer assumes, and they are taken from rng before
    the K process-noise vectors.
    """
    z_minus1, z_0, process_noise = _truth_draws(config, rng)
    return _propagate(config, process_noise), z_minus1, z_0


def _truth_draws(config: ScenarioConfig, rng: RngStream):
    """simulate_truth's draws: the two initialization measurements, then the
    (K, n) process noise."""
    x0 = np.asarray(config.x0)
    x_back = cv_transition(-config.T) @ x0

    init_noise = sample_mvn(np.zeros(MEAS_DIM), config.r_bar * np.eye(MEAS_DIM), rng, size=2)
    z_minus1 = POSITION_H @ x_back + init_noise[0]
    z_0 = POSITION_H @ x0 + init_noise[1]

    process_noise = sample_mvn(np.zeros(STATE_DIM), cv_process_noise(config.T, config.q), rng,
                               size=config.updates)
    return z_minus1, z_0, process_noise


def _propagate(config: ScenarioConfig, process_noise: np.ndarray) -> np.ndarray:
    """The truth recurrence x_k = F x_{k-1} + w_k from x0, for process noise
    (K, n) of one trial or (K, N, n) of a stack: truth (K + 1, n) or
    (K + 1, N, n), one stacked np.matvec per update."""
    F = cv_transition(config.T)
    truth = np.empty((process_noise.shape[0] + 1,) + process_noise.shape[1:])
    truth[0] = config.x0
    for k in range(1, truth.shape[0]):
        truth[k] = np.matvec(F, truth[k - 1]) + process_noise[k - 1]
    return truth


def _nees(err: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """Normalized estimation error squared per row, NaN for a row whose
    covariance cannot be solved (numpy's fill for a failed LAPACK slice)."""
    return np.vecdot(err, lapack.solve(cov, err[..., None])[..., 0])


# The filters' order in run_trials' stack of beliefs, which is not
# FILTER_ORDER (the output's order) so that PDAF and KFOR, which share one
# Kalman step, are one slice. KF is not in it: its rows carry means only,
# against ScenarioConfig.kf_reference, and follow the stack's rows.
STACK_ORDER = ("pdaf", "kfor", "nvmf")


def _update_stack(mean, cov, z, rows: dict, model: LinearModel, R, kfor_config: KforConfig,
                  pdaf_config: PdafConfig, mixing: InverseGammaMixing, nvmf_config: NvmfConfig):
    """One measurement update of a stack of predicted beliefs sorted by
    filter, rows mapping each filter in STACK_ORDER to its slice.

    The PDAF and KFOR rows go through one innovation_terms and one
    kalman_step, KFOR's rows at their inflated noise; PDAF's rows are then
    reweighted, and the NVMF rows go through nvmf_batch. Each row's result
    is bit for bit that of its filter's public kernel.
    Returns (mean, cov, status).
    """
    post_mean, post_cov = np.empty_like(mean), np.empty_like(cov)
    status = np.empty(len(mean), dtype=np.int8)
    pdaf, kfor, nvmf = rows["pdaf"], rows["kfor"], rows["nvmf"]
    kalman = slice(0, kfor.stop)   # PDAF and KFOR
    H, v, hp, hph = innovation_terms(mean[kalman], cov[kalman], z[kalman], model.H)
    R_rows = np.repeat(R[None], kalman.stop, axis=0)
    R_rows[kfor], _ = _kfor_noise(hph[kfor], v[kfor], R, kfor_config)
    post_mean[kalman], post_cov[kalman], status[kalman], d, gv = kalman_step(
        mean[kalman], cov[kalman], R_rows, H, v, hp, hph)
    if pdaf.start < pdaf.stop:
        post_mean[pdaf], post_cov[pdaf], status[pdaf], _ = _pdaf_reweight(
            mean[pdaf], cov[pdaf], post_cov[pdaf], status[pdaf],
            UpdateDiagnostics(*(a[pdaf] for a in vars(d).values())), gv[pdaf], pdaf_config)
    if nvmf.start < nvmf.stop:
        post_mean[nvmf], post_cov[nvmf], status[nvmf], _ = nvmf_batch(
            mean[nvmf], cov[nvmf], z[nvmf], model, mixing, nvmf_config)
    return post_mean, post_cov, status


def _kf_step(mean, z, gain, model: LinearModel):
    """KF means predicted and updated with the gain every row shares,
    broadcast by np.matvec, so each row is kalman_step's mean bit for bit."""
    mean = np.matvec(model.F, mean)
    return mean + np.matvec(gain, z - np.matvec(model.H, mean))


def run_trials(config: ScenarioConfig, trial_ids) -> Trials:
    """Deterministic trials: simulate each from its own stream, then advance
    every filter over the stack of trials one update at a time.

    The beliefs of every filter but KF on every trial are one stack, one
    slice per filter in STACK_ORDER and trial j at offset j within it, so an
    update is one predict_batch, one _update_stack and one error and NEES
    pass. KF's covariance reads no measurement, so KF rows follow the stack
    with means only, against config.kf_reference's gain, covariance and
    status. Every row stays for all K updates, since no row's numbers depend
    on the other rows. A filter fails on a trial at the first update where
    its row has a nonzero status or a non-finite error or NEES; that row
    reads inf from there on, and no other trial or filter is affected.
    """
    ids = np.array(list(trial_ids), dtype=np.int64)
    N = ids.size
    K = config.updates
    model = config.model()
    R = config.r_bar * np.eye(MEAS_DIM)
    regime = config.noise_regime()
    process_noise = np.empty((K, N, STATE_DIM))
    noise = np.empty((K, N, MEAS_DIM))
    init_mean = np.empty((N, STATE_DIM))
    init_cov = np.empty((N, STATE_DIM, STATE_DIM))
    for j, trial_id in enumerate(ids.tolist()):
        rng = RngStream(config.seed, trial_id)
        z_minus1, z_0, process_noise[:, j] = _truth_draws(config, rng)
        noise[:, j] = sample_noise(regime, rng, size=K)
        init = two_point_init(z_0, z_minus1, config.T, R)
        init_mean[j], init_cov[j] = init.mean, init.cov
    truth = _propagate(config, process_noise)
    measurements = np.matvec(model.H, truth[1:]) + noise

    # The selected filters plus the reference filter, which always runs,
    # since its squared-error envelope defines track loss for every filter.
    names = [f for f in FILTER_ORDER if f in set(config.filters) | {"kf"}]
    order = STACK_ORDER + ("kf",)
    bounds = np.cumsum([0] + [N * (f in names) for f in order]).tolist()
    rows = dict(zip(order, map(slice, bounds, bounds[1:])))
    kf, stack = rows["kf"], slice(0, rows["kf"].start)
    trial_idx = np.tile(np.arange(N), len(names))
    mean, cov = init_mean[trial_idx], init_cov[trial_idx[stack]]
    kf_gain, kf_cov, kf_status = config.kf_reference
    kernel_args = (model, R, config.kfor_config(), config.pdaf_config(), config.mixing(),
                   config.nvmf_config())
    # One row per filter and trial, one column per update.
    status = np.empty((trial_idx.size, K), dtype=np.int8)
    status[kf] = kf_status
    squared_error = np.empty((trial_idx.size, K))
    nees = np.empty((trial_idx.size, K))

    with np.errstate(all="ignore"):   # failed rows are recorded, not warned about
        for k in range(K):
            z = measurements[k, trial_idx]
            mean[stack], cov = predict_batch(mean[stack], cov, model)
            mean[stack], cov, status[stack, k] = _update_stack(mean[stack], cov, z[stack], rows,
                                                               *kernel_args)
            mean[kf] = _kf_step(mean[kf], z[kf], kf_gain[k], model)
            err = mean - truth[k + 1, trial_idx]
            squared_error[:, k] = np.vecdot(err, err)
            nees[stack, k] = _nees(err[stack], cov)
            nees[kf, k] = _nees(err[kf], kf_cov[k])

    failed = np.logical_or.accumulate(
        (status != 0) | ~np.isfinite(squared_error) | ~np.isfinite(nees), axis=1)
    squared_error[failed] = np.inf
    nees[failed] = np.inf
    return Trials(ids, *({f: a[rows[f]] for f in names}
                         for a in (squared_error, nees, failed[:, -1])))


def run_trial(config: ScenarioConfig, trial_id: int) -> Trials:
    """One deterministic trial: a stack of one."""
    return run_trials(config, [trial_id])


def run_monte_carlo(config: ScenarioConfig):
    """Run all trials, apply the divergence test and discard rule, aggregate.

    Returns the run summary and the trial stack. A trial is discarded from
    the error/consistency aggregates when any filter diverges on it (exceeds
    the reference envelope in steady state) or fails numerically; lost-track
    counts are over all trials. A configuration whose reference KF fails
    (kf_reference) raises ValueError before any trial runs.
    """
    # Computed here, so that each worker's pickled config carries it.
    _, kf_cov, kf_status = config.kf_reference
    if kf_status.any():
        k = int(np.flatnonzero(kf_status)[0])
        cause = Failure(kf_status[k]).name.lower().replace("_", " ")
        raise ValueError(f"the reference KF fails at update {k + 1}: {cause}")
    kf_cov_trace = np.trace(kf_cov, axis1=1, axis2=2)
    # Contiguous chunks of trial ids, one per worker; a trial's numbers do
    # not depend on its chunk, so neither does the output.
    chunks = [c for c in np.array_split(np.arange(config.trials), config.workers) if c.size]
    if len(chunks) > 1:
        # Imported here, so that importing the library and a serial run load
        # no process-pool modules.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
            trials = Trials.concat(list(pool.map(run_trials, [config] * len(chunks), chunks)))
    else:
        trials = run_trials(config, chunks[0])

    # KF rows fail only on their data here, and the envelope needs one that did not.
    usable = ~trials.failed["kf"]
    if not usable.any():
        raise RuntimeError("all trials failed")
    envelope = trials.squared_error["kf"][usable].max(axis=0)

    # Positions hold updates k = 1..K, so steady state (k > k_star) starts at
    # position k_star; pass k_star - 1 as the strict positional threshold.
    k_star_pos = config.k_star - 1
    for f, se in trials.squared_error.items():
        trials.diverged[f] = trials.failed[f] | detect_divergence(se, envelope, k_star_pos)

    kept = ~np.any(list(trials.diverged.values()), axis=0)
    n_eff = int(kept.sum())
    lost = {f: int(trials.diverged[f].sum()) for f in config.filters}

    nrmse_by_filter = {}
    anees_by_filter = {}
    for f in config.filters:
        if n_eff:
            nrmse_by_filter[f] = np.sqrt(trials.squared_error[f][kept].mean(axis=0)
                                          / kf_cov_trace)
            anees_by_filter[f] = trials.nees[f][kept].mean(axis=0)
        else:
            nrmse_by_filter[f] = np.full(config.updates, np.nan)
            anees_by_filter[f] = np.full(config.updates, np.nan)
    interval = (
        consistency_interval(n_eff, STATE_DIM, 0.05) if n_eff else (math.nan, math.nan)
    )

    summary = RunSummary(
        filters=config.filters,
        nrmse=nrmse_by_filter,
        anees=anees_by_filter,
        interval=interval,
        lost_tracks=lost,
        n_trials=config.trials,
        n_eff=n_eff,
        kf_cov_trace=kf_cov_trace,
    )
    return summary, trials


def emit_csv(trials: Trials, summary: RunSummary, out_dir) -> list:
    """Write summary.csv, trials.csv, and lost_tracks.csv under out_dir."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = [out / "summary.csv", out / "trials.csv", out / "lost_tracks.csv"]

    with open(paths[0], "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        header = ["k"]
        header += [f"{f}_nrmse" for f in summary.filters]
        header += [f"{f}_anees" for f in summary.filters]
        header += ["interval_low", "interval_high"]
        writer.writerow(header)
        K = summary.kf_cov_trace.shape[0]
        for k in range(K):
            row = [k + 1]
            row += [repr(float(summary.nrmse[f][k])) for f in summary.filters]
            row += [repr(float(summary.anees[f][k])) for f in summary.filters]
            row += [repr(float(summary.interval[0])), repr(float(summary.interval[1]))]
            writer.writerow(row)

    # trials.csv is most of the output, so each filter-trial's rows are
    # joined into one write. No field needs quoting (integers, filter names,
    # float reprs), so these are the bytes csv.writer's default dialect writes.
    with open(paths[1], "w", newline="", encoding="utf-8") as fh:
        fh.write("trial,k,filter,se,nees,diverged\r\n")
        for j, trial_id in enumerate(trials.trial_ids.tolist()):
            for f in summary.filters:
                diverged = int(trials.diverged[f][j])
                se = trials.squared_error[f][j].tolist()
                ne = trials.nees[f][j].tolist()
                fh.write("".join(f"{trial_id},{k},{f},{a!r},{b!r},{diverged}\r\n"
                                 for k, (a, b) in enumerate(zip(se, ne), 1)))

    with open(paths[2], "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["filter", "count", "N", "N_eff"])
        for f in summary.filters:
            writer.writerow([f, summary.lost_tracks[f], summary.n_trials, summary.n_eff])

    return paths
