import csv
import io
import json
import math
import warnings

import numpy as np
import pytest

from filterlab import harness
from filterlab.baselines import KforConfig, PdafConfig, _pdaf_reweight
from filterlab.cli import main as cli_main
from filterlab.kalman import innovation_terms, kalman_step, pcrlb_recursion
from filterlab.noise import GaussianNoise, GaussianUniformNoise, MultivariateTNoise, sample_noise
from filterlab.nvmf import InverseGammaMixing, NvmfConfig, calibrate_mixing
from filterlab.harness import (
    FILTER_ORDER,
    ScenarioConfig,
    Trials,
    emit_csv,
    run_monte_carlo,
    run_trial,
    run_trials,
    simulate_truth,
)
from filterlab.specfun import RngStream, sample_gamma, sample_mvn
from filterlab.statespace import cv_process_noise, cv_transition, solve_pd, two_point_init
from oracles import run_trials_per_filter

NAN = math.nan
INF = math.inf

# Configurations whose derived quantities overflow: each constructed, then
# failed mid-run (the last inside each pool worker), unless it is rejected
# at construction.
OVERFLOWING_CONFIGS = [
    dict(T=1e120, q=1.0),                            # the process noise covariance
    dict(r_out=1e-320, r_bar=1e-320),                # the clutter density
    dict(r_out=1e300, r_bar=1e-10, workers=2),       # the gate
]


# Filter tuning that ScenarioConfig fixes, each with a value it once accepted.
REMOVED_FIELDS = {"epsilon": 1e-4, "max_iterations": 9, "fixed_iteration_mode": True,
                  "clutter_per_gate": 0.2, "tau": 2.0}


def small_config(**kw):
    base = dict(trials=8, updates=30, k_star=8, seed=3, noise="gaussian")
    base.update(kw)
    return ScenarioConfig(**base)


def information_trace(cfg):
    """The matched filter's covariance trace per update by an independent
    route, the information recursion: inverse in, predict, add H' R^-1 H,
    inverse out."""
    model = cfg.model()
    R = cfg.r_bar * np.eye(2)
    info = solve_pd(two_point_init(np.zeros(2), np.zeros(2), cfg.T, R).cov, np.eye(4))
    ref = np.empty(cfg.updates)
    for k in range(cfg.updates):
        info = pcrlb_recursion(info, model, cfg.r_bar)
        ref[k] = np.trace(solve_pd(info, np.eye(4)))
    return ref


class TestScenarioConfig:
    def test_derived_relations(self):
        cfg = ScenarioConfig()
        assert cfg.p_detect == 1.0 - cfg.rho
        assert abs(cfg.gate**2 - cfg.r_out / cfg.r_bar) < 1e-12
        assert abs(cfg.w - 3.0 * np.sqrt(cfg.r_out)) < 1e-12

    def test_benchmark_values(self):
        cfg = ScenarioConfig()
        assert cfg.p_detect == 0.99
        assert abs(cfg.gate - 10.0) < 1e-12
        assert abs(cfg.w - 300.0) < 1e-12
        assert cfg.x0 == (100.0, 100.0, 20.0, 10.0)
        assert cfg.nvmf_config() == NvmfConfig()
        assert cfg.kfor_config() == KforConfig(3.0, cfg.w)
        assert cfg.pdaf_config().clutter_density == 0.1 / (math.pi * cfg.gate**2 * cfg.r_bar)

    def test_validation(self):
        for bad in [
            dict(noise="bogus"),
            dict(filters=("kf", "unknown")),
            dict(k_star=600, updates=600),
            dict(T=0.0),
            dict(T=-3.0),
            dict(q=-1e-6),
            dict(r_bar=0.0),
            dict(r_out=-1.0),
            dict(p_out=1.5),
            dict(p_out=-0.1),
            dict(rho=1.0),
            dict(alpha=0.0),
            dict(beta=-1.0),
            dict(x0=(1.0, 2.0, 3.0)),
            dict(T=NAN),
            dict(alpha=NAN),
            dict(trials=2.5),
            dict(updates=600.5),
            dict(k_star=150.5),
            dict(seed=1.5),
            dict(workers=1.5),
            dict(x0=(100.0, NAN, 20.0, 10.0)),
            dict(x0=(100.0, 100.0, INF, 10.0)),
            dict(T=INF),
            dict(q=INF),
            dict(r_bar=INF),
            dict(r_out=INF),
            dict(alpha=INF),
            dict(beta=INF),
            dict(seed=-1),
            dict(seed=2**64),
            dict(trials=True),
            dict(k_star=True),
            dict(seed=True),
            dict(workers=True),
            dict(noise="t", alpha=0.049),
            *OVERFLOWING_CONFIGS,
        ]:
            with pytest.raises(ValueError):
                ScenarioConfig(**bad)

    @pytest.mark.parametrize("bad", OVERFLOWING_CONFIGS)
    def test_overflow_is_rejected_without_a_warning(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError):
                ScenarioConfig(**bad)

    def test_alpha_floor_holds_in_the_t_regime_only(self):
        assert ScenarioConfig(noise="t", alpha=0.05).alpha == 0.05
        for noise in ("gaussian", "gu"):
            assert ScenarioConfig(noise=noise, alpha=0.01).alpha == 0.01

    @pytest.mark.parametrize("make", [
        lambda: InverseGammaMixing(NAN, 1.0),
        lambda: InverseGammaMixing(1.0, NAN),
        lambda: NvmfConfig(epsilon=NAN),
        lambda: NvmfConfig(max_iterations=2.5),
        lambda: KforConfig(NAN, 1.0),
        lambda: KforConfig(1.0, NAN),
        lambda: PdafConfig(0.9, NAN, 0.1),
        lambda: PdafConfig(0.9, 1.0, NAN),
        lambda: GaussianNoise(NAN, np.eye(2)),
        lambda: GaussianUniformNoise(NAN, np.eye(2), 0.1, 1.0),
        lambda: GaussianUniformNoise(1.0, np.eye(2), 0.1, NAN),
        lambda: MultivariateTNoise(NAN, 1.0, np.eye(2)),
        lambda: MultivariateTNoise(1.0, NAN, np.eye(2)),
        lambda: GaussianNoise(1.0, [[1.0, NAN], [NAN, 1.0]]),
        lambda: GaussianNoise(1.0, np.diag([1.0, -1.0])),
        lambda: GaussianNoise(1.0, np.ones((2, 3))),
        lambda: GaussianUniformNoise(1.0, [[1.0, NAN], [NAN, 1.0]], 0.1, 1.0),
        lambda: GaussianUniformNoise(1.0, np.diag([1.0, -1.0]), 0.1, 1.0),
        lambda: GaussianUniformNoise(1.0, np.ones((2, 3)), 0.1, 1.0),
        lambda: MultivariateTNoise(1.0, 1.0, [[1.0, NAN], [NAN, 1.0]]),
        lambda: MultivariateTNoise(1.0, 1.0, np.diag([1.0, -1.0])),
        lambda: MultivariateTNoise(1.0, 1.0, np.ones((2, 3))),
        lambda: InverseGammaMixing(INF, 1.0),
        lambda: InverseGammaMixing(1.0, INF),
        lambda: NvmfConfig(epsilon=INF),
        lambda: KforConfig(INF, 1.0),
        lambda: KforConfig(1.0, INF),
        lambda: PdafConfig(0.9, INF, 0.1),
        lambda: PdafConfig(0.9, 1.0, INF),
        lambda: GaussianNoise(INF, np.eye(2)),
        lambda: GaussianUniformNoise(INF, np.eye(2), 0.1, 1.0),
        lambda: GaussianUniformNoise(1.0, np.eye(2), 0.1, INF),
        lambda: NvmfConfig(max_iterations=True),
        lambda: NvmfConfig(fixed_iteration_mode="no"),
        lambda: RngStream(2**64),
        lambda: RngStream(0, 2**64),
        lambda: RngStream(1.5),
        lambda: RngStream(True),
        lambda: RngStream(np.float64(3.0)),
        lambda: RngStream(0, 1.5),
        lambda: RngStream(0, True),
        lambda: calibrate_mixing(100.0**2, 0.01, 100.0, 2, n_samples=150_000.0),
        lambda: calibrate_mixing(100.0**2, 0.01, 100.0, True, n_samples=10_000,
                                 alpha_grid=[1.0]),
        lambda: sample_gamma(2.0, INF, RngStream(0)),
        lambda: sample_gamma(INF, 1.0, RngStream(0)),
        lambda: sample_gamma(2.0, 1.0, RngStream(0), size=2.5),
        lambda: sample_gamma(2.0, 1.0, RngStream(0), size=True),
        lambda: sample_mvn(np.zeros(2), np.eye(2), RngStream(0), size=2.5),
        lambda: sample_mvn(np.zeros(2), np.eye(2), RngStream(0), size=True),
        lambda: sample_noise(GaussianNoise(1.0, np.eye(2)), RngStream(0), size=2.5),
        lambda: sample_noise(MultivariateTNoise(1.0, 1.0, np.eye(2)), RngStream(0), size=True),
        lambda: calibrate_mixing(INF, 0.01, 100.0, 2, n_samples=10_000, alpha_grid=[1.0]),
        lambda: calibrate_mixing(100.0**2, 0.01, INF, 2, n_samples=10_000, alpha_grid=[1.0]),
        lambda: NvmfConfig(epsilon=0.0),
        lambda: NvmfConfig(max_iterations=0),
        lambda: KforConfig(0.0, 1.0),
    ])
    def test_public_configs_reject_nan_and_fractional_counts(self, make):
        with pytest.raises(ValueError):
            make()

    @pytest.mark.parametrize("name", REMOVED_FIELDS)
    def test_filter_tuning_is_not_a_field(self, name):
        with pytest.raises(TypeError):
            ScenarioConfig(**{name: REMOVED_FIELDS[name]})

    def test_filter_order_canonical(self):
        cfg = ScenarioConfig(filters=("pdaf", "kf"))
        assert cfg.filters == ("kf", "pdaf")


class TestSimulateTruth:
    def test_noiseless_line(self):
        cfg = small_config(q=0.0)
        truth, z_m1, z_0 = simulate_truth(cfg, RngStream(0, 0))
        F = cv_transition(cfg.T)
        x = np.asarray(cfg.x0)
        for k in range(truth.shape[0]):
            assert np.allclose(truth[k], np.linalg.matrix_power(F, k) @ x, atol=1e-9)

    def test_ensemble_mean(self):
        cfg = small_config(updates=10, k_star=2)
        F = cv_transition(cfg.T)
        x0 = np.asarray(cfg.x0)
        n = 10_000
        acc = np.zeros(4)
        for i in range(n):
            truth, _, _ = simulate_truth(cfg, RngStream(11, i))
            acc += truth[10]
        mean = acc / n
        expected = np.linalg.matrix_power(F, 10) @ x0
        # process noise is tiny, so the ensemble mean is very tight
        assert np.abs(mean - expected).max() < 3.0 * np.sqrt(10 * 3e-6 / n) * 50

    def test_increment_covariance(self):
        cfg = small_config(updates=2, k_star=1, q=0.5)
        F = cv_transition(cfg.T)
        incs = []
        for i in range(20_000):
            truth, _, _ = simulate_truth(cfg, RngStream(12, i))
            incs.append(truth[1] - F @ truth[0])
        cov = np.cov(np.stack(incs).T)
        Q = cv_process_noise(cfg.T, cfg.q)
        assert np.abs(cov - Q).max() < 0.05 * np.abs(Q).max()

    @pytest.mark.parametrize("noise", ["gaussian", "t", "gu"])
    def test_matches_per_step_scheme(self, noise):
        # The bulk draws equal the per-step scheme bit for bit: one Gaussian
        # draw N(0, r_bar I) per init measurement in every regime, then one
        # sample_mvn call, which factors Q afresh, per process-noise vector.
        cfg = small_config(noise=noise, q=0.5)
        F = cv_transition(cfg.T)
        Q = cv_process_noise(cfg.T, cfg.q)
        H = cfg.model().H
        x0 = np.asarray(cfg.x0)
        x_back = cv_transition(-cfg.T) @ x0
        for i in range(5):
            rng = RngStream(14, i)
            init = [sample_mvn(np.zeros(2), cfg.r_bar * np.eye(2), rng) for _ in range(2)]
            truth = [x0]
            for _ in range(cfg.updates):
                truth.append(F @ truth[-1] + sample_mvn(np.zeros(4), Q, rng))
            got_truth, z_minus1, z_0 = simulate_truth(cfg, RngStream(14, i))
            assert got_truth.tobytes() == np.stack(truth).tobytes()
            assert z_minus1.tobytes() == (H @ x_back + init[0]).tobytes()
            assert z_0.tobytes() == (H @ x0 + init[1]).tobytes()


class TestRunTrial:
    def test_deterministic(self):
        cfg = small_config()
        a = run_trial(cfg, 4)
        b = run_trial(cfg, 4)
        assert a.trial_ids.tolist() == [4]
        for f in a.squared_error:
            assert np.array_equal(a.squared_error[f], b.squared_error[f])
            assert np.array_equal(a.nees[f], b.nees[f])

    def test_kf_trace_matches_information_recursion(self):
        for q in (0.0, 1e-6, 1.0):
            cfg = small_config(q=q, updates=40)
            ref = information_trace(cfg)
            trials = run_trials(cfg, range(2))
            assert not trials.failed["kf"].any()
            assert np.all(np.abs(trials.kf_cov_trace - ref) <= 1e-12 * ref)

    def test_kf_trace_is_the_runs_own_kf_covariance(self, monkeypatch):
        # The NRMSE normaliser is the trace of every KF row's covariance in
        # the run, bit for bit, whatever the row's measurements. The KF rows
        # are the first trials-many rows of the one Kalman step.
        cfg = small_config(trials=4, updates=40, noise="t")
        traces = []

        def recording(mean, cov, *args):
            out = kalman_step(mean, cov, *args)
            assert len(mean) == 12   # 4 trials each of KF, PDAF and KFOR
            traces.append([np.trace(c) for c in out[1][:4]])
            return out

        monkeypatch.setattr(harness, "kalman_step", recording)
        trials = run_trials(cfg, range(4))
        assert not trials.failed["kf"].any()
        assert len(traces) == cfg.updates
        for k, row_traces in enumerate(traces):
            assert np.array_equal(row_traces, np.full(4, trials.kf_cov_trace[k]))

    def test_noiseless_limit_tracks_exactly(self):
        # squared error scales with the vanishing measurement variance; the
        # residual floor is the initial velocity error sqrt(2 r_bar)/T
        # carried across k steps
        cfg = small_config(q=0.0, r_bar=1e-12, updates=20, k_star=5)
        trials = run_trial(cfg, 1)
        for f in cfg.filters:
            assert trials.squared_error[f].shape == (1, cfg.updates)
            assert trials.squared_error[f].max() < 1e-7

    def test_reference_filter_always_runs(self):
        cfg = small_config(filters=("nvmf",))
        trials = run_trial(cfg, 0)
        assert list(trials.squared_error) == ["kf", "nvmf"]
        assert list(trials.failed) == ["kf", "nvmf"]


class TestFailureContract:
    def test_failed_row_marks_one_filter_on_one_trial(self, monkeypatch):
        # Fail PDAF's row 0 (trial 0) of the stacked update at update k = 5.
        cfg = small_config(trials=4)
        clean = run_trials(cfg, range(4))
        calls = []

        def failing(mean, cov, kf_cov, status, *args):
            mean, cov, status, gated = _pdaf_reweight(mean, cov, kf_cov, status, *args)
            calls.append(len(mean))
            if len(calls) == 5:
                status[0] = 1
            return mean, cov, status, gated

        monkeypatch.setattr(harness, "_pdaf_reweight", failing)
        trials = run_trials(cfg, range(4))
        assert calls == [4] * cfg.updates
        assert trials.failed["pdaf"].tolist() == [True, False, False, False]
        assert not trials.failed["kf"].any()
        bad_se, clean_se = trials.squared_error["pdaf"], clean.squared_error["pdaf"]
        assert np.array_equal(bad_se[0, :4], clean_se[0, :4])
        assert np.all(np.isinf(bad_se[0, 4:]))
        assert np.all(np.isinf(trials.nees["pdaf"][0, 4:]))
        assert np.array_equal(bad_se[1:], clean_se[1:])
        assert np.array_equal(trials.nees["pdaf"][1:], clean.nees["pdaf"][1:])
        for f in ("kf", "nvmf", "kfor"):
            assert not trials.failed[f].any()
            assert np.array_equal(trials.squared_error[f], clean.squared_error[f])
            assert np.array_equal(trials.nees[f], clean.nees[f])

        calls.clear()
        summary, _ = run_monte_carlo(cfg)
        assert summary.lost_tracks["pdaf"] >= 1

    @pytest.mark.parametrize("failure", ["every_kf_status", "one_kf_innovation"])
    def test_chunk_with_every_kf_row_failed_keeps_the_trace(self, monkeypatch, failure):
        cfg = small_config(trials=8)
        clean = run_trials(cfg, range(8))
        first = run_trials(cfg, range(4))
        calls = []
        if failure == "one_kf_innovation":
            # An inf innovation fails trial 0's KF row at update k = 5. The
            # trace is read off that row, whose covariance goes on bit for
            # bit, since it reads neither the mean nor the innovation.
            def failing(mean, cov, *args):
                out = innovation_terms(mean, cov, *args)
                calls.append(len(mean))
                if len(calls) == 5:
                    out[1][0] = np.inf   # trial 0's KF row comes first
                return out

            monkeypatch.setattr(harness, "innovation_terms", failing)
            trials = run_trials(cfg, range(4))
            assert calls == [12] * cfg.updates
            assert trials.failed["kf"].tolist() == [True, False, False, False]
            assert trials.kf_cov_trace.tobytes() == clean.kf_cov_trace.tobytes()
            kf_se = trials.squared_error["kf"][0]
            assert np.array_equal(kf_se[:4], first.squared_error["kf"][0, :4])
            assert np.all(np.isinf(kf_se[4:]))
            for f in FILTER_ORDER:
                others = slice(1, None) if f == "kf" else slice(None)
                assert np.array_equal(trials.squared_error[f][others],
                                      first.squared_error[f][others])
                assert np.array_equal(trials.nees[f][others], first.nees[f][others])
        else:
            # Fail every KF row of the second chunk at update k = 5: that
            # chunk's trace is NaN from there on, and the merged trace is
            # the clean one.
            def failing(mean, cov, *args):
                out = kalman_step(mean, cov, *args)
                calls.append(len(mean))
                if len(calls) == 5:
                    out[2][:4] = 1   # the 4 KF rows come first
                return out

            monkeypatch.setattr(harness, "kalman_step", failing)
            second = run_trials(cfg, range(4, 8))
            assert calls == [12] * cfg.updates
            assert second.failed["kf"].all()
            assert np.array_equal(second.kf_cov_trace[:4], clean.kf_cov_trace[:4])
            assert np.all(np.isnan(second.kf_cov_trace[4:]))
            for parts in ([first, second], [second, first]):
                merged = Trials.concat(parts).kf_cov_trace
                assert merged.tobytes() == clean.kf_cov_trace.tobytes()


def assert_same_trials(got: Trials, ref: Trials):
    assert got.trial_ids.tolist() == ref.trial_ids.tolist()
    assert list(got.failed) == list(ref.failed)
    for f in ref.failed:
        assert got.squared_error[f].tobytes() == ref.squared_error[f].tobytes()
        assert got.nees[f].tobytes() == ref.nees[f].tobytes()
        assert got.failed[f].tolist() == ref.failed[f].tolist()
    assert got.kf_cov_trace.tobytes() == ref.kf_cov_trace.tobytes()


class TestStackedLoop:
    """run_trials' one stack of every filter's rows equals one loop per
    filter through its public kernel, bit for bit."""

    @pytest.mark.parametrize("filters", [FILTER_ORDER, ("nvmf",), ("pdaf", "kfor")])
    @pytest.mark.parametrize("noise", ["gaussian", "gu", "t"])
    def test_equals_per_filter_loop(self, noise, filters):
        cfg = small_config(noise=noise, filters=filters, updates=40)
        ids = [4, 0, 9, 2, 5]
        assert_same_trials(run_trials(cfg, ids), run_trials_per_filter(cfg, ids))

    def test_failed_rows_equal_per_filter_loop(self):
        # A tiny measurement variance against a large process noise fails
        # KF and KFOR on every trial, at different updates, so failed rows
        # run on beside PDAF's and NVMF's.
        cfg = small_config(noise="gu", r_bar=1e-30, q=1.0, trials=12, updates=40)
        got = run_trials(cfg, range(12))
        assert got.failed["kf"].all() and got.failed["kfor"].all()
        assert not got.failed["pdaf"].any() and not got.failed["nvmf"].any()
        assert_same_trials(got, run_trials_per_filter(cfg, range(12)))


class TestRunMonteCarlo:
    def test_single_trial_degenerate(self):
        cfg = small_config(trials=1, filters=("kf",))
        summary, trials = run_monte_carlo(cfg)
        assert summary.n_eff in (0, 1)
        if summary.n_eff == 1:
            expected = np.sqrt(trials.squared_error["kf"][0] / summary.kf_cov_trace)
            assert np.allclose(summary.nrmse["kf"], expected)

    def test_discard_accounting(self):
        cfg = small_config(trials=12, noise="t")
        summary, trials = run_monte_carlo(cfg)
        assert set(trials.diverged) == set(summary.filters) | {"kf"}
        discarded = np.any(list(trials.diverged.values()), axis=0).sum()
        assert summary.n_eff + discarded == summary.n_trials
        for f in summary.filters:
            assert trials.diverged[f].sum() == summary.lost_tracks[f]
            assert np.all(trials.diverged[f][trials.failed[f]])

    def test_parallel_matches_serial(self):
        cfg_serial = small_config(workers=1)
        cfg_par = small_config(workers=2)
        s1, r1 = run_monte_carlo(cfg_serial)
        s2, r2 = run_monte_carlo(cfg_par)
        for f in s1.filters:
            assert np.array_equal(s1.nrmse[f], s2.nrmse[f])
            assert np.array_equal(s1.anees[f], s2.anees[f])
        assert r1.trial_ids.tolist() == r2.trial_ids.tolist() == list(range(cfg_serial.trials))
        for f in r1.squared_error:
            assert np.array_equal(r1.squared_error[f], r2.squared_error[f])
            assert np.array_equal(r1.nees[f], r2.nees[f])
            assert np.array_equal(r1.diverged[f], r2.diverged[f])


class TestEmitCsv:
    def test_header_only_when_empty(self, tmp_path):
        from filterlab.metrics import RunSummary
        summary = RunSummary(filters=("kf",), nrmse={"kf": np.empty(0)},
                             anees={"kf": np.empty(0)}, interval=(0.0, 1.0),
                             lost_tracks={"kf": 0}, n_trials=0, n_eff=0,
                             kf_cov_trace=np.empty(0))
        empty = Trials(np.empty(0, dtype=np.int64), {"kf": np.empty((0, 0))},
                       {"kf": np.empty((0, 0))}, {"kf": np.empty(0, dtype=bool)},
                       np.empty(0), {"kf": np.empty(0, dtype=bool)})
        paths = emit_csv(empty, summary, tmp_path)
        lines = (tmp_path / "summary.csv").read_text().strip().splitlines()
        assert lines == ["k,kf_nrmse,kf_anees,interval_low,interval_high"]
        lines = (tmp_path / "trials.csv").read_text().strip().splitlines()
        assert lines == ["trial,k,filter,se,nees,diverged"]

    def test_round_trip_nrmse(self, tmp_path):
        cfg = small_config()
        summary, trials = run_monte_carlo(cfg)
        emit_csv(trials, summary, tmp_path)
        # recompute one summary cell from the trials file
        rows = (tmp_path / "trials.csv").read_text().strip().splitlines()[1:]
        k_query = 17
        ses = {}
        diverged_trials = set()
        for row in rows:
            trial, k, f, se, nees, div = row.split(",")
            if f != "kf":
                continue
            if int(div):
                diverged_trials.add(int(trial))
            if int(k) == k_query:
                ses[int(trial)] = float(se)
        # a trial is kept only if no filter diverged; reconstruct from all rows
        all_div = set()
        for row in rows:
            trial, k, f, se, nees, div = row.split(",")
            if int(div):
                all_div.add(int(trial))
        kept = [t for t in ses if t not in all_div]
        mse = np.mean([ses[t] for t in kept])
        trace = information_trace(cfg)[k_query - 1]
        expected = np.sqrt(mse / trace)
        summary_rows = (tmp_path / "summary.csv").read_text().strip().splitlines()
        header = summary_rows[0].split(",")
        col = header.index("kf_nrmse")
        cell = float(summary_rows[k_query].split(",")[col])
        assert abs(cell - expected) < 1e-9 * max(expected, 1.0)

    def test_trials_rows_are_csv_writer_rows(self, tmp_path):
        # A failed filter leaves inf from its failing update on; NaN and a
        # subnormal check the float reprs too.
        summary, trials = run_monte_carlo(small_config())
        trials.squared_error["pdaf"][1, 9:] = np.inf
        trials.nees["pdaf"][1, 9:] = np.inf
        trials.nees["kfor"][2, 3] = np.nan
        trials.squared_error["kf"][0, 0] = 5e-324
        emit_csv(trials, summary, tmp_path)
        ref = io.StringIO(newline="")
        writer = csv.writer(ref)
        writer.writerow(["trial", "k", "filter", "se", "nees", "diverged"])
        for j, trial_id in enumerate(trials.trial_ids.tolist()):
            for f in summary.filters:
                for k, (se, ne) in enumerate(zip(trials.squared_error[f][j].tolist(),
                                                 trials.nees[f][j].tolist()), 1):
                    writer.writerow([trial_id, k, f, repr(se), repr(ne),
                                     int(trials.diverged[f][j])])
        assert (tmp_path / "trials.csv").read_bytes() == ref.getvalue().encode("utf-8")

    def test_byte_identical_across_runs_and_workers(self, tmp_path):
        outs = []
        for i, workers in enumerate([1, 1, 2, 3]):
            cfg = small_config(workers=workers)
            summary, trials = run_monte_carlo(cfg)
            out = tmp_path / f"run{i}"
            emit_csv(trials, summary, out)
            outs.append(out)
        for name in ("summary.csv", "trials.csv", "lost_tracks.csv"):
            ref = (outs[0] / name).read_bytes()
            assert (outs[1] / name).read_bytes() == ref
            assert (outs[2] / name).read_bytes() == ref
            assert (outs[3] / name).read_bytes() == ref


class TestCli:
    def test_run_subcommand(self, tmp_path, capsys):
        code = cli_main([
            "run", "--noise", "gaussian", "--trials", "4", "--updates", "20",
            "--k-star", "5", "--seed", "1", "--filters", "kf,nvmf",
            "--out", str(tmp_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "N=4" in out
        assert (tmp_path / "summary.csv").exists()
        assert (tmp_path / "trials.csv").exists()
        assert (tmp_path / "lost_tracks.csv").exists()

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({
            "trials": 3, "updates": 20, "k_star": 5, "noise": "gu",
            "filters": ["kf"], "seed": 2,
        }))
        code = cli_main([
            "run", "--config", str(cfg_file), "--trials", "5",
            "--out", str(tmp_path / "out"),
        ])
        assert code == 0
        assert "N=5" in capsys.readouterr().out

    def test_error_exit_code(self, tmp_path, capsys):
        code = cli_main([
            "run", "--noise", "gaussian", "--trials", "2", "--updates", "10",
            "--k-star", "50", "--out", str(tmp_path),
        ])
        assert code == 1
        assert "error:" in capsys.readouterr().err
        code = cli_main([
            "run", "--noise", "gaussian", "--trials", "2", "--updates", "10",
            "--k-star", "5", "--workers", "0", "--out", str(tmp_path),
        ])
        assert code == 1
        assert "workers" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [["--epsilon", "1e-4"], ["--max-iters", "9"],
                                      ["--fixed-iters"], ["--clutter-per-gate", "0.2"]],
                             ids=lambda flag: flag[0])
    def test_filter_tuning_flag_is_a_usage_error(self, tmp_path, flag):
        with pytest.raises(SystemExit) as exit_:
            cli_main(["run", "--trials", "2", "--out", str(tmp_path), *flag])
        assert exit_.value.code == 2

    @pytest.mark.parametrize("name", REMOVED_FIELDS)
    def test_config_file_naming_filter_tuning_is_an_error(self, tmp_path, capsys, name):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({name: REMOVED_FIELDS[name]}))
        code = cli_main(["run", "--config", str(cfg_file), "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and name in err

    def test_each_run_flag_reaches_its_field(self, tmp_path, monkeypatch):
        captured = []

        def capture(config):
            captured.append(config)
            raise RuntimeError("captured")

        monkeypatch.setattr("filterlab.cli.run_monte_carlo", capture)
        expected = {
            "noise": "t", "trials": 7, "updates": 40, "seed": 5,
            "filters": ("kf", "pdaf"), "k_star": 11, "alpha": 1.5, "beta": 50.0,
            "workers": 2,
        }
        code = cli_main([
            "run", "--noise", "t", "--trials", "7", "--updates", "40", "--seed", "5",
            "--filters", "kf, pdaf", "--k-star", "11", "--alpha", "1.5", "--beta", "50",
            "--workers", "2",
            "--out", str(tmp_path),
        ])
        assert code == 1 and len(captured) == 1
        config, default = captured[0], ScenarioConfig()
        changed = {f: getattr(config, f) for f in vars(default)
                   if getattr(config, f) != getattr(default, f)}
        assert changed == expected

    def test_calibrate_subcommand(self, capsys):
        code = cli_main([
            "calibrate", "--r-out", "400", "--rho", "0.05", "--r-regular", "100",
            "--dim", "2", "--samples", "10000", "--seed", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "alpha=" in out and "beta=" in out and "residual=" in out
