import csv
import io
import json
import math

import numpy as np
import pytest

from filterlab import harness
from filterlab.baselines import KforConfig, PdafConfig, _pdaf_reweight
from filterlab.cli import main as cli_main
from filterlab.kalman import kalman_step, pcrlb_recursion
from filterlab.noise import GaussianNoise, GaussianUniformNoise, MultivariateTNoise, sample_noise
from filterlab.nvmf import InverseGammaMixing, NvmfConfig
from filterlab.harness import (
    FILTER_ORDER,
    ScenarioConfig,
    Trials,
    _kf_reference_trace,
    emit_csv,
    run_monte_carlo,
    run_trial,
    run_trials,
    simulate_truth,
)
from filterlab.specfun import RngStream, sample_mvn
from filterlab.statespace import cv_process_noise, cv_transition, solve_pd, two_point_init
from oracles import run_trials_per_filter

NAN = math.nan
INF = math.inf


def small_config(**kw):
    base = dict(trials=8, updates=30, k_star=8, seed=3, noise="gaussian")
    base.update(kw)
    return ScenarioConfig(**base)


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
            dict(tau=0.0),
            dict(p_out=1.5),
            dict(p_out=-0.1),
            dict(rho=1.0),
            dict(alpha=0.0),
            dict(beta=-1.0),
            dict(epsilon=0.0),
            dict(max_iterations=0),
            dict(x0=(1.0, 2.0, 3.0)),
            dict(epsilon=NAN),
            dict(T=NAN),
            dict(alpha=NAN),
            dict(clutter_per_gate=NAN),
            dict(trials=2.5),
            dict(updates=600.5),
            dict(k_star=150.5),
            dict(seed=1.5),
            dict(workers=1.5),
            dict(max_iterations=2.5),
            dict(x0=(100.0, NAN, 20.0, 10.0)),
            dict(x0=(100.0, 100.0, INF, 10.0)),
            dict(T=INF),
            dict(q=INF),
            dict(r_bar=INF),
            dict(r_out=INF),
            dict(alpha=INF),
            dict(beta=INF),
            dict(tau=INF),
            dict(epsilon=INF),
            dict(clutter_per_gate=INF),
        ]:
            with pytest.raises(ValueError):
                ScenarioConfig(**bad)

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
    ])
    def test_public_configs_reject_nan_and_fractional_counts(self, make):
        with pytest.raises(ValueError):
            make()

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

    def test_init_from_regime(self):
        # With every draw an outlier, the init residuals z - H x reach the
        # uniform outlier range only when the flag draws them from the regime.
        for flag in (False, True):
            cfg = small_config(noise="gu", p_out=1.0, init_from_regime=flag)
            H = cfg.model().H
            x_back = cv_transition(-cfg.T) @ np.asarray(cfg.x0)
            residuals = []
            for i in range(50):
                _, z_minus1, z_0 = simulate_truth(cfg, RngStream(13, i))
                residuals += [z_minus1 - H @ x_back, z_0 - H @ np.asarray(cfg.x0)]
            biggest = np.abs(residuals).max()
            assert (biggest > 10.0 * np.sqrt(cfg.r_bar)) == flag

    @pytest.mark.parametrize("noise, init_from_regime",
                             [("gaussian", False), ("t", True), ("gu", True)])
    def test_matches_per_step_scheme(self, noise, init_from_regime):
        # The bulk draws equal the per-step scheme bit for bit: one noise
        # draw per init measurement, then one sample_mvn call, which factors
        # Q afresh, per process-noise vector.
        cfg = small_config(noise=noise, init_from_regime=init_from_regime, q=0.5)
        F = cv_transition(cfg.T)
        Q = cv_process_noise(cfg.T, cfg.q)
        H = cfg.model().H
        x0 = np.asarray(cfg.x0)
        x_back = cv_transition(-cfg.T) @ x0
        for i in range(5):
            rng = RngStream(14, i)
            if init_from_regime:
                init = [sample_noise(cfg.noise_regime(), rng) for _ in range(2)]
            else:
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
        # The information recursion is an independent route to the matched
        # filter's covariance: inverse in, predict, add H' R^-1 H, inverse out.
        for q in (0.0, 1e-6, 1.0):
            cfg = small_config(q=q, updates=40)
            model = cfg.model()
            R = cfg.r_bar * np.eye(2)
            info = solve_pd(two_point_init(np.zeros(2), np.zeros(2), cfg.T, R).cov, np.eye(4))
            ref = np.empty(cfg.updates)
            for k in range(cfg.updates):
                info = pcrlb_recursion(info, model, cfg.r_bar)
                ref[k] = np.trace(solve_pd(info, np.eye(4)))
            trace = _kf_reference_trace(cfg)
            assert np.all(np.abs(trace - ref) <= 1e-12 * ref)

    def test_kf_trace_is_the_runs_own_kf_covariance(self, monkeypatch):
        # The NRMSE normaliser is the trace of every KF row's covariance in
        # the run itself, bit for bit, whatever the row's measurements. The
        # KF rows are the first trials-many rows of the one Kalman step.
        cfg = small_config(trials=4, updates=40, noise="t")
        ref = _kf_reference_trace(cfg)
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
            assert np.array_equal(row_traces, np.full(4, ref[k]))

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
        assert calls[5:] and set(calls[5:]) == {3}
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


def assert_same_trials(got: Trials, ref: Trials):
    assert got.trial_ids.tolist() == ref.trial_ids.tolist()
    assert list(got.failed) == list(ref.failed)
    for f in ref.failed:
        assert got.squared_error[f].tobytes() == ref.squared_error[f].tobytes()
        assert got.nees[f].tobytes() == ref.nees[f].tobytes()
        assert got.failed[f].tolist() == ref.failed[f].tolist()


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
        # KF and KFOR on every trial, at different updates, so rows leave
        # the stack while PDAF and NVMF go on.
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
                       {"kf": np.empty(0, dtype=bool)})
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
        trace = _kf_reference_trace(cfg)[k_query - 1]
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
            "--k-star", "5", "--epsilon", "nan", "--out", str(tmp_path),
        ])
        assert code == 1
        assert "epsilon" in capsys.readouterr().err

    def test_each_run_flag_reaches_its_field(self, tmp_path, monkeypatch):
        captured = []

        def capture(config):
            captured.append(config)
            raise RuntimeError("captured")

        monkeypatch.setattr("filterlab.cli.run_monte_carlo", capture)
        expected = {
            "noise": "t", "trials": 7, "updates": 40, "seed": 5,
            "filters": ("kf", "pdaf"), "epsilon": 1e-4, "max_iterations": 9,
            "fixed_iteration_mode": True, "k_star": 11, "alpha": 1.5, "beta": 50.0,
            "clutter_per_gate": 0.2, "init_from_regime": True, "workers": 2,
        }
        code = cli_main([
            "run", "--noise", "t", "--trials", "7", "--updates", "40", "--seed", "5",
            "--filters", "kf, pdaf", "--epsilon", "1e-4", "--max-iters", "9",
            "--fixed-iters", "--k-star", "11", "--alpha", "1.5", "--beta", "50",
            "--clutter-per-gate", "0.2", "--init-from-regime", "--workers", "2",
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
