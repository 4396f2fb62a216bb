"""Span recording for the traced run, and the per-layer metrics built from it.

The recorder replaces the module attributes through which callers reach
each layer (for example ``filterlab.harness.nvmf_update``, the name the
harness imported) with wrappers that record one span per call: name,
start, end and the index of the enclosing span. Spans stay in memory until
the run ends. Observers attached to a wrapper read exact counts (EM
iterations, flagged components, normals drawn) from the call's arguments
and result, so the counts are taken where the work happens.
"""

from __future__ import annotations

import collections
import importlib
import math
import time

import numpy as np

NAME, START, END, PARENT = range(4)


class Tracer:
    """In-memory span recorder. One instance per traced pass."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self.counters = collections.Counter()
        self.kept = []           # run_trial results, measured after the pass
        self._stack = []
        self._patches = []
        self.missing = []

    def inside(self, name: str) -> bool:
        spans = self.spans
        return any(spans[i][NAME] == name for i in self._stack)

    def open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), math.nan,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        self._stack.pop()

    def wrap(self, owner, attr: str, name: str, observe=None) -> bool:
        original = getattr(owner, attr, None)
        if original is None:
            return False
        tracer = self

        def traced(*args, **kwargs):
            index = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(index)
            if observe is not None:
                observe(tracer, args, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))
        return True

    def install(self, table) -> None:
        """Wrap every (dotted owner, attribute, span, observer) row that
        still exists; a row whose owner or attribute is gone is recorded in
        ``missing`` and skipped."""
        for owner_path, attr, name, observe in table:
            owner = _resolve(owner_path)
            if owner is None or not self.wrap(owner, attr, name, observe):
                self.missing.append(f"{owner_path}.{attr}")

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def _resolve(path: str):
    """Module or module-level class named by a dotted path, or None."""
    try:
        return importlib.import_module(path)
    except ImportError:
        module_path, _, cls = path.rpartition(".")
        try:
            return getattr(importlib.import_module(module_path), cls, None)
        except ImportError:
            return None


def self_times(spans) -> list:
    """Each span's duration minus the part of it its child spans cover."""
    children = collections.defaultdict(list)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    out = []
    for i, span in enumerate(spans):
        start, end = span[START], span[END]
        covered, cursor = 0.0, start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append(end - start - covered)
    return out


# Observers. Each reads one call's arguments and result into the counters.

def observe_normals(tracer, args, result):
    n = int(np.size(result))
    tracer.counters["specfun.rng.normals_drawn"] += n
    if tracer.inside("specfun.sample_gamma"):
        tracer.counters["specfun.sample_gamma.normals"] += n


def observe_gamma(tracer, args, result):
    tracer.counters["specfun.sample_gamma.samples"] += int(np.size(result))


def observe_trial(tracer, args, result):
    tracer.kept.append(result)


def observe_emit(tracer, args, result):
    tracer.counters["harness.emit_csv.bytes"] += sum(p.stat().st_size for p in result)


def build_table(adapters) -> tuple:
    """The wrapped names: every caller-side name of each layer's entry
    point. The filter rows come from the benchmark's adapter table, once
    for the harness's import and once for the package namespace the
    library workload calls through."""
    rows = [
        ("filterlab.cli", "run_monte_carlo", "harness.run_monte_carlo", None),
        ("filterlab.cli", "emit_csv", "harness.emit_csv", observe_emit),
        ("filterlab.cli", "calibrate_mixing", "nvmf.calibrate", None),
        ("filterlab.harness", "run_trial", "harness.run_trial", observe_trial),
        ("filterlab.harness", "simulate_truth", "harness.simulate", None),
        ("filterlab", "simulate_truth", "harness.simulate", None),
        ("filterlab.harness", "sample_noise", "noise.sample_noise", None),
        ("filterlab", "sample_noise", "noise.sample_noise", None),
        ("filterlab.harness", "predict", "statespace.predict", None),
        ("filterlab", "predict", "statespace.predict", None),
        ("filterlab.harness", "pcrlb_recursion", "kalman.pcrlb_recursion", None),
        ("filterlab.harness", "detect_divergence", "metrics.detect_divergence", None),
        ("filterlab.harness", "consistency_interval", "metrics.consistency_interval", None),
        ("filterlab.harness", "sample_mvn", "specfun.sample_mvn", None),
        ("filterlab.noise", "sample_mvn", "specfun.sample_mvn", None),
        ("filterlab.noise", "sample_inverse_gamma", "specfun.sample_inverse_gamma", None),
        ("filterlab.nvmf", "sample_inverse_gamma", "specfun.sample_inverse_gamma", None),
        ("filterlab.nvmf", "inv_reg_lower_inc_gamma", "specfun.inv_reg_lower_inc_gamma", None),
        ("filterlab.specfun", "sample_gamma", "specfun.sample_gamma", observe_gamma),
        ("filterlab.specfun.RngStream", "standard_normal", "specfun.rng.standard_normal",
         observe_normals),
        ("filterlab.specfun.RngStream", "uniform", "specfun.rng.uniform", None),
    ]
    for adapter in adapters.values():
        for owner in ("filterlab.harness", "filterlab"):
            rows.append((owner, adapter.attr, adapter.span, adapter.observe))
    return tuple(rows)


# Per-layer metrics: name -> unit. The order is the order they print in.
LAYER_METRICS = {
    "nvmf.update.us_per_call": "us",
    "nvmf.update.us_p99": "us",
    "nvmf.update.calls": "count",
    "nvmf.em_iters.mean": "count",
    "nvmf.em_iters.max": "count",
    "nvmf.em_iters.hist.1": "count",
    "nvmf.em_iters.hist.2": "count",
    "nvmf.em_iters.hist.3": "count",
    "nvmf.em_iters.hist.4": "count",
    "nvmf.em_iters.hist.5-9": "count",
    "nvmf.em_iters.hist.10plus": "count",
    "nvmf.em_cap_hits": "count",
    "nvmf.correction_fallbacks": "count",
    "nvmf.us_per_em_iter": "us",
    "nvmf.calibrate.self_s": "s",
    "baselines.pdaf_update.us_per_call": "us",
    "baselines.pdaf.gated_out_frac": "frac",
    "baselines.kfor_update.us_per_call": "us",
    "baselines.kfor.flagged_frac": "frac",
    "kalman.kf_update.us_per_call": "us",
    "kalman.pcrlb_recursion.us_per_call": "us",
    "statespace.predict.us_per_call": "us",
    "statespace.predict.calls": "count",
    "noise.sample_noise.us_per_call": "us",
    "noise.sample_noise.calls": "count",
    "specfun.sample_gamma.ms_per_call": "ms",
    "specfun.sample_gamma.accept_ratio": "ratio",
    "specfun.rng.normals_drawn": "count",
    "specfun.sample_inverse_gamma.us_per_call": "us",
    "specfun.sample_mvn.us_per_call": "us",
    "specfun.inv_reg_lower_inc_gamma.us_per_call": "us",
    "metrics.detect_divergence.us_per_call": "us",
    "metrics.consistency_interval.ms": "ms",
    "harness.run_trial.ms_p50": "ms",
    "harness.run_trial.ms_p90": "ms",
    "harness.run_trial.self_ms": "ms",
    "harness.simulate.ms_per_trial": "ms",
    "harness.aggregate_s": "s",
    "harness.emit_csv_s": "s",
    "harness.emit_csv.bytes": "bytes",
    "harness.pool.pickle_bytes_per_trial": "bytes",
    "harness.pool.speedup": "ratio",
    "cli.self_ms": "ms",
    "trace.overhead_frac": "frac",
    "trace.coverage": "frac",
}

# Counters that must repeat exactly between two traced passes.
EXACT_COUNTERS = (
    "nvmf.em_iters", "nvmf.em_cap_hits", "nvmf.correction_fallbacks",
    "baselines.kfor.flagged", "baselines.kfor.components", "baselines.pdaf.gated_out",
    "specfun.rng.normals_drawn", "specfun.sample_gamma.normals",
    "specfun.sample_gamma.samples", "harness.emit_csv.bytes",
)


def exact_counts(tracer: Tracer) -> dict:
    """Counters plus per-span call counts: the part of a traced pass that is
    a pure function of the inputs."""
    counts = {k: v for k, v in tracer.counters.items()
              if k in EXACT_COUNTERS or k.startswith("nvmf.em_iters.hist.")}
    for name, n in collections.Counter(s[NAME] for s in tracer.spans).items():
        counts[f"calls.{name}"] = n
    return counts


def _hist_bucket(iters: int) -> str:
    if iters <= 4:
        return str(iters)
    return "5-9" if iters <= 9 else "10plus"


def layer_metrics(tracer: Tracer, traced_wall: float, untraced_wall: float,
                  pool_speedup: float, pickle_bytes: list) -> dict:
    """Per-layer metric values from one traced pass. A layer the workload
    does not reach reports 0."""
    spans = tracer.spans
    selfs = self_times(spans)
    dur = collections.defaultdict(list)
    own = collections.defaultdict(float)
    for span, self_s in zip(spans, selfs):
        dur[span[NAME]].append(span[END] - span[START])
        own[span[NAME]] += self_s
    c = tracer.counters

    def mean(name, scale):
        d = dur.get(name)
        return scale * float(np.mean(d)) if d else 0.0

    def pct(name, q, scale):
        d = dur.get(name)
        return scale * float(np.percentile(d, q)) if d else 0.0

    def per(total, count):
        return total / count if count else 0.0

    hist = collections.Counter()
    for key, n in c.items():
        if key.startswith("nvmf.em_iters.hist."):
            hist[_hist_bucket(int(key.rsplit(".", 1)[1]))] += n
    nvmf_calls = len(dur.get("nvmf.update", ()))
    iters = [int(k.rsplit(".", 1)[1]) for k in c if k.startswith("nvmf.em_iters.hist.")]
    trials = len(dur.get("harness.run_trial", ()))
    mc_calls = len(dur.get("harness.run_monte_carlo", ()))
    emit_calls = len(dur.get("harness.emit_csv", ()))
    cli_calls = len(dur.get("cli.main", ()))

    return {
        "nvmf.update.us_per_call": mean("nvmf.update", 1e6),
        "nvmf.update.us_p99": pct("nvmf.update", 99, 1e6),
        "nvmf.update.calls": nvmf_calls,
        "nvmf.em_iters.mean": per(c["nvmf.em_iters"], nvmf_calls),
        "nvmf.em_iters.max": max(iters, default=0),
        "nvmf.em_iters.hist.1": hist["1"],
        "nvmf.em_iters.hist.2": hist["2"],
        "nvmf.em_iters.hist.3": hist["3"],
        "nvmf.em_iters.hist.4": hist["4"],
        "nvmf.em_iters.hist.5-9": hist["5-9"],
        "nvmf.em_iters.hist.10plus": hist["10plus"],
        "nvmf.em_cap_hits": c["nvmf.em_cap_hits"],
        "nvmf.correction_fallbacks": c["nvmf.correction_fallbacks"],
        "nvmf.us_per_em_iter": per(1e6 * sum(dur.get("nvmf.update", ())), c["nvmf.em_iters"]),
        "nvmf.calibrate.self_s": per(own["nvmf.calibrate"], len(dur.get("nvmf.calibrate", ()))),
        "baselines.pdaf_update.us_per_call": mean("baselines.pdaf_update", 1e6),
        "baselines.pdaf.gated_out_frac": per(c["baselines.pdaf.gated_out"],
                                             len(dur.get("baselines.pdaf_update", ()))),
        "baselines.kfor_update.us_per_call": mean("baselines.kfor_update", 1e6),
        "baselines.kfor.flagged_frac": per(c["baselines.kfor.flagged"],
                                           c["baselines.kfor.components"]),
        "kalman.kf_update.us_per_call": mean("kalman.kf_update", 1e6),
        "kalman.pcrlb_recursion.us_per_call": mean("kalman.pcrlb_recursion", 1e6),
        "statespace.predict.us_per_call": mean("statespace.predict", 1e6),
        "statespace.predict.calls": len(dur.get("statespace.predict", ())),
        "noise.sample_noise.us_per_call": mean("noise.sample_noise", 1e6),
        "noise.sample_noise.calls": len(dur.get("noise.sample_noise", ())),
        "specfun.sample_gamma.ms_per_call": mean("specfun.sample_gamma", 1e3),
        "specfun.sample_gamma.accept_ratio": per(c["specfun.sample_gamma.samples"],
                                                 c["specfun.sample_gamma.normals"]),
        "specfun.rng.normals_drawn": c["specfun.rng.normals_drawn"],
        "specfun.sample_inverse_gamma.us_per_call": mean("specfun.sample_inverse_gamma", 1e6),
        "specfun.sample_mvn.us_per_call": mean("specfun.sample_mvn", 1e6),
        "specfun.inv_reg_lower_inc_gamma.us_per_call": mean("specfun.inv_reg_lower_inc_gamma",
                                                            1e6),
        "metrics.detect_divergence.us_per_call": mean("metrics.detect_divergence", 1e6),
        "metrics.consistency_interval.ms": mean("metrics.consistency_interval", 1e3),
        "harness.run_trial.ms_p50": pct("harness.run_trial", 50, 1e3),
        "harness.run_trial.ms_p90": pct("harness.run_trial", 90, 1e3),
        "harness.run_trial.self_ms": per(1e3 * own["harness.run_trial"], trials),
        "harness.simulate.ms_per_trial": per(1e3 * sum(dur.get("harness.simulate", ())), trials),
        "harness.aggregate_s": per(sum(dur.get("harness.run_monte_carlo", ()))
                                   - sum(dur.get("harness.run_trial", ())), mc_calls),
        "harness.emit_csv_s": mean("harness.emit_csv", 1.0),
        "harness.emit_csv.bytes": per(c["harness.emit_csv.bytes"], emit_calls),
        "harness.pool.pickle_bytes_per_trial": float(np.mean(pickle_bytes)) if pickle_bytes
        else 0.0,
        "harness.pool.speedup": pool_speedup,
        "cli.self_ms": per(1e3 * own["cli.main"], cli_calls),
        "trace.overhead_frac": traced_wall / untraced_wall - 1.0,
        "trace.coverage": sum(selfs) / traced_wall,
    }
