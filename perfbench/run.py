"""Benchmark entry point; see README.md in this directory.

    python3 perfbench/run.py --workload NAME --seed N [--seconds S] [--trace 0|1]

Runs the workload in a fresh interpreter, checks its outputs, prints every
metric by name with its unit, and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones of BENCHMARK.json, with --trace 1 the per-layer
ones. Exits non-zero when an output check fails or the run cannot start.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SCRATCH = ROOT / ".bench_out"
SETUP_SAMPLES = 7
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # Pool workers plus BLAS threads must not exceed the cores.
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    return env


def run_child(args, deadline: float) -> dict:
    """Run child.py in its own session; kill the session on any exit path."""
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "child.py"), *map(str, args)],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"child {args[:2]} did not finish in time") from None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.communicate()
    if proc.returncode != 0:
        raise BenchError(f"child {args[:2]} exited {proc.returncode}:\n{err[-4000:]}")
    return json.loads(out.strip().splitlines()[-1])


def parse_args(argv):
    p = argparse.ArgumentParser(prog="perfbench")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # A terminated run still unwinds, so run_child kills the child's session.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    start = time.monotonic()
    deadline = start + DEADLINE_S
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (ROOT / "src" / "filterlab" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    load = os.getloadavg()
    SCRATCH.mkdir(exist_ok=True)
    try:
        payload = run_child(["run", args.workload, args.seed, args.seconds, args.trace,
                             SCRATCH], deadline)
        metrics = payload["metrics"]
        if not args.trace:
            # Set-up runs after the workload, so byte-compilation is done.
            setups = [run_child(["setup", args.workload, args.seed], deadline)["setup_s"]
                      for _ in range(SETUP_SAMPLES)]
            metrics["setup_s"] = statistics.median(setups)
            payload["samples"]["setup"] = len(setups)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    specs = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in specs}
    if metrics.keys() != units.keys():
        print(f"error: metrics {sorted(metrics.keys() ^ units.keys())} do not match "
              f"BENCHMARK.json", file=sys.stderr)
        return 1

    facts = payload["facts"]
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"machine: nproc={os.cpu_count()} python={facts['python']} numpy={facts['numpy']} "
          f"scipy={facts['scipy']} loadavg_at_start={load[0]:.2f},{load[1]:.2f},{load[2]:.2f}")
    print("samples: " + " ".join(f"{k}={v}" for k, v in payload["samples"].items()))
    for name in units:
        print(f"  {name:45s} {metrics[name]:>14.6g} {units[name]}")
    attempted, failed = payload["attempted"], payload["failed"]
    print(f"  {'failed_frac':45s} {failed / max(attempted, 1):>14.6g} "
          f"({failed} of {attempted} operations)")
    for key, value in payload.get("counters", {}).items():
        print(f"  counter {key} = {value}")
    for note in payload["notes"]:
        print(f"note: {note}")
    for problem in payload["problems"]:
        print(f"CHECK FAILED: {problem}")
    print(f"elapsed {time.monotonic() - start:.1f} s")
    correct = not payload["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
