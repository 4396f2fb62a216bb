"""Record reference.json: each workload's output at the default seed.

    PYTHONPATH=src python3 perfbench/record_reference.py

Run it only when a change is meant to alter the program's results, and say
so in that change. The output checks compare against these values with the
tolerances stated in workloads.py.
"""

from __future__ import annotations

import json
import shutil

import workloads as w


def record() -> dict:
    out = w.REFERENCE.parent.parent / ".bench_out" / "reference-run"
    shutil.rmtree(out, ignore_errors=True)
    code, _ = w.run_cli(w.mc_argv(w.DEFAULT_SEED, out, w.MC_WORKERS))
    assert code == 0
    o = w.read_mc_output(out)
    shutil.rmtree(out)
    mc = {"lost": o["lost"], "n_eff": o["n_eff"],
          "summary_blocks": {k: w._blocks(v) for k, v in o["summary"].items() if k != "k"}}

    ctx = w.track_context(w.DEFAULT_SEED)
    tracks = []
    for i in range(w.REFERENCE_TRACKS):
        beliefs, failed = w.run_track(ctx, *w.track_inputs(ctx, i), [])
        assert not failed
        tracks.append({f: {"mean": b.mean.tolist(), "cov": b.cov.tolist()}
                       for f, b in beliefs.items()})

    code, text = w.run_cli(w.CAL_ARGV + ["--seed", str(w.DEFAULT_SEED)])
    assert code == 0
    return {"mc_heavy_tail": mc, "track_stream": tracks, "calibrate": w.parse_calibrate(text)}


if __name__ == "__main__":
    w.REFERENCE.write_text(json.dumps(record(), indent=1) + "\n")
