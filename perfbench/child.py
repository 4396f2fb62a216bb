"""One workload, or one set-up measurement, in a fresh interpreter.

    python3 perfbench/child.py setup WORKLOAD SEED
    python3 perfbench/child.py run WORKLOAD SEED SECONDS TRACE SCRATCH_DIR

run.py starts this with the program's sources on PYTHONPATH and the BLAS
thread pools pinned to one thread. The last line of standard output is one
JSON object.
"""

from __future__ import annotations

import json
import sys
import time


def setup(workload: str, seed: int) -> dict:
    start = time.perf_counter()
    import workloads   # imports filterlab, and with it numpy and scipy.linalg

    workloads.SETUP[workload](seed)
    return {"setup_s": time.perf_counter() - start}


def run(workload: str, seed: int, seconds: float, trace: bool, scratch: str) -> dict:
    import os
    import platform
    import resource
    import shutil
    from pathlib import Path

    import numpy
    import scipy

    import tracing
    import workloads

    notes = []
    out = Path(scratch) / f"{workload}-{os.getpid()}"
    try:
        result = workloads.WORKLOADS[workload](seed, seconds, trace, out, notes)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    tally = result["tally"]
    metrics = result["metrics"]
    payload = {"samples": result["samples"]}
    if trace:
        tracer = result["tracer"]
        with open(Path(scratch) / f"trace-{workload}.csv", "w", encoding="utf-8") as fh:
            fh.write("name,start_s,end_s,parent\n")
            origin = tracer.spans[0][tracing.START] if tracer.spans else 0.0
            for name, start, end, parent in tracer.spans:
                fh.write(f"{name},{start - origin:.9f},{end - origin:.9f},{parent}\n")
        payload["counters"] = dict(sorted(tracer.counters.items()))
    else:
        # The workload process plus its largest child (a pool worker).
        kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
              + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        metrics["peak_rss_mb"] = kb / 1024.0
    payload.update({
        "metrics": metrics,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems,
        "notes": notes,
        "facts": {"python": platform.python_version(), "numpy": numpy.__version__,
                  "scipy": scipy.__version__},
    })
    return payload


if __name__ == "__main__":
    mode, workload, seed, *rest = sys.argv[1:]
    if mode == "setup":
        payload = setup(workload, int(seed))
    else:
        seconds, trace, scratch = rest
        payload = run(workload, int(seed), float(seconds), trace == "1", scratch)
    print(json.dumps(payload))
