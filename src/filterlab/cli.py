"""Command-line entry points: the benchmark runner and mixing calibration."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .harness import ScenarioConfig, emit_csv, run_monte_carlo
from .nvmf import calibrate_mixing
from .specfun import RngStream


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="filterlab")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a Monte Carlo tracking benchmark")
    run_p.add_argument("--config", type=str, default=None,
                       help="JSON file with ScenarioConfig fields; flags override it")
    run_p.add_argument("--noise", choices=["gaussian", "gu", "t"], default=None)
    run_p.add_argument("--trials", type=int, default=None)
    run_p.add_argument("--updates", type=int, default=None)
    run_p.add_argument("--seed", type=int, default=None)
    run_p.add_argument("--filters", default=None,
                       type=lambda text: tuple(f.strip() for f in text.split(",") if f.strip()),
                       help="comma-separated subset of kf,nvmf,pdaf,kfor")
    run_p.add_argument("--out", type=str, required=True)
    run_p.add_argument("--k-star", type=int, default=None)
    run_p.add_argument("--alpha", type=float, default=None)
    run_p.add_argument("--beta", type=float, default=None)
    run_p.add_argument("--workers", type=int, default=None)

    cal_p = sub.add_parser("calibrate", help="derive mixing shape/scale from (r_out, rho)")
    cal_p.add_argument("--r-out", type=float, required=True)
    cal_p.add_argument("--rho", type=float, required=True)
    cal_p.add_argument("--r-regular", type=float, required=True)
    cal_p.add_argument("--dim", type=int, default=2)
    cal_p.add_argument("--samples", type=int, default=100_000)
    cal_p.add_argument("--seed", type=int, default=0)
    return parser


def _run(args) -> int:
    kwargs = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            kwargs.update(json.load(fh))
    # Each run flag's dest is the name of the ScenarioConfig field it sets.
    fields = {f.name for f in dataclasses.fields(ScenarioConfig)}
    kwargs.update((k, v) for k, v in vars(args).items() if k in fields and v is not None)
    config = ScenarioConfig(**kwargs)
    summary, trials = run_monte_carlo(config)
    paths = emit_csv(trials, summary, args.out)
    print(f"N={summary.n_trials} N_eff={summary.n_eff}")
    for f in summary.filters:
        print(f"{f}: lost_tracks={summary.lost_tracks[f]}")
    for path in paths:
        print(f"wrote {path}")
    return 0


def _calibrate(args) -> int:
    rng = RngStream(args.seed)
    mixing, residual = calibrate_mixing(
        r_out=args.r_out,
        rho=args.rho,
        r_regular=args.r_regular,
        M=args.dim,
        n_samples=args.samples,
        rng=rng,
    )
    print(f"alpha={mixing.alpha:.6g}")
    print(f"beta={mixing.beta:.6g}")
    print(f"residual={residual:.6e}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _run(args)
        return _calibrate(args)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
