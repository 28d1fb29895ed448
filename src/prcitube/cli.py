"""Command-line entry points for the experiment pipeline.

Every subcommand takes --config and optionally --out / --seed overrides,
runs the pipeline up to its stage (reusing the artifacts that the same
config persisted) and exits
nonzero if a stage fails its internal validation.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .errors import PrcitubeError
from .harness import ExperimentConfig, run_pipeline

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prcitube",
        description="Contraction-based tracking with conformal error tubes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("gen-data", "synthesize/verify the metric and generate datasets"),
        ("train", "train the uncertainty predictor"),
        ("calibrate", "score the calibration set and compute the quantile"),
        ("tube", "build the tube and export its 2D projection"),
        ("plan", "tightened planning with two-step calibration"),
        ("evaluate", "run test rollouts and print the coverage summary"),
        ("pipeline", "run every stage end to end"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="flat key=value config file")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
        p.add_argument("--seed", type=int, default=None, help="seed override")
    return parser


def _print_calibration(report: dict) -> None:
    c = report.get("calibration")
    if c:
        q = c["quantile_value"]
        flag = "  [INFINITE: coverage unattainable at this N2, alpha]" if c["infinite"] else ""
        print(
            f"calibration: N2={c['n_cal']} alpha={c['alpha']:g} "
            f"j_alpha={c['quantile_index']} quantile={q}{flag}"
        )


def _print_coverage(report: dict) -> None:
    cov = report.get("coverage")
    if not cov:
        return
    print("coverage summary")
    print(f"  rollouts    : {cov['n_rollouts']}")
    print(f"  contained   : {cov['contained']}")
    fraction = cov["fraction"]
    if not isinstance(fraction, str):   # no rollouts: "nan", printed as the report holds it
        fraction = f"{fraction:.4f}"
    print(f"  fraction    : {fraction}")
    print(f"  tube radius : {cov['radius']}")
    print(f"  envelope worst excess (contained): {cov['envelope_worst_excess_contained']}")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = ExperimentConfig.from_file(args.config)
        if args.out is not None:
            config = replace(config, out_dir=args.out)
        if args.seed is not None:
            config = replace(config, seed=args.seed)
        stage = "evaluate" if args.command == "pipeline" else args.command
        report = run_pipeline(config, stop_after=stage)
    except (PrcitubeError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    if args.command in ("calibrate", "evaluate", "pipeline"):
        _print_calibration(report)
    if args.command in ("evaluate", "pipeline"):
        _print_coverage(report)
    plan = report.get("plan")
    if args.command == "plan" and plan:
        print(
            f"plan: cost={plan['plan_cost']:.6g} converged={plan['plan_converged']} "
            f"violations={plan['plan_violations']}"
        )
    if args.command in ("plan", "pipeline") and plan and not plan["plan_converged"]:
        print("warning: planner did not converge", file=sys.stderr)
    if not report.get("valid", True):
        print("error: a stage failed its internal validation", file=sys.stderr)
        return 1
    print(f"ok: artifacts in {config.out_dir}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
