"""One benchmark pipeline in a fresh process.

    python3 perfbench/worker.py --src src --config CFG [--spans FILE]
    python3 perfbench/worker.py --src src --config CFG --resume-only
    python3 perfbench/worker.py --probe

Times the set-up (import prcitube, parse the config, build the plant pair),
one cold ``harness.run_pipeline`` into the config's empty ``out_dir`` and
``RESUMES`` further runs on the populated directory, then checks the
outputs.  ``--resume-only`` skips the cold run and resumes on a directory an
earlier worker populated.  With ``--spans`` the runs are traced (see
tracer.py) and the spans are written to FILE.  ``--probe`` only times
``speed_probe()``, in a process that never imports prcitube.  The last stdout
line is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import marshal
import math
import resource
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

# The pipeline is single-threaded (run.py pins BLAS to one thread), so its CPU
# time is the wall time it would take on an idle machine; on a shared VM the
# wall clock also counts time the hypervisor gave to other guests.
CLOCK = time.process_time
RADIUS_REL_TOL = 1e-12
RESUMES = 3          # resumed runs per worker process
PROBE_SAMPLES = 4    # speed_probe() samples per --probe process, after one warm-up call


def speed_probe() -> float:
    """CPU seconds of a fixed mix of the work that set-up and resume do:
    byte-code compilation (imports), JSON and CSV parsing, and small NumPy
    steps.  Its code lives in the benchmark and runs in a process of its own
    that imports only NumPy, so its time moves only with the speed of the
    machine."""
    import numpy as np

    source = "\n".join(
        f"def f{i}(x, y={i}):\n    return [x * y + k for k in range({i % 7})]\n" for i in range(400)
    )
    payload = {"scores": [i * 0.001 for i in range(6000)], "ids": [f"rec-{i:04d}" for i in range(600)]}
    csv = "\n".join(",".join(f"{(r * 7 + c) * 0.001:.17g}" for c in range(8)) for r in range(600))
    t0 = CLOCK()
    marshal.loads(marshal.dumps(compile(source, "probe", "exec")))
    json.loads(json.dumps(payload))
    np.loadtxt(io.StringIO(csv), delimiter=",", ndmin=2)
    a = np.array([[-1.0, 0.5, 0.0], [0.0, -1.0, 0.5], [0.5, 0.0, -1.0]])
    b = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
    x = np.ones(3)
    for _ in range(400):
        x = x + 0.01 * (a @ x + b @ (np.linalg.pinv(b) @ x))
    return CLOCK() - t0


def setup(src: str, config_path: str):
    """The timed set-up; returns (harness module, config, seconds)."""
    t0 = CLOCK()
    sys.path.insert(0, src)
    from prcitube import harness

    config = harness.ExperimentConfig.from_file(config_path)
    harness.benchmark_systems(config)
    elapsed = CLOCK() - t0
    src_dir = Path(src).resolve()
    if src_dir not in Path(harness.__file__).resolve().parents:
        raise RuntimeError(f"prcitube imported from {harness.__file__}, not from {src_dir}")
    return harness, config, elapsed


def conformal_order(n: int, alpha: float) -> int:
    """ceil((1 - alpha)(n + 1)) in exact arithmetic, independent of prcitube."""
    target = (1 - Fraction(alpha)) * (n + 1)
    return -((-target.numerator) // target.denominator)


def check_outputs(out: Path, report: dict) -> list[str]:
    """Invariants every benchmark run must satisfy; returns the failures."""
    bad = []
    if report.get("valid") is not True:
        bad.append("report.valid is not true")
    if report.get("metric", {}).get("verification_passed") is not True:
        bad.append("metric.verification_passed is not true")
    if bad:
        return bad
    cal = json.loads((out / "calibration.json").read_text())
    scores = cal["scores"]
    j = conformal_order(len(scores), cal["alpha"])
    if scores != sorted(scores):
        bad.append("calibration.json scores are not sorted")
    if cal["quantile_index"] != j:
        bad.append(f"quantile_index {cal['quantile_index']} != conformal index {j}")
    expected_q = scores[j - 1] if j <= len(scores) else "inf"
    if cal["quantile_value"] != expected_q:
        bad.append(f"quantile_value {cal['quantile_value']} != order statistic {expected_q}")
    rc = report["calibration"]
    if (rc["quantile_index"], rc["quantile_value"]) != (cal["quantile_index"], cal["quantile_value"]):
        bad.append("report.calibration disagrees with calibration.json")
    m = report["metric"]
    if isinstance(cal["quantile_value"], float):
        radius = math.sqrt(m["m_upper"]) * cal["quantile_value"] / m["lambda"]
        if not math.isclose(report["tube"]["radius"], radius, rel_tol=RADIUS_REL_TOL):
            bad.append(f"tube radius {report['tube']['radius']} != sqrt(m_upper) q / lambda = {radius}")
    if report["coverage"]["radius"] != report["tube"]["radius"]:
        bad.append("coverage radius differs from tube radius")
    return bad


def record_counts(out: Path, config) -> tuple[int, int]:
    """(requested, realized) records: ref, train, cal and test, plus the
    two-step calibration and end-to-end rollouts when planning."""
    def manifest(name):
        return len(json.loads((out / name / "manifest.json").read_text())["entries"])

    requested = (config.n_train + config.n_cal) + config.n_train + config.n_cal + config.n_test
    realized = manifest("ref_data") + manifest("train_data") + manifest("cal_data")
    realized += json.loads((out / "test" / "coverage.json").read_text())["n_rollouts"]
    if config.plan_enabled:
        requested += config.n_test
        if config.two_step:
            requested += config.n_cal - int(round(config.two_step_fraction * config.n_cal))
            tracking = json.loads((out / "plan" / "calibration_tracking.json").read_text())
            realized += len(tracking["scores"])
        plan_report = json.loads((out / "plan" / "plan_report.json").read_text())
        realized += plan_report["end_to_end"]["n_rollouts"]
    return requested, realized


def headline(report: dict) -> dict:
    h = {
        "lambda": report["metric"]["lambda"],
        "quantile": report["calibration"]["quantile_value"],
        "radius": report["tube"]["radius"],
        "contained": report["coverage"]["contained"],
    }
    if "plan" in report:
        h["plan_cost"] = report["plan"]["plan_cost"]
    return h


def run(harness, config, resumes: int = RESUMES, tracer=None, cold=True) -> dict:
    """Cold pipeline (unless ``cold`` is false: the directory is already
    populated) plus resumes; checks and counts.  Raises on pipeline errors."""
    out = Path(config.out_dir)

    def timed(name):
        t0 = CLOCK()
        with (tracer.span(name) if tracer else contextlib.nullcontext()) as span:
            report = harness.run_pipeline(config)
        return report, CLOCK() - t0, span

    result: dict = {"failures": []}
    if cold:
        wall = time.perf_counter()
        report, result["pipeline_s"], cold_span = timed("pipeline.cold")
        result["pipeline_wall_s"] = time.perf_counter() - wall
        result["failures"] = check_outputs(out, report)
        result["headline"] = headline(report)
        result["requested"], result["realized"] = record_counts(out, config)
    cold_bytes = (out / "report.json").read_bytes()
    result["resume_samples"], resume_spans = [], []
    for _ in range(resumes):
        _, t, span = timed("pipeline.resume")
        result["resume_samples"].append(t)
        resume_spans.append(span)
        if (out / "report.json").read_bytes() != cold_bytes:
            result["failures"].append("resumed report.json differs from the cold one")
    if tracer is not None:
        import tracer as tracer_mod

        result["layers"] = tracer_mod.layer_metrics(tracer, cold_span, resume_spans[0])
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", help="directory that holds the prcitube package")
    ap.add_argument("--config", help="generated flat config")
    ap.add_argument("--spans", default=None, help="trace the runs and write spans here")
    ap.add_argument("--resume-only", action="store_true",
                    help="skip the cold run: out_dir is already populated")
    ap.add_argument("--probe", action="store_true",
                    help="only time speed_probe(); --src and --config are not used")
    args = ap.parse_args(argv)
    if args.probe:
        speed_probe()
        print(json.dumps({"ok": True, "probe_samples": [speed_probe() for _ in range(PROBE_SAMPLES)]}))
        return 0
    if not (args.src and args.config):
        ap.error("--src and --config are required")

    out: dict = {"ok": False}
    try:
        harness, config, out["setup_s"] = setup(args.src, args.config)
        if args.spans:
            import tracer as tracer_mod

            tr = tracer_mod.Tracer()
            with tr.installed():
                out.update(run(harness, config, tracer=tr))
            tr.write(args.spans, {"config": config.to_dict()})
        else:
            out.update(run(harness, config, cold=not args.resume_only))
        out["ok"] = not out["failures"]
    except Exception as err:  # report any failure as data; run.py counts it
        out["error"] = f"{type(err).__name__}: {err}"
        traceback.print_exc(file=sys.stderr)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
