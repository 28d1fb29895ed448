"""prcitube pipeline benchmark (see README.md in this directory).

    python3 perfbench/run.py --workload desk3d --seed 0 --seconds 40 --trace 0

Run from the root of a prcitube checkout.  One client, closed loop: each
pipeline starts in a fresh worker process and a fresh temporary output
directory only after the previous one has finished, until ``--seconds`` is
used up.  The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import itertools
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = HERE.parent / "BENCHMARK.json"   # metric names and units
WORKLOADS = ("desk3d", "plan3d", "vtol6d")
PROBE_SHARE = 0.25      # resume-only probes after each pipeline worker, as a share of its time
PROBE_REF_S = 0.040     # worker.speed_probe() time that the end-to-end times are scaled to
BLAS_THREADS = "1"      # one BLAS thread: the matrices are tiny and threads only add noise
HARD_LIMIT_S = 170.0    # a run must end within 180 s whatever happens to a worker
MAX_SECONDS = 120.0     # leaves room under HARD_LIMIT_S for the last pipeline to finish


def units() -> dict:
    """Metric name -> unit, as BENCHMARK.json lists them."""
    spec = json.loads(SPEC.read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def machine() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), model)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "blas_threads": int(BLAS_THREADS),
    }


def worker_env() -> dict:
    """Environment of a worker: no inherited PYTHONPATH, one BLAS thread."""
    return dict(os.environ, PYTHONPATH="", PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS=BLAS_THREADS,
                OMP_NUM_THREADS=BLAS_THREADS, MKL_NUM_THREADS=BLAS_THREADS)


class Bench:
    """Starts workers for one workload and seed inside the checkout."""

    def __init__(self, root: Path, workload: str, seed: int, started: float):
        self.root = root
        self.seed = seed
        self.started = started
        self.template = (HERE / "workloads" / f"{workload}.toml").read_text()
        self.work = root / ".perfbench"
        (self.work / "tmp").mkdir(parents=True, exist_ok=True)
        self.env = worker_env()

    def _start(self, *flags: str) -> dict:
        """One worker process; its JSON result."""
        cmd = [sys.executable, str(HERE / "worker.py"), *flags]
        timeout = max(1.0, HARD_LIMIT_S - (time.perf_counter() - self.started))
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return {"ok": False, "error": f"worker timed out after {timeout:.0f} s"}
        try:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"ok": False, "error": f"worker exit {proc.returncode}, no result"}
        if not result.get("ok"):
            sys.stderr.write(proc.stderr[-4000:])
        return result

    def _worker(self, cfg: Path, *flags: str) -> dict:
        return self._start("--src", str(self.root / "src"), "--config", str(cfg), *flags)

    def _probe(self, cfg: Path) -> dict:
        """A resume-only worker on ``cfg``, then a speed-probe process; the
        worker's result carries the probe's samples."""
        result = self._worker(cfg, "--resume-only")
        speed = self._start("--probe")
        result["probe_samples"] = speed.get("probe_samples", [])
        if not speed.get("ok"):
            result.update(ok=False, error=f"speed probe: {speed.get('error')}")
        return result

    def pipeline(self, spans: Path | None = None, probe_share: float = 0.0) -> list[dict]:
        """A pipeline worker in a fresh directory, then resume-only probes on
        that directory for ``probe_share`` of the worker's time (at least
        one probe when the share is positive), each followed by a
        speed-probe process.  Results, pipeline worker first."""
        tmp = Path(tempfile.mkdtemp(dir=self.work / "tmp"))
        try:
            cfg = tmp / "config.toml"
            cfg.write_text(
                self.template
                + f"seed = {self.seed}\nout_dir = {json.dumps(str(tmp / 'out'))}\n"
            )
            t0 = time.perf_counter()
            results = [self._worker(cfg, *(["--spans", str(spans)] if spans else []))]
            if probe_share > 0 and "pipeline_s" in results[0]:
                until = time.perf_counter() + probe_share * (time.perf_counter() - t0)
                results.append(self._probe(cfg))
                while time.perf_counter() < until:
                    results.append(self._probe(cfg))
            return results
        finally:
            shutil.rmtree(tmp, ignore_errors=True)


def closed_loop(seconds: float, step) -> list:
    """Call ``step()`` back to back; start another only while its median
    duration still fits in ``seconds``.  At least one call."""
    t0 = time.perf_counter()
    results, durations = [], []
    while True:
        s = time.perf_counter()
        results.append(step())
        durations.append(time.perf_counter() - s)
        if time.perf_counter() - t0 + statistics.median(durations) > seconds:
            return results


def reference_failures(workload: str, seed: int, headlines: list[dict]) -> list[str]:
    ref = json.loads((HERE / "reference.json").read_text())
    expected = ref["workloads"][workload].get(str(seed))
    if expected is None:
        print(f"note: reference.json has no seed {seed} for {workload}; headline check skipped",
              file=sys.stderr)
        return []
    bad = []
    for h in headlines:
        for key, want in expected.items():
            got = h.get(key)
            if isinstance(want, float):
                ok = isinstance(got, float) and math.isclose(got, want, rel_tol=ref["rel_tol"])
            else:
                ok = got == want
            if not ok:
                bad.append(f"{key} = {got!r}, reference {want!r}")
    return bad


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="prcitube pipeline benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not 0 < args.seconds <= MAX_SECONDS:
        ap.error(f"--seconds must be above 0 and at most {MAX_SECONDS:g}")
    started = time.perf_counter()
    root = Path.cwd()
    if not (root / "src" / "prcitube" / "__init__.py").is_file():
        print("error: src/prcitube not found; run from the root of a prcitube checkout",
              file=sys.stderr)
        return 2

    bench = Bench(root, args.workload, args.seed, started)
    print(f"machine: {json.dumps(machine())}")
    if args.trace:
        spans_dir = bench.work / "spans"
        spans_dir.mkdir(exist_ok=True)
        counter = itertools.count()

        def pair():
            spans = spans_dir / f"{args.workload}-seed{args.seed}-{next(counter)}.json"
            return bench.pipeline()[0], bench.pipeline(spans=spans)[0]

        pairs = closed_loop(args.seconds, pair)
        untraced = [p for p, _ in pairs]
        traced = [t for _, t in pairs]
        workers = untraced + traced
        probes = []
    else:
        # Machine speed wanders on a scale of seconds, so set-up and resume
        # are sampled after every pipeline rather than once per run.
        steps = closed_loop(args.seconds, lambda: bench.pipeline(probe_share=PROBE_SHARE))
        workers = [s[0] for s in steps]
        probes = [p for s in steps for p in s[1:]]
        traced = []

    everything = probes + workers
    failed = [w for w in everything if not w.get("ok")]
    for w in failed:
        print(f"failed: {w.get('error') or '; '.join(w.get('failures', []))}", file=sys.stderr)
    good = [w for w in workers if "pipeline_s" in w]   # measured, checks passed or not
    if not good:
        print("error: no pipeline completed", file=sys.stderr)
        return 1
    ref_bad = reference_failures(args.workload, args.seed, [w["headline"] for w in good])
    for msg in ref_bad:
        print(f"reference mismatch: {msg}", file=sys.stderr)

    if args.trace:
        good_traced = [w for w in traced if "layers" in w]
        if not good_traced:
            print("error: no traced pipeline completed", file=sys.stderr)
            return 1
        metrics = {k: statistics.median(w["layers"][k] for w in good_traced)
                   for k in good_traced[0]["layers"]}
        metrics["trace.untraced_pipeline_s"] = statistics.median(
            w["pipeline_s"] for w in untraced if "pipeline_s" in w)
        metrics["trace.overhead_s"] = metrics["trace.pipeline_s"] - metrics["trace.untraced_pipeline_s"]
    else:
        raw = {
            "setup_s": statistics.median(w["setup_s"] for w in everything if "setup_s" in w),
            "pipeline_s": statistics.median(w["pipeline_s"] for w in good),
            "resume_s": statistics.median(
                t for w in everything for t in w.get("resume_samples", ())),
        }
        # On the shared VM, CPU time drifts by up to a third in regimes that
        # last minutes.  A fixed probe timed throughout the run drifts with
        # it, so the times are reported at the probe's reference speed.
        probe = [t for w in everything for t in w.get("probe_samples", ())]
        if not probe:
            print("error: no speed-probe sample", file=sys.stderr)
            return 1
        scale = PROBE_REF_S / statistics.median(probe)
        print(f"speed probe: median {statistics.median(probe) * 1e3:.2f} ms over {len(probe)} "
              f"samples, scale {scale:.4f}; unscaled CPU seconds: "
              + ", ".join(f"{k} {v:.4f}" for k, v in raw.items()))
        metrics = {k: v * scale for k, v in raw.items()}
        metrics["peak_rss_mb"] = statistics.median(w["peak_rss_mb"] for w in good)
        metrics["records_realized_frac"] = min(
            w["realized"] / w["requested"] if w.get("ok") else 0.0 for w in workers)

    print(f"workload {args.workload}, seed {args.seed}: {len(workers)} pipelines, one client, "
          f"closed loop, {time.perf_counter() - started:.1f} s; median cold wall time "
          f"{statistics.median(w['pipeline_wall_s'] for w in good):.3f} s")
    unit = units()
    for name, value in metrics.items():
        print(f"{name} = {value!r} {unit[name]}")
    result = {
        "correct": not failed and not ref_bad,
        "attempted": len(everything),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": unit[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
