#!/usr/bin/env python3
"""Resume speed: the eager dataset loader against the one that parses a CSV
body, or reads an input signal, only when a stage reads it.

    python3 scripts/bench_resume.py [--resumes K] [--full] [--out BENCH_resume.json]

For each perfbench workload (desk3d, plan3d, vtol6d), the seed-0 config is
read from its template in ``perfbench/workloads/`` and run cold once in a
temporary directory.  Then K resumes of ``harness.run_pipeline`` with the
frozen eager loader of ``tests/scalar_oracle.py`` patched in for
``harness.load_dataset`` alternate with K resumes of the tree as it is, the
first of each pair alternating too.  Each side reports the median and
quartiles of its CPU seconds per resume (``time.process_time``, BLAS pinned
to one thread), and what one resume reads and writes (counted in one more
resume per side, outside the timing): its ``TrajectoryRecord.from_csv``
calls, the bytes of JSON text it decodes, the ``*.signal.json`` files it
opens, the files it opens for writing, its reads of the ledger
``provenance.json``, the plant pairs it builds (``harness.benchmark_systems``
calls) and its ``np.linalg.eigvalsh`` calls.  Each row also says whether ``report.json`` kept the
cold run's bytes through every resume.  ``--full`` adds the same row for the full-size
``configs/threeD_desk.toml`` (about 10 s of CPU cold).
"""

from __future__ import annotations

import argparse
import builtins
import dataclasses
import json
import statistics
import sys
import tempfile
from pathlib import Path

import numpy as np

# sets the BLAS thread variables before NumPy loads, and puts src/ and
# tests/ on the path
from bench_simulation import CLOCK, ROOT, harness, machine, oracle, workload_config

from prcitube.systems import TrajectoryRecord

WORKLOADS = ("desk3d", "plan3d", "vtol6d")
RESUMES = 30
FULL_RESUMES = 5


def reads_per_resume(config) -> dict:
    """What one resume of ``config`` reads, writes and builds:
    ``TrajectoryRecord.from_csv`` calls, bytes of JSON text decoded
    (``json.load`` decodes through ``json.loads``), signal files opened,
    files opened for writing and ledger reads (every file the library opens
    goes through ``builtins.open``), plant pairs built and eigenvalue
    decompositions."""
    counts = {"csv_parses_per_resume": 0, "json_bytes_per_resume": 0,
              "signal_files_per_resume": 0, "files_written_per_resume": 0,
              "ledger_reads_per_resume": 0, "plants_built_per_resume": 0,
              "eigvalsh_per_resume": 0}
    from_csv, loads, open_ = TrajectoryRecord.__dict__["from_csv"], json.loads, builtins.open
    plants, eigvalsh = harness.benchmark_systems, np.linalg.eigvalsh

    def counted_from_csv(text):
        counts["csv_parses_per_resume"] += 1
        return from_csv.__func__(text)

    def counted_loads(text, *args, **kwargs):
        counts["json_bytes_per_resume"] += len(text.encode() if isinstance(text, str) else text)
        return loads(text, *args, **kwargs)

    def counted_open(file, mode="r", *args, **kwargs):
        writes = any(c in mode for c in "wax+")
        counts["signal_files_per_resume"] += str(file).endswith(".signal.json")
        counts["files_written_per_resume"] += writes
        counts["ledger_reads_per_resume"] += Path(file).name == harness.LEDGER and not writes
        return open_(file, mode, *args, **kwargs)

    def counted_plants(*args, **kwargs):
        counts["plants_built_per_resume"] += 1
        return plants(*args, **kwargs)

    def counted_eigvalsh(*args, **kwargs):
        counts["eigvalsh_per_resume"] += 1
        return eigvalsh(*args, **kwargs)

    TrajectoryRecord.from_csv = staticmethod(counted_from_csv)
    json.loads, builtins.open = counted_loads, counted_open
    harness.benchmark_systems, np.linalg.eigvalsh = counted_plants, counted_eigvalsh
    try:
        harness.run_pipeline(config)
    finally:
        TrajectoryRecord.from_csv = from_csv
        json.loads, builtins.open = loads, open_
        harness.benchmark_systems, np.linalg.eigvalsh = plants, eigvalsh
    return counts


def resume_row(config, k: int) -> dict:
    """One cold run of ``config``, then k eager and k lazy resumes."""
    out = Path(config.out_dir)
    t0 = CLOCK()
    harness.run_pipeline(config)
    cold_s = CLOCK() - t0
    cold = (out / "report.json").read_bytes()
    lazy_load = harness.load_dataset
    sides = {"eager": oracle.load_dataset, "lazy": lazy_load}
    seconds = {name: [] for name in sides}
    identical = True
    try:
        reads = {}
        for name, loader in sides.items():
            harness.load_dataset = loader
            reads[name] = reads_per_resume(config)
        for i in range(k):
            for name in (("eager", "lazy") if i % 2 == 0 else ("lazy", "eager")):
                harness.load_dataset = sides[name]
                t0 = CLOCK()
                harness.run_pipeline(config)
                seconds[name].append(CLOCK() - t0)
                identical &= (out / "report.json").read_bytes() == cold
    finally:
        harness.load_dataset = lazy_load
    row = {"cold_s": cold_s, "report_identical": identical}
    for name, s in seconds.items():
        q1, _, q3 = statistics.quantiles(s, n=4) if len(s) > 1 else (s[0],) * 3
        row[name] = {"median_s": statistics.median(s), "q1_s": q1, "q3_s": q3, **reads[name]}
    row["ratio"] = row["lazy"]["median_s"] / row["eager"]["median_s"]
    row["pairs_lazy_faster"] = sum(a < b for a, b in zip(seconds["lazy"], seconds["eager"]))
    return row


def report(name: str, row: dict) -> None:
    sides = "; ".join(
        f"{side} {1e3 * r['median_s']:.1f} ms, {r['csv_parses_per_resume']} parses, "
        f"{r['json_bytes_per_resume']} JSON bytes, {r['signal_files_per_resume']} signal files, "
        f"{r['files_written_per_resume']} files written, "
        f"{r['ledger_reads_per_resume']} ledger reads, {r['plants_built_per_resume']} plants built, "
        f"{r['eigvalsh_per_resume']} eigvalsh"
        for side, r in (("eager", row["eager"]), ("lazy", row["lazy"])))
    print(f"{name}: {sides}; ratio {row['ratio']:.3f}, "
          f"report identical: {row['report_identical']}", flush=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--resumes", type=int, default=RESUMES, help="resumes per side and workload")
    ap.add_argument("--full", action="store_true",
                    help="add the full-size threeD_desk row (FULL_RESUMES resumes per side)")
    ap.add_argument("--out", default=str(ROOT / "BENCH_resume.json"))
    args = ap.parse_args(argv)
    if args.resumes < 1:
        ap.error("--resumes must be at least 1")
    result = {
        "machine": machine(),
        "protocol": {"clock": "time.process_time", "seed": 0, "resumes_per_side": args.resumes,
                     "full_size_resumes_per_side": FULL_RESUMES if args.full else None,
                     "statistic": "median and quartiles of CPU seconds per resume",
                     "eager": "tests/scalar_oracle.py load_dataset patched in",
                     "lazy": "harness.load_dataset"},
        "workloads": {},
        "full_size": None,
    }
    with tempfile.TemporaryDirectory() as tmp:
        for workload in WORKLOADS:
            row = resume_row(workload_config(workload, Path(tmp)), args.resumes)
            result["workloads"][workload] = row
            report(workload, row)
        if args.full:
            config = harness.ExperimentConfig.from_file(ROOT / "configs" / "threeD_desk.toml")
            config = dataclasses.replace(config, out_dir=str(Path(tmp) / "threeD_desk"))
            row = resume_row(config, FULL_RESUMES)
            result["full_size"] = {"threeD_desk": row}
            report("threeD_desk (full size)", row)
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
