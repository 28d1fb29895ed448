#!/usr/bin/env python3
"""Byte identity of the pipeline outputs of two source trees.

    python3 scripts/check_identical.py --parent OLD --change NEW [--seeds 0 2 5]
                                       [--workloads desk3d plan3d vtol6d]

OLD and NEW are checkouts, or their ``src`` directories.  For each perfbench
workload and seed, the workload's template in ``perfbench/workloads/`` (read,
never written) plus ``seed`` and ``out_dir`` becomes a config file in a
temporary directory.  Each tree then runs ``harness.run_pipeline`` on it cold,
in a fresh process with BLAS pinned to one thread, into the same ``out_dir``
path (the first tree's output is moved aside), because ``config.json`` and
``report.json`` record that path.  Every file of the two output trees is
compared byte for byte.

Prints one line per workload and seed and one per differing file, and exits 1
on any difference (a file on one side only counts, as does a run that fails),
else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("desk3d", "plan3d", "vtol6d")

RUN = """
import sys
from pathlib import Path
src = Path(sys.argv[1]).resolve()
sys.path.insert(0, str(src))
from prcitube import harness
if src not in Path(harness.__file__).resolve().parents:
    sys.exit(f"prcitube imported from {harness.__file__}, not from {src}")
harness.run_pipeline(harness.ExperimentConfig.from_file(sys.argv[2]))
"""


def source_dir(tree: str) -> Path:
    path = Path(tree).resolve()
    src = path / "src" if (path / "src" / "prcitube").is_dir() else path
    if not (src / "prcitube").is_dir():
        raise SystemExit(f"{tree}: no prcitube package (looked in {src})")
    return src


def run(src: Path, config: Path) -> str:
    """Run the pipeline of ``src`` on ``config``; the error text, or ''."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", RUN, str(src), str(config)],
                          env=env, capture_output=True, text=True)
    return "" if done.returncode == 0 else (done.stderr.strip().splitlines() or ["failed"])[-1]


def files(top: Path) -> dict:
    return {p.relative_to(top).as_posix(): p for p in sorted(top.rglob("*")) if p.is_file()}


def compare(a: Path, b: Path) -> list[str]:
    """Relative paths that differ between the trees a and b."""
    fa, fb = files(a), files(b)
    return [name for name in sorted(set(fa) | set(fb))
            if name not in fa or name not in fb or fa[name].read_bytes() != fb[name].read_bytes()]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="the old checkout or its src directory")
    ap.add_argument("--change", required=True, help="the new checkout or its src directory")
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 2, 5])
    ap.add_argument("--workloads", nargs="+", default=list(WORKLOADS), choices=WORKLOADS)
    args = ap.parse_args(argv)
    trees = {"parent": source_dir(args.parent), "change": source_dir(args.change)}

    differing = 0
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for workload in args.workloads:
            template = (ROOT / "perfbench" / "workloads" / f"{workload}.toml").read_text()
            for seed in args.seeds:
                out = tmp / "out"
                config = tmp / f"{workload}-{seed}.toml"
                config.write_text(template + f"seed = {seed}\nout_dir = {json.dumps(str(out))}\n")
                errors, kept = {}, {}
                for side, src in trees.items():
                    errors[side] = run(src, config)
                    kept[side] = tmp / f"{workload}-{seed}-{side}"
                    if out.exists():
                        out.rename(kept[side])
                    else:                   # the run failed before writing anything
                        kept[side].mkdir()
                bad = [f"{side} failed: {err}" for side, err in errors.items() if err]
                bad += [] if bad else compare(kept["parent"], kept["change"])
                n_files = len(files(kept["change"]))
                verdict = "identical" if not bad else f"{len(bad)} differing"
                print(f"{workload} seed {seed}: {n_files} files, {verdict}", flush=True)
                for line in bad:
                    print(f"  {line}", flush=True)
                differing += len(bad)
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
