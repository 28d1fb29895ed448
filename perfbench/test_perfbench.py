"""Tests of the benchmark itself, on smoke-size configs (a few seconds each).

    python3 -m pytest perfbench -q

Not part of the tier-1 suite (pyproject's testpaths is tests/).
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
from prcitube import harness  # noqa: E402

SMOKE = """
benchmark = "threeD"
seed = 3
n_train = 2
n_cal = 3
n_test = 2
horizon_s = 1.0
dt_s = 0.01
alpha = 0.25
predictor_family = "linear_features"
predictor_degree = 2
metric_grid_points = 3
"""

SMOKE_PLAN = SMOKE.replace("n_cal = 3", "n_cal = 4").replace("alpha = 0.25", "alpha = 0.35") + """
init_box = [-0.7, 0.7, -0.7, 0.7, -0.7, 0.7]
input_knot_amp = 0.3
input_knot_trim_start = true
plan_enabled = true
two_step = true
plan_start = [0.6, 0.4, 0.24]
plan_goal = [-0.5, 0.25, -0.2]
plan_max_iter = 2
"""


def _config(tmp_path, text, name="out"):
    path = tmp_path / f"{name}.toml"
    path.write_text(text + f"out_dir = {json.dumps(str(tmp_path / name))}\n")
    return path, harness.ExperimentConfig.from_file(path)


@pytest.mark.parametrize("text", [SMOKE, SMOKE_PLAN], ids=["smoke", "smoke_plan"])
def test_traced_report_is_byte_identical(tmp_path, text):
    _, config = _config(tmp_path, text)
    out = Path(config.out_dir)
    plain = worker.run(harness, config, resumes=1)
    plain_bytes = (out / "report.json").read_bytes()
    probe = worker.run(harness, config, resumes=2, cold=False)
    assert probe["failures"] == [] and len(probe["resume_samples"]) == 2
    shutil.rmtree(out)

    tr = tracer.Tracer()
    with tr.installed():
        traced = worker.run(harness, config, resumes=1, tracer=tr)
    assert (out / "report.json").read_bytes() == plain_bytes
    assert plain["failures"] == traced["failures"] == []
    assert tracer.patched_sites() == []

    layers = traced["layers"]
    assert layers["trace.stage_sum_s"] <= layers["trace.pipeline_s"]
    assert layers["harness.load_dataset.calls"] == 3
    assert layers["systems.integrate.calls"] > 0
    assert layers["control.min_norm_feedback.calls"] > 0
    assert layers["predictor.predict.calls"] == layers["control.pinv.calls"]
    if config.plan_enabled:
        assert layers["planner.plan.iterations"] == 2
        assert layers["planner.plan.jacobian_fd_calls"] > 0
        assert layers["tube.tighten_input_box.feedback_calls"] > 0
        assert layers["conformal.rescore_ratio"] > 1.0
    else:
        assert layers["planner.plan.s"] == 0


def test_wrappers_cover_every_lookup_site_and_are_restored():
    import numpy as np
    from prcitube import control, planner, predictor, systems, tube

    originals = (systems.integrate, control.min_norm_feedback, np.linalg.pinv,
                 predictor.UncertaintyPredictor.predict)
    tr = tracer.Tracer()
    with pytest.raises(RuntimeError, match="boom"):
        with tr.installed():
            assert predictor.integrate is systems.integrate is planner.integrate
            assert hasattr(predictor.integrate, tracer.MARK)
            assert tube.min_norm_feedback is control.min_norm_feedback
            assert hasattr(tube.min_norm_feedback, tracer.MARK)
            assert hasattr(np.linalg.pinv, tracer.MARK)
            assert len(tracer.patched_sites()) >= len(tracer.TARGETS)
            raise RuntimeError("boom")
    assert tracer.patched_sites() == []
    assert (systems.integrate, control.min_norm_feedback, np.linalg.pinv,
            predictor.UncertaintyPredictor.predict) == originals
    assert predictor.integrate is systems.integrate


def test_metric_names_match_benchmark_json(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name

    _, config = _config(tmp_path, SMOKE)
    tr = tracer.Tracer()
    with tr.installed():
        layers = worker.run(harness, config, resumes=1, tracer=tr)["layers"]
    emitted = set(layers) | {"trace.untraced_pipeline_s", "trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == emitted
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)


def test_output_check_rejects_tampered_calibration(tmp_path):
    _, config = _config(tmp_path, SMOKE)
    out = Path(config.out_dir)
    assert worker.run(harness, config, resumes=1)["failures"] == []
    report = json.loads((out / "report.json").read_text())
    assert worker.check_outputs(out, report) == []

    cal_path = out / "calibration.json"
    cal = json.loads(cal_path.read_text())
    j = cal["quantile_index"]
    cal["scores"][j - 1] *= 0.5          # the order statistic no longer matches
    cal_path.write_text(json.dumps(cal))
    failures = worker.check_outputs(out, report)
    assert any("order statistic" in f for f in failures)


def test_conformal_order_matches_library():
    from prcitube.conformal import conformal_index

    for n in (1, 3, 4, 19, 50, 540):
        for alpha in (0.05, 0.1, 0.2, 0.25, 0.35):
            assert worker.conformal_order(n, alpha) == conformal_index(n, alpha)


def test_benchmark_report_matches_cli_pipeline(tmp_path):
    """Apart from the echoed out_dir, the worker (as run.py starts it) and
    ``prcitube pipeline`` write the same report.json."""
    cfg_path, config = _config(tmp_path, SMOKE, "bench")
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--src", str(ROOT / "src"),
         "--config", str(cfg_path)],
        cwd=ROOT, env=run.worker_env(), capture_output=True, text=True, timeout=300,
    )
    assert json.loads(proc.stdout.splitlines()[-1])["ok"], proc.stderr
    cli_out = tmp_path / "cli"
    cli_env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run(
        [sys.executable, "-m", "prcitube.cli", "pipeline", "--config", str(cfg_path),
         "--out", str(cli_out)],
        cwd=ROOT, env=cli_env, capture_output=True, text=True, timeout=300, check=True,
    )
    a = (Path(config.out_dir) / "report.json").read_text()
    b = (cli_out / "report.json").read_text()
    assert json.dumps(config.out_dir) in a
    assert a.replace(json.dumps(config.out_dir), json.dumps(str(cli_out))) == b


def test_speed_probe_process_does_not_import_prcitube():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import worker; "
            "worker.main(['--probe']); print('prcitube' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code, str(HERE)], cwd=ROOT, env=run.worker_env(),
                          capture_output=True, text=True, timeout=60, check=True)
    result, imported = proc.stdout.splitlines()[-2:]
    assert len(json.loads(result)["probe_samples"]) == worker.PROBE_SAMPLES
    assert imported == "False"


def test_run_refuses_seconds_beyond_the_time_limit():
    with pytest.raises(SystemExit) as exc:
        run.main(["--workload", "desk3d", "--seed", "0", "--seconds", str(run.MAX_SECONDS + 1)])
    assert exc.value.code == 2


def test_run_refuses_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk3d", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
