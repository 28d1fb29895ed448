import dataclasses
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from prcitube.cli import main as cli_main
from prcitube.harness import (
    ExperimentConfig,
    benchmark_systems,
    load_dataset,
    parse_flat_config,
    read_json,
    rng_stream,
    run_pipeline,
    save_dataset,
)
from prcitube.predictor import generate_reference_dataset
from prcitube.systems import PiecewiseLinearInput


SMOKE = """
# smoke-scale experiment
benchmark = "threeD"
seed = 7
n_train = 2
n_cal = 2
n_test = 2
horizon_s = 0.5
dt_s = 0.01
alpha = 0.4
predictor_family = "linear_features"
lambda_lo = 0.3
lambda_hi = 0.8
metric_grid_points = 3
input_knot_amp = 0.4
"""


def write_smoke(tmp_path, extra=""):
    cfg = tmp_path / "smoke.toml"
    cfg.write_text(SMOKE + extra)
    return cfg


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------

def test_parse_flat_config_types():
    text = """
    # comment
    name = "threeD"
    count = 4
    ratio = 0.25
    flag = true
    box = [-1.0, 1.0, -2.0, 2.0]
    bare = hello
    """
    d = parse_flat_config(text)
    assert d["name"] == "threeD"
    assert d["count"] == 4 and isinstance(d["count"], int)
    assert d["ratio"] == 0.25
    assert d["flag"] is True
    assert d["box"] == [-1.0, 1.0, -2.0, 2.0]
    assert d["bare"] == "hello"


def test_parse_flat_config_rejects_garbage():
    with pytest.raises(ValueError):
        parse_flat_config("just some words\n")


def test_config_unknown_key_rejected():
    with pytest.raises(ValueError, match="unknown config keys"):
        ExperimentConfig.from_dict({"benchmark": "threeD", "typo_key": 1})


def test_config_from_file(tmp_path):
    cfg = write_smoke(tmp_path)
    config = ExperimentConfig.from_file(cfg)
    assert config.benchmark == "threeD"
    assert config.seed == 7
    assert config.n_train == 2
    assert config.alpha == 0.4


# ---------------------------------------------------------------------------
# Deterministic streams
# ---------------------------------------------------------------------------

def test_rng_stream_reproducible_and_independent():
    a = rng_stream(3, "ref-ic-0").uniform(size=4)
    b = rng_stream(3, "ref-ic-0").uniform(size=4)
    c = rng_stream(3, "ref-ic-1").uniform(size=4)
    d = rng_stream(4, "ref-ic-0").uniform(size=4)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


# ---------------------------------------------------------------------------
# Dataset persistence
# ---------------------------------------------------------------------------

def test_dataset_save_load_roundtrip(tmp_path, bench3d):
    nom, _ = bench3d
    pol = PiecewiseLinearInput(np.array([0.0, 0.5]), np.array([[0.1, -0.2], [0.0, 0.3]]))
    ds = generate_reference_dataset(nom, [np.array([0.2, 0.1, -0.1])], [pol], 0.5, 0.01)
    save_dataset(ds, tmp_path / "d", "threeD")
    back = load_dataset(tmp_path / "d")
    assert back.split_tag == "ref"
    assert back.ids() == ds.ids()
    np.testing.assert_array_equal(back.entries[0].record.states, ds.entries[0].record.states)
    np.testing.assert_array_equal(
        back.entries[0].policy.knot_values, ds.entries[0].policy.knot_values
    )


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def smoke_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("smoke_run")
    cfg = ExperimentConfig.from_dict(
        dict(parse_flat_config(SMOKE), out_dir=str(out / "run"))
    )
    report = run_pipeline(cfg)
    return cfg, Path(cfg.out_dir), report


def test_pipeline_smoke_artifacts(smoke_run):
    _, out, report = smoke_run
    for name in (
        "config.json",
        "metric.json",
        "metric_verification.json",
        "ref_data/manifest.json",
        "train_data/manifest.json",
        "predictor.json",
        "cal_data/manifest.json",
        "scores.json",
        "calibration.json",
        "tube.json",
        "tube_ellipses.csv",
        "test/coverage.json",
        "test/sup_distances.csv",
        "provenance.json",
        "report.json",
    ):
        assert (out / name).exists(), name
    assert report["valid"] is True
    assert report["calibration"]["n_cal"] == 2
    assert report["coverage"]["n_rollouts"] == 2
    assert report["metric"]["verification_passed"] is True


def test_pipeline_deterministic_reports(smoke_run, tmp_path):
    cfg, out, _ = smoke_run
    import dataclasses

    cfg2 = dataclasses.replace(cfg, out_dir=str(tmp_path / "again"))
    run_pipeline(cfg2)
    a = (out / "report.json").read_bytes()
    b = (tmp_path / "again" / "report.json").read_bytes()
    # out_dir is part of the echoed config; compare with it normalized
    ja = json.loads(a)
    jb = json.loads(b)
    ja["config"]["out_dir"] = jb["config"]["out_dir"] = ""
    assert json.dumps(ja, sort_keys=True) == json.dumps(jb, sort_keys=True)


def test_pipeline_resumable(smoke_run):
    cfg, out, report = smoke_run
    before = (out / "report.json").read_bytes()
    ref_manifest = (out / "ref_data" / "manifest.json").read_bytes()
    (out / "report.json").unlink()
    (out / "test" / "coverage.json").unlink()
    (out / "calibration.json").unlink()
    report2 = run_pipeline(cfg)
    assert (out / "report.json").read_bytes() == before
    assert (out / "ref_data" / "manifest.json").read_bytes() == ref_manifest
    assert report2 == report


def test_deleted_dataset_csv_regenerates_its_stage(smoke_run, tmp_path, monkeypatch):
    import prcitube.harness as harness

    out = smoke_run[1]
    _, run_dir = _copy_of(smoke_run, tmp_path)
    (run_dir / "ref_data" / "ref-0000.csv").unlink()
    real_generate = harness.generate_reference_dataset
    _forbid_recompute(monkeypatch)
    monkeypatch.setattr(harness, "generate_reference_dataset", real_generate)
    cfg_file = write_smoke(tmp_path)
    assert cli_main(["calibrate", "--config", str(cfg_file), "--out", str(run_dir)]) == 0
    for name in ("ref_data/ref-0000.csv", "ref_data/manifest.json", "calibration.json"):
        assert (run_dir / name).read_bytes() == (out / name).read_bytes(), name


def _normalized_report(out):
    report = read_json(out / "report.json")
    report["config"]["out_dir"] = ""
    return report


def _copy_of(smoke_run, tmp_path):
    """A copy of the smoke run's directory, and its config pointed there."""
    cfg, out, _ = smoke_run
    shutil.copytree(out, tmp_path / "run")
    return dataclasses.replace(cfg, out_dir=str(tmp_path / "run")), tmp_path / "run"


def test_changed_seed_in_same_dir_matches_fresh_run(smoke_run, tmp_path):
    cfg, resumed = _copy_of(smoke_run, tmp_path)
    seed8 = dataclasses.replace(cfg, seed=cfg.seed + 1)
    run_pipeline(seed8)
    run_pipeline(dataclasses.replace(seed8, out_dir=str(tmp_path / "fresh")))
    assert _normalized_report(resumed) == _normalized_report(tmp_path / "fresh")
    for name in ("calibration.json", "test/coverage.json", "ref_data/manifest.json"):
        assert (resumed / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes(), name
    assert _normalized_report(resumed) != _normalized_report(smoke_run[1])


def test_changed_alpha_recalibrates_under_cli(tmp_path, capsys):
    out, fresh = tmp_path / "run", tmp_path / "fresh"
    cfg = write_smoke(tmp_path, "n_cal = 4\n")
    assert cli_main(["calibrate", "--config", str(cfg), "--out", str(out)]) == 0
    before = read_json(out / "calibration.json")
    cfg = write_smoke(tmp_path, "n_cal = 4\nalpha = 0.2\n")
    capsys.readouterr()
    assert cli_main(["calibrate", "--config", str(cfg), "--out", str(out)]) == 0
    assert "alpha=0.2 " in capsys.readouterr().out
    assert cli_main(["calibrate", "--config", str(cfg), "--out", str(fresh)]) == 0
    after = read_json(out / "calibration.json")
    assert after["alpha"] == 0.2 and before["alpha"] == 0.4
    assert after["quantile_index"] != before["quantile_index"]
    assert (out / "calibration.json").read_bytes() == (fresh / "calibration.json").read_bytes()


def _forbid_recompute(monkeypatch):
    """Make every stage's computation fail, so only reuse can succeed."""
    import prcitube.harness as harness

    def boom(*args, **kwargs):
        raise AssertionError("a stage recomputed")

    for name in ("synthesize_constant_metric", "verify_contraction", "generate_reference_dataset",
                 "generate_perturbed_dataset", "train", "project_tube_2d", "track"):
        monkeypatch.setattr(harness, name, boom)
    monkeypatch.setattr(harness.conformal, "score_dataset", boom)


def test_same_config_resume_reuses_every_stage(smoke_run, monkeypatch):
    cfg, out, _ = smoke_run
    before = (out / "report.json").read_bytes()
    ledger = read_json(out / "provenance.json")
    assert set(ledger) == {"metric", "ref_data", "train_data", "train", "cal_data",
                           "calibrate", "tube", "evaluate"}
    assert set(ledger.values()) == {cfg.digest}
    _forbid_recompute(monkeypatch)
    run_pipeline(cfg)
    assert (out / "report.json").read_bytes() == before


def test_foreign_ledger_digest_is_recomputed(smoke_run, tmp_path):
    out = smoke_run[1]
    cfg, run_dir = _copy_of(smoke_run, tmp_path)
    ledger = read_json(run_dir / "provenance.json")
    ledger["calibrate"] = "0" * 64
    (run_dir / "provenance.json").write_text(json.dumps(ledger))
    tampered = read_json(run_dir / "calibration.json")
    tampered["quantile_value"] = 123.0
    (run_dir / "calibration.json").write_text(json.dumps(tampered))
    run_pipeline(cfg)
    assert (run_dir / "calibration.json").read_bytes() == (out / "calibration.json").read_bytes()
    assert read_json(run_dir / "provenance.json")["calibrate"] == cfg.digest


def test_stage_cut_off_by_another_config_is_recomputed(smoke_run, tmp_path, monkeypatch):
    import prcitube.harness as harness

    out = smoke_run[1]
    cfg, run_dir = _copy_of(smoke_run, tmp_path)

    def cut(*args, **kwargs):
        raise RuntimeError("cut off")

    # another config's calibrate stage dies after writing scores.json
    with monkeypatch.context() as m:
        m.setattr(harness.conformal, "calibrate", cut)
        with pytest.raises(RuntimeError, match="cut off"):
            run_pipeline(dataclasses.replace(cfg, alpha=0.2))
    assert "calibrate" not in read_json(run_dir / "provenance.json")

    real_score, scored = harness.conformal.score_dataset, []
    monkeypatch.setattr(harness.conformal, "score_dataset",
                        lambda *a: scored.append(1) or real_score(*a))
    run_pipeline(cfg)
    assert scored == [1]
    assert (run_dir / "calibration.json").read_bytes() == (out / "calibration.json").read_bytes()


def test_directory_without_ledger_is_recomputed_once(smoke_run, tmp_path, monkeypatch):
    out = smoke_run[1]
    cfg, run_dir = _copy_of(smoke_run, tmp_path)
    (run_dir / "provenance.json").unlink()
    for name in ("metric.json", "predictor.json", "calibration.json", "test/coverage.json"):
        (run_dir / name).write_text("{}")     # stale files of unknown origin
    run_pipeline(cfg)
    assert _normalized_report(run_dir) == _normalized_report(out)
    for name in ("metric.json", "predictor.json", "calibration.json", "test/coverage.json"):
        assert (run_dir / name).read_bytes() == (out / name).read_bytes(), name
    _forbid_recompute(monkeypatch)
    run_pipeline(cfg)
    assert _normalized_report(run_dir) == _normalized_report(out)


def test_pipeline_seed_changes_results(smoke_run, tmp_path):
    cfg, _, report = smoke_run
    import dataclasses

    cfg2 = dataclasses.replace(cfg, seed=cfg.seed + 1, out_dir=str(tmp_path / "s2"))
    report2 = run_pipeline(cfg2)
    assert report2["calibration"]["quantile_value"] != report["calibration"]["quantile_value"]


def test_evaluate_csv_format(smoke_run):
    _, out, _ = smoke_run
    lines = (out / "test" / "sup_distances.csv").read_text().strip().splitlines()
    assert lines[0] == "id,sup_distance,contained"
    assert len(lines) == 3
    ident, sup, contained = lines[1].split(",")
    assert ident.startswith("test-")
    float(sup)
    assert contained in ("0", "1")


def test_diverged_test_rollout_counts_against_coverage(tmp_path, monkeypatch):
    import prcitube.harness as harness

    cfg = ExperimentConfig.from_dict(dict(parse_flat_config(SMOKE), out_dir=str(tmp_path / "run")))
    run_pipeline(cfg, stop_after="tube")
    real_track, calls = harness.track, []

    def track(sys_true, metric, predictor, references, starts):
        calls.append(references)
        rolls = real_track(sys_true, metric, predictor, references, starts)
        return [None] + rolls[1:]   # test index 0 diverges

    monkeypatch.setattr(harness, "track", track)
    report = run_pipeline(cfg)
    coverage = read_json(tmp_path / "run" / "test" / "coverage.json")
    assert len(calls) == 1 and len(calls[0]) == cfg.n_test
    assert coverage["n_rollouts"] == cfg.n_test == report["coverage"]["n_rollouts"]
    assert coverage["ids"][0] == "test-0000"
    assert coverage["sup_distances"][0] == "inf"
    assert coverage["contained"] <= cfg.n_test - 1
    rows = (tmp_path / "run" / "test" / "sup_distances.csv").read_text().splitlines()
    assert rows[1] == "test-0000,inf,0"


def test_benchmark_tracer_targets_resolve(monkeypatch):
    """Every function the benchmark tracer wraps still exists under its
    traced name, and the tracer leaves nothing patched behind."""
    import importlib.util
    import sys

    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    with tracer.Tracer().installed():
        for owner, attr, *_ in tracer.TARGETS:
            assert hasattr(getattr(tracer._resolve(owner), attr), tracer.MARK), (owner, attr)
    assert tracer.patched_sites() == []


def test_tube_ellipse_csv_header(smoke_run):
    _, out, _ = smoke_run
    header = (out / "tube_ellipses.csv").read_text().splitlines()[0]
    assert header == "t,center_1,center_2,a11,a12,a22,radius"


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_pipeline_and_calibrate(tmp_path, capsys):
    cfg = write_smoke(tmp_path)
    out = tmp_path / "cli_run"
    assert cli_main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "coverage summary" in text
    assert "calibration:" in text
    # re-running calibrate reuses persisted artifacts bit-exactly
    before = (out / "calibration.json").read_bytes()
    assert cli_main(["calibrate", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "calibration.json").read_bytes() == before


def test_cli_seed_override(tmp_path):
    cfg = write_smoke(tmp_path)
    out = tmp_path / "cli_seed"
    assert cli_main(["gen-data", "--config", str(cfg), "--out", str(out), "--seed", "99"]) == 0
    saved = json.loads((out / "config.json").read_text())
    assert saved["seed"] == 99


def test_cli_usage_errors(tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli_main(["pipeline"])
    assert exc.value.code == 2
    assert cli_main(["pipeline", "--config", str(tmp_path / "missing.toml")]) == 1


def test_benchmark_systems_mapping():
    nom, true = benchmark_systems(ExperimentConfig(benchmark="threeD"))
    assert nom.uncertainty is None and true.uncertainty is not None
    nom_v, true_v = benchmark_systems(ExperimentConfig(benchmark="vtol"))
    assert nom_v.state_dim == 6 and true_v.uncertainty is not None
    with pytest.raises(ValueError):
        benchmark_systems(ExperimentConfig(benchmark="nope"))


SINGLE_STEP_PLAN = {
    "benchmark": "threeD",
    "seed": 2,
    "n_train": 4,
    "n_cal": 5,
    "n_test": 2,
    "horizon_s": 1.0,
    "dt_s": 0.01,
    "alpha": 0.4,
    "predictor_family": "linear_features",
    "metric_grid_points": 3,
    "lambda_lo": 0.3,
    "lambda_hi": 0.8,
    "plan_enabled": True,
    "two_step": False,
    "plan_start": [0.3, 0.2, 0.1],
    "plan_goal": [-0.2, 0.1, 0.0],
    "plan_max_iter": 10,
    "tighten_budget": 4,
}


def test_pipeline_single_step_tightening(tmp_path):
    # two_step = false: the tightening quantile doubles as the tracking one
    cfg = ExperimentConfig.from_dict(dict(SINGLE_STEP_PLAN, out_dir=str(tmp_path / "single")))
    report = run_pipeline(cfg, stop_after="plan")
    p = report["plan"]
    assert p["tube_quantile"] == p["tracking_quantile"]
    assert (tmp_path / "single" / "plan" / "plan.csv").exists()


def test_plan_inflates_obstacles_by_projected_tube_extent(tmp_path):
    from prcitube.conformal import CalibrationResult
    from prcitube.metric import ContractionMetric
    from prcitube.planner import ObstacleEllipse
    from prcitube.tube import PRCITube, project_tube_2d

    # a disc of radius 0.1 well away from the planned path
    settings = dict(SINGLE_STEP_PLAN, plan_obstacles=[[1.5, -1.5, 100.0, 0.0, 100.0]])
    cfg = ExperimentConfig.from_dict(dict(settings, out_dir=str(tmp_path / "obst")))
    run_pipeline(cfg, stop_after="plan")
    out = tmp_path / "obst"
    manifest = read_json(out / "plan" / "plan_manifest.json")
    metric = ContractionMetric.from_json_dict(read_json(out / "metric.json"))
    cal_tube = CalibrationResult.from_json_dict(read_json(out / "plan" / "calibration_tube.json"))
    rep_ref = load_dataset(out / "cal_data", reference_dir=out / "ref_data").entries[0].reference
    tube = PRCITube.from_calibration(rep_ref, metric, cal_tube, "tightening")
    extent = project_tube_2d(tube, (0, 1)).max_extent()
    assert extent > 0

    disc = ObstacleEllipse(np.array([1.5, -1.5]), 100.0 * np.eye(2), (0, 1))
    assert manifest["obstacles"] == [disc.to_json_dict()]
    assert manifest["planning_obstacles"] == [disc.inflate(extent).to_json_dict()]
    shape = np.array(manifest["planning_obstacles"][0]["shape"])
    np.testing.assert_allclose(1.0 / np.sqrt(np.linalg.eigvalsh(shape)), 0.1 + extent, rtol=1e-12)


def test_cli_warns_when_planner_does_not_converge(tmp_path, capsys):
    # the micro config of test_pipeline_single_step_tightening, one iteration
    settings = dict(SINGLE_STEP_PLAN, plan_max_iter=1)
    cfg = tmp_path / "plan.toml"
    cfg.write_text("".join(f"{k} = {json.dumps(v)}\n" for k, v in settings.items()))
    out = tmp_path / "cli_plan"
    assert cli_main(["plan", "--config", str(cfg), "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "converged=False" in captured.out
    assert "warning: planner did not converge" in captured.err
    assert json.loads((out / "report.json").read_text())["plan"]["plan_converged"] is False


def test_pipeline_vtol_micro(tmp_path):
    cfg = ExperimentConfig.from_dict(
        {
            "benchmark": "vtol",
            "seed": 1,
            "n_train": 2,
            "n_cal": 2,
            "n_test": 2,
            "horizon_s": 0.5,
            "dt_s": 0.01,
            "alpha": 0.4,
            # two records are far below what a trained family needs
            "predictor_family": "zero",
            "metric_grid_points": 3,
            "lambda_lo": 0.1,
            "lambda_hi": 0.4,
            "metric_chi_max": 300.0,
            "metric_margin": -0.02,
            "input_knot_amp": 0.2,
            "out_dir": str(tmp_path / "vtol"),
        }
    )
    report = run_pipeline(cfg)
    assert report["valid"] is True
    assert report["metric"]["verification_passed"] is True
    # hover-centred sampling keeps the micro run inside the certificate box
    assert (tmp_path / "vtol" / "tube_ellipses.csv").exists()
    header = (tmp_path / "vtol" / "tube_ellipses.csv").read_text().splitlines()[0]
    assert header == "t,center_1,center_2,a11,a12,a22,radius"
