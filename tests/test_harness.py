import ast
import dataclasses
import json
import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    write_json,
)
from prcitube.predictor import generate_reference_dataset
from prcitube.systems import PiecewiseLinearInput, TrajectoryRecord

import scalar_oracle as oracle


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


def test_config_is_encoded_once_as_the_text_its_digest_hashes():
    """``canonical`` is the key-sorted JSON of every field but ``out_dir``,
    the text the digest hashes, and ``to_dict`` gives every field back."""
    import hashlib

    cfg = ExperimentConfig.from_dict(dict(parse_flat_config(SMOKE), out_dir="runs/x"))
    fields = dataclasses.asdict(cfg)
    assert cfg.to_dict() == fields
    del fields["out_dir"]
    assert cfg.canonical == json.dumps(fields, sort_keys=True)
    assert cfg.digest == hashlib.sha256(cfg.canonical.encode()).hexdigest()


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


@pytest.mark.parametrize("payload", [
    {"b": 1, "a": 1.0, "c": [True, None, "x", -0.0], "d": {"z": 0.1, "y": (1, 2)}},
    {"f64": np.float64(0.1), "f32": np.float32(0.1), "i": np.int64(3), "b": np.bool_(True),
     "arr": np.array([[1.0, 2.0], [3.0, 4.0]])},
    {"inf": float("inf"), "nan": [float("nan"), -float("inf")], "f": 0.5},
    {"np_inf": np.float64("inf"), "arr": np.array([np.inf, -1.0])},
], ids=["native", "numpy", "non_finite", "numpy_non_finite"])
def test_compact_text_is_the_text_of_the_jsonable_payload(payload):
    """The report comparison's encoding spells every value as ``_jsonable``
    does, NumPy values and non-finite floats included."""
    import prcitube.harness as harness

    want = json.dumps(harness._jsonable(payload), sort_keys=True, separators=(",", ":"))
    assert harness._compact(payload) == want


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
        "train_report.json",
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
    out = smoke_run[1]
    _, run_dir = _copy_of(smoke_run, tmp_path)
    (run_dir / "ref_data" / "ref-0000.csv").unlink()
    _forbid_recompute(monkeypatch, "generate_reference_dataset")
    cfg_file = write_smoke(tmp_path)
    assert cli_main(["calibrate", "--config", str(cfg_file), "--out", str(run_dir)]) == 0
    for name in ("ref_data/ref-0000.csv", "ref_data/manifest.json", "calibration.json"):
        assert (run_dir / name).read_bytes() == (out / name).read_bytes(), name


def _count_parses(monkeypatch) -> list:
    """The text of every ``TrajectoryRecord.from_csv`` call from now on."""
    real, parsed = TrajectoryRecord.from_csv, []

    def from_csv(text):
        parsed.append(text)
        return real(text)

    monkeypatch.setattr(TrajectoryRecord, "from_csv", staticmethod(from_csv))
    return parsed


def test_stored_datasets_match_the_eager_oracle_loader(smoke_run):
    """Every entry of the smoke run's three datasets equals the frozen eager
    loader's, array for array, references included; the input signal is
    compared in the ref split, the only one whose entries carry it."""
    _, out, _ = smoke_run
    for name, refs in (("ref_data", None), ("train_data", out / "ref_data"),
                       ("cal_data", out / "ref_data")):
        got = load_dataset(out / name, reference_dir=refs)
        want = oracle.load_dataset(out / name, reference_dir=refs)
        assert got.split_tag == want.split_tag and got.ids() == want.ids() and len(got) > 0
        for a, b in zip(got.entries, want.entries):
            if refs is None:
                for field in ("knot_times", "knot_values"):
                    assert getattr(a.policy, field).tobytes() == getattr(b.policy, field).tobytes()
            else:
                assert a.policy is None
            assert (a.reference is None) == (b.reference is None) == (refs is None)
            pairs = [(a.record, b.record)] + ([(a.reference, b.reference)] if refs else [])
            for x, y in pairs:
                for field in ("times", "states", "inputs", "uncertainties"):
                    u, v = getattr(x, field), getattr(y, field)
                    assert (u is None) == (v is None), (name, a.entry_id, field)
                    assert u is None or (u.dtype, u.shape, u.tobytes()) == (v.dtype, v.shape, v.tobytes())


def test_recalibration_parses_each_calibration_csv_once(smoke_run, monkeypatch):
    cfg, out, _ = smoke_run
    before = {n: (out / n).read_bytes() for n in ("report.json", "calibration.json", "scores.json")}
    (out / "calibration.json").unlink()
    parsed = _count_parses(monkeypatch)
    run_pipeline(cfg)
    cal_csvs = sorted((out / "cal_data").glob("*.csv"))
    assert len(cal_csvs) == cfg.n_cal
    assert sorted(parsed) == sorted(p.read_text() for p in cal_csvs)
    for name, data in before.items():
        assert (out / name).read_bytes() == data, name


def test_deleted_calibration_csv_regenerates_its_stage(smoke_run, tmp_path, monkeypatch):
    out = smoke_run[1]
    _, run_dir = _copy_of(smoke_run, tmp_path)
    (run_dir / "cal_data" / "ref-0003.csv").unlink()
    _forbid_recompute(monkeypatch, "track")
    _, calls = _spy_track(monkeypatch)
    cfg_file = write_smoke(tmp_path)
    assert cli_main(["calibrate", "--config", str(cfg_file), "--out", str(run_dir)]) == 0
    assert len(calls) == 1 and len(calls[0][3]) == smoke_run[0].n_cal
    for name in ("cal_data/ref-0002.csv", "cal_data/ref-0003.csv", "cal_data/manifest.json",
                 "calibration.json"):
        assert (run_dir / name).read_bytes() == (out / name).read_bytes(), name


@pytest.mark.parametrize("stage, entry, generator, command", [
    ("train_data", "ref-0000", "generate_perturbed_dataset", "gen-data"),
    ("cal_data", "ref-0002", "track", "calibrate"),
])
def test_record_csv_without_uncertainty_columns_is_refused_and_regenerated(
    smoke_run, tmp_path, monkeypatch, stage, entry, generator, command
):
    import prcitube.harness as harness

    out = smoke_run[1]
    _, run_dir = _copy_of(smoke_run, tmp_path)
    # the reference's CSV, which has no zeta_* columns, in place of the
    # record's, and a manifest whose envelope says so
    shutil.copy(run_dir / "ref_data" / f"{entry}.csv", run_dir / stage / f"{entry}.csv")
    manifest = read_json(run_dir / stage / "manifest.json")
    (item,) = [item for item in manifest["entries"] if item["id"] == entry]
    item["envelope"]["has_uncertainty"] = False
    harness.write_json(run_dir / stage / "manifest.json", manifest)
    with pytest.raises(ValueError, match="uncertainties missing"):
        load_dataset(run_dir / stage, reference_dir=run_dir / "ref_data")
    _forbid_recompute(monkeypatch, generator)
    cfg_file = write_smoke(tmp_path)
    assert cli_main([command, "--config", str(cfg_file), "--out", str(run_dir)]) == 0
    for name in (f"{stage}/{entry}.csv", f"{stage}/manifest.json"):
        assert (run_dir / name).read_bytes() == (out / name).read_bytes(), name


@pytest.mark.parametrize("stage, entry, artifact", [
    ("train_data", "ref-0000", "predictor.json"),
    ("cal_data", "ref-0002", "calibration.json"),
])
def test_record_csv_without_uncertainty_columns_raises_naming_the_file_when_read(
    smoke_run, tmp_path, stage, entry, artifact
):
    """The manifest vouches for a record's uncertainty, so loading opens no
    CSV: a record CSV that lost its ``zeta_*`` columns under a manifest that
    says it has them is found when a recomputed stage parses it."""
    cfg, run_dir = _copy_of(smoke_run, tmp_path)
    run_pipeline(cfg)
    shutil.copy(run_dir / "ref_data" / f"{entry}.csv", run_dir / stage / f"{entry}.csv")
    ds = load_dataset(run_dir / stage, reference_dir=run_dir / "ref_data")
    with pytest.raises(ValueError, match=f"{entry}.csv: uncertainties missing in"):
        ds.entries[ds.ids().index(entry)].record
    run_pipeline(cfg)
    (run_dir / artifact).unlink()
    with pytest.raises(ValueError, match=f"{entry}.csv: uncertainties missing in"):
        run_pipeline(cfg)


def test_garbled_csv_body_raises_naming_the_file_when_read(smoke_run, tmp_path):
    """A stored body is parsed only when a recomputed stage reads it: a full
    resume still succeeds, and recalibrating names the edited file."""
    cfg, run_dir = _copy_of(smoke_run, tmp_path)
    path = run_dir / "cal_data" / "ref-0002.csv"
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:2] + ["0.02,not-a-number"] + lines[3:]) + "\n")
    run_pipeline(cfg)
    assert _normalized_report(run_dir) == _normalized_report(smoke_run[1])
    (run_dir / "calibration.json").unlink()
    with pytest.raises(ValueError, match="ref-0002.csv"):
        run_pipeline(cfg)


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


def _forbid_recompute(monkeypatch, *recomputed):
    """Make every stage's computation fail, so only reuse can succeed; so
    do building the plants and an eigendecomposition, which no reused stage
    needs.  The harness functions named in ``recomputed`` stay, and then so
    does ``benchmark_systems``: the stages that call them build the plants."""
    import prcitube.harness as harness

    def boom(*args, **kwargs):
        raise AssertionError("a stage recomputed")

    forbidden = {"synthesize_constant_metric", "verify_contraction", "generate_reference_dataset",
                 "generate_perturbed_dataset", "train", "project_tube_2d", "track",
                 "benchmark_systems"}
    if recomputed:
        forbidden -= {*recomputed, "benchmark_systems"}
    for name in forbidden:
        monkeypatch.setattr(harness, name, boom)
    # the calibrate stage scores through score_dataset, the plan stage's
    # two calibration steps through calibrate_step
    for name in ("score_dataset", "calibrate_step"):
        monkeypatch.setattr(harness.conformal, name, boom)
    monkeypatch.setattr(np.linalg, "eigvalsh", boom)


def test_same_config_resume_reuses_every_stage(smoke_run, monkeypatch):
    cfg, out, _ = smoke_run
    before = (out / "report.json").read_bytes()
    ledger = read_json(out / "provenance.json")
    assert set(ledger) == {"metric", "ref_data", "train_data", "train", "cal_data",
                           "calibrate", "tube", "evaluate"}
    assert set(ledger.values()) == {cfg.digest}
    _forbid_recompute(monkeypatch)
    parsed = _count_parses(monkeypatch)
    run_pipeline(cfg)
    assert (out / "report.json").read_bytes() == before
    assert parsed == []     # no stage reads a record


def test_loaded_entry_builds_its_input_signal_on_first_access(smoke_run, tmp_path, monkeypatch):
    """A full resume builds no input signal; a loaded entry builds its own
    once, from its signal file, on first access to ``policy``."""
    cfg, run_dir = _copy_of(smoke_run, tmp_path)
    run_pipeline(cfg)       # whatever earlier tests removed from the shared run is back
    real, built = PiecewiseLinearInput.from_json_dict, []

    def from_json_dict(d):
        built.append(d)
        return real(d)

    monkeypatch.setattr(PiecewiseLinearInput, "from_json_dict", staticmethod(from_json_dict))
    run_pipeline(cfg)
    assert built == []
    entry = load_dataset(run_dir / "ref_data").entries[0]
    assert built == []
    assert entry.policy is entry.policy and len(built) == 1
    want = read_json(run_dir / "ref_data" / f"{entry.entry_id}.signal.json")
    assert entry.policy.to_json_dict() == want


def _opened_signal_files(monkeypatch) -> list:
    """The path of every ``*.signal.json`` file opened from now on."""
    import builtins

    real, opened = builtins.open, []

    def spy(file, *args, **kwargs):
        if str(file).endswith(".signal.json"):
            opened.append(Path(file))
        return real(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", spy)
    return opened


def test_full_resume_opens_no_signal_file_and_parses_no_csv(smoke_run, tmp_path, monkeypatch):
    cfg, run_dir = _copy_of(smoke_run, tmp_path)
    run_pipeline(cfg)       # whatever earlier tests removed from the shared run is back
    before = _tree_bytes(run_dir)
    _forbid_recompute(monkeypatch)
    parsed = _count_parses(monkeypatch)
    opened = _opened_signal_files(monkeypatch)
    run_pipeline(cfg)
    assert parsed == [] and opened == []
    assert _tree_bytes(run_dir) == before


def _opened_files(monkeypatch) -> list:
    """``(path, mode)`` of every file opened from now on."""
    import builtins

    real, opened = builtins.open, []

    def spy(file, mode="r", *args, **kwargs):
        opened.append((Path(file), mode))
        return real(file, mode, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", spy)
    return opened


def _written(opened, top: Path) -> list:
    """The files of ``opened`` opened for writing, relative to ``top``."""
    return [p.relative_to(top).as_posix() for p, mode in opened if any(c in mode for c in "wax+")]


def _restored_copy(smoke_run, tmp_path):
    """``_copy_of`` the smoke run, with whatever earlier tests removed from
    the shared run put back; its bytes."""
    cfg, run_dir = _copy_of(smoke_run, tmp_path)
    run_pipeline(cfg)
    return cfg, run_dir, _tree_bytes(run_dir)


def test_full_resume_writes_nothing_reads_the_ledger_once_and_no_predictor(
    smoke_run, tmp_path, monkeypatch
):
    cfg, run_dir, before = _restored_copy(smoke_run, tmp_path)
    _forbid_recompute(monkeypatch)
    opened = _opened_files(monkeypatch)
    report = run_pipeline(cfg)
    assert _written(opened, run_dir) == []
    paths = [p for p, _ in opened]
    assert paths.count(run_dir / "provenance.json") == 1
    assert run_dir / "predictor.json" not in paths
    assert _tree_bytes(run_dir) == before
    assert report == read_json(run_dir / "report.json")


def test_partial_resume_builds_the_plants_once(smoke_run, tmp_path, monkeypatch):
    """A resume that recomputes only the calibrate stage builds the plant
    pair once, for that stage, and leaves every file as it was."""
    import prcitube.harness as harness

    cfg, run_dir, before = _restored_copy(smoke_run, tmp_path)
    (run_dir / "calibration.json").unlink()
    real, built = harness.benchmark_systems, []
    monkeypatch.setattr(harness, "benchmark_systems", lambda c: built.append(c) or real(c))
    run_pipeline(cfg)
    assert built == [cfg]
    assert _tree_bytes(run_dir) == before


def test_full_desk3d_resume_opens_no_csv(tmp_path, monkeypatch):
    """The benchmark's desk3d workload at seed 0: a resume takes each train
    and cal record's uncertainty from its manifest and opens no CSV."""
    text = (Path(__file__).parents[1] / "perfbench" / "workloads" / "desk3d.toml").read_text()
    cfg = ExperimentConfig.from_dict(
        dict(parse_flat_config(text), seed=0, out_dir=str(tmp_path / "run"))
    )
    run_pipeline(cfg)
    _forbid_recompute(monkeypatch)
    opened = _opened_files(monkeypatch)
    run_pipeline(cfg)
    assert [p for p, _ in opened if p.suffix == ".csv"] == []
    assert any(p.name == "manifest.json" for p, _ in opened)


def test_resume_under_another_out_dir_rewrites_config_and_report(smoke_run, tmp_path, monkeypatch):
    cfg, run_dir, _ = _restored_copy(smoke_run, tmp_path)
    moved = tmp_path / "moved"
    shutil.copytree(run_dir, moved)
    moved_cfg = dataclasses.replace(cfg, out_dir=str(moved))
    _forbid_recompute(monkeypatch)
    opened = _opened_files(monkeypatch)
    report = run_pipeline(moved_cfg)
    assert sorted(_written(opened, moved)) == ["config.json", "report.json"]
    assert (moved / "config.json").read_text() == json.dumps(
        moved_cfg.to_dict(), indent=2, sort_keys=True) + "\n"
    assert report == read_json(moved / "report.json")
    assert report == {**read_json(run_dir / "report.json"), "config": moved_cfg.to_dict()}


@pytest.mark.parametrize("name", ["report.json", "config.json"])
def test_truncated_report_or_config_is_rewritten_byte_identical(
    smoke_run, tmp_path, monkeypatch, name
):
    cfg, run_dir, before = _restored_copy(smoke_run, tmp_path)
    (run_dir / name).write_bytes(before[name][: len(before[name]) // 2])
    _forbid_recompute(monkeypatch)
    opened = _opened_files(monkeypatch)
    run_pipeline(cfg)
    assert _written(opened, run_dir) == [name]
    assert _tree_bytes(run_dir) == before


def test_deleted_train_report_retrains_only_the_train_stage(smoke_run, tmp_path, monkeypatch):
    import prcitube.harness as harness

    cfg, run_dir, before = _restored_copy(smoke_run, tmp_path)
    (run_dir / "train_report.json").unlink()
    real_train, trained = harness.train, []
    _forbid_recompute(monkeypatch)
    monkeypatch.setattr(harness, "train", lambda *a: trained.append(1) or real_train(*a))
    opened = _opened_files(monkeypatch)
    run_pipeline(cfg)
    assert trained == [1]
    # the retrained predictor.json holds what it held, so it is left alone
    assert set(_written(opened, run_dir)) == {"train_report.json", "provenance.json"}
    assert _tree_bytes(run_dir) == before


def test_recomputed_metric_stage_rewrites_only_the_json_files_it_changes(
    smoke_run, tmp_path, monkeypatch
):
    """With ``metric.json`` deleted the metric stage recomputes, and
    ``metric_verification.json``, whose content it reproduces, is not
    reopened for writing; once a value in that file is edited, the
    recompute rewrites it as it was."""
    cfg, run_dir, before = _restored_copy(smoke_run, tmp_path)
    (run_dir / "metric.json").unlink()
    opened = _opened_files(monkeypatch)
    run_pipeline(cfg)
    assert _written(opened, run_dir) == ["provenance.json", "metric.json", "provenance.json"]
    assert _tree_bytes(run_dir) == before

    vpath = run_dir / "metric_verification.json"
    edited = read_json(vpath)
    edited["n_points"] += 1
    vpath.write_text(json.dumps(edited, indent=2, sort_keys=True) + "\n")
    (run_dir / "metric.json").unlink()
    opened.clear()
    run_pipeline(cfg)
    assert _written(opened, run_dir) == ["provenance.json", "metric.json",
                                         "metric_verification.json", "provenance.json"]
    assert _tree_bytes(run_dir) == before


def test_recomputed_stages_over_a_reused_predictor_decode_it_once(smoke_run, tmp_path, monkeypatch):
    """cal_data, calibrate and evaluate all recompute over a reused train
    stage, and share one decoding of ``predictor.json``."""
    from prcitube.predictor import UncertaintyPredictor

    cfg, run_dir, before = _restored_copy(smoke_run, tmp_path)
    for name in ("cal_data/manifest.json", "calibration.json", "test/coverage.json"):
        (run_dir / name).unlink()
    real, decoded = UncertaintyPredictor.from_json_dict, []
    monkeypatch.setattr(UncertaintyPredictor, "from_json_dict",
                        staticmethod(lambda d: decoded.append(d) or real(d)))
    opened = _opened_files(monkeypatch)
    run_pipeline(cfg)
    assert len(decoded) == 1
    assert [p for p, _ in opened].count(run_dir / "predictor.json") == 1
    assert _tree_bytes(run_dir) == before


def test_each_reference_signal_is_stored_once_in_ref_data(smoke_run):
    """ref_data holds one signal file per record; train_data and cal_data,
    whose records ran under their references' signals, hold none, and no
    manifest carries knots."""
    _, out, _ = smoke_run
    ref_ids = load_dataset(out / "ref_data").ids()
    assert sorted(p.name for p in out.rglob("*.signal.json")) == [f"{i}.signal.json" for i in ref_ids]
    for name in ("ref_data", "train_data", "cal_data"):
        for item in read_json(out / name / "manifest.json")["entries"]:
            assert set(item) == {"id", "csv", "reference_id", "envelope"}


def test_regenerated_training_data_reads_each_training_signal_once(smoke_run, tmp_path, monkeypatch):
    cfg, run_dir = _copy_of(smoke_run, tmp_path)
    run_pipeline(cfg)
    before = _tree_bytes(run_dir / "train_data")
    (run_dir / "train_data" / "manifest.json").unlink()
    _forbid_recompute(monkeypatch, "generate_perturbed_dataset")
    opened = _opened_signal_files(monkeypatch)
    run_pipeline(cfg)
    assert opened == [run_dir / "ref_data" / f"ref-{i:04d}.signal.json" for i in range(cfg.n_train)]
    assert _tree_bytes(run_dir / "train_data") == before


def test_deleted_signal_file_regenerates_only_its_stage(smoke_run, tmp_path, monkeypatch):
    cfg, run_dir = _copy_of(smoke_run, tmp_path)
    run_pipeline(cfg)
    before = _tree_bytes(run_dir)
    (run_dir / "ref_data" / "ref-0001.signal.json").unlink()
    with pytest.raises(FileNotFoundError, match="ref-0001.signal.json"):
        load_dataset(run_dir / "ref_data")
    # a train record carries no signal, so its directory does not need one
    assert len(load_dataset(run_dir / "train_data", reference_dir=run_dir / "ref_data")) > 0
    # train_data and cal_data must be reused
    _forbid_recompute(monkeypatch, "generate_reference_dataset")
    replays = _spy_reference_replays(monkeypatch)
    run_pipeline(cfg)
    assert len(replays) == 1
    assert _tree_bytes(run_dir) == before


def test_manifest_with_inline_signals_is_refused_and_regenerated(smoke_run, tmp_path, monkeypatch):
    """Dataset directories in the layout before signal files (each manifest
    entry carrying its signal as ``policy``, no signal file) are refused and
    regenerated, and the run's files come back byte-identical."""
    import prcitube.harness as harness

    cfg, run_dir = _copy_of(smoke_run, tmp_path)
    run_pipeline(cfg)
    before = _tree_bytes(run_dir)
    for name in ("ref_data", "train_data", "cal_data"):
        manifest = read_json(run_dir / name / "manifest.json")
        for item in manifest["entries"]:
            signal = run_dir / "ref_data" / f"{item['id']}.signal.json"
            item["policy"] = read_json(signal)
        harness.write_json(run_dir / name / "manifest.json", manifest)
    for signal in (run_dir / "ref_data").glob("*.signal.json"):
        signal.unlink()
    for name in ("train_data", "cal_data"):
        with pytest.raises(ValueError, match="inline"):
            load_dataset(run_dir / name, reference_dir=run_dir / "ref_data")
    # every later stage must be reused
    _forbid_recompute(monkeypatch, "generate_reference_dataset", "generate_perturbed_dataset",
                      "track")
    run_pipeline(cfg)
    assert _tree_bytes(run_dir) == before


@pytest.mark.parametrize("sampler", ["spline", "waypoint_pd"])
def test_loaded_signals_equal_the_generated_ones(tmp_path, sampler):
    """A stored reference signal loads back bit for bit from its own file;
    a training record carries no signal, generated or loaded."""
    import prcitube.harness as harness

    settings = (dict(parse_flat_config(SMOKE)) if sampler == "spline"
                else dict(VTOL_MICRO, reference_sampler="waypoint_pd"))
    cfg = ExperimentConfig.from_dict(dict(settings, out_dir=str(tmp_path / "run")))
    sys_nom, sys_true = benchmark_systems(cfg)
    ref = harness._Simulations(cfg, lambda: (sys_nom, sys_true), "gen-data").references()
    train = harness.generate_perturbed_dataset(sys_true, ref, "open_loop_reference", "train")
    save_dataset(ref, tmp_path / "ref", cfg.benchmark)
    save_dataset(train, tmp_path / "train", cfg.benchmark)
    loaded = (load_dataset(tmp_path / "ref"),
              load_dataset(tmp_path / "train", reference_dir=tmp_path / "ref"))
    for got, want in zip(loaded, (ref, train)):
        assert got.ids() == want.ids() and len(got) > 0
    for a, b in zip(loaded[0].entries, ref.entries):
        for field in ("knot_times", "knot_values"):
            u, v = getattr(a.policy, field), getattr(b.policy, field)
            assert (u.dtype, u.shape, u.tobytes()) == (v.dtype, v.shape, v.tobytes())
    assert all(e.policy is None for e in loaded[1].entries + train.entries)


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


def _spy_track(monkeypatch, alter=lambda rolls: rolls):
    """Record every ``harness.track`` call with its rollouts; ``alter``
    rewrites the rollouts the pipeline gets back."""
    import prcitube.harness as harness

    real_track, calls = harness.track, []

    def track(sys_true, metric, predictor, references, starts):
        rolls = real_track(sys_true, metric, predictor, references, starts)
        calls.append((sys_true, metric, predictor, references, starts, rolls))
        return alter(rolls)

    monkeypatch.setattr(harness, "track", track)
    return real_track, calls


def _smoke_config(out, **changes):
    return ExperimentConfig.from_dict(dict(parse_flat_config(SMOKE), out_dir=str(out), **changes))


def test_cold_run_tracks_calibration_and_test_rows_as_one_block(tmp_path, monkeypatch):
    """A cold run makes one closed-loop block before evaluate: the n_cal
    calibration references, then the n_test test references, each from its
    first state.  Its calibration rows are the cal_data records, and its test
    rows equal a track call of their own, byte for byte."""
    import prcitube.harness as harness

    real_track, calls = _spy_track(monkeypatch)
    real_evaluate, seen = harness.stage_evaluate, []

    def evaluate(*args, **kwargs):
        seen.append(len(calls))
        return real_evaluate(*args, **kwargs)

    monkeypatch.setattr(harness, "stage_evaluate", evaluate)
    cfg = _smoke_config(tmp_path / "run")
    run_pipeline(cfg)
    assert seen == [1] and len(calls) == 1
    (sys_true, metric, predictor, references, starts, rolls), = calls
    assert len(references) == cfg.n_cal + cfg.n_test
    assert all(x0.tobytes() == r.states[0].tobytes() for r, x0 in zip(references, starts))

    out = tmp_path / "run"
    cal = load_dataset(out / "cal_data", reference_dir=out / "ref_data")
    assert len(cal) == cfg.n_cal
    for e, ref, roll in zip(cal.entries, references, rolls):
        assert ref.to_csv() == e.reference.to_csv()
        assert roll.to_csv() == (out / "cal_data" / f"{e.entry_id}.csv").read_text()

    ids, test_refs = harness._test_references(cfg, benchmark_systems(cfg)[0])
    assert ids == read_json(out / "test" / "coverage.json")["ids"]
    assert [r.to_csv() for r in references[cfg.n_cal:]] == [r.to_csv() for r in test_refs]
    alone = real_track(sys_true, metric, predictor, test_refs, [r.states[0] for r in test_refs])
    for a, b in zip(rolls[cfg.n_cal:], alone):
        for name in ("states", "inputs", "uncertainties"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()


def test_stop_before_evaluate_tracks_only_calibration_rows(tmp_path, monkeypatch):
    _, calls = _spy_track(monkeypatch)
    cfg = _smoke_config(tmp_path / "run")
    run_pipeline(cfg, stop_after="tube")
    (_, _, _, references, _, _), = calls
    assert len(references) == cfg.n_cal
    assert not (tmp_path / "run" / "test").exists()


def test_evaluate_recomputed_alone_matches_merged_cold_run(smoke_run, tmp_path, monkeypatch):
    """evaluate tracks its own test set when cal_data is reused (after a
    stop before evaluate, or a deleted coverage.json), and writes the same
    bytes as the cold run that tracked it in the calibration block."""
    cfg, merged, _ = smoke_run
    written = ("test/coverage.json", "test/sup_distances.csv")
    staged = dataclasses.replace(cfg, out_dir=str(tmp_path / "staged"))
    run_pipeline(staged, stop_after="tube")
    resumed_cfg, resumed = _copy_of(smoke_run, tmp_path)
    (resumed / "test" / "coverage.json").unlink()

    _, calls = _spy_track(monkeypatch)
    run_pipeline(staged)
    run_pipeline(resumed_cfg)
    assert [len(c[3]) for c in calls] == [cfg.n_test, cfg.n_test]
    for name in written:
        assert (tmp_path / "staged" / name).read_bytes() == (merged / name).read_bytes(), name
        assert (resumed / name).read_bytes() == (merged / name).read_bytes(), name


def _spy_reference_replays(monkeypatch) -> list:
    """The ids of every ``harness.generate_reference_dataset`` call."""
    import prcitube.harness as harness

    real, calls = harness.generate_reference_dataset, []

    def generate(sys_nom, starts, signals, T, dt, ids=None):
        calls.append(list(ids))
        return real(sys_nom, starts, signals, T, dt, ids)

    monkeypatch.setattr(harness, "generate_reference_dataset", generate)
    return calls


def _same_records(a, b) -> bool:
    return all(getattr(x, f).tobytes() == getattr(y, f).tobytes()
               for x, y in zip(a, b, strict=True) for f in ("times", "states", "inputs"))


def test_reference_stage_replays_the_test_references_in_its_block(tmp_path, monkeypatch):
    """A run that goes on to evaluate replays the reference dataset and the
    test references as one nominal block.  The test references equal
    ``_test_references`` run alone, bit for bit, and reach the closed-loop
    block; ``ref_data/`` holds only the reference records, byte-identical to
    a run that stops before evaluate."""
    import prcitube.harness as harness

    cfg = _smoke_config(tmp_path / "run")
    n_ref = cfg.n_train + cfg.n_cal
    ref_ids = [f"ref-{i:04d}" for i in range(n_ref)]
    test_ids = [f"test-{i:04d}" for i in range(cfg.n_test)]
    replays = _spy_reference_replays(monkeypatch)
    _, calls = _spy_track(monkeypatch)
    run_pipeline(cfg)
    assert replays == [ref_ids + test_ids]

    sys_nom = benchmark_systems(cfg)[0]
    ids, alone = harness._test_references(cfg, sys_nom)
    assert ids == test_ids == read_json(tmp_path / "run" / "test" / "coverage.json")["ids"]
    (_, _, _, references, _, _), = calls
    assert _same_records(references[cfg.n_cal:], alone)

    staged = _smoke_config(tmp_path / "staged")
    run_pipeline(staged, stop_after="gen-data")
    assert replays == [ref_ids + test_ids, test_ids, ref_ids]
    assert load_dataset(tmp_path / "run" / "ref_data").ids() == ref_ids
    for path in sorted((tmp_path / "staged" / "ref_data").iterdir()):
        assert (tmp_path / "run" / "ref_data" / path.name).read_bytes() == path.read_bytes()


def test_recomputed_calibration_over_reused_references_matches_cold_run(
    smoke_run, tmp_path, monkeypatch
):
    """With ref_data reused and cal_data recomputed, the test references are
    replayed alone, tracked in the calibration block, and evaluate writes the
    cold run's bytes."""
    cfg, merged, _ = smoke_run
    resumed_cfg, resumed = _copy_of(smoke_run, tmp_path)
    (resumed / "cal_data" / "manifest.json").unlink()
    (resumed / "test" / "coverage.json").unlink()
    replays = _spy_reference_replays(monkeypatch)
    _, calls = _spy_track(monkeypatch)
    run_pipeline(resumed_cfg)
    assert replays == [[f"test-{i:04d}" for i in range(cfg.n_test)]]
    assert [len(c[3]) for c in calls] == [cfg.n_cal + cfg.n_test]
    for name in ("cal_data/manifest.json", "test/coverage.json", "test/sup_distances.csv"):
        assert (resumed / name).read_bytes() == (merged / name).read_bytes(), name


def test_diverged_test_row_of_the_block_drops_no_calibration_record(tmp_path, monkeypatch):
    cfg = _smoke_config(tmp_path / "run", n_cal=4)
    _spy_track(monkeypatch, lambda rolls: rolls[: cfg.n_cal] + [None] + rolls[cfg.n_cal + 1 :])
    report = run_pipeline(cfg)
    out = tmp_path / "run"
    assert len(load_dataset(out / "cal_data")) == report["calibration"]["n_cal"] == cfg.n_cal
    coverage = read_json(out / "test" / "coverage.json")
    assert coverage["n_rollouts"] == cfg.n_test
    assert coverage["sup_distances"][0] == "inf"
    assert (out / "test" / "sup_distances.csv").read_text().splitlines()[1] == "test-0000,inf,0"


def test_diverged_calibration_row_of_the_block_leaves_test_rows_alone(tmp_path, monkeypatch):
    fine = run_pipeline(_smoke_config(tmp_path / "fine", n_cal=4))
    cfg = _smoke_config(tmp_path / "run", n_cal=4)
    _spy_track(monkeypatch, lambda rolls: [None] + rolls[1:])
    report = run_pipeline(cfg)
    out = tmp_path / "run"
    assert load_dataset(out / "cal_data").ids() == ["ref-0003", "ref-0004", "ref-0005"]
    assert report["calibration"]["n_cal"] == cfg.n_cal - 1
    got = read_json(out / "test" / "coverage.json")
    want = read_json(tmp_path / "fine" / "test" / "coverage.json")
    assert got["n_rollouts"] == fine["coverage"]["n_rollouts"] == cfg.n_test
    assert got["ids"] == want["ids"] and got["sup_distances"] == want["sup_distances"]


def test_start_mode_other_than_center_is_refused(tmp_path, capsys):
    ExperimentConfig.from_dict({"start_mode": "center"})
    with pytest.raises(ValueError, match="start_mode"):
        ExperimentConfig.from_dict({"start_mode": "ball"})
    with pytest.raises(ValueError, match="start_mode"):
        dataclasses.replace(ExperimentConfig(), start_mode="ball")
    cfg = write_smoke(tmp_path, 'start_mode = "ball"\n')
    assert cli_main(["pipeline", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 1
    assert "start_mode" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("key, value", [
    ("benchmark", "quadrotor"),
    ("reference_sampler", "waypoint"),
    ("predictor_family", "gp"),
    # a plan_obstacles entry must be five finite numbers with a positive-definite shape
    pytest.param("plan_obstacles", [[0.0, 0.3, 25.0, 0.0]], id="plan_obstacles-four"),
    pytest.param("plan_obstacles", 3.0, id="plan_obstacles-scalar"),
    pytest.param("plan_obstacles", [0.0, 0.3, 25.0, 0.0, 25.0], id="plan_obstacles-flat"),
    pytest.param("plan_obstacles", [[0.0, 0.3, 25.0, 0.0, 25.0], [0.0, 0.3, 25.0, 30.0, 25.0]],
                 id="plan_obstacles-indefinite"),
    pytest.param("plan_obstacles", [[0.0, 0.3, -25.0, 0.0, -25.0]], id="plan_obstacles-negative"),
    pytest.param("plan_obstacles", [[0.0, float("nan"), 25.0, 0.0, 25.0]], id="plan_obstacles-nan"),
    pytest.param("plan_obstacles", [[0.0, 0.3, 25.0, 0.0, "25"]], id="plan_obstacles-string"),
    # values that a run took, then failed on after writing 1-37 files or
    # ran to the end on, reporting something false (two_step_fraction = 1.5
    # has its own test below)
    ("alpha", 1.5),
    ("n_cal", 0),
    ("n_train", 0),
    ("dt_s", 0.0),
    ("lambda_lo", 2.0),     # above lambda_hi
    pytest.param("init_box", [-1.0, 1.0, -1.0, 1.0], id="init_box-four-on-3d"),
    pytest.param("projection_coords", [0, 7], id="projection_coords-0-7"),
    pytest.param("predictor_hidden", [0], id="predictor_hidden-0"),
    ("metric_grid_points", 1),      # a certificate on one state
    ("seed", -1),
    ("n_cal", 2.5),
])
def test_unknown_variant_is_refused_before_anything_is_written(tmp_path, capsys, key, value):
    _assert_refused(tmp_path, capsys, key, {key: value})


def _assert_refused(tmp_path, capsys, key, values):
    """``from_dict(values)`` raises a ValueError naming ``key``; the CLI, on
    the smoke config with ``values`` appended, exits 1 naming it and leaves
    no output directory."""
    with pytest.raises(ValueError, match=key):
        ExperimentConfig.from_dict(values)
    cfg = write_smoke(tmp_path, "".join(f"{k} = {json.dumps(v)}\n" for k, v in values.items()))
    assert cli_main(["pipeline", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 1
    assert key in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("key", ["plan_start", "plan_goal"])
def test_plan_point_of_the_wrong_length_is_refused_before_anything_is_written(
    tmp_path, capsys, key
):
    plan = {"plan_enabled": True, "plan_start": [0.6, 0.4, 0.24], "plan_goal": [-0.5, 0.25, -0.2]}
    ExperimentConfig.from_dict(plan)
    _assert_refused(tmp_path, capsys, key, {**plan, key: [0.6, 0.4]})


def test_inline_comment_is_refused_before_anything_is_written(tmp_path, capsys):
    """A '#' after a value is no comment: the value is the string before it
    was cut, so a number key refuses it."""
    cfg = write_smoke(tmp_path, "alpha = 0.4  # miscoverage\n")
    assert parse_flat_config(cfg.read_text())["alpha"] == "0.4  # miscoverage"
    _assert_refused(tmp_path, capsys, "alpha", {"alpha": "0.4  # miscoverage"})


def test_cli_negative_seed_override_is_refused_before_anything_is_written(tmp_path, capsys):
    cfg = write_smoke(tmp_path)
    assert cli_main(["pipeline", "--config", str(cfg), "--out", str(tmp_path / "run"),
                     "--seed", "-1"]) == 1
    assert "seed" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("path", [*sorted(ROOT.glob("configs/*.toml")),
                                  *sorted(ROOT.glob("perfbench/workloads/*.toml"))],
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_shipped_configs_load(path):
    """Every shipped config loads, a benchmark workload completed as the
    benchmark completes it; so does the ``config.json`` a run stores."""
    text = path.read_text()
    if path.parent.name == "workloads":
        text += f"seed = 0\nout_dir = {json.dumps('out')}\n"
    config = ExperimentConfig.from_dict(parse_flat_config(text))
    assert ExperimentConfig.from_dict(config.to_dict()) == config


_LISTS = st.lists(st.integers(), max_size=3)
_TEXT = st.text(max_size=4)
# values of the wrong type for each annotation
_WRONG_TYPE = {
    "str": st.one_of(st.integers(), st.floats(), st.booleans(), st.none(), _LISTS),
    "bool": st.one_of(st.integers(), st.floats(), _TEXT, st.none()),
    "int": st.one_of(st.floats(), st.booleans(), _TEXT, st.none(), _LISTS),
    "float": st.one_of(st.sampled_from([float("inf"), -float("inf"), float("nan")]),
                       st.booleans(), _TEXT, st.none(), _LISTS),
    "list": st.one_of(st.integers(), st.floats(), _TEXT, st.none()),
    "Optional[list]": st.one_of(st.integers(), st.floats(), _TEXT, st.booleans()),
}
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_NOT_OPEN_UNIT = st.one_of(st.floats(max_value=0.0), st.floats(min_value=1.0))


def _below(bound):
    return st.integers(max_value=bound - 1)


def _flat(n_not):
    """Finite flat lists of any length but ``n_not``."""
    return st.lists(_FINITE, max_size=8).filter(lambda v: len(v) != n_not)


# values of the right type that break each key's rule, on the default config
# (3 states) with the context of ``_CONTEXT``
_WRONG_VALUE = {
    "benchmark": _TEXT.filter(lambda v: v not in ("threeD", "vtol")),
    "seed": _below(0),
    "n_train": _below(1),
    "n_cal": _below(1),
    "n_test": _below(0),
    "dt_s": st.floats(max_value=0.0),
    "horizon_s": st.floats(max_value=0.01, exclude_max=True),
    "alpha": _NOT_OPEN_UNIT,
    "init_box": st.one_of(_flat(6), st.just([1.0, -1.0, -1.0, 1.0, -1.0, 1.0])),
    "reference_sampler": _TEXT.filter(lambda v: v != "spline"),    # waypoint_pd needs the vtol
    "input_knot_amp": st.floats(max_value=0.0, exclude_max=True),
    "knot_spacing_s": st.floats(max_value=0.0),
    "waypoint_box": st.one_of(_flat(4), st.just([1.0, -1.0, -0.6, 0.6])),
    "predictor_family": _TEXT.filter(lambda v: v not in ("zero", "linear_features", "mlp")),
    "predictor_epochs": _below(0),
    "predictor_hidden": st.lists(st.integers(max_value=0), min_size=1, max_size=3),
    "predictor_degree": _below(0),
    "predictor_lr": st.floats(max_value=0.0),
    "predictor_batch": _below(1),
    "lambda_lo": st.floats(max_value=0.0),
    "lambda_hi": st.floats(max_value=0.3, exclude_max=True),
    "metric_grid_points": _below(2),
    "metric_chi_max": st.floats(max_value=1.0, exclude_max=True),
    "projection_coords": st.one_of(
        st.lists(st.integers(0, 2), max_size=4).filter(lambda v: len(v) != 2),
        st.integers(0, 2).map(lambda i: [i, i]),
        st.integers().filter(lambda i: not 0 <= i < 3).map(lambda i: [0, i]),
    ),
    "start_mode": _TEXT.filter(lambda v: v != "center"),
    "plan_start": st.one_of(_flat(3), st.none()),
    "plan_goal": st.one_of(_flat(3), st.none()),
    "plan_w1": st.floats(max_value=0.0, exclude_max=True),
    "plan_w2": st.floats(max_value=0.0, exclude_max=True),
    "plan_obstacles": st.one_of(
        st.lists(_FINITE, max_size=7).filter(lambda v: len(v) != 5).map(lambda ob: [ob]),
        st.tuples(_FINITE, _FINITE, _FINITE, _FINITE).map(    # q11 q22 <= q12^2
            lambda v: [[v[0], v[1], abs(v[2]), abs(v[2]) + abs(v[3]), abs(v[2])]]),
        st.just([[0.0, 0.3, -25.0, 0.0, -25.0]]),
    ),
    "plan_max_iter": _below(0),
    "two_step_fraction": _NOT_OPEN_UNIT,
    "tighten_budget": _below(1),
}
_CONTEXT = {
    "plan_start": {"plan_enabled": True, "plan_goal": [-0.5, 0.25, -0.2]},
    "plan_goal": {"plan_enabled": True, "plan_start": [0.6, 0.4, 0.24]},
}


def test_every_rule_has_values_that_break_it():
    import prcitube.harness as harness

    assert set(_WRONG_VALUE) == set(harness.RULES)
    assert {f.type for f in dataclasses.fields(ExperimentConfig)} == set(_WRONG_TYPE)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_a_value_outside_its_rule_is_refused_before_anything_is_written(data):
    """A key and a value of the wrong type or outside the key's rule: the
    config refuses it naming the key, and so does the CLI, from the config
    file or (a negative seed) from ``--seed``, writing nothing."""
    import contextlib
    import io
    import tempfile

    field = data.draw(st.sampled_from(dataclasses.fields(ExperimentConfig)), label="key")
    key = field.name
    value = data.draw(st.one_of(_WRONG_TYPE[field.type], _WRONG_VALUE.get(key, st.nothing())),
                      label="value")
    values = {**_CONTEXT.get(key, {}), key: value}
    with pytest.raises(ValueError, match=key):
        ExperimentConfig.from_dict(values)
    runs = [([f"{k} = {json.dumps(v)}" for k, v in values.items()], [])]
    if key == "seed" and type(value) is int:
        runs.append(([], ["--seed", str(value)]))
    for lines, args in runs:
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(io.StringIO()) as err:
            cfg = Path(tmp) / "smoke.toml"
            cfg.write_text(SMOKE + "".join(line + "\n" for line in lines))
            run = Path(tmp) / "run"
            assert cli_main(["pipeline", "--config", str(cfg), "--out", str(run), *args]) == 1
            assert key in err.getvalue()
            assert not run.exists()


def test_waypoint_pd_sampler_on_the_3d_benchmark_is_refused_before_anything_is_written(
    tmp_path, capsys
):
    ExperimentConfig.from_dict({"benchmark": "vtol", "reference_sampler": "waypoint_pd"})
    with pytest.raises(ValueError, match="reference_sampler") as err:
        ExperimentConfig.from_dict({"benchmark": "threeD", "reference_sampler": "waypoint_pd"})
    assert "benchmark" in str(err.value)
    cfg = write_smoke(tmp_path, 'reference_sampler = "waypoint_pd"\n')
    assert cli_main(["pipeline", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert "reference_sampler" in err and "benchmark" in err
    assert not (tmp_path / "run").exists()


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


def _harness_names(tree) -> set:
    """Every ``harness.<name>`` in a parsed script, and in the code it
    passes to a subprocess as a string."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "harness":
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and "import harness" in str(node.value):
            names |= _harness_names(ast.parse(node.value))
    return names


@pytest.mark.parametrize("script", ["bench_simulation.py", "bench_resume.py", "check_identical.py"])
def test_script_harness_names_resolve(script):
    """Every harness name that a script reads still exists; the scripts are
    parsed, never run."""
    import prcitube.harness as harness

    path = Path(__file__).resolve().parents[1] / "scripts" / script
    names = _harness_names(ast.parse(path.read_text()))
    assert "run_pipeline" in names
    assert sorted(n for n in names if not hasattr(harness, n)) == []


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


def test_plan_stage_tracks_second_step_and_end_to_end_as_one_block(tmp_path, monkeypatch):
    """The second calibration step's records and the end-to-end rollouts
    come from one track call on the plan, in today's draw order, and equal
    the two calls that each set of starts would make alone."""
    import prcitube.harness as harness
    from prcitube.tube import start_in_ball

    real_track, calls = harness.track, []

    def track(sys_true, metric, predictor, references, starts):
        rolls = real_track(sys_true, metric, predictor, references, starts)
        calls.append((sys_true, metric, predictor, references, starts, rolls))
        return rolls

    monkeypatch.setattr(harness, "track", track)
    cfg = ExperimentConfig.from_dict(
        dict(SINGLE_STEP_PLAN, two_step=True, out_dir=str(tmp_path / "two"))
    )
    report = run_pipeline(cfg, stop_after="plan")
    # the calibration records' block comes first, then the plan stage's
    cal_call, (sys_true, metric, predictor, references, starts, rolls) = calls
    assert len(cal_call[3]) == cfg.n_cal
    n2 = cfg.n_cal - int(round(cfg.two_step_fraction * cfg.n_cal))
    assert len(starts) == n2 + cfg.n_test == 5
    assert report["plan"]["end_to_end"]["n_rollouts"] == cfg.n_test

    plan = references[0]
    assert all(r is plan for r in references)
    radius = report["plan"]["tightening_radius"]
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(cfg.seed + 1)))
    want = [
        start_in_ball(metric, plan.states[0], radius, rng_stream(cfg.seed, f"twostep-start-{i}"))
        for i in range(n2)
    ]
    want += [start_in_ball(metric, plan.states[0], radius, rng) for _ in range(cfg.n_test)]
    assert np.array(starts).tobytes() == np.array(want).tobytes()

    apart = (real_track(sys_true, metric, predictor, references[:n2], starts[:n2])
             + real_track(sys_true, metric, predictor, references[n2:], starts[n2:]))
    for a, b in zip(rolls, apart):
        for name in ("states", "inputs", "uncertainties"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()


@pytest.mark.parametrize("fraction", [1.5, -0.5])
def test_config_refuses_a_two_step_fraction_outside_the_unit_interval(tmp_path, capsys, fraction):
    """Refused when the config is built, long before the plan stage's
    ``conformal.split_calibration`` would refuse it."""
    _assert_refused(tmp_path, capsys, "two_step_fraction",
                    dict(SINGLE_STEP_PLAN, two_step=True, two_step_fraction=fraction))


@pytest.mark.parametrize("n_cal, fraction", [(1, 0.5), (3, 0.9)])
def test_two_step_split_that_leaves_a_step_empty_is_refused(tmp_path, capsys, n_cal, fraction):
    """round(fraction * n_cal) records size the tube and the rest are
    regenerated for tracking; a step left without one would fail after
    every stage up to the tube had written its files."""
    ExperimentConfig.from_dict(dict(SINGLE_STEP_PLAN, two_step=False, n_cal=n_cal,
                                    two_step_fraction=fraction))
    _assert_refused(tmp_path, capsys, "two_step_fraction",
                    dict(SINGLE_STEP_PLAN, two_step=True, n_cal=n_cal, two_step_fraction=fraction))


def test_plan_stage_calibrations_are_the_conformal_two_step(tmp_path, monkeypatch):
    """The plan stage's two calibration files hold, bit for bit, what
    ``two_step_calibrate`` gives on the calibration set and on the
    second-step records the plan stage tracked; a resume recomputes
    neither."""
    from prcitube import conformal
    from prcitube.predictor import DatasetEntry, TrainingDataset

    _, calls = _spy_track(monkeypatch)
    cfg = ExperimentConfig.from_dict(
        dict(SINGLE_STEP_PLAN, two_step=True, out_dir=str(tmp_path / "two"))
    )
    run_pipeline(cfg, stop_after="plan")
    out = tmp_path / "two"
    _, _, predictor, references, _, rolls = calls[-1]
    cal_ds = load_dataset(out / "cal_data", reference_dir=out / "ref_data")
    n2 = len(conformal.split_calibration(cal_ds, cfg.two_step_fraction)[1])
    second = TrainingDataset(
        tuple(DatasetEntry(f"twostep-{i}", r, None, references[i])
              for i, r in enumerate(rolls[:n2]) if r is not None),
        "cal",
    )
    steps = conformal.two_step_calibrate(cal_ds, predictor, benchmark_systems(cfg)[0], cfg.alpha,
                                         cfg.two_step_fraction, second)
    files = [out / "plan" / name for name in ("calibration_tube.json", "calibration_tracking.json")]
    for path, step in zip(files, steps):
        want = tmp_path / path.name
        write_json(want, step.to_json_dict())
        assert path.read_bytes() == want.read_bytes(), path.name

    before = [path.read_bytes() for path in files]
    _forbid_recompute(monkeypatch)
    run_pipeline(cfg, stop_after="plan")
    assert [path.read_bytes() for path in files] == before


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


def test_plan_stage_without_test_rollouts_reports_nan_fractions(tmp_path):
    """n_test = 0: the plan stage judges no end-to-end rollout, and each
    fraction over them is NaN, as the coverage fraction is."""
    settings = dict(SINGLE_STEP_PLAN, two_step=True, n_test=0)
    cfg = ExperimentConfig.from_dict(dict(settings, out_dir=str(tmp_path / "plan")))
    report = run_pipeline(cfg)
    end_to_end = report["plan"]["end_to_end"]
    assert end_to_end["n_rollouts"] == end_to_end["n_start_eligible"] == 0
    for key in ("containment_fraction", "containment_fraction_eligible",
                "original_violation_fraction", "obstacle_violation_fraction"):
        assert end_to_end[key] == "nan", key
    assert report["coverage"]["n_rollouts"] == 0 and report["coverage"]["fraction"] == "nan"


def test_cli_pipeline_without_test_rollouts_prints_the_nan_fraction(tmp_path, capsys):
    cfg = write_smoke(tmp_path, "n_test = 0\n")
    assert cli_main(["pipeline", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
    out = capsys.readouterr().out
    assert "  rollouts    : 0\n" in out and "  fraction    : nan\n" in out


VTOL_MICRO = {
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
}


def test_pipeline_vtol_micro(tmp_path):
    cfg = ExperimentConfig.from_dict(dict(VTOL_MICRO, out_dir=str(tmp_path / "vtol")))
    report = run_pipeline(cfg)
    assert report["valid"] is True
    assert report["metric"]["verification_passed"] is True
    # hover-centred sampling keeps the micro run inside the certificate box
    assert (tmp_path / "vtol" / "tube_ellipses.csv").exists()
    header = (tmp_path / "vtol" / "tube_ellipses.csv").read_text().splitlines()[0]
    assert header == "t,center_1,center_2,a11,a12,a22,radius"


def _spy_pd_flights(monkeypatch) -> list:
    """The start block of every ``harness.integrate`` call; the harness
    integrates only its waypoint-PD flights itself."""
    import prcitube.harness as harness

    real, starts = harness.integrate, []

    def integrate(sys, x0, policy, T, dt):
        starts.append(np.array(x0))
        return real(sys, x0, policy, T, dt)

    monkeypatch.setattr(harness, "integrate", integrate)
    return starts


def _tree_bytes(top: Path) -> dict:
    return {p.relative_to(top).as_posix(): p.read_bytes() for p in sorted(top.rglob("*"))
            if p.is_file()}


def test_waypoint_test_references_for_no_flights_are_empty():
    import prcitube.harness as harness

    cfg = ExperimentConfig.from_dict(dict(VTOL_MICRO, reference_sampler="waypoint_pd", n_test=0))
    assert harness._test_references(cfg, benchmark_systems(cfg)[0]) == ([], [])


def test_vtol_waypoint_flights_run_as_one_block_and_resume_alone(tmp_path, monkeypatch):
    """A cold waypoint-PD run flies the reference and test signals as one
    block.  With ref_data reused and cal_data and evaluate recomputed, the
    test flights run alone, and every output file matches the cold run."""
    from prcitube.harness import sample_initial_condition

    out = tmp_path / "vtol"
    cfg = ExperimentConfig.from_dict(
        dict(VTOL_MICRO, reference_sampler="waypoint_pd", out_dir=str(out))
    )
    flights = [("ref", i) for i in range(cfg.n_train + cfg.n_cal)]
    flights += [("test", i) for i in range(cfg.n_test)]
    test_ids = [f"test-{i:04d}" for i in range(cfg.n_test)]

    with monkeypatch.context() as m:
        starts = _spy_pd_flights(m)
        replays = _spy_reference_replays(m)
        run_pipeline(cfg)
    (block,) = starts
    want = np.array([sample_initial_condition(cfg, tag, i) for tag, i in flights])
    assert block.tobytes() == want.tobytes()
    assert replays == [[f"{tag}-{i:04d}" for tag, i in flights]]
    cold = _tree_bytes(out)

    (out / "cal_data" / "manifest.json").unlink()
    (out / "test" / "coverage.json").unlink()
    starts = _spy_pd_flights(monkeypatch)
    replays = _spy_reference_replays(monkeypatch)
    _, calls = _spy_track(monkeypatch)
    run_pipeline(cfg)
    (block,) = starts
    assert block.tobytes() == want[cfg.n_train + cfg.n_cal :].tobytes()
    assert replays == [test_ids]
    assert [len(c[3]) for c in calls] == [cfg.n_cal + cfg.n_test]
    assert _tree_bytes(out) == cold
