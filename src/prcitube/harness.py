"""Experiment orchestration: configs, persistence, the staged pipeline.

A pipeline run is a sequence of stages, each persisting its artifacts under
the output directory.  A stage loads its artifacts back instead of
recomputing only when all of them exist (for a dataset directory: its
manifest reads, every CSV it lists exists, references included, and a
train or cal record's CSV header has its ``zeta_*`` columns) and the ledger
``provenance.json`` records that stage under the digest of the current
config (without ``out_dir``); any config change except ``out_dir``
therefore recomputes every stage, and deleting one artifact, a trajectory
CSV included, regenerates exactly its stage.  A reused dataset parses a
CSV body only when a recomputed stage reads that record.

The calibration records and the test rollouts are exchangeable runs of the
same compensated closed loop, so when a run goes on to ``evaluate``, the
cal_data stage tracks both as one block and hands the test rollouts to
``stage_evaluate``, which only builds their tubes and judges them.  When
cal_data is reused, or the run stops earlier, evaluate tracks its own test
set alone.  In the same way the ref_data stage replays the test
references with the reference dataset, as one nominal block, and hands
them on to that closed-loop block; when ref_data is reused they are
replayed alone.  A resumed run reuses every stage: it simulates nothing
and parses no dataset CSV.
All randomness flows through named counter-based streams derived from the
config seed, so records can be generated in any order (or in parallel)
without changing results, and identical configs produce byte-identical
reports.

Config files are a flat key = value text format (TOML-compatible subset):
ints, floats, booleans, quoted strings and JSON-style lists; '#' comments.
"""

from __future__ import annotations

import hashlib
import json
import zlib
from dataclasses import asdict, dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Optional

import numpy as np

from . import conformal, tube as tube_mod
from .errors import InsufficientCalibrationData, PrcitubeError
from .metric import ContractionMetric, box_grid, synthesize_constant_metric, verify_contraction
from .control import track
from .planner import ObstacleEllipse, PlanProblem, end_to_end_run, plan as solve_plan
from .predictor import (
    PiecewiseLinearInput,
    TrainConfig,
    TrainingDataset,
    DatasetEntry,
    UncertaintyPredictor,
    generate_perturbed_dataset,
    generate_reference_dataset,
    perturbed_dataset,
    split_reference,
    train,
)
from .systems import (
    VTOL_ARM,
    VTOL_GRAVITY,
    VTOL_INERTIA,
    VTOL_MASS,
    DynamicalSystem,
    TrajectoryRecord,
    integrate,
    make_benchmark_3d,
    make_benchmark_vtol,
)
from .tube import PRCITube, project_tube_2d, tighten_input_box, tighten_state_box

PIPELINE_STAGES = ("metric", "gen-data", "train", "calibrate", "tube", "plan", "evaluate")


# ---------------------------------------------------------------------------
# Named deterministic streams
# ---------------------------------------------------------------------------

def rng_stream(seed: int, name: str) -> np.random.Generator:
    """Philox stream keyed by (seed, crc32(name)): stable across runs and
    independent across names."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence((int(seed), zlib.crc32(name.encode()))))
    )


# ---------------------------------------------------------------------------
# Config
# ---------------------------------------------------------------------------

def parse_flat_config(text: str) -> dict:
    """Parse the flat key = value format; values are JSON fragments."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        try:
            out[key] = json.loads(value)
        except json.JSONDecodeError:
            out[key] = value
    return out


@dataclass(frozen=True)
class ExperimentConfig:
    benchmark: str = "threeD"
    seed: int = 0
    n_train: int = 100
    n_cal: int = 50
    n_test: int = 100
    horizon_s: float = 5.0
    dt_s: float = 0.01
    alpha: float = 0.05
    # dataset samplers
    init_box: Optional[list] = None         # flat [lo1, hi1, lo2, hi2, ...]
    reference_sampler: str = "spline"       # spline | waypoint_pd (vtol)
    input_knot_amp: float = 0.4
    input_knot_trim_start: bool = False     # pin the first knot to the trim input
    knot_spacing_s: float = 1.0
    waypoint_box: Optional[list] = None     # flat (p_x, p_z) bounds for waypoint_pd
    # predictor
    predictor_family: str = "mlp"
    predictor_epochs: int = 80
    predictor_hidden: list = field(default_factory=lambda: [32, 32])
    predictor_degree: int = 2
    predictor_lr: float = 0.05
    predictor_batch: int = 16
    # metric
    lambda_lo: float = 0.3
    lambda_hi: float = 1.0
    metric_grid_points: int = 5
    metric_margin: float = -0.05
    metric_chi_max: float = 100.0
    metric_box: Optional[list] = None       # certificate region, flat [lo,hi,...]
    # tube / projection
    projection_coords: list = field(default_factory=lambda: [0, 1])
    start_mode: str = "center"              # test rollouts start on their reference; the only mode
    # planner scenario (optional)
    plan_enabled: bool = False
    plan_start: Optional[list] = None
    plan_goal: Optional[list] = None
    plan_w1: float = 0.1
    plan_w2: float = 1.0
    plan_obstacles: list = field(default_factory=list)   # flat [cx,cy,q11,q12,q22] each
    plan_max_iter: int = 120
    two_step: bool = False
    two_step_fraction: float = 0.5
    tighten_budget: int = 32
    # misc
    out_dir: str = "runs/experiment"

    def __post_init__(self):
        # Kept so that configs and reports keep the key.  A start in the
        # tube ball would need the calibrated radius, which does not exist
        # yet when the calibration block tracks the test rollouts.
        if self.start_mode != "center":
            raise ValueError(f"start_mode must be 'center', got {self.start_mode!r}")

    @staticmethod
    def from_dict(d: dict) -> "ExperimentConfig":
        known = {f for f in ExperimentConfig.__dataclass_fields__}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return ExperimentConfig(**d)

    @staticmethod
    def from_file(path) -> "ExperimentConfig":
        with open(path) as fh:
            return ExperimentConfig.from_dict(parse_flat_config(fh.read()))

    def to_dict(self) -> dict:
        return asdict(self)

    @cached_property
    def digest(self) -> str:
        """sha256 of the canonical JSON of every key except ``out_dir``."""
        d = self.to_dict()
        del d["out_dir"]
        return hashlib.sha256(json.dumps(d, sort_keys=True).encode()).hexdigest()


def benchmark_systems(config: ExperimentConfig) -> tuple[DynamicalSystem, DynamicalSystem]:
    if config.benchmark == "threeD":
        return make_benchmark_3d()
    if config.benchmark == "vtol":
        true = make_benchmark_vtol()
        return true.nominal, true
    raise ValueError(f"unknown benchmark {config.benchmark!r}")


def _default_init_box(config: ExperimentConfig) -> np.ndarray:
    if config.init_box is not None:
        flat = np.asarray(config.init_box, dtype=float)
        return flat.reshape(-1, 2)
    if config.benchmark == "threeD":
        return np.array([[-1.0, 1.0]] * 3)
    # vtol: near-hover attitudes and small velocities, positions near origin
    return np.array(
        [[-0.5, 0.5], [-0.5, 0.5], [-0.1, 0.1], [-0.2, 0.2], [-0.2, 0.2], [-0.1, 0.1]]
    )


def _input_center(config: ExperimentConfig, sys_nom: DynamicalSystem) -> np.ndarray:
    if config.benchmark == "vtol":
        return np.full(2, VTOL_MASS * VTOL_GRAVITY / 2.0)
    return np.zeros(sys_nom.input_dim)


def sample_initial_condition(config, tag: str, index: int) -> np.ndarray:
    box = _default_init_box(config)
    rng = rng_stream(config.seed, f"{tag}-ic-{index}")
    return rng.uniform(box[:, 0], box[:, 1])


def sample_reference_policies(config, sys_nom, tag: str, n: int) -> list[PiecewiseLinearInput]:
    """Reference input signals 0..n-1 of ``tag``, signal i drawn from the
    stream ``{tag}-policy-{i}``; all share one set of knot times."""
    if config.reference_sampler == "waypoint_pd":
        return _waypoint_pd_inputs(config, sys_nom, tag, n)
    n_knots = int(np.floor(config.horizon_s / config.knot_spacing_s)) + 1
    knot_times = np.arange(n_knots) * config.knot_spacing_s
    if knot_times[-1] < config.horizon_s:
        knot_times = np.append(knot_times, config.horizon_s)
    center = _input_center(config, sys_nom)
    amp = config.input_knot_amp
    box = sys_nom.input_box
    signals = []
    for i in range(n):
        rng = rng_stream(config.seed, f"{tag}-policy-{i}")
        values = center + rng.uniform(-amp, amp, (len(knot_times), sys_nom.input_dim))
        if config.input_knot_trim_start:
            values[0] = center
        signals.append(PiecewiseLinearInput(knot_times, np.clip(values, box[:, 0], box[:, 1])))
    return signals


def _waypoint_pd_inputs(config, sys_nom, tag: str, n: int) -> list[PiecewiseLinearInput]:
    """Reference input signals for attitude-unstable plants (the VTOL).

    Independent random thrust knots integrate into tumbling through the
    roll channel, so instead a hover PD law flies the nominal plant to a
    random waypoint and its recorded input sequence becomes the open-loop
    reference signal.  All n flights are one block, flight i from initial
    condition i to the waypoint drawn from the stream ``{tag}-policy-{i}``.
    """
    wbox = (
        np.asarray(config.waypoint_box, dtype=float).reshape(-1, 2)
        if config.waypoint_box is not None
        else np.array([[-1.0, 1.0], [-0.6, 0.6]])
    )
    target = np.array(
        [rng_stream(config.seed, f"{tag}-policy-{i}").uniform(wbox[:, 0], wbox[:, 1])
         for i in range(n)]
    )
    x0 = np.array([sample_initial_condition(config, tag, i) for i in range(n)])
    m, J, g, arm = VTOL_MASS, VTOL_INERTIA, VTOL_GRAVITY, VTOL_ARM
    box = sys_nom.input_box

    def pd_policy(x, t):
        px, pz, phi, vx, vz, phidot = (x[..., i] for i in range(6))
        # velocity-limited outer loop; accelerating +x needs negative tilt
        # (v_x dot = -g sin(phi) near hover), speeds stay inside the
        # certificate region
        vx_des = np.clip(0.8 * (target[:, 0] - px), -0.6, 0.6)
        phi_des = np.clip(-0.5 * (vx_des - vx), -0.25, 0.25)
        thrust = m * (g + 1.2 * (target[:, 1] - pz) - 1.6 * vz) / np.maximum(np.cos(phi), 0.5)
        torque = J * (9.0 * (phi_des - phi) - 4.0 * phidot)
        u1 = 0.5 * (thrust + torque / arm)
        u2 = 0.5 * (thrust - torque / arm)
        return np.clip(np.stack([u1, u2], axis=-1), box[:, 0], box[:, 1])

    signals = []
    for i, rec in enumerate(integrate(sys_nom, x0, pd_policy, config.horizon_s, config.dt_s)):
        if rec is None:
            raise PrcitubeError(f"the PD flight of {tag}-policy-{i} diverged")
        signals.append(PiecewiseLinearInput(rec.times, rec.inputs))
    return signals


# ---------------------------------------------------------------------------
# Persistence helpers
# ---------------------------------------------------------------------------

def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, float) and not np.isfinite(obj):
        return repr(obj)    # 'inf' / '-inf' / 'nan', JSON-safe
    return obj


def write_json(path, payload) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(_jsonable(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def save_dataset(ds: TrainingDataset, directory, benchmark: str) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    entries = []
    for e in ds.entries:
        csv_name = f"{e.entry_id}.csv"
        e.record.save_csv(directory / csv_name)
        entries.append(
            {
                "id": e.entry_id,
                "csv": csv_name,
                "policy": e.policy.to_json_dict(),
                "reference_id": e.entry_id if e.reference is not None else None,
                "envelope": e.record.envelope(benchmark),
            }
        )
    write_json(
        directory / "manifest.json",
        {"split_tag": ds.split_tag, "benchmark": benchmark, "entries": entries},
    )


def load_dataset(directory, reference_dir=None) -> TrainingDataset:
    """The dataset saved in ``directory``, its references from
    ``reference_dir``.  Reads the manifest and checks that every CSV it
    lists exists (and, for the train and cal splits, that each record's
    header carries the ``zeta_*`` columns); each CSV body is parsed on first
    access to its entry's ``record`` or ``reference``, and each input signal
    is built from its manifest JSON on first access to ``policy``."""
    directory = Path(directory)
    manifest = read_json(directory / "manifest.json")

    def stored(path: Path) -> Path:
        if not path.is_file():
            raise FileNotFoundError(f"{path}: listed in {directory / 'manifest.json'}, missing")
        return path

    entries = []
    for item in manifest["entries"]:
        reference = None
        if item.get("reference_id") and reference_dir is not None:
            reference = stored(Path(reference_dir) / f"{item['reference_id']}.csv")
        entries.append(
            DatasetEntry(item["id"], stored(directory / item["csv"]), item["policy"], reference)
        )
    return TrainingDataset(tuple(entries), manifest["split_tag"])


LEDGER = "provenance.json"


def _ledger(out: Path) -> dict:
    try:
        return read_json(out / LEDGER)
    except (FileNotFoundError, ValueError):     # none yet, or cut off mid-write
        return {}


def _reuse(config: ExperimentConfig, out: Path, stage: str, *paths: Path) -> bool:
    """The one reuse rule: True when every artifact of ``stage`` (``paths``)
    exists and the ledger records the stage under this config's digest.
    Otherwise the stage's ledger entry is dropped before it recomputes, so an
    entry never vouches for files its stage has not finished writing."""
    ledger = _ledger(out)
    if ledger.get(stage) == config.digest and all(p.exists() for p in paths):
        return True
    if ledger.pop(stage, None) is not None:
        write_json(out / LEDGER, ledger)
    return False


def _record(config: ExperimentConfig, out: Path, stage: str) -> None:
    """Vouch for ``stage``'s artifacts, once they are all written."""
    write_json(out / LEDGER, {**_ledger(out), stage: config.digest})


def _dataset_stage(config, out: Path, stage: str, reference_dir, generate) -> TrainingDataset:
    """A dataset stage: the directory ``out / stage`` (its manifest is written
    last) is reused by ``_reuse`` only when ``load_dataset`` accepts it: the
    manifest reads, every CSV it lists (references included) exists, and a
    train or cal record's header has its ``zeta_*`` columns.  Otherwise
    ``generate()`` runs and its dataset is saved, so a deleted CSV
    regenerates exactly this stage.  A reused dataset parses no CSV body
    until a recomputed stage reads the record; a body that does not parse
    then raises ``ValueError`` naming the file (the ledger vouched for it,
    so it was edited after its stage finished)."""
    directory = out / stage
    if _reuse(config, out, stage, directory / "manifest.json"):
        try:
            return load_dataset(directory, reference_dir)
        except (OSError, ValueError):   # unreadable: drop the entry, then recompute
            write_json(out / LEDGER, {k: v for k, v in _ledger(out).items() if k != stage})
    ds = generate()
    save_dataset(ds, directory, config.benchmark)
    _record(config, out, stage)
    return ds


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------

def stage_metric(config: ExperimentConfig, sys_nom: DynamicalSystem, out: Path):
    path = out / "metric.json"
    vpath = out / "metric_verification.json"
    if _reuse(config, out, "metric", path, vpath):
        return ContractionMetric.from_json_dict(read_json(path)), read_json(vpath)
    grid = _metric_grid(config, sys_nom, config.metric_grid_points)
    metric = synthesize_constant_metric(
        sys_nom, grid, (config.lambda_lo, config.lambda_hi),
        chi_max=config.metric_chi_max, margin_target=config.metric_margin,
    )
    write_json(path, metric.to_json_dict())
    fine = _metric_grid(config, sys_nom, 2 * config.metric_grid_points - 1)
    write_json(vpath, verify_contraction(metric, sys_nom, fine).to_json_dict())
    _record(config, out, "metric")
    return metric, read_json(vpath)


def _metric_grid(config, sys_nom, points: int) -> np.ndarray:
    if config.metric_box is not None:
        box = np.asarray(config.metric_box, dtype=float).reshape(-1, 2)
    elif config.benchmark == "vtol":
        # No constant metric certifies the full attitude box; default to the
        # near-hover region.  Positions drop out (dynamics are invariant).
        r = float(np.deg2rad(30.0))
        box = np.array([[0, 0], [0, 0], [-r, r], [-1, 1], [-0.5, 0.5], [-r, r]])
    else:
        box = sys_nom.state_box
    per_dim = [1 if hi <= lo else points for lo, hi in box]
    return box_grid(box, per_dim)


def _replay_references(config, sys_nom, counts: dict) -> dict:
    """References 0..n-1 of each tag in ``counts`` (``ref-0000``, ...,
    ``test-0000``, ...), drawn from the tag's streams and replayed on the
    nominal plant as one block; their dataset entries by tag, a diverged
    one logged and left out."""
    ids, starts, signals = [], [], []
    for tag, n in counts.items():
        ids += [f"{tag}-{i:04d}" for i in range(n)]
        starts += [sample_initial_condition(config, tag, i) for i in range(n)]
        signals += sample_reference_policies(config, sys_nom, tag, n)
    ds = generate_reference_dataset(sys_nom, starts, signals, config.horizon_s, config.dt_s, ids)
    return {tag: [e for e in ds.entries if e.entry_id.startswith(f"{tag}-")] for tag in counts}


def _test_set(entries) -> tuple[list[str], list[TrajectoryRecord]]:
    return [e.entry_id for e in entries], [e.record for e in entries]


def stage_ref_data(config, sys_nom, out: Path, with_test: bool = False):
    """The reference dataset, and (``with_test``, when the dataset is
    generated) the test references replayed after it in the same nominal
    block, for the closed-loop block of ``_track_block``; only the
    reference records are saved.  Returns ``(dataset, test references as
    from _test_references, or None)``."""
    test_refs = None

    def generate():
        nonlocal test_refs
        counts = {"ref": config.n_train + config.n_cal}
        if with_test:
            counts["test"] = config.n_test
        entries = _replay_references(config, sys_nom, counts)
        if with_test:
            test_refs = _test_set(entries["test"])
        return TrainingDataset(tuple(entries["ref"]), "ref")

    return _dataset_stage(config, out, "ref_data", None, generate), test_refs


def stage_train_data(config, sys_true, ref_train, out: Path) -> TrainingDataset:
    return _dataset_stage(
        config, out, "train_data", out / "ref_data",
        lambda: generate_perturbed_dataset(sys_true, ref_train, "open_loop_reference", "train"),
    )


def stage_train(config, train_ds, out: Path) -> UncertaintyPredictor:
    path = out / "predictor.json"
    if _reuse(config, out, "train", path):
        return UncertaintyPredictor.from_json_dict(read_json(path))
    cfg = TrainConfig(
        seed=config.seed,
        epochs=config.predictor_epochs,
        batch_size=config.predictor_batch,
        learning_rate=config.predictor_lr,
        hidden=tuple(config.predictor_hidden),
        degree=config.predictor_degree,
    )
    p = train(train_ds, config.predictor_family, cfg)
    write_json(path, p.to_json_dict())
    _record(config, out, "train")
    return p


def _test_references(config, sys_nom) -> tuple[list[str], list[TrajectoryRecord]]:
    """The evaluation references ``test-0000``, ``test-0001``, ... and
    their ids, replayed alone on the nominal plant as one block from the
    ``test`` streams; a diverged one is logged and left out."""
    return _test_set(_replay_references(config, sys_nom, {"test": config.n_test})["test"])


def _track_block(
    config, sys_nom, sys_true, metric, predictor, cal_refs, with_test: bool, test_refs=None
):
    """One closed-loop block: each calibration reference tracked from its
    first state, then (``with_test``) each test reference from its own.
    ``test_refs`` is the test set ``(ids, references)`` that
    ``stage_ref_data`` replayed; without it ``_test_references`` replays it.

    Returns the calibration rollouts and the test set ``(ids, references,
    rollouts)``, or None for it without ``with_test``; a diverged rollout is
    None.  A block row rounds as the row alone, so merging the two sets
    changes no bit of either.
    """
    if with_test and test_refs is None:
        test_refs = _test_references(config, sys_nom)
    ids, test_refs = test_refs if with_test else ([], [])
    refs = list(cal_refs) + test_refs
    rollouts = track(sys_true, metric, predictor, refs, [r.states[0] for r in refs])
    n = len(cal_refs)
    return rollouts[:n], (ids, test_refs, rollouts[n:]) if with_test else None


def stage_cal_data(
    config, sys_nom, sys_true, ref_cal, metric, predictor, out: Path, with_test: bool = False,
    test_refs=None,
):
    """The calibration records, and (``with_test``, when the records are
    generated) the test rollouts tracked in the same block, for
    ``stage_evaluate``; ``test_refs`` as in ``_track_block``.  Returns
    ``(dataset, test set or None)``."""
    test = None

    def generate():
        nonlocal test
        records, test = _track_block(
            config, sys_nom, sys_true, metric, predictor,
            [e.record for e in ref_cal.entries], with_test, test_refs,
        )
        return perturbed_dataset(ref_cal, records, "cal")

    return _dataset_stage(config, out, "cal_data", out / "ref_data", generate), test


def stage_calibrate(config, cal_ds, predictor, sys_true, out: Path) -> conformal.CalibrationResult:
    spath = out / "scores.json"
    cpath = out / "calibration.json"
    if _reuse(config, out, "calibrate", spath, cpath):
        return conformal.CalibrationResult.from_json_dict(read_json(cpath))
    scores = conformal.score_dataset(cal_ds, predictor, sys_true)
    write_json(spath, {"scores": list(map(float, scores))})
    result = conformal.calibrate(scores, config.alpha, {"predictor": predictor.family})
    write_json(cpath, result.to_json_dict())
    _record(config, out, "calibrate")
    return result


def stage_tube(config, metric, calibration, cal_ds, out: Path) -> dict:
    """The tube around the first calibration reference.  Its radius comes
    from the metric and the calibration alone, so the reference record is
    read only when ``tube.json`` is written."""
    path = out / "tube.json"
    csv_path = out / "tube_ellipses.csv"
    radius = tube_mod.tube_radius(metric, calibration)
    # an infinite tube has no projection; none may survive from another config
    finite = bool(np.isfinite(radius))
    if not _reuse(config, out, "tube", path, *([csv_path] if finite else [])):
        reference = cal_ds.entries[0].reference or cal_ds.entries[0].record
        t = PRCITube.from_calibration(reference, metric, calibration, source_id="calibration")
        write_json(path, t.to_json_dict())
        csv_path.unlink(missing_ok=True)
        if finite:
            project_tube_2d(t, tuple(config.projection_coords)).save_csv(csv_path)
        _record(config, out, "tube")
    return {"radius": radius, "alpha": calibration.alpha}


def _parse_obstacles(config) -> tuple:
    coords = tuple(config.projection_coords)
    return tuple(
        ObstacleEllipse(np.array([cx, cy]), np.array([[q11, q12], [q12, q22]]), coords)
        for cx, cy, q11, q12, q22 in config.plan_obstacles
    )


def stage_plan(config, sys_nom, sys_true, metric, predictor, cal_ds, out: Path) -> dict:
    """Tightened planning with the two-step calibration protocol."""
    plan_dir = out / "plan"
    report_path = plan_dir / "plan_report.json"
    written = ("plan.csv", "plan_manifest.json", "calibration_tube.json",
               "calibration_tracking.json", "plan_report.json")
    if _reuse(config, out, "plan", *(plan_dir / name for name in written)):
        return read_json(report_path)
    plan_dir.mkdir(parents=True, exist_ok=True)

    n = len(cal_ds)
    n1 = int(round(config.two_step_fraction * n)) if config.two_step else n
    first = TrainingDataset(cal_ds.entries[:n1], "cal")
    scores_a = conformal.score_dataset(first, predictor, sys_true)
    cal_a = conformal.calibrate(
        scores_a, config.alpha, {"step": "tube-radius", "n": len(scores_a)}
    )
    rep_ref = first.entries[0].reference or first.entries[0].record
    rep_tube = PRCITube.from_calibration(rep_ref, metric, cal_a, "tightening")
    radius_a = rep_tube.radius

    s_box = tighten_state_box(sys_nom.state_box, radius_a, metric)
    a_box = tighten_input_box(
        sys_nom.input_box, rep_tube, metric, sys_nom,
        budget=config.tighten_budget, seed=config.seed,
    )
    if s_box.empty or a_box.empty:
        raise PrcitubeError("tightened boxes are empty; tube too large for the scenario")

    obstacles = _parse_obstacles(config)
    if obstacles and np.isfinite(radius_a):
        inflate_by = project_tube_2d(rep_tube, tuple(config.projection_coords)).max_extent()
        planning_obstacles = tuple(o.inflate(inflate_by) for o in obstacles)
    else:
        planning_obstacles = obstacles

    problem = PlanProblem(
        sys=sys_nom,
        T=config.horizon_s,
        dt=config.dt_s,
        x0=np.asarray(config.plan_start, dtype=float),
        goal=np.asarray(config.plan_goal, dtype=float),
        state_box=s_box.box,
        input_box=a_box.box,
        obstacles=planning_obstacles,
        w1=config.plan_w1,
        w2=config.plan_w2,
    )
    # warm start: the input center held over the horizon
    n_steps = int(round(config.horizon_s / config.dt_s))
    init = np.tile(_input_center(config, sys_nom), (n_steps + 1, 1))
    result = solve_plan(problem, init=init, max_iter=config.plan_max_iter)
    result.record.save_csv(plan_dir / "plan.csv")
    write_json(
        plan_dir / "plan_manifest.json",
        {
            "w1": config.plan_w1,
            "w2": config.plan_w2,
            "obstacles": [o.to_json_dict() for o in obstacles],
            "planning_obstacles": [o.to_json_dict() for o in planning_obstacles],
            "state_box": s_box.box,
            "input_box": a_box.box,
            "cost": result.cost,
            "iterations": len(result.cost_history),
            "converged": result.converged,
            "violations": result.violations,
        },
    )

    # One block tracks the plan from every start: the second calibration
    # step's records (same count as the held-out half, ball starts under the
    # tightened plan, restoring exchangeability with the evaluation rollouts;
    # none on the single-step path), then the end-to-end rollouts, drawn
    # with the same start law.
    x0 = result.record.states[0]
    starts = [
        tube_mod.start_in_ball(
            metric, x0, radius_a, rng_stream(config.seed, f"twostep-start-{i}")
        )
        for i in range(n - n1)
    ]
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(config.seed + 1)))
    starts += [tube_mod.start_in_ball(metric, x0, radius_a, rng) for _ in range(config.n_test)]
    rollouts = track(sys_true, metric, predictor, [result.record] * len(starts), starts)
    records, test_rollouts = rollouts[: n - n1], rollouts[n - n1 :]

    # Single-step fallback: the tightening quantile doubles as the tracking
    # quantile (the Remark-1 exchangeability caveat applies).
    cal_tube = cal_track = cal_a
    if config.two_step:
        # The first half was scored once, above.  A diverged record is skipped.
        scores_b = [
            conformal.nonconformity_score(rec, predictor, sys_true)
            for rec in records
            if rec is not None
        ]
        if not scores_b:
            raise InsufficientCalibrationData(
                f"two-step split needs both halves non-empty, got {n1}/0"
            )
        cal_track = conformal.calibrate(
            scores_b, config.alpha, {"step": "tracking", "n": len(scores_b)}
        )
    write_json(plan_dir / "calibration_tube.json", cal_tube.to_json_dict())
    write_json(plan_dir / "calibration_tracking.json", cal_track.to_json_dict())

    run = end_to_end_run(sys_true, result, metric, cal_track, test_rollouts, obstacles=obstacles)
    report = {
        "plan_cost": result.cost,
        "plan_converged": result.converged,
        "plan_violations": result.violations,
        "tightening_radius": radius_a,
        "tube_quantile": cal_tube.quantile_value,
        "tracking_quantile": cal_track.quantile_value,
        "state_margins": s_box.margins,
        "input_margins": a_box.margins,
        "end_to_end": {k: v for k, v in run.items() if k != "rollouts"},
    }
    write_json(report_path, report)
    _record(config, out, "plan")
    return read_json(report_path)


def stage_evaluate(
    config, sys_nom, sys_true, metric, predictor, calibration, out: Path, test=None,
    test_refs=None,
) -> dict:
    """Judge the test rollouts against their tubes.  ``test`` is the set
    that ``stage_cal_data`` tracked in its block; without it (cal_data was
    reused) the test set is tracked here, alone, from ``test_refs`` as in
    ``_track_block``."""
    rpath = out / "test" / "coverage.json"
    csv_path = out / "test" / "sup_distances.csv"
    if _reuse(config, out, "evaluate", rpath, csv_path):
        return read_json(rpath)
    (out / "test").mkdir(parents=True, exist_ok=True)
    if test is None:
        _, test = _track_block(config, sys_nom, sys_true, metric, predictor, [], True, test_refs)
    ids, refs, rollouts = test
    tubes = [PRCITube.from_calibration(ref, metric, calibration, source_id="test") for ref in refs]
    # a diverged rollout (None) stays in the count as not contained
    result = tube_mod.containment_experiment(tubes, rollouts)
    result["ids"] = ids
    write_json(rpath, result)
    lines = ["id,sup_distance,contained"]
    for i, s in zip(ids, result["sup_distances"]):
        lines.append(f"{i},{s:.17g},{int(s <= result['radius'])}")
    with open(csv_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    _record(config, out, "evaluate")
    return read_json(rpath)


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------

def run_pipeline(config: ExperimentConfig, stop_after: str = "evaluate") -> dict:
    """Execute the staged pipeline up to ``stop_after``; returns the report.

    Stage artifacts persist under config.out_dir and are reused by the rule
    of ``_reuse``.  The final report.json is deterministic for a fixed config.
    """
    if stop_after not in PIPELINE_STAGES:
        raise ValueError(f"unknown stage {stop_after!r}")
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "config.json", config.to_dict())
    sys_nom, sys_true = benchmark_systems(config)
    report: dict = {"config": config.to_dict(), "stages": []}

    def reached(stage):
        report["stages"].append(stage)
        return stage == stop_after

    metric, verification = stage_metric(config, sys_nom, out)
    report["metric"] = {
        "lambda": metric.rate,
        "m_lower": metric.lower_bound,
        "m_upper": metric.upper_bound,
        "verification_passed": verification["passed"],
    }
    if not verification["passed"]:
        report["valid"] = False
        return _finish(report, out)
    if reached("metric"):
        return _finish(report, out)

    with_test = stop_after == "evaluate"
    ref, test_refs = stage_ref_data(config, sys_nom, out, with_test)
    ref_train, ref_cal = split_reference(ref, min(config.n_train, len(ref)), min(config.n_cal, max(len(ref) - config.n_train, 0)))
    train_ds = stage_train_data(config, sys_true, ref_train, out)
    report["data"] = {
        "n_ref": len(ref),
        "n_train": len(train_ds),
        "requested_train": config.n_train,
        "requested_cal": config.n_cal,
    }
    if reached("gen-data"):
        return _finish(report, out)

    predictor = stage_train(config, train_ds, out)
    report["predictor"] = {
        "family": predictor.family,
        "sup_loss": predictor.training_info.get("sup_loss"),
        "n_records": predictor.training_info.get("n_records"),
    }
    if reached("train"):
        return _finish(report, out)

    cal_ds, test = stage_cal_data(
        config, sys_nom, sys_true, ref_cal, metric, predictor, out, with_test, test_refs
    )
    calibration = stage_calibrate(config, cal_ds, predictor, sys_true, out)
    report["calibration"] = {
        "n_cal": calibration.n_scores,
        "alpha": calibration.alpha,
        "quantile_index": calibration.quantile_index,
        "quantile_value": calibration.quantile_value,
        "infinite": calibration.infinite,
    }
    if reached("calibrate"):
        return _finish(report, out)

    report["tube"] = stage_tube(config, metric, calibration, cal_ds, out)
    if reached("tube"):
        return _finish(report, out)

    if config.plan_enabled:
        report["plan"] = stage_plan(config, sys_nom, sys_true, metric, predictor, cal_ds, out)
    if reached("plan"):
        return _finish(report, out)

    coverage = stage_evaluate(
        config, sys_nom, sys_true, metric, predictor, calibration, out, test, test_refs
    )
    report["coverage"] = {
        k: coverage[k]
        for k in (
            "n_rollouts",
            "contained",
            "fraction",
            "radius",
            "envelope_worst_excess_contained",
        )
    }
    return _finish(report, out)


def _finish(report: dict, out: Path) -> dict:
    report.setdefault("valid", True)
    write_json(out / "report.json", report)
    # Round-trip through the file so the returned dict is exactly what a
    # reader of report.json sees.
    return read_json(out / "report.json")
