"""Experiment orchestration: configs, persistence, the staged pipeline.

A pipeline run is a sequence of stages, each persisting its artifacts under
the output directory.  A stage loads its artifacts back instead of
recomputing only when all of them exist (for a dataset directory: its
manifest reads, every CSV and signal file it lists exists, references
included, and each train or cal entry's envelope says its record carries
the realized uncertainty) and the ledger ``provenance.json`` records that
stage under the digest of the current config (without ``out_dir``); any
config change except ``out_dir`` therefore recomputes every stage, and
deleting one artifact, a trajectory CSV or a signal file included,
regenerates exactly its stage.  A run reads the ledger once and keeps it
in memory, writing it back only when it drops an entry before a stage
recomputes or stamps a stage whose files are written.  ``write_json``
rewrites a JSON artifact only when its content changes, so a full resume
writes no file.
The train stage stores the report's predictor section as
``train_report.json``; ``predictor.json`` is decoded only when a
recomputing stage (cal_data, calibrate, plan or evaluate) asks for the
predictor, and then once.  The plant pair is built the same way, on the
first call of a recomputing stage.  So a full resume reads
``config.json``, the ledger, ``metric.json``, ``metric_verification.json``,
the three manifests, ``train_report.json``, ``calibration.json``,
``plan/plan_report.json`` (when the plan stage runs), ``test/coverage.json``
and ``report.json``; it builds no plant and no eigendecomposition (a
metric read back keeps its stored bounds).

A dataset directory holds ``<id>.csv`` per record and ``manifest.json``,
which lists each entry's id, CSV, reference id and envelope.  Each
reference's input signal is stored once, as ``ref_data/<id>.signal.json``;
nothing reads the input a train or cal record ran under, so their entries
carry none.  A reused dataset parses a CSV body or a signal file only when
a recomputed stage reads that record or signal.  A manifest that carries
its signals inline, as directories written before signal files did, is
refused, so its stage is regenerated.

One ``_Simulations`` object per run owns the simulations that the
ref_data, cal_data and evaluate stages ask for, and runs each block at most
once, on the first request.  The calibration records and the test
rollouts are exchangeable runs of the same compensated closed loop, so
when a run goes on to ``evaluate``, its nominal block replays the test
references after the reference dataset (the waypoint-PD flights of every
tag as one block before it), and its closed-loop block tracks the test
rollouts after the calibration records; evaluate then only builds their
tubes and judges them.  A reused stage asks for nothing, so a later stage
that still needs the test set has it replayed or tracked alone.  A
resumed run reuses every stage: it simulates nothing and opens no
dataset CSV and no input signal.
All randomness flows through named counter-based streams derived from the
config seed, so records can be generated in any order (or in parallel)
without changing results, and identical configs produce byte-identical
reports.

Config files are a flat key = value text format (TOML-compatible subset):
ints, floats, booleans, quoted strings and JSON-style lists; '#' comments.
``ExperimentConfig`` checks every value when it is built (``replace``
included), before a run writes anything: against its annotated type
(``TYPES``), then against its key's choices, range or shape in ``RULES``.
``BENCHMARKS`` holds each benchmark's facts, so no check builds a plant.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import zlib
from dataclasses import dataclass, field, fields
from functools import cached_property
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from . import conformal, tube as tube_mod
from .errors import PrcitubeError
from .metric import ContractionMetric, box_grid, synthesize_constant_metric, verify_contraction
from .control import track
from .planner import ObstacleEllipse, PlanProblem, end_to_end_run, plan as solve_plan
from .predictor import (
    FAMILIES,
    UNCERTAIN_SPLITS,
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
    VTOL_CERTIFIED_BOX,
    VTOL_GRAVITY,
    VTOL_HOVER_THRUST,
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
class Benchmark:
    """The facts of one benchmark that configs and stages read; reading them builds no plant."""
    state_dim: int      # what a config's per-state shapes resolve to
    true_plant: Callable[[], DynamicalSystem]   # its ``.nominal`` twin is the nominal plant
    init_box: tuple     # the default init_box, flat [lo1, hi1, lo2, hi2, ...]
    input_center: tuple     # the reference signals' centre and the planner's warm start
    metric_box: Callable[[DynamicalSystem], np.ndarray]     # nominal plant -> metric grid's box


BENCHMARKS = {
    "threeD": Benchmark(3, lambda: make_benchmark_3d()[1], (-1.0, 1.0) * 3, (0.0, 0.0),
                        lambda nominal: nominal.state_box),
    # near hover; the metric grid too: no constant metric certifies the attitude box
    "vtol": Benchmark(6, make_benchmark_vtol,
                      (-0.5, 0.5, -0.5, 0.5, -0.1, 0.1, -0.2, 0.2, -0.2, 0.2, -0.1, 0.1),
                      (VTOL_HOVER_THRUST,) * 2, lambda nominal: VTOL_CERTIFIED_BOX),
}


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_finite(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _numbers(v, n: int) -> bool:
    return isinstance(v, (list, tuple)) and len(v) == n and all(map(_is_finite, v))


def _box(v, n: int) -> bool:    # a flat [lo1, hi1, ..., lo_n, hi_n] with each lo <= hi
    return _numbers(v, 2 * n) and all(lo <= hi for lo, hi in zip(v[::2], v[1::2]))


# A value is checked, never converted, so it encodes as given: first its type, ...
TYPES = {
    "str": ("a string", lambda v, c: isinstance(v, str)),
    "bool": ("true or false", lambda v, c: isinstance(v, bool)),
    "int": ("an integer", lambda v, c: _is_int(v)),
    "float": ("a finite number", lambda v, c: _is_finite(v)),
    "list": ("a list", lambda v, c: isinstance(v, (list, tuple))),
    "Optional[list]": ("a list or None", lambda v, c: v is None or isinstance(v, (list, tuple))),
}
# ... then against its key's rule, in this order, so a rule may read the keys
# before it.  ``start_mode`` keeps its one value so configs and reports keep the
# key: a start in the tube ball needs a radius not known when tests are tracked.
RULES = {
    "benchmark": (f"one of {tuple(BENCHMARKS)}", lambda v, c: v in BENCHMARKS),
    "seed": (">= 0", lambda v, c: v >= 0),
    "n_train": (">= 1", lambda v, c: v >= 1),
    "n_cal": (">= 1", lambda v, c: v >= 1),
    "n_test": (">= 0", lambda v, c: v >= 0),
    "dt_s": ("> 0", lambda v, c: v > 0),
    "horizon_s": (">= dt_s", lambda v, c: v >= c.dt_s),
    "alpha": ("in (0, 1)", lambda v, c: 0 < v < 1),
    "init_box": ("None or finite [lo1, hi1, lo2, hi2, ...], lo <= hi, per state",
                 lambda v, c: v is None or _box(v, BENCHMARKS[c.benchmark].state_dim)),
    "reference_sampler": ("'spline', or 'waypoint_pd' (it flies the VTOL) with benchmark = 'vtol'",
                          lambda v, c: v == "spline" or (v, c.benchmark) == ("waypoint_pd", "vtol")),
    "input_knot_amp": (">= 0", lambda v, c: v >= 0),
    "knot_spacing_s": ("> 0", lambda v, c: v > 0),
    "waypoint_box": ("None or finite [px_lo, px_hi, pz_lo, pz_hi], lo <= hi",
                     lambda v, c: v is None or _box(v, 2)),
    "predictor_family": (f"one of {FAMILIES}", lambda v, c: v in FAMILIES),
    "predictor_epochs": (">= 0", lambda v, c: v >= 0),
    "predictor_hidden": ("positive integer widths",
                         lambda v, c: all(_is_int(w) and w > 0 for w in v)),
    "predictor_degree": (">= 0", lambda v, c: v >= 0),
    "predictor_lr": ("> 0", lambda v, c: v > 0),
    "predictor_batch": (">= 1", lambda v, c: v >= 1),
    "lambda_lo": ("> 0", lambda v, c: v > 0),
    "lambda_hi": (">= lambda_lo", lambda v, c: v >= c.lambda_lo),
    "metric_grid_points": (">= 2, to reach the box's corners", lambda v, c: v >= 2),
    "metric_chi_max": (">= 1, a condition-number cap", lambda v, c: v >= 1),
    "projection_coords": ("two distinct state indices", lambda v, c: len(v) == 2 and v[0] != v[1]
                          and all(_is_int(i) and 0 <= i < BENCHMARKS[c.benchmark].state_dim
                                  for i in v)),
    "start_mode": ("'center'", lambda v, c: v == "center"),
    "plan_start": ("one finite number per state when plan_enabled",
                   lambda v, c: not c.plan_enabled
                   or _numbers(v, BENCHMARKS[c.benchmark].state_dim)),
    "plan_goal": ("one finite number per state when plan_enabled",
                  lambda v, c: not c.plan_enabled
                  or _numbers(v, BENCHMARKS[c.benchmark].state_dim)),
    "plan_w1": (">= 0", lambda v, c: v >= 0),
    "plan_w2": (">= 0", lambda v, c: v >= 0),
    "plan_obstacles": ("five finite numbers [cx, cy, q11, q12, q22] each, "
                       "[[q11, q12], [q12, q22]] positive definite",
                       lambda v, c: all(_numbers(ob, 5) and ob[2] > 0
                                        and ob[2] * ob[4] > ob[3] * ob[3] for ob in v)),
    "plan_max_iter": (">= 0", lambda v, c: v >= 0),
    # outside (0, 1), test rollouts would become the second step's calibration
    # set; a step without a requested record has nothing to calibrate on
    "two_step_fraction": ("in (0, 1), and with two_step, round(it * n_cal) in [1, n_cal - 1]",
                          lambda v, c: 0 < v < 1
                          and (not c.two_step or 0 < round(v * c.n_cal) < c.n_cal)),
    "tighten_budget": (">= 1", lambda v, c: v >= 1),
}


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
    # tube / projection
    projection_coords: list = field(default_factory=lambda: [0, 1])
    start_mode: str = "center"              # test rollouts start on their reference; the only mode
    # planner scenario (optional)
    plan_enabled: bool = False
    plan_start: Optional[list] = None
    plan_goal: Optional[list] = None
    plan_w1: float = 0.1
    plan_w2: float = 1.0
    plan_obstacles: list = field(default_factory=list)   # [cx,cy,q11,q12,q22] each
    plan_max_iter: int = 120
    two_step: bool = False
    two_step_fraction: float = 0.5
    tighten_budget: int = 32
    # misc
    out_dir: str = "runs/experiment"

    def __post_init__(self):
        """Check every key against its annotated type, then ``RULES``."""
        checks = [(f.name, TYPES[f.type]) for f in fields(self)] + list(RULES.items())
        for key, (text, holds) in checks:
            value = getattr(self, key)
            if not holds(value, self):
                raise ValueError(f"{key} must be {text}, got {value!r}")

    @staticmethod
    def from_dict(d: dict) -> "ExperimentConfig":
        unknown = set(d).difference(f.name for f in fields(ExperimentConfig))
        if unknown:     # the constructor would refuse them with a TypeError
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return ExperimentConfig(**d)

    @staticmethod
    def from_file(path) -> "ExperimentConfig":
        with open(path) as fh:
            return ExperimentConfig.from_dict(parse_flat_config(fh.read()))

    def to_dict(self) -> dict:
        """Every key and its value, as ``config.json`` holds them."""
        return {**json.loads(self.canonical), "out_dir": self.out_dir}

    @cached_property
    def canonical(self) -> str:
        """The key-sorted JSON text of every key except ``out_dir``, encoded
        once per config (a non-finite float spelled as ``write_json`` spells
        it): ``digest`` hashes it and ``to_dict`` decodes it."""
        return json.dumps(
            _jsonable({f.name: getattr(self, f.name) for f in fields(self) if f.name != "out_dir"}),
            sort_keys=True,
        )

    @cached_property
    def digest(self) -> str:
        """sha256 of ``canonical``."""
        return hashlib.sha256(self.canonical.encode()).hexdigest()


Plants = Callable[[], tuple[DynamicalSystem, DynamicalSystem]]


def benchmark_systems(config: ExperimentConfig) -> tuple[DynamicalSystem, DynamicalSystem]:
    """The (nominal, true) plant pair of the config's benchmark."""
    true = BENCHMARKS[config.benchmark].true_plant()
    return true.nominal, true


def sample_initial_condition(config, tag: str, index: int) -> np.ndarray:
    flat = config.init_box or BENCHMARKS[config.benchmark].init_box
    box = np.asarray(flat, dtype=float).reshape(-1, 2)
    rng = rng_stream(config.seed, f"{tag}-ic-{index}")
    return rng.uniform(box[:, 0], box[:, 1])


def sample_reference_policies(config, sys_nom, tag: str, n: int) -> list[PiecewiseLinearInput]:
    """Reference input signals 0..n-1 of ``tag``, signal i drawn from the
    stream ``{tag}-policy-{i}``; all share one set of knot times."""
    return _reference_signals(config, sys_nom, {tag: n})


def _reference_signals(config, sys_nom, counts: dict) -> list[PiecewiseLinearInput]:
    """Signals 0..n-1 of each tag in ``counts``, tag after tag, each drawn
    as ``sample_reference_policies`` draws it."""
    if config.reference_sampler == "waypoint_pd":
        return _waypoint_pd_inputs(config, sys_nom, counts)
    n_knots = int(np.floor(config.horizon_s / config.knot_spacing_s)) + 1
    knot_times = np.arange(n_knots) * config.knot_spacing_s
    if knot_times[-1] < config.horizon_s:
        knot_times = np.append(knot_times, config.horizon_s)
    center = np.array(BENCHMARKS[config.benchmark].input_center)
    amp = config.input_knot_amp
    box = sys_nom.input_box
    signals = []
    for tag, n in counts.items():
        for i in range(n):
            rng = rng_stream(config.seed, f"{tag}-policy-{i}")
            values = center + rng.uniform(-amp, amp, (len(knot_times), sys_nom.input_dim))
            if config.input_knot_trim_start:
                values[0] = center
            signals.append(PiecewiseLinearInput(knot_times, np.clip(values, box[:, 0], box[:, 1])))
    return signals


def _waypoint_pd_inputs(config, sys_nom, counts: dict) -> list[PiecewiseLinearInput]:
    """Reference input signals for attitude-unstable plants (the VTOL).

    Independent random thrust knots integrate into tumbling through the
    roll channel, so instead a hover PD law flies the nominal plant to a
    random waypoint and its recorded input sequence becomes the open-loop
    reference signal.  The flights of every tag in ``counts`` are one
    block, flight i of a tag from its initial condition i to the waypoint
    drawn from the stream ``{tag}-policy-{i}``.
    """
    wbox = np.asarray(config.waypoint_box or [-1.0, 1.0, -0.6, 0.6], dtype=float).reshape(-1, 2)
    flights = [(tag, i) for tag, n in counts.items() for i in range(n)]
    if not flights:
        return []
    target = np.array(
        [rng_stream(config.seed, f"{tag}-policy-{i}").uniform(wbox[:, 0], wbox[:, 1])
         for tag, i in flights]
    )
    x0 = np.array([sample_initial_condition(config, tag, i) for tag, i in flights])
    m, J, g, arm = VTOL_MASS, VTOL_INERTIA, VTOL_GRAVITY, VTOL_ARM
    box = sys_nom.input_box

    def pd_policy(x, t, fx):
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

    records = integrate(sys_nom, x0, pd_policy, config.horizon_s, config.dt_s)
    signals = []
    for (tag, i), rec in zip(flights, records):
        if rec is None:
            raise PrcitubeError(f"the PD flight of {tag}-policy-{i} diverged")
        signals.append(PiecewiseLinearInput(rec.times, rec.inputs))
    return signals


# ---------------------------------------------------------------------------
# Persistence helpers
# ---------------------------------------------------------------------------

def _jsonable(obj):
    if isinstance(obj, (str, int, type(None))):     # bool included: the common leaves
        return obj
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
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)    # 'inf' / '-inf' / 'nan', JSON-safe
    return obj


def read_json(path):
    with open(path, "rb") as fh:    # bytes: json decodes them without a text layer
        return json.loads(fh.read())


def _compact(obj) -> str:
    """The compact, key-sorted JSON text of ``_jsonable(obj)``.  The encoder
    hands ``_jsonable`` only the values it cannot encode itself (NumPy's); a
    non-finite float, which it would spell differently, makes it walk the
    whole object first."""
    try:
        return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False,
                          default=_jsonable)
    except ValueError:
        return json.dumps(_jsonable(obj), sort_keys=True, separators=(",", ":"))


def write_json(path, payload):
    """Store ``payload`` at ``path`` as indented, key-sorted JSON, unless the
    file already holds exactly that content; returns the content as
    ``read_json`` reads it back.  The file's decoded content and the payload
    are compared as ``_compact`` text, which is equal exactly when the
    indented files would be; a missing or cut-off file counts as changed."""
    text = _compact(payload)
    try:
        stored = read_json(path)
        if _compact(stored) == text:
            return stored
    except (FileNotFoundError, ValueError):     # none yet, or cut off mid-write
        pass
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(_jsonable(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return json.loads(text)


def _signal_name(entry_id: str) -> str:
    return f"{entry_id}.signal.json"


def save_dataset(ds: TrainingDataset, directory, benchmark: str) -> None:
    """Each record as ``<id>.csv``; the input signal of an entry without a
    reference (the ref split) as ``<id>.signal.json`` beside it, while a
    perturbed entry carries none; then ``manifest.json``, which lists the
    entries and carries no knots."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    entries = []
    for e in ds.entries:
        csv_name = f"{e.entry_id}.csv"
        e.record.save_csv(directory / csv_name)
        reference_id = e.entry_id if e.reference is not None else None
        if reference_id is None:
            e.policy.save_json(directory / _signal_name(e.entry_id))
        entries.append(
            {
                "id": e.entry_id,
                "csv": csv_name,
                "reference_id": reference_id,
                "envelope": e.record.envelope(benchmark),
            }
        )
    write_json(
        directory / "manifest.json",
        {"split_tag": ds.split_tag, "benchmark": benchmark, "entries": entries},
    )


def load_dataset(directory, reference_dir=None) -> TrainingDataset:
    """The dataset saved in ``directory``, its references from
    ``reference_dir``.  Reads the manifest and checks that every file it
    lists exists, without opening any: each record's CSV, a ref entry's
    signal, a perturbed entry's reference CSV in ``reference_dir``.  Each
    CSV is parsed on first access to its entry's ``record`` or
    ``reference``, and each signal file on first access to ``policy``; an
    entry holds each file's folder and name, joined into a path only then.  A
    manifest that carries its signals inline (the layout before signal
    files) raises ``ValueError``, and so does a train or cal entry whose
    envelope says its record has no uncertainty (a CSV without the
    ``zeta_*`` columns does when its record is parsed).  A perturbed entry
    has no policy, and one loaded without ``reference_dir`` no reference."""
    directory = Path(directory)
    references = None if reference_dir is None else Path(reference_dir)
    path = directory / "manifest.json"
    manifest = read_json(path)

    listed = {}     # folder -> the names in it, listed once rather than a stat per file

    def stored(folder: Path, name: str) -> tuple[Path, str]:
        if folder not in listed:
            listed[folder] = set(os.listdir(folder))
        if name not in listed[folder]:
            raise FileNotFoundError(f"{folder / name}: listed in {path}, missing")
        return folder, name

    split_tag = manifest["split_tag"]
    entries = []
    for item in manifest["entries"]:
        if "policy" in item:
            raise ValueError(f"{path}: input signals inline, not in signal files")
        if split_tag in UNCERTAIN_SPLITS and not item["envelope"]["has_uncertainty"]:
            raise ValueError(f"{path}: {item['id']}: uncertainties missing in {split_tag} split")
        reference_id, policy, reference = item["reference_id"], None, None
        if reference_id is None:
            policy = stored(directory, _signal_name(item["id"]))
        elif references is not None:
            reference = stored(references, f"{reference_id}.csv")
        entries.append(DatasetEntry(item["id"], stored(directory, item["csv"]), policy, reference))
    return TrainingDataset(tuple(entries), split_tag)


LEDGER = "provenance.json"


class _Ledger:
    """The ledger ``provenance.json`` of one run: read once when the run
    starts (an unreadable one counts as empty) and kept in memory.  It is
    written back only when an entry is dropped before its stage recomputes
    and when a stage is stamped after its files are written, so no entry
    ever vouches for files its stage has not finished writing."""

    def __init__(self, config: ExperimentConfig, out: Path):
        self.path, self.digest = out / LEDGER, config.digest
        try:
            self.entries = read_json(self.path)
        except (FileNotFoundError, ValueError):     # none yet, or cut off mid-write
            self.entries = {}

    def reuse(self, stage: str, *paths: Path) -> bool:
        """The one reuse rule: True when every artifact of ``stage``
        (``paths``) exists and the ledger records the stage under this
        config's digest; otherwise the stage's entry is dropped."""
        if self.entries.get(stage) == self.digest and all(p.exists() for p in paths):
            return True
        self.drop(stage)
        return False

    def drop(self, stage: str) -> None:
        if self.entries.pop(stage, None) is not None:
            write_json(self.path, self.entries)

    def record(self, stage: str) -> None:
        """Vouch for ``stage``'s artifacts, once they are all written."""
        self.entries[stage] = self.digest
        write_json(self.path, self.entries)


def _dataset_stage(config, out: Path, ledger: _Ledger, stage: str, reference_dir,
                   generate) -> TrainingDataset:
    """A dataset stage: the directory ``out / stage`` (its manifest is written
    last) is reused when the ledger and ``load_dataset`` accept it, else
    ``generate()`` runs and its dataset is saved.  A reused CSV body or
    signal file that does not parse raises ``ValueError`` naming the file
    when a recomputed stage reads it (the ledger vouched for it, so it was
    edited since)."""
    directory = out / stage
    if ledger.reuse(stage, directory / "manifest.json"):
        try:
            return load_dataset(directory, reference_dir)
        except (OSError, ValueError):   # unreadable: drop the entry, then recompute
            ledger.drop(stage)
    ds = generate()
    save_dataset(ds, directory, config.benchmark)
    ledger.record(stage)
    return ds


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------

def stage_metric(config: ExperimentConfig, plants: Plants, out: Path, ledger: _Ledger):
    path = out / "metric.json"
    vpath = out / "metric_verification.json"
    if ledger.reuse("metric", path, vpath):
        return ContractionMetric.from_json_dict(read_json(path)), read_json(vpath)
    sys_nom = plants()[0]
    grid = _metric_grid(config, sys_nom, config.metric_grid_points)
    metric = synthesize_constant_metric(
        sys_nom, grid, (config.lambda_lo, config.lambda_hi),
        chi_max=config.metric_chi_max, margin_target=config.metric_margin,
    )
    write_json(path, metric.to_json_dict())
    fine = _metric_grid(config, sys_nom, 2 * config.metric_grid_points - 1)
    verification = write_json(vpath, verify_contraction(metric, sys_nom, fine).to_json_dict())
    ledger.record("metric")
    return metric, verification


def _metric_grid(config, sys_nom, points: int) -> np.ndarray:
    box = BENCHMARKS[config.benchmark].metric_box(sys_nom)
    per_dim = [1 if hi <= lo else points for lo, hi in box]
    return box_grid(box, per_dim)


def _replay_references(config, sys_nom, counts: dict) -> dict:
    """References 0..n-1 of each tag in ``counts`` (``ref-0000``, ...,
    ``test-0000``, ...), drawn from the tag's streams and replayed on the
    nominal plant as one block; their dataset entries by tag, a diverged
    one logged and left out."""
    rows = [(tag, i) for tag, n in counts.items() for i in range(n)]
    ids = [f"{tag}-{i:04d}" for tag, i in rows]
    starts = [sample_initial_condition(config, tag, i) for tag, i in rows]
    signals = _reference_signals(config, sys_nom, counts)
    ds = generate_reference_dataset(sys_nom, starts, signals, config.horizon_s, config.dt_s, ids)
    return {tag: [e for e in ds.entries if e.entry_id.startswith(f"{tag}-")] for tag in counts}


def _test_set(entries) -> tuple[list[str], list[TrajectoryRecord]]:
    return [e.entry_id for e in entries], [e.record for e in entries]


def _test_references(config, sys_nom) -> tuple[list[str], list[TrajectoryRecord]]:
    """The evaluation references ``test-0000``, ``test-0001``, ... and
    their ids, replayed alone on the nominal plant as one block from the
    ``test`` streams; a diverged one is logged and left out."""
    return _test_set(_replay_references(config, sys_nom, {"test": config.n_test})["test"])


class _Simulations:
    """The simulations of one run, each block run at most once, on the first
    request.  When the run goes on to ``evaluate``, the nominal and the
    closed-loop block carry the test set after their own rows; a block row
    rounds as the row alone, so this changes no bit of either set.  The
    plants are built on the first simulation."""

    def __init__(self, config, plants: Plants, stop_after: str):
        self.config, self.plants = config, plants
        self.evaluates = stop_after == "evaluate"
        self._nominal_test = self._tracked_test = None

    def references(self) -> TrainingDataset:
        """The reference dataset: n_train + n_cal records ``ref-0000``, ..."""
        counts = {"ref": self.config.n_train + self.config.n_cal}
        if self.evaluates:
            counts["test"] = self.config.n_test
        entries = _replay_references(self.config, self.plants()[0], counts)
        if self.evaluates:
            self._nominal_test = _test_set(entries["test"])
        return TrainingDataset(tuple(entries["ref"]), "ref")

    def calibration_data(self, ref_cal: TrainingDataset, metric, predictor) -> TrainingDataset:
        """The calibration records, each reference of ``ref_cal`` tracked
        from its first state."""
        cal_refs = [e.record for e in ref_cal.entries]
        if self.evaluates:
            ids, refs = self._replayed_tests()
            rollouts = self._track(metric, predictor, cal_refs + refs)
            self._tracked_test = (ids, refs, rollouts[len(cal_refs) :])
        else:
            rollouts = self._track(metric, predictor, cal_refs)
        return perturbed_dataset(ref_cal, rollouts[: len(cal_refs)], "cal")

    def test_set(self, metric, predictor) -> tuple:
        """``(ids, references, rollouts)`` of the evaluation rollouts."""
        if self._tracked_test is None:
            ids, refs = self._replayed_tests()
            self._tracked_test = (ids, refs, self._track(metric, predictor, refs))
        return self._tracked_test

    def _replayed_tests(self):
        if self._nominal_test is None:
            self._nominal_test = _test_references(self.config, self.plants()[0])
        return self._nominal_test

    def _track(self, metric, predictor, refs) -> list:
        """Each reference tracked from its first state; a diverged rollout is None."""
        return track(self.plants()[1], metric, predictor, refs, [r.states[0] for r in refs])


def stage_ref_data(config, sims: _Simulations, out: Path, ledger: _Ledger) -> TrainingDataset:
    """The reference dataset; the test references replayed with it stay in
    ``sims``, unsaved."""
    return _dataset_stage(config, out, ledger, "ref_data", None, sims.references)


def stage_train_data(config, plants: Plants, ref_train, out: Path,
                     ledger: _Ledger) -> TrainingDataset:
    return _dataset_stage(
        config, out, ledger, "train_data", out / "ref_data",
        lambda: generate_perturbed_dataset(plants()[1], ref_train, "open_loop_reference", "train"),
    )


def stage_train(
    config, train_ds, out: Path, ledger: _Ledger
) -> tuple[dict, Callable[[], UncertaintyPredictor]]:
    """The predictor's report section, stored as ``train_report.json``, and
    a function that returns the predictor.  A reused predictor is decoded
    from ``predictor.json`` on the first call, once, so a run that reuses
    every later stage never reads it."""
    path = out / "predictor.json"
    rpath = out / "train_report.json"
    if ledger.reuse("train", path, rpath):
        return read_json(rpath), functools.cache(
            lambda: UncertaintyPredictor.from_json_dict(read_json(path))
        )
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
    section = write_json(rpath, {"family": p.family, "sup_loss": p.training_info.get("sup_loss"),
                                 "n_records": p.training_info.get("n_records")})
    ledger.record("train")
    return section, lambda: p


def stage_cal_data(config, sims: _Simulations, ref_cal, metric, get_predictor, out: Path,
                   ledger: _Ledger):
    return _dataset_stage(
        config, out, ledger, "cal_data", out / "ref_data",
        lambda: sims.calibration_data(ref_cal, metric, get_predictor()),
    )


def stage_calibrate(config, cal_ds, get_predictor, plants: Plants, out: Path,
                    ledger: _Ledger) -> conformal.CalibrationResult:
    spath = out / "scores.json"
    cpath = out / "calibration.json"
    if ledger.reuse("calibrate", spath, cpath):
        return conformal.CalibrationResult.from_json_dict(read_json(cpath))
    predictor = get_predictor()
    scores = conformal.score_dataset(cal_ds, predictor, plants()[0])
    write_json(spath, {"scores": list(map(float, scores))})
    result = conformal.calibrate(scores, config.alpha, {"predictor": predictor.family})
    write_json(cpath, result.to_json_dict())
    ledger.record("calibrate")
    return result


def stage_tube(config, metric, calibration, cal_ds, out: Path, ledger: _Ledger) -> dict:
    """The tube around the first calibration reference.  Its radius comes
    from the metric and the calibration alone, so the reference record is
    read only when ``tube.json`` is written."""
    path = out / "tube.json"
    csv_path = out / "tube_ellipses.csv"
    radius = tube_mod.tube_radius(metric, calibration)
    # an infinite tube has no projection; none may survive from another config
    finite = bool(np.isfinite(radius))
    if not ledger.reuse("tube", path, *([csv_path] if finite else [])):
        reference = cal_ds.entries[0].reference or cal_ds.entries[0].record
        t = PRCITube.from_calibration(reference, metric, calibration, source_id="calibration")
        write_json(path, t.to_json_dict())
        csv_path.unlink(missing_ok=True)
        if finite:
            project_tube_2d(t, tuple(config.projection_coords)).save_csv(csv_path)
        ledger.record("tube")
    return {"radius": radius, "alpha": calibration.alpha}


def stage_plan(config, plants: Plants, metric, get_predictor, cal_ds, out: Path,
               ledger: _Ledger) -> dict:
    """Tightened planning with the two-step calibration protocol: the first
    part of ``conformal.split_calibration`` sizes the tube that tightens the
    boxes, and the tracking step's records are regenerated under the plan
    (the one-step path has none: the whole set sizes the tube)."""
    plan_dir = out / "plan"
    report_path = plan_dir / "plan_report.json"
    written = ("plan.csv", "plan_manifest.json", "calibration_tube.json",
               "calibration_tracking.json", "plan_report.json")
    if ledger.reuse("plan", *(plan_dir / name for name in written)):
        return read_json(report_path)
    plan_dir.mkdir(parents=True, exist_ok=True)
    sys_nom, sys_true = plants()
    predictor = get_predictor()

    first, rest = (conformal.split_calibration(cal_ds, config.two_step_fraction)
                   if config.two_step else (cal_ds, ()))
    cal_a = conformal.calibrate_step(
        (e.record for e in first.entries), predictor, sys_nom, config.alpha, "tube-radius"
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

    coords = tuple(config.projection_coords)
    obstacles = tuple(
        ObstacleEllipse(np.array([cx, cy]), np.array([[q11, q12], [q12, q22]]), coords)
        for cx, cy, q11, q12, q22 in config.plan_obstacles
    )
    if obstacles and np.isfinite(radius_a):
        inflate_by = project_tube_2d(rep_tube, coords).max_extent()
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
    init = np.tile(BENCHMARKS[config.benchmark].input_center, (n_steps + 1, 1))
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
        for i in range(len(rest))
    ]
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(config.seed + 1)))
    starts += [tube_mod.start_in_ball(metric, x0, radius_a, rng) for _ in range(config.n_test)]
    rollouts = track(sys_true, metric, predictor, [result.record] * len(starts), starts)
    records, test_rollouts = rollouts[: len(rest)], rollouts[len(rest) :]

    # Single-step fallback: the tightening quantile doubles as the tracking
    # quantile (the Remark-1 exchangeability caveat applies).
    cal_tube = cal_track = cal_a
    if config.two_step:
        cal_track = conformal.calibrate_step(
            (rec for rec in records if rec is not None),    # a diverged record is skipped
            predictor, sys_nom, config.alpha, "tracking",
        )
    write_json(plan_dir / "calibration_tube.json", cal_tube.to_json_dict())
    write_json(plan_dir / "calibration_tracking.json", cal_track.to_json_dict())

    run = end_to_end_run(sys_nom, result, metric, cal_track, test_rollouts, obstacles=obstacles)
    report = write_json(report_path, {
        "plan_cost": result.cost,
        "plan_converged": result.converged,
        "plan_violations": result.violations,
        "tightening_radius": radius_a,
        "tube_quantile": cal_tube.quantile_value,
        "tracking_quantile": cal_track.quantile_value,
        "state_margins": s_box.margins,
        "input_margins": a_box.margins,
        "end_to_end": {k: v for k, v in run.items() if k != "rollouts"},
    })
    ledger.record("plan")
    return report


def stage_evaluate(config, sims: _Simulations, metric, get_predictor, calibration, out: Path,
                   ledger: _Ledger) -> dict:
    """Judge the test rollouts against their tubes."""
    rpath = out / "test" / "coverage.json"
    csv_path = out / "test" / "sup_distances.csv"
    if ledger.reuse("evaluate", rpath, csv_path):
        return read_json(rpath)
    (out / "test").mkdir(parents=True, exist_ok=True)
    ids, refs, rollouts = sims.test_set(metric, get_predictor())
    tubes = [PRCITube.from_calibration(ref, metric, calibration, source_id="test") for ref in refs]
    # a diverged rollout (None) stays in the count as not contained
    result = tube_mod.containment_experiment(tubes, rollouts)
    result["ids"] = ids
    coverage = write_json(rpath, result)
    lines = ["id,sup_distance,contained"]
    for i, s in zip(ids, result["sup_distances"]):
        lines.append(f"{i},{s:.17g},{int(s <= result['radius'])}")
    with open(csv_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    ledger.record("evaluate")
    return coverage


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------

def run_pipeline(config: ExperimentConfig, stop_after: str = "evaluate") -> dict:
    """Execute the staged pipeline up to ``stop_after``; returns the report.

    Stage artifacts persist under config.out_dir and are reused by the rule
    of ``_Ledger.reuse``.  The final report.json is deterministic for a fixed
    config; like every JSON artifact, it is rewritten only when its content
    changes, so a full resume writes no file.
    """
    if stop_after not in PIPELINE_STAGES:
        raise ValueError(f"unknown stage {stop_after!r}")
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    report: dict = {"config": config.to_dict(), "stages": []}
    write_json(out / "config.json", report["config"])
    ledger = _Ledger(config, out)
    # built on the first call, which only a recomputing stage makes
    plants = functools.cache(lambda: benchmark_systems(config))

    def reached(stage):
        report["stages"].append(stage)
        return stage == stop_after

    metric, verification = stage_metric(config, plants, out, ledger)
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

    sims = _Simulations(config, plants, stop_after)
    ref = stage_ref_data(config, sims, out, ledger)
    ref_train, ref_cal = split_reference(ref, min(config.n_train, len(ref)), min(config.n_cal, max(len(ref) - config.n_train, 0)))
    train_ds = stage_train_data(config, plants, ref_train, out, ledger)
    report["data"] = {
        "n_ref": len(ref),
        "n_train": len(train_ds),
        "requested_train": config.n_train,
        "requested_cal": config.n_cal,
    }
    if reached("gen-data"):
        return _finish(report, out)

    report["predictor"], get_predictor = stage_train(config, train_ds, out, ledger)
    if reached("train"):
        return _finish(report, out)

    cal_ds = stage_cal_data(config, sims, ref_cal, metric, get_predictor, out, ledger)
    calibration = stage_calibrate(config, cal_ds, get_predictor, plants, out, ledger)
    report["calibration"] = {
        "n_cal": calibration.n_scores,
        "alpha": calibration.alpha,
        "quantile_index": calibration.quantile_index,
        "quantile_value": calibration.quantile_value,
        "infinite": calibration.infinite,
    }
    if reached("calibrate"):
        return _finish(report, out)

    report["tube"] = stage_tube(config, metric, calibration, cal_ds, out, ledger)
    if reached("tube"):
        return _finish(report, out)

    if config.plan_enabled:
        report["plan"] = stage_plan(config, plants, metric, get_predictor, cal_ds, out, ledger)
    if reached("plan"):
        return _finish(report, out)

    coverage = stage_evaluate(config, sims, metric, get_predictor, calibration, out, ledger)
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
    """The report as a reader of report.json sees it."""
    report.setdefault("valid", True)
    return write_json(out / "report.json", report)
