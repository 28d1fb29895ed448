"""Uncertainty predictors and the trajectory datasets they train on.

The predictor maps (x, u) to an estimate of the additive uncertainty.
Three families: "zero" (no compensation baseline), "linear_features"
(polynomial features, solved by least squares on per-timestep errors) and
"mlp" (tanh network trained in plain NumPy by mini-batch gradient descent
with step halving, fully deterministic given the seed).  A single (x, u)
pair is evaluated as a one-row batch, so each family has one evaluation
path; rows are evaluated as stacked one-row products, so a block of rows
equals the same rows one at a time, bit for bit.

The trained objective is the per-record worst-case error

    mean_k  sup_t || zeta_t - zeta_hat(x_t, u_t) ||

which is non-smooth, so the mlp trains on a softmax-weighted surrogate
(temperature SURROGATE_TEMPERATURE) and the true sup-loss is reported
alongside.

Dataset construction follows the tracking protocol: the training split is
generated by replaying the reference input signals open loop on the
perturbed plant; the calibration split runs the full compensated
closed-loop policy (``control.track``).  That asymmetry is deliberate and
load-bearing: the predictor trains on open-loop data but deploys in closed
loop, and the induced distribution shift is absorbed by the calibration
step, not by training.
"""

from __future__ import annotations

import functools
import itertools
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from .errors import DimensionMismatch, NonFiniteLoss
from .systems import DynamicalSystem, PiecewiseLinearInput, TrajectoryRecord, replay
from .systems import integrate  # noqa: F401  (perfbench/test_perfbench.py looks it up here)

Array = np.ndarray
log = logging.getLogger(__name__)

SURROGATE_TEMPERATURE = 20.0    # softmax temperature of the mlp's sup-loss surrogate
FAMILIES = ("zero", "linear_features", "mlp")   # the families ``train`` fits
UNCERTAIN_SPLITS = ("train", "cal")     # splits whose records carry their uncertainty


# ---------------------------------------------------------------------------
# Datasets
# ---------------------------------------------------------------------------

# A stored file is its folder and its name, joined into a path only when
# the file is parsed.
StoredFile = tuple[Path, str]
StoredRecord = Union[TrajectoryRecord, StoredFile]
StoredPolicy = Union[PiecewiseLinearInput, StoredFile]


def _parsed(record: Optional[StoredRecord]) -> Optional[TrajectoryRecord]:
    if not isinstance(record, tuple):
        return record
    path = record[0] / record[1]
    try:
        return TrajectoryRecord.load_csv(path)
    except (ValueError, IndexError) as err:
        raise ValueError(f"{path}: unreadable trajectory CSV ({err})") from err


class DatasetEntry:
    """One record of a dataset: in the ref split with the input signal it
    ran under, in the perturbed splits with the reference it ran over.

    ``record`` and ``reference`` are given as records, or as the
    ``(folder, name)`` of stored CSVs; ``policy`` as a signal, or as the
    ``(folder, name)`` of its stored signal file (``harness.load_dataset``).
    A stored file is parsed on first access, once, and its value kept; one
    that does not parse raises ``ValueError`` naming the file, and so does a
    stored record without its realized uncertainty in a split that needs one
    (``expect_uncertainties``).
    """

    def __init__(
        self,
        entry_id: str,
        record: StoredRecord,
        policy: Optional[StoredPolicy],
        reference: Optional[StoredRecord] = None,
    ):
        self.entry_id = entry_id
        self._policy = policy
        self._record = record
        self._reference = reference
        self._split_tag: Optional[str] = None       # set when uncertainties are expected

    @property
    def policy(self) -> Optional[PiecewiseLinearInput]:
        if isinstance(self._policy, tuple):
            path = self._policy[0] / self._policy[1]
            try:
                self._policy = PiecewiseLinearInput.load_json(path)
            except (ValueError, KeyError) as err:
                raise ValueError(f"{path}: unreadable input signal ({err})") from err
        return self._policy

    @property
    def record(self) -> TrajectoryRecord:
        if isinstance(self._record, tuple):
            record = _parsed(self._record)
            if self._split_tag is not None and record.uncertainties is None:
                raise ValueError(
                    f"{self._record[0] / self._record[1]}: uncertainties missing in "
                    f"{self._split_tag} split (no zeta_* columns)"
                )
            self._record = record
        return self._record

    @property
    def reference(self) -> Optional[TrajectoryRecord]:
        self._reference = _parsed(self._reference)
        return self._reference

    def expect_uncertainties(self, split_tag: str) -> None:
        """Hold the record to carrying its realized uncertainty, as the
        records of ``split_tag`` must: a record in memory without one raises
        ``ValueError`` here, a stored one when it is parsed (its file is not
        opened before; ``harness.load_dataset`` has checked the manifest)."""
        if isinstance(self._record, TrajectoryRecord) and self._record.uncertainties is None:
            raise ValueError(f"{self.entry_id}: uncertainties missing in {split_tag} split")
        self._split_tag = split_tag


@dataclass(frozen=True, eq=False)
class TrainingDataset:
    """A list of dataset entries (``DatasetEntry``).

    split_tag is one of "ref", "train", "cal", "test".  Records in the
    UNCERTAIN_SPLITS carry a complete realized-uncertainty sequence.
    """

    entries: tuple
    split_tag: str

    def __post_init__(self):
        if self.split_tag in UNCERTAIN_SPLITS:
            for e in self.entries:
                e.expect_uncertainties(self.split_tag)

    def __len__(self):
        return len(self.entries)

    def ids(self) -> list[str]:
        return [e.entry_id for e in self.entries]


def generate_reference_dataset(
    sys_nominal: DynamicalSystem,
    initial_conditions: Sequence[Array],
    reference_policies: Sequence[PiecewiseLinearInput],
    T: float,
    dt: float,
    ids: Optional[Sequence[str]] = None,
) -> TrainingDataset:
    """Integrate the nominal plant from each x0 under its input signal into
    records ``ref-0000``, ``ref-0001``, ... (or ``ids``), all pairs as one
    block.

    Diverging records are skipped and logged, not fatal.
    """
    if sys_nominal.uncertainty is not None:
        raise ValueError("reference dataset must be generated on the nominal plant")
    records = replay(sys_nominal, initial_conditions, reference_policies, T, dt)
    if ids is None:
        ids = [f"ref-{i:04d}" for i in range(len(records))]
    entries = []
    for eid, pol, rec in zip(ids, reference_policies, records):
        if rec is None:
            log.warning("skipping %s", eid)
            continue
        entries.append(DatasetEntry(eid, rec, pol))
    return TrainingDataset(tuple(entries), "ref")


def split_reference(
    dataset: TrainingDataset, n_train: int, n_cal: int
) -> tuple[TrainingDataset, TrainingDataset]:
    """Disjoint (train, cal) reference subsets, by position."""
    if n_train + n_cal > len(dataset):
        raise ValueError("not enough reference records to split")
    train = TrainingDataset(dataset.entries[:n_train], "ref")
    cal = TrainingDataset(dataset.entries[n_train : n_train + n_cal], "ref")
    return train, cal


def generate_perturbed_dataset(
    sys_true: DynamicalSystem,
    source: TrainingDataset,
    policy_mode: str,
    split_tag: str,
) -> TrainingDataset:
    """Replay the stored input signals of a reference subset open loop on
    the perturbed plant (the training protocol), all records as one block,
    so the references must share a time grid.  ``policy_mode`` must be
    ``"open_loop_reference"``; the calibration protocol tracks its
    references with ``control.track`` and stores the rollouts with
    ``perturbed_dataset``.  A diverging record is skipped and logged, not
    fatal.
    """
    if sys_true.uncertainty is None:
        raise ValueError("perturbed dataset needs a plant with uncertainty")
    if policy_mode != "open_loop_reference":
        raise ValueError(f"unknown policy_mode {policy_mode!r}")
    refs = [e.record for e in source.entries]
    records = []
    if refs:
        grid = refs[0]
        if any(not np.array_equal(r.times, grid.times) for r in refs):
            raise ValueError("references of one dataset must share a time grid")
        records = replay(sys_true, [r.states[0] for r in refs],
                         [e.policy for e in source.entries], grid.horizon, grid.dt)
    return perturbed_dataset(source, records, split_tag)


def perturbed_dataset(
    source: TrainingDataset, records: Sequence[Optional[TrajectoryRecord]], split_tag: str
) -> TrainingDataset:
    """The dataset of ``records``, record i run over reference entry i of
    ``source`` and stored under that entry's id, with its record as the
    reference.  A diverged record (None) is skipped and logged."""
    entries = []
    for e, rec in zip(source.entries, records):
        if rec is None:
            log.warning("skipping %s", e.entry_id)
            continue
        entries.append(DatasetEntry(e.entry_id, rec, None, reference=e.record))
    return TrainingDataset(tuple(entries), split_tag)


# ---------------------------------------------------------------------------
# Predictor families
# ---------------------------------------------------------------------------

def polynomial_terms(n_inputs: int, degree: int) -> list[tuple[int, ...]]:
    """Exponent tuples of all monomials with total degree <= degree,
    bias first, deterministic order."""
    terms = []
    for d in range(degree + 1):
        for combo in itertools.combinations_with_replacement(range(n_inputs), d):
            e = [0] * n_inputs
            for k in combo:
                e[k] += 1
            terms.append(tuple(e))
    return terms


def _monomial_columns(terms, n_inputs: int) -> Array:
    """(len(terms), degree) column indices whose product is each monomial,
    in ascending variable order; index n_inputs pads with a column of ones."""
    degree = max(1, max(sum(expo) for expo in terms))
    cols = np.full((len(terms), degree), n_inputs)
    for i, expo in enumerate(terms):
        idx = [k for k, e in enumerate(expo) for _ in range(e)]
        cols[i, : len(idx)] = idx
    return cols


def _poly_features(cols: Array, XU: Array) -> Array:
    """Monomial features of every row of XU, one product per degree."""
    A = np.empty((XU.shape[0], XU.shape[1] + 1))
    A[:, :-1] = XU
    A[:, -1] = 1.0
    out = A[:, cols[:, 0]]
    for j in range(1, cols.shape[1]):
        out = out * A[:, cols[:, j]]
    # row-major like the input rows: the BLAS summation order of the
    # product with the coefficients depends on the layout
    return np.ascontiguousarray(out)


def _mlp_shapes(layers):
    return [(layers[i + 1], layers[i]) for i in range(len(layers) - 1)]


def _unpack_mlp(theta: Array, layers) -> list[tuple[Array, Array]]:
    params = []
    pos = 0
    for out_d, in_d in _mlp_shapes(layers):
        W = theta[pos : pos + out_d * in_d].reshape(out_d, in_d)
        pos += out_d * in_d
        b = theta[pos : pos + out_d]
        pos += out_d
        params.append((W, b))
    return params


def _mlp_forward_rows(params, Z: Array) -> Array:
    """Network output of every row of Z, each row a stacked one-row product."""
    Z = Z[:, None, :]
    for W, b in params[:-1]:
        Z = np.tanh(Z @ W.T + b)
    W, b = params[-1]
    return (Z @ W.T + b)[:, 0]


@dataclass(frozen=True, eq=False)
class UncertaintyPredictor:
    """Deterministic map (x, u) -> predicted uncertainty in R^n."""

    family: str
    theta: Array
    feature_spec: dict
    input_dims: tuple
    output_dim: int
    training_info: dict = field(default_factory=dict)

    # The constants of an evaluation, built on first use rather than on
    # every policy evaluation.

    @functools.cached_property
    def _envelope(self) -> Optional[tuple[Array, Array]]:
        lo = self.feature_spec.get("input_low")
        return None if lo is None else (np.asarray(lo), np.asarray(self.feature_spec["input_high"]))

    @functools.cached_property
    def _feature_columns(self) -> Array:
        return _monomial_columns(self.feature_spec["terms"], sum(self.input_dims))

    @functools.cached_property
    def _mlp(self):
        """(layer parameters, input shift, input scale, output scale, output shift)."""
        spec = self.feature_spec
        return (
            _unpack_mlp(self.theta, spec["layers"]),
            *(np.asarray(spec[k]) for k in
              ("input_shift", "input_scale", "output_scale", "output_shift")),
        )

    def _clamp(self, xu: Array) -> Array:
        # trained families only evaluate inside the envelope of their
        # training inputs; polynomial features in particular explode when
        # extrapolated (the delayed-input convention feeds u = 0 at the
        # first tick, which hover-scale plants never train near)
        if self._envelope is None:
            return xu
        return np.clip(xu, *self._envelope)

    def predict(self, x: Array, u: Array) -> Array:
        """Prediction for (x, u) rows: (..., n) and (..., m) with the same
        leading shape; one (n,), (m,) pair is one row."""
        n, m = self.input_dims
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        if x.shape[-1:] != (n,) or u.shape[-1:] != (m,) or x.shape[:-1] != u.shape[:-1]:
            raise DimensionMismatch(
                f"expected x:(..., {n}) u:(..., {m}), got x:{x.shape} u:{u.shape}"
            )
        XU = np.concatenate([x, u], axis=-1).reshape(-1, n + m)
        return self._evaluate(XU).reshape(x.shape[:-1] + (self.output_dim,))

    def predict_batch(self, X: Array, U: Array) -> Array:
        return self._evaluate(np.hstack([X, U]))

    def _evaluate(self, XU: Array) -> Array:
        """Family dispatch on stacked (x, u) rows.  Every row is computed as
        a stacked one-row product, so a block of rows equals the same rows
        evaluated one at a time, bit for bit."""
        if self.family == "zero":
            return np.zeros((XU.shape[0], self.output_dim))
        XU = self._clamp(XU)
        if self.family == "linear_features":
            coef = self.theta.reshape(-1, self.output_dim)
            return (_poly_features(self._feature_columns, XU)[:, None, :] @ coef)[:, 0]
        if self.family == "mlp":
            params, in_shift, in_scale, out_scale, out_shift = self._mlp
            raw = _mlp_forward_rows(params, (XU - in_shift) / in_scale)
            return raw * out_scale + out_shift
        raise ValueError(f"unknown family {self.family!r}")

    def to_json_dict(self) -> dict:
        spec = dict(self.feature_spec)
        if "terms" in spec:
            spec["terms"] = [list(t) for t in spec["terms"]]
        return {
            "family": self.family,
            "theta": self.theta.tolist(),
            "feature_spec": spec,
            "input_dims": list(self.input_dims),
            "output_dim": self.output_dim,
            "training_info": self.training_info,
        }

    @staticmethod
    def from_json_dict(d: dict) -> "UncertaintyPredictor":
        spec = dict(d["feature_spec"])
        if "terms" in spec:
            spec["terms"] = [tuple(t) for t in spec["terms"]]
        return UncertaintyPredictor(
            d["family"],
            np.array(d["theta"], dtype=float),
            spec,
            tuple(d["input_dims"]),
            d["output_dim"],
            d.get("training_info", {}),
        )


def make_zero_predictor(n: int, m: int) -> UncertaintyPredictor:
    return UncertaintyPredictor("zero", np.zeros(0), {}, (n, m), n)


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrainConfig:
    seed: int = 0
    epochs: int = 100
    batch_size: int = 8
    learning_rate: float = 0.3
    hidden: tuple = (32, 32)
    degree: int = 2


def sup_loss(p: UncertaintyPredictor, dataset: TrainingDataset) -> float:
    """Mean over records of the worst per-timestep prediction error."""
    vals = []
    for e in dataset.entries:
        pred = p.predict_batch(e.record.states, e.record.inputs)
        err = np.linalg.norm(e.record.uncertainties - pred, axis=1)
        vals.append(float(np.max(err)))
    return float(np.mean(vals))


def _record_arrays(dataset: TrainingDataset):
    return [
        (e.record.states, e.record.inputs, e.record.uncertainties)
        for e in dataset.entries
    ]


def _surrogate_forward(params, Z, target, tau, out_shift, out_scale):
    """Per-record surrogate loss, and the forward values its gradient reuses.

    Z is the normalized (T, F) input block; predictions are de-normalized
    with (out_shift, out_scale) before the error, so the surrogate is the
    softmax(tau)-weighted mean of true-scale per-timestep error norms.
    """
    acts = [Z]
    for W, b in params[:-1]:
        acts.append(np.tanh(acts[-1] @ W.T + b))
    W_last, b_last = params[-1]
    raw = acts[-1] @ W_last.T + b_last
    r = raw * out_scale + out_shift - target
    e = np.linalg.norm(r, axis=1)
    shifted = tau * (e - np.max(e))
    w = np.exp(shifted)
    w /= np.sum(w)
    s = float(w @ e)
    return s, (acts, r, e, w)


def _surrogate_backward(params, s, forward, tau, out_scale):
    """Parameter gradients of the surrogate ``s`` from its forward values."""
    acts, r, e, w = forward
    ds_de = w * (1.0 + tau * (e - s))
    safe = np.where(e > 1e-12, e, 1.0)
    G = (ds_de / safe)[:, None] * r * out_scale
    grads = []
    delta = G
    for i in range(len(params) - 1, -1, -1):
        A = acts[i]
        gW = delta.T @ A
        gb = delta.sum(axis=0)
        grads.append((gW, gb))
        if i > 0:
            delta = (delta @ params[i][0]) * (1.0 - acts[i] ** 2)
    grads.reverse()
    return grads


def _train_mlp(data, n, m, cfg: TrainConfig):
    layers = [n + m] + list(cfg.hidden) + [n]
    XU = np.vstack([np.hstack([X, U]) for X, U, _ in data])
    shift = XU.mean(axis=0)
    scale = np.maximum(XU.std(axis=0), 1e-8)
    ZS = np.vstack([Z for _, _, Z in data])
    out_shift = ZS.mean(axis=0)
    out_scale = np.maximum(ZS.std(axis=0), 1e-8)
    blocks = [((np.hstack([X, U]) - shift) / scale, Z) for X, U, Z in data]

    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(cfg.seed)))
    params = []
    for out_d, in_d in _mlp_shapes(layers):
        params.append((rng.normal(0.0, np.sqrt(2.0 / in_d), (out_d, in_d)), np.zeros(out_d)))

    def forward(ps, Zb, tb):
        return _surrogate_forward(ps, Zb, tb, SURROGATE_TEMPERATURE, out_shift, out_scale)

    def full_loss(ps):
        """The mean surrogate under ``ps``, and the forward values of the
        records of ``order``'s first minibatch, which runs under ``ps`` and
        so reuses them: each epoch's order is drawn before this pass."""
        first = set(order[: cfg.batch_size].tolist())
        losses, kept = [], {}
        for idx, (Zb, tb) in enumerate(blocks):
            s, values = forward(ps, Zb, tb)
            losses.append(s)
            if idx in first:
                kept[idx] = (s, values)
        return float(np.mean(losses)), kept

    lr = cfg.learning_rate
    order = np.arange(len(blocks))
    rng.shuffle(order)
    loss, at_start = full_loss(params)
    history = [loss]
    for epoch in range(cfg.epochs):
        snapshot, at_snapshot = [(W.copy(), b.copy()) for W, b in params], at_start
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            acc = [(np.zeros_like(W), np.zeros_like(b)) for W, b in params]
            for idx in batch:
                s, values = at_start.get(idx) or forward(params, *blocks[idx])
                if not np.isfinite(s):
                    raise NonFiniteLoss(f"epoch {epoch}, record index {idx}")
                grads = _surrogate_backward(params, s, values, SURROGATE_TEMPERATURE, out_scale)
                for a, g in zip(acc, grads):
                    a[0][...] += g[0]
                    a[1][...] += g[1]
            at_start = {}
            k = float(len(batch))
            params = [
                (W - lr * gW / k, b - lr * gb / k)
                for (W, b), (gW, gb) in zip(params, acc)
            ]
        rng.shuffle(order)
        new_loss, at_start = full_loss(params)
        if not np.isfinite(new_loss):
            raise NonFiniteLoss(f"epoch {epoch} full loss")
        if new_loss > loss:
            params, at_start = snapshot, at_snapshot    # reject the epoch, halve the step
            lr *= 0.5
            new_loss = loss
        loss = new_loss
        history.append(loss)
        if lr < 1e-8:
            break
    theta = np.concatenate([np.concatenate([W.ravel(), b]) for W, b in params])
    spec = {
        "layers": layers,
        "activation": "tanh",
        "input_shift": shift.tolist(),
        "input_scale": scale.tolist(),
        "output_shift": out_shift.tolist(),
        "output_scale": out_scale.tolist(),
    }
    info = {"seed": cfg.seed, "surrogate_history": history, "final_lr": lr}
    return theta, spec, info


def train(
    dataset: TrainingDataset, family: str, hyper: Optional[TrainConfig] = None
) -> UncertaintyPredictor:
    """Fit a predictor on the training split and report the sup-loss."""
    if dataset.split_tag != "train":
        raise ValueError("train() expects the training split")
    if len(dataset) == 0:
        raise ValueError("empty training dataset")
    cfg = hyper or TrainConfig()
    n = dataset.entries[0].record.state_dim
    m = dataset.entries[0].record.input_dim
    data = _record_arrays(dataset)

    envelope = {}
    if family != "zero":
        XU_all = np.vstack([np.hstack([X, U]) for X, U, _ in data])
        envelope = {
            "input_low": XU_all.min(axis=0).tolist(),
            "input_high": XU_all.max(axis=0).tolist(),
        }

    if family == "zero":
        p = make_zero_predictor(n, m)
    elif family == "linear_features":
        terms = polynomial_terms(n + m, cfg.degree)
        cols = _monomial_columns(terms, n + m)
        Phi = np.vstack([_poly_features(cols, np.hstack([X, U])) for X, U, _ in data])
        Zs = np.vstack([Z for _, _, Z in data])
        coef, *_ = np.linalg.lstsq(Phi, Zs, rcond=1e-8)
        if not np.all(np.isfinite(coef)):
            raise NonFiniteLoss("least-squares coefficients are non-finite")
        spec = {"degree": cfg.degree, "terms": terms, **envelope}
        p = UncertaintyPredictor("linear_features", coef.ravel(), spec, (n, m), n)
    elif family == "mlp":
        theta, spec, info = _train_mlp(data, n, m, cfg)
        spec.update(envelope)
        p = UncertaintyPredictor("mlp", theta, spec, (n, m), n, info)
    else:
        raise ValueError(f"unknown family {family!r}")

    info = dict(p.training_info)
    info["sup_loss"] = sup_loss(p, dataset)
    info["n_records"] = len(dataset)
    return UncertaintyPredictor(
        p.family, p.theta, p.feature_spec, p.input_dims, p.output_dim, info
    )
