"""Split-conformal calibration of the tracking residual.

The nonconformity score of a closed-loop record is the worst residual norm
over its time grid (the continuous-time sup realized on the only samples
that exist), read from the uncertainty the record stored and the nominal
actuation: a score needs no model of the uncertainty.  With N2
calibration scores and miscoverage alpha, the conformal quantile is the
j-th smallest score, j = ceil((1-alpha)(N2+1)), computed in exact integer
arithmetic.  j > N2 yields +inf: the guarantee is vacuous at that
(N2, alpha) and the flag makes it visible rather than raising.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import numpy as np

from .control import residual_norms
from .errors import InsufficientCalibrationData, InvalidAlpha
from .predictor import TrainingDataset, UncertaintyPredictor
from .systems import DynamicalSystem, TrajectoryRecord

Array = np.ndarray


def conformal_index(n_scores: int, alpha: float) -> int:
    """ceil((1-alpha)(n+1)) without floating-point ceiling artifacts."""
    a = Fraction(*float(alpha).as_integer_ratio())
    target = (1 - a) * (n_scores + 1)
    return -((-target.numerator) // target.denominator)


@dataclass(frozen=True, eq=False)
class CalibrationResult:
    scores: Array               # sorted ascending
    alpha: float
    quantile_index: int         # 1-indexed order statistic
    quantile_value: float       # +inf when the index exceeds the sample
    metadata: dict = field(default_factory=dict)

    @property
    def n_scores(self) -> int:
        return len(self.scores)

    @property
    def infinite(self) -> bool:
        return not np.isfinite(self.quantile_value)

    def to_json_dict(self) -> dict:
        return {
            "scores": list(map(float, self.scores)),
            "alpha": self.alpha,
            "quantile_index": self.quantile_index,
            "quantile_value": self.quantile_value,
            "metadata": self.metadata,
        }

    @staticmethod
    def from_json_dict(d: dict) -> "CalibrationResult":
        return CalibrationResult(
            np.array(d["scores"], dtype=float),
            d["alpha"],
            d["quantile_index"],
            float(d["quantile_value"]),     # write_json spells +inf "inf"
            d.get("metadata", {}),
        )


def calibrate(scores: Sequence[float], alpha: float, metadata: Optional[dict] = None) -> CalibrationResult:
    """Sort the scores and pick the conformal order statistic."""
    if not (0.0 < alpha < 1.0):
        raise InvalidAlpha(f"alpha must be in (0, 1), got {alpha!r}")
    scores = np.asarray(scores, dtype=float)
    if scores.size == 0:
        raise ValueError("scores must be non-empty")
    s = np.sort(scores, kind="stable")
    j = conformal_index(s.size, alpha)
    value = float(s[j - 1]) if j <= s.size else np.inf
    return CalibrationResult(s, float(alpha), j, value, metadata or {})


def empirical_coverage(test_scores: Sequence[float], quantile_value: float) -> float:
    """Fraction of test scores at or below the quantile."""
    t = np.asarray(test_scores, dtype=float)
    if t.size == 0:
        raise ValueError("test_scores must be non-empty")
    return float(np.mean(t <= quantile_value))


def nonconformity_score(
    record: TrajectoryRecord, predictor: UncertaintyPredictor, sys_nominal: DynamicalSystem
) -> float:
    """Worst residual norm over the record's grid (closed-loop protocol)."""
    return float(np.max(residual_norms(sys_nominal, predictor, record)))


def score_dataset(
    dataset: TrainingDataset, predictor: UncertaintyPredictor, sys_nominal: DynamicalSystem
) -> Array:
    return np.array(
        [nonconformity_score(e.record, predictor, sys_nominal) for e in dataset.entries]
    )


def split_calibration(
    cal_dataset: TrainingDataset, fraction: float
) -> tuple[TrainingDataset, TrainingDataset]:
    """The two-step split: the first round(fraction * n) entries, in order,
    and the rest, as two datasets of ``cal_dataset``'s split."""
    if not (0.0 < fraction < 1.0):
        raise ValueError(f"split_fraction must be in (0, 1), got {fraction!r}")
    n1 = int(round(fraction * len(cal_dataset)))
    parts = cal_dataset.entries[:n1], cal_dataset.entries[n1:]
    return tuple(TrainingDataset(part, cal_dataset.split_tag) for part in parts)


def calibrate_step(records: Iterable[TrajectoryRecord], predictor: UncertaintyPredictor,
                   sys_nominal: DynamicalSystem, alpha: float, step: str) -> CalibrationResult:
    """One step of the two-step protocol: score ``records`` and calibrate."""
    scores = [nonconformity_score(r, predictor, sys_nominal) for r in records]
    if not scores:
        raise InsufficientCalibrationData(f"the {step} calibration step has no records")
    return calibrate(scores, alpha, {"step": step, "n": len(scores)})


def two_step_calibrate(
    cal_dataset: TrainingDataset,
    predictor: UncertaintyPredictor,
    sys_nominal: DynamicalSystem,
    alpha: float,
    split_fraction: float = 0.5,
    second_stage_records: Optional[TrainingDataset] = None,
) -> tuple[CalibrationResult, CalibrationResult]:
    """Two-step calibration for constraint-tightened planning.

    The first subset's quantile sizes the tube radius used for tightening.
    The second quantile restores the tracking guarantee after the
    tightening shifts the data-generating process: pass the records
    regenerated under the tightened planner as ``second_stage_records``
    (without them the second half of ``cal_dataset`` is used as-is, which
    is only exact when no tightening is applied).
    """
    first, rest = split_calibration(cal_dataset, split_fraction)
    second = rest if second_stage_records is None else second_stage_records
    tube_q = calibrate_step((e.record for e in first.entries), predictor, sys_nominal, alpha,
                            "tube-radius")
    track_q = calibrate_step((e.record for e in second.entries), predictor, sys_nominal, alpha,
                             "tracking")
    return tube_q, track_q
