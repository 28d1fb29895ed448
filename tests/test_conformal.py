import dataclasses
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from prcitube.conformal import (
    CalibrationResult,
    calibrate,
    calibrate_step,
    conformal_index,
    empirical_coverage,
    nonconformity_score,
    score_dataset,
    split_calibration,
    two_step_calibrate,
)
from prcitube.control import residual_norms
from prcitube.errors import InsufficientCalibrationData, InvalidAlpha
from prcitube.harness import read_json, write_json
from prcitube.predictor import (
    TrainConfig,
    TrainingDataset,
    generate_perturbed_dataset,
    make_zero_predictor,
    split_reference,
    train,
)
from prcitube.systems import TrajectoryRecord
from tests.test_predictor import closed_loop_dataset, small_ref_dataset


# ---------------------------------------------------------------------------
# Quantile arithmetic
# ---------------------------------------------------------------------------

def test_index_paper_sizes():
    assert conformal_index(540, 0.05) == 514
    assert conformal_index(50, 0.05) == 49
    assert conformal_index(10, 0.05) == 11      # exceeds the sample


def test_index_exact_integer_boundary():
    # float(0.05) is slightly above 1/20, so (1-a)*20 is slightly below 19
    assert conformal_index(19, 0.05) == 19
    assert conformal_index(19, Fraction(1, 20)) == 19


@given(st.integers(min_value=1, max_value=2000), st.integers(min_value=1, max_value=999))
@settings(max_examples=200, deadline=None)
def test_index_matches_integer_scan(n, millis):
    alpha = millis / 1000.0
    j = conformal_index(n, alpha)
    a = Fraction(*alpha.as_integer_ratio())
    target = (1 - a) * (n + 1)
    # smallest integer >= target
    scan = target.numerator // target.denominator
    if scan < target:
        scan += 1
    assert j == scan


def test_calibrate_quantile_values():
    scores = [5.0, 1.0, 3.0, 2.0, 4.0]
    res = calibrate(scores, 0.5)        # j = ceil(0.5 * 6) = 3
    assert res.quantile_index == 3
    assert res.quantile_value == 3.0
    assert not res.infinite
    np.testing.assert_array_equal(res.scores, np.sort(scores))


def test_calibrate_infinite_flag():
    res = calibrate([1.0] * 10, 0.05)
    assert res.quantile_index == 11
    assert res.infinite
    assert res.quantile_value == np.inf


def test_calibrate_invalid_alpha_and_empty():
    with pytest.raises(InvalidAlpha):
        calibrate([1.0], 0.0)
    with pytest.raises(InvalidAlpha):
        calibrate([1.0], 1.0)
    with pytest.raises(ValueError):
        calibrate([], 0.5)


@given(st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=60), st.integers(1, 99))
@settings(max_examples=100, deadline=None)
def test_calibrate_permutation_invariant(scores, pct):
    alpha = pct / 100.0
    a = calibrate(scores, alpha)
    rng = np.random.default_rng(0)
    shuffled = list(scores)
    rng.shuffle(shuffled)
    b = calibrate(shuffled, alpha)
    assert a.quantile_index == b.quantile_index
    assert a.quantile_value == b.quantile_value
    np.testing.assert_array_equal(a.scores, b.scores)


@given(st.lists(st.floats(min_value=0, max_value=10), min_size=5, max_size=40))
@settings(max_examples=60, deadline=None)
def test_quantile_monotone_in_coverage(scores):
    values = [calibrate(scores, a).quantile_value for a in (0.5, 0.3, 0.2, 0.1, 0.02)]
    assert all(v2 >= v1 for v1, v2 in zip(values, values[1:]))


def test_empirical_coverage_basics():
    assert empirical_coverage([1, 2, 3], 10.0) == 1.0
    assert empirical_coverage([1, 2, 3], 2.0) == pytest.approx(2 / 3)
    assert empirical_coverage([1, 2, 3], np.inf) == 1.0
    with pytest.raises(ValueError):
        empirical_coverage([], 1.0)


def test_exact_marginal_coverage_monte_carlo():
    # split conformal on iid uniforms: mean coverage in [1-a, 1-a + 1/(N+1)]
    rng = np.random.default_rng(42)
    n2, alpha, reps = 50, 0.05, 2000
    hits = 0
    for _ in range(reps):
        scores = rng.uniform(size=n2)
        q = calibrate(scores, alpha).quantile_value
        hits += rng.uniform() <= q
    mean = hits / reps
    lo, hi = 0.95, 0.95 + 1 / 51
    se = math.sqrt(0.96 * 0.04 / reps)
    assert lo - 3 * se <= mean <= hi + 3 * se


# ---------------------------------------------------------------------------
# Scores from records
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def cal_setup(bench3d, metric3d):
    nom, true = bench3d
    ref = small_ref_dataset(nom, n=8, T=1.0, tag="conf")
    ref_train, ref_cal = split_reference(ref, 4, 4)
    train_ds = generate_perturbed_dataset(true, ref_train, "open_loop_reference", "train")
    predictor = train(train_ds, "linear_features", TrainConfig(degree=2))
    cal_ds = closed_loop_dataset(true, ref_cal, metric3d, predictor)
    return nom, true, metric3d, predictor, cal_ds


def test_score_equals_max_residual_trace(cal_setup):
    nom, true, metric, predictor, cal_ds = cal_setup
    e = cal_ds.entries[0]
    trace = residual_norms(nom, predictor, e.record)
    score = nonconformity_score(e.record, predictor, nom)
    assert score == pytest.approx(np.max(trace), rel=1e-12)


def test_zero_predictor_scores_the_largest_recorded_uncertainty(cal_setup):
    nom, _, _, _, cal_ds = cal_setup
    zero = make_zero_predictor(3, 2)
    for e in cal_ds.entries:
        want = np.max(np.linalg.norm(e.record.uncertainties, axis=1))
        assert nonconformity_score(e.record, zero, nom) == pytest.approx(want, rel=1e-15)


def test_score_reads_the_recorded_uncertainty(cal_setup):
    """A record whose stored uncertainty is edited scores by the edited
    values, not by a re-evaluation of the plant's model."""
    nom, _, _, predictor, cal_ds = cal_setup
    rec = cal_ds.entries[0].record
    zeta = 2.0 * rec.uncertainties
    zeta[7] += np.array([3.0, -4.0, 12.0])
    edited = TrajectoryRecord(rec.times, rec.states, rec.inputs, zeta)
    U_minus = np.vstack([np.zeros((1, 2)), rec.inputs[:-1]])
    B = nom.actuation(rec.states[0])
    compensation = (B @ np.linalg.pinv(B, rcond=1e-10) @ predictor.predict(rec.states, U_minus).T).T
    want = np.max(np.linalg.norm(zeta - compensation, axis=1))
    score = nonconformity_score(edited, predictor, nom)
    assert score == pytest.approx(want, rel=1e-12)
    assert score > nonconformity_score(rec, predictor, nom) + 10.0


def test_score_calls_no_plant_drift_or_uncertainty(cal_setup):
    nom, _, _, predictor, cal_ds = cal_setup

    def boom(*args):
        raise AssertionError("a score evaluated the plant's model")

    blind = dataclasses.replace(nom, drift=boom, uncertainty=boom)
    for e in cal_ds.entries:
        assert (nonconformity_score(e.record, predictor, blind)
                == nonconformity_score(e.record, predictor, nom))
    assert np.array_equal(score_dataset(cal_ds, predictor, blind),
                          score_dataset(cal_ds, predictor, nom))


def test_score_of_a_reference_raises(cal_setup):
    nom, _, _, predictor, cal_ds = cal_setup
    reference = cal_ds.entries[0].reference
    assert reference.uncertainties is None
    with pytest.raises(ValueError, match="uncertainty"):
        nonconformity_score(reference, predictor, nom)


def test_two_step_bookkeeping(cal_setup):
    nom, _, _, predictor, cal_ds = cal_setup
    q1, q2 = two_step_calibrate(cal_ds, predictor, nom, alpha=0.4, split_fraction=0.5)
    assert q1.n_scores == 2 and q2.n_scores == 2
    assert q1.metadata["step"] == "tube-radius"
    assert q2.metadata["step"] == "tracking"


def test_two_step_degenerate_alpha_flags_infinity(cal_setup):
    nom, _, _, predictor, cal_ds = cal_setup
    q1, q2 = two_step_calibrate(cal_ds, predictor, nom, alpha=0.01, split_fraction=0.5)
    assert q1.infinite and q2.infinite


def test_two_step_insufficient_data(cal_setup):
    nom, _, _, predictor, cal_ds = cal_setup
    small = TrainingDataset(cal_ds.entries[:1], "cal")
    with pytest.raises(InsufficientCalibrationData):
        two_step_calibrate(small, predictor, nom, alpha=0.5, split_fraction=0.2)


@pytest.mark.parametrize("fraction", [0.0, 1.0, 1.5, -0.5])
def test_split_refuses_a_fraction_outside_the_open_unit_interval(cal_setup, fraction):
    cal_ds = cal_setup[4]
    with pytest.raises(ValueError, match="split_fraction"):
        split_calibration(cal_ds, fraction)


def test_split_keeps_order_and_rounds_the_first_part(cal_setup):
    cal_ds = cal_setup[4]
    for fraction, n1 in ((0.5, 2), (0.6, 2), (0.7, 3), (0.1, 0)):
        first, rest = split_calibration(cal_ds, fraction)
        assert first.ids() + rest.ids() == cal_ds.ids() and len(first) == n1
        assert first.split_tag == rest.split_tag == cal_ds.split_tag


def test_step_scores_its_records_and_refuses_none(cal_setup):
    nom, _, _, predictor, cal_ds = cal_setup
    records = [e.record for e in cal_ds.entries]
    step = calibrate_step(records, predictor, nom, 0.4, "tracking")
    want = calibrate(score_dataset(cal_ds, predictor, nom), 0.4, {"step": "tracking", "n": 4})
    assert step.to_json_dict() == want.to_json_dict()
    with pytest.raises(InsufficientCalibrationData, match="tracking"):
        calibrate_step([], predictor, nom, 0.4, "tracking")


def test_two_step_halves_within_order_statistic_band():
    # identical score distributions in both halves: compare each half's
    # quantile against a resampled band of the same order statistic
    rng = np.random.default_rng(7)
    n_half, alpha = 100, 0.1
    j = conformal_index(n_half, alpha)
    sims = np.sort(rng.uniform(size=(4000, n_half)), axis=1)[:, j - 1]
    band = np.quantile(sims, [0.001, 0.999])
    scores = rng.uniform(size=2 * n_half)
    q1 = calibrate(scores[:n_half], alpha).quantile_value
    q2 = calibrate(scores[n_half:], alpha).quantile_value
    assert band[0] <= q1 <= band[1]
    assert band[0] <= q2 <= band[1]


def test_calibration_result_json_roundtrip(tmp_path):
    res = calibrate([3.0, 1.0, 2.0], 0.25, {"predictor": "mlp", "manifest_sha256": "ab"})
    d = res.to_json_dict()
    back = CalibrationResult.from_json_dict(json.loads(json.dumps(d)))
    assert back.quantile_index == res.quantile_index
    assert back.quantile_value == res.quantile_value
    assert back.metadata == res.metadata
    inf = calibrate([1.0], 0.05)
    back = CalibrationResult.from_json_dict(json.loads(json.dumps(inf.to_json_dict())))
    assert back.infinite


def test_infinite_quantile_roundtrips_through_write_json(tmp_path):
    res = calibrate([1.0, 2.0], 0.05, {"step": "tracking", "n": 2})
    assert res.infinite
    write_json(tmp_path / "cal.json", res.to_json_dict())
    assert '"quantile_value": "inf"' in (tmp_path / "cal.json").read_text()
    back = CalibrationResult.from_json_dict(read_json(tmp_path / "cal.json"))
    assert back.quantile_value == np.inf and back.quantile_index == 3
    assert back.scores.tolist() == [1.0, 2.0] and back.metadata == res.metadata


def test_score_dataset_vectorizes(cal_setup):
    nom, _, _, predictor, cal_ds = cal_setup
    scores = score_dataset(cal_ds, predictor, nom)
    assert scores.shape == (len(cal_ds),)
    assert np.all(scores >= 0)


# ---------------------------------------------------------------------------
# Family agnosticism: the calibration/tube path runs identically over all
# predictor families
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("family", ["zero", "linear_features", "mlp"])
def test_pipeline_is_family_agnostic(bench3d, metric3d, family):
    nom, true = bench3d
    ref = small_ref_dataset(nom, n=6, T=1.0, tag=f"agn-{family}")
    ref_train, ref_cal = split_reference(ref, 3, 3)
    train_ds = generate_perturbed_dataset(true, ref_train, "open_loop_reference", "train")
    predictor = train(train_ds, family, TrainConfig(seed=0, epochs=5, degree=2))
    cal_ds = closed_loop_dataset(true, ref_cal, metric3d, predictor)
    scores = score_dataset(cal_ds, predictor, nom)
    result = calibrate(scores, alpha=0.3)
    assert result.n_scores == 3
    assert np.isfinite(result.quantile_value)

    from prcitube.tube import PRCITube, containment_experiment

    tubes = [
        PRCITube.from_calibration(e.reference, metric3d, result) for e in cal_ds.entries
    ]
    rolls = [e.record for e in cal_ds.entries]
    report = containment_experiment(tubes, rolls)
    assert 0.0 <= report["fraction"] <= 1.0
