"""Spans around prcitube's public functions, recorded from outside the library.

A ``Tracer`` replaces each function named in ``TARGETS`` by a timing wrapper
at every module (or class) that looks the name up, runs the pipeline, and
puts the originals back.  Nothing inside ``src/`` knows it is being traced.

Two kinds of wrapper:

* ``span``: one record per call (name, start, end, parent, attrs).  Used for
  per-rollout and per-stage calls.
* ``hot``: calls made once per RK4 stage or per FD column (feedback, predict,
  pinv, geodesic distance, FD Jacobian).  A span per call would cost more
  than the call, so these are aggregated into the innermost open span as
  ``{name: [calls, total_s, top_level_s]}``; ``top_level_s`` counts only calls
  not nested in another hot call, so a parent's self time subtracts each
  second once.

Spans stay in memory until ``write`` dumps them as JSON (see README.md).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import os
import sys
import time

CLOCK = time.process_time   # the same clock as worker.py
MARK = "__perfbench_original__"


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "attrs", "hot")

    def __init__(self, sid, name, start, parent):
        self.id = sid
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.attrs = {}
        self.hot = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": None if self.parent is None else self.parent.id,
            "attrs": self.attrs,
            "hot": {k: {"calls": v[0], "s": v[1], "top_s": v[2]} for k, v in self.hot.items()},
        }


# -- attribute extractors: (bound arguments, result, error) -> attrs ---------

def _integrate_attrs(a, result, error):
    from prcitube.control import ContractingPolicy
    from prcitube.errors import NonFiniteState

    steps = int(round(a["T"] / a["dt"]))
    if isinstance(error, NonFiniteState):
        steps = int(round(error.time / a["dt"]))
    return {
        "closed_loop": isinstance(a["policy"], ContractingPolicy),
        "steps": steps,
        "diverged": isinstance(error, NonFiniteState),
    }


def _dir_bytes(a, result, error):
    d = a["directory"]
    return {"bytes": sum(e.stat().st_size for e in os.scandir(d) if e.is_file())}


TARGETS = (
    # (owner, attribute, span name, kind, attrs)
    ("prcitube.harness", "stage_metric", "harness.stage.metric", "span", None),
    ("prcitube.harness", "stage_ref_data", "harness.stage.ref_data", "span", None),
    ("prcitube.harness", "stage_train_data", "harness.stage.train_data", "span", None),
    ("prcitube.harness", "stage_train", "harness.stage.train", "span", None),
    ("prcitube.harness", "stage_cal_data", "harness.stage.cal_data", "span", None),
    ("prcitube.harness", "stage_calibrate", "harness.stage.calibrate", "span", None),
    ("prcitube.harness", "stage_tube", "harness.stage.tube", "span", None),
    ("prcitube.harness", "stage_plan", "harness.stage.plan", "span", None),
    ("prcitube.harness", "stage_evaluate", "harness.stage.evaluate", "span", None),
    ("prcitube.harness", "save_dataset", "harness.save_dataset", "span", _dir_bytes),
    ("prcitube.harness", "load_dataset", "harness.load_dataset", "span",
     lambda a, r, e: {"records": 0 if r is None else len(r)}),
    ("prcitube.systems", "integrate", "systems.integrate", "span", _integrate_attrs),
    ("prcitube.control", "min_norm_feedback", "control.min_norm_feedback", "hot", None),
    ("numpy.linalg", "pinv", "control.pinv", "hot", None),
    ("prcitube.control", "residual_norms", "control.residual_norms", "span",
     lambda a, r, e: {"points": len(a["trajectory"].times)}),
    ("prcitube.metric", "riemannian_distance", "metric.riemannian_distance", "hot", None),
    ("prcitube.metric", "jacobian_fd", "metric.jacobian_fd", "hot", None),
    ("prcitube.metric", "synthesize_constant_metric", "metric.synthesize_constant_metric", "span",
     lambda a, r, e: {"grid_points": len(a["grid"])}),
    ("prcitube.metric", "verify_contraction", "metric.verify_contraction", "span",
     lambda a, r, e: {"grid_points": len(a["grid"])}),
    ("prcitube.predictor:UncertaintyPredictor", "predict", "predictor.predict", "hot", None),
    ("prcitube.predictor:UncertaintyPredictor", "predict_batch", "predictor.predict_batch", "span",
     lambda a, r, e: {"rows": len(a["X"])}),
    ("prcitube.predictor", "train", "predictor.train", "span", None),
    ("prcitube.predictor", "generate_reference_dataset", "predictor.generate_reference_dataset",
     "span", None),
    ("prcitube.predictor", "generate_perturbed_dataset", "predictor.generate_perturbed_dataset",
     "span",
     lambda a, r, e: {
         "mode": a["policy_mode"],
         "skipped": len(a["source"]) - (0 if r is None else len(r)),
     }),
    ("prcitube.conformal", "score_dataset", "conformal.score_dataset", "span",
     lambda a, r, e: {"records": len(a["dataset"])}),
    ("prcitube.conformal", "nonconformity_score", "conformal.nonconformity_score", "span",
     lambda a, r, e: {"record": id(a["record"])}),
    ("prcitube.conformal", "two_step_calibrate", "conformal.two_step_calibrate", "span", None),
    ("prcitube.tube", "trajectory_distances", "tube.trajectory_distances", "span", None),
    ("prcitube.tube", "tighten_input_box", "tube.tighten_input_box", "span", None),
    ("prcitube.tube", "project_tube_2d", "tube.project_tube_2d", "span", None),
    ("prcitube.tube", "containment_experiment", "tube.containment_experiment", "span", None),
    ("prcitube.planner", "plan", "planner.plan", "span",
     lambda a, r, e: {} if r is None else {
         "iterations": len(r.cost_history) - 1,
         "converged": bool(r.converged),
     }),
    ("prcitube.planner", "end_to_end_run", "planner.end_to_end_run", "span",
     lambda a, r, e: {} if r is None else {"rollouts": r["n_rollouts"]}),
)


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


def _lookup_sites(owner, attr, original):
    """Every (namespace, name) that holds ``original``: the defining owner
    plus each prcitube module that imported it, under any name."""
    sites = [(owner, attr)]
    for name, mod in sorted(sys.modules.items()):
        if mod is None or not (name == "prcitube" or name.startswith("prcitube.")):
            continue
        for a, v in sorted(vars(mod).items()):
            if v is original and (mod, a) != (owner, attr):
                sites.append((mod, a))
    return sites


class Tracer:
    """In-memory span recorder; ``installed()`` patches, ``write`` dumps."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._hot_depth = 0
        self._patches: list = []
        self._pinned: list = []     # arguments of spans, so an id() in attrs stays unique

    # -- spans -----------------------------------------------------------

    def open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, CLOCK(), parent)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = CLOCK()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    @contextlib.contextmanager
    def span(self, name: str):
        s = self.open(name)
        try:
            yield s
        finally:
            self.close(s)

    # -- wrappers ----------------------------------------------------------

    def _span_wrapper(self, fn, name, attrs_fn):
        sig = inspect.signature(fn)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.open(name)
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                error = err
                span.attrs["error"] = type(err).__name__
                raise
            finally:
                tracer.close(span)
                if attrs_fn is not None:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    span.attrs.update(attrs_fn(bound.arguments, result, error))
                    tracer._pinned.append(bound.arguments)

        return wrapper

    def _hot_wrapper(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nested = tracer._hot_depth > 0
            tracer._hot_depth += 1
            t0 = CLOCK()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = CLOCK() - t0
                tracer._hot_depth -= 1
                agg = tracer._stack[-1].hot.get(name)
                if agg is None:
                    agg = tracer._stack[-1].hot[name] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += dt
                if not nested:
                    agg[2] += dt

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Patch every target at every lookup site; restore on exit."""
        try:
            for owner_name, attr, name, kind, attrs_fn in TARGETS:
                owner = _resolve(owner_name)
                original = getattr(owner, attr)
                if hasattr(original, MARK):
                    raise RuntimeError(f"{owner_name}.{attr} is already wrapped")
                if kind == "hot":
                    wrapper = self._hot_wrapper(original, name)
                else:
                    wrapper = self._span_wrapper(original, name, attrs_fn)
                setattr(wrapper, MARK, original)
                for ns, a in _lookup_sites(owner, attr, original):
                    self._patches.append((ns, a, getattr(ns, a)))
                    setattr(ns, a, wrapper)
            yield self
        finally:
            while self._patches:
                ns, a, original = self._patches.pop()
                setattr(ns, a, original)

    # -- output --------------------------------------------------------------

    def write(self, path, meta: dict) -> None:
        payload = dict(meta, clock="time.process_time seconds",
                       spans=[s.to_json() for s in self.spans])
        with open(path, "w") as fh:
            json.dump(payload, fh)
            fh.write("\n")


def patched_sites() -> list[str]:
    """Names in prcitube modules and numpy.linalg still bound to a wrapper."""
    found = []
    mods = [m for n, m in sys.modules.items()
            if m is not None and (n == "prcitube" or n.startswith("prcitube."))]
    mods.append(importlib.import_module("numpy.linalg"))
    for mod in mods:
        for ns in [mod] + [v for v in vars(mod).values() if inspect.isclass(v)]:
            for a, v in list(vars(ns).items()):
                if hasattr(v, MARK):
                    found.append(f"{getattr(ns, '__name__', ns)}.{a}")
    return found


# -- per-layer metrics ---------------------------------------------------------

def _self_time(span: Span, children: dict) -> float:
    own = span.duration - sum(c.duration for c in children.get(span.id, ()))
    return own - sum(v[2] for v in span.hot.values())


def layer_metrics(tracer: Tracer, cold: Span, resume: Span) -> dict:
    """Per-layer numbers of one traced worker: everything from the cold
    pipeline span, dataset loading from the first resume span."""
    under = [s for s in tracer.spans if _within(s, cold)]
    by_name: dict[str, list[Span]] = {}
    children: dict[int, list[Span]] = {}
    for s in under:
        by_name.setdefault(s.name, []).append(s)
        if s.parent is not None:
            children.setdefault(s.parent.id, []).append(s)

    def spans(name):
        return by_name.get(name, [])

    def total(name):
        return sum(s.duration for s in spans(name))

    def attr_sum(name, key):
        return sum(s.attrs.get(key, 0) for s in spans(name))

    def hot(name, within=None, idx=0):
        pool = under if within is None else [s for s in under if any(_within(s, w) for w in within)]
        return sum(s.hot[name][idx] for s in pool if name in s.hot)

    def per(a, b):
        return a / b if b else 0.0

    m: dict[str, float] = {}
    stage_sum = 0.0
    for stage in ("metric", "ref_data", "train_data", "train", "cal_data", "calibrate",
                  "tube", "plan", "evaluate"):
        t = total(f"harness.stage.{stage}")
        m[f"harness.stage.{stage}_s"] = t
        stage_sum += t
    m["harness.save_dataset.calls"] = len(spans("harness.save_dataset"))
    m["harness.save_dataset.s"] = total("harness.save_dataset")
    m["harness.save_dataset.bytes"] = attr_sum("harness.save_dataset", "bytes")
    loads = [s for s in tracer.spans if s.name == "harness.load_dataset" and _within(s, resume)]
    m["harness.load_dataset.calls"] = len(loads)
    m["harness.load_dataset.records"] = sum(s.attrs.get("records", 0) for s in loads)
    m["harness.load_dataset.s"] = sum(s.duration for s in loads)

    integ = spans("systems.integrate")
    closed = [s for s in integ if s.attrs.get("closed_loop")]
    opened = [s for s in integ if not s.attrs.get("closed_loop")]
    steps = sum(s.attrs["steps"] for s in integ)
    closed_steps = sum(s.attrs["steps"] for s in closed)
    m["systems.integrate.calls"] = len(integ)
    m["systems.integrate.steps"] = steps
    m["systems.integrate.diverged"] = sum(bool(s.attrs.get("diverged")) for s in integ)
    m["systems.integrate.s"] = total("systems.integrate")
    m["systems.integrate.share"] = per(m["systems.integrate.s"], cold.duration)
    m["systems.integrate.open_loop_us_per_step"] = 1e6 * per(
        sum(s.duration for s in opened), sum(s.attrs["steps"] for s in opened))
    m["systems.integrate.closed_loop_us_per_step"] = 1e6 * per(
        sum(s.duration for s in closed), closed_steps)
    m["systems.integrate.self_us_per_step"] = 1e6 * per(
        sum(_self_time(s, children) for s in integ), steps)

    m["control.min_norm_feedback.calls"] = hot("control.min_norm_feedback")
    m["control.min_norm_feedback.s"] = hot("control.min_norm_feedback", idx=1)
    m["control.policy.evals_per_step"] = per(
        hot("control.min_norm_feedback", within=closed), closed_steps)
    m["control.pinv.calls"] = hot("control.pinv")
    m["control.pinv.per_step"] = per(hot("control.pinv", within=closed), closed_steps)
    m["control.residual_norms.calls"] = len(spans("control.residual_norms"))
    m["control.residual_norms.points"] = attr_sum("control.residual_norms", "points")
    m["control.residual_norms.s"] = total("control.residual_norms")

    m["metric.riemannian_distance.calls"] = hot("metric.riemannian_distance")
    m["metric.riemannian_distance.s"] = hot("metric.riemannian_distance", idx=1)
    for name in ("synthesize_constant_metric", "verify_contraction"):
        m[f"metric.{name}.s"] = total(f"metric.{name}")
        m[f"metric.{name}.grid_points"] = attr_sum(f"metric.{name}", "grid_points")
    m["metric.jacobian_fd.calls"] = hot("metric.jacobian_fd")
    m["metric.jacobian_fd.s"] = hot("metric.jacobian_fd", idx=1)

    m["predictor.predict.calls"] = hot("predictor.predict")
    m["predictor.predict.s"] = hot("predictor.predict", idx=1)
    m["predictor.predict.us_per_call"] = 1e6 * per(m["predictor.predict.s"],
                                                   m["predictor.predict.calls"])
    m["predictor.predict_batch.calls"] = len(spans("predictor.predict_batch"))
    m["predictor.predict_batch.rows"] = attr_sum("predictor.predict_batch", "rows")
    m["predictor.predict_batch.s"] = total("predictor.predict_batch")
    m["predictor.train.s"] = total("predictor.train")
    m["predictor.generate_reference_dataset.s"] = total("predictor.generate_reference_dataset")
    gen = spans("predictor.generate_perturbed_dataset")
    m["predictor.generate_perturbed_dataset.open_loop_s"] = sum(
        s.duration for s in gen if s.attrs.get("mode") == "open_loop_reference")
    m["predictor.generate_perturbed_dataset.closed_loop_s"] = sum(
        s.duration for s in gen if s.attrs.get("mode") == "closed_loop_with_predictor")
    m["predictor.generate_perturbed_dataset.skipped"] = sum(s.attrs.get("skipped", 0) for s in gen)

    m["conformal.score_dataset.calls"] = len(spans("conformal.score_dataset"))
    m["conformal.score_dataset.records"] = attr_sum("conformal.score_dataset", "records")
    m["conformal.score_dataset.s"] = total("conformal.score_dataset")
    scores = spans("conformal.nonconformity_score")
    m["conformal.nonconformity_score.calls"] = len(scores)
    m["conformal.rescore_ratio"] = per(len(scores), len({s.attrs["record"] for s in scores}))
    m["conformal.two_step_calibrate.s"] = total("conformal.two_step_calibrate")

    m["tube.trajectory_distances.calls"] = len(spans("tube.trajectory_distances"))
    m["tube.trajectory_distances.s"] = total("tube.trajectory_distances")
    m["tube.tighten_input_box.s"] = total("tube.tighten_input_box")
    m["tube.tighten_input_box.feedback_calls"] = hot(
        "control.min_norm_feedback", within=spans("tube.tighten_input_box"))
    m["tube.project_tube_2d.s"] = total("tube.project_tube_2d")
    m["tube.containment_experiment.s"] = total("tube.containment_experiment")

    plans = spans("planner.plan")
    iters = attr_sum("planner.plan", "iterations")
    m["planner.plan.s"] = total("planner.plan")
    m["planner.plan.iterations"] = iters
    m["planner.plan.converged"] = sum(bool(s.attrs.get("converged")) for s in plans)
    m["planner.plan.jacobian_fd_calls"] = hot("metric.jacobian_fd", within=plans)
    m["planner.plan.us_per_iteration"] = 1e6 * per(m["planner.plan.s"], iters)
    m["planner.end_to_end_run.s"] = total("planner.end_to_end_run")
    m["planner.end_to_end_run.rollouts"] = attr_sum("planner.end_to_end_run", "rollouts")

    m["trace.pipeline_s"] = cold.duration
    m["trace.stage_sum_s"] = stage_sum
    m["trace.spans"] = len(under)
    return m


def _within(span: Span, ancestor: Span) -> bool:
    s = span
    while s is not None:
        if s is ancestor:
            return True
        s = s.parent
    return False
