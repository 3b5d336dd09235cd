"""Spans and counters around crossrisk's public functions, installed from
the benchmark's own files.

Each traced function is replaced by one wrapper at every place it is bound:
its defining module, every ``crossrisk`` module that imported it by name,
and the class for methods. A function that no longer exists is reported as
an absent layer instead of failing the run. Spans stay in memory until the
run ends.
"""

from __future__ import annotations

import functools
import json
import os
import resource
import sys
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Optional

SETUP = "setup"
STAGES = ("preprocess", "train", "risk")

# Wrapped functions: span name -> (module, attribute path). A ``.`` in the
# attribute path names a method on a class of that module.
TARGETS = {
    "synth.generate_scenario": ("synth", "generate_scenario"),
    "trajectory.load_dataset": ("trajectory", "load_dataset"),
    "trajectory.save_dataset": ("trajectory", "save_dataset"),
    "geometry.estimate_crosswalk_endpoints": ("geometry", "estimate_crosswalk_endpoints"),
    "preprocess.preprocess_dataset": ("preprocess", "preprocess_dataset"),
    "preprocess.merge_pedestrian_trajectories": ("preprocess", "merge_pedestrian_trajectories"),
    "preprocess.filter_pedestrian_trajectories": ("preprocess", "filter_pedestrian_trajectories"),
    "maneuver.run_split_protocol": ("maneuver", "run_split_protocol"),
    "maneuver.train_forest": ("maneuver", "train_forest"),
    "maneuver.smote_oversample": ("maneuver", "smote_oversample"),
    "maneuver.save_forest": ("maneuver", "save_forest"),
    "maneuver.load_forest": ("maneuver", "load_forest"),
    "maneuver.predict_proba": ("maneuver", "ForestModel.predict_proba"),
    "gpr.fit_gpr": ("gpr", "fit_gpr"),
    "gpr.save_cluster_models": ("gpr", "save_cluster_models"),
    "gpr.load_cluster_models": ("gpr", "load_cluster_models"),
    "gpr.rollout": ("gpr", "rollout"),
    "risk.estimate_risk": ("risk", "estimate_risk"),
    "risk.find_conflict_point": ("risk", "find_conflict_point"),
    "risk.predict_pedestrian": ("risk", "predict_pedestrian"),
    "ssm.identify_conflicts_pet": ("ssm", "identify_conflicts_pet"),
    "ssm.compute_pet": ("ssm", "compute_pet"),
    "ssm.co_present_pairs": ("ssm", "co_present_pairs"),
    "ssm.compute_ttc": ("ssm", "compute_ttc"),
    "ssm.evaluate_detection": ("ssm", "evaluate_detection"),
    "evaluation.prediction_error_study": ("evaluation", "prediction_error_study"),
    "evaluation.compute_risk_streams": ("evaluation", "compute_risk_streams"),
    "cli.cmd_preprocess": ("cli", "cmd_preprocess"),
    "cli.cmd_train": ("cli", "cmd_train"),
    "cli.cmd_risk": ("cli", "cmd_risk"),
}

_STAGE_OF = {"cli.cmd_preprocess": "preprocess", "cli.cmd_train": "train",
             "cli.cmd_risk": "risk"}


def _arg(args, kwargs, index: int, name: str):
    return kwargs[name] if name in kwargs else args[index]


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# Counters read from a wrapped call: span name -> fn(tracer, stage, args,
# kwargs, result). ``tracer.add`` sums numbers, ``tracer.collect`` unions sets.
def _count_predict(t, stage, a, k, r):
    X = _arg(a, k, 1, "X")
    t.add(("predict_rows", stage), X.shape[0] if hasattr(X, "shape") else len(X))


def _count_rollout(t, stage, a, k, r):
    pair, start = _arg(a, k, 0, "pair"), _arg(a, k, 1, "start")
    t.collect(("rollout_starts", stage), {(pair.cluster, float(start[0]), float(start[1]))})


def _count_merge(t, stage, a, k, r):
    n_in = len(_arg(a, k, 0, "trajs"))
    t.add("fragments_in", n_in)
    t.add("merges", n_in - len(r))


COUNTERS: dict[str, Callable] = {
    "trajectory.load_dataset": lambda t, st, a, k, r: t.add(
        "load_rows", sum(len(tr.points) for tr in r.trajectories)),
    "preprocess.merge_pedestrian_trajectories": _count_merge,
    "maneuver.run_split_protocol": lambda t, st, a, k, r: t.add(
        "feature_rows", _arg(a, k, 0, "X").shape[0]),
    "maneuver.save_forest": lambda t, st, a, k, r: t.add(
        "forest_json_bytes", os.path.getsize(_arg(a, k, 1, "path"))),
    "maneuver.predict_proba": _count_predict,
    "gpr.fit_gpr": lambda t, st, a, k, r: t.add(
        "fit_points", len(_arg(a, k, 0, "inputs"))),
    "gpr.save_cluster_models": lambda t, st, a, k, r: t.add(
        "models_json_bytes", os.path.getsize(_arg(a, k, 1, "path"))),
    "gpr.rollout": _count_rollout,
    "ssm.identify_conflicts_pet": lambda t, st, a, k, r: t.collect(
        "truth_pairs", {e.pair for e in r}),
    "ssm.co_present_pairs": lambda t, st, a, k, r: t.add(
        ("pairs", st), len(r)),
    "evaluation.compute_risk_streams": lambda t, st, a, k, r: t.collect(
        "stream_pairs", set(r)),
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 at the root
    run_id: str
    stage: str


class Tracer:
    """Installs wrappers, records spans and counters, and derives the
    per-layer metrics of one traced pipeline run."""

    def __init__(self) -> None:
        self.spans: list[Optional[Span]] = []
        self.counts: dict = defaultdict(dict)  # run_id -> key -> value
        self.rss_growth_mb: dict = defaultdict(dict)  # run_id -> stage -> MB
        self.absent: set[str] = set()  # span names whose function is gone
        self.count_errors: set[str] = set()  # span names whose counter failed
        self.run_id = SETUP
        self._stage = SETUP
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "crossrisk" or name.startswith("crossrisk.")]
        for span_name, (mod_name, attr_path) in TARGETS.items():
            owner = sys.modules.get(f"crossrisk.{mod_name}")
            *owner_path, attr = attr_path.split(".")
            for part in owner_path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if not callable(original):
                self.absent.add(span_name)
                continue
            wrapper = self._wrap(span_name, original)
            sites = [(owner, attr)] if owner_path else [
                (m, name) for m in modules for name, value in list(vars(m).items())
                if value is original
            ]
            for site, name in sites:
                self._restore.append((site, name, original))
                setattr(site, name, wrapper)

    def uninstall(self) -> None:
        for site, name, original in reversed(self._restore):
            setattr(site, name, original)
        self._restore.clear()

    def add(self, key, n) -> None:
        counts = self.counts[self.run_id]
        counts[key] = counts.get(key, 0) + n

    def collect(self, key, items: set) -> None:
        self.counts[self.run_id].setdefault(key, set()).update(items)

    def _wrap(self, span_name: str, fn: Callable) -> Callable:
        tracer = self
        counter = COUNTERS.get(span_name)
        stage = _STAGE_OF.get(span_name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stage is not None:
                outer_stage, tracer._stage = tracer._stage, stage
                rss0 = _maxrss_mb()
            parent = tracer._stack[-1] if tracer._stack else -1
            idx = len(tracer.spans)
            tracer.spans.append(None)
            tracer._stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._stack.pop()
                tracer.spans[idx] = Span(span_name, start, end, parent,
                                         tracer.run_id, tracer._stage)
                if stage is not None:
                    tracer.rss_growth_mb[tracer.run_id][stage] = _maxrss_mb() - rss0
                    tracer._stage = outer_stage
            if counter is not None:
                try:
                    counter(tracer, tracer._stage, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError,
                        OSError):
                    tracer.count_errors.add(span_name)
            return result

        return wrapper

    # -- aggregation -------------------------------------------------------

    def self_times(self, run_id: str) -> tuple[dict, dict]:
        """Self seconds and call counts per (span name, stage) for one run."""
        child = defaultdict(float)
        for span in self.spans:
            if span is not None and span.run_id == run_id and span.parent >= 0:
                child[span.parent] += span.end - span.start
        self_s, calls = defaultdict(float), defaultdict(int)
        for idx, span in enumerate(self.spans):
            if span is None or span.run_id != run_id:
                continue
            self_s[span.name, span.stage] += span.end - span.start - child[idx]
            calls[span.name, span.stage] += 1
        return self_s, calls

    def dump(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w") as fh:
            for span in self.spans:
                if span is not None:
                    fh.write(json.dumps(span.__dict__) + "\n")


RISK = ("risk",)
TRAIN = ("train",)


def _self_time(span: str, stages=STAGES):
    return ("s", "lower", span, lambda v: v.s(span, stages))


def _calls(span: str, stages=STAGES):
    return ("count", "lower", span, lambda v: v.calls(span, stages))


def _count(span: str, key, unit: str = "count"):
    return (unit, "lower", span, lambda v: v.count(key))


# Per-layer metrics: name -> (unit, better, span it comes from, value), where
# value takes a _RunView. A "_s" metric is self time over the pipeline
# stages. Predict-side functions also run in the train stage: their plain
# metrics count the risk stage and a "_train" metric the train stage, so a
# change to risk scoring shows on its own.
LAYER_METRICS: dict[str, tuple] = {
    "synth.generate_scenario_s": _self_time("synth.generate_scenario", (SETUP,)),
    "trajectory.load_dataset_s": _self_time("trajectory.load_dataset"),
    "trajectory.load_dataset_rows": _count("trajectory.load_dataset", "load_rows"),
    "trajectory.save_dataset_s": _self_time("trajectory.save_dataset"),
    "geometry.estimate_crosswalk_endpoints_s": _self_time(
        "geometry.estimate_crosswalk_endpoints"),
    "preprocess.preprocess_dataset_s": _self_time("preprocess.preprocess_dataset"),
    "preprocess.merge_pedestrian_trajectories_s": _self_time(
        "preprocess.merge_pedestrian_trajectories"),
    "preprocess.fragments_in": _count("preprocess.merge_pedestrian_trajectories",
                                      "fragments_in"),
    "preprocess.merges": _count("preprocess.merge_pedestrian_trajectories", "merges"),
    "preprocess.filter_pedestrian_trajectories_s": _self_time(
        "preprocess.filter_pedestrian_trajectories"),
    "maneuver.run_split_protocol_s": _self_time("maneuver.run_split_protocol"),
    "maneuver.train_forest_s": _self_time("maneuver.train_forest"),
    "maneuver.train_forest_calls": _calls("maneuver.train_forest"),
    "maneuver.smote_oversample_s": _self_time("maneuver.smote_oversample"),
    "maneuver.feature_rows": _count("maneuver.run_split_protocol", "feature_rows"),
    "maneuver.save_forest_s": _self_time("maneuver.save_forest"),
    "maneuver.forest_json_bytes": _count("maneuver.save_forest", "forest_json_bytes",
                                         "bytes"),
    "maneuver.load_forest_s": _self_time("maneuver.load_forest"),
    "maneuver.predict_proba_s": _self_time("maneuver.predict_proba", RISK),
    "maneuver.predict_proba_calls": _calls("maneuver.predict_proba", RISK),
    "maneuver.predict_rows_per_call": (
        "rows", "higher", "maneuver.predict_proba",
        lambda v: v.ratio(v.count(("predict_rows", "risk")),
                          v.calls("maneuver.predict_proba", RISK))),
    "maneuver.predict_proba_train_s": _self_time("maneuver.predict_proba", TRAIN),
    "gpr.fit_gpr_s": _self_time("gpr.fit_gpr"),
    "gpr.fit_gpr_calls": _calls("gpr.fit_gpr"),
    "gpr.fit_points": _count("gpr.fit_gpr", "fit_points"),
    "gpr.save_cluster_models_s": _self_time("gpr.save_cluster_models"),
    "gpr.models_json_bytes": _count("gpr.save_cluster_models", "models_json_bytes",
                                    "bytes"),
    "gpr.load_cluster_models_s": _self_time("gpr.load_cluster_models"),
    "gpr.rollout_s": _self_time("gpr.rollout", RISK),
    "gpr.rollout_calls": _calls("gpr.rollout", RISK),
    "gpr.rollout_distinct_starts": (
        "count", "lower", "gpr.rollout",
        lambda v: len(v.count(("rollout_starts", "risk"), set()))),
    "gpr.rollout_useful_ratio": (
        "ratio", "higher", "gpr.rollout",
        lambda v: v.ratio(len(v.count(("rollout_starts", "risk"), set())),
                          v.calls("gpr.rollout", RISK))),
    "gpr.rollout_train_s": _self_time("gpr.rollout", TRAIN),
    "risk.estimate_risk_s": _self_time("risk.estimate_risk"),
    "risk.estimate_risk_calls": _calls("risk.estimate_risk"),
    "risk.find_conflict_point_s": _self_time("risk.find_conflict_point"),
    "risk.find_conflict_point_calls": _calls("risk.find_conflict_point"),
    "risk.predict_pedestrian_s": _self_time("risk.predict_pedestrian"),
    "ssm.identify_conflicts_pet_s": _self_time("ssm.identify_conflicts_pet"),
    "ssm.compute_pet_s": _self_time("ssm.compute_pet"),
    "ssm.compute_pet_calls": _calls("ssm.compute_pet"),
    "ssm.co_present_pairs_s": _self_time("ssm.co_present_pairs"),
    "ssm.pairs": ("count", "lower", "ssm.co_present_pairs",
                  lambda v: v.ratio(v.count(("pairs", "risk")),
                                    v.calls("ssm.co_present_pairs", RISK))),
    "ssm.compute_ttc_s": _self_time("ssm.compute_ttc"),
    "ssm.evaluate_detection_s": _self_time("ssm.evaluate_detection"),
    "evaluation.prediction_error_study_s": _self_time("evaluation.prediction_error_study"),
    "evaluation.compute_risk_streams_s": _self_time("evaluation.compute_risk_streams"),
    "evaluation.pairs_without_stream": (
        "count", "lower", "evaluation.compute_risk_streams",
        lambda v: len(v.count("truth_pairs", set()) - v.count("stream_pairs", set()))),
    "cli.preprocess_self_s": _self_time("cli.cmd_preprocess"),
    "cli.train_self_s": _self_time("cli.cmd_train"),
    "cli.risk_self_s": _self_time("cli.cmd_risk"),
    "cli.preprocess_rss_growth_mb": ("MB", "lower", "cli.cmd_preprocess",
                                     lambda v: v.rss("preprocess")),
    "cli.train_rss_growth_mb": ("MB", "lower", "cli.cmd_train", lambda v: v.rss("train")),
    "cli.risk_rss_growth_mb": ("MB", "lower", "cli.cmd_risk", lambda v: v.rss("risk")),
}


class _RunView:
    """Read access to one run's spans and counters for LAYER_METRICS."""

    def __init__(self, tracer: Tracer, run_id: str, setup_run_id: str) -> None:
        self._self_s, self._calls = tracer.self_times(run_id)
        setup_self, _ = tracer.self_times(setup_run_id)
        for key, value in setup_self.items():
            if key[1] == SETUP:
                self._self_s[key] += value
        self._counts = tracer.counts[run_id]
        self._rss = tracer.rss_growth_mb[run_id]

    def s(self, name: str, stages=STAGES) -> float:
        return sum(self._self_s[name, st] for st in stages)

    def calls(self, name: str, stages=STAGES) -> int:
        return sum(self._calls[name, st] for st in stages)

    def count(self, key, default=0):
        return self._counts.get(key, default)

    def rss(self, stage: str) -> float:
        return self._rss.get(stage, 0.0)

    @staticmethod
    def ratio(num, den) -> float:
        return num / den if den else 0.0


def layer_metrics(tracer: Tracer, run_id: str, setup_run_id: str = SETUP
                  ) -> dict[str, Optional[float]]:
    """Per-layer metric values of one traced run; ``None`` marks a metric
    whose function is absent or whose counter could not read its call."""
    view = _RunView(tracer, run_id, setup_run_id)
    out: dict[str, Optional[float]] = {}
    for name, (_unit, _better, span, value) in LAYER_METRICS.items():
        missing = span in tracer.absent or (
            span in tracer.count_errors and not name.endswith("_s")
            and not name.endswith("_calls"))
        out[name] = None if missing else float(value(view))
    return out
