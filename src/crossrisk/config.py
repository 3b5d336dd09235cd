"""Run configuration: one JSON file with per-stage sections.

Every pipeline stage reads its settings from here; command-line flags only
override paths and seeds. Unknown keys are rejected by name so typos fail
loudly instead of silently falling back to defaults.
"""

from __future__ import annotations

import functools
import json
import math
import typing
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Optional

from .errors import InputError
from .preprocess import FilterSettings, MergeCriteria
from .trajectory import CANONICAL_COLUMNS, ColumnSchema


def _check_keys(data: dict, allowed, where: str) -> None:
    if not isinstance(data, dict):
        raise InputError(f"config section {where!r} must be a JSON object, got {data!r}")
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise InputError(f"unknown config key(s) {unknown} in section {where!r}")


def _json_type_ok(value, hint) -> bool:
    """Whether a parsed JSON value fits a field annotation; a float field also
    takes an integer, and other annotations (nested sections) are checked by
    their own ``from_dict``."""
    if typing.get_origin(hint) is typing.Union:
        return any(_json_type_ok(value, h) for h in typing.get_args(hint))
    if hint is type(None):
        return value is None
    if isinstance(value, bool):  # JSON true/false is a bool, not a number
        return hint is bool
    if hint is float:
        return isinstance(value, (int, float))
    if hint in (int, str, list, dict):
        return isinstance(value, hint)
    return True


@functools.cache
def _field_types(cls) -> dict:
    return typing.get_type_hints(cls)  # evaluates the annotation strings: cache it


def _section(cls, data: dict, where: str):
    """``cls(**data)`` for a config section: a JSON object whose keys are
    fields of ``cls`` and whose values have the fields' types."""
    _check_keys(data, [f.name for f in fields(cls)], where)
    hints = _field_types(cls)
    for key, value in data.items():
        if not _json_type_ok(value, hints[key]):
            expected = hints[key].__name__ if isinstance(hints[key], type) else hints[key]
            raise InputError(f"config key {where}.{key} must be {expected}, got {value!r}")
    return cls(**data)


@dataclass
class DataConfig:
    schema: dict = field(default_factory=lambda: {c: c for c in CANONICAL_COLUMNS})
    yaw_rate_unit: str = "rad_s"
    frame_interval: float = 0.1

    @staticmethod
    def from_dict(data: dict) -> "DataConfig":
        cfg = _section(DataConfig, data, "data")
        cfg.column_schema()  # validate eagerly
        return cfg

    def column_schema(self) -> ColumnSchema:
        _check_keys(self.schema, CANONICAL_COLUMNS, "data.schema")
        columns = {c: c for c in CANONICAL_COLUMNS}
        columns.update(self.schema)
        return ColumnSchema(columns=columns, yaw_rate_unit=self.yaw_rate_unit)


@dataclass
class GeometryConfig:
    mode: str = "estimate"  # "estimate" | "explicit"
    search_regions: Optional[dict] = None  # defaults to the canonical layout
    endpoints: Optional[dict] = None  # required for explicit mode
    crosswalk_inflation: float = 2.0
    roadway_polygon: Optional[list] = None
    crosswalk_polygons: Optional[dict] = None

    @staticmethod
    def from_dict(data: dict) -> "GeometryConfig":
        cfg = _section(GeometryConfig, data, "preprocess.geometry")
        if cfg.mode not in ("estimate", "explicit"):
            raise InputError(f"unknown geometry mode: {cfg.mode!r}")
        if cfg.mode == "explicit" and not cfg.endpoints:
            raise InputError("explicit geometry mode requires endpoints")
        return cfg


@dataclass
class PreprocessConfig:
    cell_size: float = 0.5
    merge: MergeCriteria = field(default_factory=MergeCriteria)
    filter: FilterSettings = field(default_factory=FilterSettings)
    geometry: GeometryConfig = field(default_factory=GeometryConfig)

    @staticmethod
    def from_dict(data: dict) -> "PreprocessConfig":
        _check_keys(data, [f.name for f in fields(PreprocessConfig)], "preprocess")
        return _section(PreprocessConfig, {
            **data,
            "merge": _section(MergeCriteria, data.get("merge", {}), "preprocess.merge"),
            "filter": _section(FilterSettings, data.get("filter", {}), "preprocess.filter"),
            "geometry": GeometryConfig.from_dict(data.get("geometry", {})),
        }, "preprocess")


@dataclass
class GprConfig:
    kernel: str = "rq"
    learning_rate: float = 0.1
    iterations: int = 200
    max_points: int = 2000
    jitter: float = 1e-6
    init_noise: float = 0.1
    seed: int = 0

    @staticmethod
    def from_dict(data: dict) -> "GprConfig":
        cfg = _section(GprConfig, data, "gpr")
        if cfg.kernel not in ("rbf", "rq"):
            raise InputError(f"unknown kernel: {cfg.kernel!r}")
        if cfg.iterations < 1:
            raise InputError("gpr.iterations must be at least 1")
        if not (math.isfinite(cfg.jitter) and cfg.jitter >= 0):
            raise InputError("gpr.jitter must be nonnegative and finite")
        return cfg


@dataclass
class ForestConfig:
    n_trees_grid: list = field(default_factory=lambda: [100, 300])
    max_depth_grid: list = field(default_factory=lambda: [None, 10, 20])
    smote_k: int = 5
    n_splits: int = 10
    seed: int = 0

    @staticmethod
    def from_dict(data: dict) -> "ForestConfig":
        cfg = _section(ForestConfig, data, "forest")
        if not cfg.n_trees_grid or not cfg.max_depth_grid:
            raise InputError("forest.n_trees_grid and forest.max_depth_grid must not be empty")
        if cfg.n_splits < 1:
            raise InputError("forest.n_splits must be at least 1")
        return cfg


@dataclass
class TrainConfig:
    starting_points: list = field(default_factory=lambda: [10, 15, 20])
    horizons: list = field(default_factory=lambda: [10, 15, 20])
    rollout_steps: int = 30

    @staticmethod
    def from_dict(data: dict) -> "TrainConfig":
        return _section(TrainConfig, data, "train")


@dataclass
class RiskConfig:
    conflict_radius: float = 1.0
    horizon_steps: int = 30
    rollout_mode: str = "mean"
    sample_seed: int = 0
    frame_stride: int = 1

    @staticmethod
    def from_dict(data: dict) -> "RiskConfig":
        cfg = _section(RiskConfig, data, "risk")
        if cfg.rollout_mode not in ("mean", "sample"):
            raise InputError(f"unknown rollout mode: {cfg.rollout_mode!r}")
        if cfg.frame_stride < 1:
            raise InputError("frame_stride must be >= 1")
        return cfg


@dataclass
class SsmConfig:
    pet_threshold: float = 3.0
    zone_radius: float = 1.0
    ttc_radius: float = 1.0

    @staticmethod
    def from_dict(data: dict) -> "SsmConfig":
        return _section(SsmConfig, data, "ssm")


@dataclass
class SynthConfig:
    seed: int = 0
    n_vehicles_per_cell: int = 4
    n_pedestrians_per_crosswalk: int = 2
    n_engineered_conflicts: int = 0
    requested_pet_range: list = field(default_factory=lambda: [0.8, 2.5])
    n_fast_pedestrians: int = 0
    noise_std_position: float = 0.1
    noise_std_velocity: float = 0.1
    cruise_speed: float = 11.0
    turn_speed: float = 6.0
    pedestrian_speed: float = 1.4
    pet_zone_radius: float = 1.0
    min_separation: float = 5.5

    @staticmethod
    def from_dict(data: dict) -> "SynthConfig":
        return _section(SynthConfig, data, "synth")


@dataclass
class RunConfig:
    data: DataConfig = field(default_factory=DataConfig)
    preprocess: PreprocessConfig = field(default_factory=PreprocessConfig)
    gpr: GprConfig = field(default_factory=GprConfig)
    forest: ForestConfig = field(default_factory=ForestConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    risk: RiskConfig = field(default_factory=RiskConfig)
    ssm: SsmConfig = field(default_factory=SsmConfig)
    synth: SynthConfig = field(default_factory=SynthConfig)

    @staticmethod
    def from_dict(data: dict) -> "RunConfig":
        _check_keys(data, ("data", "preprocess", "gpr", "forest", "train",
                           "risk", "ssm", "synth"), "<root>")
        return RunConfig(
            data=DataConfig.from_dict(data.get("data", {})),
            preprocess=PreprocessConfig.from_dict(data.get("preprocess", {})),
            gpr=GprConfig.from_dict(data.get("gpr", {})),
            forest=ForestConfig.from_dict(data.get("forest", {})),
            train=TrainConfig.from_dict(data.get("train", {})),
            risk=RiskConfig.from_dict(data.get("risk", {})),
            ssm=SsmConfig.from_dict(data.get("ssm", {})),
            synth=SynthConfig.from_dict(data.get("synth", {})),
        )


def load_config(path: Optional[str | Path]) -> RunConfig:
    """Parse the JSON run configuration; ``None`` yields all defaults."""
    if path is None:
        return RunConfig()
    path = Path(path)
    if not path.exists():
        raise InputError(f"config file not found: {path}")
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise InputError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError(f"config file {path} must hold a JSON object")
    return RunConfig.from_dict(data)
