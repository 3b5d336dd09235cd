"""Run configuration: one JSON file with per-stage sections.

Every pipeline stage reads its settings from here; command-line flags only
override paths and seeds. Each section parses straight into the settings type
of the stage that reads it, whose constructor checks the values. Unknown keys
are rejected by name so typos fail loudly instead of silently falling back to
defaults.
"""

from __future__ import annotations

import functools
import typing
from dataclasses import dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import Optional

from .errors import InputError, check_keys, is_count, read_json_object
from .geometry import GeometrySettings
from .gpr import GprConfig
from .maneuver import ForestConfig
from .preprocess import FilterSettings, MergeCriteria
from .synth import ScenarioSpec
from .trajectory import DataFormat


def _json_type_ok(value, hint) -> bool:
    """Whether a parsed JSON value fits a field annotation; a float field also
    takes an integer, and a tuple field takes a list."""
    if typing.get_origin(hint) is typing.Union:
        return any(_json_type_ok(value, h) for h in typing.get_args(hint))
    if hint is type(None):
        return value is None
    if isinstance(value, bool):  # JSON true/false is a bool, not a number
        return hint is bool
    if hint is float:
        return isinstance(value, (int, float))
    if hint is tuple:
        return isinstance(value, list)
    if hint in (int, str, list, dict):
        return isinstance(value, hint)
    return True


@functools.cache
def _field_types(cls) -> dict:
    return typing.get_type_hints(cls)  # evaluates the annotation strings: cache it


def _section(cls, data: dict, where: str, **fixed):
    """``cls(**data, **fixed)`` for a config section: a JSON object whose keys
    are the fields of ``cls`` not in ``fixed`` and whose values have the
    fields' types. A nested section is parsed the same way, and a list for a
    tuple field is passed as a tuple."""
    check_keys(data, [f.name for f in fields(cls) if f.name not in fixed], where)
    hints = _field_types(cls)
    values = dict(fixed)
    for key, value in data.items():
        hint = hints[key]
        if is_dataclass(hint):
            values[key] = _section(hint, value, f"{where}.{key}")
        elif _json_type_ok(value, hint):
            values[key] = tuple(value) if hint is tuple else value
        else:
            expected = hint.__name__ if isinstance(hint, type) else hint
            expected = "list" if hint is tuple else expected
            raise InputError(f"config key {where}.{key} must be {expected}, got {value!r}")
    return cls(**values)


@dataclass
class PreprocessConfig:
    cell_size: float = 0.5
    merge: MergeCriteria = field(default_factory=MergeCriteria)
    filter: FilterSettings = field(default_factory=FilterSettings)
    geometry: GeometrySettings = field(default_factory=GeometrySettings)


@dataclass
class TrainConfig:
    starting_points: list = field(default_factory=lambda: [10, 15, 20])
    horizons: list = field(default_factory=lambda: [10, 15, 20])
    rollout_steps: int = 30

    def __post_init__(self) -> None:
        for name in ("starting_points", "horizons"):
            if not all(map(is_count, getattr(self, name))):
                raise InputError(f"train.{name} must be positive integers, got "
                                 f"{getattr(self, name)!r}")
        if self.rollout_steps < 1:
            raise InputError("train.rollout_steps must be at least 1")


@dataclass
class RiskConfig:
    conflict_radius: float = 1.0
    horizon_steps: int = 30
    rollout_mode: str = "mean"
    sample_seed: int = 0
    frame_stride: int = 1

    def __post_init__(self) -> None:
        if self.rollout_mode not in ("mean", "sample"):
            raise InputError(f"unknown rollout mode: {self.rollout_mode!r}")
        if self.frame_stride < 1:
            raise InputError("frame_stride must be >= 1")
        if self.sample_seed < 0:
            raise InputError("risk.sample_seed must be nonnegative")


@dataclass
class SsmConfig:
    pet_threshold: float = 3.0
    zone_radius: float = 1.0
    ttc_radius: float = 1.0


@dataclass
class RunConfig:
    data: DataFormat = field(default_factory=DataFormat)
    preprocess: PreprocessConfig = field(default_factory=PreprocessConfig)
    gpr: GprConfig = field(default_factory=GprConfig)
    forest: ForestConfig = field(default_factory=ForestConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    risk: RiskConfig = field(default_factory=RiskConfig)
    ssm: SsmConfig = field(default_factory=SsmConfig)
    synth: ScenarioSpec = field(default_factory=ScenarioSpec)

    @staticmethod
    def from_dict(data: dict) -> "RunConfig":
        check_keys(data, [f.name for f in fields(RunConfig)], "<root>")
        data_format = _section(DataFormat, data.get("data", {}), "data")
        sections = {name: _section(cls, data.get(name, {}), name)
                    for name, cls in _field_types(RunConfig).items()
                    if name not in ("data", "synth")}
        synth = _section(ScenarioSpec, data.get("synth", {}), "synth",
                         frame_interval=data_format.frame_interval)
        return RunConfig(data=data_format, synth=synth, **sections)

    def with_seed(self, seed: int) -> "RunConfig":
        """This config with every stage's seed set to ``seed`` (the ``--seed``
        flag), checked like a seed read from the file."""
        return replace(self, gpr=replace(self.gpr, seed=seed),
                       forest=replace(self.forest, seed=seed),
                       risk=replace(self.risk, sample_seed=seed),
                       synth=replace(self.synth, seed=seed))


def load_config(path: Optional[str | Path]) -> RunConfig:
    """Parse the JSON run configuration; ``None`` yields all defaults."""
    return RunConfig() if path is None else RunConfig.from_dict(read_json_object(path, "config"))
