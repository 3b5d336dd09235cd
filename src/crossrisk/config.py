"""Run configuration: one JSON file with per-stage sections.

Every pipeline stage reads its settings from here; command-line flags only
override paths and seeds. Each section parses straight into the settings type
of the stage that reads it, defined in that stage's module, whose constructor
checks the values. Unknown keys are rejected by name so typos fail loudly
instead of silently falling back to defaults.
"""

from __future__ import annotations

import functools
import typing
from dataclasses import dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import Optional

from .errors import InputError, check_keys, read_json_object
from .evaluation import RiskConfig, TrainConfig
from .gpr import GprConfig
from .maneuver import ForestConfig
from .preprocess import PreprocessConfig
from .ssm import SsmConfig
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
