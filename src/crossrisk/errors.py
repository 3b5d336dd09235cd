"""Exception types, input checks and the JSON file reader shared across the
package."""

import json
import math
import numbers
from pathlib import Path


class CrossriskError(Exception):
    """Base class for errors raised by this package."""


class InputError(CrossriskError):
    """Unusable input: missing files, bad columns, invalid config values."""


class NumericalError(CrossriskError):
    """Numerical failure that survived the usual mitigations (e.g. a kernel
    matrix that stays indefinite after jitter escalation)."""


def is_count(value) -> bool:
    """Whether ``value`` is an integer of at least 1; a bool is not one."""
    return (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and value >= 1)


def check_keys(data: dict, allowed, where: str) -> None:
    """Reject a config section that is not a JSON object or has a key not in
    ``allowed``."""
    if not isinstance(data, dict):
        raise InputError(f"config section {where!r} must be a JSON object, got {data!r}")
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise InputError(f"unknown config key(s) {unknown} in section {where!r}")


def is_finite_number(value) -> bool:
    """Whether ``value`` is a finite real number; a bool is not one."""
    try:
        return not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):
        return False


def check_number(value, key: str, *, positive: bool = False, at_most: float = math.inf) -> None:
    """Reject config value ``value`` of key ``key`` unless it is a finite
    number, > 0 if ``positive`` and >= 0 otherwise, and at most ``at_most``."""
    if is_finite_number(value) and (value > 0 if positive else value >= 0) and value <= at_most:
        return
    rule = (f"in [0, {at_most:g}]" if at_most < math.inf
            else f"finite and {'>' if positive else '>='} 0")
    raise InputError(f"{key} must be {rule}, got {value!r}")


def check_count(value, key: str) -> None:
    """Reject config value ``value`` of key ``key`` unless it is an integer >= 1."""
    if not is_count(value):
        raise InputError(f"{key} must be an integer >= 1, got {value!r}")


def read_json_object(path, kind: str, version=None, command: str = "") -> dict:
    """The JSON object in a ``kind`` file ("config", "forest", ...), whose
    ``"version"`` must be ``version`` if that is given; ``command`` is the
    ``crossrisk`` command that writes such files."""
    path = Path(path)
    if not path.exists():
        raise InputError(f"{kind} file not found: {path}")
    try:
        payload = json.loads(path.read_bytes())
    except ValueError as exc:  # JSONDecodeError, or bytes that are no Unicode text
        raise InputError(f"{kind} file {path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise InputError(f"{kind} file {path} must hold a JSON object")
    if version is not None and payload.get("version") != version:
        raise InputError(
            f"unsupported {kind} file version {payload.get('version')!r} (expected "
            f"{version}); re-run `crossrisk {command}` to regenerate {path}")
    return payload
