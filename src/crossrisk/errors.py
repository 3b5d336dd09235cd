"""Exception types and input checks shared across the package."""

import numbers


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
