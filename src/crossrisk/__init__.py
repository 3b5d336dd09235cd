"""Trajectory-based pedestrian-vehicle conflict risk estimation at intersections."""

__version__ = "0.1.0"

from .trajectory import (  # noqa: F401
    Dataset,
    Direction,
    Maneuver,
    ObjectClass,
    Trajectory,
    load_dataset,
    save_dataset,
)
