"""Row and risk-input builders shared by the tests."""

import numpy as np

from crossrisk.risk import estimate_risk
from crossrisk.trajectory import SUPPORTED_MANEUVERS


def row(t, x, y, vx, vy, yaw_rate=float("nan")):
    """One ``Trajectory.points`` row: (t, x, y, vx, vy, yaw_rate)."""
    return (t, x, y, vx, vy, yaw_rate)


def crossing_risk(arrivals, probs=(0.0, 0.0, 1.0), radius=0.04):
    """``estimate_risk`` on one hand-built frame, 30 steps of 0.1 s.

    The pedestrian walks north at 1 m/s through the origin, which it reaches
    at step 10 (t = 1 s). ``arrivals`` gives, per maneuver in
    ``SUPPORTED_MANEUVERS`` order, the step at which that maneuver's vehicle
    path touches the origin; elsewhere the path stays 100 m away, and
    ``None`` is a path that never touches it.
    """
    paths = {}
    for maneuver, step in zip(SUPPORTED_MANEUVERS, arrivals):
        path = np.column_stack([100.0 + np.arange(31.0), np.full(31, 100.0)])
        if step is not None:
            path[step] = 0.0
        paths[maneuver] = path[None]
    return estimate_risk([0.0], [[100.0, 100.0, 1.0, 0.0]], [[0.0, -1.0, 0.0, 1.0]],
                         [probs], paths, 0.1, radius=radius)
