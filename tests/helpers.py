"""Row, risk-input and trained-model builders shared by the tests."""

import numpy as np

from crossrisk.gpr import cluster_fit_jobs
from crossrisk.maneuver import split_jobs
from crossrisk.parallel import run_jobs
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


def fit_clusters(dataset, cfg):
    """The cluster model pairs as the train stage fits them: every
    ``cluster_fit_jobs`` job through ``run_jobs``."""
    jobs = cluster_fit_jobs(dataset, cfg)
    return dict(zip(jobs, run_jobs(jobs.values())))


def run_protocol(X, y, cfg):
    """The train stage's split protocol on a table without trajectories, every
    row its own group: the ``(n_splits, 3, N_CLASSES)`` score stack and the
    grid point each split chose."""
    scores, chosen = zip(*run_jobs(split_jobs(X, y, cfg, np.arange(len(y)))))
    return np.stack(scores), list(chosen)
