"""Row, risk-input and trained-model builders shared by the tests."""

import base64

import numpy as np

from crossrisk.gpr import cluster_fit_jobs
from crossrisk.maneuver import split_jobs
from crossrisk.parallel import _openblas_thread_setters, run_jobs
from crossrisk.risk import estimate_risk
from crossrisk.trajectory import DIRECTION_CODES, SUPPORTED_MANEUVERS


def row(t, x, y, vx, vy, yaw_rate=float("nan")):
    """One ``Trajectory.points`` row: (t, x, y, vx, vy, yaw_rate)."""
    return (t, x, y, vx, vy, yaw_rate)


def frame_features(traj, rows, direction):
    """Feature rows of the frames ``rows`` of ``traj``, built per trajectory
    from its cached ``Trajectory.speed``: (x, y, speed, yaw rate, direction
    code)."""
    code = np.full(len(rows), float(DIRECTION_CODES[direction]))
    return np.column_stack([traj.xy[rows], traj.speed[rows], traj.yaw_rate[rows], code])


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


def blas_threads(_=None):
    """The calling thread's OpenBLAS thread count in each loaded library."""
    setters = _openblas_thread_setters()
    counts = [setter(1) for setter in setters]
    for setter, n in zip(setters, counts):
        setter(n)
    return counts


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


def edit_packed(cluster, edit):
    """Edit the packed arrays of one cluster entry of a ``gpr_models.json``
    payload in place: decode them from base64 little-endian float64 into a
    dict of writable arrays keyed ``train_x`` (as ``(n, 2)`` rows),
    ``gp_x.train_y``, ``gp_x.alpha_vec``, ``gp_y.train_y`` and
    ``gp_y.alpha_vec``; let ``edit`` change or replace them; encode every
    array back."""
    fields = {"train_x": (cluster, "train_x")}
    fields.update({f"{gp}.{name}": (cluster[gp], name)
                   for gp in ("gp_x", "gp_y") for name in ("train_y", "alpha_vec")})
    arrays = {key: np.frombuffer(base64.b64decode(owner[name]), dtype="<f8").copy()
              for key, (owner, name) in fields.items()}
    arrays["train_x"] = arrays["train_x"].reshape(-1, 2)
    edit(arrays)
    for key, (owner, name) in fields.items():
        owner[name] = base64.b64encode(np.asarray(arrays[key], dtype="<f8").tobytes()).decode()
