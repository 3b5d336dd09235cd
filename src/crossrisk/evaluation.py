"""Pipeline-level studies: trajectory-prediction accuracy of the learned
velocity field against the constant-acceleration baseline, and per-pair risk
streams over a whole scene."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .gpr import RolloutConfig, rollout
from .maneuver import MANEUVER_CODES, ForestModel, extract_features
from .risk import (
    dynamic_model_predict,
    estimate_risk,
    state_from_trajectory,
    trajectory_error,
)
from .ssm import co_present_pairs
from .trajectory import Dataset, Maneuver, SUPPORTED_MANEUVERS, Trajectory


@dataclass
class ErrorRow:
    """Pooled prediction-error summary for one table cell."""

    group: int  # starting point or horizon, in frames
    maneuver: Maneuver
    gpr_mean: float
    gpr_std: float
    dynamic_mean: float
    dynamic_std: float
    n_vehicles: int
    n_points: int


#: Largest difference (s) between a frame gap and the frame interval that
#: still counts as one frame apart: the precision the risk stage matches at.
_FRAME_TOLERANCE = 1e-6


def _window_is_valid(traj: Trajectory, start_index: int, steps: int, dt: float) -> bool:
    """Whether rows ``start_index - 1`` to ``start_index + steps`` are all
    valid and consecutive frames, each ``dt`` after the one before."""
    if start_index < 1 or start_index + steps >= len(traj):
        return False
    rows = slice(start_index - 1, start_index + steps + 1)
    return bool(traj.valid[rows].all()
                and np.all(np.abs(np.diff(traj.t[rows]) - dt) <= _FRAME_TOLERANCE))


def _pooled_rows(vehicles: list, predicted: dict, idx: int, steps: int, dt: float,
                 group_value: int) -> list:
    """One row per maneuver, pooling per-step distances across ``vehicles``,
    each of which predicts ``steps`` frames from 0-based index ``idx``; the
    predicted paths are read from ``predicted[(vehicle id, idx)]``."""
    rows = []
    for maneuver in SUPPORTED_MANEUVERS:
        cell = [traj for traj in vehicles if traj.maneuver == maneuver]
        if not cell:
            continue
        gpr_all, dyn_all = [], []
        for traj in cell:
            actual = traj.xy[idx + 1 : idx + 1 + steps]
            gpr_all.append(trajectory_error(predicted[(traj.id, idx)][:steps], actual).distances)
            baseline = dynamic_model_predict(state_from_trajectory(traj, idx), dt, steps)
            dyn_all.append(trajectory_error(baseline, actual).distances)
        g = np.concatenate(gpr_all)
        d = np.concatenate(dyn_all)
        rows.append(ErrorRow(group=group_value, maneuver=maneuver,
                             gpr_mean=float(np.mean(g)), gpr_std=float(np.std(g)),
                             dynamic_mean=float(np.mean(d)),
                             dynamic_std=float(np.std(d)),
                             n_vehicles=len(cell), n_points=int(g.size)))
    return rows


def prediction_error_study(
    dataset: Dataset,
    models: dict,
    starting_points: Sequence[int] = (10, 15, 20),
    horizons: Sequence[int] = (10, 15, 20),
    rollout_steps: int = 30,
    horizon_start_point: int = 10,
) -> tuple[list, list]:
    """Pooled distance statistics for the two prediction-accuracy tables.

    The first table varies the 1-based starting point at a fixed rollout
    length; the second varies the prediction horizon from a fixed starting
    point. A vehicle takes part in a cell when its cluster has a model and
    its window's frames are valid and one frame interval apart. Every
    distinct (vehicle, start index) of every cell is rolled out once, in one
    batch per cluster, over the longest window; each cell reads its window's
    prefix.
    """
    tables = ([(sp, sp - 1, rollout_steps) for sp in starting_points],
              [(h, horizon_start_point - 1, h) for h in horizons])
    modelled = [traj for traj in dataset.vehicles
                if traj.maneuver in SUPPORTED_MANEUVERS
                and (traj.entering_direction, traj.maneuver) in models]
    dt = dataset.frame_interval
    windows = {(idx, steps): [traj for traj in modelled
                              if _window_is_valid(traj, idx, steps, dt)]
               for table in tables for _, idx, steps in table}
    starts: dict = {}  # cluster -> {(vehicle id, start index): start position}
    for (idx, _), vehicles in windows.items():
        for traj in vehicles:
            starts.setdefault((traj.entering_direction, traj.maneuver), {})[
                (traj.id, idx)] = traj.xy[idx]
    cfg = RolloutConfig(steps=max([rollout_steps, *horizons]), dt=dt)
    predicted = {}
    for cluster, batch in starts.items():
        _, paths = rollout(models[cluster], np.array(list(batch.values())), cfg)
        predicted.update(zip(batch, paths))
    return tuple(
        [row for group, idx, steps in table
         for row in _pooled_rows(windows[(idx, steps)], predicted, idx, steps, dt, group)]
        for table in tables
    )


# ---------------------------------------------------------------------------
# Scene-wide risk streams
# ---------------------------------------------------------------------------


class _Plan(NamedTuple):
    """One vehicle's scored frames, planned before the cluster rollouts."""

    vehicle: Trajectory
    pedestrians: list  # the co-present pedestrians
    lookups: list  # per pedestrian: rounded time -> valid row
    frames: list  # scored vehicle rows
    keys: list  # their rounded times
    probs: np.ndarray  # (frames, 3) normalized maneuver probabilities
    paths: dict  # maneuver -> (frames, steps + 1, 2) predicted paths


def compute_risk_streams(
    dataset: Dataset,
    models: dict,
    forest: ForestModel,
    rollout_cfg: RolloutConfig,
    conflict_radius: float = 1.0,
    ttc_radius: float = 1.0,
    frame_stride: int = 1,
) -> dict:
    """Risk stream of every co-present vehicle-pedestrian pair, keyed by
    ``(vehicle id, pedestrian id)``.

    Frames are matched on identical timestamps (the shared frame grid).
    Pairs whose vehicle lacks every cluster model are skipped. The vehicle
    side is computed once per vehicle frame. First each vehicle's scored
    frames are planned, those some co-present pedestrian shares, with one
    forest call over them. Then each cluster model rolls out the planned
    frames of every vehicle entering from its direction in one batch, and
    each vehicle takes its own rows. Each pedestrian is then scored in one
    :func:`estimate_risk` call over the frames it shares with the vehicle.
    In sample mode each (vehicle, maneuver) keeps its own noise stream,
    seeded by the rollout seed, the vehicle's ordinal in ``dataset.vehicles``
    and the maneuver code, whatever else is in the batch.
    """
    ped_index = {}
    for ped in dataset.pedestrians:
        rows = np.flatnonzero(ped.valid).tolist()
        ped_index[ped.id] = {round(t, 6): i for i, t in zip(rows, ped.t[rows].tolist())}
    ordinal = {veh.id: i for i, veh in enumerate(dataset.vehicles)}
    peds_of: dict = {}
    for veh, ped in co_present_pairs(dataset):
        peds_of.setdefault(veh.id, (veh, []))[1].append(ped)

    plans = []
    for veh, peds in peds_of.values():
        direction = veh.entering_direction
        if not any((direction, m) in models for m in SUPPORTED_MANEUVERS):
            continue
        lookups = [ped_index[ped.id] for ped in peds]
        keys = [round(t, 6) for t in veh.t.tolist()]
        usable = (veh.valid & np.isfinite(veh.yaw_rate)).tolist()
        frames = [
            vi for vi in range(0, len(veh), frame_stride)
            if usable[vi] and any(keys[vi] in lookup for lookup in lookups)
        ]
        if not frames:
            continue
        probs = forest.predict_proba(extract_features(veh, frames, direction))
        plans.append(_Plan(veh, peds, lookups, frames, [keys[vi] for vi in frames],
                           probs / probs.sum(axis=1, keepdims=True), {}))

    for (direction, m), pair in models.items():
        batch = [plan for plan in plans if plan.vehicle.entering_direction == direction]
        if m not in SUPPORTED_MANEUVERS or not batch:
            continue
        starts = np.concatenate([plan.vehicle.xy[plan.frames] for plan in batch])
        noise = [((rollout_cfg.seed, ordinal[plan.vehicle.id], MANEUVER_CODES[m]),
                  len(plan.frames)) for plan in batch]
        _, ahead = rollout(pair, starts, rollout_cfg, noise)
        cluster_paths = np.concatenate([starts[:, None, :], ahead], axis=1)
        lo = 0
        for plan in batch:
            plan.paths[m] = cluster_paths[lo:lo + len(plan.frames)]
            lo += len(plan.frames)

    streams: dict = {}
    for veh, peds, lookups, frames, keys, probs, paths in plans:
        veh_rows = veh.points[frames]
        for ped, lookup in zip(peds, lookups):
            shared = [(row, lookup[key]) for row, key in enumerate(keys) if key in lookup]
            if not shared:
                continue
            at, ped_rows = np.array(shared).T
            streams[(veh.id, ped.id)] = estimate_risk(
                veh_rows[at, 0], veh_rows[at, 1:5], ped.points[ped_rows, 1:5], probs[at],
                {m: path[at] for m, path in paths.items()}, rollout_cfg,
                radius=conflict_radius, ttc_radius=ttc_radius,
            )
    return streams
