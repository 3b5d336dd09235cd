"""Pipeline-level studies: trajectory-prediction accuracy of the learned
velocity field against the constant-acceleration baseline, and per-pair risk
streams over a whole scene."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

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
from .trajectory import Dataset, Direction, Maneuver, SUPPORTED_MANEUVERS, Trajectory


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


def _window_is_valid(traj: Trajectory, start_index: int, steps: int) -> bool:
    if start_index < 1 or start_index + steps >= len(traj):
        return False
    return bool(traj.valid[start_index - 1 : start_index + steps + 1].all())


def _pooled_rows(dataset: Dataset, models: dict, start_point: int, steps: int,
                 group_value: int) -> list:
    """One row per maneuver, pooling per-step distances across vehicles.

    Each vehicle predicts ``steps`` frames from 1-based ``start_point``; the
    vehicles of one cluster are rolled out in a single batch.
    """
    rows = []
    dt = dataset.frame_interval
    idx = start_point - 1
    cfg = RolloutConfig(steps=steps, dt=dt)
    for maneuver in SUPPORTED_MANEUVERS:
        vehicles = [
            traj for traj in dataset.vehicles
            if traj.maneuver == maneuver and traj.entering_direction is not None
            and (traj.entering_direction, maneuver) in models
            and _window_is_valid(traj, idx, steps)
        ]
        if not vehicles:
            continue
        predicted = {}
        for direction in Direction:
            batch = [traj for traj in vehicles if traj.entering_direction == direction]
            if batch:
                starts = np.array([traj.xy[idx] for traj in batch])
                _, paths = rollout(models[(direction, maneuver)], starts, cfg)
                predicted.update(zip((traj.id for traj in batch), paths))
        gpr_all, dyn_all = [], []
        for traj in vehicles:
            actual = traj.xy[idx + 1 : idx + 1 + steps]
            gpr_all.append(trajectory_error(predicted[traj.id], actual).distances)
            baseline = dynamic_model_predict(state_from_trajectory(traj, idx), dt, steps)
            dyn_all.append(trajectory_error(baseline, actual).distances)
        g = np.concatenate(gpr_all)
        d = np.concatenate(dyn_all)
        rows.append(ErrorRow(group=group_value, maneuver=maneuver,
                             gpr_mean=float(np.mean(g)), gpr_std=float(np.std(g)),
                             dynamic_mean=float(np.mean(d)),
                             dynamic_std=float(np.std(d)),
                             n_vehicles=len(vehicles), n_points=int(g.size)))
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

    The first table varies the starting point at a fixed rollout length; the
    second varies the prediction horizon from a fixed starting point.
    """
    start_rows, horizon_rows = [], []
    for sp in starting_points:
        start_rows.extend(_pooled_rows(dataset, models, sp, rollout_steps, sp))
    for h in horizons:
        horizon_rows.extend(_pooled_rows(dataset, models, horizon_start_point, h, h))
    return start_rows, horizon_rows


# ---------------------------------------------------------------------------
# Scene-wide risk streams
# ---------------------------------------------------------------------------


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
    side is computed once per vehicle: one forest call over every frame some
    co-present pedestrian shares, and one batched rollout per maneuver over
    those frames' positions. Each pedestrian is then scored in one
    :func:`estimate_risk` call over the frames it shares with the vehicle.
    In sample mode each (vehicle, maneuver) rollout draws its own noise
    stream, seeded by the rollout seed, the vehicle's ordinal in
    ``dataset.vehicles`` and the maneuver code.
    """
    ped_index = {}
    for ped in dataset.pedestrians:
        rows = np.flatnonzero(ped.valid).tolist()
        ped_index[ped.id] = {round(t, 6): i for i, t in zip(rows, ped.t[rows].tolist())}
    ordinal = {veh.id: i for i, veh in enumerate(dataset.vehicles)}
    peds_of: dict = {}
    for veh, ped in co_present_pairs(dataset):
        peds_of.setdefault(veh.id, (veh, []))[1].append(ped)

    streams: dict = {}
    for veh, peds in peds_of.values():
        direction = veh.entering_direction
        if direction is None:
            continue
        pairs = {m: models[(direction, m)] for m in SUPPORTED_MANEUVERS
                 if (direction, m) in models}
        if not pairs:
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
        probs = probs / probs.sum(axis=1, keepdims=True)
        starts = veh.xy[frames]
        paths = {}
        for m, pair in pairs.items():
            cfg = replace(rollout_cfg,
                          seed=(rollout_cfg.seed, ordinal[veh.id], MANEUVER_CODES[m]))
            paths[m] = np.concatenate([starts[:, None, :], rollout(pair, starts, cfg)[1]],
                                      axis=1)
        veh_rows = veh.points[frames]
        for ped, lookup in zip(peds, lookups):
            shared = [(row, lookup[keys[vi]]) for row, vi in enumerate(frames)
                      if keys[vi] in lookup]
            if not shared:
                continue
            at, ped_rows = np.array(shared).T
            streams[(veh.id, ped.id)] = estimate_risk(
                veh_rows[at, 0], veh_rows[at, 1:5], ped.points[ped_rows, 1:5], probs[at],
                {m: path[at] for m, path in paths.items()}, rollout_cfg,
                radius=conflict_radius, ttc_radius=ttc_radius,
            )
    return streams
