"""Pipeline-level studies: trajectory-prediction accuracy of the learned
velocity field against the constant-acceleration baseline, and per-pair risk
streams over a whole scene. The ``train`` and ``risk`` config sections parse
into :class:`TrainConfig` and :class:`RiskConfig`, which the two studies take
whole."""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Optional, Sequence

import numpy as np

from .errors import InputError, check_count, check_number, is_count
from .gpr import rollout
from .maneuver import MANEUVER_CODES, ForestModel, extract_features
from .risk import RiskStream, estimate_risk
from .ssm import co_present_pairs
from .trajectory import Dataset, Maneuver, SUPPORTED_MANEUVERS, Trajectory


@dataclass
class TrainConfig:
    """The ``train`` config section: the 1-based starting points of the
    by-start table, rolled out ``rollout_steps`` frames, and the horizons
    (frames) of the by-horizon table."""

    starting_points: list = field(default_factory=lambda: [10, 15, 20])
    horizons: list = field(default_factory=lambda: [10, 15, 20])
    rollout_steps: int = 30

    def __post_init__(self) -> None:
        for name in ("starting_points", "horizons"):
            if not all(map(is_count, getattr(self, name))):
                raise InputError(f"train.{name} must be positive integers, got "
                                 f"{getattr(self, name)!r}")
        check_count(self.rollout_steps, "train.rollout_steps")


@dataclass
class RiskConfig:
    """The ``risk`` config section: the conflict radius (m), the rollout's
    horizon (frames), mode and sample-mode seed, and the stride (frames)
    between scored vehicle frames."""

    conflict_radius: float = 1.0
    horizon_steps: int = 30
    rollout_mode: str = "mean"
    sample_seed: int = 0
    frame_stride: int = 1

    def __post_init__(self) -> None:
        if self.rollout_mode not in ("mean", "sample"):
            raise InputError(f"unknown rollout mode: {self.rollout_mode!r}")
        if self.sample_seed < 0:
            raise InputError("risk.sample_seed must be nonnegative")
        check_number(self.conflict_radius, "risk.conflict_radius", positive=True)
        check_count(self.horizon_steps, "risk.horizon_steps")
        check_count(self.frame_stride, "risk.frame_stride")


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

#: The 1-based starting point of every window of the by-horizon table.
_HORIZON_START_POINT = 10


def _window_is_valid(traj: Trajectory, start_index: int, steps: int, dt: float) -> bool:
    """Whether rows ``start_index - 1`` to ``start_index + steps`` are all
    valid and consecutive frames, each ``dt`` after the one before."""
    if start_index < 1 or start_index + steps >= len(traj):
        return False
    rows = slice(start_index - 1, start_index + steps + 1)
    return bool(traj.valid[rows].all()
                and np.all(np.abs(np.diff(traj.t[rows]) - dt) <= _FRAME_TOLERANCE))


def _constant_acceleration_paths(before: np.ndarray, start: np.ndarray, dt: float,
                                 steps: int) -> np.ndarray:
    """The kinematic baseline: ``x0 + v0 t + a t^2 / 2`` at ``t = dt, 2 dt, ...,
    steps dt`` from each of the ``(V, 6)`` trajectory rows ``start``, with the
    acceleration ``a`` the backward difference of velocity over the rows
    ``before`` them. Returns the ``(V, steps, 2)`` positions."""
    t = np.arange(1, steps + 1, dtype=float)[:, None] * dt
    a = (start[:, 3:5] - before[:, 3:5]) / (start[:, :1] - before[:, :1])
    return start[:, None, 1:3] + start[:, None, 3:5] * t + 0.5 * a[:, None] * t * t


def _pooled_rows(vehicles: list, predicted: dict, idx: int, steps: int, dt: float,
                 group_value: int) -> list:
    """One row per maneuver, pooling per-step distances across ``vehicles``,
    each of which predicts ``steps`` frames from 0-based index ``idx`` (a
    valid window); the predicted paths are read from
    ``predicted[(vehicle id, idx)]``."""
    rows = []
    for maneuver in SUPPORTED_MANEUVERS:
        cell = [traj for traj in vehicles if traj.maneuver == maneuver]
        if not cell:
            continue
        window = np.array([traj.points[idx - 1 : idx + 1 + steps] for traj in cell])
        actual = window[:, 2:, 1:3]
        rolled = np.array([predicted[(traj.id, idx)][:steps] for traj in cell])
        baseline = _constant_acceleration_paths(window[:, 0], window[:, 1], dt, steps)
        g = np.linalg.norm(rolled - actual, axis=2)
        d = np.linalg.norm(baseline - actual, axis=2)
        rows.append(ErrorRow(group=group_value, maneuver=maneuver,
                             gpr_mean=float(np.mean(g)), gpr_std=float(np.std(g)),
                             dynamic_mean=float(np.mean(d)),
                             dynamic_std=float(np.std(d)),
                             n_vehicles=len(cell), n_points=int(g.size)))
    return rows


def prediction_error_study(dataset: Dataset, models: dict, cfg: TrainConfig
                           ) -> tuple[list, list]:
    """Pooled distance statistics for the two prediction-accuracy tables.

    The first table varies the 1-based starting point at a fixed rollout
    length; the second varies the prediction horizon from starting point
    ``_HORIZON_START_POINT``. A vehicle takes part in a cell when its cluster
    has a model and its window's frames, and the frame before them, are valid
    and one frame interval apart. Every distinct (vehicle, start index) of
    every cell is rolled out once, in one batch per cluster, over the longest
    window; each cell reads its window's prefix.
    """
    tables = ([(sp, sp - 1, cfg.rollout_steps) for sp in cfg.starting_points],
              [(h, _HORIZON_START_POINT - 1, h) for h in cfg.horizons])
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
    steps = max([cfg.rollout_steps, *cfg.horizons])
    predicted = {}
    for cluster, batch in starts.items():
        paths = rollout(models[cluster], np.array(list(batch.values())), steps, dt)
        predicted.update(zip(batch, paths))
    return tuple(
        [row for group, idx, steps in table
         for row in _pooled_rows(windows[(idx, steps)], predicted, idx, steps, dt, group)]
        for table in tables
    )


# ---------------------------------------------------------------------------
# Scene-wide risk streams
# ---------------------------------------------------------------------------


def _frame_codes(trajs: list) -> list:
    """The integer frame code of every row of ``trajs``, one array per
    trajectory. Two rows share a code exactly when their ``round(t, 6)`` keys
    are equal, and codes rise with the key; ``round`` runs once per distinct
    timestamp."""
    distinct, inverse = np.unique(np.concatenate([traj.t for traj in trajs]),
                                  return_inverse=True)
    # nondecreasing, as round is monotone
    keys = np.array([round(t, 6) for t in distinct.tolist()])
    codes = np.concatenate(([0], np.cumsum(keys[1:] != keys[:-1])))[inverse]
    return np.split(codes, np.cumsum([len(traj) for traj in trajs])[:-1])


def compute_risk_streams(
    dataset: Dataset,
    models: dict,
    forest: ForestModel,
    cfg: RiskConfig,
    ttc_radius: float,
    pairs: Optional[Sequence[tuple[Trajectory, Trajectory]]] = None,
) -> dict:
    """Risk stream of every co-present vehicle-pedestrian pair, keyed by
    ``(vehicle id, pedestrian id)``; ``pairs`` are ``co_present_pairs(dataset)``,
    computed here when not given.

    Frames are matched on equal ``round(t, 6)`` timestamps (the shared frame
    grid), through integer frame codes computed once for the scene; of a
    pedestrian's valid rows with one key, the last is matched. The scene is
    scored one entering direction at a time, since the direction fixes a
    vehicle's maneuver hypotheses; pairs whose direction has no cluster model
    are skipped. Each vehicle's candidate frames are looked up at once among
    the valid rows of its co-present pedestrians, and its scored frames are
    those some pedestrian shares. The direction's vehicle side takes one
    forest call over the scored frames of all its vehicles and one rollout
    per cluster model over the same frames. One :func:`estimate_risk` call
    then scores every pair's shared frames, and its rows are cut into one
    stream per pair.
    The rollouts run ``cfg.horizon_steps`` frames of ``dataset.frame_interval``.
    In sample mode each (vehicle, maneuver) keeps its own noise stream,
    seeded by ``cfg.sample_seed``, the vehicle's ordinal in
    ``dataset.vehicles`` and the maneuver code, whatever else is in the batch;
    mean mode passes no streams.
    """
    dt = dataset.frame_interval
    vehicles, peds = dataset.vehicles, dataset.pedestrians
    ordinal = {veh.id: i for i, veh in enumerate(vehicles)}
    ped_ordinal = {ped.id: j for j, ped in enumerate(peds)}
    by_direction: dict = {}  # direction -> vehicle id -> (vehicle, co-present pedestrian ordinals)
    for veh, ped in co_present_pairs(dataset) if pairs is None else pairs:
        by_direction.setdefault(veh.entering_direction, {}).setdefault(
            veh.id, (veh, []))[1].append(ped_ordinal[ped.id])
    if not by_direction:
        return {}
    codes = _frame_codes(vehicles + peds)
    # The match table: every pedestrian's valid rows, as rows of ped_points,
    # sorted by frame code. Of a pedestrian's valid rows with one code only
    # the last is kept, as a dict keyed by round(t, 6) would keep it.
    ped_points = np.concatenate([ped.points for ped in peds])
    owner = np.repeat(np.arange(len(peds)), [len(ped) for ped in peds])
    ped_code = np.concatenate(codes[len(vehicles):])
    rows = np.flatnonzero(np.concatenate([ped.valid for ped in peds]))
    last = np.ones(len(rows), dtype=bool)
    last[:-1] = (owner[rows[1:]] != owner[rows[:-1]]) | (ped_code[rows[1:]] != ped_code[rows[:-1]])
    rows = rows[last]
    table = rows[np.argsort(ped_code[rows], kind="stable")]
    table_code = ped_code[table]

    streams: dict = {}
    for direction, peds_of in by_direction.items():
        maneuvers = [m for m in SUPPORTED_MANEUVERS if (direction, m) in models]
        if not maneuvers:
            continue
        scored = []  # (vehicle, scored rows), the batch's frames in order
        pairs, at, ped_rows = [], [], []  # at: the batch frame of each shared frame
        offset = 0  # the batch's rows so far
        for veh, co_present in peds_of.values():
            candidates = np.arange(0, len(veh), cfg.frame_stride)
            candidates = candidates[(veh.valid & np.isfinite(veh.yaw_rate))[candidates]]
            code = codes[ordinal[veh.id]][candidates]
            lo = np.searchsorted(table_code, code, "left")
            n = np.searchsorted(table_code, code, "right") - lo  # pedestrian rows per candidate
            hit = table[np.arange(n.sum()) + np.repeat(lo - np.cumsum(n) + n, n)]
            vi, who = np.repeat(candidates, n), owner[hit]
            mask = np.zeros(len(peds), dtype=bool)
            mask[co_present] = True
            keep = np.flatnonzero(mask[who])
            # pair after pair in pedestrian order, each pair's frames in row order
            order = keep[np.argsort(who[keep], kind="stable")]
            if not len(order):
                continue
            hit, vi, who = hit[order], vi[order], who[order]
            frames = np.unique(vi)
            scored.append((veh, frames))
            at.append(offset + np.searchsorted(frames, vi))
            offset += len(frames)
            ped_rows.append(hit)
            pairs.extend(((veh.id, peds[j].id), rows) for j, rows in
                         zip(*(a.tolist() for a in np.unique(who, return_counts=True))))
        if not scored:
            continue
        at = np.concatenate(at)

        probs = forest.predict_proba(np.concatenate(
            [extract_features(veh, frames, direction) for veh, frames in scored]))
        probs = probs / probs.sum(axis=1, keepdims=True)
        starts = np.concatenate([veh.xy[frames] for veh, frames in scored])
        paths = {}
        for m in maneuvers:
            noise = ([((cfg.sample_seed, ordinal[veh.id], MANEUVER_CODES[m]), len(frames))
                      for veh, frames in scored]
                     if cfg.rollout_mode == "sample" else None)
            ahead = rollout(models[(direction, m)], starts, cfg.horizon_steps, dt, noise)
            paths[m] = np.concatenate([starts[:, None, :], ahead], axis=1)[at]
        # every column of estimate_risk is computed row by row, so one call
        # over all pairs' shared frames gives each pair the rows a call of its
        # own would
        veh_rows = np.concatenate([veh.points[frames] for veh, frames in scored])[at]
        stream = estimate_risk(
            veh_rows[:, 0], veh_rows[:, 1:5], ped_points[np.concatenate(ped_rows), 1:5],
            probs[at], paths, dt,
            radius=cfg.conflict_radius, ttc_radius=ttc_radius,
        )
        lo = 0
        for pair, n in pairs:
            streams[pair] = RiskStream(
                *(getattr(stream, f.name)[lo:lo + n] for f in fields(RiskStream)))
            lo += n
    return streams
