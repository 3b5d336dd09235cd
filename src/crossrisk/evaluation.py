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
from .maneuver import MANEUVER_CODES, ForestModel, feature_rows
from .risk import RiskStream, estimate_risk
from .ssm import co_present_pairs
from .trajectory import DIRECTION_CODES, Dataset, Maneuver, SUPPORTED_MANEUVERS, Trajectory


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


def _frame_codes(t: np.ndarray) -> np.ndarray:
    """The integer frame code of each timestamp of ``t``. Two timestamps
    share a code exactly when their ``round(t, 6)`` keys are equal, and codes
    rise with the key; ``round`` runs once per distinct timestamp."""
    distinct, inverse = np.unique(t, return_inverse=True)
    # nondecreasing, as round is monotone
    keys = np.array([round(t, 6) for t in distinct.tolist()])
    return np.concatenate(([0], np.cumsum(keys[1:] != keys[:-1])))[inverse]


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
    are skipped. The candidate frames of all of a direction's vehicles are
    looked up at once among the pedestrians' valid rows, and a vehicle's
    scored frames are those one of its co-present pedestrians shares. The
    direction's vehicle side takes one feature build and one forest call over
    the scored frames of all its vehicles, and one rollout per cluster model
    over the same frames.
    One :func:`estimate_risk` call then scores every pair's shared frames,
    and its rows are cut into one stream per pair.
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
    # Every row of the scene, vehicles first: its point, frame code and owner
    # (the vehicle's ordinal, or len(vehicles) plus the pedestrian's).
    trajs = vehicles + peds
    sizes = [len(traj) for traj in trajs]
    first = np.cumsum([0, *sizes])  # each trajectory's first row
    n_veh = first[len(vehicles)]
    points = np.concatenate([traj.points for traj in trajs])
    code = _frame_codes(points[:, 0])
    owner = np.repeat(np.arange(len(trajs)), sizes)
    # The match table: every pedestrian's valid rows, sorted by frame code. Of
    # a pedestrian's valid rows with one code only the last is kept, as a dict
    # keyed by round(t, 6) would keep it.
    ped_rows = n_veh + np.flatnonzero(np.isfinite(points[n_veh:, 1:5]).all(axis=1))
    last = np.ones(len(ped_rows), dtype=bool)
    last[:-1] = ((owner[ped_rows[1:]] != owner[ped_rows[:-1]])
                 | (code[ped_rows[1:]] != code[ped_rows[:-1]]))
    ped_rows = ped_rows[last]
    table = ped_rows[np.argsort(code[ped_rows], kind="stable")]
    table_code = code[table]
    # A vehicle row is a candidate frame when it lies a multiple of the stride
    # after its trajectory's first row, is valid and has a finite yaw rate.
    candidate = (((np.arange(n_veh) - first[owner[:n_veh]]) % cfg.frame_stride == 0)
                 & np.isfinite(points[:n_veh, 1:]).all(axis=1))

    streams: dict = {}
    for direction, peds_of in by_direction.items():
        maneuvers = [m for m in SUPPORTED_MANEUVERS if (direction, m) in models]
        if not maneuvers:
            continue
        # The direction's vehicles are ranked in their order in peds_of, and a
        # (vehicle rank, pedestrian ordinal) pair is coded rank * len(peds) + ordinal.
        members = [ordinal[vid] for vid in peds_of]
        rank = np.full(len(vehicles), -1)
        rank[members] = np.arange(len(members))
        co_present = np.zeros(len(members) * len(peds), dtype=bool)
        co_present[[r * len(peds) + j
                    for r, (_, js) in enumerate(peds_of.values()) for j in js]] = True
        # every vehicle's candidate rows at once, vehicle after vehicle, each
        # vehicle's in row order
        cand = np.flatnonzero(candidate & (rank[owner[:n_veh]] >= 0))
        cand_rank = rank[owner[cand]]
        order = np.argsort(cand_rank, kind="stable")
        cand, cand_rank = cand[order], cand_rank[order]
        lo = np.searchsorted(table_code, code[cand], "left")
        n = np.searchsorted(table_code, code[cand], "right") - lo  # pedestrian rows per candidate
        hit = table[np.arange(n.sum()) + np.repeat(lo - np.cumsum(n) + n, n)]
        of = np.repeat(np.arange(len(cand)), n)  # the candidate of each hit
        pair = cand_rank[of] * len(peds) + (owner[hit] - len(vehicles))
        keep = np.flatnonzero(co_present[pair])
        if not len(keep):
            continue
        # pair after pair in code order, each pair's frames in row order
        keep = keep[np.argsort(pair[keep], kind="stable")]
        hit, of, pair = hit[keep], of[keep], pair[keep]
        # the scored rows, vehicle after vehicle, and the one of each shared frame
        scored = np.zeros(len(cand), dtype=bool)
        scored[of] = True
        at = (np.cumsum(scored) - 1)[of]
        rows, ranks = cand[scored], cand_rank[scored]
        # where each scored vehicle's rows and each pair's shared frames begin
        bounds = [0, *(np.flatnonzero(ranks[1:] != ranks[:-1]) + 1).tolist(), len(rows)]
        by_vehicle = [(members[r], lo, hi) for r, lo, hi in
                      zip(ranks[bounds[:-1]].tolist(), bounds, bounds[1:])]
        pair_bounds = [0, *(np.flatnonzero(pair[1:] != pair[:-1]) + 1).tolist(), len(pair)]

        veh_rows = points[rows]
        probs = forest.predict_proba(feature_rows(veh_rows, DIRECTION_CODES[direction]))
        probs = probs / probs.sum(axis=1, keepdims=True)
        starts = veh_rows[:, 1:3].copy()
        paths = {}
        for m in maneuvers:
            noise = ([((cfg.sample_seed, v, MANEUVER_CODES[m]), hi - lo)
                      for v, lo, hi in by_vehicle]
                     if cfg.rollout_mode == "sample" else None)
            ahead = rollout(models[(direction, m)], starts, cfg.horizon_steps, dt, noise)
            paths[m] = np.concatenate([starts[:, None, :], ahead], axis=1)[at]
        # every column of estimate_risk is computed row by row, so one call
        # over all pairs' shared frames gives each pair the rows a call of its
        # own would
        veh_rows = veh_rows[at]
        stream = estimate_risk(
            veh_rows[:, 0], veh_rows[:, 1:5], points[hit, 1:5],
            probs[at], paths, dt,
            radius=cfg.conflict_radius, ttc_radius=ttc_radius,
        )
        for c, lo, hi in zip(pair[pair_bounds[:-1]].tolist(), pair_bounds, pair_bounds[1:]):
            veh, ped = vehicles[members[c // len(peds)]], peds[c % len(peds)]
            streams[(veh.id, ped.id)] = RiskStream(
                *(getattr(stream, f.name)[lo:hi] for f in fields(RiskStream)))
    return streams
