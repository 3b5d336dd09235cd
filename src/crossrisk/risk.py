"""Per-timestep pedestrian-vehicle conflict risk.

For each candidate vehicle maneuver, the learned velocity field is rolled out
from the vehicle's current position while the pedestrian is extrapolated at
constant velocity. Where the two predicted paths come into proximity, the
maneuver's risk decays exponentially with the gap between the two arrival
times at that conflict point; the per-maneuver risks are then mixed with the
classifier's maneuver probabilities. A constant-acceleration extrapolation of
the vehicle serves as the kinematic baseline for trajectory-accuracy studies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .gpr import RolloutConfig
from .maneuver import ManeuverDistribution
from .trajectory import Maneuver, SUPPORTED_MANEUVERS, Trajectory


@dataclass(frozen=True)
class KinematicState:
    """Planar position/velocity/acceleration snapshot of one road user."""

    x: float
    y: float
    vx: float
    vy: float
    ax: float = 0.0
    ay: float = 0.0

    def __post_init__(self) -> None:
        for name in ("x", "y", "vx", "vy", "ax", "ay"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"non-finite kinematic field {name}")

    @property
    def position(self) -> tuple[float, float]:
        return (self.x, self.y)

    @property
    def speed(self) -> float:
        return math.hypot(self.vx, self.vy)


def state_from_trajectory(traj: Trajectory, index: int) -> KinematicState:
    """State at a point, with acceleration from a backward difference over the
    previous frame (zero when there is no usable previous frame)."""
    if not traj.valid[index]:
        raise ValueError("cannot build a state from an invalid point")
    t, x, y, vx, vy, _ = traj.points[index].tolist()
    ax = ay = 0.0
    if index > 0 and traj.valid[index - 1]:
        prev_t, _, _, prev_vx, prev_vy, _ = traj.points[index - 1].tolist()
        dt = t - prev_t
        if dt > 0:
            ax = (vx - prev_vx) / dt
            ay = (vy - prev_vy) / dt
    return KinematicState(x=x, y=y, vx=vx, vy=vy, ax=ax, ay=ay)


def predict_pedestrian(state: KinematicState, dt: float, steps: int) -> np.ndarray:
    """Constant-velocity extrapolation; returns ``steps`` future positions.

    Exactly the zero-acceleration case of :func:`dynamic_model_predict`, so
    the two agree bitwise on identical states.
    """
    return dynamic_model_predict(replace(state, ax=0.0, ay=0.0), dt, steps)


def dynamic_model_predict(state: KinematicState, dt: float, steps: int) -> np.ndarray:
    """Constant-acceleration extrapolation ``x0 + v0 t + a t^2 / 2`` at
    ``t = dt, 2 dt, ..., steps dt``; with zero acceleration this reduces
    exactly to :func:`predict_pedestrian`.
    """
    if dt <= 0 or steps < 1:
        raise ValueError("dt must be positive and steps >= 1")
    t = np.arange(1, steps + 1, dtype=float)[:, None] * dt
    return (np.array([state.x, state.y]) + np.array([state.vx, state.vy]) * t
            + 0.5 * np.array([state.ax, state.ay]) * t * t)


# ---------------------------------------------------------------------------
# Conflict points and per-maneuver risk
# ---------------------------------------------------------------------------


def find_conflict_point(veh_path: np.ndarray, ped_path: np.ndarray, dt: float,
                        radius: float) -> Optional[tuple[tuple[float, float], float, float]]:
    """Closest-in-time proximity between two sampled predicted paths.

    Both paths must share the step count and ``dt``; index ``i`` is time
    ``i * dt``. Among all index pairs within ``radius`` of each other, the
    pair minimizing the arrival-time gap wins (ties to the earlier vehicle
    index, then the earlier pedestrian index). Returns ``(point, t_vehicle,
    t_pedestrian)`` with the point midway between the two samples, or ``None``
    when the paths never come within ``radius``.
    """
    veh = np.asarray(veh_path, dtype=float)
    ped = np.asarray(ped_path, dtype=float)
    if veh.shape != ped.shape:
        raise ValueError("paths must share step count")
    diff = veh[:, None, :] - ped[None, :, :]
    within = np.einsum("ijk,ijk->ij", diff, diff) <= radius * radius
    if not within.any():
        return None
    j_idx, k_idx = np.nonzero(within)
    gaps = np.abs(j_idx - k_idx)
    order = np.lexsort((k_idx, j_idx, gaps))
    j, k = int(j_idx[order[0]]), int(k_idx[order[0]])
    point = (veh[j] + ped[k]) / 2.0
    return ((float(point[0]), float(point[1])), j * dt, k * dt)


def maneuver_risk(times: Optional[tuple[float, float]]) -> float:
    """``exp(-|t_vehicle - t_pedestrian|)`` when a conflict point exists, else 0."""
    if times is None:
        return 0.0
    t_veh, t_ped = times
    if t_veh < 0 or t_ped < 0:
        raise ValueError("arrival times must be nonnegative")
    return math.exp(-abs(t_veh - t_ped))


@dataclass(frozen=True)
class ConflictAssessment:
    """Outcome of one maneuver hypothesis at one timestep."""

    maneuver: Maneuver
    conflict_point: Optional[tuple] = None
    t_vehicle: Optional[float] = None
    t_pedestrian: Optional[float] = None
    risk: float = 0.0
    model_absent: bool = False


@dataclass(frozen=True)
class RiskProfile:
    """Mixed conflict risk at one timestep, with its per-maneuver parts."""

    t: float
    assessments: tuple  # one ConflictAssessment per supported maneuver
    maneuver_probs: ManeuverDistribution
    risk: float
    ttc_baseline: Optional[float] = None
    vehicle_speed: float = 0.0

    def assessment(self, m: Maneuver) -> ConflictAssessment:
        for a in self.assessments:
            if a.maneuver == m:
                return a
        raise KeyError(m)


def estimate_risk(
    t: float,
    vehicle: KinematicState,
    pedestrian: KinematicState,
    probs: Optional[ManeuverDistribution],
    paths: dict,
    cfg: RolloutConfig,
    radius: float = 1.0,
    ttc_baseline: Optional[float] = None,
) -> RiskProfile:
    """Score one pedestrian against the maneuver hypotheses of the vehicle's
    frame at time ``t``.

    ``probs`` are the frame's maneuver probabilities from the trained
    maneuver model; without them (no model) the call raises. ``paths`` maps
    each maneuver whose cluster model exists to the vehicle's predicted path,
    ``cfg.steps + 1`` rows with the vehicle position first; maneuvers without
    a path contribute zero risk and are flagged on their assessment.
    """
    if probs is None:
        raise ValueError("maneuver probabilities from a trained maneuver model are required")
    if not paths:
        raise ValueError("no cluster models available for the vehicle's direction")

    ped_path = predict_pedestrian(pedestrian, cfg.dt, cfg.steps)
    ped_path_full = np.vstack([[pedestrian.x, pedestrian.y], ped_path])

    assessments = []
    total = 0.0
    for m in SUPPORTED_MANEUVERS:
        veh_path = paths.get(m)
        if veh_path is None:
            assessments.append(ConflictAssessment(maneuver=m, model_absent=True))
            continue
        hit = find_conflict_point(veh_path, ped_path_full, cfg.dt, radius)
        if hit is None:
            assessments.append(ConflictAssessment(maneuver=m))
            continue
        point, t_veh, t_ped = hit
        risk_m = maneuver_risk((t_veh, t_ped))
        assessments.append(
            ConflictAssessment(maneuver=m, conflict_point=point, t_vehicle=t_veh,
                               t_pedestrian=t_ped, risk=risk_m)
        )
        total += risk_m * probs.for_maneuver(m)

    return RiskProfile(
        t=t,
        assessments=tuple(assessments),
        maneuver_probs=probs,
        risk=total,
        ttc_baseline=ttc_baseline,
        vehicle_speed=vehicle.speed,
    )


# ---------------------------------------------------------------------------
# Trajectory prediction error
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PredictionError:
    """Pointwise Euclidean errors between a predicted and an actual path."""

    distances: np.ndarray
    mean: float
    std: float


def trajectory_error(predicted: np.ndarray, actual: np.ndarray) -> PredictionError:
    """Per-index distances with their mean and population standard deviation."""
    predicted = np.asarray(predicted, dtype=float)
    actual = np.asarray(actual, dtype=float)
    if predicted.shape != actual.shape:
        raise ValueError("predicted and actual paths must have equal lengths")
    d = np.linalg.norm(predicted - actual, axis=1)
    return PredictionError(distances=d, mean=float(np.mean(d)), std=float(np.std(d)))
