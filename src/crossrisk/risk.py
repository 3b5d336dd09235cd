"""Per-timestep pedestrian-vehicle conflict risk.

For each candidate vehicle maneuver, the learned velocity field is rolled out
from the vehicle's current position while the pedestrian is extrapolated at
constant velocity. Where the two predicted paths come into proximity, the
maneuver's risk decays exponentially with the gap between the two arrival
times at that conflict point; the per-maneuver risks are then mixed with the
classifier's maneuver probabilities.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .ssm import compute_ttc
from .trajectory import SUPPORTED_MANEUVERS

#: Rows of one conflict search evaluated together.
_CONFLICT_BLOCK_ROWS = 16


def find_conflict_point(veh_paths: np.ndarray, ped_paths: np.ndarray, radius: float
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closest-in-time proximity between two sampled predicted paths, per row.

    Both inputs are ``(m, n, 2)``: row ``r`` pairs a vehicle path with a
    pedestrian path, and index ``i`` of each is time ``i * dt``. Among the
    index pairs ``(j, k)`` within ``radius`` of each other, the one with the
    smallest arrival-time gap ``|j - k|`` wins, ties going to the earlier
    vehicle index, then the earlier pedestrian index: the argmin of the rank
    ``(|j - k| n + j) n + k``. Returns ``(hit, j, k)``, three ``(m,)`` arrays;
    ``j`` and ``k`` are 0 on rows without a hit.
    """
    veh = np.asarray(veh_paths, dtype=float)
    ped = np.asarray(ped_paths, dtype=float)
    if veh.shape != ped.shape or veh.ndim != 3 or veh.shape[2] != 2:
        raise ValueError("paths must be (m, n, 2) arrays of one shape")
    m, n = veh.shape[:2]
    ranks = _pair_ranks(n)
    hit = np.empty(m, dtype=bool)
    best = np.empty(m, dtype=np.intp)
    # _CONFLICT_BLOCK_ROWS rows at a time keeps the (rows, n, n) temporaries in cache
    for lo in range(0, m, _CONFLICT_BLOCK_ROWS):
        v, p = veh[lo:lo + _CONFLICT_BLOCK_ROWS], ped[lo:lo + _CONFLICT_BLOCK_ROWS]
        dx = v[:, :, None, 0] - p[:, None, :, 0]
        dy = v[:, :, None, 1] - p[:, None, :, 1]
        dx *= dx  # squared distances in place
        dy *= dy
        dx += dy
        within = dx <= radius * radius
        rank = np.where(within, ranks, n**3)
        best[lo:lo + len(v)] = rank.reshape(len(v), n * n).argmin(axis=1)
        hit[lo:lo + len(v)] = within.any(axis=(1, 2))
    j, k = np.divmod(best, n)
    return hit, j, k


@functools.cache
def _pair_ranks(n: int) -> np.ndarray:
    """``(|j - k| n + j) n + k`` for every index pair of two n-step paths."""
    j, k = np.indices((n, n))
    return (np.abs(j - k) * n + j) * n + k


@dataclass(frozen=True)
class RiskStream:
    """Risk of one vehicle-pedestrian pair over the ``m`` frames it is scored.

    ``probs`` and ``maneuver_risk`` are ``(m, 3)`` with columns in
    ``SUPPORTED_MANEUVERS`` order; the other fields are ``(m,)``. ``ttc`` is
    NaN where the constant-velocity extrapolations never come close enough.
    """

    t: np.ndarray
    probs: np.ndarray
    maneuver_risk: np.ndarray
    risk: np.ndarray
    ttc: np.ndarray
    vehicle_speed: np.ndarray


def estimate_risk(
    t: np.ndarray,
    vehicle: np.ndarray,
    pedestrian: np.ndarray,
    probs: np.ndarray,
    paths: dict,
    dt: float,
    radius: float = 1.0,
    ttc_radius: float = 1.0,
) -> RiskStream:
    """Score one pedestrian against a vehicle's maneuver hypotheses at ``m``
    shared frames.

    ``vehicle`` and ``pedestrian`` are ``(m, 4)`` rows of ``x, y, vx, vy`` at
    the frame times ``t``, and ``probs`` the frames' ``(m, 3)`` maneuver
    probabilities, each row in [0, 1] and summing to 1. ``paths`` maps each
    maneuver whose cluster model exists to the vehicle's ``(m, steps + 1, 2)``
    predicted paths, the vehicle position first and one point per ``dt``,
    with the same ``steps`` for every maneuver; a maneuver without paths
    contributes zero risk. The pedestrian is extrapolated at constant
    velocity over the same steps.
    Each maneuver's risk is ``exp(-|t_vehicle - t_pedestrian|)`` at its
    conflict point (0 without one), and the risk is their mixture under
    ``probs``, capped at 1.
    """
    t = np.asarray(t, dtype=float)
    vehicle = np.asarray(vehicle, dtype=float)
    pedestrian = np.asarray(pedestrian, dtype=float)
    probs = np.asarray(probs, dtype=float)
    m = len(t)
    if not paths:
        raise ValueError("no cluster models available for the vehicle's direction")
    if (t.shape != (m,) or vehicle.shape != (m, 4) or pedestrian.shape != (m, 4)
            or probs.shape != (m, 3)):
        raise ValueError("t, vehicle, pedestrian and probs must cover the same frames")
    if not ((probs >= 0.0) & (probs <= 1.0)).all():
        raise ValueError("maneuver probabilities must lie in [0, 1]")
    if (np.abs(probs.sum(axis=1) - 1.0) > 1e-9).any():
        raise ValueError("each frame's maneuver probabilities must sum to 1")

    steps = np.shape(next(iter(paths.values())))[1] - 1
    ahead = np.arange(1, steps + 1, dtype=float)[:, None] * dt
    ped_paths = np.empty((m, steps + 1, 2))
    ped_paths[:, 0] = pedestrian[:, :2]
    ped_paths[:, 1:] = pedestrian[:, None, :2] + pedestrian[:, None, 2:] * ahead

    maneuver_risk = np.zeros((m, len(SUPPORTED_MANEUVERS)))
    risk = np.zeros(m)
    for col, maneuver in enumerate(SUPPORTED_MANEUVERS):
        if maneuver in paths:
            hit, j, k = find_conflict_point(paths[maneuver], ped_paths, radius)
            gaps = np.abs(j[hit] * dt - k[hit] * dt).tolist()
            maneuver_risk[hit, col] = [math.exp(-gap) for gap in gaps]
        risk = risk + maneuver_risk[:, col] * probs[:, col]

    return RiskStream(
        # probabilities that sum to 1 within rounding can lift the mixture of
        # unit risks an ulp above 1
        t=t, probs=probs, maneuver_risk=maneuver_risk, risk=np.minimum(risk, 1.0),
        ttc=compute_ttc(vehicle, pedestrian, ttc_radius),
        vehicle_speed=np.array([math.hypot(vx, vy) for vx, vy in vehicle[:, 2:].tolist()]),
    )
