"""Baseline surrogate safety measures and detection scoring.

Time-to-collision projects both agents at constant velocity and solves for
the first time their separation falls to the proximity radius. Encroachment
time works on observed trajectories: it anchors a small circular zone at the
paths' closest approach and measures the gap between one agent leaving that
zone and the other entering it. Detection metrics score each
vehicle-pedestrian pair by its maximum risk over time against the
encroachment-time ground truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .errors import check_number
from .trajectory import Dataset, Trajectory


@dataclass
class SsmConfig:
    """The ``ssm`` config section: the encroachment-time threshold (s) and zone
    radius (m) of the ground truth, and the proximity radius (m) of TTC."""

    pet_threshold: float = 3.0
    zone_radius: float = 1.0
    ttc_radius: float = 1.0

    def __post_init__(self) -> None:
        check_number(self.pet_threshold, "ssm.pet_threshold")
        for name in ("zone_radius", "ttc_radius"):
            check_number(getattr(self, name), f"ssm.{name}", positive=True)


def compute_ttc(veh: np.ndarray, ped: np.ndarray, radius: float = 1.0) -> np.ndarray:
    """First time (s, >= 0) at which constant-velocity extrapolations come
    within ``radius``, for ``(m, 4)`` rows of ``x, y, vx, vy``; NaN on rows
    where the agents never get that close."""
    veh = np.asarray(veh, dtype=float)
    ped = np.asarray(ped, dtype=float)
    if veh.shape != ped.shape or veh.ndim != 2 or veh.shape[1] != 4:
        raise ValueError("vehicle and pedestrian rows must be (m, 4) arrays of one shape")
    px, py, vx, vy = (ped - veh).T
    c = px * px + py * py - radius * radius
    a = vx * vx + vy * vy
    b = 2.0 * (px * vx + py * vy)
    disc = b * b - 4.0 * a * c
    with np.errstate(invalid="ignore", divide="ignore"):
        t_enter = (-b - np.sqrt(disc)) / (2.0 * a)
    # a tiny a: no relative motion; a negative disc: the closest approach
    # stays outside the radius; c <= 0: already within it
    t_enter[(a < 1e-15) | (disc < 0.0) | ~(t_enter >= 0.0)] = np.nan
    t_enter[c <= 0.0] = 0.0
    return t_enter


@dataclass(frozen=True)
class ConflictEvent:
    """A vehicle-pedestrian encroachment within the zone at closest approach."""

    vehicle_id: str
    pedestrian_id: str
    window: tuple  # (first zone entry, last zone exit), seconds
    pet: float
    zone_center: tuple

    def __post_init__(self) -> None:
        if self.pet < 0:
            raise ValueError("encroachment time cannot be negative")
        if self.window[0] > self.window[1]:
            raise ValueError("event window start must not exceed its end")

    @property
    def pair(self) -> tuple[str, str]:
        return (self.vehicle_id, self.pedestrian_id)


def _zone_interval(times: np.ndarray, positions: np.ndarray, center: np.ndarray,
                   radius: float) -> Optional[tuple[float, float]]:
    d = np.linalg.norm(positions - center[None, :], axis=1)
    inside = np.nonzero(d <= radius)[0]
    if inside.size == 0:
        return None
    return float(times[inside[0]]), float(times[inside[-1]])


def _search_limit(zone_radius: float) -> float:
    """The squared box gap up to which a point can be in a pair within
    ``zone_radius``; the 1e-9 slack absorbs the rounding of the squares
    against the radius."""
    return zone_radius * zone_radius * (1.0 + 1e-9)


def _near_box(xy: np.ndarray, other: np.ndarray, limit: float) -> np.ndarray:
    """Mask of the points of ``xy`` whose squared distance to the bounding box
    of ``other`` is at most ``limit``."""
    gap = np.maximum(np.maximum(other.min(axis=0) - xy, xy - other.max(axis=0)), 0.0)
    return gap[:, 0] * gap[:, 0] + gap[:, 1] * gap[:, 1] <= limit


def compute_pet(veh: Trajectory, ped: Trajectory, zone_radius: float = 1.0
                ) -> Optional[ConflictEvent]:
    """Encroachment time at the observed paths' closest approach.

    The zone is a disc of ``zone_radius`` around the midpoint of the closest
    sample pair. The event time window spans first entry to last exit over
    both agents; the encroachment time is the gap between their in-zone
    intervals (zero when they overlap). ``None`` when the paths never come
    within ``zone_radius``.
    """
    veh_xy, ped_xy = veh.xy[veh.valid], ped.xy[ped.valid]
    if len(veh_xy) == 0 or len(ped_xy) == 0:
        return None
    # A point is at least as far from any point of the other path as from that
    # path's bounding box, and the rounded differences, squares and sums keep
    # that order. So a pair within zone_radius joins two points that lie within
    # it of the other path's box, and the search runs over those points only.
    # They keep their order, so argmin finds the first closest pair of the
    # full search whenever that pair is within zone_radius.
    limit = _search_limit(zone_radius)
    near_v = np.flatnonzero(_near_box(veh_xy, ped_xy, limit))
    near_p = np.flatnonzero(_near_box(ped_xy, veh_xy, limit))
    if len(near_v) == 0 or len(near_p) == 0:
        return None
    veh_t, ped_t = veh.t[veh.valid], ped.t[ped.valid]

    diff = veh_xy[near_v, None, :] - ped_xy[None, near_p, :]
    d2 = np.einsum("ijk,ijk->ij", diff, diff)
    a, b = np.unravel_index(int(np.argmin(d2)), d2.shape)
    if math.sqrt(d2[a, b]) > zone_radius:
        return None
    j, k = near_v[a], near_p[b]
    center = (veh_xy[j] + ped_xy[k]) / 2.0

    veh_iv = _zone_interval(veh_t, veh_xy, center, zone_radius)
    ped_iv = _zone_interval(ped_t, ped_xy, center, zone_radius)
    if veh_iv is None or ped_iv is None:
        return None
    pet = max(0.0, max(veh_iv[0], ped_iv[0]) - min(veh_iv[1], ped_iv[1]))
    window = (min(veh_iv[0], ped_iv[0]), max(veh_iv[1], ped_iv[1]))
    return ConflictEvent(vehicle_id=veh.id, pedestrian_id=ped.id, window=window,
                         pet=pet, zone_center=(float(center[0]), float(center[1])))


def co_present_pairs(dataset: Dataset) -> list[tuple[Trajectory, Trajectory]]:
    """Vehicle-pedestrian pairs whose time supports overlap."""
    peds = [(ped, ped.start_time, ped.end_time) for ped in dataset.pedestrians]
    pairs = []
    for veh in dataset.vehicles:
        start, end = veh.start_time, veh.end_time
        pairs.extend((veh, ped) for ped, p_start, p_end in peds
                     if max(start, p_start) <= min(end, p_end))
    return pairs


def identify_conflicts_pet(dataset: Dataset, threshold: float = 3.0,
                           zone_radius: float = 1.0) -> list[ConflictEvent]:
    """Ground-truth conflicts: co-present pairs with encroachment time at or
    below ``threshold`` seconds.

    :func:`compute_pet` runs only on the pairs whose valid-point bounding
    boxes lie within ``zone_radius`` of each other. A vehicle point's gap to
    the pedestrian's box is at least the gap between the two boxes, in
    rounded arithmetic too, so on any other pair ``compute_pet`` keeps no
    vehicle point and returns ``None``; it returns ``None`` too on a
    trajectory without a valid point, which has no box.
    """
    limit = _search_limit(zone_radius)
    boxes = {}  # trajectory id -> (min x, min y, max x, max y) of its valid points
    for traj in (*dataset.vehicles, *dataset.pedestrians):
        xy = traj.xy[traj.valid]
        if len(xy):
            boxes[traj.id] = (*xy.min(axis=0).tolist(), *xy.max(axis=0).tolist())
    events = []
    for veh, ped in co_present_pairs(dataset):
        if veh.id not in boxes or ped.id not in boxes:
            continue
        v_lo_x, v_lo_y, v_hi_x, v_hi_y = boxes[veh.id]
        p_lo_x, p_lo_y, p_hi_x, p_hi_y = boxes[ped.id]
        gx = max(p_lo_x - v_hi_x, v_lo_x - p_hi_x, 0.0)
        gy = max(p_lo_y - v_hi_y, v_lo_y - p_hi_y, 0.0)
        if gx * gx + gy * gy > limit:
            continue
        event = compute_pet(veh, ped, zone_radius)
        if event is not None and event.pet <= threshold:
            events.append(event)
    events.sort(key=lambda e: e.pair)
    return events


# ---------------------------------------------------------------------------
# Detection metrics
# ---------------------------------------------------------------------------


@dataclass
class DetectionReport:
    sensitivity: float
    false_alarm_rate: float
    auc: float
    roc: list  # (threshold, tpr, fpr) rows, descending threshold
    tp: int
    fp: int
    tn: int
    fn: int

    def to_text(self) -> str:
        lines = [
            "detection report",
            "================",
            f"positives: {self.tp + self.fn}  negatives: {self.fp + self.tn}",
            f"sensitivity (risk > 0): {self.sensitivity:.4f}",
            f"false alarm rate (risk > 0): {self.false_alarm_rate:.4f}",
            f"auc: {self.auc:.4f}",
            "roc (threshold, tpr, fpr):",
        ]
        for thr, tpr, fpr in self.roc:
            lines.append(f"  {thr:.6f} {tpr:.4f} {fpr:.4f}")
        return "\n".join(lines) + "\n"


def evaluate_detection(scores: Mapping[tuple, float], truth: Sequence) -> DetectionReport:
    """Event-level detection scoring.

    ``scores`` maps (vehicle id, pedestrian id) to the pair's score, its
    maximum risk over time. ``truth`` holds the ground-truth pairs; one
    without a score (no frame of it was scored) scores 0, a miss. The
    operating point declares a conflict whenever the score exceeds zero; the
    ROC sweeps the threshold over all observed scores.
    """
    truth_pairs = set(map(tuple, truth))

    pairs = sorted(set(scores) | truth_pairs)
    labels = np.array([p in truth_pairs for p in pairs], dtype=bool)
    pair_scores = np.array([float(scores.get(p, 0.0)) for p in pairs])

    predicted = pair_scores > 0.0
    tp = int(np.sum(predicted & labels))
    fn = int(np.sum(~predicted & labels))
    fp = int(np.sum(predicted & ~labels))
    tn = int(np.sum(~predicted & ~labels))
    sensitivity = tp / (tp + fn) if (tp + fn) > 0 else 1.0
    far = fp / (fp + tn) if (fp + tn) > 0 else 0.0

    n_pos = int(labels.sum())
    n_neg = int((~labels).sum())
    roc = [(math.inf, 0.0, 0.0)]
    if n_pos > 0 and n_neg > 0:
        # one stable sort, highest score first: each run of equal scores is a
        # threshold, written as its first pair's score, whose hits are the
        # pairs up to the run's last; the lowest threshold hits every pair
        order = np.argsort(-pair_scores, kind="stable")
        ranked = pair_scores[order]
        last = np.flatnonzero(np.append(ranked[1:] != ranked[:-1], True))
        first = np.append(0, last[:-1] + 1)
        hit_pos = np.cumsum(labels[order])[last]
        roc += zip(ranked[first].tolist(), (hit_pos / n_pos).tolist(),
                   ((last + 1 - hit_pos) / n_neg).tolist())
        fpr = np.array([r[2] for r in roc])
        tpr = np.array([r[1] for r in roc])
        auc = float(np.sum((fpr[1:] - fpr[:-1]) * (tpr[1:] + tpr[:-1]) / 2.0))
    else:
        roc.append((-math.inf, 1.0, 1.0))
        auc = 0.5  # undefined without both classes; uninformative default

    return DetectionReport(sensitivity=sensitivity, false_alarm_rate=far, auc=auc,
                           roc=roc, tp=tp, fp=fp, tn=tn, fn=fn)
