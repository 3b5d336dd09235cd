"""Trajectory preparation: labeling vehicle movements, stitching fragmented
pedestrian tracks, and dropping unusable pedestrian trajectories.

Vehicle labeling is quadrant-based: the entering direction is the quadrant of
the first valid point, and the maneuver comes from the relation between the
entry and exit quadrants. Pedestrian tracks produced by object trackers are
often fragmented, so near-contiguous fragments are merged under four gap
criteria before filtering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import InputError, check_count, check_number
from .geometry import GeometrySettings, IntersectionGeometry
from .trajectory import (
    Dataset,
    Direction,
    Maneuver,
    ObjectClass,
    Trajectory,
)

#: Quadrant rays ordered counterclockwise (by increasing polar angle).
_CCW_ORDER = (Direction.E, Direction.N, Direction.W, Direction.S)


def _ccw_step(d: Direction, steps: int) -> Direction:
    return _CCW_ORDER[(_CCW_ORDER.index(d) + steps) % 4]


@dataclass(frozen=True)
class MergeCriteria:
    """Thresholds linking the end of one pedestrian fragment to the start of
    the next: time gap (s), positional gap (m), heading difference at the
    junction (deg), and whole-trajectory chord-bearing difference (deg)."""

    max_time_gap: float = 0.2
    max_distance_gap: float = 1.0
    max_heading_diff: float = 90.0
    max_traj_angle_diff: float = 120.0

    def __post_init__(self) -> None:
        for name in ("max_time_gap", "max_distance_gap", "max_heading_diff",
                     "max_traj_angle_diff"):
            check_number(getattr(self, name), f"preprocess.merge.{name}", positive=True)


@dataclass(frozen=True)
class FilterSettings:
    """Thresholds for discarding pedestrian trajectories after merging."""

    min_duration: float = 1.0
    min_path_length: float = 5.0
    max_invalid_fraction: float = 0.5
    speed_limit: float = 3.0
    speed_run_length: int = 10
    min_region_fraction: float = 0.5
    max_offcrosswalk_fraction: float = 0.2

    def __post_init__(self) -> None:
        where = "preprocess.filter"
        for name in ("min_duration", "min_path_length"):
            check_number(getattr(self, name), f"{where}.{name}")
        check_number(self.speed_limit, f"{where}.speed_limit", positive=True)
        check_count(self.speed_run_length, f"{where}.speed_run_length")
        for name in ("max_invalid_fraction", "min_region_fraction", "max_offcrosswalk_fraction"):
            check_number(getattr(self, name), f"{where}.{name}", at_most=1.0)


@dataclass
class PreprocessConfig:
    """The ``preprocess`` config section: the density grid's cell size (m) for
    endpoint estimation, and the merge, filter and geometry settings."""

    cell_size: float = 0.5
    merge: MergeCriteria = field(default_factory=MergeCriteria)
    filter: FilterSettings = field(default_factory=FilterSettings)
    geometry: GeometrySettings = field(default_factory=GeometrySettings)

    def __post_init__(self) -> None:
        check_number(self.cell_size, "preprocess.cell_size", positive=True)


def classify_entering_direction(traj: Trajectory, geom: IntersectionGeometry) -> Direction:
    """Quadrant of the first valid point, as a compass label."""
    rows = np.flatnonzero(traj.valid)
    if rows.size == 0:
        raise ValueError(f"trajectory {traj.id!r} has no valid points")
    return geom.quadrant(traj.xy[rows[0]].tolist())


def classify_movement(traj: Trajectory, geom: IntersectionGeometry) -> Maneuver:
    """Map the visited-quadrant sequence to a maneuver.

    Consecutive repeats are collapsed. Exit opposite the entry is straight;
    exit one quadrant counterclockwise of the entry is a left turn and one
    clockwise a right turn. Anything else (never crossing, returning to the
    entry quadrant) is unsupported.
    """
    sequence: list[Direction] = []
    for point in traj.xy[traj.valid].tolist():
        q = geom.quadrant(point)
        if not sequence or sequence[-1] != q:
            sequence.append(q)
    if len(sequence) < 2:
        return Maneuver.UNSUPPORTED
    entry, exit_ = sequence[0], sequence[-1]
    if exit_ == _ccw_step(entry, 2):
        return Maneuver.STRAIGHT
    if exit_ == _ccw_step(entry, 1):
        return Maneuver.LEFT
    if exit_ == _ccw_step(entry, -1):
        return Maneuver.RIGHT
    return Maneuver.UNSUPPORTED


# ---------------------------------------------------------------------------
# Pedestrian trajectory merging
# ---------------------------------------------------------------------------


def _bearing(dx: float, dy: float) -> Optional[float]:
    if math.hypot(dx, dy) < 1e-12:
        return None
    return math.degrees(math.atan2(dy, dx))


def _angle_diff(a: float, b: float) -> float:
    d = abs(a - b) % 360.0
    return 360.0 - d if d > 180.0 else d


def _endpoint_heading(window: list, at_start: bool) -> Optional[float]:
    """Heading at a fragment boundary from the 3 valid rows nearest it, as
    ``[x, y, vx, vy]`` lists: velocity direction if the endpoint is moving,
    else displacement over the window."""
    _, _, vx, vy = window[0] if at_start else window[-1]
    if math.hypot(vx, vy) >= 0.1:
        return _bearing(vx, vy)
    if len(window) < 2:
        return None
    return _bearing(window[-1][0] - window[0][0], window[-1][1] - window[0][1])


class _Ends(NamedTuple):
    """What linking reads of a fragment or chain with valid points."""

    start_time: float
    end_time: float
    first: list  # [x, y, vx, vy] of the first valid row
    last: list  # ... and of the last
    start_heading: Optional[float]
    end_heading: Optional[float]
    chord: Optional[float]  # bearing from the first to the last valid row


def _ends(traj: Trajectory) -> Optional[_Ends]:
    """The trajectory's link summary; ``None`` without valid points."""
    rows = traj.points[traj.valid, 1:5]
    if len(rows) == 0:
        return None
    head, tail = rows[:3].tolist(), rows[-3:].tolist()
    first, last = head[0], tail[-1]
    chord = _bearing(last[0] - first[0], last[1] - first[1]) if len(rows) >= 2 else None
    return _Ends(traj.start_time, traj.end_time, first, last,
                 _endpoint_heading(head, at_start=True),
                 _endpoint_heading(tail, at_start=False), chord)


def _link_key(head: _Ends, tail: _Ends,
              criteria: MergeCriteria) -> Optional[tuple[float, float, float]]:
    """(time gap, distance, heading diff) if ``tail`` can extend ``head``."""
    gap = tail.start_time - head.end_time
    if not (0.0 < gap <= criteria.max_time_gap):
        return None
    a, b = head.last, tail.first
    dist = math.hypot(b[0] - a[0], b[1] - a[1])
    if dist > criteria.max_distance_gap:
        return None
    if head.end_heading is None or tail.start_heading is None:
        return None
    heading_diff = _angle_diff(head.end_heading, tail.start_heading)
    # 1e-9 deg slack so thresholds hold at their boundaries despite atan2 noise
    if heading_diff > criteria.max_heading_diff + 1e-9:
        return None
    if head.chord is None or tail.chord is None:
        return None
    if _angle_diff(head.chord, tail.chord) > criteria.max_traj_angle_diff + 1e-9:
        return None
    return (gap, dist, heading_diff)


def merge_pedestrian_trajectories(trajs: Sequence[Trajectory],
                                  criteria: MergeCriteria = MergeCriteria()
                                  ) -> list[Trajectory]:
    """Greedily chain fragments that look like one pedestrian.

    Fragments are processed in start-time order. Each chain repeatedly
    absorbs the best candidate continuation (lexicographic smallest time gap,
    then distance, then heading difference); every input fragment is consumed
    at most once, so a second pass over the output is a no-op once all gaps
    are used up.
    """
    for t in trajs:
        if t.object_class != ObjectClass.PEDESTRIAN:
            raise InputError(f"trajectory {t.id!r} is not a pedestrian")
    pool = sorted(trajs, key=lambda t: (t.start_time, t.id))
    candidates = [(t, e) for t in pool if (e := _ends(t)) is not None]
    consumed: set[str] = set()
    merged: list[Trajectory] = []
    for head in pool:
        if head.id in consumed:
            continue
        chain, chain_ends = head, _ends(head)
        while chain_ends is not None:
            best = None
            best_key = None
            for tail, tail_ends in candidates:
                if tail.id in consumed or tail.id == head.id:
                    continue
                key = _link_key(chain_ends, tail_ends, criteria)
                if key is not None and (best_key is None or key < best_key):
                    best, best_key = tail, key
            if best is None:
                break
            consumed.add(best.id)
            chain = Trajectory(
                id=chain.id,
                object_class=ObjectClass.PEDESTRIAN,
                points=np.concatenate([chain.points, best.points]),
            )
            chain_ends = _ends(chain)
        merged.append(chain)
    return merged


# ---------------------------------------------------------------------------
# Pedestrian trajectory filtering
# ---------------------------------------------------------------------------


def _max_fast_run(traj: Trajectory, speed_limit: float) -> int:
    run = best = 0
    for fast in (traj.valid & (traj.speed >= speed_limit)).tolist():
        run = run + 1 if fast else 0
        best = max(best, run)
    return best


def _violated_rules(traj: Trajectory, geom: Optional[IntersectionGeometry],
                    settings: FilterSettings) -> list[str]:
    rules = []
    if traj.duration <= settings.min_duration or traj.path_length() <= settings.min_path_length:
        rules.append("too_short")
    if (1.0 - traj.valid_fraction()) >= settings.max_invalid_fraction:
        rules.append("invalid_points")
    if _max_fast_run(traj, settings.speed_limit) >= settings.speed_run_length:
        rules.append("too_fast")
    if geom is not None:
        xy = traj.xy[traj.valid]
        valid = xy.tolist()
        if valid:
            in_any = off_cross = 0
            for p, roadway in zip(valid, geom.roadway_mask(xy).tolist()):
                crosswalk = geom.in_crosswalk_region(p)
                in_any += crosswalk or roadway
                off_cross += roadway and not crosswalk
            if in_any / len(valid) < settings.min_region_fraction:
                rules.append("outside_regions")
            elif off_cross / len(valid) > settings.max_offcrosswalk_fraction:
                rules.append("leaves_crosswalk")
        else:
            rules.append("outside_regions")
    return rules


def filter_pedestrian_trajectories(
    trajs: Sequence[Trajectory],
    geom: Optional[IntersectionGeometry],
    settings: FilterSettings = FilterSettings(),
) -> tuple[list[Trajectory], dict]:
    """Keep trajectories violating no rule; report which rules removed the rest."""
    kept = []
    removed: dict[str, list[str]] = {}
    for traj in trajs:
        rules = _violated_rules(traj, geom, settings)
        if rules:
            removed[traj.id] = rules
        else:
            kept.append(traj)
    return kept, removed


# ---------------------------------------------------------------------------
# Full preprocessing pass
# ---------------------------------------------------------------------------


@dataclass
class PreprocessReport:
    input_counts: dict = field(default_factory=dict)
    vehicles_labeled: int = 0
    vehicles_unsupported: int = 0
    vehicles_no_valid_points: int = 0
    cluster_counts: dict = field(default_factory=dict)  # "S:left" -> count
    pedestrian_merges: int = 0
    pedestrians_removed: dict = field(default_factory=dict)  # id -> [rules]
    removal_counts: dict = field(default_factory=dict)  # rule -> count
    pedestrians_retained: int = 0

    def to_text(self) -> str:
        lines = ["preprocessing report", "===================="]
        lines.append("input counts:")
        for k in sorted(self.input_counts):
            lines.append(f"  {k}: {self.input_counts[k]}")
        lines.append(f"vehicles labeled: {self.vehicles_labeled}")
        lines.append(f"vehicles unsupported movement: {self.vehicles_unsupported}")
        lines.append(f"vehicles without valid points: {self.vehicles_no_valid_points}")
        lines.append("vehicle clusters (direction:maneuver):")
        for key in sorted(self.cluster_counts):
            lines.append(f"  {key}: {self.cluster_counts[key]}")
        lines.append(f"pedestrian fragments merged: {self.pedestrian_merges}")
        lines.append("pedestrian removals per rule:")
        for rule in sorted(self.removal_counts):
            lines.append(f"  {rule}: {self.removal_counts[rule]}")
        lines.append(f"pedestrians retained: {self.pedestrians_retained}")
        return "\n".join(lines) + "\n"


def preprocess_dataset(
    dataset: Dataset,
    geometry: IntersectionGeometry,
    merge_criteria: MergeCriteria = MergeCriteria(),
    filter_settings: FilterSettings = FilterSettings(),
) -> tuple[Dataset, PreprocessReport]:
    """Label vehicles, merge and filter pedestrians.

    Vehicles whose movement cannot be mapped to left/right/straight are
    excluded; cyclists and misc objects pass through untouched.
    """
    report = PreprocessReport()
    for cls in ObjectClass:
        report.input_counts[cls.value] = len(dataset.of_class(cls))

    out: list[Trajectory] = []
    for traj in dataset.vehicles:
        try:
            direction = classify_entering_direction(traj, geometry)
        except ValueError:
            report.vehicles_no_valid_points += 1
            continue
        maneuver = classify_movement(traj, geometry)
        if maneuver == Maneuver.UNSUPPORTED:
            report.vehicles_unsupported += 1
            continue
        out.append(traj.with_labels(entering_direction=direction, maneuver=maneuver))
        report.vehicles_labeled += 1
        key = f"{direction.value}:{maneuver.value}"
        report.cluster_counts[key] = report.cluster_counts.get(key, 0) + 1

    peds = dataset.pedestrians
    merged = merge_pedestrian_trajectories(peds, merge_criteria)
    report.pedestrian_merges = len(peds) - len(merged)
    kept, removed = filter_pedestrian_trajectories(merged, geometry, filter_settings)
    report.pedestrians_removed = removed
    for rules in removed.values():
        for rule in rules:
            report.removal_counts[rule] = report.removal_counts.get(rule, 0) + 1
    report.pedestrians_retained = len(kept)
    out.extend(kept)

    for cls in (ObjectClass.CYCLIST, ObjectClass.MISC):
        out.extend(dataset.of_class(cls))

    return Dataset(trajectories=out, frame_interval=dataset.frame_interval), report
