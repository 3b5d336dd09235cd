"""Core data model for tracked-object trajectories and CSV ingestion.

A dataset is a collection of per-object trajectories sampled at a fixed frame
interval (0.1 s for the sensor setups this package targets). Each frame is a
``TrackPoint``; per-frame class labels are reduced to a single trajectory
class by majority vote at load time.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .errors import InputError


class ObjectClass(Enum):
    VEHICLE = "vehicle"
    PEDESTRIAN = "pedestrian"
    CYCLIST = "cyclist"
    MISC = "misc"


class Direction(Enum):
    """Compass approach a trajectory enters the intersection from."""

    N = "N"
    E = "E"
    S = "S"
    W = "W"


#: Fixed integer encoding used wherever a direction becomes a model feature.
DIRECTION_CODES = {Direction.N: 0, Direction.E: 1, Direction.S: 2, Direction.W: 3}


class Maneuver(Enum):
    LEFT = "left"
    RIGHT = "right"
    STRAIGHT = "straight"
    #: Movements outside the three supported ones (U-turns, never crossing).
    UNSUPPORTED = "unsupported"


#: The three maneuvers the risk engine reasons about, in canonical order.
SUPPORTED_MANEUVERS = (Maneuver.LEFT, Maneuver.RIGHT, Maneuver.STRAIGHT)

# Accepted spellings for class labels in input files.
_CLASS_ALIASES = {
    "vehicle": ObjectClass.VEHICLE,
    "veh": ObjectClass.VEHICLE,
    "car": ObjectClass.VEHICLE,
    "pedestrian": ObjectClass.PEDESTRIAN,
    "ped": ObjectClass.PEDESTRIAN,
    "cyclist": ObjectClass.CYCLIST,
    "cyclists": ObjectClass.CYCLIST,
    "bicycle": ObjectClass.CYCLIST,
    "misc": ObjectClass.MISC,
}


@dataclass(frozen=True)
class TrackPoint:
    """One timestamped observation of one tracked object.

    Units: seconds, meters, meters/second, radians/second. ``valid`` is false
    exactly when any of x, y, vx, vy is missing or non-finite; yaw rate does
    not affect validity.
    """

    t: float
    x: float
    y: float
    vx: float
    vy: float
    yaw_rate: float = float("nan")
    valid: bool = True

    @staticmethod
    def create(t: float, x: float, y: float, vx: float, vy: float,
               yaw_rate: float = float("nan")) -> "TrackPoint":
        """Build a point, deriving the validity flag from the kinematics."""
        valid = all(math.isfinite(v) for v in (x, y, vx, vy))
        return TrackPoint(t=t, x=x, y=y, vx=vx, vy=vy, yaw_rate=yaw_rate, valid=valid)

    @property
    def speed(self) -> float:
        return math.hypot(self.vx, self.vy)

    @property
    def position(self) -> tuple[float, float]:
        return (self.x, self.y)


@dataclass
class Trajectory:
    """Ordered observation sequence for one object id.

    Instances are treated as immutable after construction; relabeling goes
    through :meth:`with_labels`. Timestamps strictly increase.
    """

    id: str
    object_class: ObjectClass
    points: tuple[TrackPoint, ...]
    entering_direction: Optional[Direction] = None
    maneuver: Optional[Maneuver] = None

    def __post_init__(self) -> None:
        if not self.points:
            raise ValueError(f"trajectory {self.id!r} has no points")
        self.points = tuple(self.points)
        ts = [p.t for p in self.points]
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError(f"trajectory {self.id!r} timestamps are not strictly increasing")

    def __len__(self) -> int:
        return len(self.points)

    @property
    def start_time(self) -> float:
        return self.points[0].t

    @property
    def end_time(self) -> float:
        return self.points[-1].t

    @property
    def duration(self) -> float:
        return self.end_time - self.start_time

    def valid_points(self) -> list[TrackPoint]:
        return [p for p in self.points if p.valid]

    def valid_fraction(self) -> float:
        return sum(p.valid for p in self.points) / len(self.points)

    def first_valid_point(self) -> TrackPoint:
        for p in self.points:
            if p.valid:
                return p
        raise ValueError(f"trajectory {self.id!r} has no valid points")

    def path_length(self) -> float:
        """Cumulative length over consecutive valid points, meters."""
        pts = self.valid_points()
        return float(
            sum(math.hypot(b.x - a.x, b.y - a.y) for a, b in zip(pts, pts[1:]))
        )

    def positions(self, valid_only: bool = True) -> np.ndarray:
        pts = self.valid_points() if valid_only else self.points
        return np.array([[p.x, p.y] for p in pts], dtype=float)

    def times(self, valid_only: bool = True) -> np.ndarray:
        pts = self.valid_points() if valid_only else self.points
        return np.array([p.t for p in pts], dtype=float)

    def with_labels(self, entering_direction: Optional[Direction] = None,
                    maneuver: Optional[Maneuver] = None) -> "Trajectory":
        return replace(self, entering_direction=entering_direction, maneuver=maneuver)


@dataclass
class Dataset:
    """Trajectory collection with unique ids and a shared frame interval."""

    trajectories: list[Trajectory]
    frame_interval: float = 0.1
    geometry: object = None  # Optional[IntersectionGeometry]; set by preprocessing

    def __post_init__(self) -> None:
        ids = [t.id for t in self.trajectories]
        if len(ids) != len(set(ids)):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise ValueError(f"duplicate trajectory ids: {dupes}")

    def __len__(self) -> int:
        return len(self.trajectories)

    def by_id(self, traj_id: str) -> Trajectory:
        for t in self.trajectories:
            if t.id == traj_id:
                return t
        raise KeyError(traj_id)

    def of_class(self, object_class: ObjectClass) -> list[Trajectory]:
        return [t for t in self.trajectories if t.object_class == object_class]

    @property
    def vehicles(self) -> list[Trajectory]:
        return self.of_class(ObjectClass.VEHICLE)

    @property
    def pedestrians(self) -> list[Trajectory]:
        return self.of_class(ObjectClass.PEDESTRIAN)


def majority_vote_label(per_frame_labels: Sequence[ObjectClass]) -> ObjectClass:
    """Most frequent label; ties go to the earliest-appearing tied label."""
    if not per_frame_labels:
        raise ValueError("cannot vote on an empty label list")
    counts: dict[ObjectClass, int] = {}
    for label in per_frame_labels:
        counts[label] = counts.get(label, 0) + 1
    best = max(counts.values())
    for label in per_frame_labels:  # first appearance order breaks ties
        if counts[label] == best:
            return label
    raise AssertionError("unreachable")


# ---------------------------------------------------------------------------
# CSV ingestion / serialization
# ---------------------------------------------------------------------------

#: Canonical column names of the delimited trajectory format.
CANONICAL_COLUMNS = ("t", "id", "class", "x", "y", "vx", "vy", "yaw_rate")

#: Optional label columns written by preprocessing and re-read if present.
LABEL_COLUMNS = ("entering_direction", "maneuver")


@dataclass(frozen=True)
class ColumnSchema:
    """Maps canonical column names onto the header names of a concrete file.

    ``yaw_rate_unit`` is ``"rad_s"`` or ``"deg_s"``; degrees are converted on
    ingestion so yaw rate is always radians/second in memory.
    """

    columns: dict = field(default_factory=lambda: {c: c for c in CANONICAL_COLUMNS})
    yaw_rate_unit: str = "rad_s"

    def __post_init__(self) -> None:
        missing = [c for c in CANONICAL_COLUMNS if c not in self.columns]
        if missing:
            raise InputError(f"schema is missing canonical columns: {missing}")
        if self.yaw_rate_unit not in ("rad_s", "deg_s"):
            raise InputError(f"unknown yaw_rate_unit: {self.yaw_rate_unit!r}")


def _parse_float(raw: str) -> float:
    raw = raw.strip()
    if not raw:
        return float("nan")
    try:
        return float(raw)
    except ValueError:
        return float("nan")


def _parse_class(raw: str) -> ObjectClass:
    key = raw.strip().lower()
    if key in _CLASS_ALIASES:
        return _CLASS_ALIASES[key]
    raise InputError(f"unknown object class label: {raw!r}")


def load_dataset(path: str | Path, schema: Optional[ColumnSchema] = None,
                 frame_interval: float = 0.1) -> Dataset:
    """Read a comma-separated trajectory file into a :class:`Dataset`.

    One row per (object, frame). Rows are grouped by object id, sorted by
    time, and duplicate (id, t) frames are dropped keeping the first
    occurrence. Rows with non-finite kinematics are kept with ``valid=False``.
    The trajectory class is the majority vote over its per-frame labels.
    """
    schema = schema or ColumnSchema()
    path = Path(path)
    if not path.exists():
        raise InputError(f"dataset file not found: {path}")

    with path.open(newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        colmap = {canon: schema.columns[canon] for canon in CANONICAL_COLUMNS}
        missing = [name for name in colmap.values() if name not in header]
        if missing:
            raise InputError(f"{path}: missing required columns {missing}")
        has_labels = all(c in header for c in LABEL_COLUMNS)

        rows_by_id: dict[str, list[dict]] = {}
        for row in reader:
            try:
                t = float(row[colmap["t"]])
            except (ValueError, TypeError):
                continue  # unusable without a timestamp
            rows_by_id.setdefault(str(row[colmap["id"]]).strip(), []).append(
                {"t": t, "row": row}
            )

    if not rows_by_id:
        raise InputError(f"{path}: no usable rows")

    yaw_scale = math.pi / 180.0 if schema.yaw_rate_unit == "deg_s" else 1.0
    trajectories = []
    for traj_id, entries in rows_by_id.items():
        entries.sort(key=lambda e: e["t"])  # stable: file order preserved on ties
        points: list[TrackPoint] = []
        labels: list[ObjectClass] = []
        last_t = None
        direction: Optional[Direction] = None
        maneuver: Optional[Maneuver] = None
        for entry in entries:
            t, row = entry["t"], entry["row"]
            if last_t is not None and t <= last_t:
                continue  # duplicate timestamp: keep first
            last_t = t
            labels.append(_parse_class(row[colmap["class"]]))
            yaw = _parse_float(row[colmap["yaw_rate"]])
            points.append(
                TrackPoint.create(
                    t=t,
                    x=_parse_float(row[colmap["x"]]),
                    y=_parse_float(row[colmap["y"]]),
                    vx=_parse_float(row[colmap["vx"]]),
                    vy=_parse_float(row[colmap["vy"]]),
                    yaw_rate=yaw * yaw_scale if math.isfinite(yaw) else yaw,
                )
            )
            if has_labels:
                d, m = row["entering_direction"].strip(), row["maneuver"].strip()
                direction = Direction(d) if d else direction
                maneuver = Maneuver(m) if m else maneuver
        trajectories.append(
            Trajectory(
                id=traj_id,
                object_class=majority_vote_label(labels),
                points=tuple(points),
                entering_direction=direction,
                maneuver=maneuver,
            )
        )

    return Dataset(trajectories=trajectories, frame_interval=frame_interval)


def save_dataset(dataset: Dataset, path: str | Path, include_labels: bool = True) -> None:
    """Write a dataset back to the canonical delimited format.

    Floats are written with shortest round-trip ``repr`` so that a
    load/save/load cycle is the identity on every numeric field.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    columns = list(CANONICAL_COLUMNS) + (list(LABEL_COLUMNS) if include_labels else [])
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for traj in dataset.trajectories:
            direction = traj.entering_direction.value if traj.entering_direction else ""
            maneuver = traj.maneuver.value if traj.maneuver else ""
            for p in traj.points:
                row = [repr(p.t), traj.id, traj.object_class.value,
                       repr(p.x), repr(p.y), repr(p.vx), repr(p.vy), repr(p.yaw_rate)]
                if include_labels:
                    row += [direction, maneuver]
                writer.writerow(row)
