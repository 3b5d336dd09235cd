"""Core data model for tracked-object trajectories and CSV ingestion.

A dataset is a collection of per-object trajectories sampled at a fixed frame
interval (0.1 s for the sensor setups this package targets). Each trajectory
holds its frames as one float array, a row per frame; per-frame class labels
are reduced to a single trajectory class by majority vote at load time.
"""

from __future__ import annotations

import csv
import io
import math
from collections import Counter
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property
from itertools import repeat
from pathlib import Path
from typing import Collection, Optional, Sequence

import numpy as np

from .errors import InputError, is_finite_number


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


#: Columns of ``Trajectory.points``, in order.
POINT_COLUMNS = ("t", "x", "y", "vx", "vy", "yaw_rate")


@dataclass(eq=False)
class Trajectory:
    """Observation sequence of one object id, one row per frame.

    ``points`` is an ``(n, 6)`` float array with the columns of
    :data:`POINT_COLUMNS`: seconds, meters, meters/second, radians/second.
    Timestamps are finite and strictly increase. A row is valid exactly when
    x, y, vx and vy are all finite; yaw rate does not affect validity.
    Instances are immutable after construction (``points`` is a read-only
    copy); relabeling goes through :meth:`with_labels`.
    """

    id: str
    object_class: ObjectClass
    points: np.ndarray
    entering_direction: Optional[Direction] = None
    maneuver: Optional[Maneuver] = None

    def __post_init__(self) -> None:
        points = np.array(self.points, dtype=float)
        points.flags.writeable = False
        if points.size == 0:
            raise ValueError(f"trajectory {self.id!r} has no points")
        if points.ndim != 2 or points.shape[1] != len(POINT_COLUMNS):
            raise ValueError(f"trajectory {self.id!r} points must be rows of {POINT_COLUMNS}")
        t = points[:, 0]
        if not np.isfinite(t).all():
            raise ValueError(f"trajectory {self.id!r} has non-finite timestamps")
        if np.any(t[1:] <= t[:-1]):
            raise ValueError(f"trajectory {self.id!r} timestamps are not strictly increasing")
        self.points = points
        self.t = t
        self.xy = points[:, 1:3]
        self.v = points[:, 3:5]
        self.yaw_rate = points[:, 5]
        self.valid = np.isfinite(points[:, 1:5]).all(axis=1)
        self.valid.flags.writeable = False

    def __len__(self) -> int:
        return len(self.points)

    @property
    def start_time(self) -> float:
        return float(self.t[0])

    @property
    def end_time(self) -> float:
        return float(self.t[-1])

    @property
    def duration(self) -> float:
        return self.end_time - self.start_time

    @cached_property
    def speed(self) -> np.ndarray:
        """``math.hypot(vx, vy)`` per row, computed on first use; meaningful
        on valid rows only."""
        speed = np.array(list(map(math.hypot, self.v[:, 0].tolist(), self.v[:, 1].tolist())))
        speed.flags.writeable = False
        return speed

    def valid_fraction(self) -> float:
        return int(np.count_nonzero(self.valid)) / len(self)

    def path_length(self) -> float:
        """Cumulative length over consecutive valid points, meters."""
        x, y = self.xy[self.valid].T
        return float(sum(map(math.hypot, np.diff(x).tolist(), np.diff(y).tolist())))

    def with_labels(self, entering_direction: Optional[Direction] = None,
                    maneuver: Optional[Maneuver] = None) -> "Trajectory":
        return replace(self, entering_direction=entering_direction, maneuver=maneuver)


@dataclass
class Dataset:
    """Trajectory collection with unique ids and a shared frame interval."""

    trajectories: list[Trajectory]
    frame_interval: float = 0.1

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


# ---------------------------------------------------------------------------
# CSV ingestion / serialization
# ---------------------------------------------------------------------------

#: Canonical column names of the delimited trajectory format.
CANONICAL_COLUMNS = ("t", "id", "class", "x", "y", "vx", "vy", "yaw_rate")

#: Optional label columns written by preprocessing and re-read if present.
LABEL_COLUMNS = ("entering_direction", "maneuver")


@dataclass(frozen=True)
class DataFormat:
    """How an input trajectory file is laid out: the ``data`` config section.

    ``schema`` maps canonical column names onto the file's header names; a
    column it does not name keeps its canonical name. ``yaw_rate_unit`` is
    ``"rad_s"`` or ``"deg_s"``; degrees are converted on ingestion so yaw
    rate is always radians/second in memory. ``frame_interval`` is the
    sensor's frame spacing in seconds.
    """

    schema: dict = field(default_factory=dict)
    yaw_rate_unit: str = "rad_s"
    frame_interval: float = 0.1

    def __post_init__(self) -> None:
        unknown = sorted(set(self.schema) - set(CANONICAL_COLUMNS))
        if unknown:
            raise InputError(f"unknown canonical column(s) {unknown} in data.schema")
        if not all(isinstance(name, str) for name in self.schema.values()):
            raise InputError(f"data.schema must map to header names, got {self.schema!r}")
        headers = [self.schema.get(c, c) for c in CANONICAL_COLUMNS]
        repeated = sorted({h for h in headers if headers.count(h) > 1})
        if repeated:
            raise InputError(f"data.schema maps several columns onto header(s) {repeated}")
        if self.yaw_rate_unit not in ("rad_s", "deg_s"):
            raise InputError(f"unknown yaw_rate_unit: {self.yaw_rate_unit!r}")
        if not (is_finite_number(self.frame_interval) and self.frame_interval > 0):
            raise InputError("frame_interval must be positive")


def _parse_float(raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        return float("nan")


def _parse_column(raw: list) -> np.ndarray:
    """Floats of one column; blank or unparseable cells become NaN."""
    try:
        return np.fromiter(map(float, raw), float, len(raw))
    except ValueError:
        return np.fromiter(map(_parse_float, raw), float, len(raw))


def _parse_class(raw: str) -> ObjectClass:
    key = raw.strip().lower()
    if key in _CLASS_ALIASES:
        return _CLASS_ALIASES[key]
    raise InputError(f"unknown object class label: {raw!r}")


def _majority_class(raw: Sequence[str]) -> ObjectClass:
    """The most frequent class of the labels ``raw``, parsing each distinct
    text once. A tie goes to the tied class that appears first: counters keep
    first-appearance order, and ``most_common`` sorts stably.
    """
    votes: Counter = Counter()
    for text, n in Counter(raw).items():
        votes[_parse_class(text)] += n
    return votes.most_common(1)[0][0]


def _last_label(raw: Sequence[str], kind: type) -> Optional[Enum]:
    """The last non-empty label as a ``kind`` member; every non-empty label must be one."""
    try:
        parsed = {text: kind(text.strip()) for text in set(raw) if text.strip()}
    except ValueError as exc:
        raise InputError(f"unknown {kind.__name__.lower()} label: {exc}") from None
    return next((parsed[text] for text in reversed(raw) if text in parsed), None)


def _read_cells(path: Path) -> tuple[list, list]:
    """The header and the data cells of a comma-separated file, row after row.

    Blank lines are skipped, and each data row is cut or padded with blank
    cells to the header's width, so column ``i`` is ``cells[i::width]``. Text
    that ``csv.reader`` would split exactly at its commas and line breaks is
    split with ``str.split``: no quote, no lone carriage return, no NUL (which
    ``csv.reader`` rejects before Python 3.11), no line over the field size
    limit and as many cells on every data row as in the header. Any other
    text goes through ``csv.reader``.
    """
    with path.open(newline="", encoding="utf-8-sig") as fh:
        text = fh.read()
    lines = text.replace("\r\n", "\n").split("\n")
    header = lines[0].split(",") if lines[0] else []
    width = len(header)
    rows = list(filter(None, lines[1:]))
    if ('"' not in text and "\0" not in text and text.count("\r") == text.count("\r\n")
            and max(map(len, lines)) <= csv.field_size_limit()
            and set(map(str.count, rows, repeat(","))) <= {width - 1}):
        joined = ",".join(rows)
        del text, lines, rows  # the split below is a load's peak of memory
        return header, joined.split(",") if joined else []
    reader = csv.reader(io.StringIO(text, newline=""))
    header = next(reader, [])
    width = len(header)
    return header, [cell for r in reader if r
                    for cell in (r[:width] + [""] * (width - len(r)))]


def load_dataset(path: str | Path, data: DataFormat = DataFormat(),
                 classes: Optional[Collection[ObjectClass]] = None) -> Dataset:
    """Read a comma-separated trajectory file, laid out as ``data`` says, into
    a :class:`Dataset` with ``data``'s frame interval.

    The file is UTF-8 text, with or without a byte-order mark. One row per
    (object, frame). Rows without a finite timestamp are dropped.
    The rest are grouped by object id in order of first appearance, sorted by
    time, and duplicate (id, t) frames are dropped keeping the first
    occurrence. Rows with non-finite kinematics are kept as invalid rows.
    The trajectory class is the majority vote over its per-frame labels; the
    label columns, when present, take their last non-empty value.

    With ``classes`` given, only the trajectories whose class is one of them
    are built, each as the full load builds it, in the full load's order. The
    t, id, class and label cells are still read and checked for every
    trajectory, so a file the full load rejects is rejected with the same
    :class:`InputError`; the kinematic cells are parsed for the kept
    trajectories only.
    """
    path = Path(path)
    if not path.exists():
        raise InputError(f"dataset file not found: {path}")
    names = {c: data.schema.get(c, c) for c in CANONICAL_COLUMNS}  # canonical -> header

    try:
        header, cells = _read_cells(path)
    except (UnicodeDecodeError, csv.Error) as exc:  # undecodable bytes, an oversized field
        raise InputError(f"dataset file {path} is not readable CSV text: {exc}") from exc
    index = {name: i for i, name in enumerate(header)}  # last duplicate wins
    missing = [name for name in names.values() if name not in index]
    if missing:
        raise InputError(f"{path}: missing required columns {missing}")
    width = len(header)

    def column(name: str) -> list:
        return cells[index[name]::width]

    t = _parse_column(column(names["t"]))
    ids = list(map(str.strip, column(names["id"])))
    groups: dict[str, list[int]] = {}
    for i in np.flatnonzero(np.isfinite(t)).tolist():
        groups.setdefault(ids[i], []).append(i)
    if not groups:
        raise InputError(f"{path}: no usable rows")
    if "" in groups:
        raise InputError(f"{path}: {len(groups[''])} row(s) with a finite timestamp "
                         "have a blank object id")

    class_cells = column(names["class"])
    labels = ({c: column(c) for c in LABEL_COLUMNS}
              if all(c in index for c in LABEL_COLUMNS) else None)
    times = t.tolist()
    kept = []  # (id, class, direction, maneuver, rows) of each trajectory to build
    for traj_id, members in groups.items():
        members.sort(key=times.__getitem__)  # stable: file order preserved on ties
        rows = [members[0]] + [b for a, b in zip(members, members[1:])
                               if times[b] > times[a]]  # duplicate timestamp: keep first
        direction = maneuver = None
        if labels is not None:
            direction = _last_label([labels["entering_direction"][i] for i in rows], Direction)
            maneuver = _last_label([labels["maneuver"][i] for i in rows], Maneuver)
        object_class = _majority_class(list(map(class_cells.__getitem__, rows)))
        if classes is None or object_class in classes:
            kept.append((traj_id, object_class, direction, maneuver, rows))

    order = [i for *_, rows in kept for i in rows]
    if classes is None:  # nearly every row is kept: parse whole columns
        table = np.column_stack([t] + [_parse_column(column(names[c]))
                                       for c in POINT_COLUMNS[1:]])[order]
    else:
        table = np.column_stack([t[order]] + [
            _parse_column(list(map(column(names[c]).__getitem__, order)))
            for c in POINT_COLUMNS[1:]])
    if data.yaw_rate_unit == "deg_s":
        yaw = table[:, 5]
        table[:, 5] = np.where(np.isfinite(yaw), yaw * (math.pi / 180.0), yaw)

    trajectories = []
    lo = 0
    for traj_id, object_class, direction, maneuver, rows in kept:
        trajectories.append(Trajectory(id=traj_id, object_class=object_class,
                                       points=table[lo:lo + len(rows)],
                                       entering_direction=direction, maneuver=maneuver))
        lo += len(rows)
    return Dataset(trajectories=trajectories, frame_interval=data.frame_interval)


def _csv_cell(text: str) -> str:
    """``text`` as a cell of a ``csv.writer`` row: quoted when it holds a
    comma, a quote or a line break."""
    buf = io.StringIO()
    # A second, empty cell: a row of one empty cell would be written as "".
    csv.writer(buf).writerow((text, ""))
    return buf.getvalue()[:-len(",\r\n")]


def save_dataset(dataset: Dataset, path: str | Path, include_labels: bool = True) -> None:
    """Write a dataset back to the canonical delimited format, as UTF-8 text
    with ``csv.writer``'s quoting and ``\\r\\n`` line ends.

    Floats are written with shortest round-trip ``repr`` so that a
    load/save/load cycle is the identity on every numeric field. Each
    trajectory's rows go to the file as one string.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    columns = list(CANONICAL_COLUMNS) + (list(LABEL_COLUMNS) if include_labels else [])
    with path.open("w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(columns) + "\r\n")
        for traj in dataset.trajectories:
            texts = [traj.id, traj.object_class.value]
            if include_labels:
                texts += [traj.entering_direction.value if traj.entering_direction else "",
                          traj.maneuver.value if traj.maneuver else ""]
            traj_id, cls, *labels = map(repeat, map(_csv_cell, texts))
            t, x, y, vx, vy, yaw = (map(repr, col) for col in traj.points.T.tolist())
            rows = zip(t, traj_id, cls, x, y, vx, vy, yaw, *labels)
            fh.write("\r\n".join(map(",".join, rows)) + "\r\n")
