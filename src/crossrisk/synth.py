"""Deterministic synthetic intersection scenarios with known ground truth.

The canonical intersection is axis-aligned and centered at the origin: four
crosswalk lines at +/-10 m spanning +/-8 m, vehicles on lanes offset 1.75 m
from the road centerlines, quarter-circle turn arcs tangent to the approach
and exit lanes. Vehicles decelerate into turns and accelerate out;
pedestrians funnel through a crosswalk endpoint, cross with a small lateral
bow, and disperse. Engineered conflicts time a pedestrian and a turning
vehicle through a common point so that the measured encroachment time equals
the requested value; all other crossing events are spaced far enough apart in
time to stay conflict-free.
"""

from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import InputError, check_number, is_finite_number
from .geometry import (
    CROSSWALK_HALF,
    CROSSWALK_OFFSET,
    CROSSWALK_SEGMENTS,
    canonical_endpoints,
)
from .trajectory import (
    Dataset,
    Direction,
    Maneuver,
    ObjectClass,
    SUPPORTED_MANEUVERS,
    Trajectory,
)

# Canonical intersection layout (meters); the crosswalks are geometry's.
LANE_OFFSET = 1.75
START_DIST = 30.0
END_DIST = 34.0
LEFT_TURN_RADIUS = 9.0
RIGHT_TURN_RADIUS = 7.0
DECEL_LENGTH = 12.0
ACCEL_LENGTH = 10.0
PED_APPROACH_LENGTH = 2.5

#: Rotation (radians, counterclockwise) mapping the canonical south-entry
#: frame onto each entering direction.
_ENTRY_ROTATION = {
    Direction.S: 0.0,
    Direction.E: math.pi / 2.0,
    Direction.N: math.pi,
    Direction.W: 3.0 * math.pi / 2.0,
}

_EPISODE_PERIOD = 26.0
_FIRST_EPISODE_CENTER = 18.0

GROUND_TRUTH_VERSION = 1


@dataclass(frozen=True)
class ScenarioSpec:
    """Everything that determines a generated scene, including its seed: the
    ``synth`` config section, apart from ``frame_interval``, which the config
    takes from ``data.frame_interval``."""

    seed: int = 0
    n_vehicles_per_cell: int = 4
    n_pedestrians_per_crosswalk: int = 2
    n_engineered_conflicts: int = 0
    requested_pet_range: tuple = (0.8, 2.5)
    n_fast_pedestrians: int = 0
    noise_std_position: float = 0.1
    noise_std_velocity: float = 0.1
    cruise_speed: float = 11.0
    turn_speed: float = 6.0
    pedestrian_speed: float = 1.4
    frame_interval: float = 0.1
    pet_zone_radius: float = 1.0
    min_separation: float = 5.5

    def __post_init__(self) -> None:
        if min(self.n_vehicles_per_cell, self.n_pedestrians_per_crosswalk,
               self.n_engineered_conflicts, self.n_fast_pedestrians) < 0:
            raise InputError("entity counts must be nonnegative")
        for name in ("noise_std_position", "noise_std_velocity", "min_separation"):
            check_number(getattr(self, name), f"synth.{name}")
        for name in ("cruise_speed", "turn_speed", "pedestrian_speed", "pet_zone_radius"):
            check_number(getattr(self, name), f"synth.{name}", positive=True)
        check_number(self.frame_interval, "frame_interval", positive=True)
        if self.seed < 0:
            raise InputError("synth.seed must be nonnegative")
        if len(self.requested_pet_range) != 2 or not all(
                is_finite_number(v) for v in self.requested_pet_range):
            raise InputError("synth.requested_pet_range must hold two finite numbers, got "
                             f"{self.requested_pet_range!r}")
        lo, hi = self.requested_pet_range
        if not 0 < lo <= hi:
            raise InputError("synth.requested_pet_range must be positive and ordered")


@dataclass(frozen=True)
class ConflictTruth:
    vehicle_id: str
    pedestrian_id: str
    requested_pet: float
    point: tuple
    t_vehicle: float
    t_pedestrian: float

    @property
    def pair(self) -> tuple[str, str]:
        return (self.vehicle_id, self.pedestrian_id)


@dataclass
class GroundTruth:
    vehicles: dict = field(default_factory=dict)  # id -> (Direction, Maneuver)
    pedestrian_crosswalks: dict = field(default_factory=dict)  # id -> Direction
    conflicts: list = field(default_factory=list)


def write_ground_truth(truth: GroundTruth, path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "version": GROUND_TRUTH_VERSION,
        "vehicles": {
            vid: {"direction": d.value, "maneuver": m.value}
            for vid, (d, m) in sorted(truth.vehicles.items())
        },
        "pedestrians": {
            pid: {"crosswalk": d.value}
            for pid, d in sorted(truth.pedestrian_crosswalks.items())
        },
        "conflicts": [
            {
                "vehicle_id": c.vehicle_id,
                "pedestrian_id": c.pedestrian_id,
                "requested_pet": c.requested_pet,
                "point": list(c.point),
                "t_vehicle": c.t_vehicle,
                "t_pedestrian": c.t_pedestrian,
            }
            for c in truth.conflicts
        ],
    }
    path.write_text(json.dumps(payload, indent=1, sort_keys=True))


# ---------------------------------------------------------------------------
# Path primitives
# ---------------------------------------------------------------------------


class _Path:
    """Pieces joined end to end and parametrized by arc length: lines
    ``("line", p0, p1)`` and circular arcs ``("arc", center, radius, theta0,
    theta1)``; pieces no longer than 1e-9 are dropped. With an ``angle``
    (radians, counterclockwise) every sample is rotated by it. ``None`` is no
    rotation, unlike 0.0, whose rotation can flip the sign of a zero."""

    def __init__(self, pieces: Sequence[tuple], angle: float | None = None):
        self.angle = angle
        self.pieces, self.lengths = [], []
        for piece in pieces:
            if piece[0] == "line":
                _, p0, p1 = piece
                piece = ("line", np.asarray(p0, dtype=float), np.asarray(p1, dtype=float))
                length = float(np.linalg.norm(piece[2] - piece[1]))
            else:
                _, center, radius, theta0, theta1 = piece
                piece = ("arc", np.asarray(center, dtype=float), radius, theta0, theta1)
                length = radius * abs(theta1 - theta0)
            if length > 1e-9:
                self.pieces.append(piece)
                self.lengths.append(length)
        self.cum = np.concatenate([[0.0], np.cumsum(self.lengths)])
        self.total = float(self.cum[-1])
        # line origins and directions by piece; arc rows stay zero
        self._p0 = np.zeros((len(self.pieces), 2))
        self._dir = np.zeros((len(self.pieces), 2))
        for k, (kind, p0, p1, *_) in enumerate(self.pieces):
            if kind == "line":
                self._p0[k], self._dir[k] = p0, (p1 - p0) / self.lengths[k]
        self._arcs = [k for k, piece in enumerate(self.pieces) if piece[0] == "arc"]

    def sample(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(positions, unit tangents, curvatures) at arc lengths ``s``,
        clamped to the path."""
        s = np.clip(s, 0.0, self.total)
        i = np.minimum(np.searchsorted(self.cum, s, side="right") - 1,
                       len(self.pieces) - 1)
        local = s - self.cum[i]
        pos = self._p0[i] + self._dir[i] * local[:, None]
        tangent = self._dir[i]
        curvature = np.zeros(len(s))
        for k in self._arcs:
            on = i == k
            _, center, radius, theta0, theta1 = self.pieces[k]
            theta = (theta0 + (theta1 - theta0) * (local[on] / self.lengths[k])).tolist()
            # math, not np.cos/np.sin: numpy's float64 kernels may differ from
            # libm in the last bit on some builds, and a scene's bytes must not
            # depend on the build
            cos = np.array([math.cos(x) for x in theta])
            sin = np.array([math.sin(x) for x in theta])
            sign = 1.0 if theta1 > theta0 else -1.0
            pos[on] = center + radius * np.column_stack([cos, sin])
            tangent[on] = sign * np.column_stack([-sin, cos])
            curvature[on] = 1.0 / radius
        if self.angle is not None:
            pos, tangent = _rotate(pos, self.angle), _rotate(tangent, self.angle)
        return pos, tangent, curvature


def _rotate(points: np.ndarray, angle: float) -> np.ndarray:
    """Rotate each ``(x, y)`` row by ``angle``. Every row is its own
    (1, 2) @ (2, 2) product, the BLAS call that rotating one point makes, so a
    row rounds the same in any batch."""
    c, s = math.cos(angle), math.sin(angle)
    rot = np.array([[c, -s], [s, c]])
    return (points[:, None, :] @ rot.T)[:, 0, :]


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product of each row of ``a`` with ``b`` (one vector, or one row
    each). Every row goes through the BLAS dot that ``np.dot`` of two
    2-vectors uses, which can round differently from ``(a * b).sum(1)``."""
    return (a[:, None, :] @ b[..., :, None])[:, 0, 0]


def _vehicle_geometry(maneuver: Maneuver, cruise: float, turn: float, angle: float
                      ) -> tuple[_Path, tuple]:
    """Path for one maneuver, the canonical south-entry path rotated by
    ``angle``, with its speed profile: the ``(knots_s, knots_v)`` of a
    piecewise-linear speed over arc length, read with ``np.interp(s, *profile)``.

    Left turns exit into the quadrant counterclockwise of the entry (east for
    a south entry), right turns clockwise of it (west), matching the movement
    labeling convention used by preprocessing.
    """
    lane = LANE_OFFSET
    if maneuver == Maneuver.STRAIGHT:
        path = _Path([("line", (lane, -START_DIST), (lane, END_DIST))], angle)
        return path, ([0.0, path.total], [cruise, cruise])
    if maneuver == Maneuver.LEFT:
        r, exit_y, theta0, exit_x = LEFT_TURN_RADIUS, -LANE_OFFSET, math.pi, END_DIST
        center = (lane + r, exit_y - r)
    else:  # RIGHT: exit west
        r, exit_y, theta0, exit_x = RIGHT_TURN_RADIUS, LANE_OFFSET, 0.0, -END_DIST
        center = (lane - r, exit_y - r)
    path = _Path([
        ("line", (lane, -START_DIST), (lane, exit_y - r)),
        ("arc", center, r, theta0, math.pi / 2.0),
        ("line", (center[0], exit_y), (exit_x, exit_y)),
    ], angle)
    arc_start, arc_end = path.cum[1], path.cum[2]
    return path, ([0.0, max(0.0, arc_start - DECEL_LENGTH), arc_start, arc_end,
                   min(path.total, arc_end + ACCEL_LENGTH), path.total],
                  [cruise, cruise, turn, turn, cruise, cruise])


def _pedestrian_path(crosswalk: Direction, reverse: bool, lateral_offset: float,
                     approach_angle: float) -> _Path:
    """Polyline from an approach fan through one endpoint, across the
    crosswalk with a sinusoidal lateral bow, out past the far endpoint."""
    a, b = _crosswalk_axis(crosswalk)
    if reverse:
        a, b = b, a
    axis = (b - a) / np.linalg.norm(b - a)
    normal = np.array([-axis[1], axis[0]])

    back = -axis
    ca, sa = math.cos(approach_angle), math.sin(approach_angle)
    fan = np.array([ca * back[0] - sa * back[1], sa * back[0] + ca * back[1]])
    start = a + fan * PED_APPROACH_LENGTH

    u = np.linspace(0.0, 1.0, 81)
    bow = np.sin(math.pi * u) * lateral_offset
    curve = a[None, :] + u[:, None] * (b - a)[None, :] + bow[:, None] * normal[None, :]
    exit_pt = b + axis * PED_APPROACH_LENGTH

    waypoints = np.vstack([start[None, :], curve, exit_pt[None, :]])
    return _Path([("line", p0, p1) for p0, p1 in zip(waypoints[:-1], waypoints[1:])])


# ---------------------------------------------------------------------------
# Motion integration and sampling
# ---------------------------------------------------------------------------


def _integrate_motion(total_length: float, profile: tuple, dt: float,
                      substeps: int = 10) -> tuple[np.ndarray, np.ndarray]:
    """Dense (time, arc length) table for motion along a path.

    Each substep h moves ``s <- min(total, s + v(s) h)``, with v the profile's
    ``np.interp`` formula evaluated inline, until ``s`` reaches the end or the
    speed drops to 1e-6. At a knot, v is the knot's speed, as in ``np.interp``:
    the slope to a knot a subnormal distance away overflows to infinity, and
    infinity times zero is NaN. Where the speed is constant between two knots,
    the steps are one ``np.add.accumulate``, which adds in sequence like a loop.
    """
    h = dt / substeps
    max_steps = int(3600.0 / h) + 2  # t is past one hour after this many steps
    # np.interp holds the end values beyond the knots: pad with constant pieces
    knots_s, knots_v = (np.asarray(k, dtype=float).tolist() for k in profile)
    knots_s, knots_v = [-math.inf, *knots_s, math.inf], [knots_v[0], *knots_v, knots_v[-1]]
    pieces = [np.zeros(1)]
    s, n = 0.0, 0
    while s < total_length and n <= max_steps:
        j = bisect.bisect_right(knots_s, s) - 1
        x0, v0 = knots_s[j], knots_v[j]
        slope = (knots_v[j + 1] - v0) / (knots_s[j + 1] - x0)
        stop = min(knots_s[j + 1], total_length)
        budget = max_steps + 1 - n
        if slope == 0.0:
            if v0 <= 1e-6:
                break
            inc = v0 * h
            m = min(int((stop - s) / inc) + 2, budget)
            run = np.add.accumulate(np.concatenate([[s], np.full(m, inc)]))[1:]
            run = run[:int(np.searchsorted(run, stop)) + 1]  # through the first >= stop
            run[-1] = min(total_length, run[-1])
        else:
            run = []
            v = v0 if s == x0 else slope * (s - x0) + v0
            while v > 1e-6 and s < stop and len(run) < budget:
                s = min(total_length, s + v * h)
                run.append(s)
                v = v0 if s == x0 else slope * (s - x0) + v0
            if not run:
                break
            run = np.asarray(run)
        pieces.append(run)
        n += len(run)
        s = float(run[-1])
    t = np.add.accumulate(np.concatenate([[0.0], np.full(n, h)]))
    if t[-1] > 3600.0:
        raise InputError("path integration exceeded one hour; bad speed profile")
    return t, np.concatenate(pieces)


def _sample_track(entity_id: str, object_class: ObjectClass, path: _Path, profile: tuple,
                  t_dense: np.ndarray, s_dense: np.ndarray, launch_frame: int,
                  noise_seed: int, spec: ScenarioSpec) -> Trajectory:
    """The observed track of an entity launched at ``launch_frame`` that moves
    along ``path`` by its ``(t_dense, s_dense)`` table, one row per frame,
    with the spec's position and velocity noise drawn from ``noise_seed``."""
    dt, noise_pos, noise_vel = spec.frame_interval, spec.noise_std_position, spec.noise_std_velocity
    n_frames = int(math.floor(t_dense[-1] / dt)) + 1
    s = np.interp(np.arange(n_frames) * dt, t_dense, s_dense)
    pos, tangent, curvature = path.sample(s)
    v = np.interp(s, *profile)
    vel = v[:, None] * tangent
    # Per frame, position noise then velocity noise: the same draws, in the
    # same order and with the same values, as rng.normal(0, scale, 2) twice
    # a frame.
    z = np.random.default_rng(noise_seed).standard_normal(
        (n_frames, 2 * (noise_pos > 0) + 2 * (noise_vel > 0)))
    if noise_pos > 0:
        pos = pos + (0.0 + noise_pos * z[:, :2])
    if noise_vel > 0:
        vel = vel + (0.0 + noise_vel * z[:, -2:])
    t = [round((launch_frame + k) * dt, 6) for k in range(n_frames)]
    return Trajectory(id=entity_id, object_class=object_class,
                      points=np.column_stack([t, pos, vel, np.abs(v * curvature)]))


# ---------------------------------------------------------------------------
# Crossing bookkeeping for conflict-free scheduling
# ---------------------------------------------------------------------------

_CROSSWALK_LINES = {
    Direction.N: ("y", CROSSWALK_OFFSET),
    Direction.S: ("y", -CROSSWALK_OFFSET),
    Direction.E: ("x", CROSSWALK_OFFSET),
    Direction.W: ("x", -CROSSWALK_OFFSET),
}


def _vehicle_crossings(path, step: float = 0.25) -> list:
    """(crosswalk, arc length, spot) for each crosswalk line the path crosses."""
    s_grid = np.arange(0.0, path.total + step, step)
    pts = path.sample(s_grid)[0]
    crossings = []
    for cw, (axis, level) in _CROSSWALK_LINES.items():
        coord = pts[:, 0] if axis == "x" else pts[:, 1]
        f = coord - level
        # predicate change catches transversal crossings, including exact zeros
        for i in np.nonzero((f[:-1] <= 0.0) != (f[1:] <= 0.0))[0]:
            frac = f[i] / (f[i] - f[i + 1])
            spot = pts[i] + frac * (pts[i + 1] - pts[i])
            span = spot[0] if axis == "y" else spot[1]
            if abs(span) <= CROSSWALK_HALF + 0.5:
                s_star = float(s_grid[i] + frac * step)
                crossings.append((cw, s_star, (float(spot[0]), float(spot[1]))))
    return crossings


def _crosswalk_axis(cw: Direction) -> tuple[np.ndarray, np.ndarray]:
    endpoints = canonical_endpoints()
    key_a, key_b = CROSSWALK_SEGMENTS[cw]
    return np.asarray(endpoints[key_a], float), np.asarray(endpoints[key_b], float)


def _fractions_along(spots: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Where each spot projects onto the segment a->b, as a fraction of the
    way from a to b clamped to [0, 1]."""
    seg = b - a
    return np.clip(_row_dots(spots - a, seg) / np.dot(seg, seg), 0.0, 1.0)


class _Schedule:
    """Reserved crossing times, appended to as entities are scheduled; keeps
    unrelated vehicle/pedestrian crossings separated by the scenario's minimum
    time gap."""

    def __init__(self, min_separation: float):
        self.min_separation = min_separation
        self.vehicle_crossings: list = []  # (crosswalk, spot, t_abs)
        self.ped_traversals: list = []  # (crosswalk, t_at_a, t_at_b, a, b)

    def clear(self, t_vehicle: np.ndarray, fractions: np.ndarray,
              t_a: float, t_b: float) -> bool:
        """Whether vehicle crossings at times ``t_vehicle`` all keep the
        minimum gap to a pedestrian who passes each crossing spot a fraction
        ``fractions`` of the way through a traversal from t_a to t_b."""
        t_ped = t_a + fractions * (t_b - t_a)
        return not np.any(np.abs(t_vehicle - t_ped) < self.min_separation)

    def vehicle_ok(self, crossings_abs) -> bool:
        for cw, t_a, t_b, a, b in self.ped_traversals:
            mine = [(spot, t) for c, spot, t in crossings_abs if c == cw]
            if mine:
                spots, times = zip(*mine)
                if not self.clear(np.array(times), _fractions_along(np.array(spots), a, b),
                                  t_a, t_b):
                    return False
        return True

    def vehicles_on(self, cw, a: np.ndarray, b: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
        """Times of the reserved vehicle crossings of ``cw`` and the fraction
        of the way from a to b at which each crosses."""
        mine = [(spot, t) for c, spot, t in self.vehicle_crossings if c == cw]
        spots = np.array([spot for spot, _ in mine]).reshape(-1, 2)
        return np.array([t for _, t in mine]), _fractions_along(spots, a, b)


# ---------------------------------------------------------------------------
# Scenario generation
# ---------------------------------------------------------------------------


def _quantize_frame(t: float, dt: float) -> int:
    return max(0, int(round(t / dt)))


def _find_launch(base: float, duration: float, horizon: float, dt: float,
                 fits, kind: str) -> int:
    """First launch frame that ``fits`` accepts for an entity moving for
    ``duration`` s: try ``base + 1.7 k`` s for k < 600, wrapped to
    ``1.7 k mod horizon`` when the entity would still move 60 s past the
    horizon."""
    for attempt in range(600):
        launch = _quantize_frame(base + attempt * 1.7, dt)
        if launch * dt + duration > horizon + 60.0:
            launch = _quantize_frame((attempt * 1.7) % horizon, dt)
        if fits(launch):
            return launch
    raise InputError(f"could not schedule a conflict-free {kind}")


def generate_scenario(spec: ScenarioSpec) -> tuple[Dataset, GroundTruth]:
    """Build a deterministic scene from a scenario description; same seed,
    same bytes.

    Returns the observed dataset plus ground truth: each vehicle's entering
    direction and maneuver, each pedestrian's crosswalk, and the engineered
    conflict list with requested encroachment times.
    """
    dt = spec.frame_interval
    rng = np.random.default_rng(spec.seed)
    schedule = _Schedule(spec.min_separation)
    trajectories: list[Trajectory] = []
    truth = GroundTruth()
    veh_counter = 0
    ped_counter = 0
    horizon = _FIRST_EPISODE_CENTER + _EPISODE_PERIOD * max(1, spec.n_engineered_conflicts) + 30.0

    def jitter(base: float, frac: float = 0.03) -> float:
        return base * (1.0 + frac * (2.0 * rng.random() - 1.0))

    route_crossings: dict = {}  # (direction, maneuver) -> crossings of its path

    def make_vehicle(direction: Direction, maneuver: Maneuver):
        """Build one vehicle plus the crossing times of its whole maneuver
        hypothesis fan; scheduling against the counterfactual paths keeps the
        risk engine's wrong-maneuver rollouts conflict-free too."""
        nonlocal veh_counter
        cruise, turn = jitter(spec.cruise_speed), jitter(spec.turn_speed)
        hypothesis_crossings = []
        chosen = None
        for m in SUPPORTED_MANEUVERS:
            path_m, profile_m = _vehicle_geometry(m, cruise, turn, _ENTRY_ROTATION[direction])
            t_m, s_m = _integrate_motion(path_m.total, profile_m, dt)
            if (direction, m) not in route_crossings:
                route_crossings[direction, m] = _vehicle_crossings(path_m)
            crossings_m = route_crossings[direction, m]
            for cw, s_star, spot in crossings_m:
                hypothesis_crossings.append((cw, float(np.interp(s_star, s_m, t_m)), spot))
            if m == maneuver:
                chosen = (path_m, profile_m, t_m, s_m, crossings_m)
        path, profile, t_dense, s_dense, crossings = chosen
        entity_id = f"veh{veh_counter:04d}"
        veh_counter += 1
        return (entity_id, path, profile, t_dense, s_dense, crossings,
                hypothesis_crossings)

    def make_ped(crosswalk: Direction, reverse: bool, lateral_offset: float,
                 speed: float):
        nonlocal ped_counter
        angle = (2.0 * rng.random() - 1.0) * math.radians(60.0)
        path = _pedestrian_path(crosswalk, reverse, lateral_offset, angle)
        profile = ([0.0, path.total], [speed, speed])
        t_dense, s_dense = _integrate_motion(path.total, profile, dt)
        entity_id = f"ped{ped_counter:04d}"
        ped_counter += 1
        return entity_id, path, profile, t_dense, s_dense

    def emit(entity_id, object_class, path, profile, t_dense, s_dense, launch_frame):
        trajectories.append(_sample_track(
            entity_id, object_class, path, profile, t_dense, s_dense, launch_frame,
            spec.seed * 1_000_003 + len(trajectories), spec))

    # -- engineered conflicts ------------------------------------------------
    turn_cells = [(d, m) for m in (Maneuver.LEFT, Maneuver.RIGHT) for d in Direction]
    lo, hi = spec.requested_pet_range
    for i in range(spec.n_engineered_conflicts):
        direction, maneuver = turn_cells[i % len(turn_cells)]
        requested = lo if spec.n_engineered_conflicts == 1 else (
            lo + (hi - lo) * i / (spec.n_engineered_conflicts - 1)
        )
        vid, vpath, vprofile, vt, vs, vcross, vhypo = make_vehicle(direction, maneuver)
        exit_crossings = [c for c in vcross if c[1] > vs[-1] * 0.4]
        if not exit_crossings:
            raise InputError("engineered vehicle path never crosses an exit crosswalk")
        cw, s_star, spot = max(exit_crossings, key=lambda c: c[1])

        center = _FIRST_EPISODE_CENTER + _EPISODE_PERIOD * i
        t_rel = float(np.interp(s_star, vs, vt))
        launch_v = _quantize_frame(center - t_rel, dt)
        t_veh_abs = launch_v * dt + t_rel

        # Pedestrian crossing through the exact spot: start from the endpoint
        # nearer the spot so it arrives early in its traversal.
        a, b = _crosswalk_axis(cw)
        reverse = np.linalg.norm(np.asarray(spot) - b) < np.linalg.norm(np.asarray(spot) - a)
        ped_speed = jitter(spec.pedestrian_speed, 0.05)
        pid, ppath, pprofile, pt, ps = make_ped(cw, reverse, 0.0, ped_speed)

        # Arc length at the spot: the bow is zero, so scan for closest approach.
        s_scan = np.linspace(0.0, ppath.total, 2000)
        offsets = ppath.sample(s_scan)[0] - np.asarray(spot)
        s_spot = float(s_scan[int(np.argmin(np.sqrt(_row_dots(offsets, offsets))))])
        t_ped_rel = float(np.interp(s_spot, ps, pt))

        v_veh_spot = float(np.interp(s_star, *vprofile))
        gap = requested + spec.pet_zone_radius * (1.0 / v_veh_spot + 1.0 / ped_speed) - dt
        if gap <= 0:
            raise InputError(
                f"infeasible conflict timing: requested gap {requested} too small"
            )
        sign = 1.0 if i % 2 == 0 else -1.0
        t_ped_target = t_veh_abs + sign * gap
        launch_p = _quantize_frame(t_ped_target - t_ped_rel, dt)
        if launch_p * dt > t_ped_target - t_ped_rel + dt:
            raise InputError("infeasible conflict timing: pedestrian launch underflow")
        t_ped_abs = launch_p * dt + t_ped_rel

        schedule.vehicle_crossings.extend(
            (c, s, launch_v * dt + t_rel_c) for c, t_rel_c, s in vhypo)
        pa, pb = (b, a) if reverse else (a, b)
        t_a = launch_p * dt + PED_APPROACH_LENGTH / ped_speed
        t_b = t_a + float(np.linalg.norm(pb - pa)) / ped_speed
        schedule.ped_traversals.append((cw, t_a, t_b, pa, pb))

        emit(vid, ObjectClass.VEHICLE, vpath, vprofile, vt, vs, launch_v)
        emit(pid, ObjectClass.PEDESTRIAN, ppath, pprofile, pt, ps, launch_p)
        truth.vehicles[vid] = (direction, maneuver)
        truth.pedestrian_crosswalks[pid] = cw
        truth.conflicts.append(
            ConflictTruth(vehicle_id=vid, pedestrian_id=pid, requested_pet=requested,
                          point=spot, t_vehicle=round(t_veh_abs, 4),
                          t_pedestrian=round(t_ped_abs, 4))
        )

    # -- background vehicles -------------------------------------------------
    for direction in Direction:
        for maneuver in SUPPORTED_MANEUVERS:
            for _ in range(spec.n_vehicles_per_cell):
                vid, vpath, vprofile, vt, vs, vcross, vhypo = make_vehicle(
                    direction, maneuver
                )

                def crossings_at(launch):
                    return [(cw, spot, launch * dt + t_rel_c) for cw, t_rel_c, spot in vhypo]

                base = (veh_counter * 7.3) % max(horizon - 20.0, 1.0)
                launch = _find_launch(base, vt[-1], horizon, dt,
                                      lambda cand: schedule.vehicle_ok(crossings_at(cand)),
                                      "vehicle")
                schedule.vehicle_crossings.extend(crossings_at(launch))
                emit(vid, ObjectClass.VEHICLE, vpath, vprofile, vt, vs, launch)
                truth.vehicles[vid] = (direction, maneuver)

    # -- background pedestrians ----------------------------------------------
    ped_plan = [(cw, j) for cw in Direction for j in range(spec.n_pedestrians_per_crosswalk)]
    fast_plan = [(cw, -1) for cw in list(Direction)[: spec.n_fast_pedestrians]]
    for cw, j in ped_plan + fast_plan:
        speed = 3.5 if j == -1 else jitter(spec.pedestrian_speed, 0.1)
        offset = (2.0 * rng.random() - 1.0) * 1.2
        reverse = bool(rng.integers(2))
        pid, ppath, pprofile, pt, ps = make_ped(cw, reverse, offset, speed)
        a, b = _crosswalk_axis(cw)
        pa, pb = (b, a) if reverse else (a, b)
        crossing_time = float(np.linalg.norm(pb - pa)) / speed
        t_vehicle, fractions = schedule.vehicles_on(cw, pa, pb)

        def traversal_at(launch):
            t_a = launch * dt + PED_APPROACH_LENGTH / speed
            return t_a, t_a + crossing_time

        base = (ped_counter * 9.1) % max(horizon - 30.0, 1.0)
        launch = _find_launch(base, pt[-1], horizon, dt,
                              lambda cand: schedule.clear(t_vehicle, fractions,
                                                          *traversal_at(cand)),
                              "pedestrian")
        schedule.ped_traversals.append((cw, *traversal_at(launch), pa, pb))
        emit(pid, ObjectClass.PEDESTRIAN, ppath, pprofile, pt, ps, launch)
        truth.pedestrian_crosswalks[pid] = cw

    dataset = Dataset(trajectories=trajectories, frame_interval=dt)
    return dataset, truth
