"""Intersection geometry: crosswalk endpoints, quadrants, membership regions.

The eight crosswalk endpoints (two per approach) induce four corner points;
the two diagonals through opposite corners split the plane into four angular
sectors labeled N/E/S/W. Endpoint estimation pools pedestrian trajectories
into a density grid and takes the centroid of the densest cell cluster inside
each operator-supplied search region. The ``preprocess.geometry`` config
section parses into :class:`GeometrySettings`, and :func:`build_geometry`
turns it into an :class:`IntersectionGeometry`.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .errors import InputError, check_keys, check_number, is_finite_number
from .trajectory import Direction, Trajectory

Point = tuple[float, float]

#: Endpoint keys: approach the crosswalk spans, plus the corner it touches.
ENDPOINT_KEYS = ("N_NW", "N_NE", "E_NE", "E_SE", "S_SE", "S_SW", "W_SW", "W_NW")

#: Corner name -> the two endpoint keys whose mean locates that corner.
_CORNER_SOURCES = {
    "NE": ("N_NE", "E_NE"),
    "NW": ("N_NW", "W_NW"),
    "SE": ("E_SE", "S_SE"),
    "SW": ("S_SW", "W_SW"),
}

#: Crosswalk segments by approach, as endpoint-key pairs.
CROSSWALK_SEGMENTS = {
    Direction.N: ("N_NW", "N_NE"),
    Direction.E: ("E_NE", "E_SE"),
    Direction.S: ("S_SE", "S_SW"),
    Direction.W: ("W_SW", "W_NW"),
}

# Canonical intersection layout (meters): axis-aligned, centered at the
# origin, crosswalk lines at +/-CROSSWALK_OFFSET spanning +/-CROSSWALK_HALF.
CROSSWALK_OFFSET = 10.0
CROSSWALK_HALF = 8.0


def canonical_endpoints() -> dict:
    """True crosswalk endpoints of the canonical intersection."""
    L, h = CROSSWALK_OFFSET, CROSSWALK_HALF
    return {
        "N_NW": (-h, L),
        "N_NE": (h, L),
        "E_NE": (L, h),
        "E_SE": (L, -h),
        "S_SE": (h, -L),
        "S_SW": (-h, -L),
        "W_SW": (-L, -h),
        "W_NW": (-L, h),
    }


def canonical_search_regions(margin: float = 1.25) -> dict:
    """Search boxes centered on the canonical endpoints, for estimation.

    The default margin stays below half the spacing of adjacent corner
    endpoints so each box isolates exactly one pedestrian funnel."""
    return {
        key: (x - margin, y - margin, x + margin, y + margin)
        for key, (x, y) in canonical_endpoints().items()
    }


def _line_intersection(p1: Point, p2: Point, q1: Point, q2: Point) -> Point:
    """Intersection of infinite lines p1-p2 and q1-q2."""
    r = (p2[0] - p1[0], p2[1] - p1[1])
    s = (q2[0] - q1[0], q2[1] - q1[1])
    denom = r[0] * s[1] - r[1] * s[0]
    if abs(denom) < 1e-12:
        raise InputError("intersection diagonals are parallel")
    qp = (q1[0] - p1[0], q1[1] - p1[1])
    t = (qp[0] * s[1] - qp[1] * s[0]) / denom
    u = (qp[0] * r[1] - qp[1] * r[0]) / denom
    if not (0.0 < t < 1.0 and 0.0 < u < 1.0):
        raise InputError("diagonals do not cross at an interior point")
    return (p1[0] + t * r[0], p1[1] + t * r[1])


def point_segment_distance(p: Point, a: Point, b: Point) -> float:
    ax, ay = a
    dx, dy = b[0] - ax, b[1] - ay
    seg_sq = dx * dx + dy * dy
    if seg_sq == 0.0:
        return math.hypot(p[0] - ax, p[1] - ay)
    u = ((p[0] - ax) * dx + (p[1] - ay) * dy) / seg_sq
    u = min(1.0, max(0.0, u))
    return math.hypot(p[0] - (ax + u * dx), p[1] - (ay + u * dy))


def point_in_polygon(p: Point, polygon: Sequence[Point]) -> bool:
    """Even-odd rule; points on an edge count as inside."""
    x, y = p
    inside = False
    n = len(polygon)
    for i in range(n):
        x1, y1 = polygon[i]
        x2, y2 = polygon[(i + 1) % n]
        if point_segment_distance(p, (x1, y1), (x2, y2)) < 1e-12:
            return True
        if (y1 > y) != (y2 > y):
            x_cross = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
            if x_cross > x:
                inside = not inside
    return inside


#: Smallest squared distance whose rounding error ``crosswalk_mask`` takes as
#: relative: below it a square may hold underflowed terms.
_MIN_RELATIVE_SQUARE = 2.0**-900


@dataclass(frozen=True)
class IntersectionGeometry:
    """Eight labeled crosswalk endpoints plus the quadrant partition they induce."""

    endpoints: dict  # key from ENDPOINT_KEYS -> (x, y)
    crosswalk_inflation: float = 2.0
    roadway_polygon: Optional[tuple] = None  # overrides the inflated-bbox default
    crosswalk_polygons: Optional[dict] = None  # Direction.value -> polygon override

    def __post_init__(self) -> None:
        missing = [k for k in ENDPOINT_KEYS if k not in self.endpoints]
        if missing:
            raise InputError(f"geometry is missing endpoints: {missing}")
        corners = {
            name: (
                (self.endpoints[a][0] + self.endpoints[b][0]) / 2.0,
                (self.endpoints[a][1] + self.endpoints[b][1]) / 2.0,
            )
            for name, (a, b) in _CORNER_SOURCES.items()
        }
        center = _line_intersection(corners["NE"], corners["SW"], corners["NW"], corners["SE"])
        angles = {
            name: math.atan2(c[1] - center[1], c[0] - center[0])
            for name, c in corners.items()
        }
        # Sector boundaries measured counterclockwise from the NE corner ray.
        rel = {n: (angles[n] - angles["NE"]) % (2 * math.pi) for n in ("NW", "SW", "SE")}
        if not (0.0 < rel["NW"] < rel["SW"] < rel["SE"] < 2 * math.pi):
            raise InputError("corner points are not in counterclockwise order")
        object.__setattr__(self, "_center", center)
        object.__setattr__(self, "_angle_ne", angles["NE"])
        object.__setattr__(self, "_bounds", (rel["NW"], rel["SW"], rel["SE"]))
        xs = [pt[0] for pt in self.endpoints.values()]
        ys = [pt[1] for pt in self.endpoints.values()]
        m = self.crosswalk_inflation
        object.__setattr__(self, "_roadway_box",
                           (min(xs) - m, max(xs) + m, min(ys) - m, max(ys) + m))

    @property
    def center(self) -> Point:
        return self._center

    def quadrant(self, point: Point) -> Direction:
        """Quadrant of a point; sector boundaries belong to the sector
        counterclockwise of the boundary ray (deterministic tie rule)."""
        theta = math.atan2(point[1] - self._center[1], point[0] - self._center[0])
        rel = (theta - self._angle_ne) % (2 * math.pi)
        b_nw, b_sw, b_se = self._bounds
        if rel < b_nw:
            return Direction.N
        if rel < b_sw:
            return Direction.W
        if rel < b_se:
            return Direction.S
        return Direction.E

    def crosswalk_segment(self, approach: Direction) -> tuple[Point, Point]:
        a, b = CROSSWALK_SEGMENTS[approach]
        return (self.endpoints[a], self.endpoints[b])

    # -- membership regions used by the pedestrian trajectory filter --------

    def in_crosswalk_region(self, p: Point) -> bool:
        if self.crosswalk_polygons:
            return any(point_in_polygon(p, poly) for poly in self.crosswalk_polygons.values())
        return any(
            point_segment_distance(p, *self.crosswalk_segment(d)) <= self.crosswalk_inflation
            for d in Direction
        )

    def crosswalk_mask(self, xy: np.ndarray) -> np.ndarray:
        """``in_crosswalk_region`` of each ``(n, 2)`` row.

        The offsets from each row to the four segments' nearest points are
        those of ``point_segment_distance``, operation for operation (the
        clamp keeps the order of its ``min``/``max``). A row is then decided
        by its squared distance ``d2`` against ``r2``, the squared
        inflation: both carry a relative rounding error of a few ulps, far
        inside the band ``|d2 - r2| <= 1e-9 r2``, so outside it the squares
        order as ``math.hypot`` and the inflation do. Rows in the band, rows
        whose ``d2`` is too small for its rounding to be relative, and NaN
        or overflowed squares are decided by ``math.hypot``. A polygon
        override is tested row by row."""
        if self.crosswalk_polygons:
            return np.array([self.in_crosswalk_region(p) for p in xy.tolist()], dtype=bool)
        px, py = xy[:, 0], xy[:, 1]
        inside = np.zeros(len(xy), dtype=bool)
        r = self.crosswalk_inflation
        if not r >= 0.0:  # no distance is at most a negative or NaN inflation
            return inside
        r2 = r * r
        for d in Direction:
            (ax, ay), b = self.crosswalk_segment(d)
            dx, dy = b[0] - ax, b[1] - ay
            seg_sq = dx * dx + dy * dy
            if seg_sq == 0.0:
                ex, ey = px - ax, py - ay
            else:
                u = ((px - ax) * dx + (py - ay) * dy) / seg_sq
                u = np.where(u > 0.0, u, 0.0)  # max(0.0, u)
                u = np.where(u < 1.0, u, 1.0)  # min(1.0, u)
                ex, ey = px - (ax + u * dx), py - (ay + u * dy)
            d2 = ex * ex + ey * ey
            band = ~(np.abs(d2 - r2) > 1e-9 * r2) | (d2 < _MIN_RELATIVE_SQUARE)
            inside |= (d2 <= r2) & ~band
            rows = np.flatnonzero(band)
            dist = np.array(list(map(math.hypot, ex[rows].tolist(), ey[rows].tolist())))
            inside[rows[dist <= r]] = True
        return inside

    def roadway_mask(self, xy: np.ndarray) -> np.ndarray:
        """Whether each ``(n, 2)`` row lies in the roadway region: the roadway
        polygon when one is given, else the endpoints' bounding box inflated
        by ``crosswalk_inflation``."""
        if self.roadway_polygon:
            return np.array([point_in_polygon(p, self.roadway_polygon)
                             for p in xy.tolist()], dtype=bool)
        x_lo, x_hi, y_lo, y_hi = self._roadway_box
        x, y = xy[:, 0], xy[:, 1]
        return (x_lo <= x) & (x <= x_hi) & (y_lo <= y) & (y <= y_hi)


# ---------------------------------------------------------------------------
# Pedestrian density grid and endpoint estimation
# ---------------------------------------------------------------------------


#: Most cells a density grid may have: the cell indices must fit an integer.
_MAX_GRID_CELLS = 2**24


@dataclass
class DensityGrid:
    """Per-cell pedestrian visit counts; each trajectory counted once per cell."""

    cell_size: float
    origin: Point
    counts: np.ndarray  # shape (nx, ny), int

    def cell_center(self, ix: int, iy: int) -> Point:
        return (
            self.origin[0] + (ix + 0.5) * self.cell_size,
            self.origin[1] + (iy + 0.5) * self.cell_size,
        )

    def visited_cells(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(ix, iy, x, y)`` of every cell with a positive count, in C order
        (``ix`` major), ``x`` and ``y`` being ``cell_center``'s formula applied
        elementwise, so each is bit for bit the centre it returns."""
        ix, iy = np.nonzero(self.counts > 0)
        return (ix, iy, self.origin[0] + (ix + 0.5) * self.cell_size,
                self.origin[1] + (iy + 0.5) * self.cell_size)

    def write_csv(self, path: str | Path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        ix, iy, x, y = self.visited_cells()
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x_center", "y_center", "count"])
            writer.writerows(zip((f"{cx:.3f}" for cx in x.tolist()),
                                 (f"{cy:.3f}" for cy in y.tolist()),
                                 self.counts[ix, iy].tolist()))


def build_density_grid(trajectories: Sequence[Trajectory], cell_size: float) -> DensityGrid:
    if not cell_size > 0:
        raise InputError(f"cell_size must be positive, got {cell_size!r}")
    tracks = [t.xy[t.valid] for t in trajectories]
    all_pts = np.concatenate([np.empty((0, 2))] + tracks)
    if len(all_pts) == 0:
        raise InputError("no valid points to grid")
    origin = (float(all_pts[:, 0].min()), float(all_pts[:, 1].min()))
    shape = np.floor((all_pts.max(axis=0) - origin) / cell_size) + 1
    if shape.prod() > _MAX_GRID_CELLS:
        raise InputError(f"cell_size {cell_size!r} gives a {shape[0]:.0f} x {shape[1]:.0f} "
                         f"density grid, more than {_MAX_GRID_CELLS} cells; use larger cells")
    nx, ny = shape.astype(int)
    ix, iy = np.floor((all_pts - origin) / cell_size).astype(int).T
    # each trajectory counts once per cell it visits: one (trajectory, cell) key per visit
    owner = np.repeat(np.arange(len(tracks)), [len(xy) for xy in tracks])
    visits = np.unique(owner * (nx * ny) + ix * ny + iy) % (nx * ny)
    counts = np.bincount(visits, minlength=nx * ny).reshape(nx, ny)
    return DensityGrid(cell_size=cell_size, origin=origin, counts=counts)


def _dense_cluster_centroid(grid: DensityGrid, box: Sequence[float],
                            threshold_fraction: float = 0.9) -> Point:
    """Count-weighted centroid of the flood-filled cluster of cells holding at
    least ``threshold_fraction`` of the box's maximum count, seeded at the
    maximal cell (ties to the lowest cell index). Only visited cells are
    tested against the box."""
    xmin, ymin, xmax, ymax = box
    ix, iy, x, y = grid.visited_cells()
    hit = (xmin <= x) & (x <= xmax) & (ymin <= y) & (y <= ymax)
    in_box = list(zip(ix[hit].tolist(), iy[hit].tolist()))
    if not in_box:
        raise InputError(f"search region {box} contains no visited cells")
    peak = max(c for c in (grid.counts[i] for i in in_box))
    seed = min(i for i in in_box if grid.counts[i] == peak)
    member = set(in_box)
    cutoff = threshold_fraction * peak
    cluster = set()
    stack = [seed]
    while stack:
        cell = stack.pop()
        if cell in cluster or cell not in member or grid.counts[cell] < cutoff:
            continue
        cluster.add(cell)
        ix, iy = cell
        stack.extend([(ix + 1, iy), (ix - 1, iy), (ix, iy + 1), (ix, iy - 1)])
    total = sum(grid.counts[c] for c in cluster)
    cx = sum(grid.cell_center(*c)[0] * grid.counts[c] for c in cluster) / total
    cy = sum(grid.cell_center(*c)[1] * grid.counts[c] for c in cluster) / total
    return (cx, cy)


def estimate_crosswalk_endpoints(
    pedestrian_trajs: Sequence[Trajectory],
    cell_size: float,
    search_regions: dict,
) -> tuple[dict, DensityGrid]:
    """Locate the eight crosswalk endpoints from pooled pedestrian traffic.

    ``search_regions`` maps every key in :data:`ENDPOINT_KEYS` to an
    axis-aligned box ``(xmin, ymin, xmax, ymax)`` to search within. Returns
    the endpoints by key and the density grid they were found on.
    """
    if not pedestrian_trajs:
        raise InputError("endpoint estimation needs at least one pedestrian trajectory")
    missing = [k for k in ENDPOINT_KEYS if k not in search_regions]
    if missing:
        raise InputError(f"search regions missing for endpoints: {missing}")
    grid = build_density_grid(pedestrian_trajs, cell_size)
    endpoints = {
        key: _dense_cluster_centroid(grid, search_regions[key]) for key in ENDPOINT_KEYS
    }
    return endpoints, grid


# ---------------------------------------------------------------------------
# The preprocess.geometry config section
# ---------------------------------------------------------------------------


def _numbers(value, n: int, where: str) -> tuple:
    if not (isinstance(value, (list, tuple)) and len(value) == n
            and all(map(is_finite_number, value))):
        raise InputError(f"{where} must be {n} finite numbers, got {value!r}")
    return tuple(map(float, value))


def _polygon(value, where: str) -> tuple:
    if not (isinstance(value, (list, tuple)) and len(value) >= 3):
        raise InputError(f"{where} must be at least three [x, y] points, got {value!r}")
    return tuple(_numbers(p, 2, f"{where} point") for p in value)


def _keyed(mapping: Optional[dict], keys, check, where: str) -> Optional[dict]:
    if mapping is None:
        return None
    check_keys(mapping, keys, where)
    return {k: check(v, f"{where}.{k}") for k, v in mapping.items()}


@dataclass(frozen=True)
class GeometrySettings:
    """The ``preprocess.geometry`` config section: ``"explicit"`` endpoints,
    or endpoints to ``"estimate"`` in ``search_regions`` (by default the
    canonical layout's boxes), plus the membership-region overrides. Points
    are stored as tuples of floats."""

    mode: str = "estimate"
    search_regions: Optional[dict] = None
    endpoints: Optional[dict] = None
    crosswalk_inflation: float = 2.0
    roadway_polygon: Optional[tuple] = None
    crosswalk_polygons: Optional[dict] = None

    def __post_init__(self) -> None:
        if self.mode not in ("estimate", "explicit"):
            raise InputError(f"unknown geometry mode: {self.mode!r}")
        if self.mode == "explicit" and not self.endpoints:
            raise InputError("explicit geometry mode requires endpoints")
        where = "preprocess.geometry"
        check_number(self.crosswalk_inflation, f"{where}.crosswalk_inflation")
        checked = {
            "endpoints": _keyed(self.endpoints, ENDPOINT_KEYS,
                                lambda v, w: _numbers(v, 2, w), f"{where}.endpoints"),
            "search_regions": _keyed(self.search_regions, ENDPOINT_KEYS,
                                     lambda v, w: _numbers(v, 4, w), f"{where}.search_regions"),
            "crosswalk_polygons": _keyed(self.crosswalk_polygons, [d.value for d in Direction],
                                         _polygon, f"{where}.crosswalk_polygons"),
            "roadway_polygon": (None if self.roadway_polygon is None
                                else _polygon(self.roadway_polygon, f"{where}.roadway_polygon")),
        }
        for name, value in checked.items():
            object.__setattr__(self, name, value)


def build_geometry(settings: GeometrySettings, pedestrians: Sequence[Trajectory],
                   cell_size: float) -> tuple[IntersectionGeometry, Optional[DensityGrid]]:
    """The intersection geometry ``settings`` describe, and the density grid
    of ``cell_size`` cells its endpoints were estimated on from
    ``pedestrians`` (``None`` when the endpoints are explicit)."""
    endpoints, grid = settings.endpoints, None
    if settings.mode == "estimate":
        endpoints, grid = estimate_crosswalk_endpoints(
            pedestrians, cell_size, settings.search_regions or canonical_search_regions())
    geometry = IntersectionGeometry(
        endpoints=endpoints,
        crosswalk_inflation=settings.crosswalk_inflation,
        roadway_polygon=settings.roadway_polygon,
        crosswalk_polygons=settings.crosswalk_polygons,
    )
    return geometry, grid
