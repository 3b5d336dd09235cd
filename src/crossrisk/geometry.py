"""Intersection geometry: crosswalk endpoints, quadrants, membership regions.

The eight crosswalk endpoints (two per approach) induce four corner points;
the two diagonals through opposite corners split the plane into four angular
sectors labeled N/E/S/W. Endpoint estimation pools pedestrian trajectories
into a density grid and takes the centroid of the densest cell cluster inside
each operator-supplied search region.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .errors import InputError
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

    def in_roadway_region(self, p: Point) -> bool:
        return bool(self.roadway_mask(np.array([p], dtype=float))[0])

    def roadway_mask(self, xy: np.ndarray) -> np.ndarray:
        """``in_roadway_region`` of each ``(n, 2)`` row: the roadway polygon
        when one is given, else the endpoints' bounding box inflated by
        ``crosswalk_inflation``."""
        if self.roadway_polygon:
            return np.array([point_in_polygon(p, self.roadway_polygon)
                             for p in xy.tolist()], dtype=bool)
        x_lo, x_hi, y_lo, y_hi = self._roadway_box
        x, y = xy[:, 0], xy[:, 1]
        return (x_lo <= x) & (x <= x_hi) & (y_lo <= y) & (y <= y_hi)


# ---------------------------------------------------------------------------
# Pedestrian density grid and endpoint estimation
# ---------------------------------------------------------------------------


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

    def write_csv(self, path: str | Path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x_center", "y_center", "count"])
            nx, ny = self.counts.shape
            for ix in range(nx):
                for iy in range(ny):
                    c = int(self.counts[ix, iy])
                    if c > 0:
                        cx, cy = self.cell_center(ix, iy)
                        writer.writerow([f"{cx:.3f}", f"{cy:.3f}", c])


def build_density_grid(trajectories: Sequence[Trajectory], cell_size: float) -> DensityGrid:
    if cell_size <= 0:
        raise InputError("cell_size must be positive")
    tracks = [t.xy[t.valid] for t in trajectories]
    all_pts = np.concatenate([np.empty((0, 2))] + tracks)
    if len(all_pts) == 0:
        raise InputError("no valid points to grid")
    origin = (float(all_pts[:, 0].min()), float(all_pts[:, 1].min()))
    nx, ny = np.floor((all_pts.max(axis=0) - origin) / cell_size).astype(int) + 1
    cells = []
    for xy in tracks:  # each trajectory counts once per cell it visits
        ix, iy = np.floor((xy - origin) / cell_size).astype(int).T
        cells.append(np.unique(ix * ny + iy))
    counts = np.bincount(np.concatenate(cells), minlength=nx * ny).reshape(nx, ny)
    return DensityGrid(cell_size=cell_size, origin=origin, counts=counts)


def _dense_cluster_centroid(grid: DensityGrid, box: Sequence[float],
                            threshold_fraction: float = 0.9) -> Point:
    """Count-weighted centroid of the flood-filled cluster of cells holding at
    least ``threshold_fraction`` of the box's maximum count, seeded at the
    maximal cell (ties to the lowest cell index)."""
    xmin, ymin, xmax, ymax = box
    nx, ny = grid.counts.shape
    in_box = []
    for ix in range(nx):
        for iy in range(ny):
            if grid.counts[ix, iy] <= 0:
                continue
            cx, cy = grid.cell_center(ix, iy)
            if xmin <= cx <= xmax and ymin <= cy <= ymax:
                in_box.append((ix, iy))
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
    crosswalk_inflation: float = 2.0,
    roadway_polygon: Optional[Sequence[Point]] = None,
    crosswalk_polygons: Optional[dict] = None,
) -> tuple[IntersectionGeometry, DensityGrid]:
    """Locate the eight crosswalk endpoints from pooled pedestrian traffic.

    ``search_regions`` maps every key in :data:`ENDPOINT_KEYS` to an
    axis-aligned box ``(xmin, ymin, xmax, ymax)`` to search within.
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
    geometry = IntersectionGeometry(
        endpoints=endpoints,
        crosswalk_inflation=crosswalk_inflation,
        roadway_polygon=tuple(map(tuple, roadway_polygon)) if roadway_polygon else None,
        crosswalk_polygons=crosswalk_polygons,
    )
    return geometry, grid
