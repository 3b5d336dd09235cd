import csv
import math

import numpy as np
import pytest
from helpers import row
from hypothesis import given, settings, strategies as st

from crossrisk.errors import InputError
from crossrisk.geometry import (
    IntersectionGeometry,
    _dense_cluster_centroid,
    build_density_grid,
    canonical_endpoints,
    canonical_search_regions,
    estimate_crosswalk_endpoints,
    point_in_polygon,
    point_segment_distance,
)
from crossrisk.trajectory import Direction, ObjectClass, Trajectory


@pytest.fixture(scope="module")
def geom():
    return IntersectionGeometry(endpoints=canonical_endpoints())


def _walk(traj_id, points, dt=0.1):
    pts = [row(round(i * dt, 6), float(x), float(y), 1.0, 0.0) for i, (x, y) in enumerate(points)]
    return Trajectory(id=traj_id, object_class=ObjectClass.PEDESTRIAN, points=pts)


class TestQuadrants:
    def test_cardinal_points(self, geom):
        assert geom.quadrant((10.0, 0.0)) == Direction.E
        assert geom.quadrant((0.0, 30.0)) == Direction.N
        assert geom.quadrant((0.0, -30.0)) == Direction.S
        assert geom.quadrant((-15.0, 0.0)) == Direction.W

    def test_boundary_assigned_counterclockwise(self, geom):
        # on the NE corner ray: boundary between E and N goes to N
        assert geom.quadrant((5.0, 5.0)) == Direction.N
        # NW ray: between N and W goes to W
        assert geom.quadrant((-5.0, 5.0)) == Direction.W
        # SW ray: between W and S goes to S
        assert geom.quadrant((-5.0, -5.0)) == Direction.S
        # SE ray: between S and E goes to E
        assert geom.quadrant((5.0, -5.0)) == Direction.E

    @settings(max_examples=30)
    @given(st.floats(-200, 200), st.floats(-200, 200))
    def test_every_point_gets_exactly_one_label(self, geom, x, y):
        assert geom.quadrant((x, y)) in set(Direction)

    def test_partition_of_random_cloud(self, geom):
        rng = np.random.default_rng(3)
        pts = rng.uniform(-50, 50, size=(10_000, 2))
        labels = [geom.quadrant((float(p[0]), float(p[1]))) for p in pts]
        assert all(l in set(Direction) for l in labels)
        counts = {d: labels.count(d) for d in Direction}
        # square cloud, centered geometry: roughly a quarter each
        for d in Direction:
            assert counts[d] > 1500

    def test_rotated_geometry_still_partitions(self):
        c, s = math.cos(0.5), math.sin(0.5)
        rotated = {
            k: (c * x - s * y, s * x + c * y)
            for k, (x, y) in canonical_endpoints().items()
        }
        g = IntersectionGeometry(endpoints=rotated)
        # the rotated image of (0, 10) must stay in the north quadrant
        assert g.quadrant((-s * 10.0, c * 10.0)) == Direction.N


class TestGeometryValidation:
    def test_missing_endpoint_rejected(self):
        eps = dict(canonical_endpoints())
        del eps["N_NE"]
        with pytest.raises(InputError):
            IntersectionGeometry(endpoints=eps)

    def test_degenerate_diagonals_rejected(self):
        eps = {k: (0.0, 0.0) for k in canonical_endpoints()}
        with pytest.raises(InputError):
            IntersectionGeometry(endpoints=eps)


class TestRegions:
    def test_crosswalk_corridor_membership(self, geom):
        assert geom.in_crosswalk_region((0.0, 10.0))     # on the north line
        assert geom.in_crosswalk_region((0.0, 11.9))     # within 2 m inflation
        assert not geom.in_crosswalk_region((0.0, 0.0))  # intersection middle

    def test_roadway_box_membership(self, geom):
        assert geom.roadway_mask(np.array([[0.0, 0.0], [40.0, 40.0]])).tolist() == [True, False]

    def test_polygon_override(self):
        g = IntersectionGeometry(
            endpoints=canonical_endpoints(),
            roadway_polygon=((-1, -1), (1, -1), (1, 1), (-1, 1)),
        )
        assert g.roadway_mask(np.array([[0.0, 0.0], [5.0, 0.0]])).tolist() == [True, False]

    @pytest.mark.parametrize("polygon", [None, ((-1, -1), (1, -1), (1.5, 2), (-1, 1))])
    def test_roadway_mask_matches_the_per_point_rule(self, polygon):
        g = IntersectionGeometry(endpoints=canonical_endpoints(), roadway_polygon=polygon)
        xs = [pt[0] for pt in g.endpoints.values()]
        ys = [pt[1] for pt in g.endpoints.values()]
        m = g.crosswalk_inflation

        def reference(p):  # the bounding box rebuilt per point, as it once was
            if polygon:
                return point_in_polygon(p, polygon)
            return (min(xs) - m <= p[0] <= max(xs) + m) and (min(ys) - m <= p[1] <= max(ys) + m)

        rng = np.random.default_rng(2)
        edges = [[min(xs) - m, 0.0], [max(xs) + m, 0.0], [0.0, min(ys) - m], [0.0, max(ys) + m],
                 [np.nextafter(max(xs) + m, np.inf), 0.0], [1.0, -1.0], [1.5, 2.0]]
        xy = np.vstack([rng.uniform(-25, 25, size=(400, 2)), edges])
        want = [reference(p) for p in xy.tolist()]
        assert g.roadway_mask(xy).tolist() == want
        assert [g.roadway_mask(np.array([p])).item() for p in xy.tolist()] == want  # row by row
        assert sum(want[-7:-3]) == (0 if polygon else 4)  # box edges count as inside

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.floats(-30, 30), st.floats(-30, 30)), min_size=1, max_size=40),
           st.floats(0, 6), st.floats(-math.pi, math.pi))
    def test_crosswalk_mask_matches_the_per_point_rule(self, points, inflation, angle):
        c, s = math.cos(angle), math.sin(angle)
        rotated = {k: (c * x - s * y, s * x + c * y) for k, (x, y) in canonical_endpoints().items()}
        for endpoints in (canonical_endpoints(), rotated):
            g = IntersectionGeometry(endpoints=endpoints, crosswalk_inflation=inflation)
            assert g.crosswalk_mask(np.array(points)).tolist() == [
                g.in_crosswalk_region(p) for p in points]

    def test_crosswalk_mask_at_the_inflation_boundary(self, geom):
        # each point's distance to each crosswalk as the inflation, and one
        # step either side of it: every point sits on a region's edge
        rng = np.random.default_rng(4)
        s = 2.0 / math.sqrt(2.0)
        points = [*rng.uniform(-14, 14, size=(200, 2)).tolist(),
                  [0.0, 12.0], [8.0 + s, 10.0 + s], [-8.0 - s, 10.0 + s], [12.0, 8.0]]
        for p in points:
            for d in Direction:
                dist = point_segment_distance(p, *geom.crosswalk_segment(d))
                for m in (np.nextafter(dist, -np.inf), dist, np.nextafter(dist, np.inf)):
                    g = IntersectionGeometry(endpoints=canonical_endpoints(),
                                             crosswalk_inflation=float(m))
                    assert g.crosswalk_mask(np.array([p])).tolist() == [g.in_crosswalk_region(p)]
        # and at the default inflation, points one step either side of it
        edge = [[0.0, y] for y in (np.nextafter(12.0, 0.0), 12.0, np.nextafter(12.0, 13.0))]
        edge += [[8.0 + dx, 10.0 + s] for dx in (np.nextafter(s, 0.0), s, np.nextafter(s, 2.0))]
        assert geom.crosswalk_mask(np.array(edge)).tolist() == [
            geom.in_crosswalk_region(p) for p in edge]
        assert geom.crosswalk_mask(np.array(edge)).tolist()[:3] == [True, True, False]

    def test_crosswalk_mask_with_a_zero_length_segment(self):
        endpoints = {**canonical_endpoints(), "N_NW": (0.0, 10.0), "N_NE": (0.0, 10.0)}
        g = IntersectionGeometry(endpoints=endpoints)
        rng = np.random.default_rng(5)
        xy = np.vstack([rng.uniform(-14, 14, size=(300, 2)),
                        [[0.0, 12.0], [0.0, np.nextafter(12.0, 13.0)], [2.0, 10.0]]])
        want = [g.in_crosswalk_region(p) for p in xy.tolist()]
        assert g.crosswalk_mask(xy).tolist() == want
        assert want[-3:] == [True, False, True]

    def test_crosswalk_mask_with_polygon_override(self):
        polygons = {d.value: ((-8, 8), (8, 8), (8, 12), (-8, 12)) for d in Direction}
        polygons["E"] = ((8, -8), (12, -8), (12.5, 8), (8, 8))
        g = IntersectionGeometry(endpoints=canonical_endpoints(), crosswalk_polygons=polygons)
        rng = np.random.default_rng(6)
        xy = np.vstack([rng.uniform(-14, 14, size=(300, 2)), [[0.0, 12.0], [0.0, 12.5]]])
        want = [g.in_crosswalk_region(p) for p in xy.tolist()]
        assert g.crosswalk_mask(xy).tolist() == want
        assert want[-2:] == [True, False]

    @pytest.mark.parametrize("north", [None, ((-8.0, 0.0), (8.0, 0.0)), ((0.0, 0.0), (0.0, 0.0))],
                             ids=["canonical", "through-origin", "zero-length-at-origin"])
    def test_crosswalk_mask_a_few_ulps_around_each_distance(self, north):
        # Each point's exact distance to each crosswalk, and up to 3 ulps
        # either side of it, as the inflation: where the squared distance and
        # math.hypot could disagree. Inflation 0, points on a segment, and
        # distances under 1e-150 m, whose squares lose their relative
        # precision, are included (the north crosswalk moved to the origin,
        # where such distances can be written).
        endpoints = canonical_endpoints()
        if north:
            endpoints = {**endpoints, "N_NW": north[0], "N_NE": north[1]}
        g = IntersectionGeometry(endpoints=endpoints)
        rng = np.random.default_rng(8)
        points = [*rng.uniform(-14, 14, size=(40, 2)).tolist(),
                  [3.0, 10.0], [10.0, 2.5], [0.0, 0.0], [0.0, 3e-160],
                  [1e-200, 0.0], [-7e-155, 0.0], [2e-160, -1.5e-160],
                  [6.369616873214543e-161, 2.697867137638703e-161]]
        xy = np.array(points)
        inflations = {0.0, 1e-160, 2.5e-160}
        for p in points:
            for d in Direction:
                dist = point_segment_distance(p, *g.crosswalk_segment(d))
                for step in range(-3, 4):
                    m = dist
                    for _ in range(abs(step)):
                        m = np.nextafter(m, math.copysign(np.inf, step))
                    inflations.add(max(float(m), 0.0))
        for m in sorted(inflations):
            g = IntersectionGeometry(endpoints=endpoints, crosswalk_inflation=m)
            assert g.crosswalk_mask(xy).tolist() == [g.in_crosswalk_region(p) for p in points], m
        if north:  # at inflation 0 only a point on the north crosswalk is inside
            g = IntersectionGeometry(endpoints=endpoints, crosswalk_inflation=0.0)
            assert g.crosswalk_mask(xy[-6:-4]).tolist() == [True, False]

    def test_point_in_polygon_edge_counts_inside(self):
        square = [(0, 0), (2, 0), (2, 2), (0, 2)]
        assert point_in_polygon((1.0, 0.0), square)
        assert point_in_polygon((1.0, 1.0), square)
        assert not point_in_polygon((3.0, 1.0), square)

    def test_point_segment_distance(self):
        assert point_segment_distance((0, 1), (-1, 0), (1, 0)) == 1.0
        assert point_segment_distance((5, 0), (-1, 0), (1, 0)) == 4.0


class TestDensityGrid:
    def test_trajectory_counted_once_per_cell(self):
        # one walker oscillating inside a single cell still counts once
        back_forth = [(0.1 + 0.01 * (i % 3), 0.1) for i in range(10)]
        t1 = _walk("a", back_forth)
        t2 = _walk("b", [(0.1, 0.1), (3.0, 0.1)])
        grid = build_density_grid([t1, t2], cell_size=0.5)

        def cell(x, y):
            return (math.floor((x - grid.origin[0]) / grid.cell_size),
                    math.floor((y - grid.origin[1]) / grid.cell_size))

        assert grid.counts[cell(0.1, 0.1)] == 2
        assert grid.counts[cell(3.0, 0.1)] == 1

    def test_counts_nonnegative_and_cover_points(self):
        t = _walk("a", [(0, 0), (1, 1), (2, 2)])
        grid = build_density_grid([t], cell_size=0.5)
        assert (grid.counts >= 0).all()
        assert grid.counts.sum() >= 3

    def test_grid_csv(self, tmp_path):
        t = _walk("a", [(0, 0), (1, 1)])
        grid = build_density_grid([t], cell_size=0.5)
        out = tmp_path / "grid.csv"
        grid.write_csv(out)
        assert out.read_text().startswith("x_center,y_center,count")


def reference_counts(trajectories, cell_size):
    """Grid counts cell by cell, in Python: each trajectory adds one to
    every distinct cell its valid points fall in."""
    pts = [p for t in trajectories for p in t.xy[t.valid].tolist()]
    ox, oy = min(x for x, _ in pts), min(y for _, y in pts)
    counts = np.zeros((math.floor((max(x for x, _ in pts) - ox) / cell_size) + 1,
                       math.floor((max(y for _, y in pts) - oy) / cell_size) + 1), dtype=int)
    for t in trajectories:
        for cell in {(math.floor((x - ox) / cell_size), math.floor((y - oy) / cell_size))
                     for x, y in t.xy[t.valid].tolist()}:
            counts[cell] += 1
    return counts


def reference_centroid(grid, box, threshold_fraction=0.9):
    """The dense-cluster centroid with every cell of the grid scanned."""
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
        return None
    peak = max(grid.counts[i] for i in in_box)
    seed = min(i for i in in_box if grid.counts[i] == peak)
    member, cluster, stack = set(in_box), set(), [seed]
    while stack:
        cell = stack.pop()
        if cell in cluster or cell not in member or grid.counts[cell] < threshold_fraction * peak:
            continue
        cluster.add(cell)
        ix, iy = cell
        stack.extend([(ix + 1, iy), (ix - 1, iy), (ix, iy + 1), (ix, iy - 1)])
    total = sum(grid.counts[c] for c in cluster)
    return (sum(grid.cell_center(*c)[0] * grid.counts[c] for c in cluster) / total,
            sum(grid.cell_center(*c)[1] * grid.counts[c] for c in cluster) / total)


def reference_grid_csv(grid, path):
    """The grid file written cell by cell."""
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x_center", "y_center", "count"])
        nx, ny = grid.counts.shape
        for ix in range(nx):
            for iy in range(ny):
                if grid.counts[ix, iy] > 0:
                    cx, cy = grid.cell_center(ix, iy)
                    writer.writerow([f"{cx:.3f}", f"{cy:.3f}", int(grid.counts[ix, iy])])


@st.composite
def revisiting_walks(draw):
    """Pedestrian tracks stepping among a few nearby spots, so that tracks
    revisit cells and share them; some rows are invalid."""
    spots = draw(st.lists(st.tuples(st.floats(-3, 3), st.floats(-3, 3)), min_size=1, max_size=8))
    trajs = []
    for k in range(draw(st.integers(1, 6))):
        walk = draw(st.lists(st.sampled_from(spots), min_size=1, max_size=12))
        invalid = draw(st.lists(st.booleans(), min_size=len(walk), max_size=len(walk)))
        trajs.append(Trajectory(id=f"p{k}", object_class=ObjectClass.PEDESTRIAN, points=[
            row(0.1 * i, *((math.nan, math.nan) if bad else (x, y)), 1.0, 0.0)
            for i, ((x, y), bad) in enumerate(zip(walk, invalid))]))
    return trajs


class TestGridScans:
    @settings(max_examples=80, deadline=None)
    @given(revisiting_walks(), st.sampled_from([0.25, 0.3, 0.5, 1.0]),
           st.lists(st.tuples(st.floats(-4, 4), st.floats(-4, 4), st.floats(0, 5), st.floats(0, 5)),
                    min_size=1, max_size=4))
    def test_equal_the_cell_by_cell_scans(self, tmp_path_factory, trajs, cell_size, boxes):
        if not any(t.valid.any() for t in trajs):
            with pytest.raises(InputError):
                build_density_grid(trajs, cell_size)
            return
        grid = build_density_grid(trajs, cell_size)
        want = reference_counts(trajs, cell_size)
        assert grid.counts.shape == want.shape and grid.counts.tolist() == want.tolist()
        for x, y, w, h in boxes:
            box = (x, y, x + w, y + h)
            want = reference_centroid(grid, box)
            if want is None:
                with pytest.raises(InputError):
                    _dense_cluster_centroid(grid, box)
            else:
                assert _dense_cluster_centroid(grid, box) == want  # bit for bit
        out = tmp_path_factory.mktemp("grid")
        grid.write_csv(out / "grid.csv")
        reference_grid_csv(grid, out / "want.csv")
        assert (out / "grid.csv").read_bytes() == (out / "want.csv").read_bytes()

    def test_csv_rows_run_x_major(self, tmp_path):
        # two cells in one column and one in another: rows go column by column
        grid = build_density_grid([_walk("a", [(0.0, 0.0), (0.0, 1.2), (0.6, 0.0)])], 0.5)
        grid.write_csv(tmp_path / "grid.csv")
        assert (tmp_path / "grid.csv").read_text().splitlines() == [
            "x_center,y_center,count", "0.250,0.250,1", "0.250,1.250,1", "0.750,0.250,1"]


class TestEndpointEstimation:
    def test_funnel_cluster_centroid_near_origin(self):
        rng = np.random.default_rng(1)
        trajs = []
        for i in range(100):
            jitter = rng.uniform(-0.2, 0.2, size=2)
            trajs.append(_walk(f"p{i}", [tuple(jitter), (5.0 + i * 0.01, 4.0)]))
        grid = build_density_grid(trajs, cell_size=0.5)
        centroid = _dense_cluster_centroid(grid, (-2.0, -2.0, 2.0, 2.0))
        assert math.hypot(centroid[0], centroid[1]) <= 0.5

    def test_single_trajectory_is_its_own_peak(self):
        t = _walk("solo", [(0.0, 0.0), (0.5, 0.0), (1.0, 0.0)])
        grid = build_density_grid([t], cell_size=0.5)
        centroid = _dense_cluster_centroid(grid, (-1.0, -1.0, 2.0, 1.0))
        assert abs(centroid[1]) <= 0.5  # lies on the walked line

    def test_empty_region_raises(self):
        t = _walk("solo", [(0.0, 0.0), (1.0, 0.0)])
        grid = build_density_grid([t], cell_size=0.5)
        with pytest.raises(InputError):
            _dense_cluster_centroid(grid, (50.0, 50.0, 60.0, 60.0))

    def test_full_estimation_recovers_canonical_layout(self):
        rng = np.random.default_rng(7)
        trajs = []
        n = 0
        for key, (ex, ey) in canonical_endpoints().items():
            for i in range(25):
                jitter = rng.uniform(-0.3, 0.3, size=2)
                far = rng.uniform(-1.0, 1.0, size=2)
                trajs.append(_walk(
                    f"{key}_{i}",
                    [(ex + jitter[0], ey + jitter[1]),
                     (ex * 0.2 + far[0], ey * 0.2 + far[1])],
                ))
                n += 1
        endpoints, grid = estimate_crosswalk_endpoints(
            trajs, cell_size=0.5, search_regions=canonical_search_regions()
        )
        for key, (ex, ey) in canonical_endpoints().items():
            gx, gy = endpoints[key]
            assert math.hypot(gx - ex, gy - ey) <= 0.75

    def test_no_pedestrians_raises(self):
        with pytest.raises(InputError):
            estimate_crosswalk_endpoints([], 0.5, canonical_search_regions())
