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
    estimate_crosswalk_endpoints,
    point_in_polygon,
    point_segment_distance,
)
from crossrisk.synth import canonical_endpoints, canonical_search_regions
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
        assert geom.in_roadway_region((0.0, 0.0))
        assert not geom.in_roadway_region((40.0, 40.0))

    def test_polygon_override(self):
        g = IntersectionGeometry(
            endpoints=canonical_endpoints(),
            roadway_polygon=((-1, -1), (1, -1), (1, 1), (-1, 1)),
        )
        assert g.in_roadway_region((0.0, 0.0))
        assert not g.in_roadway_region((5.0, 0.0))

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
        assert [g.in_roadway_region(p) for p in xy.tolist()] == want
        assert sum(want[-7:-3]) == (0 if polygon else 4)  # box edges count as inside

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
        geometry, grid = estimate_crosswalk_endpoints(
            trajs, cell_size=0.5, search_regions=canonical_search_regions()
        )
        for key, (ex, ey) in canonical_endpoints().items():
            gx, gy = geometry.endpoints[key]
            assert math.hypot(gx - ex, gy - ey) <= 0.75

    def test_no_pedestrians_raises(self):
        with pytest.raises(InputError):
            estimate_crosswalk_endpoints([], 0.5, canonical_search_regions())
