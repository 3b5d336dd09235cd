import math

import numpy as np
import pytest
from helpers import row
from hypothesis import example, given, settings, strategies as st

from crossrisk.errors import InputError
from crossrisk.geometry import IntersectionGeometry, canonical_endpoints
from crossrisk.preprocess import (
    MergeCriteria,
    _ends,
    _joined,
    _link_key,
    _max_fast_run,
    classify_entering_direction,
    classify_movement,
    filter_pedestrian_trajectories,
    merge_pedestrian_trajectories,
    preprocess_dataset,
)
from crossrisk.synth import ScenarioSpec, generate_scenario
from crossrisk.trajectory import (
    Direction,
    Maneuver,
    ObjectClass,
    Trajectory,
)


@pytest.fixture(scope="module")
def geom():
    return IntersectionGeometry(endpoints=canonical_endpoints())


def _traj(traj_id, samples, object_class=ObjectClass.PEDESTRIAN):
    """samples: list of (t, x, y, vx, vy)."""
    pts = [row(t, x, y, vx, vy, 0.0) for t, x, y, vx, vy in samples]
    return Trajectory(id=traj_id, object_class=object_class, points=pts)


def _vehicle_path(traj_id, xy_list, dt=0.1):
    samples = []
    for i, (x, y) in enumerate(xy_list):
        if i + 1 < len(xy_list):
            vx = (xy_list[i + 1][0] - x) / dt
            vy = (xy_list[i + 1][1] - y) / dt
        samples.append((round(i * dt, 6), x, y, vx, vy))
    return _traj(traj_id, samples, ObjectClass.VEHICLE)


def reference_movement(traj, geom):
    """The maneuver from the whole visited-quadrant sequence, run by run."""
    ccw = [Direction.E, Direction.N, Direction.W, Direction.S]
    sequence = []
    for point in traj.xy[traj.valid].tolist():
        q = geom.quadrant(point)
        if not sequence or sequence[-1] != q:
            sequence.append(q)
    if len(sequence) < 2:
        return Maneuver.UNSUPPORTED
    turn = (ccw.index(sequence[-1]) - ccw.index(sequence[0])) % 4
    return {1: Maneuver.LEFT, 2: Maneuver.STRAIGHT, 3: Maneuver.RIGHT}.get(
        turn, Maneuver.UNSUPPORTED)


#: A point of each quadrant of the canonical geometry at distance r from the
#: centre, offset along the crosswalk by s in (-r, r).
_IN_QUADRANT = {Direction.N: lambda r, s: (s, r), Direction.S: lambda r, s: (s, -r),
                Direction.E: lambda r, s: (r, s), Direction.W: lambda r, s: (-r, s)}


@st.composite
def quadrant_walks(draw):
    """A vehicle track through a random sequence of quadrants, with repeats,
    returns to earlier quadrants and invalid rows anywhere."""
    quadrants = draw(st.lists(st.sampled_from(list(Direction)), max_size=12))
    points = []
    for i, q in enumerate(quadrants):
        r = draw(st.floats(0.5, 40))
        x, y = _IN_QUADRANT[q](r, draw(st.floats(-0.99, 0.99)) * r)
        if draw(st.integers(0, 3)) == 0:
            points.append(row(0.1 * len(points), math.nan, math.nan, 0.0, 0.0))
        points.append(row(0.1 * len(points), x, y, 1.0, 0.0))
    if not points or draw(st.booleans()):  # a trailing invalid row, or the only one
        points.append(row(0.1 * len(points), math.nan, math.nan, 0.0, 0.0))
    return Trajectory(id="v", object_class=ObjectClass.VEHICLE, points=points)


class TestEnteringDirection:
    def test_deep_south_point(self, geom):
        t = _vehicle_path("v", [(1.0, -25.0), (1.0, -24.0)])
        assert classify_entering_direction(t, geom) == Direction.S

    def test_east_of_center(self, geom):
        t = _vehicle_path("v", [(10.0, 0.0), (9.0, 0.0)])
        assert classify_entering_direction(t, geom) == Direction.E

    def test_boundary_point_counterclockwise(self, geom):
        # exactly on the NE diagonal: deterministic counterclockwise pick (N)
        t = _vehicle_path("v", [(20.0, 20.0), (19.0, 19.0)])
        assert classify_entering_direction(t, geom) == Direction.N

    def test_no_valid_points_raises(self, geom):
        pts = (row(0.0, float("nan"), 0.0, 0.0, 0.0),)
        t = Trajectory(id="v", object_class=ObjectClass.VEHICLE, points=pts)
        with pytest.raises(ValueError):
            classify_entering_direction(t, geom)


class TestMovement:
    def test_opposite_quadrants_is_straight(self, geom):
        t = _vehicle_path("v", [(1.0, -25.0), (1.0, 0.0), (1.0, 25.0)])
        assert classify_movement(t, geom) == Maneuver.STRAIGHT

    def test_hand_drawn_left_turn_arc(self, geom):
        # south entry curving into the east quadrant: a left turn by the
        # counterclockwise labeling convention
        pts = []
        r, cx, cy = 10.0, 11.75, -11.75
        for k in range(21):
            theta = math.pi - (math.pi / 2.0) * k / 20.0
            pts.append((cx + r * math.cos(theta), cy + r * math.sin(theta)))
        pts = [(1.75, -25.0)] + pts + [(25.0, -1.75)]
        t = _vehicle_path("v", pts)
        assert classify_movement(t, geom) == Maneuver.LEFT

    def test_clockwise_exit_is_right_turn(self, geom):
        t = _vehicle_path("v", [(1.0, -25.0), (0.5, -5.0), (-25.0, 1.0)])
        assert classify_movement(t, geom) == Maneuver.RIGHT

    def test_never_crossing_is_unsupported(self, geom):
        t = _vehicle_path("v", [(1.0, -25.0), (1.0, -20.0), (1.0, -15.0)])
        assert classify_movement(t, geom) == Maneuver.UNSUPPORTED

    def test_u_turn_is_unsupported(self, geom):
        t = _vehicle_path("v", [(1.0, -25.0), (0.0, 5.0), (-1.0, -25.0)])
        assert classify_movement(t, geom) == Maneuver.UNSUPPORTED

    @settings(max_examples=300, deadline=None)
    @given(quadrant_walks())
    # one quadrant throughout, a return to the entry, a detour, a first valid
    # point in its own quadrant, and no valid point
    @example(_vehicle_path("v", [(1.0, -25.0), (0.5, -20.0), (-0.5, -15.0)]))
    @example(_vehicle_path("v", [(1.0, -25.0), (20.0, 1.0), (1.0, -20.0)]))
    @example(_vehicle_path("v", [(1.0, -25.0), (20.0, 1.0), (0.0, 20.0), (-20.0, 1.0)]))
    @example(_vehicle_path("v", [(1.0, -25.0), (20.0, 1.0), (21.0, 1.0), (1.0, 25.0)]))
    @example(Trajectory(id="v", object_class=ObjectClass.VEHICLE,
                        points=[row(0.0, math.nan, 0.0, 0.0, 0.0)]))
    def test_entry_and_exit_decide_as_the_whole_sequence(self, geom, traj):
        assert classify_movement(traj, geom) == reference_movement(traj, geom)


def _fragment(traj_id, t0, p0, heading_deg, n=6, speed=1.0, dt=0.1):
    """Straight pedestrian fragment starting at p0 moving along heading."""
    vx = speed * math.cos(math.radians(heading_deg))
    vy = speed * math.sin(math.radians(heading_deg))
    samples = [
        (round(t0 + i * dt, 6), p0[0] + vx * i * dt, p0[1] + vy * i * dt, vx, vy)
        for i in range(n)
    ]
    return _traj(traj_id, samples)


class TestMergeCriteria:
    def test_all_four_criteria_met_merges(self):
        a = _fragment("a", 0.0, (0.0, 0.0), 0.0)       # ends (0.5, 0) at t=0.5
        b = _fragment("b", 0.6, (1.0, 0.0), 0.0)
        merged = merge_pedestrian_trajectories([a, b])
        assert len(merged) == 1
        ts = merged[0].t.tolist()
        assert ts == sorted(ts) and len(ts) == 12

    def test_time_gap_boundary(self):
        a = _fragment("a", 0.0, (0.0, 0.0), 0.0)
        at_boundary = _fragment("b", 0.7, (0.7, 0.0), 0.0)  # gap 0.2 from t=0.5
        assert len(merge_pedestrian_trajectories([a, at_boundary])) == 1
        over = _fragment("c", 0.81, (0.7, 0.0), 0.0)
        assert len(merge_pedestrian_trajectories([a, over])) == 2

    def test_distance_boundary(self):
        a = _fragment("a", 0.0, (0.0, 0.0), 0.0)       # ends at (0.5, 0)
        at_boundary = _fragment("b", 0.6, (1.5, 0.0), 0.0)  # exactly 1.0 m
        assert len(merge_pedestrian_trajectories([a, at_boundary])) == 1
        over = _fragment("c", 0.6, (1.51, 0.0), 0.0)
        assert len(merge_pedestrian_trajectories([a, over])) == 2

    def test_heading_boundary(self):
        a = _fragment("a", 0.0, (0.0, 0.0), 0.0)
        at_boundary = _fragment("b", 0.6, (0.6, 0.0), 90.0)
        assert len(merge_pedestrian_trajectories([a, at_boundary])) == 1
        over = _fragment("c", 0.6, (0.6, 0.0), 90.5)
        assert len(merge_pedestrian_trajectories([a, over])) == 2

    def test_chord_angle_boundary(self):
        # chord difference exactly 120 deg while the junction heading stays
        # within 90: the tail walks one way but is oriented back toward it
        a = _fragment("a", 0.0, (0.0, 0.0), 60.0)
        b = _fragment("b", 0.6, (0.4, 0.3), 180.0)  # heading diff 120 > 90
        assert len(merge_pedestrian_trajectories([a, b])) == 2

        # isolate the chord criterion: loose heading limit, tight chord limit
        crit = MergeCriteria(max_heading_diff=179.0, max_traj_angle_diff=120.0)
        assert len(merge_pedestrian_trajectories([a, b], crit)) == 1
        tight = MergeCriteria(max_heading_diff=179.0, max_traj_angle_diff=119.0)
        assert len(merge_pedestrian_trajectories([a, b], tight)) == 2

    def test_smaller_time_gap_candidate_wins(self):
        a = _fragment("a", 0.0, (0.0, 0.0), 0.0)
        near = _fragment("near", 0.6, (0.6, 0.0), 0.0)        # gap 0.1
        late = _fragment("late", 0.7, (0.55, 0.0), 0.0)       # gap 0.2, closer
        merged = merge_pedestrian_trajectories([a, near, late])
        by_id = {m.id: m for m in merged}
        assert set(by_id) == {"a", "late"}
        assert any(x == pytest.approx(0.6) for x in by_id["a"].xy[:, 0])

    def test_each_fragment_consumed_once(self):
        a = _fragment("a", 0.0, (0.0, 0.0), 0.0)
        b = _fragment("b", 0.0, (0.0, 1.0), 0.0)
        tail = _fragment("tail", 0.6, (0.6, 0.0), 0.0)
        merged = merge_pedestrian_trajectories([a, b, tail])
        total_points = sum(len(m) for m in merged)
        assert total_points == 18
        assert len(merged) == 2

    def test_chain_of_three(self):
        a = _fragment("a", 0.0, (0.0, 0.0), 0.0)
        b = _fragment("b", 0.6, (0.6, 0.0), 0.0)
        c = _fragment("c", 1.2, (1.2, 0.0), 0.0)
        merged = merge_pedestrian_trajectories([a, b, c])
        assert len(merged) == 1 and len(merged[0]) == 18

    def test_chain_chord_spans_absorbed_fragments(self):
        # b bends north; c turns back west. Against b alone (chord 80 deg) c
        # would pass the 120 deg chord limit, but the chain a+b heads east.
        def unit(deg):
            return math.cos(math.radians(deg)), math.sin(math.radians(deg))

        a = _traj("a", [(round(0.1 * i, 6), 0.2 * i, 0.0, 2.0, 0.0) for i in range(11)])
        bend = (2.1 + 0.2 * unit(80)[0], 0.2 * unit(80)[1])
        b = _traj("b", [(1.1, 2.1, 0.0, *unit(60)), (1.2, *bend, *unit(120))])
        c = _traj("c", [(round(1.3 + 0.1 * i, 6), 2.1 + 0.2 * i * unit(190)[0],
                         0.2 + 0.2 * i * unit(190)[1], *unit(190)) for i in range(5)])
        merged = merge_pedestrian_trajectories([a, b, c])
        assert [(m.id, len(m)) for m in merged] == [("a", 13), ("c", 5)]

    def test_non_pedestrian_rejected(self):
        v = _vehicle_path("v", [(0, 0), (1, 0)])
        with pytest.raises(InputError):
            merge_pedestrian_trajectories([v])

    def test_merge_idempotent(self):
        frags = [
            _fragment("a", 0.0, (0.0, 0.0), 0.0),
            _fragment("b", 0.6, (0.6, 0.0), 0.0),
            _fragment("c", 5.0, (10.0, 0.0), 0.0),
        ]
        once = merge_pedestrian_trajectories(frags)
        twice = merge_pedestrian_trajectories(once)
        assert [m.id for m in twice] == [m.id for m in once]
        assert sum(len(m) for m in twice) == sum(len(m) for m in once)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(
        st.tuples(st.floats(0, 5), st.floats(-3, 3), st.floats(-3, 3),
                  st.floats(0, 359)),
        min_size=1, max_size=6))
    def test_merge_never_drops_points_or_breaks_time_order(self, specs):
        frags = [
            _fragment(f"f{i}", round(t0, 1), (x, y), h)
            for i, (t0, x, y, h) in enumerate(specs)
        ]
        # unique start times keep fragment timestamps strictly increasing
        seen = set()
        unique = []
        for f in frags:
            if f.start_time not in seen:
                seen.add(f.start_time)
                unique.append(f)
        merged = merge_pedestrian_trajectories(unique)
        assert sum(len(m) for m in merged) == sum(len(f) for f in unique)
        for m in merged:
            ts = m.t.tolist()
            assert ts == sorted(ts) and len(set(ts)) == len(ts)


def _brute_force_merge(trajs, criteria=MergeCriteria()):
    """Fragment linking that scores every candidate against every chain."""
    pool = sorted(trajs, key=lambda t: (t.start_time, t.id))
    candidates = [(t, e) for t in pool if (e := _ends(t)) is not None]
    consumed, merged = set(), []
    for head in pool:
        if head.id in consumed:
            continue
        chain, chain_ends = head, _ends(head)
        while chain_ends is not None:
            best = best_key = None
            for tail, tail_ends in candidates:
                if tail.id in consumed or tail.id == head.id:
                    continue
                key = _link_key(chain_ends, tail_ends, criteria)
                if key is not None and (best_key is None or key < best_key):
                    best, best_key = tail, key
            if best is None:
                break
            consumed.add(best.id)
            chain = Trajectory(id=chain.id, object_class=ObjectClass.PEDESTRIAN,
                               points=np.concatenate([chain.points, best.points]))
            chain_ends = _ends(chain)
        merged.append(chain)
    return merged


# One fragment: start step, rows, start cell (x, y), heading (deg), invalid rows.
_fragment_specs = st.tuples(st.integers(0, 24), st.integers(1, 5), st.integers(-3, 3),
                            st.integers(-3, 3), st.sampled_from([0, 30, 90, 180, 270]),
                            st.sets(st.integers(0, 4), max_size=2))


class TestWindowedMerge:
    """Linking scores only candidates starting just after the chain's end;
    the result must be that of scoring every candidate."""

    @settings(max_examples=150, deadline=None)
    @given(st.lists(_fragment_specs, min_size=1, max_size=14),
           st.sampled_from([0.0, 1e6, 1e6 + 0.1, -3.3]), st.sampled_from([0.2, 0.25, 0.375]),
           st.sampled_from([0.125, 0.1]))
    @example([(0, 3, 0, 0, 0, set()), (5, 3, 1, 0, 0, set()), (5, 3, 1, 0, 0, set())],
             0.0, 0.25, 0.125)  # gap exactly max_time_gap; two identical tails
    def test_matches_scoring_every_candidate(self, specs, offset, max_gap, dt):
        criteria = MergeCriteria(max_time_gap=max_gap)
        frags = []
        for i, (k, n, cx, cy, heading, invalid) in enumerate(specs):
            vx, vy = math.cos(math.radians(heading)), math.sin(math.radians(heading))
            samples = [(offset + (k + j) * dt, 0.25 * cx + vx * j * dt, 0.25 * cy + vy * j * dt,
                        vx, vy) for j in range(n)]
            samples = [(t, *(float("nan"),) * 4) if j in invalid else (t, *rest)
                       for j, (t, *rest) in enumerate(samples)]
            frags.append(_traj(f"f{i:02d}", samples))
        want = _brute_force_merge(frags, criteria)
        got = merge_pedestrian_trajectories(frags, criteria)
        assert [m.id for m in got] == [m.id for m in want]
        assert [m.points.tobytes() for m in got] == [m.points.tobytes() for m in want]

    def test_equal_keys_link_the_earliest_candidate(self):
        # gap exactly max_time_gap; "b" and "b2" tie on every key, and "b"
        # comes first in (start time, id) order
        criteria = MergeCriteria(max_time_gap=0.25)
        a = _traj("a", [(0.0, 0.0, 0.0, 1.0, 0.0), (0.25, 0.25, 0.0, 1.0, 0.0)])
        tail = [(0.5, 0.5, 0.0, 1.0, 0.0), (0.75, 0.75, 0.0, 1.0, 0.0)]
        merged = merge_pedestrian_trajectories([a, _traj("b2", tail), _traj("b", tail)], criteria)
        assert [(m.id, len(m)) for m in merged] == [("a", 4), ("b2", 2)]


# One fragment row: valid, x, y, speed (0 and 0.05 fall back on the window's
# displacement for the heading).
_summary_rows = st.lists(st.tuples(st.booleans(), st.integers(-4, 4), st.integers(-4, 4),
                                   st.sampled_from([0.0, 0.05, 1.0])), min_size=1, max_size=4)


@settings(max_examples=300, deadline=None)
@given(st.lists(_summary_rows.filter(lambda rows: any(v for v, *_ in rows)),
                min_size=2, max_size=4))
def test_joined_summary_is_that_of_the_concatenation(fragments):
    # a chain's summary, extended one fragment at a time, equals the summary
    # of its concatenated points, even where a short fragment leaves the
    # heading windows reaching back across earlier junctions
    nan = float("nan")
    samples, ends = [], None
    for rows in fragments:
        part = [(0.1 * (len(samples) + i), *((0.5 * x, 0.5 * y, speed, 0.0) if valid
                                             else (nan,) * 4))
                for i, (valid, x, y, speed) in enumerate(rows)]
        samples += part
        frag = _ends(_traj("f", part))
        ends = frag if ends is None else _joined(ends, frag)
        assert ends == _ends(_traj("chain", samples))


def _scalar_max_fast_run(traj, speed_limit):
    run = best = 0
    for fast in (traj.valid & (traj.speed >= speed_limit)).tolist():
        run = run + 1 if fast else 0
        best = max(best, run)
    return best


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.booleans(), st.sampled_from([0.5, 2.0, 3.0, 4.5])),
                min_size=1, max_size=40))
@example([(True, 4.5)] * 7)  # all fast
@example([(True, 0.5)] * 7)  # none fast
@example([(False, 4.5)] * 7)  # fast but invalid
@example([(True, 3.0), (False, 4.5), (True, 3.0), (True, 4.5)])
def test_max_fast_run_matches_the_scalar_loop(rows):
    samples = [(0.1 * i, 0.0 if valid else float("nan"), 0.0, speed, 0.0)
               for i, (valid, speed) in enumerate(rows)]
    traj = _traj("p", samples)
    assert _max_fast_run(traj, 3.0) == _scalar_max_fast_run(traj, 3.0)


class TestFilters:
    def _good_walk(self, geom):
        # along the north crosswalk, 10 s, ~14 m, all valid
        samples = [
            (round(i * 0.1, 6), -7.0 + i * 0.014 * 100 * 0.1, 10.0, 1.4, 0.0)
            for i in range(101)
        ]
        return _traj("good", samples)

    def test_good_trajectory_kept(self, geom):
        kept, removed = filter_pedestrian_trajectories([self._good_walk(geom)], geom)
        assert len(kept) == 1 and not removed

    def test_short_duration_removed(self, geom):
        samples = [(round(i * 0.1, 6), i * 1.0, 10.0, 10.0, 0.0) for i in range(9)]
        t = _traj("short", samples)  # 0.8 s
        kept, removed = filter_pedestrian_trajectories([t], geom)
        assert not kept and "too_short" in removed["short"]

    def test_short_path_removed(self, geom):
        samples = [(round(i * 0.1, 6), 0.01 * i, 10.0, 0.1, 0.0) for i in range(30)]
        t = _traj("slowpoke", samples)  # 2.9 s but only 0.29 m
        kept, removed = filter_pedestrian_trajectories([t], geom)
        assert "too_short" in removed["slowpoke"]

    def test_mostly_invalid_removed(self, geom):
        samples = [(round(i * 0.1, 6), -7 + 0.2 * i, 10.0, 2.0, 0.0) for i in range(40)]
        pts = np.array(_traj("x", samples).points)
        pts[::2, 1] = float("nan")  # exactly 50% invalid
        t = Trajectory(id="halfbad", object_class=ObjectClass.PEDESTRIAN, points=pts)
        kept, removed = filter_pedestrian_trajectories([t], geom)
        assert "invalid_points" in removed["halfbad"]

    def test_sustained_fast_movement_removed(self, geom):
        # 12 consecutive points at 3.5 m/s amid an otherwise slow walk
        samples = []
        x = -7.0
        for i in range(60):
            v = 3.5 if 20 <= i < 32 else 1.2
            samples.append((round(i * 0.1, 6), x, 10.0, v, 0.0))
            x += v * 0.1
        t = _traj("runner", samples)
        kept, removed = filter_pedestrian_trajectories([t], geom)
        assert "too_fast" in removed["runner"]

    def test_nine_fast_points_not_removed(self, geom):
        samples = []
        x = -7.0
        for i in range(110):
            v = 3.5 if 20 <= i < 29 else 1.4
            samples.append((round(i * 0.1, 6), x, 10.0, v, 0.0))
            x += v * 0.1
        t = _traj("jogger", samples)
        kept, removed = filter_pedestrian_trajectories([t], geom)
        assert kept and "jogger" not in removed

    def test_wanderer_outside_regions_removed(self, geom):
        samples = [(round(i * 0.1, 6), 30.0 + 0.14 * i, 30.0, 1.4, 0.0)
                   for i in range(90)]
        t = _traj("wanderer", samples)
        kept, removed = filter_pedestrian_trajectories([t], geom)
        assert "outside_regions" in removed["wanderer"]

    def test_jaywalker_in_roadway_removed(self, geom):
        # diagonal through the middle of the intersection, off every crosswalk
        samples = [(round(i * 0.1, 6), -6.0 + 0.1 * i, -6.0 + 0.1 * i, 1.0, 1.0)
                   for i in range(120)]
        t = _traj("jaywalker", samples)
        kept, removed = filter_pedestrian_trajectories([t], geom)
        assert "leaves_crosswalk" in removed["jaywalker"]


class TestFullPreprocess:
    def test_zero_noise_scene_labels_match_truth(self, geom):
        spec = ScenarioSpec(seed=2, n_vehicles_per_cell=1,
                            n_pedestrians_per_crosswalk=1,
                            noise_std_position=0.0, noise_std_velocity=0.0)
        dataset, truth = generate_scenario(spec)
        labeled, report = preprocess_dataset(dataset, geom)
        assert report.vehicles_labeled == len(truth.vehicles)
        for traj in labeled.vehicles:
            want_dir, want_man = truth.vehicles[traj.id]
            assert traj.entering_direction == want_dir
            assert traj.maneuver == want_man
        assert report.pedestrians_retained == len(truth.pedestrian_crosswalks)
        assert len(report.cluster_counts) == 12

    def test_report_text_renders(self, geom):
        spec = ScenarioSpec(seed=2, n_vehicles_per_cell=1,
                            n_pedestrians_per_crosswalk=0)
        dataset, _ = generate_scenario(spec)
        _, report = preprocess_dataset(dataset, geom)
        text = report.to_text()
        assert "vehicles labeled" in text and "pedestrians retained" in text
