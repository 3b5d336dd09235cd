import math

import numpy as np
import pytest
from helpers import row
from hypothesis import example, given, settings, strategies as st

from crossrisk import ssm
from crossrisk.ssm import (
    ConflictEvent,
    compute_pet,
    compute_ttc,
    co_present_pairs,
    evaluate_detection,
    identify_conflicts_pet,
)
from crossrisk.trajectory import Dataset, ObjectClass, Trajectory


def stepping_ttc_oracle(veh, ped, radius, dt=0.001, t_max=60.0):
    """Brute-force 1 ms time-stepping oracle for the closed-form solver, on
    ``(x, y, vx, vy)`` rows."""
    (vx0, vy0, vvx, vvy), (px0, py0, pvx, pvy) = veh, ped
    t = 0.0
    while t <= t_max:
        dx = (px0 + pvx * t) - (vx0 + vvx * t)
        dy = (py0 + pvy * t) - (vy0 + vvy * t)
        if math.hypot(dx, dy) <= radius:
            return t
        t += dt
    return None


def ttc(veh, ped, radius=1.0):
    """``compute_ttc`` on one ``(x, y, vx, vy)`` row each, as a float or None."""
    got = compute_ttc(np.array([veh], dtype=float), np.array([ped], dtype=float), radius)
    assert got.shape == (1,)
    return None if math.isnan(got[0]) else float(got[0])


def _path(traj_id, object_class, samples):
    pts = [row(t, x, y, vx, vy, 0.0) for t, x, y, vx, vy in samples]
    return Trajectory(id=traj_id, object_class=object_class, points=pts)


def crossing_pair(t_ped_cross, t_veh_cross, ped_speed=1.0, veh_speed=2.0):
    """Pedestrian crosses (0, 0) northbound at t_ped_cross; vehicle crosses
    the same point eastbound at t_veh_cross. 0.1 s sampling."""
    ped_samples = []
    for k in range(int(t_ped_cross / 0.1) * 2 + 1):
        t = round(k * 0.1, 6)
        y = ped_speed * (t - t_ped_cross)
        ped_samples.append((t, 0.0, y, 0.0, ped_speed))
    veh_samples = []
    for k in range(int(t_veh_cross / 0.1) * 2 + 1):
        t = round(k * 0.1, 6)
        x = veh_speed * (t - t_veh_cross)
        veh_samples.append((t, x, 0.0, veh_speed, 0.0))
    return (_path("veh", ObjectClass.VEHICLE, veh_samples),
            _path("ped", ObjectClass.PEDESTRIAN, ped_samples))


class TestComputeTtc:
    def test_head_on_closure(self):
        assert ttc((0.0, 0.0, 5.0, 0.0), (10.0, 0.0, 0.0, 0.0), radius=1e-9) == pytest.approx(
            2.0, abs=1e-6)

    def test_diverging_agents_have_none(self):
        assert ttc((0.0, 0.0, -3.0, 0.0), (10.0, 0.0, 1.0, 0.0), radius=1.0) is None

    def test_already_within_radius(self):
        assert ttc((0.0, 0.0, 1.0, 0.0), (0.5, 0.0, 0.0, 0.0), radius=1.0) == 0.0

    def test_no_relative_motion_separated(self):
        assert ttc((0.0, 0.0, 2.0, 0.0), (5.0, 5.0, 2.0, 0.0), radius=1.0) is None

    def test_near_miss_outside_radius(self):
        assert ttc((0.0, 0.0, 1.0, 0.0), (10.0, 3.0, 0.0, 0.0), radius=1.0) is None

    def test_oblique_crossings_match_stepping_oracle(self):
        # draw both agents aimed near a common point with a small time and
        # lateral offset so a good share of cases genuinely approach
        rng = np.random.default_rng(0)
        checked = 0
        for _ in range(100):
            meet = rng.uniform(-10, 10, size=2)
            v_veh = rng.uniform(-8, 8, size=2)
            v_ped = rng.uniform(-2, 2, size=2)
            t1 = float(rng.uniform(0.5, 6.0))
            t2 = t1 + float(rng.uniform(-1.0, 1.0))
            lateral = rng.uniform(-1.5, 1.5, size=2)
            veh = (float(meet[0] - v_veh[0] * t1), float(meet[1] - v_veh[1] * t1),
                   float(v_veh[0]), float(v_veh[1]))
            ped = (float(meet[0] - v_ped[0] * t2 + lateral[0]),
                   float(meet[1] - v_ped[1] * t2 + lateral[1]),
                   float(v_ped[0]), float(v_ped[1]))
            radius = float(rng.uniform(0.3, 2.0))
            got = ttc(veh, ped, radius)
            want = stepping_ttc_oracle(veh, ped, radius)
            if want is None:
                assert got is None or got > 60.0
            else:
                assert got is not None
                assert abs(got - want) <= 1e-3
                checked += 1
        assert checked >= 30  # the sampler produced real approaches

    def test_nonnegative_when_present(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            veh = tuple(float(v) for v in rng.uniform(-10, 10, 4))
            ped = tuple(float(v) for v in rng.uniform(-10, 10, 4))
            got = ttc(veh, ped, 1.0)
            assert got is None or got >= 0.0

    def test_rows_equal_row_by_row_calls(self):
        rng = np.random.default_rng(2)
        veh = rng.uniform(-10, 10, size=(64, 4))
        ped = rng.uniform(-10, 10, size=(64, 4))
        ped[:8] = veh[:8]  # already within the radius
        ped[8:16, 2:] = veh[8:16, 2:]  # no relative motion
        got = compute_ttc(veh, ped, 1.5)
        want = [compute_ttc(veh[i:i + 1], ped[i:i + 1], 1.5)[0] for i in range(64)]
        assert got.tobytes() == np.array(want).tobytes()
        assert np.isnan(got).any() and (got == 0.0).any() and (got > 0.0).any()

    def test_mismatched_rows_raise(self):
        with pytest.raises(ValueError):
            compute_ttc(np.zeros((3, 4)), np.zeros((2, 4)))


class TestComputePet:
    def test_crossing_recovers_passage_gap_with_small_zone(self):
        veh, ped = crossing_pair(t_ped_cross=5.0, t_veh_cross=6.5)
        event = compute_pet(veh, ped, zone_radius=0.05)
        assert event is not None
        assert event.pet == pytest.approx(1.5, abs=1e-9)
        assert event.zone_center == pytest.approx((0.0, 0.0), abs=1e-9)
        assert event.window[0] <= event.window[1]

    def test_simultaneous_occupancy_is_zero(self):
        veh, ped = crossing_pair(t_ped_cross=5.0, t_veh_cross=5.0)
        event = compute_pet(veh, ped, zone_radius=1.0)
        assert event is not None and event.pet == 0.0

    def test_distant_paths_absent(self):
        veh = _path("veh", ObjectClass.VEHICLE,
                    [(k * 0.1, k * 0.5, 0.0, 5.0, 0.0) for k in range(50)])
        ped = _path("ped", ObjectClass.PEDESTRIAN,
                    [(k * 0.1, k * 0.1, 50.0, 1.0, 0.0) for k in range(50)])
        assert compute_pet(veh, ped, zone_radius=1.0) is None

    def test_wider_zone_shrinks_measured_gap(self):
        veh, ped = crossing_pair(t_ped_cross=5.0, t_veh_cross=6.5)
        tight = compute_pet(veh, ped, zone_radius=0.05)
        wide = compute_pet(veh, ped, zone_radius=1.0)
        assert wide.pet < tight.pet

    def test_event_validation(self):
        with pytest.raises(ValueError):
            ConflictEvent("v", "p", (0.0, 1.0), -0.5, (0.0, 0.0))
        with pytest.raises(ValueError):
            ConflictEvent("v", "p", (2.0, 1.0), 0.5, (0.0, 0.0))


def reference_pet(veh, ped, zone_radius):
    """``compute_pet`` without its bounding-box test: the full closest-pair
    search on every pair."""
    veh_xy, ped_xy = veh.xy[veh.valid], ped.xy[ped.valid]
    if len(veh_xy) == 0 or len(ped_xy) == 0:
        return None
    veh_t, ped_t = veh.t[veh.valid], ped.t[ped.valid]
    diff = veh_xy[:, None, :] - ped_xy[None, :, :]
    d2 = np.einsum("ijk,ijk->ij", diff, diff)
    j, k = np.unravel_index(int(np.argmin(d2)), d2.shape)
    if math.sqrt(d2[j, k]) > zone_radius:
        return None
    center = (veh_xy[j] + ped_xy[k]) / 2.0
    intervals = []
    for times, xy in ((veh_t, veh_xy), (ped_t, ped_xy)):
        inside = np.nonzero(np.linalg.norm(xy - center[None, :], axis=1) <= zone_radius)[0]
        if inside.size == 0:
            return None
        intervals.append((float(times[inside[0]]), float(times[inside[-1]])))
    (v0, v1), (p0, p1) = intervals
    return ConflictEvent(vehicle_id=veh.id, pedestrian_id=ped.id,
                         window=(min(v0, p0), max(v1, p1)),
                         pet=max(0.0, max(v0, p0) - min(v1, p1)),
                         zone_center=(float(center[0]), float(center[1])))


class TestPetBoxTest:
    """``compute_pet`` searches only the points that lie within the zone
    radius of the other path's bounding box, and none when the boxes lie
    farther apart than the radius; it must return what the full search
    returns."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(0.9, 1.1), st.floats(0.0, math.pi / 2),
           st.sampled_from([0.5, 1.0, 2.5, 0.3]), st.sampled_from([1.0, -1.0]),
           st.sampled_from([1.0, -1.0]), st.integers(1, 12), st.integers(1, 12))
    def test_matches_the_full_search_near_the_radius(self, seed, factor, angle, radius,
                                                      sx, sy, n_veh, n_ped):
        # the pedestrian's box sits off a corner (or side) of the vehicle's,
        # factor * radius away, with a point on the near corner of each box
        rng = np.random.default_rng(seed)
        veh_xy = rng.uniform(0.0, 3.0, size=(n_veh, 2))
        veh_xy[0] = 3.0
        gap = factor * radius * np.array([math.cos(angle), math.sin(angle)])
        ped_xy = 3.0 + gap + rng.uniform(0.0, 3.0, size=(n_ped, 2))
        ped_xy[0] = 3.0 + gap
        sign = np.array([sx, sy])
        veh_xy, ped_xy = veh_xy * sign + 10.0, ped_xy * sign + 10.0
        invalid = rng.random(n_ped) < 0.2
        invalid[0] = False

        def path(traj_id, cls, xy, nan_rows):
            pts = [row(0.1 * i, *((math.nan,) * 4 if bad else (x, y, 1.0, 0.0)))
                   for i, ((x, y), bad) in enumerate(zip(xy.tolist(), nan_rows))]
            return Trajectory(id=traj_id, object_class=cls, points=pts)

        veh = path("veh", ObjectClass.VEHICLE, veh_xy, [False] * n_veh)
        ped = path("ped", ObjectClass.PEDESTRIAN, ped_xy, invalid)
        assert compute_pet(veh, ped, radius) == reference_pet(veh, ped, radius)

    @pytest.mark.parametrize("offset", [(2.5, 0.0), (0.0, -2.5), (1.5, 2.0), (-2.0, -1.5)])
    def test_pair_exactly_at_the_radius_is_an_event(self, offset):
        # both agents move along one line away from each other: the boxes,
        # like the closest pair, are exactly zone_radius apart
        veh = _path("veh", ObjectClass.VEHICLE, [(0.0, 0.0, 0.0, 1.0, 0.0),
                                                 (0.1, -offset[0], -offset[1], 1.0, 0.0)])
        ped = _path("ped", ObjectClass.PEDESTRIAN, [(0.0, *offset, 0.0, 1.0),
                                                    (0.1, 2 * offset[0], 2 * offset[1], 0.0, 1.0)])
        event = compute_pet(veh, ped, zone_radius=2.5)
        assert event is not None and event == reference_pet(veh, ped, 2.5)
        assert compute_pet(veh, ped, zone_radius=math.nextafter(2.5, 0.0)) is None


    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([0.3, 0.5, 1.0, 2.5]),
           st.sampled_from([0.5, 0.25, 0.1]), st.integers(2, 40), st.integers(2, 40))
    def test_pruned_search_matches_the_full_search(self, seed, radius, step, n_veh, n_ped):
        # random walks on a lattice of exactly representable steps through a
        # shared area: many pairs lie exactly at the radius (3-4-5 and axis
        # steps) and many tie for the closest distance
        rng = np.random.default_rng(seed)

        def walk(traj_id, cls, n):
            xy = np.cumsum(rng.integers(-2, 3, size=(n, 2)) * step, axis=0)
            xy += rng.integers(-4, 5, size=2) * step
            bad = rng.random(n) < 0.1
            pts = [row(0.1 * i, *((math.nan,) * 4 if b else (x, y, 1.0, 0.0)))
                   for i, ((x, y), b) in enumerate(zip(xy.tolist(), bad))]
            return Trajectory(id=traj_id, object_class=cls, points=pts)

        veh = walk("veh", ObjectClass.VEHICLE, n_veh)
        ped = walk("ped", ObjectClass.PEDESTRIAN, n_ped)
        for r in (radius, math.nextafter(radius, 0.0), math.nextafter(radius, math.inf)):
            assert compute_pet(veh, ped, r) == reference_pet(veh, ped, r)


class TestIdentifyConflicts:
    def _scene(self, gaps):
        trajs = []
        for i, gap in enumerate(gaps):
            veh, ped = crossing_pair(t_ped_cross=5.0, t_veh_cross=5.0 + gap)
            shift = 100.0 * i
            veh_pts, ped_pts = (
                [row(round(t + shift, 6), x, y, vx, vy, 0.0)
                 for t, x, y, vx, vy, _ in traj.points.tolist()]
                for traj in (veh, ped))
            trajs.append(Trajectory(id=f"veh{i}", object_class=ObjectClass.VEHICLE,
                                    points=veh_pts))
            trajs.append(Trajectory(id=f"ped{i}", object_class=ObjectClass.PEDESTRIAN,
                                    points=ped_pts))
        return Dataset(trajectories=trajs)

    def test_threshold_boundary(self):
        # zone entry/exit timing makes the measured value the passage gap
        # minus the zone margins; probe both sides of the 3 s threshold
        ds = self._scene([0.5])
        assert len(identify_conflicts_pet(ds, threshold=3.0, zone_radius=0.05)) == 1
        veh, ped = crossing_pair(5.0, 5.0 + 2.9)
        assert compute_pet(veh, ped, 0.05).pet == pytest.approx(2.9, abs=1e-9)
        assert len(identify_conflicts_pet(
            Dataset(trajectories=[veh, ped]), 3.0, 0.05)) == 1
        veh2, ped2 = crossing_pair(5.0, 5.0 + 3.1)
        assert compute_pet(veh2, ped2, 0.05).pet == pytest.approx(3.1, abs=1e-9)
        assert identify_conflicts_pet(
            Dataset(trajectories=[veh2, ped2]), 3.0, 0.05) == []

    def test_empty_dataset(self):
        assert identify_conflicts_pet(Dataset(trajectories=[])) == []

    def test_only_co_present_pairs_evaluated(self):
        ds = self._scene([0.5, 0.5])
        pairs = co_present_pairs(ds)
        assert {(v.id, p.id) for v, p in pairs} == {("veh0", "ped0"), ("veh1", "ped1")}

    def test_enumeration_order_invariant(self):
        ds = self._scene([0.5, 1.0])
        events = identify_conflicts_pet(ds, 3.0, 0.05)
        reversed_ds = Dataset(trajectories=list(reversed(ds.trajectories)))
        events_r = identify_conflicts_pet(reversed_ds, 3.0, 0.05)
        assert [(e.pair, e.pet) for e in events] == [(e.pair, e.pet) for e in events_r]


    @settings(max_examples=120, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([0.3, 0.5, 1.0, 2.5]),
           st.sampled_from([0.5, 0.25, 0.1]), st.sampled_from([0.0, 0.5, 3.0]))
    def test_equals_compute_pet_on_every_co_present_pair(self, seed, radius, step, threshold):
        # lattice walks that start at different times, so that only some
        # pairs are co-present; many boxes lie exactly the radius apart. Two
        # trajectories have no valid point, and one pair, alone in its time
        # span, lies exactly the radius apart along an axis.
        rng = np.random.default_rng(seed)

        def walk(traj_id, cls):
            n = int(rng.integers(2, 30))
            xy = np.cumsum(rng.integers(-2, 3, size=(n, 2)) * step, axis=0)
            xy += rng.integers(-12, 13, size=2) * step
            bad = rng.random(n) < 0.1
            t0 = 0.1 * int(rng.integers(0, 30))
            pts = [row(t0 + 0.1 * i, *((math.nan,) * 4 if b else (x, y, 1.0, 0.0)))
                   for i, ((x, y), b) in enumerate(zip(xy.tolist(), bad))]
            return Trajectory(id=traj_id, object_class=cls, points=pts)

        def blank(traj_id, cls):
            return Trajectory(id=traj_id, object_class=cls,
                              points=[row(0.1 * i, *(math.nan,) * 4) for i in range(60)])

        trajs = [walk(f"veh{i}", ObjectClass.VEHICLE) for i in range(4)]
        trajs += [walk(f"ped{i}", ObjectClass.PEDESTRIAN) for i in range(4)]
        trajs += [blank("veh_blank", ObjectClass.VEHICLE),
                  blank("ped_blank", ObjectClass.PEDESTRIAN),
                  _path("veh_at", ObjectClass.VEHICLE, [(50.0, 0.0, 0.0, 1.0, 0.0),
                                                        (50.1, -radius, 0.0, 1.0, 0.0)]),
                  _path("ped_at", ObjectClass.PEDESTRIAN, [(50.0, radius, 0.0, 0.0, 1.0),
                                                           (50.1, 2 * radius, 0.0, 0.0, 1.0)])]
        dataset = Dataset(trajectories=trajs)
        want = [event for veh, ped in co_present_pairs(dataset)
                if (event := compute_pet(veh, ped, radius)) is not None
                and event.pet <= threshold]
        got = identify_conflicts_pet(dataset, threshold, radius)
        assert got == sorted(want, key=lambda e: e.pair)
        assert ("veh_at", "ped_at") in [e.pair for e in got]

    def test_pairs_with_distant_boxes_skip_compute_pet(self, monkeypatch):
        # of the four co-present pairs, one has boxes more than the radius
        # apart and two hold a vehicle without a valid point
        veh, ped = crossing_pair(t_ped_cross=5.0, t_veh_cross=5.5)
        far = Trajectory(id="far", object_class=ObjectClass.PEDESTRIAN,
                         points=[(t, x, y + 100.0, vx, vy, yaw)
                                 for t, x, y, vx, vy, yaw in ped.points.tolist()])
        blank = Trajectory(id="blank", object_class=ObjectClass.VEHICLE,
                           points=[row(0.1 * i, *(math.nan,) * 4) for i in range(20)])
        calls = []

        def counting(v, p, zone_radius):
            calls.append((v.id, p.id))
            return compute_pet(v, p, zone_radius)

        monkeypatch.setattr(ssm, "compute_pet", counting)
        dataset = Dataset(trajectories=[veh, ped, far, blank])
        assert len(co_present_pairs(dataset)) == 4
        events = identify_conflicts_pet(dataset, 3.0, zone_radius=0.5)
        assert calls == [("veh", "ped")]
        assert [e.pair for e in events] == [("veh", "ped")]


def reference_roc(scores, truth):
    """The ROC rows and AUC as ``evaluate_detection`` once computed them: one
    pass over every pair per distinct score."""
    truth_pairs = set(map(tuple, truth))
    pairs = sorted(set(scores) | truth_pairs)
    labels = np.array([p in truth_pairs for p in pairs], dtype=bool)
    pair_scores = np.array([float(scores.get(p, 0.0)) for p in pairs])
    n_pos, n_neg = int(labels.sum()), int((~labels).sum())
    roc = [(math.inf, 0.0, 0.0)]
    for thr in sorted(set(pair_scores), reverse=True):
        hit = pair_scores >= thr
        roc.append((float(thr), float(np.sum(hit & labels)) / n_pos,
                    float(np.sum(hit & ~labels)) / n_neg))
    if roc[-1][1:] != (1.0, 1.0):
        roc.append((-math.inf, 1.0, 1.0))
    fpr = np.array([r[2] for r in roc])
    tpr = np.array([r[1] for r in roc])
    return roc, float(np.sum((fpr[1:] - fpr[:-1]) * (tpr[1:] + tpr[:-1]) / 2.0))


class TestEvaluateDetection:
    def test_perfect_separation(self):
        scores = {("v1", "p1"): 1.0, ("v2", "p2"): 1.0,
                  ("v3", "p3"): 0.0, ("v4", "p4"): 0.0}
        truth = [("v1", "p1"), ("v2", "p2")]
        report = evaluate_detection(scores, truth)
        assert report.sensitivity == 1.0
        assert report.false_alarm_rate == 0.0
        assert report.auc == pytest.approx(1.0)

    def test_equal_scores_are_uninformative(self):
        scores = {("v1", "p1"): 0.5, ("v2", "p2"): 0.5,
                  ("v3", "p3"): 0.5, ("v4", "p4"): 0.5}
        report = evaluate_detection(scores, [("v1", "p1"), ("v2", "p2")])
        assert report.auc == pytest.approx(0.5)
        assert report.sensitivity == 1.0  # every score > 0
        assert report.false_alarm_rate == 1.0

    def test_hand_computed_six_pair_roc(self):
        # scores [1.0 P, 0.8 P, 0.8 N, 0.4 P, 0.2 N, 0.0 N] -> AUC = 5/6
        scores = {("a", "1"): 1.0, ("b", "1"): 0.8, ("c", "1"): 0.8,
                  ("d", "1"): 0.4, ("e", "1"): 0.2, ("f", "1"): 0.0}
        truth = [("a", "1"), ("b", "1"), ("d", "1")]
        report = evaluate_detection(scores, truth)
        assert report.auc == pytest.approx(5.0 / 6.0, abs=1e-12)
        assert report.sensitivity == 1.0  # positives all score > 0
        assert report.false_alarm_rate == pytest.approx(2.0 / 3.0)

    def test_missing_truth_stream_is_a_false_negative(self):
        report = evaluate_detection({("v1", "p1"): 1.0}, [("v9", "p9")])
        assert (report.tp, report.fn, report.fp, report.tn) == (0, 1, 1, 0)
        assert report.sensitivity == 0.0

    def test_empty_truth_reports_far_only(self):
        scores = {("v1", "p1"): 0.0, ("v2", "p2"): 0.4}
        report = evaluate_detection(scores, [])
        assert report.sensitivity == 1.0  # vacuous
        assert report.false_alarm_rate == pytest.approx(0.5)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(0.01, 0.99), min_size=4, max_size=12, unique=True),
           st.integers(1, 3))
    # tanh(3 s) once tied the last two scores here and moved the AUC
    @example(raw=[0.75, 0.99, 0.5, 0.9899999999999999], n_pos=2)
    def test_auc_invariant_under_monotone_transform(self, raw, n_pos):
        pairs = [(f"v{i}", "p") for i in range(len(raw))]
        truth = pairs[:n_pos]
        base = evaluate_detection(dict(zip(pairs, raw)), truth)
        # scaling by a power of two is exact on these floats, so the transform
        # is strictly increasing on them and cannot tie two distinct scores
        squashed = evaluate_detection(
            dict(zip(pairs, [math.ldexp(s, -7) for s in raw])), truth
        )
        assert squashed.auc == pytest.approx(base.auc, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.one_of(st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0]),
                              st.floats(0.0, 1.0)), min_size=2, max_size=40),
           st.data())
    def test_roc_equals_the_per_threshold_reference(self, raw, data):
        # ties (a run of equal scores, 0.0 and -0.0 among them) are one
        # threshold; truth pairs without a score count as 0
        pairs = [(f"v{i:02d}", "p") for i in range(len(raw))]
        labels = data.draw(st.lists(st.booleans(), min_size=len(raw), max_size=len(raw))
                           .filter(lambda ls: any(ls) and not all(ls)))
        truth = [pair for pair, positive in zip(pairs, labels) if positive]
        truth += data.draw(st.lists(st.sampled_from([("w1", "p"), ("w2", "p")]),
                                    max_size=2))
        scores = dict(zip(pairs, raw))
        report = evaluate_detection(scores, truth)
        roc, auc = reference_roc(scores, truth)
        assert repr(report.roc) == repr(roc)
        assert report.auc.hex() == auc.hex()

    def test_report_text_renders(self):
        report = evaluate_detection({("v", "p"): 1.0, ("w", "p"): 0.0}, [("v", "p")])
        text = report.to_text()
        assert "sensitivity" in text and "auc" in text
