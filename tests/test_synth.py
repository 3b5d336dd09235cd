import json
import math

import numpy as np
import pytest
from helpers import row
from hypothesis import example, given, settings, strategies as st

from crossrisk.errors import InputError
from crossrisk.geometry import (
    CROSSWALK_HALF,
    IntersectionGeometry,
    canonical_endpoints,
    canonical_search_regions,
)
from crossrisk.preprocess import classify_entering_direction, classify_movement
from crossrisk.ssm import compute_pet, identify_conflicts_pet
from crossrisk.synth import (
    GROUND_TRUTH_VERSION,
    PED_APPROACH_LENGTH,
    ConflictTruth,
    GroundTruth,
    ScenarioSpec,
    _CROSSWALK_LINES,
    _ENTRY_ROTATION,
    _EPISODE_PERIOD,
    _FIRST_EPISODE_CENTER,
    _crosswalk_axis,
    _find_launch,
    _integrate_motion,
    _pedestrian_path,
    _quantize_frame,
    _vehicle_crossings,
    _vehicle_geometry,
    generate_scenario,
    write_ground_truth,
)
from crossrisk.trajectory import (
    Dataset,
    Direction,
    Maneuver,
    ObjectClass,
    SUPPORTED_MANEUVERS,
    Trajectory,
)


@pytest.fixture(scope="module")
def geom():
    return IntersectionGeometry(endpoints=canonical_endpoints())


class TestDeterminism:
    def test_same_seed_same_dataset(self):
        spec = ScenarioSpec(seed=9, n_vehicles_per_cell=1,
                            n_pedestrians_per_crosswalk=1,
                            n_engineered_conflicts=2)
        a, truth_a = generate_scenario(spec)
        b, truth_b = generate_scenario(spec)
        assert [t.id for t in a.trajectories] == [t.id for t in b.trajectories]
        for ta, tb in zip(a.trajectories, b.trajectories):
            assert len(ta) == len(tb)
            assert ta.points.tobytes() == tb.points.tobytes()
        assert truth_a.vehicles == truth_b.vehicles

    def test_different_seed_differs(self):
        a, _ = generate_scenario(ScenarioSpec(seed=1, n_vehicles_per_cell=1))
        b, _ = generate_scenario(ScenarioSpec(seed=2, n_vehicles_per_cell=1))
        assert a.trajectories[0].xy[0].tolist() != b.trajectories[0].xy[0].tolist()


class TestKinematics:
    def test_zero_noise_straight_vehicle_is_linear(self, geom):
        spec = ScenarioSpec(seed=0, n_vehicles_per_cell=1,
                            n_pedestrians_per_crosswalk=0,
                            noise_std_position=0.0, noise_std_velocity=0.0)
        ds, truth = generate_scenario(spec)
        straights = [t for t in ds.vehicles
                     if truth.vehicles[t.id][1] == Maneuver.STRAIGHT]
        assert straights
        for traj in straights:
            xy = traj.xy[traj.valid]
            chord = xy[-1] - xy[0]
            chord = chord / np.linalg.norm(chord)
            rel = xy - xy[0]
            off_axis = rel - np.outer(rel @ chord, chord)
            assert np.max(np.linalg.norm(off_axis, axis=1)) < 1e-9

    def test_turning_vehicle_slows_into_the_turn(self, geom):
        spec = ScenarioSpec(seed=0, n_vehicles_per_cell=1,
                            n_pedestrians_per_crosswalk=0,
                            noise_std_position=0.0, noise_std_velocity=0.0)
        ds, truth = generate_scenario(spec)
        turner = next(t for t in ds.vehicles
                      if truth.vehicles[t.id][1] == Maneuver.LEFT)
        assert turner.speed.min() < 0.75 * turner.speed.max()
        assert turner.yaw_rate.max() > 0.3
        assert turner.yaw_rate.min() >= 0.0

    def test_pedestrian_speeds_below_filter_threshold(self):
        spec = ScenarioSpec(seed=4, n_vehicles_per_cell=0,
                            n_pedestrians_per_crosswalk=3)
        ds, _ = generate_scenario(spec)
        for ped in ds.pedestrians:
            assert (ped.speed < 3.0).all()

    def test_fast_outliers_when_requested(self):
        spec = ScenarioSpec(seed=4, n_vehicles_per_cell=0,
                            n_pedestrians_per_crosswalk=1, n_fast_pedestrians=2,
                            noise_std_velocity=0.0)
        ds, _ = generate_scenario(spec)
        fast = [ped for ped in ds.pedestrians
                if ped.speed.max() >= 3.0]
        assert len(fast) == 2


class TestGroundTruthRecovery:
    def test_labels_recovered_exactly_in_zero_noise(self, geom):
        spec = ScenarioSpec(seed=5, n_vehicles_per_cell=2,
                            n_pedestrians_per_crosswalk=1,
                            n_engineered_conflicts=3,
                            noise_std_position=0.0, noise_std_velocity=0.0)
        ds, truth = generate_scenario(spec)
        for traj in ds.vehicles:
            want_dir, want_man = truth.vehicles[traj.id]
            assert classify_entering_direction(traj, geom) == want_dir
            assert classify_movement(traj, geom) == want_man

    def test_every_cell_populated(self, geom):
        spec = ScenarioSpec(seed=5, n_vehicles_per_cell=1,
                            n_pedestrians_per_crosswalk=0)
        _, truth = generate_scenario(spec)
        cells = set(truth.vehicles.values())
        assert cells == {(d, m) for d in Direction for m in SUPPORTED_MANEUVERS}

    def test_conflicts_are_exactly_the_engineered_set(self):
        spec = ScenarioSpec(seed=8, n_vehicles_per_cell=2,
                            n_pedestrians_per_crosswalk=2,
                            n_engineered_conflicts=5,
                            noise_std_position=0.05, noise_std_velocity=0.05)
        ds, truth = generate_scenario(spec)
        events = identify_conflicts_pet(ds, threshold=3.0,
                                        zone_radius=spec.pet_zone_radius)
        assert {e.pair for e in events} == {c.pair for c in truth.conflicts}

    def test_pet_round_trip_within_tolerance(self):
        spec = ScenarioSpec(seed=3, n_vehicles_per_cell=0,
                            n_pedestrians_per_crosswalk=0,
                            n_engineered_conflicts=4,
                            requested_pet_range=(1.5, 1.5),
                            noise_std_position=0.0, noise_std_velocity=0.0)
        ds, truth = generate_scenario(spec)
        for c in truth.conflicts:
            event = compute_pet(ds.by_id(c.vehicle_id), ds.by_id(c.pedestrian_id),
                                zone_radius=spec.pet_zone_radius)
            assert event is not None
            assert abs(event.pet - 1.5) <= 0.2


class TestSpecValidation:
    def test_negative_counts_rejected(self):
        with pytest.raises(InputError):
            ScenarioSpec(n_vehicles_per_cell=-1)

    @pytest.mark.parametrize("dt", [0.0, -0.1, float("nan"), float("inf")])
    def test_bad_frame_interval_rejected(self, dt):
        with pytest.raises(InputError, match="frame_interval must be finite and > 0"):
            ScenarioSpec(frame_interval=dt)

    def test_bad_pet_range_rejected(self):
        with pytest.raises(InputError):
            ScenarioSpec(requested_pet_range=(2.0, 1.0))
        with pytest.raises(InputError):
            ScenarioSpec(requested_pet_range=(0.0, 1.0))

    @pytest.mark.parametrize("n_conflicts,kind", [(0, "pedestrian"), (1, "vehicle")])
    def test_unschedulable_scene_rejected(self, n_conflicts, kind):
        # no launch keeps a million-second gap between crossings
        spec = ScenarioSpec(seed=0, n_vehicles_per_cell=1, n_pedestrians_per_crosswalk=1,
                            n_engineered_conflicts=n_conflicts, min_separation=1e6)
        with pytest.raises(InputError, match=f"could not schedule a conflict-free {kind}$"):
            generate_scenario(spec)

    def test_launch_search_wraps_into_the_horizon(self):
        # candidates base + 1.7 k s until the 1 s crossing would end 60 s past
        # the 2 s horizon, then 1.7 k s wrapped into the horizon
        base, duration, horizon, dt = 0.5, 1.0, 2.0, 0.1
        tried = []

        def fits(launch):
            tried.append(launch)
            return False

        with pytest.raises(InputError, match="could not schedule a conflict-free vehicle$"):
            _find_launch(base, duration, horizon, dt, fits, "vehicle")
        assert len(tried) == 600
        direct = [_quantize_frame(base + k * 1.7, dt) for k in range(600)]
        overrun = [k for k in range(600) if direct[k] * dt + duration > horizon + 60.0]
        assert overrun == list(range(overrun[0], 600)) and overrun[0] == 36
        assert tried[:36] == direct[:36]
        assert tried[36:] == [_quantize_frame((k * 1.7) % horizon, dt) for k in overrun]
        assert 0 <= min(tried[36:]) and max(tried[36:]) <= horizon / dt

    def test_infeasible_conflict_timing_rejected(self):
        # a requested gap smaller than the zone compensation cannot be staged
        spec = ScenarioSpec(seed=0, n_engineered_conflicts=1,
                            requested_pet_range=(0.05, 0.05),
                            pet_zone_radius=0.01, frame_interval=0.5)
        with pytest.raises(InputError):
            generate_scenario(spec)


class TestGroundTruthFile:
    def test_round_trip(self, tmp_path):
        spec = ScenarioSpec(seed=2, n_vehicles_per_cell=1,
                            n_pedestrians_per_crosswalk=1,
                            n_engineered_conflicts=2)
        _, truth = generate_scenario(spec)
        path = tmp_path / "truth.json"
        write_ground_truth(truth, path)
        back = json.loads(path.read_text())
        assert back["version"] == GROUND_TRUTH_VERSION
        assert back["vehicles"] == {vid: {"direction": d.value, "maneuver": m.value}
                                    for vid, (d, m) in truth.vehicles.items()}
        assert back["pedestrians"] == {pid: {"crosswalk": d.value}
                                       for pid, d in truth.pedestrian_crosswalks.items()}
        assert [(c["vehicle_id"], c["pedestrian_id"]) for c in back["conflicts"]] == \
            [c.pair for c in truth.conflicts]
        assert back["conflicts"][0]["requested_pet"] == truth.conflicts[0].requested_pet


class TestSearchRegions:
    def test_regions_isolate_single_endpoints(self):
        regions = canonical_search_regions()
        endpoints = canonical_endpoints()
        for key, box in regions.items():
            inside = [k for k, (x, y) in endpoints.items()
                      if box[0] <= x <= box[2] and box[1] <= y <= box[3]]
            assert inside == [key]


# ---------------------------------------------------------------------------
# Scalar references: the per-step, per-point and per-attempt forms of the
# synth internals. The array code must reproduce them bit for bit.
# ---------------------------------------------------------------------------


def ref_integrate_motion(total_length, profile, dt, substeps=10):
    h = dt / substeps
    t_list = [0.0]
    s_list = [0.0]
    s = 0.0
    t = 0.0
    while s < total_length:
        v = float(np.interp(s, *profile))
        if v <= 1e-6:
            break
        s = min(total_length, s + v * h)
        t += h
        t_list.append(t)
        s_list.append(s)
        if t > 3600.0:
            raise InputError("path integration exceeded one hour; bad speed profile")
    return np.asarray(t_list), np.asarray(s_list)


def ref_piece_at(piece, s):
    if piece[0] == "line":
        _, p0, p1 = piece
        direction = (p1 - p0) / float(np.linalg.norm(p1 - p0))
        return p0 + direction * s, direction, 0.0
    _, center, radius, theta0, theta1 = piece
    theta = theta0 + (theta1 - theta0) * (s / (radius * abs(theta1 - theta0)))
    pos = center + radius * np.array([math.cos(theta), math.sin(theta)])
    sign = 1.0 if theta1 > theta0 else -1.0
    tangent = sign * np.array([-math.sin(theta), math.cos(theta)])
    return pos, tangent, 1.0 / radius


def ref_rotate(points, angle):
    c, s = math.cos(angle), math.sin(angle)
    rot = np.array([[c, -s], [s, c]])
    return points @ rot.T


def ref_at(path, s):
    """(position, unit tangent, curvature) of a _Path at one arc length: the
    piece it falls on, then the path's rotation if it has one."""
    s = min(max(s, 0.0), path.total)
    i = int(np.searchsorted(path.cum, s, side="right")) - 1
    i = min(i, len(path.pieces) - 1)
    pos, tangent, curv = ref_piece_at(path.pieces[i], s - path.cum[i])
    if path.angle is None:
        return pos, tangent, curv
    return (ref_rotate(pos[None, :], path.angle)[0],
            ref_rotate(tangent[None, :], path.angle)[0], curv)


def ref_sample(entity_id, object_class, path, profile, launch_frame, noise_seed,
               dt, noise_pos, noise_vel, t_dense, s_dense):
    rng = np.random.default_rng(noise_seed)
    n_frames = int(math.floor(t_dense[-1] / dt)) + 1
    points = []
    for k in range(n_frames):
        s = float(np.interp(k * dt, t_dense, s_dense))
        pos, tangent, curv = ref_at(path, s)
        v = float(np.interp(s, *profile))
        vel = v * tangent
        if noise_pos > 0:
            pos = pos + rng.normal(0.0, noise_pos, size=2)
        if noise_vel > 0:
            vel = vel + rng.normal(0.0, noise_vel, size=2)
        x, y = pos
        vx, vy = vel
        points.append(row(round((launch_frame + k) * dt, 6),
                          float(x), float(y), float(vx), float(vy), abs(v * curv)))
    return Trajectory(id=entity_id, object_class=object_class, points=points)


def ref_vehicle_crossings(path, step=0.25):
    s_grid = np.arange(0.0, path.total + step, step)
    pts = np.array([ref_at(path, min(s, path.total))[0] for s in s_grid])
    crossings = []
    for cw, (axis, level) in _CROSSWALK_LINES.items():
        coord = pts[:, 0] if axis == "x" else pts[:, 1]
        f = coord - level
        for i in np.nonzero((f[:-1] <= 0.0) != (f[1:] <= 0.0))[0]:
            frac = f[i] / (f[i] - f[i + 1])
            spot = pts[i] + frac * (pts[i + 1] - pts[i])
            span = spot[0] if axis == "y" else spot[1]
            if abs(span) <= CROSSWALK_HALF + 0.5:
                s_star = float(s_grid[i] + frac * step)
                crossings.append((cw, s_star, (float(spot[0]), float(spot[1]))))
    return crossings


class RefSchedule:
    def __init__(self, min_separation):
        self.min_separation = min_separation
        self.vehicle_crossings = []
        self.ped_traversals = []

    def _ped_time_at(self, traversal, spot):
        _, t_a, t_b, a, b = traversal
        seg = b - a
        frac = float(np.dot(np.asarray(spot) - a, seg) / np.dot(seg, seg))
        frac = min(1.0, max(0.0, frac))
        return t_a + frac * (t_b - t_a)

    def vehicle_ok(self, crossings_abs):
        for cw, spot, t in crossings_abs:
            for trav in self.ped_traversals:
                if trav[0] != cw:
                    continue
                if abs(t - self._ped_time_at(trav, spot)) < self.min_separation:
                    return False
        return True

    def ped_ok(self, cw, t_a, t_b, a, b):
        trav = (cw, t_a, t_b, a, b)
        for vcw, spot, t in self.vehicle_crossings:
            if vcw != cw:
                continue
            if abs(t - self._ped_time_at(trav, spot)) < self.min_separation:
                return False
        return True

    def add_vehicle(self, crossings_abs):
        self.vehicle_crossings.extend(crossings_abs)

    def add_ped(self, cw, t_a, t_b, a, b):
        self.ped_traversals.append((cw, t_a, t_b, a, b))


def ref_generate_scenario(spec):
    """generate_scenario assembled from the scalar references: every path
    integrated, every crossing found and every frame sampled per entity."""
    dt = spec.frame_interval
    rng = np.random.default_rng(spec.seed)
    schedule = RefSchedule(spec.min_separation)
    trajectories = []
    truth = GroundTruth()
    counters = {"veh": 0, "ped": 0}
    horizon = _FIRST_EPISODE_CENTER + _EPISODE_PERIOD * max(1, spec.n_engineered_conflicts) + 30.0

    def jitter(base, frac=0.03):
        return base * (1.0 + frac * (2.0 * rng.random() - 1.0))

    def make_vehicle(direction, maneuver):
        cruise, turn = jitter(spec.cruise_speed), jitter(spec.turn_speed)
        hypothesis_crossings = []
        chosen = None
        for m in SUPPORTED_MANEUVERS:
            path_m, profile_m = _vehicle_geometry(m, cruise, turn, _ENTRY_ROTATION[direction])
            t_m, s_m = ref_integrate_motion(path_m.total, profile_m, dt)
            crossings_m = ref_vehicle_crossings(path_m)
            for cw, s_star, spot in crossings_m:
                hypothesis_crossings.append((cw, float(np.interp(s_star, s_m, t_m)), spot))
            if m == maneuver:
                chosen = (path_m, profile_m, t_m, s_m, crossings_m)
        entity_id = f"veh{counters['veh']:04d}"
        counters["veh"] += 1
        return (entity_id, *chosen, hypothesis_crossings)

    def make_ped(crosswalk, reverse, lateral_offset, speed):
        angle = (2.0 * rng.random() - 1.0) * math.radians(60.0)
        path = _pedestrian_path(crosswalk, reverse, lateral_offset, angle)
        profile = ([0.0, path.total], [speed, speed])
        t_dense, s_dense = ref_integrate_motion(path.total, profile, dt)
        entity_id = f"ped{counters['ped']:04d}"
        counters["ped"] += 1
        return entity_id, path, profile, t_dense, s_dense

    def emit(entity_id, object_class, path, profile, launch_frame):
        t_dense, s_dense = ref_integrate_motion(path.total, profile, dt)
        trajectories.append(ref_sample(
            entity_id, object_class, path, profile, launch_frame,
            spec.seed * 1_000_003 + len(trajectories), dt,
            spec.noise_std_position, spec.noise_std_velocity, t_dense, s_dense))

    turn_cells = [(d, m) for m in (Maneuver.LEFT, Maneuver.RIGHT) for d in Direction]
    lo, hi = spec.requested_pet_range
    for i in range(spec.n_engineered_conflicts):
        direction, maneuver = turn_cells[i % len(turn_cells)]
        requested = lo if spec.n_engineered_conflicts == 1 else (
            lo + (hi - lo) * i / (spec.n_engineered_conflicts - 1))
        vid, vpath, vprofile, vt, vs, vcross, vhypo = make_vehicle(direction, maneuver)
        exit_crossings = [c for c in vcross if c[1] > vs[-1] * 0.4]
        cw, s_star, spot = max(exit_crossings, key=lambda c: c[1])
        center = _FIRST_EPISODE_CENTER + _EPISODE_PERIOD * i
        t_rel = float(np.interp(s_star, vs, vt))
        launch_v = _quantize_frame(center - t_rel, dt)
        t_veh_abs = launch_v * dt + t_rel
        a, b = _crosswalk_axis(cw)
        reverse = np.linalg.norm(np.asarray(spot) - b) < np.linalg.norm(np.asarray(spot) - a)
        ped_speed = jitter(spec.pedestrian_speed, 0.05)
        pid, ppath, pprofile, pt, ps = make_ped(cw, reverse, 0.0, ped_speed)
        s_scan = np.linspace(0.0, ppath.total, 2000)
        d_scan = [np.linalg.norm(ref_at(ppath, s)[0] - np.asarray(spot)) for s in s_scan]
        s_spot = float(s_scan[int(np.argmin(d_scan))])
        t_ped_rel = float(np.interp(s_spot, ps, pt))
        v_veh_spot = float(np.interp(s_star, *vprofile))
        gap = requested + spec.pet_zone_radius * (1.0 / v_veh_spot + 1.0 / ped_speed) - dt
        sign = 1.0 if i % 2 == 0 else -1.0
        t_ped_target = t_veh_abs + sign * gap
        launch_p = _quantize_frame(t_ped_target - t_ped_rel, dt)
        t_ped_abs = launch_p * dt + t_ped_rel
        schedule.add_vehicle([(c, s, launch_v * dt + t_rel_c) for c, t_rel_c, s in vhypo])
        pa, pb = (b, a) if reverse else (a, b)
        t_a = launch_p * dt + PED_APPROACH_LENGTH / ped_speed
        t_b = t_a + float(np.linalg.norm(pb - pa)) / ped_speed
        schedule.add_ped(cw, t_a, t_b, pa, pb)
        emit(vid, ObjectClass.VEHICLE, vpath, vprofile, launch_v)
        emit(pid, ObjectClass.PEDESTRIAN, ppath, pprofile, launch_p)
        truth.vehicles[vid] = (direction, maneuver)
        truth.pedestrian_crosswalks[pid] = cw
        truth.conflicts.append(ConflictTruth(
            vehicle_id=vid, pedestrian_id=pid, requested_pet=requested, point=spot,
            t_vehicle=round(t_veh_abs, 4), t_pedestrian=round(t_ped_abs, 4)))

    for direction in Direction:
        for maneuver in SUPPORTED_MANEUVERS:
            for _ in range(spec.n_vehicles_per_cell):
                vid, vpath, vprofile, vt, vs, vcross, vhypo = make_vehicle(direction, maneuver)
                base = (counters["veh"] * 7.3) % max(horizon - 20.0, 1.0)
                for attempt in range(600):
                    cand = _quantize_frame(base + attempt * 1.7, dt)
                    if cand * dt + vt[-1] > horizon + 60.0:
                        cand = _quantize_frame((attempt * 1.7) % horizon, dt)
                    abs_cross = [(cw, spot, cand * dt + t_rel_c) for cw, t_rel_c, spot in vhypo]
                    if schedule.vehicle_ok(abs_cross):
                        schedule.add_vehicle(abs_cross)
                        break
                emit(vid, ObjectClass.VEHICLE, vpath, vprofile, cand)
                truth.vehicles[vid] = (direction, maneuver)

    ped_plan = [(cw, j) for cw in Direction for j in range(spec.n_pedestrians_per_crosswalk)]
    fast_plan = [(cw, -1) for cw in list(Direction)[: spec.n_fast_pedestrians]]
    for cw, j in ped_plan + fast_plan:
        speed = 3.5 if j == -1 else jitter(spec.pedestrian_speed, 0.1)
        offset = (2.0 * rng.random() - 1.0) * 1.2
        reverse = bool(rng.integers(2))
        pid, ppath, pprofile, pt, ps = make_ped(cw, reverse, offset, speed)
        a, b = _crosswalk_axis(cw)
        pa, pb = (b, a) if reverse else (a, b)
        base = (counters["ped"] * 9.1) % max(horizon - 30.0, 1.0)
        for attempt in range(600):
            cand = _quantize_frame(base + attempt * 1.7, dt)
            if cand * dt + pt[-1] > horizon + 60.0:
                cand = _quantize_frame((attempt * 1.7) % horizon, dt)
            t_a = cand * dt + PED_APPROACH_LENGTH / speed
            t_b = t_a + float(np.linalg.norm(pb - pa)) / speed
            if schedule.ped_ok(cw, t_a, t_b, pa, pb):
                schedule.add_ped(cw, t_a, t_b, pa, pb)
                break
        emit(pid, ObjectClass.PEDESTRIAN, ppath, pprofile, cand)
        truth.pedestrian_crosswalks[pid] = cw

    return Dataset(trajectories=trajectories, frame_interval=dt), truth


@st.composite
def speed_profiles(draw):
    """(total length, profile, dt): duplicate knots, constant and linear
    pieces, a first knot past 0 and, sometimes, a zero-speed tail."""
    n = draw(st.integers(2, 6))
    gaps = draw(st.lists(st.sampled_from([0.0, 0.5]) | st.floats(0.0, 12.0),
                         min_size=n - 1, max_size=n - 1))
    knots_s = np.cumsum([draw(st.floats(0.0, 3.0)), *gaps])
    speeds = [draw(st.floats(0.5, 15.0))]
    for _ in range(n - 1):
        speeds.append(speeds[-1] if draw(st.booleans()) else draw(st.floats(0.5, 15.0)))
    if draw(st.booleans()):
        speeds[-2] = max(speeds[-2], 3.0)  # keep the decay to a stop short
        speeds[-1] = 0.0
    total = draw(st.floats(0.5, 60.0))
    dt = draw(st.sampled_from([0.05, 0.1, 0.2]))
    return total, (knots_s, speeds), dt


class TestArraySynthMatchesScalarReference:
    @settings(max_examples=60, deadline=None)
    @given(speed_profiles())
    # a knot 5e-324 m past another: the slope between them overflows to -inf
    @example((1.0, ([0.0, 5e-324], [3.0, 0.0]), 0.05))
    def test_integration_tables_bitwise(self, case):
        total, profile, dt = case
        t, s = _integrate_motion(total, profile, dt)
        t_ref, s_ref = ref_integrate_motion(total, profile, dt)
        assert t.tobytes() == t_ref.tobytes()
        assert s.tobytes() == s_ref.tobytes()

    @pytest.mark.parametrize("knots_v", [(1e-5, 1e-5), (2e-6, 1e-5)])
    def test_one_hour_guard(self, knots_v):
        with pytest.raises(InputError, match="one hour"):
            _integrate_motion(10.0, ([0.0, 10.0], knots_v), 0.1)

    def test_path_sampling_bitwise(self):
        rng = np.random.default_rng(0)
        paths = [_vehicle_geometry(m, 11.0, 6.0, _ENTRY_ROTATION[d])[0]
                 for m in SUPPORTED_MANEUVERS for d in Direction]
        paths += [_pedestrian_path(cw, bool(k % 2), 0.9 * k - 1.0, 0.4 * k - 0.8)
                  for k, cw in enumerate(Direction)]
        for path in paths:
            s = np.concatenate([[-1.0, path.total + 1.0], path.cum,
                                rng.random(300) * path.total])
            pos, tangent, curvature = path.sample(s)
            for k, sk in enumerate(s):
                want = ref_at(path, float(sk))
                assert pos[k].tobytes() == want[0].tobytes()
                assert tangent[k].tobytes() == np.asarray(want[1]).tobytes()
                assert curvature[k] == want[2]
            assert _vehicle_crossings(path) == ref_vehicle_crossings(path)

    @pytest.mark.parametrize("seed,noise_pos,noise_vel,n_fast", [
        (0, 0.1, 0.1, 0), (3, 0.0, 0.0, 0), (5, 0.05, 0.0, 2), (7, 0.0, 0.08, 1),
    ])
    def test_generate_scenario_matches_reference_assembly(self, seed, noise_pos,
                                                          noise_vel, n_fast):
        spec = ScenarioSpec(seed=seed, n_vehicles_per_cell=1,
                            n_pedestrians_per_crosswalk=2, n_engineered_conflicts=3,
                            n_fast_pedestrians=n_fast, noise_std_position=noise_pos,
                            noise_std_velocity=noise_vel)
        ds, truth = generate_scenario(spec)
        ref_ds, ref_truth = ref_generate_scenario(spec)
        assert [(t.id, t.object_class) for t in ds.trajectories] == [
            (t.id, t.object_class) for t in ref_ds.trajectories]
        for traj, ref in zip(ds.trajectories, ref_ds.trajectories):
            # every float bit, down to -0.0
            assert traj.points.tobytes() == ref.points.tobytes()
        assert repr(truth) == repr(ref_truth)
