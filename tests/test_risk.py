import math
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from helpers import crossing_risk, fit_clusters, frame_features, row
from hypothesis import given, settings, strategies as st

from crossrisk import evaluation, risk
from crossrisk.evaluation import RiskConfig, TrainConfig, compute_risk_streams
from crossrisk.geometry import IntersectionGeometry, canonical_endpoints
from crossrisk.gpr import (
    GprConfig,
    GprModelPair,
    KernelConfig,
    build_gpr_model,
    rollout,
)
from crossrisk.maneuver import (
    MANEUVER_CODES,
    ForestModel,
    Tree,
    build_feature_table,
    train_forest,
)
from crossrisk.preprocess import preprocess_dataset
from crossrisk.risk import RiskStream, estimate_risk, find_conflict_point
from crossrisk.ssm import co_present_pairs
from crossrisk.synth import ScenarioSpec, generate_scenario
from crossrisk.trajectory import (
    DIRECTION_CODES,
    Dataset,
    Direction,
    Maneuver,
    ObjectClass,
    SUPPORTED_MANEUVERS,
    Trajectory,
)


def brute_force_conflict(veh, ped, dt, radius):
    """Exhaustive oracle for the conflict-point scan."""
    best = None
    for j in range(len(veh)):
        for k in range(len(ped)):
            d = math.hypot(veh[j][0] - ped[k][0], veh[j][1] - ped[k][1])
            if d <= radius:
                key = (abs(j - k), j, k)
                if best is None or key < best[0]:
                    mid = ((veh[j][0] + ped[k][0]) / 2, (veh[j][1] + ped[k][1]) / 2)
                    best = (key, (mid, j * dt, k * dt))
    return None if best is None else best[1]


def reference_conflict(veh_path, ped_path, dt, radius):
    """The scalar conflict search that the batched one replaced: the
    ``(point, t_vehicle, t_pedestrian)`` of one path pair, or None."""
    diff = veh_path[:, None, :] - ped_path[None, :, :]
    within = np.einsum("ijk,ijk->ij", diff, diff) <= radius * radius
    if not within.any():
        return None
    j_idx, k_idx = np.nonzero(within)
    order = np.lexsort((k_idx, j_idx, np.abs(j_idx - k_idx)))
    j, k = int(j_idx[order[0]]), int(k_idx[order[0]])
    point = (veh_path[j] + ped_path[k]) / 2.0
    return ((float(point[0]), float(point[1])), j * dt, k * dt)


def unblocked_conflict(veh_paths, ped_paths, radius):
    """The conflict search over every row at once, before it ran in blocks."""
    n = veh_paths.shape[1]
    dx = veh_paths[:, :, None, 0] - ped_paths[:, None, :, 0]
    dy = veh_paths[:, :, None, 1] - ped_paths[:, None, :, 1]
    within = dx * dx + dy * dy <= radius * radius
    rank = np.where(within, risk._pair_ranks(n), n**3)
    j, k = np.divmod(rank.reshape(len(veh_paths), n * n).argmin(axis=1), n)
    return within.any(axis=(1, 2)), j, k


def reference_pooled_rows(dataset, models, start_point, steps, group_value):
    """The per-window prediction study that one rollout per cluster replaced:
    one row per maneuver, the window's vehicles rolled out per direction, and
    each vehicle's constant-acceleration baseline and distances computed
    point by point."""
    rows = []
    dt = dataset.frame_interval
    idx = start_point - 1
    for maneuver in SUPPORTED_MANEUVERS:
        vehicles = [
            traj for traj in dataset.vehicles
            if traj.maneuver == maneuver and traj.entering_direction is not None
            and (traj.entering_direction, maneuver) in models
            and evaluation._window_is_valid(traj, idx, steps, dt)
        ]
        if not vehicles:
            continue
        predicted = {}
        for direction in Direction:
            batch = [traj for traj in vehicles if traj.entering_direction == direction]
            if batch:
                starts = np.array([traj.xy[idx] for traj in batch])
                paths = rollout(models[(direction, maneuver)], starts, steps, dt)
                predicted.update(zip((traj.id for traj in batch), paths))
        g, d = [], []
        for traj in vehicles:
            t0, x, y, vx, vy, _ = traj.points[idx].tolist()
            t_prev, _, _, vx_prev, vy_prev, _ = traj.points[idx - 1].tolist()
            ax, ay = (vx - vx_prev) / (t0 - t_prev), (vy - vy_prev) / (t0 - t_prev)
            for k, (px, py) in enumerate(predicted[traj.id].tolist(), start=1):
                actual_x, actual_y = traj.xy[idx + k].tolist()
                t = k * dt
                g.append(math.hypot(px - actual_x, py - actual_y))
                d.append(math.hypot(x + vx * t + 0.5 * ax * t * t - actual_x,
                                    y + vy * t + 0.5 * ay * t * t - actual_y))
        rows.append(evaluation.ErrorRow(
            group=group_value, maneuver=maneuver, gpr_mean=float(np.mean(g)),
            gpr_std=float(np.std(g)), dynamic_mean=float(np.mean(d)),
            dynamic_std=float(np.std(d)), n_vehicles=len(vehicles), n_points=len(g)))
    return rows


def reference_ttc(veh, ped, radius):
    """The scalar constant-velocity TTC that the row-wise one replaced, on
    ``(x, y, vx, vy)`` tuples; None when the agents never get that close."""
    px, py = ped[0] - veh[0], ped[1] - veh[1]
    vx, vy = ped[2] - veh[2], ped[3] - veh[3]
    c = px * px + py * py - radius * radius
    if c <= 0.0:
        return 0.0
    a = vx * vx + vy * vy
    b = 2.0 * (px * vx + py * vy)
    if a < 1e-15:
        return None
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return None
    t_enter = (-b - math.sqrt(disc)) / (2.0 * a)
    return t_enter if t_enter >= 0.0 else None


def reference_frame_risk(ped_row, probs, paths, steps, dt, radius):
    """The per-frame mixer that the batched ``estimate_risk`` replaced:
    per-maneuver risks and their mixture for one frame, given the frame's
    probabilities and its ``(steps + 1, 2)`` vehicle path per maneuver."""
    x, y, vx, vy = ped_row
    ped_path = np.array([(x + vx * (k * dt), y + vy * (k * dt)) for k in range(steps + 1)])
    risks, total = [], 0.0
    for col, m in enumerate(SUPPORTED_MANEUVERS):
        hit = None if m not in paths else reference_conflict(paths[m], ped_path, dt, radius)
        risks.append(0.0 if hit is None else math.exp(-abs(hit[1] - hit[2])))
        if hit is not None:
            total += risks[-1] * float(probs[col])
    return risks, total


def conflict(veh, ped, dt, radius):
    """``find_conflict_point`` on one path pair: ``(t_vehicle, t_pedestrian)``
    or None."""
    hit, j, k = find_conflict_point(np.asarray(veh)[None], np.asarray(ped)[None], radius)
    return (int(j[0]) * dt, int(k[0]) * dt) if hit[0] else None


def cumulative_dynamic_model(before, start, dt, steps):
    """Per-step constant-acceleration update, the loop the closed form replaced,
    from trajectory row ``start`` with the acceleration a backward difference
    to row ``before``."""
    out = np.empty((steps, 2))
    t_prev, _, _, vx_prev, vy_prev, _ = before
    t0, x, y, vx, vy, _ = start
    ax, ay = (vx - vx_prev) / (t0 - t_prev), (vy - vy_prev) / (t0 - t_prev)
    for i in range(steps):
        x = x + vx * dt + 0.5 * ax * dt * dt
        y = y + vy * dt + 0.5 * ay * dt * dt
        vx += ax * dt
        vy += ay * dt
        out[i] = (x, y)
    return out


def baseline_path(before, start, dt, steps):
    """The study's constant-acceleration baseline from one pair of rows."""
    return evaluation._constant_acceleration_paths(np.array([before]), np.array([start]),
                                                   dt, steps)[0]


def searched_pedestrian_path(monkeypatch, ped_row, dt, steps):
    """The ``(steps + 1, 2)`` constant-velocity pedestrian path that
    ``estimate_risk`` passes to the conflict search, its start first."""
    seen = []
    real = risk.find_conflict_point

    def recording(veh_paths, ped_paths, radius):
        seen.append(ped_paths)
        return real(veh_paths, ped_paths, radius)

    monkeypatch.setattr(risk, "find_conflict_point", recording)
    estimate_risk([0.0], [[0.0, 0.0, 0.0, 0.0]], [ped_row], [[0.0, 0.0, 1.0]],
                  {Maneuver.STRAIGHT: np.zeros((1, steps + 1, 2))}, dt)
    (path,) = seen[0]
    return path


def test_importing_risk_loads_no_gp_code():
    # scoring takes plain steps and dt, so it needs neither the GP module nor LAPACK
    src = str(Path(risk.__file__).resolve().parent.parent)
    code = ("import sys, crossrisk.risk; "
            "print(sorted({'crossrisk.gpr', 'scipy.linalg'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "[]"


class TestPedestrianPrediction:
    def test_linear_motion(self, monkeypatch):
        path = searched_pedestrian_path(monkeypatch, (2.0, -1.0, 1.0, 0.0), 0.1, 10)
        assert path.shape == (11, 2)
        assert tuple(path[0]) == (2.0, -1.0)
        assert path[-1][0] == pytest.approx(3.0)
        assert path[-1][1] == pytest.approx(-1.0)

    def test_stationary(self, monkeypatch):
        path = searched_pedestrian_path(monkeypatch, (5.0, 5.0, 0.0, 0.0), 0.1, 5)
        assert np.allclose(path, [[5.0, 5.0]] * 6)

    def test_matches_dynamic_model_with_zero_acceleration(self, monkeypatch):
        path = searched_pedestrian_path(monkeypatch, (1.0, 2.0, -0.7, 1.3), 0.1, 30)
        t = np.arange(1, 31, dtype=float)[:, None] * 0.1
        assert path[1:].tobytes() == (np.array([1.0, 2.0]) + np.array([-0.7, 1.3]) * t).tobytes()


class TestDynamicModel:
    """The prediction study's constant-acceleration baseline; rows are
    ``(t, x, y, vx, vy, yaw_rate)``."""

    def test_zero_acceleration_reduces_to_constant_velocity(self):
        path = baseline_path((-0.5, -1.0, 0.0, 2.0, 0.0, 0.0), (0.0, 0.0, 0.0, 2.0, 0.0, 0.0),
                             dt=0.5, steps=4)
        assert path.shape == (4, 2)
        assert np.allclose(path[:, 0], [1.0, 2.0, 3.0, 4.0])
        assert not path[:, 1].any()

    def test_half_a_t_squared(self):
        path = baseline_path((-1.0, 0.0, 0.0, -2.0, 0.0, 0.0), (0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
                             dt=1.0, steps=1)
        assert path[0][0] == pytest.approx(1.0)

    def test_matches_closed_form_over_thirty_steps(self):
        # velocities a tenth of a second apart give a = (0.5, -0.25)
        path = baseline_path((-0.1, 0.0, 0.0, 1.95, 1.025, 0.0), (0.0, 1.0, -2.0, 2.0, 1.0, 0.0),
                             dt=0.1, steps=30)
        t = 3.0
        want_x = 1.0 + 2.0 * t + 0.5 * 0.5 * t * t
        want_y = -2.0 + 1.0 * t + 0.5 * -0.25 * t * t
        assert path[-1][0] == pytest.approx(want_x, abs=1e-9)
        assert path[-1][1] == pytest.approx(want_y, abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(st.tuples(st.floats(-50, 50), st.floats(-50, 50), st.floats(-15, 15),
                     st.floats(-15, 15), st.floats(-5, 5), st.floats(-5, 5)),
           st.floats(0.05, 0.2), st.floats(0.05, 0.2), st.integers(1, 30))
    def test_closed_form_matches_cumulative_loop(self, fields, gap, dt, steps):
        x, y, vx, vy, ax, ay = fields
        before = (-gap, 0.0, 0.0, vx - ax * gap, vy - ay * gap, 0.0)
        start = (0.0, x, y, vx, vy, 0.0)
        got = baseline_path(before, start, dt, steps)
        assert np.max(np.abs(got - cumulative_dynamic_model(before, start, dt, steps))) <= 1e-12

    def test_backward_difference_acceleration(self):
        # a = (5, -2) m/s^2 from rows 0.1 s apart: after 1 s the baseline is
        # v t + a t^2 / 2 past the start
        path = baseline_path((0.0, 0.0, 0.0, 1.0, 0.0, 0.0), (0.1, 0.1, 0.0, 1.5, -0.2, 0.0),
                             dt=1.0, steps=1)
        assert path[0][0] == pytest.approx(0.1 + 1.5 + 2.5)
        assert path[0][1] == pytest.approx(-0.2 - 1.0)


class TestConflictPoint:
    def test_perpendicular_crossing_same_speed(self):
        n = 21
        veh = np.array([[(-2.5 + 0.25 * i), 0.0] for i in range(n)])
        ped = np.array([[0.0, (-2.5 + 0.25 * i)] for i in range(n)])
        got = conflict(veh, ped, dt=0.1, radius=0.3)
        want = brute_force_conflict(veh, ped, 0.1, 0.3)
        assert got is not None
        t_veh, t_ped = got
        assert t_veh == pytest.approx(want[1]) and t_ped == pytest.approx(want[2])
        assert t_veh == t_ped == pytest.approx(1.0)  # both reach origin at step 10
        assert math.hypot(*want[0]) < 0.3

    def test_parallel_paths_have_no_conflict(self):
        veh = np.array([[i * 0.5, 0.0] for i in range(20)])
        ped = np.array([[i * 0.5, 10.0] for i in range(20)])
        assert conflict(veh, ped, dt=0.1, radius=1.0) is None

    def test_identical_paths_meet_at_start(self):
        path = np.array([[i * 0.3, i * 0.1] for i in range(15)])
        hit, j, k = find_conflict_point(path[None], path[None].copy(), radius=0.5)
        assert hit.tolist() == [True] and j.tolist() == [0] and k.tolist() == [0]

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ValueError):
            find_conflict_point(np.zeros((1, 5, 2)), np.zeros((1, 6, 2)), 1.0)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 12), st.floats(0.05, 3.0), st.integers(0, 10_000))
    def test_none_exactly_when_paths_stay_apart(self, n, radius, seed):
        rng = np.random.default_rng(seed)
        veh = rng.uniform(-5, 5, size=(n, 2))
        ped = rng.uniform(-5, 5, size=(n, 2))
        closest = min(math.hypot(*(a - b)) for a in veh for b in ped)
        got = conflict(veh, ped, dt=0.1, radius=radius)
        assert (got is None) == (closest > radius)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000))
    def test_matches_brute_force_and_swap_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 25))
        veh = np.cumsum(rng.normal(0.0, 0.6, size=(n, 2)), axis=0)
        ped = np.cumsum(rng.normal(0.0, 0.6, size=(n, 2)), axis=0) + rng.normal(size=2)
        radius = float(rng.uniform(0.2, 2.0))
        got = conflict(veh, ped, dt=0.1, radius=radius)
        want = brute_force_conflict(veh, ped, 0.1, radius)
        if want is None:
            assert got is None
            return
        assert got is not None
        assert got[0] == pytest.approx(want[1]) and got[1] == pytest.approx(want[2])
        # swapping the roles swaps the arrival times when the optimum is unique
        gaps = sorted(
            (abs(j - k), j, k)
            for j in range(n) for k in range(n)
            if math.hypot(*(veh[j] - ped[k])) <= radius
        )
        minimal = [g for g in gaps if g[0] == gaps[0][0]]
        if len(minimal) == 1:
            swapped = conflict(ped, veh, dt=0.1, radius=radius)
            assert swapped == (got[1], got[0])

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 8), st.integers(1, 30), st.sampled_from([0.5, 1.0, 1.5]),
           st.integers(0, 10_000))
    def test_rows_match_the_scalar_reference(self, m, steps, radius, seed):
        # half-metre lattice points: exact distances, so pairs sit exactly on
        # the radius and several pairs tie on the time gap
        rng = np.random.default_rng(seed)
        veh = rng.integers(-4, 5, size=(m, steps + 1, 2)) * 0.5
        ped = rng.integers(-4, 5, size=(m, steps + 1, 2)) * 0.5
        ped[::3] += 100.0  # rows with no hit
        hit, j, k = find_conflict_point(veh, ped, radius)
        assert hit.shape == j.shape == k.shape == (m,)
        for r in range(m):
            want = reference_conflict(veh[r], ped[r], 1.0, radius)
            assert hit[r] == (want is not None)
            if want is not None:
                assert (int(j[r]), int(k[r])) == (want[1], want[2])

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 60), st.integers(1, 31), st.sampled_from([0.5, 1.0, 1.5]),
           st.integers(0, 10_000))
    def test_blocks_match_the_unblocked_search(self, m, steps, radius, seed):
        rng = np.random.default_rng(seed)
        veh = rng.integers(-4, 5, size=(m, steps + 1, 2)) * 0.5
        ped = rng.integers(-4, 5, size=(m, steps + 1, 2)) * 0.5
        ped[::3] += 100.0  # rows with no hit
        got = find_conflict_point(veh, ped, radius)
        for g, w in zip(got, unblocked_conflict(veh, ped, radius)):
            assert g.dtype == w.dtype and np.array_equal(g, w)


class TestManeuverRisk:
    def test_equal_arrival_is_certain(self):
        stream = crossing_risk((None, None, 10))
        assert stream.maneuver_risk[0].tolist() == [0.0, 0.0, 1.0]
        assert stream.risk[0] == 1.0

    def test_one_second_gap(self):
        for arrival in (0, 20):  # the vehicle a second early, then late
            stream = crossing_risk((None, None, arrival))
            assert stream.maneuver_risk[0, 2] == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_absent_conflict_is_zero(self):
        stream = crossing_risk((None, None, None), probs=(0.2, 0.3, 0.5))
        assert stream.maneuver_risk[0].tolist() == [0.0, 0.0, 0.0]
        assert stream.risk[0] == 0.0

    def test_monotone_in_gap(self):
        risks = [crossing_risk((None, None, 10 + g)).risk[0] for g in (0, 3, 7, 15, 20)]
        assert risks == sorted(risks, reverse=True)
        assert risks[-1] > 0.0


def constant_pair(direction, maneuver, vx, vy, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-5, 30, size=(50, 2))
    cfg = KernelConfig(kind="rbf", length_scale=40.0, noise_variance=1e-9)
    return GprModelPair(
        gp_x=build_gpr_model(x, np.full(50, float(vx)), cfg),
        gp_y=build_gpr_model(x, np.full(50, float(vy)), cfg),
        cluster=(direction, maneuver),
    )


def certain_forest(target_class):
    """A forest trained on trivially separable data so every query lands in
    the target class region."""
    rng = np.random.default_rng(1)
    X = np.vstack([
        rng.normal([100.0 * (c + 1), 0, 0, 0, 0], 0.1, size=(30, 5))
        for c in range(3)
    ])
    y = np.repeat([0, 1, 2], 30)
    return train_forest(X, y, n_trees=20, seed=0), target_class


def frame_hypotheses(veh, index, direction, models, forest, steps, dt):
    """Normalized maneuver probabilities of one vehicle frame and, per
    maneuver with a cluster model, its predicted path with the vehicle
    position first; all with one leading row."""
    probs = forest.predict_proba(frame_features(veh, [index], direction))
    start = veh.xy[index]
    paths = {}
    for m in SUPPORTED_MANEUVERS:
        if (direction, m) in models:
            path = rollout(models[(direction, m)], start[None, :], steps, dt)
            paths[m] = np.concatenate([start[None, None, :], path], axis=1)
    return probs / probs.sum(axis=1, keepdims=True), paths


def score(veh, index, direction, ped, models, forest, steps, dt, **kwargs):
    """One-frame stream of pedestrian row ``ped`` against vehicle frame ``index``."""
    return estimate_risk(veh.t[[index]], veh.points[[index], 1:5], [ped],
                         *frame_hypotheses(veh, index, direction, models, forest, steps, dt),
                         dt, **kwargs)


class TestEstimateRisk:
    def _vehicle(self, x=0.0, y=0.0, vx=1.0, vy=0.0):
        return Trajectory(id="v", object_class=ObjectClass.VEHICLE,
                          points=[row(12.3, x, y, vx, vy, 0.0)])

    def test_far_pedestrian_scores_zero(self):
        models = {(Direction.S, m): constant_pair(Direction.S, m, 1.0, 0.0)
                  for m in SUPPORTED_MANEUVERS}
        forest, _ = certain_forest(2)
        stream = score(self._vehicle(), 0, Direction.S, (500.0, 500.0, 0.0, 0.0), models,
                       forest, 30, 0.1)
        assert stream.risk.tolist() == [0.0]
        assert not stream.maneuver_risk.any()
        assert np.isnan(stream.ttc).all()

    def test_head_on_unit_risk(self):
        # vehicle rolls east at 1 m/s; pedestrian placed on its path with the
        # same arrival time; forest gives all mass to the straight maneuver
        models = {(Direction.S, Maneuver.STRAIGHT):
                  constant_pair(Direction.S, Maneuver.STRAIGHT, 1.0, 0.0)}
        rng = np.random.default_rng(2)
        X = np.vstack([rng.normal([0, 0, 1.0, 0, 2.0], 0.05, size=(40, 5)),
                       rng.normal([50, 50, 9.0, 0.4, 2.0], 0.05, size=(40, 5)),
                       rng.normal([-50, 50, 9.0, 0.4, 2.0], 0.05, size=(40, 5))])
        y = np.repeat([2, 0, 1], 40)
        forest = train_forest(X, y, n_trees=25, seed=0)
        ped = (1.0, -1.0, 0.0, 1.0)  # meets at (1, 0), t=1
        stream = score(self._vehicle(), 0, Direction.S, ped, models,
                       forest, 30, 0.1, radius=0.4)
        left, right, straight = stream.maneuver_risk[0]
        assert straight == pytest.approx(1.0, abs=1e-6)
        assert stream.probs[0, 2] == 1.0
        assert stream.risk[0] == pytest.approx(1.0, abs=1e-6)
        assert left == right == 0.0  # no cluster model, no risk
        assert stream.t.tolist() == [12.3] and stream.vehicle_speed.tolist() == [1.0]

    def test_hand_mixed_risk(self):
        # spec'd worked example: maneuver probabilities exactly (0.5, 0, 0.5),
        # straight conflict with a one-second arrival gap, left model absent,
        # right rollout pointing away -> risk = 0.5 * exp(-1)
        models = {
            (Direction.S, Maneuver.STRAIGHT):
                constant_pair(Direction.S, Maneuver.STRAIGHT, 1.0, 0.0),
            (Direction.S, Maneuver.RIGHT):
                constant_pair(Direction.S, Maneuver.RIGHT, -1.0, 0.0),
        }
        # two single-leaf trees voting left and straight: p = (0.5, 0, 0.5)
        leaf = lambda counts: Tree(feature=(-1,), threshold=(0.0,), left=(-1,), right=(-1,),
                                   counts=np.array([counts]))
        forest = ForestModel(trees=[leaf([1, 0, 0]), leaf([0, 0, 1])], n_features=5)
        ped = (2.0, -1.0, 0.0, 1.0)  # at (2, 0) after 1 s
        # vehicle reaches x=2 after 2 s; tiny radius pins the exact-hit pair
        stream = score(self._vehicle(), 0, Direction.S, ped, models,
                       forest, 30, 0.1, radius=0.04)
        left, right, straight = stream.maneuver_risk[0]
        assert straight == pytest.approx(math.exp(-1.0), abs=1e-12)
        assert stream.probs[0].tolist() == [0.5, 0.0, 0.5]
        assert stream.risk[0] == pytest.approx(0.5 * math.exp(-1.0), abs=1e-12)
        assert left == right == 0.0

    def test_deterministic_in_mean_mode(self):
        models = {(Direction.S, m): constant_pair(Direction.S, m, 1.0, 0.1)
                  for m in SUPPORTED_MANEUVERS}
        forest, _ = certain_forest(0)
        ped = (2.0, -0.5, 0.0, 0.5)
        a = score(self._vehicle(), 0, Direction.S, ped, models, forest, 20, 0.1)
        b = score(self._vehicle(), 0, Direction.S, ped, models, forest, 20, 0.1)
        assert a.risk.tobytes() == b.risk.tobytes()

    def test_all_models_absent_raises(self):
        forest, _ = certain_forest(0)
        with pytest.raises(ValueError):
            score(self._vehicle(), 0, Direction.S, (2.0, -0.5, 0.0, 0.5), {}, forest, 10, 0.1)

    def test_missing_probabilities_or_bad_paths_raise(self):
        models = {(Direction.S, Maneuver.STRAIGHT):
                  constant_pair(Direction.S, Maneuver.STRAIGHT, 1.0, 0.0)}
        forest, _ = certain_forest(0)
        veh = self._vehicle()
        probs, paths = frame_hypotheses(veh, 0, Direction.S, models, forest, 10, 0.1)
        args = ([12.3], veh.points[:, 1:5], [[2.0, -0.5, 0.0, 0.5]])
        for bad in (probs[:0], probs[:, :2]):  # no row, or a maneuver short
            with pytest.raises(ValueError):
                estimate_risk(*args, bad, paths, 0.1)
        # paths of two step counts, the shorter read first or last: the
        # horizon comes from the paths, so every maneuver's must agree
        short = np.zeros((1, 5, 2))
        for bad in ({**paths, Maneuver.LEFT: short}, {Maneuver.LEFT: short, **paths}):
            with pytest.raises(ValueError, match="one shape"):
                estimate_risk(*args, probs, bad, 0.1)

    def test_risk_stays_in_unit_interval(self):
        models = {(Direction.S, m): constant_pair(Direction.S, m, 1.0, (i - 1) * 0.3)
                  for i, m in enumerate(SUPPORTED_MANEUVERS)}
        forest, _ = certain_forest(1)
        rng = np.random.default_rng(4)
        for _ in range(25):
            ped = tuple(rng.uniform([-3, -3, -1, -1], [6, 3, 1, 1]).tolist())
            stream = score(self._vehicle(), 0, Direction.S, ped, models, forest, 15, 0.1)
            assert 0.0 <= stream.risk[0] <= 1.0
            mix = float(np.sum(stream.maneuver_risk[0] * stream.probs[0]))
            assert stream.risk[0] == pytest.approx(mix, abs=1e-12)

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3).filter(lambda w: sum(w) > 0),
        st.lists(st.one_of(st.none(), st.tuples(st.floats(-6, 6), st.floats(-6, 6))),
                 min_size=3, max_size=3),
        st.tuples(*[st.floats(-4, 4)] * 2, *[st.floats(-2, 2)] * 2),
        st.floats(0.2, 2.0),
    )
    def test_mixture_bounded_by_largest_maneuver_risk(self, weights, vels, ped_state,
                                                      radius):
        w = np.asarray(weights)
        steps = np.arange(21)[:, None] * 0.1
        paths = {m: (steps * np.asarray(v))[None] for m, v in zip(SUPPORTED_MANEUVERS, vels)
                 if v is not None}
        if not paths:  # one hypothesis at least, as the caller guarantees
            paths = {Maneuver.STRAIGHT: (steps * np.array([1.0, 0.0]))[None]}
        stream = estimate_risk([12.3], [[0.0, 0.0, 1.0, 0.0]], [ped_state],
                               [w / w.sum()], paths, 0.1, radius=radius)
        assert 0.0 <= stream.risk[0] <= 1.0
        assert stream.risk[0] <= stream.maneuver_risk.max() + 1e-12


@pytest.fixture(scope="module")
def small_scene():
    spec = ScenarioSpec(seed=5, n_vehicles_per_cell=1, n_pedestrians_per_crosswalk=3,
                        n_engineered_conflicts=2)
    dataset, _ = generate_scenario(spec)
    labeled, _ = preprocess_dataset(dataset,
                                    IntersectionGeometry(endpoints=canonical_endpoints()))
    X, y, _ = build_feature_table(labeled)
    forest = train_forest(X, y, n_trees=3, seed=0)
    models = fit_clusters(labeled, GprConfig(max_points=60, iterations=3))
    return labeled, models, forest


@pytest.fixture(scope="module")
def mean_frames():
    """Single-frame mean-mode vehicle sides on ``small_scene``, by (vehicle id,
    frame index), shared across Hypothesis examples."""
    return {}


def _call_rows(dataset, streams, calls):
    """``(pair, stream, (args, result) of its direction's estimate_risk call,
    first row of the stream in that call)`` for every stream: the calls come
    one per entering direction in stream order, each over its streams' rows
    one after another."""
    direction = {veh.id: veh.entering_direction for veh in dataset.vehicles}
    directions = list(dict.fromkeys(direction[vid] for vid, _ in streams))
    assert len(calls) == len(directions)
    call_of = dict(zip(directions, calls))
    lo_of: dict = {}
    for (vid, pid), stream in streams.items():
        lo = lo_of.get(direction[vid], 0)
        lo_of[direction[vid]] = lo + len(stream.t)
        yield (vid, pid), stream, call_of[direction[vid]], lo
    assert all(lo_of[d] == len(call_of[d][0][0]) for d in directions)


class TestRiskStreams:
    CFG = RiskConfig(horizon_steps=15)  # rolled out on small_scene's 0.1 s frames

    def test_vehicle_side_computed_once_per_direction(self, small_scene, monkeypatch):
        labeled, models, forest = small_scene
        rollouts, predicts, scored_rows = [], [], []
        real_rollout, real_predict = evaluation.rollout, ForestModel.predict_proba
        real_estimate = evaluation.estimate_risk

        def counting_rollout(pair, starts, steps, dt, streams=None):
            rollouts.append((pair.cluster, len(starts)))
            return real_rollout(pair, starts, steps, dt, streams)

        def counting_predict(model, X):
            predicts.append(len(X))
            return real_predict(model, X)

        def counting_estimate(*args, **kwargs):
            scored_rows.append(len(args[0]))
            return real_estimate(*args, **kwargs)

        monkeypatch.setattr(evaluation, "rollout", counting_rollout)
        monkeypatch.setattr(ForestModel, "predict_proba", counting_predict)
        monkeypatch.setattr(evaluation, "estimate_risk", counting_estimate)
        streams = compute_risk_streams(labeled, models, forest,
                                       replace(self.CFG, frame_stride=5), ttc_radius=1.0)
        scored = {v for v, _ in streams}
        assert len(streams) > len(scored)  # some vehicle is scored against several pedestrians
        direction = {t.id: t.entering_direction for t in labeled.vehicles}
        directions = list(dict.fromkeys(direction[v] for v, _ in streams))
        assert len(directions) > 1
        # the streams come direction by direction
        assert [direction[v] for v, _ in streams] == sorted(
            (direction[v] for v, _ in streams), key=directions.index)
        # one forest call per direction over the distinct scored frames of its vehicles
        frames_of: dict = {}
        for (vid, _), stream in streams.items():
            frames_of.setdefault(direction[vid], set()).update(
                (vid, t) for t in stream.t.tolist())
        assert predicts == [len(frames_of[d]) for d in directions]
        # one rollout per cluster model that some scored vehicle needs, over
        # the same frames
        clusters = {(direction[v], m) for v in scored for m in SUPPORTED_MANEUVERS} & set(models)
        assert len(rollouts) == len(clusters)
        assert {cluster for cluster, _ in rollouts} == clusters
        assert all(rows == len(frames_of[d]) for (d, _), rows in rollouts)
        # one estimate_risk call per direction, in the order the streams come,
        # over the frames of all of the direction's streams
        rows_of: dict = {}
        for (vid, _), stream in streams.items():
            rows_of[direction[vid]] = rows_of.get(direction[vid], 0) + len(stream.t)
        assert scored_rows == [rows_of[d] for d in directions]
        assert all(isinstance(s, RiskStream) for s in streams.values())

    @settings(max_examples=8, deadline=None)
    @given(st.sampled_from(["mean", "sample"]), st.integers(1, 6), st.floats(0.5, 3.0),
           st.integers(0, 1000))
    def test_streams_match_per_frame_scoring(self, small_scene, mean_frames, mode, stride,
                                             radius, seed):
        # the vehicle side (probabilities and rollouts) is taken from the
        # stream's rows of its direction's call; every column must then equal
        # the per-frame reference scoring bit for bit
        labeled, models, forest = small_scene
        cfg = replace(self.CFG, rollout_mode=mode, sample_seed=seed, conflict_radius=radius,
                      frame_stride=stride)
        calls, rollout_calls = [], []
        real_estimate, real_rollout = evaluation.estimate_risk, evaluation.rollout

        def recording(*args, **kwargs):
            stream = real_estimate(*args, **kwargs)
            calls.append((args, stream))
            return stream

        def recording_rollout(pair, starts, steps, dt, streams=None):
            rollout_calls.append((pair.cluster, steps, dt, streams))
            return real_rollout(pair, starts, steps, dt, streams)

        evaluation.estimate_risk, evaluation.rollout = recording, recording_rollout
        try:
            streams = compute_risk_streams(labeled, models, forest, cfg, ttc_radius=radius)
        finally:
            evaluation.estimate_risk, evaluation.rollout = real_estimate, real_rollout
        assert streams and rollout_calls
        for (direction, maneuver), steps, dt, noise in rollout_calls:
            assert (steps, dt) == (15, 0.1)
            if mode == "mean":
                assert noise is None
                continue
            # one stream per vehicle, seeded by the seed, its ordinal and the maneuver
            entropies = [entropy for entropy, _ in noise]
            assert len(set(entropies)) == len(entropies)
            for sample_seed, ordinal, code in entropies:
                assert (sample_seed, code) == (seed, MANEUVER_CODES[maneuver])
                assert labeled.vehicles[ordinal].entering_direction == direction
        for (vid, pid), stream, (args, whole), lo in _call_rows(labeled, streams, calls):
            veh, ped = labeled.by_id(vid), labeled.by_id(pid)
            _, _, _, probs, paths, dt = args
            assert dt == 0.1 and all(path.shape[1] == 16 for path in paths.values())
            for f in fields(RiskStream):
                want = getattr(whole, f.name)[lo:lo + len(stream.t)]
                assert getattr(stream, f.name).tobytes() == want.tobytes()
            ped_rows = {round(t, 6): i for i, t in enumerate(ped.t.tolist())}
            for r, t in enumerate(stream.t.tolist(), start=lo):
                vi = veh.t.tolist().index(t)
                pi = ped_rows[round(t, 6)]
                assert vi % stride == 0 and veh.valid[vi] and ped.valid[pi]
                if (vid, vi) not in mean_frames:
                    mean_frames[(vid, vi)] = frame_hypotheses(
                        veh, vi, veh.entering_direction, models, forest, 15, 0.1)
                want_probs, want_paths = mean_frames[(vid, vi)]
                assert whole.probs[r].tobytes() == want_probs[0].tobytes()
                assert set(paths) == set(want_paths)
                if mode == "mean":
                    for m, path in want_paths.items():
                        assert np.allclose(paths[m][r], path[0], rtol=0, atol=1e-9)
                risks, total = reference_frame_risk(
                    ped.points[pi, 1:5].tolist(), whole.probs[r],
                    {m: path[r] for m, path in paths.items()}, 15, 0.1, radius)
                assert whole.maneuver_risk[r].tolist() == risks
                assert whole.risk[r] == total
                ttc = reference_ttc(veh.points[vi, 1:5].tolist(),
                                    ped.points[pi, 1:5].tolist(), radius)
                assert (math.isnan(whole.ttc[r]) if ttc is None else whole.ttc[r] == ttc)
                assert whole.vehicle_speed[r] == veh.speed[vi]

    @settings(max_examples=6, deadline=None)
    @given(st.sampled_from(["mean", "sample"]), st.integers(1, 4), st.floats(0.5, 3.0))
    def test_streams_equal_per_pair_calls(self, small_scene, mode, stride, radius):
        # one call per direction gives each pair the bytes of a call of its
        # own over the same vehicle side and its own rows
        labeled, models, forest = small_scene
        cfg = replace(self.CFG, rollout_mode=mode, conflict_radius=radius, frame_stride=stride)
        calls = []
        real_estimate = evaluation.estimate_risk

        def recording(*args, **kwargs):
            stream = real_estimate(*args, **kwargs)
            calls.append((args, stream))
            return stream

        evaluation.estimate_risk = recording
        try:
            streams = compute_risk_streams(labeled, models, forest, cfg, ttc_radius=radius)
        finally:
            evaluation.estimate_risk = real_estimate
        # some call scores several pedestrians across a conflict-search block
        assert any(lo % 16 and len(args[0]) > 16
                   for _, _, (args, _), lo in _call_rows(labeled, streams, calls))
        for (vid, pid), stream, (args, _), lo in _call_rows(labeled, streams, calls):
            veh, ped = labeled.by_id(vid), labeled.by_id(pid)
            times = stream.t.tolist()
            vi = [veh.t.tolist().index(t) for t in times]
            pi = [ped.t.tolist().index(t) for t in times]
            rows = slice(lo, lo + len(times))
            pair = estimate_risk(veh.points[vi, 0], veh.points[vi, 1:5], ped.points[pi, 1:5],
                                 args[3][rows], {m: p[rows] for m, p in args[4].items()},
                                 0.1, radius=radius, ttc_radius=radius)
            for f in fields(RiskStream):
                assert getattr(stream, f.name).tobytes() == getattr(pair, f.name).tobytes()

    def test_one_frame_scoring_equals_the_full_stream(self, small_scene):
        # the objects of one timestamp, scored as one-row trajectories, give
        # each pair the row that the stride-1 stream of the whole scene holds
        # at that frame, up to the last bits the rollout's batch size moves
        labeled, models, forest = small_scene
        cfg = replace(self.CFG, frame_stride=1)
        full = compute_risk_streams(labeled, models, forest, cfg, ttc_radius=1.0)
        want: dict = {}  # t -> pair -> row of the pair's full stream
        for pair, stream in full.items():
            for r, t in enumerate(stream.t.tolist()):
                want.setdefault(t, {})[pair] = r
        frames: dict = {}
        for traj in labeled.trajectories:
            for i, t in enumerate(traj.t.tolist()):
                frames.setdefault(t, []).append(replace(traj, points=traj.points[i:i + 1]))
        assert want and set(want) < set(frames)
        for t, trajs in frames.items():
            got = compute_risk_streams(Dataset(trajectories=trajs), models, forest, cfg,
                                       ttc_radius=1.0)
            assert set(got) == set(want.get(t, {}))
            for pair, stream in got.items():
                assert stream.t.tolist() == [t]
                for f in fields(RiskStream):
                    np.testing.assert_allclose(getattr(stream, f.name)[0],
                                               getattr(full[pair], f.name)[want[t][pair]],
                                               rtol=1e-12, atol=1e-15)

    def test_streams_only_for_covered_directions(self, monkeypatch):
        # W has two of the three maneuver models, E only an unsupported
        # cluster, N none, and one vehicle has no entering direction: only
        # W's vehicles are scored, with one rollout per W model, and each
        # stream is the bytes of a per-pair call over its rows of the batch
        frames = 6

        def vehicle(vid, direction, y):
            return Trajectory(id=vid, object_class=ObjectClass.VEHICLE,
                              points=[row(0.1 * i, 0.5 * i, y, 5.0, 0.0, 0.0)
                                      for i in range(frames)],
                              entering_direction=direction, maneuver=Maneuver.STRAIGHT)

        vehicles = [vehicle("w1", Direction.W, 0.0), vehicle("e1", Direction.E, 0.0),
                    vehicle("x1", None, 0.0), vehicle("n1", Direction.N, 0.0),
                    vehicle("w2", Direction.W, 0.5)]
        peds = [Trajectory(id="p1", object_class=ObjectClass.PEDESTRIAN,
                           points=[row(0.1 * i, 2.0, -1.0 + 0.1 * i, 0.0, 1.0)
                                   for i in range(frames)]),
                Trajectory(id="p2", object_class=ObjectClass.PEDESTRIAN,
                           points=[row(0.1 * i, 3.0, 1.5 - 0.1 * i, 0.0, -1.0)
                                   for i in range(3, frames)])]
        dataset = Dataset(trajectories=vehicles + peds)
        models = {(Direction.W, Maneuver.STRAIGHT):
                  constant_pair(Direction.W, Maneuver.STRAIGHT, 5.0, 0.0),
                  (Direction.W, Maneuver.LEFT):
                  constant_pair(Direction.W, Maneuver.LEFT, 4.0, 1.0, seed=1),
                  (Direction.E, Maneuver.UNSUPPORTED):
                  constant_pair(Direction.E, Maneuver.UNSUPPORTED, 5.0, 0.0)}
        forest, _ = certain_forest(2)
        rollouts, calls = [], []
        real_rollout, real_estimate = evaluation.rollout, evaluation.estimate_risk

        def recording_rollout(pair, starts, steps, dt, streams=None):
            out = real_rollout(pair, starts, steps, dt, streams)
            rollouts.append((pair.cluster, starts, out))
            return out

        def recording(*args, **kwargs):
            stream = real_estimate(*args, **kwargs)
            calls.append(args)
            return stream

        monkeypatch.setattr(evaluation, "rollout", recording_rollout)
        monkeypatch.setattr(evaluation, "estimate_risk", recording)
        cfg = RiskConfig(horizon_steps=10, conflict_radius=0.5)
        streams = compute_risk_streams(dataset, models, forest, cfg, ttc_radius=1.0)
        assert list(streams) == [("w1", "p1"), ("w1", "p2"), ("w2", "p1"), ("w2", "p2")]
        clusters = [cluster for cluster, _, _ in rollouts]
        assert len(clusters) == 2 and set(clusters) == {
            (Direction.W, Maneuver.LEFT), (Direction.W, Maneuver.STRAIGHT)}
        w1, w2 = vehicles[0], vehicles[4]
        for _, starts, _ in rollouts:  # w1's frames, then w2's
            assert starts.tobytes() == np.concatenate([w1.xy, w2.xy]).tobytes()
        (args,) = calls
        assert set(args[4]) == {Maneuver.LEFT, Maneuver.STRAIGHT}
        for (vid, pid), stream in streams.items():
            veh, ped = dataset.by_id(vid), dataset.by_id(pid)
            vi = [veh.t.tolist().index(t) for t in stream.t.tolist()]
            pi = [ped.t.tolist().index(t) for t in stream.t.tolist()]
            assert vi == (list(range(frames)) if pid == "p1" else [3, 4, 5])
            rows = np.array(vi) + (0 if vid == "w1" else frames)  # rows of the batch
            probs = forest.predict_proba(frame_features(veh, vi, Direction.W))
            paths = {cluster[1]: np.concatenate([starts[:, None], out], axis=1)[rows]
                     for cluster, starts, out in rollouts}
            pair = estimate_risk(veh.points[vi, 0], veh.points[vi, 1:5], ped.points[pi, 1:5],
                                 probs / probs.sum(axis=1, keepdims=True), paths, 0.1,
                                 radius=0.5, ttc_radius=1.0)
            for f in fields(RiskStream):
                assert getattr(stream, f.name).tobytes() == getattr(pair, f.name).tobytes()
            assert not stream.maneuver_risk[:, SUPPORTED_MANEUVERS.index(Maneuver.RIGHT)].any()
        assert any(stream.maneuver_risk.any() for stream in streams.values())

    def test_sample_mode_draws_per_vehicle(self, monkeypatch):
        # two vehicles on identical tracks share one cluster: each draws its
        # own sample paths, and a rerun repeats them byte for byte
        track = [row(0.1 * i, 0.5 * i, 0.0, 5.0, 0.0, 0.0) for i in range(5)]
        vehicles = [Trajectory(id=vid, object_class=ObjectClass.VEHICLE, points=track,
                               entering_direction=Direction.W, maneuver=Maneuver.STRAIGHT)
                    for vid in ("v1", "v2")]
        ped = Trajectory(id="p1", object_class=ObjectClass.PEDESTRIAN,
                         points=[row(0.1 * i, 2.0, -1.0, 0.0, 1.0) for i in range(5)])
        dataset = Dataset(trajectories=vehicles + [ped])
        rng = np.random.default_rng(0)
        x = rng.uniform(-2, 4, size=(10, 2))
        kernel = KernelConfig(kind="rbf", length_scale=2.0, noise_variance=0.05)
        cell = (Direction.W, Maneuver.STRAIGHT)
        models = {cell: GprModelPair(gp_x=build_gpr_model(x, 5.0 + rng.normal(size=10), kernel),
                                     gp_y=build_gpr_model(x, rng.normal(size=10), kernel),
                                     cluster=cell)}
        forest, _ = certain_forest(2)
        real_rollout = evaluation.rollout
        frames = [len(track)] * len(vehicles)  # every frame of each vehicle is scored

        def drawn_paths(mode):
            calls = []

            def recording_rollout(pair, starts, steps, dt, streams=None):
                out = real_rollout(pair, starts, steps, dt, streams)
                calls.append((streams, out))
                return out

            monkeypatch.setattr(evaluation, "rollout", recording_rollout)
            cfg = RiskConfig(horizon_steps=10, rollout_mode=mode, sample_seed=3)
            assert len(compute_risk_streams(dataset, models, forest, cfg, ttc_radius=1.0)) == 2
            ((streams, paths),) = calls  # one rollout for the one cluster
            if mode == "sample":
                assert [rows for _, rows in streams] == frames
            else:
                assert streams is None
            bounds = np.cumsum([0, *frames])
            return [paths[lo:hi] for lo, hi in zip(bounds, bounds[1:])]

        first, again, mean = drawn_paths("sample"), drawn_paths("sample"), drawn_paths("mean")
        assert len(first) == 2  # one noise stream per vehicle
        assert not np.array_equal(first[0], first[1])
        assert [a.tobytes() for a in first] == [a.tobytes() for a in again]
        # rows of one batched call agree to the last bits that BLAS leaves
        assert np.allclose(mean[0], mean[1], rtol=0, atol=1e-12)


def reference_matching(dataset, models, stride):
    """Frame matching on ``round(t, 6)`` keys, written with dicts: per scored
    direction in stream order, the scored ``(vehicle id, rows)`` and each
    pair's ``(vehicle row, pedestrian row)`` list, pair after pair. A
    pedestrian's key maps to the last of its valid rows with that key."""
    lookup = {}
    for ped in dataset.pedestrians:
        rows = np.flatnonzero(ped.valid).tolist()
        lookup[ped.id] = dict(zip((round(t, 6) for t in ped.t[rows].tolist()), rows))
    by_direction: dict = {}
    for veh, ped in co_present_pairs(dataset):
        by_direction.setdefault(veh.entering_direction, {}).setdefault(
            veh.id, (veh, []))[1].append(ped)
    matched = []
    for direction, peds_of in by_direction.items():
        if not any((direction, m) in models for m in SUPPORTED_MANEUVERS):
            continue
        scored, pairs = [], []
        for veh, peds in peds_of.values():
            keys = [round(t, 6) for t in veh.t.tolist()]
            usable = veh.valid & np.isfinite(veh.yaw_rate)
            candidates = [vi for vi in range(0, len(veh), stride) if usable[vi]]
            shared = [(ped, [(vi, lookup[ped.id][keys[vi]]) for vi in candidates
                             if keys[vi] in lookup[ped.id]]) for ped in peds]
            frames = sorted({vi for _, rows in shared for vi, _ in rows})
            if frames:
                scored.append((veh.id, frames))
                pairs.extend(((veh.id, ped.id), rows) for ped, rows in shared if rows)
        if scored:
            matched.append((scored, pairs))
    return matched


@st.composite
def matching_scenes(draw):
    """Vehicles and pedestrians on a 0.1 s grid, each with its own start,
    dropped frames, a time offset under half a key, and maybe a row 1e-7 s
    after another that shares its key. Vehicle rows may be invalid or have a
    non-finite yaw rate, and pedestrian rows may be invalid; one vehicle has
    no entering direction and one pedestrian no valid row. Each valid row's
    x is its object's number times 1000 plus its row index."""

    def track(k, object_class, no_valid=False, direction=None):
        start = draw(st.integers(0, 10))
        frames = sorted(draw(st.sets(st.integers(start, start + 14), min_size=1, max_size=12)))
        t = [0.1 * f + draw(st.sampled_from([-3e-7, 0.0, 3e-7])) for f in frames]
        if draw(st.booleans()):
            i = draw(st.integers(0, len(t) - 1))
            t.insert(i + 1, t[i] + 1e-7)
            assert round(t[i], 6) == round(t[i + 1], 6)
        n = len(t)
        invalid = [no_valid or b for b in draw(st.lists(st.booleans(), min_size=n, max_size=n))]
        yaw = draw(st.lists(st.sampled_from([0.0, 0.0, 0.0, math.nan, math.inf]),
                            min_size=n, max_size=n))
        points = [row(ti, *((math.nan,) * 4 if bad else (1000.0 * k + i, 0.1 * k, 1.0, 0.5)),
                      yaw_rate=w)
                  for i, (ti, bad, w) in enumerate(zip(t, invalid, yaw))]
        return Trajectory(id=f"{object_class.value}{k}", object_class=object_class,
                          points=points, entering_direction=direction,
                          maneuver=Maneuver.STRAIGHT if direction else None)

    n_veh, n_ped = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    vehicles = [track(k, ObjectClass.VEHICLE,
                      direction=draw(st.sampled_from([Direction.W, Direction.E, Direction.N])))
                for k in range(n_veh)]
    vehicles.append(track(n_veh, ObjectClass.VEHICLE))
    peds = [track(k, ObjectClass.PEDESTRIAN) for k in range(n_veh + 1, n_veh + n_ped + 1)]
    peds.append(track(n_veh + n_ped + 1, ObjectClass.PEDESTRIAN, no_valid=True))
    return Dataset(trajectories=draw(st.permutations(vehicles + peds)))


class TestFrameMatching:
    # W has two cluster models, E one and N none
    MODELS = {(Direction.W, Maneuver.LEFT): None, (Direction.W, Maneuver.STRAIGHT): None,
              (Direction.E, Maneuver.RIGHT): None}
    FOREST, _ = certain_forest(2)

    @settings(max_examples=150, deadline=None)
    @given(matching_scenes(), st.integers(1, 3))
    def test_matches_the_dict_matcher(self, dataset, stride):
        # the rollout follows the start, so each batch row's path starts at
        # the position of the vehicle row it scores
        def standing(pair, starts, steps, dt, streams=None):
            return np.repeat(starts[:, None], steps, axis=1)

        def recording_features(points, codes):
            features.append((points.copy(), codes))
            return real_features(points, codes)

        def recording_estimate(*args, **kwargs):
            calls.append(args)
            return real_estimate(*args, **kwargs)

        features, calls = [], []
        real_features, real_estimate = evaluation.feature_rows, evaluation.estimate_risk
        saved = evaluation.rollout
        evaluation.rollout, evaluation.feature_rows, evaluation.estimate_risk = (
            standing, recording_features, recording_estimate)
        try:
            streams = compute_risk_streams(dataset, self.MODELS, self.FOREST,
                                           RiskConfig(horizon_steps=3, frame_stride=stride),
                                           ttc_radius=1.0)
        finally:
            evaluation.rollout, evaluation.feature_rows, evaluation.estimate_risk = (
                saved, real_features, real_estimate)
        want = reference_matching(dataset, self.MODELS, stride)
        by_id = {traj.id: traj for traj in dataset.trajectories}
        # one feature build per scored direction, over its vehicles' scored
        # rows, vehicle after vehicle
        assert len(features) == len(want)
        for (points, code), (scored, _) in zip(features, want):
            assert points.tobytes() == np.concatenate(
                [by_id[v].points[frames] for v, frames in scored]).tobytes()
            assert code == DIRECTION_CODES[by_id[scored[0][0]].entering_direction]
        assert list(streams) == [pair for _, pairs in want for pair, _ in pairs]
        assert len(calls) == len(want)
        for (_, pairs), args in zip(want, calls):
            rows = [(vid, pid, vi, pi) for (vid, pid), shared in pairs for vi, pi in shared]
            # x holds the row index, so each call row names its vehicle and
            # pedestrian rows; each path starts at the vehicle row's position
            assert args[1][:, 0].tolist() == [by_id[v].points[vi, 1] for v, _, vi, _ in rows]
            assert args[2][:, 0].tolist() == [by_id[p].points[pi, 1] for _, p, _, pi in rows]
            assert args[0].tolist() == [by_id[v].t[vi] for v, _, vi, _ in rows]
            for path in args[4].values():
                assert path[:, 0].tobytes() == np.ascontiguousarray(args[1][:, :2]).tobytes()


class TestPredictionStudy:
    def test_matches_the_per_window_reference(self, small_scene):
        # one rollout per cluster, sliced per window, pools the same rows as
        # rolling every window out on its own; start point 1 has no valid window
        labeled, models, _ = small_scene
        points, horizons, steps = (1, 2, 10, 15), (5, 10, 25), 12
        got = evaluation.prediction_error_study(
            labeled, models, TrainConfig(starting_points=points, horizons=horizons,
                                         rollout_steps=steps))
        want = ([r for sp in points for r in reference_pooled_rows(labeled, models, sp, steps, sp)],
                [r for h in horizons  # the by-horizon windows start at point 10
                 for r in reference_pooled_rows(labeled, models, 10, h, h)])
        for got_rows, want_rows in zip(got, want):
            assert len(got_rows) == len(want_rows) > 0
            for g, w in zip(got_rows, want_rows):
                assert ((g.group, g.maneuver, g.n_vehicles, g.n_points)
                        == (w.group, w.maneuver, w.n_vehicles, w.n_points))
                for name in ("gpr_mean", "gpr_std", "dynamic_mean", "dynamic_std"):
                    assert getattr(g, name) == pytest.approx(getattr(w, name), rel=1e-12, abs=0)

    def test_one_rollout_per_cluster(self, small_scene, monkeypatch):
        labeled, models, _ = small_scene
        calls = []
        real_rollout = evaluation.rollout

        def counting_rollout(pair, starts, steps, dt, streams=None):
            calls.append((pair.cluster, steps))
            return real_rollout(pair, starts, steps, dt, streams)

        monkeypatch.setattr(evaluation, "rollout", counting_rollout)
        evaluation.prediction_error_study(
            labeled, models, TrainConfig(starting_points=[10, 15], horizons=[10, 40]))
        clusters = [cluster for cluster, _ in calls]
        assert clusters and len(clusters) == len(set(clusters))
        assert {steps for _, steps in calls} == {40}

    def test_windows_check_time_continuity(self):
        # a 40-frame track with frame 15 dropped: start index 9 with 10 steps
        # once ended at t = 2.0 s, not 1.9 s; no window may span the gap now
        track = Trajectory(id="v", object_class=ObjectClass.VEHICLE, points=[
            row(round(0.1 * k, 6), float(k), 0.0, 10.0, 0.0) for k in range(40) if k != 15])
        assert track.t[9 + 10] == 2.0
        assert not evaluation._window_is_valid(track, 9, 10, 0.1)
        assert not evaluation._window_is_valid(track, 15, 3, 0.1)  # the gap is rows 14-15
        assert evaluation._window_is_valid(track, 1, 12, 0.1)  # rows 0-13 end before it
        assert evaluation._window_is_valid(track, 16, 10, 0.1)  # rows 15-26 start after it
        jittered = Trajectory(id="j", object_class=ObjectClass.VEHICLE, points=[
            row(0.1 * k + (-1) ** k * 4e-7, float(k), 0.0, 10.0, 0.0) for k in range(40)])
        assert evaluation._window_is_valid(jittered, 9, 10, 0.1)  # gaps off by 8e-7 s
        assert not evaluation._window_is_valid(jittered, 9, 10, 0.05)


    def test_windows_exclude_invalid_points(self):
        # the baseline needs valid start and previous rows, and every actual
        # point of the window must be valid
        points = [row(0.1 * k, float(k), 0.0, 10.0, 0.0) for k in range(20)]
        for bad in (4, 5, 8):
            points_bad = list(points)
            points_bad[bad] = row(0.1 * bad, float("nan"), 0.0, 10.0, 0.0)
            track = Trajectory(id="v", object_class=ObjectClass.VEHICLE, points=points_bad)
            assert not evaluation._window_is_valid(track, 5, 3, 0.1)
            assert evaluation._window_is_valid(track, 10, 3, 0.1)


def study_row(predicted, actual):
    """The study's row for one vehicle predicted ``predicted`` over the points
    ``actual`` that follow its start index 1."""
    points = [row(0.0, 0.0, 0.0, 1.0, 0.0), row(0.1, 0.1, 0.0, 1.0, 0.0)]
    points += [row(0.1 * (k + 2), x, y, 1.0, 0.0) for k, (x, y) in enumerate(actual.tolist())]
    traj = Trajectory(id="v", object_class=ObjectClass.VEHICLE, points=points,
                      entering_direction=Direction.S, maneuver=Maneuver.STRAIGHT)
    (got,) = evaluation._pooled_rows([traj], {("v", 1): predicted}, 1, len(actual), 0.1, 7)
    assert (got.group, got.maneuver, got.n_vehicles, got.n_points) == (
        7, Maneuver.STRAIGHT, 1, len(actual))
    return got


class TestTrajectoryError:
    """Distances between predicted and actual paths, pooled in the study's rows."""

    def test_identical_paths(self):
        path = np.random.default_rng(0).normal(size=(12, 2))
        got = study_row(path, path.copy())
        assert got.gpr_mean == 0.0 and got.gpr_std == 0.0

    def test_constant_offset(self):
        actual = np.zeros((8, 2))
        got = study_row(actual + np.array([3.0, 4.0]), actual)
        assert got.gpr_mean == pytest.approx(5.0) and got.gpr_std == pytest.approx(0.0)

    def test_matches_direct_arithmetic(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=(5, 2))
        b = rng.normal(size=(5, 2))
        got = study_row(a, b)
        manual = [math.sqrt((a[i][0] - b[i][0]) ** 2 + (a[i][1] - b[i][1]) ** 2)
                  for i in range(5)]
        mu = sum(manual) / 5
        assert got.gpr_mean == pytest.approx(mu, abs=1e-12)
        pop_std = math.sqrt(sum((d - mu) ** 2 for d in manual) / 5)
        assert got.gpr_std == pytest.approx(pop_std, abs=1e-12)
