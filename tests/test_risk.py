import math

import numpy as np
import pytest
from helpers import row
from hypothesis import given, settings, strategies as st

from crossrisk import evaluation
from crossrisk.evaluation import compute_risk_streams
from crossrisk.geometry import IntersectionGeometry
from crossrisk.gpr import (
    GprModelPair,
    KernelConfig,
    OptimizerSettings,
    RolloutConfig,
    build_gpr_model,
    rollout,
    train_cluster_models,
)
from crossrisk.maneuver import (
    ForestModel,
    ManeuverDistribution,
    Tree,
    build_feature_table,
    extract_features,
    train_forest,
)
from crossrisk.preprocess import preprocess_dataset
from crossrisk.risk import (
    KinematicState,
    dynamic_model_predict,
    estimate_risk,
    find_conflict_point,
    maneuver_risk,
    predict_pedestrian,
    state_from_trajectory,
    trajectory_error,
)
from crossrisk.synth import ScenarioSpec, canonical_endpoints, generate_scenario
from crossrisk.trajectory import (
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


def cumulative_dynamic_model(state, dt, steps):
    """Per-step constant-acceleration update, the loop the closed form replaced."""
    out = np.empty((steps, 2))
    x, y, vx, vy = state.x, state.y, state.vx, state.vy
    for i in range(steps):
        x = x + vx * dt + 0.5 * state.ax * dt * dt
        y = y + vy * dt + 0.5 * state.ay * dt * dt
        vx += state.ax * dt
        vy += state.ay * dt
        out[i] = (x, y)
    return out


class TestPedestrianPrediction:
    def test_linear_motion(self):
        s = KinematicState(x=2.0, y=-1.0, vx=1.0, vy=0.0)
        path = predict_pedestrian(s, dt=0.1, steps=10)
        assert path.shape == (10, 2)
        assert path[-1][0] == pytest.approx(3.0)
        assert path[-1][1] == pytest.approx(-1.0)

    def test_stationary(self):
        s = KinematicState(x=5.0, y=5.0, vx=0.0, vy=0.0)
        path = predict_pedestrian(s, dt=0.1, steps=5)
        assert np.allclose(path, [[5.0, 5.0]] * 5)

    def test_matches_dynamic_model_with_zero_acceleration(self):
        s = KinematicState(x=1.0, y=2.0, vx=-0.7, vy=1.3, ax=0.0, ay=0.0)
        a = predict_pedestrian(s, dt=0.1, steps=30)
        b = dynamic_model_predict(s, dt=0.1, steps=30)
        assert np.max(np.abs(a - b)) < 1e-15


class TestDynamicModel:
    def test_zero_acceleration_reduces_to_constant_velocity(self):
        s = KinematicState(x=0.0, y=0.0, vx=2.0, vy=0.0)
        path = dynamic_model_predict(s, dt=0.5, steps=4)
        assert np.allclose(path[:, 0], [1.0, 2.0, 3.0, 4.0])

    def test_half_a_t_squared(self):
        s = KinematicState(x=0.0, y=0.0, vx=0.0, vy=0.0, ax=2.0, ay=0.0)
        path = dynamic_model_predict(s, dt=1.0, steps=1)
        assert path[0][0] == pytest.approx(1.0)

    def test_matches_closed_form_over_thirty_steps(self):
        s = KinematicState(x=1.0, y=-2.0, vx=2.0, vy=1.0, ax=0.5, ay=-0.25)
        path = dynamic_model_predict(s, dt=0.1, steps=30)
        t = 3.0
        want_x = 1.0 + 2.0 * t + 0.5 * 0.5 * t * t
        want_y = -2.0 + 1.0 * t + 0.5 * -0.25 * t * t
        assert path[-1][0] == pytest.approx(want_x, abs=1e-9)
        assert path[-1][1] == pytest.approx(want_y, abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(st.tuples(st.floats(-50, 50), st.floats(-50, 50), st.floats(-15, 15),
                     st.floats(-15, 15), st.floats(-5, 5), st.floats(-5, 5)),
           st.floats(0.05, 0.2), st.integers(1, 30))
    def test_closed_form_matches_cumulative_loop(self, fields, dt, steps):
        s = KinematicState(*fields)
        got = dynamic_model_predict(s, dt, steps)
        assert np.max(np.abs(got - cumulative_dynamic_model(s, dt, steps))) <= 1e-12

    def test_state_from_trajectory_backward_difference(self):
        pts = (row(0.0, 0.0, 0.0, 1.0, 0.0, 0.0), row(0.1, 0.1, 0.0, 1.5, -0.2, 0.0))
        traj = Trajectory(id="v", object_class=ObjectClass.VEHICLE, points=pts)
        s = state_from_trajectory(traj, 1)
        assert s.ax == pytest.approx(5.0)
        assert s.ay == pytest.approx(-2.0)
        s0 = state_from_trajectory(traj, 0)
        assert s0.ax == 0.0 and s0.ay == 0.0


class TestConflictPoint:
    def test_perpendicular_crossing_same_speed(self):
        n = 21
        veh = np.array([[(-2.5 + 0.25 * i), 0.0] for i in range(n)])
        ped = np.array([[0.0, (-2.5 + 0.25 * i)] for i in range(n)])
        got = find_conflict_point(veh, ped, dt=0.1, radius=0.3)
        want = brute_force_conflict(veh, ped, 0.1, 0.3)
        assert got is not None
        point, t_veh, t_ped = got
        assert t_veh == pytest.approx(want[1]) and t_ped == pytest.approx(want[2])
        assert t_veh == t_ped == pytest.approx(1.0)  # both reach origin at step 10
        assert math.hypot(*point) < 0.3

    def test_parallel_paths_have_no_conflict(self):
        veh = np.array([[i * 0.5, 0.0] for i in range(20)])
        ped = np.array([[i * 0.5, 10.0] for i in range(20)])
        assert find_conflict_point(veh, ped, dt=0.1, radius=1.0) is None

    def test_identical_paths_meet_at_start(self):
        path = np.array([[i * 0.3, i * 0.1] for i in range(15)])
        point, t_veh, t_ped = find_conflict_point(path, path.copy(), dt=0.1, radius=0.5)
        assert t_veh == 0.0 and t_ped == 0.0
        assert tuple(point) == (0.0, 0.0)

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ValueError):
            find_conflict_point(np.zeros((5, 2)), np.zeros((6, 2)), 0.1, 1.0)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 12), st.floats(0.05, 3.0), st.integers(0, 10_000))
    def test_none_exactly_when_paths_stay_apart(self, n, radius, seed):
        rng = np.random.default_rng(seed)
        veh = rng.uniform(-5, 5, size=(n, 2))
        ped = rng.uniform(-5, 5, size=(n, 2))
        closest = min(math.hypot(*(a - b)) for a in veh for b in ped)
        got = find_conflict_point(veh, ped, dt=0.1, radius=radius)
        assert (got is None) == (closest > radius)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000))
    def test_matches_brute_force_and_swap_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 25))
        veh = np.cumsum(rng.normal(0.0, 0.6, size=(n, 2)), axis=0)
        ped = np.cumsum(rng.normal(0.0, 0.6, size=(n, 2)), axis=0) + rng.normal(size=2)
        radius = float(rng.uniform(0.2, 2.0))
        got = find_conflict_point(veh, ped, dt=0.1, radius=radius)
        want = brute_force_conflict(veh, ped, 0.1, radius)
        if want is None:
            assert got is None
            return
        assert got is not None
        assert got[1] == pytest.approx(want[1]) and got[2] == pytest.approx(want[2])
        # swapping the roles swaps the arrival times when the optimum is unique
        gaps = sorted(
            (abs(j - k), j, k)
            for j in range(n) for k in range(n)
            if math.hypot(*(veh[j] - ped[k])) <= radius
        )
        minimal = [g for g in gaps if g[0] == gaps[0][0]]
        if len(minimal) == 1:
            swapped = find_conflict_point(ped, veh, dt=0.1, radius=radius)
            assert (swapped[1], swapped[2]) == (got[2], got[1])


class TestManeuverRisk:
    def test_equal_arrival_is_certain(self):
        assert maneuver_risk((2.0, 2.0)) == 1.0

    def test_one_second_gap(self):
        assert maneuver_risk((1.0, 2.0)) == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_absent_conflict_is_zero(self):
        assert maneuver_risk(None) == 0.0

    def test_negative_times_rejected(self):
        with pytest.raises(ValueError):
            maneuver_risk((-0.1, 1.0))

    def test_monotone_in_gap(self):
        gaps = [0.0, 0.3, 0.7, 1.5, 3.0]
        risks = [maneuver_risk((1.0, 1.0 + g)) for g in gaps]
        assert risks == sorted(risks, reverse=True)


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


def frame_hypotheses(veh, index, direction, models, forest, cfg):
    """Maneuver probabilities of one vehicle frame and, per maneuver with a
    cluster model, its predicted path with the vehicle position first."""
    probs = forest.predict_proba(extract_features(veh, [index], direction))[0]
    start = veh.xy[index]
    paths = {}
    for m in SUPPORTED_MANEUVERS:
        if (direction, m) in models:
            _, (path,) = rollout(models[(direction, m)], start[None, :], cfg)
            paths[m] = np.vstack([start, path])
    return ManeuverDistribution.from_array(probs / probs.sum()), paths


def score(veh, index, direction, ped, models, forest, cfg, **kwargs):
    return estimate_risk(veh.t.tolist()[index], state_from_trajectory(veh, index), ped,
                         *frame_hypotheses(veh, index, direction, models, forest, cfg),
                         cfg, **kwargs)


class TestEstimateRisk:
    def _vehicle(self, x=0.0, y=0.0, vx=1.0, vy=0.0):
        return Trajectory(id="v", object_class=ObjectClass.VEHICLE,
                          points=[row(12.3, x, y, vx, vy, 0.0)])

    def test_far_pedestrian_scores_zero(self):
        models = {(Direction.S, m): constant_pair(Direction.S, m, 1.0, 0.0)
                  for m in SUPPORTED_MANEUVERS}
        forest, _ = certain_forest(2)
        ped = KinematicState(x=500.0, y=500.0, vx=0.0, vy=0.0)
        profile = score(self._vehicle(), 0, Direction.S, ped, models,
                        forest, RolloutConfig(steps=30, dt=0.1))
        assert profile.risk == 0.0
        assert all(a.conflict_point is None for a in profile.assessments)

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
        ped = KinematicState(x=1.0, y=-1.0, vx=0.0, vy=1.0)  # meets at (1, 0), t=1
        profile = score(self._vehicle(), 0, Direction.S, ped, models,
                        forest, RolloutConfig(steps=30, dt=0.1), radius=0.4)
        straight = profile.assessment(Maneuver.STRAIGHT)
        assert straight.risk == pytest.approx(1.0, abs=1e-6)
        assert profile.maneuver_probs.p_straight == 1.0
        assert profile.risk == pytest.approx(1.0, abs=1e-6)
        assert profile.assessment(Maneuver.LEFT).model_absent
        assert profile.assessment(Maneuver.RIGHT).model_absent

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
        ped = KinematicState(x=2.0, y=-1.0, vx=0.0, vy=1.0)  # at (2, 0) after 1 s
        # vehicle reaches x=2 after 2 s; tiny radius pins the exact-hit pair
        profile = score(self._vehicle(), 0, Direction.S, ped, models,
                        forest, RolloutConfig(steps=30, dt=0.1), radius=0.04)
        straight = profile.assessment(Maneuver.STRAIGHT)
        assert straight.risk == pytest.approx(math.exp(-1.0), abs=1e-12)
        assert profile.maneuver_probs.p_left == 0.5
        assert profile.maneuver_probs.p_straight == 0.5
        assert profile.risk == pytest.approx(0.5 * math.exp(-1.0), abs=1e-12)
        assert profile.assessment(Maneuver.LEFT).model_absent
        assert profile.assessment(Maneuver.LEFT).risk == 0.0

    def test_deterministic_in_mean_mode(self):
        models = {(Direction.S, m): constant_pair(Direction.S, m, 1.0, 0.1)
                  for m in SUPPORTED_MANEUVERS}
        forest, _ = certain_forest(0)
        ped = KinematicState(x=2.0, y=-0.5, vx=0.0, vy=0.5)
        cfg = RolloutConfig(steps=20, dt=0.1)
        a = score(self._vehicle(), 0, Direction.S, ped, models, forest, cfg)
        b = score(self._vehicle(), 0, Direction.S, ped, models, forest, cfg)
        assert a.risk == b.risk

    def test_all_models_absent_raises(self):
        forest, _ = certain_forest(0)
        ped = KinematicState(x=2.0, y=-0.5, vx=0.0, vy=0.5)
        with pytest.raises(ValueError):
            score(self._vehicle(), 0, Direction.S, ped, {}, forest,
                  RolloutConfig(steps=10, dt=0.1))

    def test_missing_probabilities_or_invalid_point_raise(self):
        models = {(Direction.S, Maneuver.STRAIGHT):
                  constant_pair(Direction.S, Maneuver.STRAIGHT, 1.0, 0.0)}
        forest, _ = certain_forest(0)
        cfg = RolloutConfig(steps=10, dt=0.1)
        veh = self._vehicle()
        ped = KinematicState(x=2.0, y=-0.5, vx=0.0, vy=0.5)
        probs, paths = frame_hypotheses(veh, 0, Direction.S, models, forest, cfg)
        with pytest.raises(ValueError):
            estimate_risk(12.3, state_from_trajectory(veh, 0), ped, None, paths, cfg)
        with pytest.raises(ValueError):  # no vehicle state from an invalid point
            state_from_trajectory(self._vehicle(x=float("nan")), 0)

    def test_risk_stays_in_unit_interval(self):
        models = {(Direction.S, m): constant_pair(Direction.S, m, 1.0, (i - 1) * 0.3)
                  for i, m in enumerate(SUPPORTED_MANEUVERS)}
        forest, _ = certain_forest(1)
        rng = np.random.default_rng(4)
        for _ in range(25):
            ped = KinematicState(x=float(rng.uniform(-3, 6)),
                                 y=float(rng.uniform(-3, 3)),
                                 vx=float(rng.uniform(-1, 1)),
                                 vy=float(rng.uniform(-1, 1)))
            profile = score(self._vehicle(), 0, Direction.S, ped,
                            models, forest, RolloutConfig(steps=15, dt=0.1))
            assert 0.0 <= profile.risk <= 1.0
            mix = sum(a.risk * profile.maneuver_probs.for_maneuver(a.maneuver)
                      for a in profile.assessments)
            assert profile.risk == pytest.approx(mix, abs=1e-12)

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
        cfg = RolloutConfig(steps=20, dt=0.1)
        w = np.asarray(weights)
        probs = ManeuverDistribution.from_array(w / w.sum())
        steps = np.arange(cfg.steps + 1)[:, None] * cfg.dt
        paths = {m: steps * np.asarray(v) for m, v in zip(SUPPORTED_MANEUVERS, vels)
                 if v is not None}
        if not paths:  # one hypothesis at least, as the caller guarantees
            paths = {Maneuver.STRAIGHT: steps * np.array([1.0, 0.0])}
        profile = estimate_risk(12.3, KinematicState(0.0, 0.0, 1.0, 0.0),
                                KinematicState(*ped_state),
                                probs, paths, cfg, radius=radius)
        assert 0.0 <= profile.risk <= 1.0
        assert profile.risk <= max(a.risk for a in profile.assessments) + 1e-12


@pytest.fixture(scope="module")
def small_scene():
    spec = ScenarioSpec(seed=5, n_vehicles_per_cell=1, n_pedestrians_per_crosswalk=3,
                        n_engineered_conflicts=2)
    dataset, _ = generate_scenario(spec)
    labeled, _ = preprocess_dataset(dataset,
                                    IntersectionGeometry(endpoints=canonical_endpoints()))
    X, y, _ = build_feature_table(labeled)
    forest = train_forest(X, y, n_trees=3, seed=0)
    models = train_cluster_models(labeled, max_points=60,
                                  opt=OptimizerSettings(iterations=3))
    return labeled, models, forest


class TestRiskStreams:
    CFG = RolloutConfig(steps=15, dt=0.1)

    def test_vehicle_side_computed_once_per_vehicle(self, small_scene, monkeypatch):
        labeled, models, forest = small_scene
        rollouts, predicts = [], []
        real_rollout, real_predict = evaluation.rollout, ForestModel.predict_proba

        def counting_rollout(pair, starts, cfg):
            rollouts.append(pair.cluster)
            return real_rollout(pair, starts, cfg)

        def counting_predict(model, X):
            predicts.append(len(X))
            return real_predict(model, X)

        monkeypatch.setattr(evaluation, "rollout", counting_rollout)
        monkeypatch.setattr(ForestModel, "predict_proba", counting_predict)
        streams = compute_risk_streams(labeled, models, forest, self.CFG, frame_stride=5)
        scored = {v for v, _ in streams}
        assert len(streams) > len(scored)  # some vehicle is scored against several pedestrians
        direction = {t.id: t.entering_direction for t in labeled.vehicles}
        hypotheses = sum((direction[v], m) in models for v in scored for m in SUPPORTED_MANEUVERS)
        assert len(predicts) == len(scored)
        assert len(rollouts) == hypotheses

    def test_streams_match_per_frame_scoring(self, small_scene):
        labeled, models, forest = small_scene
        streams = compute_risk_streams(labeled, models, forest, self.CFG, frame_stride=5)
        assert streams
        for (vid, pid), profiles in streams.items():
            veh, ped = labeled.by_id(vid), labeled.by_id(pid)
            ped_index = {round(t, 6): i for i, t in enumerate(ped.t.tolist())}
            for profile in profiles:
                vi = veh.t.tolist().index(profile.t)
                ped_state = state_from_trajectory(ped, ped_index[round(profile.t, 6)])
                want = score(veh, vi, veh.entering_direction, ped_state, models, forest,
                             self.CFG)
                assert profile.maneuver_probs == want.maneuver_probs
                assert profile.risk == pytest.approx(want.risk, abs=1e-12)

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

        def drawn_paths(mode):
            paths = []

            def recording_rollout(pair, starts, cfg):
                out = real_rollout(pair, starts, cfg)
                paths.append(out[1])
                return out

            monkeypatch.setattr(evaluation, "rollout", recording_rollout)
            cfg = RolloutConfig(steps=10, dt=0.1, mode=mode, seed=3)
            assert len(compute_risk_streams(dataset, models, forest, cfg)) == 2
            return paths

        first, again, mean = drawn_paths("sample"), drawn_paths("sample"), drawn_paths("mean")
        assert len(first) == 2  # one rollout per vehicle
        assert not np.array_equal(first[0], first[1])
        assert [a.tobytes() for a in first] == [a.tobytes() for a in again]
        assert np.array_equal(mean[0], mean[1])


class TestTrajectoryError:
    def test_identical_paths(self):
        path = np.random.default_rng(0).normal(size=(12, 2))
        err = trajectory_error(path, path.copy())
        assert np.all(err.distances == 0.0)
        assert err.mean == 0.0 and err.std == 0.0

    def test_constant_offset(self):
        actual = np.zeros((8, 2))
        predicted = actual + np.array([3.0, 4.0])
        err = trajectory_error(predicted, actual)
        assert np.allclose(err.distances, 5.0)
        assert err.mean == pytest.approx(5.0) and err.std == pytest.approx(0.0)

    def test_matches_direct_arithmetic(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=(5, 2))
        b = rng.normal(size=(5, 2))
        err = trajectory_error(a, b)
        manual = [math.sqrt((a[i][0] - b[i][0]) ** 2 + (a[i][1] - b[i][1]) ** 2)
                  for i in range(5)]
        assert np.max(np.abs(err.distances - manual)) < 1e-12
        assert err.mean == pytest.approx(sum(manual) / 5, abs=1e-12)
        mu = sum(manual) / 5
        pop_std = math.sqrt(sum((d - mu) ** 2 for d in manual) / 5)
        assert err.std == pytest.approx(pop_std, abs=1e-12)

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            trajectory_error(np.zeros((4, 2)), np.zeros((5, 2)))
