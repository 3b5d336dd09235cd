"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured numbers. Scene-level criteria share
session-scoped fixtures so the expensive training runs happen once."""

import hashlib
import json
import math
import time

import numpy as np
import pytest
from helpers import crossing_risk, fit_clusters, row, run_protocol

from crossrisk.cli import main
from crossrisk.evaluation import (
    RiskConfig,
    TrainConfig,
    compute_risk_streams,
    prediction_error_study,
)
from crossrisk.geometry import IntersectionGeometry, canonical_endpoints
from crossrisk.gpr import (
    GprConfig,
    KernelConfig,
    _neg_lml,
    _sq_dists,
    build_gpr_model,
    kernel_matrix,
    posterior_predict,
)
from crossrisk.maneuver import (
    ForestConfig,
    build_feature_table,
    smote_oversample,
    train_forest,
)
from crossrisk.preprocess import (
    MergeCriteria,
    classify_entering_direction,
    classify_movement,
    merge_pedestrian_trajectories,
    preprocess_dataset,
)
from crossrisk.ssm import compute_pet, compute_ttc, evaluate_detection, identify_conflicts_pet
from crossrisk.synth import ScenarioSpec, generate_scenario
from crossrisk.trajectory import (
    Maneuver,
    ObjectClass,
    SUPPORTED_MANEUVERS,
    Trajectory,
)


def check(criterion: int, conditions: dict, detail: str = "") -> None:
    ok = all(conditions.values())
    print(f"[AC{criterion}] {'PASS' if ok else 'FAIL'} {detail}")
    failed = [name for name, good in conditions.items() if not good]
    assert not failed, f"criterion {criterion} failed: {failed}"


GEOM = IntersectionGeometry(endpoints=canonical_endpoints())


# ---------------------------------------------------------------------------
# Criterion 1: GP numerical core against independent oracles
# ---------------------------------------------------------------------------


def test_ac1_gpr_numerical_core():
    started = time.perf_counter()
    rng = np.random.default_rng(42)
    worst_posterior = 0.0
    worst_grad = 0.0
    psd_ok = True

    for trial in range(30):
        n = int(rng.integers(2, 11))
        x = rng.uniform(-8, 8, size=(n, 2))
        y = rng.normal(size=n)
        cfg = KernelConfig(
            kind="rq" if trial % 2 else "rbf",
            length_scale=float(rng.uniform(0.5, 3.0)),
            rq_alpha=float(rng.uniform(0.3, 2.0)),
            noise_variance=float(rng.uniform(0.01, 0.5)),
            jitter=0.0,
        )
        k = kernel_matrix(cfg, x, x)
        try:
            np.linalg.cholesky(k + 1e-6 * np.eye(n))
        except np.linalg.LinAlgError:
            psd_ok = False
        model = build_gpr_model(x, y, cfg, standardize=False)
        q = rng.uniform(-8, 8, size=2)
        (mean,), (var,) = posterior_predict(model, [q])
        k_full = k + cfg.noise_variance * np.eye(n)
        k_inv = np.linalg.inv(k_full)
        k_star = kernel_matrix(cfg, x, q[None, :])[:, 0]
        worst_posterior = max(
            worst_posterior,
            abs(mean - k_star @ k_inv @ y),
            abs(var - (1.0 - k_star @ k_inv @ k_star + cfg.noise_variance)),
        )

    for trial in range(12):
        kind = "rq" if trial % 2 else "rbf"
        x = rng.uniform(-5, 5, size=(5, 2))
        ys = rng.normal(size=5)
        theta = rng.uniform(-1, 1, size=3 if kind == "rq" else 2)
        d2 = _sq_dists(x, x)
        _, grad = _neg_lml(theta, d2, [ys], kind, 1e-6)[0][:2]
        fd = np.zeros_like(theta)
        h = 1e-6
        for j in range(len(theta)):
            tp, tm = theta.copy(), theta.copy()
            tp[j] += h
            tm[j] -= h
            fd[j] = (_neg_lml(tp, d2, [ys], kind, 1e-6)[0][0]
                     - _neg_lml(tm, d2, [ys], kind, 1e-6)[0][0]) / (2 * h)
        rel = np.max(np.abs(grad - fd) / np.maximum(np.abs(fd), 1e-4))
        worst_grad = max(worst_grad, float(rel))

    elapsed = time.perf_counter() - started
    check(1, {
        "posterior_within_1e-8": worst_posterior < 1e-8,
        "gradients_within_1e-4": worst_grad < 1e-4,
        "kernels_psd_under_jitter": psd_ok,
        "runtime_under_10s": elapsed < 10.0,
    }, f"posterior diff {worst_posterior:.2e}, grad rel {worst_grad:.2e}, "
       f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 2: risk formula exactness
# ---------------------------------------------------------------------------


def test_ac2_risk_formula_exactness():
    # hand-built paths: the pedestrian reaches the conflict point at t = 1 s
    # and each maneuver's vehicle at the given step of 0.1 s
    unit = float(crossing_risk((None, None, 10)).risk[0])
    one_second = float(crossing_risk((None, None, 20)).risk[0])
    absent = float(crossing_risk((None, None, None)).risk[0])

    # three hand-computed mixtures of per-maneuver risks and probabilities
    cases = [
        ((10, None, None), (1.0, 0.0, 0.0), (0.2, 0.3, 0.5)),
        ((0, None, 15), (math.exp(-1.0), 0.0, math.exp(-0.5)), (0.5, 0.25, 0.25)),
        ((None, None, None), (0.0, 0.0, 0.0), (0.1, 0.2, 0.7)),
    ]
    mix_ok = True
    for arrivals, risks, probs in cases:
        stream = crossing_risk(arrivals, probs)
        mixed = float(stream.risk[0])
        by_hand = risks[0] * probs[0] + risks[1] * probs[1] + risks[2] * probs[2]
        mix_ok &= np.max(np.abs(stream.maneuver_risk[0] - risks)) <= 1e-12
        mix_ok &= abs(mixed - by_hand) <= 1e-12 and 0.0 <= mixed <= 1.0

    check(2, {
        "zero_gap_risk_is_one": unit == 1.0,
        "one_second_gap_is_exp_minus_one": abs(one_second - math.exp(-1.0)) <= 1e-12,
        "absent_conflict_is_zero": absent == 0.0,
        "mixtures_match_hand_sums": mix_ok,
    }, f"exp(-1) diff {abs(one_second - math.exp(-1.0)):.1e}")


# ---------------------------------------------------------------------------
# Criteria 3 and 4: prediction-accuracy trends (shared trained scene)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def trend_scene():
    started = time.perf_counter()
    spec = ScenarioSpec(seed=5, n_vehicles_per_cell=12,
                        n_pedestrians_per_crosswalk=0,
                        noise_std_position=0.1, noise_std_velocity=0.1)
    dataset, truth = generate_scenario(spec)
    labeled, _ = preprocess_dataset(dataset, GEOM)
    models = fit_clusters(
        labeled, GprConfig(kernel="rq", max_points=400, iterations=80, seed=0))
    start_rows, horizon_rows = prediction_error_study(
        labeled, models, TrainConfig(starting_points=[10, 15, 20], horizons=[10, 15, 20],
                                     rollout_steps=30))
    elapsed = time.perf_counter() - started
    return truth, start_rows, horizon_rows, elapsed


def test_ac3_rollout_beats_kinematic_baseline_on_turns(trend_scene):
    truth, start_rows, _, elapsed = trend_scene
    turning_per_direction = {}
    for direction, maneuver in truth.vehicles.values():
        if maneuver in (Maneuver.LEFT, Maneuver.RIGHT):
            turning_per_direction[direction] = turning_per_direction.get(direction, 0) + 1
    ratios = {}
    for row in start_rows:
        if row.maneuver in (Maneuver.LEFT, Maneuver.RIGHT):
            ratios[(row.group, row.maneuver.value)] = row.gpr_mean / row.dynamic_mean
    check(3, {
        "at_least_20_turning_per_direction": min(turning_per_direction.values()) >= 20,
        "all_start_points_covered": {g for g, _ in ratios} == {10, 15, 20},
        "gpr_below_0.6x_dynamic_on_turns": all(r < 0.6 for r in ratios.values()),
        "runtime_under_5min": elapsed < 300.0,
    }, f"worst ratio {max(ratios.values()):.3f}, build {elapsed:.0f}s")


def test_ac4_horizon_growth_smaller_than_baseline(trend_scene):
    _, _, horizon_rows, _ = trend_scene

    def aggregate(metric):
        out = {}
        for h in (10, 15, 20):
            rows = [r for r in horizon_rows if r.group == h]
            weights = [r.n_points for r in rows]
            out[h] = float(np.average([getattr(r, metric) for r in rows],
                                      weights=weights))
        return out

    dyn = aggregate("dynamic_mean")
    gpr = aggregate("gpr_mean")
    per_maneuver_increasing = all(
        a.dynamic_mean < b.dynamic_mean
        for m in SUPPORTED_MANEUVERS
        for a, b in zip(
            [r for r in horizon_rows if r.maneuver == m],
            [r for r in horizon_rows if r.maneuver == m][1:],
        )
    )
    check(4, {
        "dynamic_strictly_increasing": dyn[10] < dyn[15] < dyn[20],
        "dynamic_increasing_per_maneuver": per_maneuver_increasing,
        "gpr_growth_smaller": (gpr[20] - gpr[10]) < (dyn[20] - dyn[10]),
    }, f"dynamic {dyn[10]:.2f}->{dyn[20]:.2f} m, rollout {gpr[10]:.2f}->{gpr[20]:.2f} m")


# ---------------------------------------------------------------------------
# Criterion 5: repeated-split classifier protocol on imbalanced clusters
# ---------------------------------------------------------------------------


def test_ac5_classifier_protocol():
    rng = np.random.default_rng(0)
    centers = [np.array([-6.0, 0.0, 5.0, 0.6]),
               np.array([6.0, 0.0, 5.0, 0.6]),
               np.array([0.0, 8.0, 11.0, 0.0])]
    rows, labels = [], []
    for cls, (n, c) in enumerate(zip((100, 100, 400), centers)):
        pts = c[None, :] + 0.4 * rng.normal(size=(n, 4))
        dirs = rng.integers(0, 4, size=n).astype(float)
        rows.append(np.column_stack([pts, dirs]))
        labels.append(np.full(n, cls))
    X = np.vstack(rows)
    y = np.concatenate(labels).astype(int)

    scores, _ = run_protocol(X, y, ForestConfig(n_splits=10, seed=0, smote_k=5))
    mean_f1 = np.mean(scores, axis=0)[2]
    std_f1 = np.std(scores, axis=0)[2]
    check(5, {
        "ten_splits": len(scores) == 10,
        "mean_per_class_f1_at_least_0.9": bool((mean_f1 >= 0.9).all()),
        "std_below_0.1": bool((std_f1 < 0.1).all()),
    }, f"f1 {np.round(mean_f1, 3).tolist()}, std {np.round(std_f1, 3).tolist()}")


# ---------------------------------------------------------------------------
# Criterion 6: detection metrics on an engineered-conflict scene
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def conflict_scene():
    spec = ScenarioSpec(seed=11, n_vehicles_per_cell=4,
                        n_pedestrians_per_crosswalk=2,
                        n_engineered_conflicts=16,
                        requested_pet_range=(0.8, 2.2),
                        noise_std_position=0.05, noise_std_velocity=0.05,
                        min_separation=6.5)
    dataset, truth = generate_scenario(spec)
    labeled, _ = preprocess_dataset(dataset, GEOM)

    X, y, groups = build_feature_table(labeled)
    bal_X, bal_y = smote_oversample(X, y, seed=0)
    forest = train_forest(bal_X, bal_y, n_trees=50, max_depth=None, seed=0)
    models = fit_clusters(
        labeled, GprConfig(kernel="rq", max_points=400, iterations=60, seed=0))
    streams = compute_risk_streams(
        labeled, models, forest,
        RiskConfig(conflict_radius=1.0, horizon_steps=30, frame_stride=2), ttc_radius=1.0)
    return labeled, truth, streams, spec


def test_ac6_detection_metrics(conflict_scene):
    labeled, truth, streams, spec = conflict_scene
    events = identify_conflicts_pet(labeled, threshold=3.0,
                                    zone_radius=spec.pet_zone_radius)
    report = evaluate_detection(
        {pair: stream.risk.max() for pair, stream in streams.items()},
        [e.pair for e in events])
    negatives = report.fp + report.tn
    check(6, {
        "sixteen_ground_truth_conflicts": len(events) == 16,
        "truth_matches_engineering": {e.pair for e in events}
                                      == {c.pair for c in truth.conflicts},
        "at_least_50_negative_pairs": negatives >= 50,
        "sensitivity_is_1": report.sensitivity == 1.0,
        "far_at_most_0.25": report.false_alarm_rate <= 0.25,
        "auc_at_least_0.85": report.auc >= 0.85,
    }, f"sens {report.sensitivity:.2f}, far {report.false_alarm_rate:.3f}, "
       f"auc {report.auc:.3f}, negatives {negatives}")


# ---------------------------------------------------------------------------
# Criterion 7: preprocessing correctness
# ---------------------------------------------------------------------------


def _fragment(traj_id, t0, p0, heading_deg, n=6, speed=1.0):
    vx = speed * math.cos(math.radians(heading_deg))
    vy = speed * math.sin(math.radians(heading_deg))
    pts = [row(round(t0 + i * 0.1, 6), p0[0] + vx * i * 0.1, p0[1] + vy * i * 0.1, vx, vy, 0.0)
           for i in range(n)]
    return Trajectory(id=traj_id, object_class=ObjectClass.PEDESTRIAN, points=pts)


def test_ac7_preprocessing_correctness():
    spec = ScenarioSpec(seed=17, n_vehicles_per_cell=3,
                        n_pedestrians_per_crosswalk=1,
                        noise_std_position=0.0, noise_std_velocity=0.0)
    dataset, truth = generate_scenario(spec)
    hits = 0
    for traj in dataset.vehicles:
        got = (classify_entering_direction(traj, GEOM),
               classify_movement(traj, GEOM))
        hits += got == truth.vehicles[traj.id]
    label_accuracy = hits / len(dataset.vehicles)

    a = _fragment("a", 0.0, (0.0, 0.0), 0.0)  # ends (0.5, 0) at t=0.5
    boundaries = {
        "time_0.2s": (len(merge_pedestrian_trajectories(
            [a, _fragment("b", 0.7, (0.7, 0.0), 0.0)])) == 1)
        and (len(merge_pedestrian_trajectories(
            [a, _fragment("b", 0.81, (0.7, 0.0), 0.0)])) == 2),
        "distance_1m": (len(merge_pedestrian_trajectories(
            [a, _fragment("b", 0.6, (1.5, 0.0), 0.0)])) == 1)
        and (len(merge_pedestrian_trajectories(
            [a, _fragment("b", 0.6, (1.51, 0.0), 0.0)])) == 2),
        "heading_90deg": (len(merge_pedestrian_trajectories(
            [a, _fragment("b", 0.6, (0.6, 0.0), 90.0)])) == 1)
        and (len(merge_pedestrian_trajectories(
            [a, _fragment("b", 0.6, (0.6, 0.0), 90.5)])) == 2),
    }
    loose_heading = MergeCriteria(max_heading_diff=179.0)
    a60 = _fragment("a", 0.0, (0.0, 0.0), 60.0)
    b180 = _fragment("b", 0.6, (0.4, 0.3), 180.0)  # chord difference 120 deg
    boundaries["chord_120deg"] = (
        len(merge_pedestrian_trajectories([a60, b180], loose_heading)) == 1
        and len(merge_pedestrian_trajectories(
            [a60, b180],
            MergeCriteria(max_heading_diff=179.0, max_traj_angle_diff=119.0))) == 2
    )
    check(7, {
        "labels_100_percent": label_accuracy == 1.0,
        **boundaries,
    }, f"label accuracy {label_accuracy:.3f} over {len(dataset.vehicles)} vehicles")


# ---------------------------------------------------------------------------
# Criterion 8: surrogate-measure oracles
# ---------------------------------------------------------------------------


def test_ac8_ssm_oracles():
    rng = np.random.default_rng(21)
    worst_ttc = 0.0
    approaches = 0
    for _ in range(100):
        meet = rng.uniform(-10, 10, size=2)
        v_veh = rng.uniform(-8, 8, size=2)
        v_ped = rng.uniform(-2, 2, size=2)
        t1 = float(rng.uniform(0.5, 6.0))
        t2 = t1 + float(rng.uniform(-1.0, 1.0))
        lat = rng.uniform(-1.5, 1.5, size=2)
        veh = np.array([[meet[0] - v_veh[0] * t1, meet[1] - v_veh[1] * t1,
                         v_veh[0], v_veh[1]]])
        ped = np.array([[meet[0] - v_ped[0] * t2 + lat[0], meet[1] - v_ped[1] * t2 + lat[1],
                         v_ped[0], v_ped[1]]])
        radius = float(rng.uniform(0.3, 2.0))
        got = float(compute_ttc(veh, ped, radius)[0])
        vx0, vy0, vvx, vvy = veh[0].tolist()
        px0, py0, pvx, pvy = ped[0].tolist()
        # 1 ms brute-force stepping oracle
        want = None
        t = 0.0
        while t <= 30.0:
            dx = (px0 + pvx * t) - (vx0 + vvx * t)
            dy = (py0 + pvy * t) - (vy0 + vvy * t)
            if math.hypot(dx, dy) <= radius:
                want = t
                break
            t += 0.001
        if want is None:
            assert math.isnan(got) or got > 30.0
        else:
            approaches += 1
            worst_ttc = max(worst_ttc, abs(got - want))

    spec = ScenarioSpec(seed=13, n_vehicles_per_cell=0,
                        n_pedestrians_per_crosswalk=0,
                        n_engineered_conflicts=6,
                        requested_pet_range=(0.9, 2.1),
                        noise_std_position=0.0, noise_std_velocity=0.0)
    ds, truth = generate_scenario(spec)
    worst_pet = 0.0
    for c in truth.conflicts:
        event = compute_pet(ds.by_id(c.vehicle_id), ds.by_id(c.pedestrian_id),
                            zone_radius=spec.pet_zone_radius)
        assert event is not None
        worst_pet = max(worst_pet, abs(event.pet - c.requested_pet))

    check(8, {
        "ttc_within_1ms": worst_ttc <= 1e-3,
        "enough_real_approaches": approaches >= 30,
        "pet_within_0.2s": worst_pet <= 0.2,
    }, f"ttc err {worst_ttc * 1e3:.2f} ms on {approaches} approaches, "
       f"pet err {worst_pet:.3f} s")


# ---------------------------------------------------------------------------
# Criterion 9: end-to-end determinism
# ---------------------------------------------------------------------------


def test_ac9_pipeline_determinism(tmp_path):
    cfg = {
        "synth": {"seed": 7, "n_vehicles_per_cell": 1,
                  "n_pedestrians_per_crosswalk": 1,
                  "n_engineered_conflicts": 2,
                  "noise_std_position": 0.05, "noise_std_velocity": 0.05},
        "gpr": {"iterations": 20, "max_points": 150},
        "forest": {"n_trees_grid": [20], "max_depth_grid": [10], "n_splits": 2},
        "risk": {"frame_stride": 3},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))

    def run(tag):
        base = tmp_path / tag
        for args in (
            ["synth", "--config", str(cfg_path), "--out", str(base / "scene")],
            ["preprocess", "--config", str(cfg_path),
             "--in", str(base / "scene" / "dataset.csv"), "--out", str(base / "prep")],
            ["train", "--config", str(cfg_path),
             "--in", str(base / "prep" / "labeled.csv"), "--out", str(base / "models")],
            ["risk", "--config", str(cfg_path),
             "--in", str(base / "prep" / "labeled.csv"),
             "--models", str(base / "models"), "--out", str(base / "risk")],
        ):
            assert main(args) == 0
        return {
            str(p.relative_to(base)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(base.rglob("*")) if p.is_file()
        }

    first = run("one")
    second = run("two")
    check(9, {
        "all_stages_produced_files": len(first) >= 10,
        "reports_byte_identical": first == second,
    }, f"{len(first)} files compared")
