"""Command-line pipeline: synth -> preprocess -> train -> risk.

Each command reads one JSON config (``--config``), takes its inputs and
output directory from flags, and writes machine-readable reports. Exit codes:
0 success, 1 input error (bad files, config or data too small to use), 2
numerical failure; any other exception is a program bug and propagates with
its traceback.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

from .config import RunConfig, load_config
from .errors import InputError, NumericalError
from .evaluation import compute_risk_streams, prediction_error_study
from .geometry import IntersectionGeometry, estimate_crosswalk_endpoints
from .gpr import (
    OptimizerSettings,
    RolloutConfig,
    load_cluster_models,
    save_cluster_models,
    train_cluster_models,
)
from .maneuver import (
    ForestGrid,
    build_feature_table,
    load_forest,
    run_split_protocol,
    save_forest,
    smote_oversample,
    train_forest,
)
from .parallel import usable_workers
from .preprocess import preprocess_dataset
from .ssm import evaluate_detection, identify_conflicts_pet
from .synth import (
    ScenarioSpec,
    canonical_search_regions,
    generate_scenario,
    write_ground_truth,
)
from .trajectory import SUPPORTED_MANEUVERS, load_dataset, save_dataset

_MANEUVER_NAMES = {m: m.value for m in SUPPORTED_MANEUVERS}


def _write_csv(path: Path, header: list, rows: list) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _fmt(x) -> str:
    if x is None:
        return ""
    return f"{x:.6f}"


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_synth(cfg: RunConfig, out_dir: Path, seed: int | None) -> None:
    synth_cfg = cfg.synth
    spec = ScenarioSpec(
        seed=seed if seed is not None else synth_cfg.seed,
        n_vehicles_per_cell=synth_cfg.n_vehicles_per_cell,
        n_pedestrians_per_crosswalk=synth_cfg.n_pedestrians_per_crosswalk,
        n_engineered_conflicts=synth_cfg.n_engineered_conflicts,
        requested_pet_range=tuple(synth_cfg.requested_pet_range),
        n_fast_pedestrians=synth_cfg.n_fast_pedestrians,
        noise_std_position=synth_cfg.noise_std_position,
        noise_std_velocity=synth_cfg.noise_std_velocity,
        cruise_speed=synth_cfg.cruise_speed,
        turn_speed=synth_cfg.turn_speed,
        pedestrian_speed=synth_cfg.pedestrian_speed,
        frame_interval=cfg.data.frame_interval,
        pet_zone_radius=synth_cfg.pet_zone_radius,
        min_separation=synth_cfg.min_separation,
    )
    dataset, truth = generate_scenario(spec)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_dataset(dataset, out_dir / "dataset.csv", include_labels=False)
    write_ground_truth(truth, out_dir / "ground_truth.json")
    print(f"wrote {len(dataset)} trajectories to {out_dir / 'dataset.csv'}")


def cmd_preprocess(cfg: RunConfig, in_path: Path, out_dir: Path) -> None:
    dataset = load_dataset(in_path, cfg.data.column_schema(), cfg.data.frame_interval)
    geo_cfg = cfg.preprocess.geometry
    out_dir.mkdir(parents=True, exist_ok=True)
    if geo_cfg.mode == "explicit":
        geometry = IntersectionGeometry(
            endpoints={k: tuple(v) for k, v in geo_cfg.endpoints.items()},
            crosswalk_inflation=geo_cfg.crosswalk_inflation,
            roadway_polygon=tuple(map(tuple, geo_cfg.roadway_polygon))
            if geo_cfg.roadway_polygon else None,
            crosswalk_polygons=geo_cfg.crosswalk_polygons,
        )
    else:
        regions = geo_cfg.search_regions or canonical_search_regions()
        geometry, grid = estimate_crosswalk_endpoints(
            dataset.pedestrians, cfg.preprocess.cell_size, regions,
            crosswalk_inflation=geo_cfg.crosswalk_inflation,
            roadway_polygon=geo_cfg.roadway_polygon,
            crosswalk_polygons=geo_cfg.crosswalk_polygons,
        )
        grid.write_csv(out_dir / "density_grid.csv")
    labeled, report = preprocess_dataset(dataset, geometry, cfg.preprocess.merge,
                                         cfg.preprocess.filter)
    save_dataset(labeled, out_dir / "labeled.csv", include_labels=True)
    (out_dir / "preprocess_report.txt").write_text(report.to_text())
    print(report.to_text(), end="")


def cmd_train(cfg: RunConfig, in_path: Path, out_dir: Path, seed: int | None) -> None:
    dataset = load_dataset(in_path, cfg.data.column_schema(), cfg.data.frame_interval)
    out_dir.mkdir(parents=True, exist_ok=True)
    gpr_seed = seed if seed is not None else cfg.gpr.seed
    forest_seed = seed if seed is not None else cfg.forest.seed

    # Maneuver classifier: repeated-split evaluation, then a final model on
    # the full balanced table with the most frequently chosen grid point.
    X, y, groups = build_feature_table(dataset)
    grid = ForestGrid(n_trees=tuple(cfg.forest.n_trees_grid),
                      max_depth=tuple(cfg.forest.max_depth_grid))
    protocol = run_split_protocol(X, y, grid=grid, n_splits=cfg.forest.n_splits,
                                  seed=forest_seed, groups=groups,
                                  smote_k=cfg.forest.smote_k)
    mean_p = protocol.mean_metric("precision")
    mean_r = protocol.mean_metric("recall")
    mean_f = protocol.mean_metric("f1")
    std_f = protocol.std_metric("f1")
    _write_csv(
        out_dir / "classifier_report.csv",
        ["maneuver", "precision_mean", "recall_mean", "f1_mean", "f1_std"],
        [
            [_MANEUVER_NAMES[m], _fmt(mean_p[i]), _fmt(mean_r[i]), _fmt(mean_f[i]),
             _fmt(std_f[i])]
            for i, m in enumerate(SUPPORTED_MANEUVERS)
        ],
    )
    lines = [f"maneuver classification over {cfg.forest.n_splits} splits",
             "maneuver      precision  recall  f1"]
    for i, m in enumerate(SUPPORTED_MANEUVERS):
        lines.append(f"{m.value:12s}  {mean_p[i]:.3f}      {mean_r[i]:.3f}   {mean_f[i]:.3f}")
    chosen = protocol.majority_params()
    lines.append(f"selected forest: n_trees={chosen[0]} max_depth={chosen[1]}")
    (out_dir / "classifier_report.txt").write_text("\n".join(lines) + "\n")

    bal_X, bal_y = smote_oversample(X, y, k=cfg.forest.smote_k, seed=forest_seed)
    forest = train_forest(bal_X, bal_y, n_trees=chosen[0], max_depth=chosen[1],
                          seed=forest_seed)
    save_forest(forest, out_dir / "forest.json")

    # Velocity-field models per cluster, then the two accuracy tables.
    opt = OptimizerSettings(learning_rate=cfg.gpr.learning_rate,
                            iterations=cfg.gpr.iterations,
                            init_noise=cfg.gpr.init_noise, seed=gpr_seed)
    models = train_cluster_models(dataset, kind=cfg.gpr.kernel,
                                  max_points=cfg.gpr.max_points, opt=opt,
                                  jitter=cfg.gpr.jitter, seed=gpr_seed)
    save_cluster_models(models, out_dir / "gpr_models.json")

    start_rows, horizon_rows = prediction_error_study(
        dataset, models,
        starting_points=cfg.train.starting_points,
        horizons=cfg.train.horizons,
        rollout_steps=cfg.train.rollout_steps,
    )
    header = ["group", "maneuver", "gpr_mean", "gpr_std", "dynamic_mean",
              "dynamic_std", "n_vehicles", "n_points"]
    as_row = lambda r: [r.group, r.maneuver.value, _fmt(r.gpr_mean), _fmt(r.gpr_std),
                        _fmt(r.dynamic_mean), _fmt(r.dynamic_std), r.n_vehicles,
                        r.n_points]
    _write_csv(out_dir / "prediction_by_start.csv", header,
               [as_row(r) for r in start_rows])
    _write_csv(out_dir / "prediction_by_horizon.csv", header,
               [as_row(r) for r in horizon_rows])
    print(f"trained {len(models)} cluster models on {usable_workers()} worker process(es); "
          f"reports in {out_dir}")


def cmd_risk(cfg: RunConfig, in_path: Path, models_dir: Path, out_dir: Path,
             seed: int | None) -> None:
    dataset = load_dataset(in_path, cfg.data.column_schema(), cfg.data.frame_interval)
    models = load_cluster_models(models_dir / "gpr_models.json")
    forest = load_forest(models_dir / "forest.json")
    out_dir.mkdir(parents=True, exist_ok=True)

    truth = identify_conflicts_pet(dataset, cfg.ssm.pet_threshold, cfg.ssm.zone_radius)
    _write_csv(
        out_dir / "conflict_events.csv",
        ["vehicle_id", "pedestrian_id", "pet", "window_start", "window_end",
         "zone_x", "zone_y"],
        [
            [e.vehicle_id, e.pedestrian_id, _fmt(e.pet), _fmt(e.window[0]),
             _fmt(e.window[1]), _fmt(e.zone_center[0]), _fmt(e.zone_center[1])]
            for e in truth
        ],
    )

    rollout_cfg = RolloutConfig(
        steps=cfg.risk.horizon_steps,
        dt=cfg.data.frame_interval,
        mode=cfg.risk.rollout_mode,
        seed=seed if seed is not None else cfg.risk.sample_seed,
    )
    streams = compute_risk_streams(
        dataset, models, forest, rollout_cfg,
        conflict_radius=cfg.risk.conflict_radius,
        ttc_radius=cfg.ssm.ttc_radius,
        frame_stride=cfg.risk.frame_stride,
    )

    series_rows = []
    for (vid, pid) in sorted(streams):
        for p in streams[(vid, pid)]:
            by_m = {a.maneuver: a for a in p.assessments}
            series_rows.append([
                _fmt(p.t), vid, pid,
                _fmt(p.maneuver_probs.p_left), _fmt(p.maneuver_probs.p_right),
                _fmt(p.maneuver_probs.p_straight),
                _fmt(by_m[SUPPORTED_MANEUVERS[0]].risk),
                _fmt(by_m[SUPPORTED_MANEUVERS[1]].risk),
                _fmt(by_m[SUPPORTED_MANEUVERS[2]].risk),
                _fmt(p.risk), _fmt(p.ttc_baseline),
            ])
    _write_csv(
        out_dir / "risk_series.csv",
        ["t", "vehicle_id", "pedestrian_id", "p_left", "p_right", "p_straight",
         "risk_left", "risk_right", "risk_straight", "risk", "ttc"],
        series_rows,
    )

    if streams or truth:
        report = evaluate_detection(
            {pair: max(p.risk for p in stream) for pair, stream in streams.items()}, truth)
        (out_dir / "detection_report.txt").write_text(report.to_text())
        _write_csv(out_dir / "roc.csv", ["threshold", "tpr", "fpr"],
                   [[_fmt(t if t not in (float("inf"), float("-inf")) else None),
                     _fmt(tpr), _fmt(fpr)] for t, tpr, fpr in report.roc])
        print(report.to_text(), end="")

    case_dir = out_dir / "case_studies"
    for event in truth:
        stream = streams.get(event.pair)
        if not stream:
            continue
        _write_csv(
            case_dir / f"pair_{event.vehicle_id}_{event.pedestrian_id}.csv",
            ["t", "risk", "ttc", "vehicle_speed"],
            [[_fmt(p.t), _fmt(p.risk), _fmt(p.ttc_baseline), _fmt(p.vehicle_speed)]
             for p in stream],
        )


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crossrisk",
        description="pedestrian-vehicle conflict risk pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_in=True, needs_models=False):
        p.add_argument("--config", type=Path, default=None, help="JSON run config")
        p.add_argument("--out", type=Path, required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        if needs_in:
            p.add_argument("--in", dest="in_path", type=Path, required=True,
                           help="input dataset CSV")
        if needs_models:
            p.add_argument("--models", type=Path, default=None,
                           help="directory with trained models (default: input dir)")

    common(sub.add_parser("synth", help="generate a synthetic scene"), needs_in=False)
    common(sub.add_parser("preprocess", help="label and clean a dataset"))
    common(sub.add_parser("train", help="fit cluster and maneuver models"))
    common(sub.add_parser("risk", help="risk streams and detection metrics"),
           needs_models=True)
    return parser


def main(argv: list | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.command == "synth":
            cmd_synth(cfg, args.out, args.seed)
        elif args.command == "preprocess":
            cmd_preprocess(cfg, args.in_path, args.out)
        elif args.command == "train":
            cmd_train(cfg, args.in_path, args.out, args.seed)
        elif args.command == "risk":
            models_dir = args.models if args.models is not None else args.in_path.parent
            cmd_risk(cfg, args.in_path, models_dir, args.out, args.seed)
    except (InputError, OSError) as exc:
        print(f"error [{args.command}]: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure [{args.command}]: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
