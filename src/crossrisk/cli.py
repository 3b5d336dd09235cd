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
import math
import sys
from functools import partial
from pathlib import Path

import numpy as np

from .config import RunConfig, load_config
from .errors import InputError, NumericalError
from .evaluation import compute_risk_streams, prediction_error_study
from .geometry import build_geometry
from .gpr import cluster_fit_jobs, load_cluster_models, save_cluster_models
from .maneuver import (
    ForestModel,
    build_feature_table,
    load_forest,
    majority_params,
    save_forest,
    smote_oversample,
    split_jobs,
    tree_jobs,
)
from .parallel import Pool, usable_workers
from .preprocess import preprocess_dataset
from .ssm import co_present_pairs, evaluate_detection, identify_conflicts_pet
from .synth import generate_scenario, write_ground_truth
from .trajectory import SUPPORTED_MANEUVERS, ObjectClass, load_dataset, save_dataset

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


def _ttc_cells(stream) -> list:
    """A stream's TTC column as CSV cells, blank where there is none."""
    return ["" if math.isnan(ttc) else _fmt(ttc) for ttc in stream.ttc.tolist()]


def _write_classifier_reports(out_dir: Path, scores: tuple, chosen: tuple) -> None:
    """``classifier_report.csv`` and ``.txt``: the mean precision, recall and
    F1 over the protocol splits' ``scores`` tables, the F1 spread, and the
    chosen forest grid point."""
    mean_p, mean_r, mean_f = np.mean(scores, axis=0)
    std_f = np.std(scores, axis=0)[2]
    _write_csv(
        out_dir / "classifier_report.csv",
        ["maneuver", "precision_mean", "recall_mean", "f1_mean", "f1_std"],
        [
            [_MANEUVER_NAMES[m], _fmt(mean_p[i]), _fmt(mean_r[i]), _fmt(mean_f[i]),
             _fmt(std_f[i])]
            for i, m in enumerate(SUPPORTED_MANEUVERS)
        ],
    )
    lines = [f"maneuver classification over {len(scores)} splits",
             "maneuver      precision  recall  f1"]
    for i, m in enumerate(SUPPORTED_MANEUVERS):
        lines.append(f"{m.value:12s}  {mean_p[i]:.3f}      {mean_r[i]:.3f}   {mean_f[i]:.3f}")
    lines.append(f"selected forest: n_trees={chosen[0]} max_depth={chosen[1]}")
    (out_dir / "classifier_report.txt").write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_synth(cfg: RunConfig, out_dir: Path) -> None:
    dataset, truth = generate_scenario(cfg.synth)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_dataset(dataset, out_dir / "dataset.csv", include_labels=False)
    write_ground_truth(truth, out_dir / "ground_truth.json")
    print(f"wrote {len(dataset)} trajectories to {out_dir / 'dataset.csv'}")


def cmd_preprocess(cfg: RunConfig, in_path: Path, out_dir: Path) -> None:
    dataset = load_dataset(in_path, cfg.data)
    geometry, grid = build_geometry(cfg.preprocess.geometry, dataset.pedestrians,
                                    cfg.preprocess.cell_size)
    out_dir.mkdir(parents=True, exist_ok=True)
    if grid is not None:
        grid.write_csv(out_dir / "density_grid.csv")
    labeled, report = preprocess_dataset(dataset, geometry, cfg.preprocess.merge,
                                         cfg.preprocess.filter)
    save_dataset(labeled, out_dir / "labeled.csv", include_labels=True)
    (out_dir / "preprocess_report.txt").write_text(report.to_text())
    print(report.to_text(), end="")


def cmd_train(cfg: RunConfig, in_path: Path, out_dir: Path) -> None:
    # Every train job reads vehicles only.
    dataset = load_dataset(in_path, cfg.data, classes={ObjectClass.VEHICLE})
    out_dir.mkdir(parents=True, exist_ok=True)

    def final_jobs(bal_X, bal_y, chosen, models) -> list:
        # The second map: the two GP accuracy tables, then the trees of the
        # final forest, on the full balanced table with the most frequently
        # chosen grid point. The study is the map's longest job, so it goes
        # first and the trees fill the other workers meanwhile; a failing study
        # is the error reported. The workers hold the dataset since the fork
        # and receive only these inputs.
        return [partial(prediction_error_study, dataset, models, cfg.train),
                *tree_jobs(bal_X, bal_y, n_trees=chosen[0], max_depth=chosen[1],
                           seed=cfg.forest.seed)]

    # Two maps over one pool of worker processes. The first holds every job
    # that needs only the input table, in the serial order of the stage, so
    # that a failure reports what the serial loop would: the repeated-split
    # evaluation of the maneuver classifier, the balanced table of its final
    # model and one velocity-field GP job per cluster.
    X, y, groups = build_feature_table(dataset)
    splits = split_jobs(X, y, cfg.forest, groups)
    gp_fits = cluster_fit_jobs(dataset, cfg.gpr)
    with Pool(final_jobs) as pool:
        results = pool.map([
            *splits,
            partial(smote_oversample, X, y, k=cfg.forest.smote_k, seed=cfg.forest.seed),
            *gp_fits.values(),
        ])
        scores, split_params = zip(*results[:len(splits)])  # a (3, N_CLASSES) table per split
        bal_X, bal_y = results[len(splits)]
        models = dict(zip(gp_fits, results[len(splits) + 1:]))

        chosen = majority_params(split_params)
        _write_classifier_reports(out_dir, scores, chosen)
        save_cluster_models(models, out_dir / "gpr_models.json")
        (start_rows, horizon_rows), *trees = pool.map(final_jobs, bal_X, bal_y, chosen, models)
    save_forest(ForestModel(trees=trees, n_features=bal_X.shape[1]), out_dir / "forest.json")

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


def cmd_risk(cfg: RunConfig, in_path: Path, models_dir: Path, out_dir: Path) -> None:
    dataset = load_dataset(in_path, cfg.data)
    models = load_cluster_models(models_dir / "gpr_models.json")
    forest = load_forest(models_dir / "forest.json")
    out_dir.mkdir(parents=True, exist_ok=True)

    pairs = co_present_pairs(dataset)
    truth = identify_conflicts_pet(dataset, cfg.ssm.pet_threshold, cfg.ssm.zone_radius, pairs)
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

    streams = compute_risk_streams(dataset, models, forest, cfg.risk, cfg.ssm.ttc_radius, pairs)

    series_rows = []
    for (vid, pid) in sorted(streams):
        stream = streams[(vid, pid)]
        for t, probs, risks, risk, ttc in zip(
                stream.t.tolist(), stream.probs.tolist(), stream.maneuver_risk.tolist(),
                stream.risk.tolist(), _ttc_cells(stream)):
            series_rows.append([_fmt(t), vid, pid, *map(_fmt, probs), *map(_fmt, risks),
                                _fmt(risk), ttc])
    _write_csv(
        out_dir / "risk_series.csv",
        ["t", "vehicle_id", "pedestrian_id", "p_left", "p_right", "p_straight",
         "risk_left", "risk_right", "risk_straight", "risk", "ttc"],
        series_rows,
    )

    if streams or truth:
        report = evaluate_detection(
            {pair: stream.risk.max() for pair, stream in streams.items()},
            [event.pair for event in truth])
        (out_dir / "detection_report.txt").write_text(report.to_text())
        _write_csv(out_dir / "roc.csv", ["threshold", "tpr", "fpr"],
                   [[_fmt(t if t not in (float("inf"), float("-inf")) else None),
                     _fmt(tpr), _fmt(fpr)] for t, tpr, fpr in report.roc])
        print(report.to_text(), end="")

    case_dir = out_dir / "case_studies"
    for event in truth:
        stream = streams.get(event.pair)
        if stream is None:
            continue
        _write_csv(
            case_dir / f"pair_{event.vehicle_id}_{event.pedestrian_id}.csv",
            ["t", "risk", "ttc", "vehicle_speed"],
            [[_fmt(t), _fmt(risk), ttc, _fmt(speed)] for t, risk, ttc, speed in zip(
                stream.t.tolist(), stream.risk.tolist(), _ttc_cells(stream),
                stream.vehicle_speed.tolist())],
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
        p.add_argument("--seed", type=int, default=None, help="override config seeds")
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
        if args.seed is not None:
            cfg = cfg.with_seed(args.seed)
        if args.command == "synth":
            cmd_synth(cfg, args.out)
        elif args.command == "preprocess":
            cmd_preprocess(cfg, args.in_path, args.out)
        elif args.command == "train":
            cmd_train(cfg, args.in_path, args.out)
        elif args.command == "risk":
            models_dir = args.models if args.models is not None else args.in_path.parent
            cmd_risk(cfg, args.in_path, models_dir, args.out)
    except (InputError, OSError) as exc:
        print(f"error [{args.command}]: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure [{args.command}]: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
