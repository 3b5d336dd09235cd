#!/usr/bin/env python3
"""Per-frame latency of risk scoring, the real-time use of the risk stage.

Builds the config's synthetic scene, preprocesses it and trains the models in
a temporary directory, then replays the labeled scene one timestamp at a
time: every object with a valid row at that timestamp becomes a one-row
trajectory, and ``evaluation.compute_risk_streams`` scores that one frame
with the config's ``risk`` section. Only the scoring call is timed. A busy
frame is one that scores at least one pair. The script prints the latency
per busy frame (p50, p99, max), the pairs per busy frame, and the share of
frames whose scoring took longer than ``data.frame_interval``; its last line
is the same figures as one JSON object. BLAS runs on one thread unless
``OPENBLAS_NUM_THREADS`` says otherwise.

    python scripts/frame_latency.py --config configs/example.json [--seed 7]
"""

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
# The checkout's package, so that the script runs without an install.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from crossrisk.cli import main as cli_main  # noqa: E402
from crossrisk.config import load_config  # noqa: E402
from crossrisk.evaluation import compute_risk_streams  # noqa: E402
from crossrisk.gpr import load_cluster_models  # noqa: E402
from crossrisk.maneuver import load_forest  # noqa: E402
from crossrisk.trajectory import Dataset, load_dataset  # noqa: E402


def one_frame_datasets(dataset: Dataset) -> list:
    """One dataset per distinct timestamp of ``dataset``'s valid rows, in time
    order: each object with a valid row at that timestamp as a one-row
    trajectory, in the dataset's object order."""
    frames: dict = {}
    for traj in dataset.trajectories:
        for i in np.flatnonzero(traj.valid).tolist():
            frames.setdefault(float(traj.t[i]), []).append(
                replace(traj, points=traj.points[i:i + 1]))
    return [Dataset(trajectories=trajs, frame_interval=dataset.frame_interval)
            for _, trajs in sorted(frames.items())]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--config", type=Path, required=True)
    parser.add_argument("--seed", type=int, default=None, help="override config seeds")
    args = parser.parse_args()

    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = cfg.with_seed(args.seed)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        common = ["--config", str(args.config)]
        common += ["--seed", str(args.seed)] if args.seed is not None else []
        for stage in (["synth", "--out", work / "scene"],
                      ["preprocess", "--in", work / "scene" / "dataset.csv",
                       "--out", work / "prep"],
                      ["train", "--in", work / "prep" / "labeled.csv",
                       "--out", work / "models"]):
            with contextlib.redirect_stdout(io.StringIO()):
                if cli_main([*map(str, stage), *common]) != 0:
                    return 1
        dataset = load_dataset(work / "prep" / "labeled.csv", cfg.data)
        models = load_cluster_models(work / "models" / "gpr_models.json")
        forest = load_forest(work / "models" / "forest.json")

    latency, pairs = [], []
    for frame in one_frame_datasets(dataset):
        start = time.perf_counter()
        streams = compute_risk_streams(frame, models, forest, cfg.risk, cfg.ssm.ttc_radius)
        latency.append(time.perf_counter() - start)
        pairs.append(len(streams))
    latency, pairs = np.array(latency), np.array(pairs)
    busy = latency[pairs > 0] * 1e3
    if not len(busy):
        print("no frame scores a pair", file=sys.stderr)
        return 1
    result = {
        "frames": len(latency),
        "busy_frames": len(busy),
        "p50_ms": float(np.percentile(busy, 50)),
        "p99_ms": float(np.percentile(busy, 99)),
        "max_ms": float(busy.max()),
        "pairs_per_busy_frame_mean": float(pairs[pairs > 0].mean()),
        "pairs_per_busy_frame_max": int(pairs.max()),
        "frame_interval_ms": dataset.frame_interval * 1e3,
        "share_over_interval": float(np.mean(latency > dataset.frame_interval)),
    }
    print(f"{result['busy_frames']} of {result['frames']} frames score at least one pair "
          f"(mean {result['pairs_per_busy_frame_mean']:.2f}, "
          f"max {result['pairs_per_busy_frame_max']} pairs)")
    print(f"latency per busy frame: p50 {result['p50_ms']:.2f} ms, "
          f"p99 {result['p99_ms']:.2f} ms, max {result['max_ms']:.2f} ms")
    print(f"frames over the {result['frame_interval_ms']:g} ms frame interval: "
          f"{result['share_over_interval']:.4f}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
