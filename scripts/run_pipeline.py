#!/usr/bin/env python3
"""Run the whole chain on a synthetic scene: generate, preprocess, train,
score risk. Everything lands under one output directory.

    python scripts/run_pipeline.py --out runs/demo [--config configs/example.json] [--seed 7]
"""

import argparse
import sys
from pathlib import Path

# The checkout's package, so that the script runs without an install.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from crossrisk.cli import main as cli_main  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--config", type=Path, default=None)
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args()

    base = args.out
    common = ["--config", str(args.config)] if args.config else []
    seed = ["--seed", str(args.seed)] if args.seed is not None else []

    stages = [
        ["synth", *common, *seed, "--out", str(base / "scene")],
        ["preprocess", *common, "--in", str(base / "scene" / "dataset.csv"),
         "--out", str(base / "prep")],
        ["train", *common, "--in", str(base / "prep" / "labeled.csv"),
         "--out", str(base / "models")],
        ["risk", *common, "--in", str(base / "prep" / "labeled.csv"),
         "--models", str(base / "models"), "--out", str(base / "risk")],
    ]
    for stage in stages:
        print(f"==> crossrisk {' '.join(stage)}")
        code = cli_main(stage)
        if code != 0:
            return code
    print(f"done; reports under {base}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
