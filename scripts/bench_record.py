#!/usr/bin/env python3
"""Record one checkout's benchmark results as ``BENCH_<label>.json``.

Runs ``perfbench/run.py --trace 0`` in the checkout for every workload and
seed, keeps the last JSON line of each run, and writes the median and
quartiles of every metric per workload. Each run has ``perfbench/run.py``'s
own default length. It also times the ``train`` stage on
``configs/example.json`` (median of 3 runs, with the worker count), which the
benchmark workloads, with their few trees, do not show.

    python scripts/bench_record.py --label pr11 [--checkout .] [--seeds 1 2 3]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("fit", "risk_crowded", "ingest_fragmented")
TRAIN_RUNS = 3

# Runs in the checkout's own interpreter environment: builds the example scene
# once, then times the train stage.
_TRAIN_TIMER = """
import contextlib, io, json, sys, time
from crossrisk.cli import main
from crossrisk.parallel import usable_workers
config, work, runs = sys.argv[1], sys.argv[2], int(sys.argv[3])
quiet = contextlib.redirect_stdout(io.StringIO())
steps = [["synth", "--out", work + "/scene"],
         ["preprocess", "--in", work + "/scene/dataset.csv", "--out", work + "/prep"]]
for argv in steps:
    with quiet:
        assert main([*argv, "--config", config]) == 0, argv
times = []
for _ in range(runs):
    start = time.perf_counter()
    with quiet:
        assert main(["train", "--config", config, "--in", work + "/prep/labeled.csv",
                     "--out", work + "/models"]) == 0
    times.append(time.perf_counter() - start)
print(json.dumps({"runs_s": times, "workers": usable_workers()}))
"""


def summarize(values: list) -> dict:
    """Median and quartiles (inclusive method) of one metric's run values."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def bench_run(checkout: Path, workload: str, seed: int) -> dict:
    """The last JSON line of one ``perfbench/run.py`` run in ``checkout``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(lines[-1])


def example_train(checkout: Path) -> dict:
    with tempfile.TemporaryDirectory() as work:
        env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
        proc = subprocess.run(
            [sys.executable, "-c", _TRAIN_TIMER, str(checkout / "configs" / "example.json"),
             work, str(TRAIN_RUNS)], env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"example train failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"config": "configs/example.json", "median_s": statistics.median(result["runs_s"]),
            **result}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--checkout", type=Path, default=ROOT)
    ap.add_argument("--seeds", nargs="+", type=int, default=[1, 2, 3])
    args = ap.parse_args()
    checkout = args.checkout.resolve()

    workloads = {}
    for workload in WORKLOADS:
        results = [bench_run(checkout, workload, seed) for seed in args.seeds]
        units = {name: m["unit"] for r in results for name, m in r["metrics"].items()}
        workloads[workload] = {
            "runs": [{"seed": s, "correct": r["correct"], "attempted": r["attempted"],
                      "failed": r["failed"]} for s, r in zip(args.seeds, results)],
            "metrics": {name: {"unit": unit,
                               **summarize([r["metrics"][name]["value"] for r in results
                                            if name in r["metrics"]])}
                        for name, unit in units.items()},
        }
        print(f"{workload}: {len(results)} runs", file=sys.stderr)
    record = {"label": args.label, "seeds": args.seeds, "cpus": os.cpu_count(),
              "workloads": workloads, "example_train": example_train(checkout)}
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
