#!/usr/bin/env python3
"""Record one checkout's benchmark results as ``BENCH_<label>.json``.

Runs ``perfbench/run.py --trace 0`` in the checkout for every workload and
seed, keeps the last JSON line of each run, and writes the median and
quartiles of every metric per workload. Each run has ``perfbench/run.py``'s
own default length. It also times the ``train`` stage on
``configs/example.json`` (median of 3 runs, with the worker count), which the
benchmark workloads, with their few trees, do not show, and once more with
the timing process bound to one CPU (as ``taskset -c`` binds it) under
``example_train_one_cpu``. Under ``example_processes`` it times ``synth``,
``preprocess`` and a mean-mode ``risk`` on ``configs/example.json`` as
separate processes, as a user runs them (median of 3 runs): the wall time and
the maximum resident set size of each, which the in-process benchmark cannot
show. ``--baseline OTHER_CHECKOUT`` times the same processes of another
checkout on the same inputs, run for run alternating with this one, under
``example_processes_baseline``.

    python scripts/bench_record.py --label pr11 [--checkout .] [--seeds 1 2 3] \
        [--baseline OTHER_CHECKOUT]
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
PROCESS_RUNS = 3

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

# Runs one crossrisk command as the only child of this process: prints its
# wall time and its maximum resident set size (RUSAGE_CHILDREN, in kB on
# Linux).
_PROCESS_TIMER = """
import json, resource, subprocess, sys, time
command = [sys.executable, "-c", "import sys; from crossrisk.cli import main; sys.exit(main())",
           *sys.argv[1:]]
start = time.perf_counter()
subprocess.run(command, check=True, stdout=subprocess.DEVNULL)
wall = time.perf_counter() - start
print(json.dumps([wall, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss]))
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


def example_train(checkout: Path, work: str, runs: int = TRAIN_RUNS,
                  one_cpu: bool = False) -> dict:
    """Train-stage times on ``configs/example.json``, which leave the scene,
    the labeled table and the models in ``work``; with ``one_cpu`` the timing
    process may run on the lowest CPU of this process's set only."""
    cpu = {min(os.sched_getaffinity(0))}
    bind = (lambda: os.sched_setaffinity(0, cpu)) if one_cpu else None
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", _TRAIN_TIMER, str(checkout / "configs" / "example.json"),
         work, str(runs)], env=env, capture_output=True, text=True, preexec_fn=bind)
    if proc.returncode != 0:
        raise SystemExit(f"example train failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"config": "configs/example.json", "median_s": statistics.median(result["runs_s"]),
            **result}


def example_processes(checkouts: list, work: str, runs: int = PROCESS_RUNS) -> list:
    """Wall time and maximum RSS of separate ``synth``, ``preprocess`` and
    mean-mode ``risk`` processes of each checkout on ``configs/example.json``,
    one record per checkout. Preprocess and risk read the scene, labeled table
    and models that ``example_train`` left in ``work``. Each run times every
    stage of every checkout in turn."""
    stages = {
        "synth": ["synth", "--out", f"{work}/processes/scene"],
        "preprocess": ["preprocess", "--in", f"{work}/scene/dataset.csv",
                       "--out", f"{work}/processes/prep"],
        "risk": ["risk", "--in", f"{work}/prep/labeled.csv", "--models", f"{work}/models",
                 "--out", f"{work}/processes/risk"],
    }
    times = [{stage: [] for stage in stages} for _ in checkouts]
    for _ in range(runs):
        for checkout, record in zip(checkouts, times):
            env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
            config = str(checkout / "configs" / "example.json")
            for stage, argv in stages.items():
                proc = subprocess.run(
                    [sys.executable, "-c", _PROCESS_TIMER, *argv, "--config", config],
                    env=env, capture_output=True, text=True)
                if proc.returncode != 0:
                    raise SystemExit(f"{stage} process failed:\n{proc.stderr}")
                record[stage].append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return [{"config": "configs/example.json", "rollout_mode": "mean",
             **{stage: {"median_s": statistics.median(wall for wall, _ in results),
                        "max_rss_mb": statistics.median(kb / 1024 for _, kb in results),
                        "runs_s": [wall for wall, _ in results]}
                for stage, results in record.items()}}
            for record in times]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--checkout", type=Path, default=ROOT)
    ap.add_argument("--seeds", nargs="+", type=int, default=[1, 2, 3])
    ap.add_argument("--baseline", type=Path, help="another checkout whose stage processes "
                    "are timed alongside this one's")
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
              "workloads": workloads}
    with tempfile.TemporaryDirectory() as work:
        record["example_train"] = example_train(checkout, work)
        checkouts = [checkout, *([args.baseline.resolve()] if args.baseline else [])]
        processes = example_processes(checkouts, work)
        record["example_processes"] = processes[0]
        if args.baseline:
            record["example_processes_baseline"] = processes[1]
    with tempfile.TemporaryDirectory() as work:
        record["example_train_one_cpu"] = example_train(checkout, work, runs=1, one_cpu=True)
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
