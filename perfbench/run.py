#!/usr/bin/env python3
"""Benchmark of the crossrisk pipeline: preprocess -> train -> risk.

Run from the repository root:

    python3 perfbench/run.py --workload fit --seed 1 --seconds 30 --trace 0

One process, single-threaded BLAS, one client running the stages in
sequence (a closed loop). The scene is generated from ``--seed`` with
``crossrisk.synth``; the stages run in process through
``crossrisk.cli.main`` for ``--seconds`` seconds, and every execution's
outputs are checked. ``--trace 0`` reports the end-to-end metrics (medians
over stage executions, in seconds scaled to a reference host speed by
``clock.py``); ``--trace 1`` alternates traced and untraced
pipeline passes and reports the per-layer metrics. The last line of
standard output is one JSON object with the result.

``--record-reference SEED...`` instead runs each seed once and stores its
report summaries in ``perfbench/reference/<workload>.json`` for the
reference check.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

# Pin BLAS/OpenMP to one thread for this process only, before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

from clock import HostClock  # noqa: E402  (loads numpy)

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
REFERENCES = HERE / "reference"  # <workload>.json: seed -> report summaries
SETUPS = 3  # scene builds per untraced run; setup_s takes their median
MIN_PASSES = 2  # passes after the first per untraced run, whatever --seconds says
STAGE_MIN_S = 0.75  # a pass repeats a shorter stage until it has about this much
MIN_TRACE_REPEATS = 2  # one traced and one untraced pass at least
OUT_DIRS = {"preprocess": "prep", "train": "models", "risk": "risk"}  # stage -> outputs
STAGES = tuple(OUT_DIRS)

E2E_UNITS = {
    "setup_s": "s", "preprocess_s": "s", "train_s": "s", "risk_s": "s",
    "pipeline_s": "s", "risk_rows_per_s": "rows/s", "peak_rss_mb": "MB",
}


def _stage_argv(scene, work: Path) -> dict:
    cfg, prep, models = str(scene.config_json), work / "prep", work / "models"
    return {
        "preprocess": ["preprocess", "--config", cfg, "--in", str(scene.input_csv),
                       "--out", str(prep)],
        "train": ["train", "--config", cfg, "--in", str(prep / "labeled.csv"),
                  "--out", str(models)],
        "risk": ["risk", "--config", cfg, "--in", str(prep / "labeled.csv"),
                 "--models", str(models), "--out", str(work / "risk")],
    }


def run_stage(cli, clock, stage: str, argv: list, work: Path) -> tuple[float, str | None]:
    """Reference seconds of one stage on a clean output directory, and its
    error (``None`` when it exited 0)."""
    shutil.rmtree(work / OUT_DIRS[stage], ignore_errors=True)
    captured = io.StringIO()

    def call():
        try:
            with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
                return cli.main(argv)
        except Exception:  # a program bug: report it and score the stage failed
            captured.write(traceback.format_exc())
            return "exception"

    code, seconds = clock.timed(call)
    if code == 0:
        return seconds, None
    return seconds, f"{stage} exited {code}: {captured.getvalue()[-2000:]}"


def run_pipeline(cli, clock, scene, work: Path, checks) -> dict | None:
    """Reference seconds per stage of one preprocess -> train -> risk pass, or
    ``None`` when a stage failed (the stages after it are not run and count
    as failed)."""
    times = {}
    for stage, argv in _stage_argv(scene, work).items():
        seconds, error = run_stage(cli, clock, stage, argv, work)
        checks.record(error is None, error)
        if error is not None:
            for _ in range(len(STAGES) - len(times) - 1):
                checks.record(False, "not run after a failed stage")
            return None
        times[stage] = seconds
    return times


class Checks:
    """Counts attempts and failures; a failure is printed to stderr."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)


def check_outputs(checks: Checks, chk, workload, scene, work: Path, reference) -> None:
    """Checks the outputs of the first whole pipeline pass."""
    found = chk.conflict_pairs(work / "risk" / "conflict_events.csv")
    missing = sorted(set(scene.conflicts) - found)
    checks.record(not missing, f"engineered conflicts missing from "
                               f"conflict_events.csv: {missing}")
    if workload.fragments > 1:
        merged = chk.merged_pedestrians(work / "prep" / "preprocess_report.txt")
        checks.record(merged == scene.pedestrians,
                      f"{merged} pedestrians after merging, {scene.pedestrians} generated")
    checks.record((work / "risk" / "detection_report.txt").is_file(),
                  "risk wrote no detection_report.txt")
    if reference is not None:
        problems = [f"{out}/{p}" for out in OUT_DIRS.values()
                    for p in chk.compare_to_reference(chk.report_summaries(work / out),
                                                      reference.get(out, {}))]
        checks.record(not problems, f"outputs disagree with the reference: {problems}")


def sample_stages(args, cli, clock, chk, scene, work: Path, checks, first_pass: dict,
                  start: float) -> dict | None:
    """Stage samples, starting from the first whole pass. Each further pass
    runs every stage in pipeline order, a stage shorter than ``STAGE_MIN_S``
    several times in a row, so every stage is sampled across the whole run.
    Passes go on while another as long as the last fits in ``--seconds``,
    counting from ``start``, and until ``MIN_PASSES`` ran. Every execution's
    outputs must match the first pass; ``None`` if a stage failed."""
    argv = _stage_argv(scene, work)
    repeats = {s: max(1, round(STAGE_MIN_S / first_pass[s])) for s in STAGES}
    samples = {stage: [first_pass[stage]] for stage in STAGES}
    first = {stage: chk.digests(work / OUT_DIRS[stage]) for stage in STAGES}
    passes = 0
    while True:
        passes += 1
        pass_start = time.perf_counter()
        for stage in STAGES:
            for _ in range(repeats[stage]):
                seconds, error = run_stage(cli, clock, stage, argv[stage], work)
                checks.record(error is None, error)
                if error is not None:
                    return None
                samples[stage].append(seconds)
                digest = chk.digests(work / OUT_DIRS[stage])
                changed = sorted(k for k in set(digest) | set(first[stage])
                                 if digest.get(k) != first[stage].get(k))
                checks.record(not changed,
                              f"{stage} outputs differ from the first pass: {changed}")
        now = time.perf_counter()
        if passes >= MIN_PASSES and now - start + (now - pass_start) > args.seconds:
            return samples


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1m": os.getloadavg()[0],
    }


def _median(values):
    return statistics.median(values) if values else None


def build_scenes(args, workload, wl, clock, chk, work: Path, checks, tracer=None):
    """Builds the scene ``SETUPS`` times (once, traced, with a tracer) and
    returns the last scene and the build times; every build must give the
    same input CSV."""
    from tracer import SETUP

    times, digests = [], set()
    for _ in range(1 if tracer else SETUPS):
        if tracer:
            tracer.run_id = SETUP
            tracer.install()
        try:
            scene, seconds = clock.timed(wl.build_scene, workload, args.seed, work / "scene")
        finally:
            if tracer:
                tracer.uninstall()
        times.append(seconds)
        digests.add(chk.digests(work / "scene")["input.csv"])
    if len(times) > 1:
        checks.record(len(digests) == 1, "scene differs between builds")
    return scene, times


def scene_stats(chk, scene, work: Path) -> dict:
    stats = {"vehicles": scene.vehicles, "pedestrians": scene.pedestrians,
             "fragments": scene.fragments, "input_rows": scene.input_rows}
    risk_csv = work / "risk" / "risk_series.csv"
    if risk_csv.is_file():
        rows, frames = chk.risk_rows(risk_csv)
        stats.update(risk_rows=rows, risk_vehicle_frames=frames,
                     rows_per_vehicle_frame=rows / frames if frames else 0.0)
    return stats


def measure(args, workload, cli, wl, clock, chk, work: Path, checks) -> tuple[dict, dict]:
    """End-to-end metrics of one untraced run."""
    imports_s = clock.scale(time.perf_counter() - _T0, clock.calibrate())
    scene, setup_times = build_scenes(args, workload, wl, clock, chk, work, checks)
    start = time.perf_counter()
    first_pass = run_pipeline(cli, clock, scene, work, checks)
    stats = scene_stats(chk, scene, work)
    if first_pass is None:
        return {}, stats
    check_outputs(checks, chk, workload, scene, work,
                  chk.load_reference(REFERENCES / f"{workload.name}.json", args.seed))
    samples = sample_stages(args, cli, clock, chk, scene, work, checks, first_pass, start)
    if samples is None:
        return {}, stats
    med = {stage: _median(v) for stage, v in samples.items()}
    stats.update(sample_s=samples, setup_times=setup_times,
                 host_factor=clock.host_factor(),
                 detection_auc=chk.detection_auc(work / "risk" / "detection_report.txt"))
    values = {
        "setup_s": imports_s + _median(setup_times),
        "preprocess_s": med["preprocess"],
        "train_s": med["train"],
        "risk_s": med["risk"],
        "pipeline_s": sum(med.values()),
        "risk_rows_per_s": stats["risk_rows"] / med["risk"],
        "peak_rss_mb": _peak_rss_mb(),
    }
    return {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}, stats


def measure_traced(args, workload, cli, wl, clock, chk, work: Path,
                   checks) -> tuple[dict, dict]:
    """Per-layer metrics: whole pipeline passes, alternately traced and not,
    until ``--seconds`` is spent."""
    from tracer import LAYER_METRICS, Tracer, layer_metrics

    tracer = Tracer()
    scene, _ = build_scenes(args, workload, wl, clock, chk, work, checks, tracer)
    traced, plain = [], []  # (run id, stage times)
    start = time.perf_counter()
    while True:
        done, elapsed = len(traced) + len(plain), time.perf_counter() - start
        if done >= MIN_TRACE_REPEATS and elapsed + elapsed / done > args.seconds:
            break
        run_id = f"run{done}"
        is_traced = len(traced) <= len(plain)
        if is_traced:
            tracer.run_id = run_id
            tracer.install()
        try:
            times = run_pipeline(cli, clock, scene, work, checks)
        finally:
            if is_traced:
                tracer.uninstall()
        if times is None:
            return {}, scene_stats(chk, scene, work)
        (traced if is_traced else plain).append((run_id, times))

    per_run = [layer_metrics(tracer, run_id) for run_id, _ in traced]
    metrics, absent = {}, []
    for name, (unit, _better, _span, _value) in LAYER_METRICS.items():
        values = [m[name] for m in per_run]
        if values[0] is None:
            absent.append(name)
            value = 0.0
        elif name.endswith("_rss_growth_mb"):
            value = values[0]  # only the first pass in a fresh process grows
        else:
            value = statistics.median(values)
        metrics[name] = {"value": value, "unit": unit}
    pipeline = lambda runs: statistics.median(sum(t.values()) for _, t in runs)
    overhead = pipeline(traced) / pipeline(plain) - 1.0
    metrics["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
    stats = scene_stats(chk, scene, work)
    stats.update(feature_rows=metrics["maneuver.feature_rows"]["value"],
                 co_present_pairs=metrics["ssm.pairs"]["value"], absent=absent,
                 count_errors=sorted(tracer.count_errors),
                 traced_stage_s={stage: statistics.median(t[stage] for _, t in traced)
                                 for stage in STAGES})
    tracer.dump(work.parent / f"trace-{workload.name}-{args.seed}.jsonl")
    return metrics, stats


def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def record_reference(args, workload, cli, wl, chk, work: Path) -> int:
    """Runs each seed once and stores its report summaries."""
    path = REFERENCES / f"{workload.name}.json"
    data = json.loads(path.read_text()) if path.exists() else {}
    for seed in args.reference_seeds:
        scene = wl.build_scene(workload, seed, work / "scene")
        if run_pipeline(cli, HostClock(), scene, work, Checks()) is None:
            return 1
        data[str(seed)] = {out: chk.report_summaries(work / out)
                           for out in OUT_DIRS.values()}
        print(f"recorded {workload.name} seed {seed}")
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(data, indent=0, sort_keys=True) + "\n")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", dest="reference_seeds", type=int,
                        nargs="+", metavar="SEED")
    args = parser.parse_args()

    if not (ROOT / "src" / "crossrisk" / "__init__.py").is_file():
        print(f"error: no crossrisk package under {ROOT / 'src'}; run from the "
              "repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from crossrisk import cli  # noqa: E402
    import checks as chk  # noqa: E402
    import workloads as wl  # noqa: E402

    if args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = wl.WORKLOADS[args.workload]
    work = ROOT / ".perfbench" / f"{workload.name}-{args.seed}-{os.getpid()}"
    env = environment()
    try:
        if args.reference_seeds:
            return record_reference(args, workload, cli, wl, chk, work)
        checks = Checks()
        run = measure_traced if args.trace else measure
        metrics, stats = run(args, workload, cli, wl, HostClock(), chk, work, checks)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {"correct": checks.failed == 0 and bool(metrics),
              "attempted": checks.attempted, "failed": checks.failed, "metrics": metrics}

    print("# env " + json.dumps(env, sort_keys=True))
    print("# scene " + json.dumps(stats, sort_keys=True))
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    if not args.trace:
        if "detection_auc" in stats:
            print(f"detection_auc = {stats['detection_auc']:.6g} 1")
        print(f"failure_rate = {result['failed'] / max(result['attempted'], 1):.6g} "
              f"fraction ({result['failed']} of {result['attempted']})")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
