#!/usr/bin/env python3
"""SHA-256 of the scene (``scene/input.csv``, ``scene/config.json``) and of every stage
output on the benchmark scenes of ``perfbench/workloads.py``, with preprocess, train
and risk run in process through ``crossrisk.cli.main``. The risk stage runs three
times: with the scene's mean rollouts into ``risk/``, with ``rollout_mode: sample``
into ``risk_sample/``, and with ``sample_seed: 7`` as well into
``risk_sample_seed7/``, so that the sample seed is hashed. The train stage runs again
with ``forest.n_splits: 3`` into ``models_splits3/``, so that the mean and spread over
splits are hashed too, and a third time with ``gpr.kernel: rbf`` into ``models_rbf/``,
so that the RBF branch of the GP loss is hashed. The preprocess stage runs again with
the strict ``preprocess.filter`` of ``STRICT_FILTER`` into ``prep_strict/``, so that
every filter rule removes pedestrians on every scene (the default filter removes
none). The risk stage runs a fourth time with the wider ground truth of ``ZONE_SSM``
into ``risk_zone/``, so that more pairs reach the encroachment-time search and more
of them become events. A fifth risk run with ``risk.frame_stride: 1`` into
``risk_stride1/`` scores every usable vehicle frame (the scenes score at stride 10
or 30).

Every ``gpr_models.json`` also gets a ``<path>#values`` key: the SHA-256 of the
values the ``--src`` tree's ``gpr.load_cluster_models`` reads from it, per cluster in
key order the ``train_x``, ``train_y`` and ``alpha_vec`` bytes and the ``repr`` of each
scalar and of ``loss_trace``. A change of the file's encoding alone then shows as
equal ``#values`` keys beside a differing file digest:

    python scripts/output_digests.py --src OTHER_CHECKOUT/src --out old.json
    python scripts/output_digests.py --out new.json [--workloads fit --seeds 1 2]
    python scripts/output_digests.py --compare old.json new.json  # differing files; exit 1 if any
"""
import argparse, contextlib, io, json, os, sys, tempfile  # noqa: E401
from hashlib import sha256
from pathlib import Path

# One BLAS thread in this process, so that digests do not depend on the host.
os.environ.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"), "1"))
ROOT = Path(__file__).resolve().parent.parent
STRICT_FILTER = {"min_region_fraction": 1.0, "max_offcrosswalk_fraction": 0.02,
                 "speed_limit": 1.45, "speed_run_length": 3}
ZONE_SSM = {"zone_radius": 2.5, "pet_threshold": 5.0}


def digests(workload: str, seed: int) -> dict:
    from crossrisk.cli import main
    from perfbench.workloads import WORKLOADS, build_scene
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp) / "run"  # hashed
        scene = build_scene(WORKLOADS[workload], seed, work / "scene")
        variants = {}  # config files outside the hashed tree
        for name, section, updates in (
                ("sample", "risk", {"rollout_mode": "sample"}),
                ("sample_seed7", "risk", {"rollout_mode": "sample", "sample_seed": 7}),
                ("splits3", "forest", {"n_splits": 3}),
                ("rbf", "gpr", {"kernel": "rbf"}),
                ("strict", "preprocess", {"filter": STRICT_FILTER}),
                ("zone", "ssm", ZONE_SSM),
                ("stride1", "risk", {"frame_stride": 1})):
            config = json.loads(scene.config_json.read_text())
            config[section].update(updates)
            variants[name] = Path(tmp) / f"{name}_config.json"
            variants[name].write_text(json.dumps(config))
        prep, models = work / "prep", work / "models"
        train = ["train", "--in", prep / "labeled.csv", "--out"]
        risk = ["risk", "--in", prep / "labeled.csv", "--models", models]
        for argv, config_json in (
                (["preprocess", "--in", scene.input_csv, "--out", prep], scene.config_json),
                (["preprocess", "--in", scene.input_csv, "--out", work / "prep_strict"],
                 variants["strict"]),
                ([*train, models], scene.config_json),
                ([*train, work / "models_splits3"], variants["splits3"]),
                ([*train, work / "models_rbf"], variants["rbf"]),
                ([*risk, "--out", work / "risk"], scene.config_json),
                ([*risk, "--out", work / "risk_sample"], variants["sample"]),
                ([*risk, "--out", work / "risk_sample_seed7"], variants["sample_seed7"]),
                ([*risk, "--out", work / "risk_zone"], variants["zone"]),
                ([*risk, "--out", work / "risk_stride1"], variants["stride1"])):
            with contextlib.redirect_stdout(io.StringIO()):
                if main([*map(str, argv), "--config", str(config_json)]) != 0:
                    raise SystemExit(f"{workload} seed {seed}: {argv[0]} failed")
        result = {f"{workload}/{seed}/{p.relative_to(work)}": sha256(p.read_bytes()).hexdigest()
                  for p in sorted(work.rglob("*")) if p.is_file()}
        result.update({f"{workload}/{seed}/{p.relative_to(work)}#values": model_values(p)
                       for p in sorted(work.rglob("gpr_models.json"))})
        return result


def model_values(path: Path) -> str:
    """SHA-256 of the cluster models loaded from the model file ``path``."""
    from crossrisk.gpr import cluster_key, load_cluster_models
    models = load_cluster_models(path)
    digest = sha256()
    for key, pair in sorted((cluster_key(*cell), pair) for cell, pair in models.items()):
        digest.update(key.encode() + pair.gp_x.train_x.tobytes())
        for gp in (pair.gp_x, pair.gp_y):
            k = gp.kernel
            scalars = (k.kind, k.length_scale, k.rq_alpha, k.noise_variance, gp.jitter_used,
                       gp.y_mean, gp.y_std)
            digest.update(gp.train_y.tobytes() + gp.alpha_vec.tobytes()
                          + repr((scalars, gp.loss_trace)).encode())
    return digest.hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", default=["fit", "risk_crowded", "ingest_fragmented"])
    ap.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    ap.add_argument("--src", type=Path, default=ROOT / "src")
    ap.add_argument("--out", type=Path)
    ap.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    args = ap.parse_args()
    if args.compare:
        a, b = (json.loads(p.read_text()) for p in args.compare)
        differ = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
        print("\n".join(differ) or f"all {len(a)} digests equal")
        return 1 if differ else 0
    if args.out is None:
        ap.error("--out is required without --compare")
    sys.path[:0] = [str(args.src.resolve()), str(ROOT)]
    result = {k: v for w in args.workloads for s in args.seeds for k, v in digests(w, s).items()}
    args.out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(f"{len(result)} digests -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
