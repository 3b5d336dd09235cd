"""Byte identity of the stage outputs across code changes.

A small synthetic scene is generated, its pedestrian tracks are cut into
fragments and a few kinematic cells are blanked (in the CSV text, so the
scene does not depend on the in-memory data model), and the scene and the
preprocess outputs are hashed. The SHA-256 values below were recorded with
the per-frame-object implementation that the columnar trajectories replaced;
a change that alters any of these bytes must say why and re-record them.

The preprocessed scene is then trained on with a tiny forest grid and Adam
budget and scored by the risk stage twice, once with mean rollouts and once
with sampled ones. Those hashes were recorded with the per-frame risk
objects (one state, distribution and profile per pair and frame) that the
columnar risk streams replaced.
"""

import csv
import json
from hashlib import sha256

import pytest

from crossrisk.cli import main

CONFIG = {
    "preprocess": {"cell_size": 0.5},
    "synth": {"seed": 7, "n_vehicles_per_cell": 1, "n_pedestrians_per_crosswalk": 2,
              "n_engineered_conflicts": 3, "n_fast_pedestrians": 1,
              "noise_std_position": 0.05, "noise_std_velocity": 0.05},
}

RECORDED = {
    "scene/dataset.csv":
        "866c77a86c2cdfcedb49ba621fa3d4e2346daa2752d7758bc3805ade172ae771",
    "scene/ground_truth.json":
        "5897fcda57bfc6bf11228287eac4796812035f5c34d8309ff00dbf4e857146de",
    "prep/labeled.csv":
        "0230208fcbc1ea8d034e248452ed6f3555f2ad6b77dc53603ed82f02ebbf43c0",
    "prep/preprocess_report.txt":
        "160d5fff4c194cec25fcc2037658c1663b7867c448bf59821ede8a32bcb5c44d",
    "prep/density_grid.csv":
        "ddaff1ca8ec8bbfea22933df2462ea045912b645082bce0b95a68d443e3eb277",
}

TRAIN_CONFIG = {**CONFIG,
                "forest": {"n_trees_grid": [2], "max_depth_grid": [None], "n_splits": 1},
                "gpr": {"iterations": 2}}

RISK_FILES = ("risk_series.csv", "conflict_events.csv", "detection_report.txt", "roc.csv")

RECORDED_RISK = {
    "mean": {
        "risk_series.csv":
            "4570b2a6ec6f6720e8761bc0542e8d231e619a4540d97be66ea11458210f4f9e",
        "conflict_events.csv":
            "a3b0b30aeb2aa0e7b8634d97a2edbcaccf9bf8477c56d5b9e6152ecddfd4e544",
        "detection_report.txt":
            "3eda25f06ef311f3850662b8fc0cfc1ebada9e1325f0f84e4d02426a1094778f",
        "roc.csv":
            "85fa0f9914510c092847d71f75f43b0e30fd97185517eee2e20adea5adaa7418",
        "case_studies/pair_veh0001_ped0001.csv":
            "093f00f5c400e1f5423eed4e7dde6b94cfffae5ca3cd8055c455bc0470432378",
        "case_studies/pair_veh0002_ped0002.csv":
            "cfb1233f78a118a69f5145bf66682f63e6faa9975d189f1fd3bad75eb2d6cb98",
    },
    "sample": {
        "risk_series.csv":
            "880f7cf9c257aa47f607d6da07dd1137c5ede1771fd12e1feeba6ec813f14fd3",
        "conflict_events.csv":
            "a3b0b30aeb2aa0e7b8634d97a2edbcaccf9bf8477c56d5b9e6152ecddfd4e544",
        "detection_report.txt":
            "05cb6e830e2142281bacc0894e3383193fe6d56da553b068239dbc13b62afa50",
        "roc.csv":
            "3033a0e4a5a61dbf1fe91f3957db0759f3752b01ee945982eab9e35cd2739cc1",
        "case_studies/pair_veh0001_ped0001.csv":
            "7c7969670c0622c7557ef47e0f29793d3f8bc093cc91f106e398cbc6179bbe0d",
        "case_studies/pair_veh0002_ped0002.csv":
            "5fa3b512e34c32e4ea5cc99c09ed2c41c221b22c9370349724c3b4e99b91e8af",
    },
}


def _fragment_and_blank(src, dst, pieces=3):
    """Cut every pedestrian into ``pieces`` contiguous fragments one frame
    apart, blank x on every 13th pedestrian row and on every other row of the
    first pedestrian, and write NaN into vy on every 11th vehicle row."""
    with src.open(newline="") as fh:
        header, *rows = list(csv.reader(fh))
    col = {name: i for i, name in enumerate(header)}
    by_id = {}
    for r in rows:
        by_id.setdefault(r[col["id"]], []).append(r)
    peds = [i for i, rs in by_id.items() if rs[0][col["class"]] == "pedestrian"]
    out = []
    for traj_id, rs in by_id.items():
        for k, r in enumerate(rs):
            r = list(r)
            if traj_id in peds:
                j = k * pieces // len(rs)
                r[col["id"]] = traj_id if j == 0 else f"{traj_id}.f{j}"
                if k % 13 == 6 or (traj_id == peds[0] and k % 2 == 0):
                    r[col["x"]] = ""
            elif k % 11 == 5:
                r[col["vy"]] = "nan"
            out.append(r)
    with dst.open("w", newline="") as fh:
        csv.writer(fh).writerows([header] + out)


def _write_config(path, config):
    path.write_text(json.dumps(config))
    return str(path)


@pytest.fixture(scope="module")
def prepared(tmp_path_factory):
    """The synth and preprocess outputs, with the preprocess report."""
    work = tmp_path_factory.mktemp("golden")
    cfg = _write_config(work / "config.json", CONFIG)
    assert main(["synth", "--config", cfg, "--out", str(work / "scene")]) == 0
    _fragment_and_blank(work / "scene" / "dataset.csv", work / "input.csv")
    out = work / "prep"
    assert main(["preprocess", "--config", cfg, "--in", str(work / "input.csv"),
                 "--out", str(out)]) == 0
    return work, (out / "preprocess_report.txt").read_text()


@pytest.fixture(scope="module")
def trained(prepared):
    work, _ = prepared
    cfg = _write_config(work / "train_config.json", TRAIN_CONFIG)
    assert main(["train", "--config", cfg, "--in", str(work / "prep" / "labeled.csv"),
                 "--out", str(work / "models")]) == 0
    return work


def test_synth_and_preprocess_outputs_match_recorded_digests(prepared):
    work, report = prepared
    # the fragments, invalid cells and filter rules all come into play
    assert "pedestrian fragments merged: 0" not in report
    assert "invalid_points: 1" in report and "too_fast: 1" in report
    digests = {name: sha256((work / name).read_bytes()).hexdigest() for name in RECORDED}
    assert digests == RECORDED


@pytest.mark.parametrize("mode", ["mean", "sample"])
def test_risk_outputs_match_recorded_digests(trained, mode):
    work = trained
    cfg = _write_config(work / f"risk_{mode}.json",
                        {**TRAIN_CONFIG, "risk": {"rollout_mode": mode}})
    out = work / f"risk_{mode}"
    assert main(["risk", "--config", cfg, "--in", str(work / "prep" / "labeled.csv"),
                 "--models", str(work / "models"), "--out", str(out)]) == 0
    cases = sorted(p.name for p in (out / "case_studies").iterdir())
    assert cases  # the engineered conflicts reach the case studies
    names = list(RISK_FILES) + [f"case_studies/{name}" for name in cases]
    digests = {name: sha256((out / name).read_bytes()).hexdigest() for name in names}
    assert digests == RECORDED_RISK[mode]
