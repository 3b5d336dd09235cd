"""Byte identity of the synth and preprocess outputs across code changes.

A small synthetic scene is generated, its pedestrian tracks are cut into
fragments and a few kinematic cells are blanked (in the CSV text, so the
scene does not depend on the in-memory data model), and the scene and the
preprocess outputs are hashed. The SHA-256 values below were recorded with
the per-frame-object implementation that the columnar trajectories replaced;
a change that alters any of these bytes must say why and re-record them.
"""

import csv
import json
from hashlib import sha256

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


def test_synth_and_preprocess_outputs_match_recorded_digests(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(CONFIG))
    assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "scene")]) == 0
    _fragment_and_blank(tmp_path / "scene" / "dataset.csv", tmp_path / "input.csv")
    assert main(["preprocess", "--config", str(cfg), "--in", str(tmp_path / "input.csv"),
                 "--out", str(tmp_path / "prep")]) == 0
    report = capsys.readouterr().out
    # the fragments, invalid cells and filter rules all come into play
    assert "pedestrian fragments merged: 0" not in report
    assert "invalid_points: 1" in report and "too_fast: 1" in report
    digests = {name: sha256((tmp_path / name).read_bytes()).hexdigest() for name in RECORDED}
    assert digests == RECORDED
