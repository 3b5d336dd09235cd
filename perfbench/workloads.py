"""Benchmark workloads: a frozen run config per workload plus the scene
built from it with ``crossrisk.synth`` and the workload seed.

The base config mirrors ``configs/example.json`` as it stood when the
benchmark was defined; it is embedded here so that later edits to the
example config do not silently change what the benchmark measures.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass
from pathlib import Path

from crossrisk import synth, trajectory
from crossrisk.trajectory import Dataset, ObjectClass, Trajectory

BASE_CONFIG = {
    "data": {"yaw_rate_unit": "rad_s", "frame_interval": 0.1},
    "preprocess": {
        "cell_size": 0.5,
        "merge": {"max_time_gap": 0.2, "max_distance_gap": 1.0,
                  "max_heading_diff": 90.0, "max_traj_angle_diff": 120.0},
        "geometry": {"mode": "estimate"},
    },
    "gpr": {"kernel": "rq", "learning_rate": 0.1, "iterations": 100,
            "max_points": 400, "seed": 0},
    "forest": {"n_trees_grid": [100], "max_depth_grid": [None, 10],
               "n_splits": 10, "smote_k": 5, "seed": 0},
    "risk": {"conflict_radius": 1.0, "horizon_steps": 30, "rollout_mode": "mean",
             "frame_stride": 2},
    "train": {},
    "ssm": {"pet_threshold": 3.0, "zone_radius": 1.0, "ttc_radius": 1.0},
    "synth": {"seed": 11, "n_vehicles_per_cell": 4, "n_pedestrians_per_crosswalk": 2,
              "n_engineered_conflicts": 16, "requested_pet_range": [0.8, 2.2],
              "noise_std_position": 0.05, "noise_std_velocity": 0.05,
              "min_separation": 6.5},
}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    overrides: dict  # section -> {key: value}, applied over BASE_CONFIG
    fragments: int = 1  # contiguous pieces each pedestrian track is cut into

    def config(self) -> dict:
        cfg = copy.deepcopy(BASE_CONFIG)
        for section, values in self.overrides.items():
            cfg[section].update(values)
        return cfg


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="fit",
            why="example scene with a cut-down forest grid and Adam budget, so the "
                "forest protocol and the GP fit share the train stage",
            overrides={
                "forest": {"n_trees_grid": [4], "n_splits": 1},
                "gpr": {"iterations": 3},
                "risk": {"frame_stride": 30},
            },
        ),
        Workload(
            name="risk_crowded",
            why="dense pedestrian traffic scored at stride 10, so rollout and "
                "per-row forest predict repeat for every pedestrian beside a vehicle",
            overrides={
                "synth": {"n_vehicles_per_cell": 2, "n_pedestrians_per_crosswalk": 12,
                          "n_engineered_conflicts": 2},
                "forest": {"n_trees_grid": [3], "n_splits": 1},
                "gpr": {"iterations": 3},
                "train": {"starting_points": [10], "horizons": [10]},
                "risk": {"frame_stride": 10},
            },
        ),
        Workload(
            name="ingest_fragmented",
            why="many vehicles and pedestrian tracks cut into 8 fragments each, so "
                "CSV load, fragment merging and PET pairing do the most work",
            overrides={
                "synth": {"n_vehicles_per_cell": 6, "n_pedestrians_per_crosswalk": 8,
                          "n_engineered_conflicts": 8},
                "forest": {"n_trees_grid": [2], "n_splits": 1},
                "gpr": {"iterations": 2},
                "train": {"starting_points": [10], "horizons": [10]},
                "risk": {"frame_stride": 30},
            },
            fragments=8,
        ),
    )
}


@dataclass
class Scene:
    """A generated workload input, written to ``input_csv``."""

    input_csv: Path
    config_json: Path
    conflicts: list  # engineered (vehicle id, pedestrian id) pairs
    vehicles: int
    pedestrians: int
    fragments: int
    input_rows: int


def fragment_pedestrians(dataset: Dataset, pieces: int) -> Dataset:
    """Cut every pedestrian track into ``pieces`` contiguous fragments.

    Consecutive fragments are one frame interval apart, inside the merge
    criteria. The first fragment keeps the track id, so a correct merge
    restores the original ids.
    """
    if pieces <= 1:
        return dataset
    out = []
    for traj in dataset.trajectories:
        if traj.object_class != ObjectClass.PEDESTRIAN:
            out.append(traj)
            continue
        n = len(traj.points)
        if n < 2 * pieces:
            raise ValueError(f"pedestrian {traj.id} has {n} points; too short for "
                             f"{pieces} fragments")
        bounds = [round(i * n / pieces) for i in range(pieces + 1)]
        for j in range(pieces):
            frag_id = traj.id if j == 0 else f"{traj.id}.f{j}"
            out.append(Trajectory(id=frag_id, object_class=traj.object_class,
                                  points=traj.points[bounds[j]:bounds[j + 1]]))
    return Dataset(trajectories=out, frame_interval=dataset.frame_interval)


def build_scene(workload: Workload, seed: int, work_dir: Path) -> Scene:
    """Config, scene and input CSV for one workload seed.

    Raises ``crossrisk.errors.InputError`` when synth cannot schedule the
    scene at the workload's size.
    """
    cfg = workload.config()
    cfg["synth"]["seed"] = seed
    work_dir.mkdir(parents=True, exist_ok=True)
    config_json = work_dir / "config.json"
    config_json.write_text(json.dumps(cfg, indent=1, sort_keys=True))

    s = cfg["synth"]
    spec = synth.ScenarioSpec(
        seed=seed,
        n_vehicles_per_cell=s["n_vehicles_per_cell"],
        n_pedestrians_per_crosswalk=s["n_pedestrians_per_crosswalk"],
        n_engineered_conflicts=s["n_engineered_conflicts"],
        requested_pet_range=tuple(s["requested_pet_range"]),
        noise_std_position=s["noise_std_position"],
        noise_std_velocity=s["noise_std_velocity"],
        frame_interval=cfg["data"]["frame_interval"],
        min_separation=s["min_separation"],
    )
    dataset, truth = synth.generate_scenario(spec)
    pedestrians = len(dataset.pedestrians)
    dataset = fragment_pedestrians(dataset, workload.fragments)
    input_csv = work_dir / "input.csv"
    trajectory.save_dataset(dataset, input_csv, include_labels=False)
    return Scene(
        input_csv=input_csv,
        config_json=config_json,
        conflicts=[c.pair for c in truth.conflicts],
        vehicles=len(dataset.vehicles),
        pedestrians=pedestrians,
        fragments=len(dataset.pedestrians),
        input_rows=sum(len(t.points) for t in dataset.trajectories),
    )
