import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from helpers import row

from crossrisk import evaluation, parallel
from crossrisk.cli import main
from crossrisk.config import RunConfig, load_config
from crossrisk.errors import InputError
from crossrisk.gpr import GprModelPair, KernelConfig, build_gpr_model, save_cluster_models
from crossrisk.maneuver import save_forest, train_forest
from crossrisk.synth import canonical_endpoints
from crossrisk.trajectory import (
    Dataset,
    Direction,
    Maneuver,
    ObjectClass,
    Trajectory,
    save_dataset,
)


class TestConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.gpr.kernel == "rq"
        assert cfg.gpr.learning_rate == 0.1
        assert cfg.ssm.pet_threshold == 3.0
        assert cfg.risk.conflict_radius == 1.0
        assert cfg.preprocess.merge.max_time_gap == 0.2
        assert cfg.preprocess.merge.max_distance_gap == 1.0
        assert cfg.preprocess.merge.max_heading_diff == 90.0
        assert cfg.preprocess.merge.max_traj_angle_diff == 120.0
        assert cfg.preprocess.cell_size == 0.5
        assert cfg.forest.n_trees_grid == [100, 300]
        assert cfg.forest.max_depth_grid == [None, 10, 20]

    def test_unknown_top_level_key_named(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"tpyo": {}}))
        with pytest.raises(InputError, match="tpyo"):
            load_config(path)

    def test_unknown_nested_key_named(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"gpr": {"learning_rte": 0.1}}))
        with pytest.raises(InputError, match="learning_rte"):
            load_config(path)

    def test_removed_forest_key_named(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"forest": {"use_velocity_components": False}}))
        with pytest.raises(InputError, match="use_velocity_components"):
            load_config(path)

    def test_unknown_merge_key_named(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"preprocess": {"merge": {"max_gap": 1}}}))
        with pytest.raises(InputError, match="max_gap"):
            load_config(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{not json")
        with pytest.raises(InputError):
            load_config(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(InputError):
            load_config(tmp_path / "absent.json")

    def test_none_gives_defaults(self):
        assert load_config(None).gpr.iterations == 200

    def test_bad_kernel_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"gpr": {"kernel": "matern"}}))
        with pytest.raises(InputError):
            load_config(path)

    def test_zero_gpr_iterations_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"gpr": {"iterations": 0}}))
        with pytest.raises(InputError, match="iterations"):
            load_config(path)

    @pytest.mark.parametrize("jitter", [-1e-6, float("nan"), float("inf")])
    def test_bad_gpr_jitter_rejected(self, tmp_path, jitter):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"gpr": {"jitter": jitter}}))
        with pytest.raises(InputError, match="jitter"):
            load_config(path)

    def test_zero_gpr_jitter_allowed(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"gpr": {"jitter": 0.0}}))
        assert load_config(path).gpr.jitter == 0.0


def _pipeline_config(tmp_path, seed=3):
    cfg = {
        "synth": {"seed": seed, "n_vehicles_per_cell": 1,
                  "n_pedestrians_per_crosswalk": 1,
                  "n_engineered_conflicts": 1,
                  "noise_std_position": 0.03, "noise_std_velocity": 0.03},
        "gpr": {"iterations": 15, "max_points": 120},
        "forest": {"n_trees_grid": [15], "max_depth_grid": [10], "n_splits": 2},
        "risk": {"frame_stride": 4},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def _hash_tree(root: Path) -> dict:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


class TestCli:
    def test_full_pipeline_and_rerun_identical(self, tmp_path):
        cfg = _pipeline_config(tmp_path)

        def run(tag):
            base = tmp_path / tag
            assert main(["synth", "--config", str(cfg),
                         "--out", str(base / "scene")]) == 0
            assert main(["preprocess", "--config", str(cfg),
                         "--in", str(base / "scene" / "dataset.csv"),
                         "--out", str(base / "prep")]) == 0
            assert main(["train", "--config", str(cfg),
                         "--in", str(base / "prep" / "labeled.csv"),
                         "--out", str(base / "models")]) == 0
            assert main(["risk", "--config", str(cfg),
                         "--in", str(base / "prep" / "labeled.csv"),
                         "--models", str(base / "models"),
                         "--out", str(base / "risk")]) == 0
            return base

        a = run("a")
        b = run("b")
        assert _hash_tree(a) == _hash_tree(b)
        assert (a / "risk" / "risk_series.csv").exists()
        assert (a / "risk" / "detection_report.txt").exists()
        assert (a / "models" / "gpr_models.json").exists()
        assert (a / "models" / "forest.json").exists()
        assert (a / "prep" / "density_grid.csv").exists()

    def test_train_outputs_identical_on_one_and_two_workers(self, tmp_path, monkeypatch,
                                                            capsys):
        cfg = _pipeline_config(tmp_path)
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "scene")]) == 0
        assert main(["preprocess", "--config", str(cfg),
                     "--in", str(tmp_path / "scene" / "dataset.csv"),
                     "--out", str(tmp_path / "prep")]) == 0
        digests = {}
        for workers in (1, 2):
            monkeypatch.setattr(parallel, "worker_count", lambda: workers)
            capsys.readouterr()
            out = tmp_path / f"models{workers}"
            assert main(["train", "--config", str(cfg),
                         "--in", str(tmp_path / "prep" / "labeled.csv"),
                         "--out", str(out)]) == 0
            assert f"on {workers} worker process(es)" in capsys.readouterr().out
            digests[workers] = _hash_tree(out)
        assert sorted(digests[1]) == [
            "classifier_report.csv", "classifier_report.txt", "forest.json",
            "gpr_models.json", "prediction_by_horizon.csv", "prediction_by_start.csv"]
        assert digests[1] == digests[2]

    def test_seed_flag_changes_synth_output(self, tmp_path):
        cfg = _pipeline_config(tmp_path)
        assert main(["synth", "--config", str(cfg), "--out",
                     str(tmp_path / "s1"), "--seed", "5"]) == 0
        assert main(["synth", "--config", str(cfg), "--out",
                     str(tmp_path / "s2"), "--seed", "6"]) == 0
        h1 = hashlib.sha256((tmp_path / "s1" / "dataset.csv").read_bytes())
        h2 = hashlib.sha256((tmp_path / "s2" / "dataset.csv").read_bytes())
        assert h1.hexdigest() != h2.hexdigest()

    def test_missing_input_is_exit_code_one(self, tmp_path):
        cfg = _pipeline_config(tmp_path)
        code = main(["preprocess", "--config", str(cfg),
                     "--in", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "out")])
        assert code == 1

    def test_bad_config_is_exit_code_one(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"nonsense": 1}))
        code = main(["synth", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 1

    def test_explicit_geometry_mode(self, tmp_path):
        cfg_data = json.loads(_pipeline_config(tmp_path).read_text())
        cfg_data["synth"]["n_pedestrians_per_crosswalk"] = 0
        cfg_data["synth"]["n_engineered_conflicts"] = 0
        cfg_data["preprocess"] = {
            "geometry": {
                "mode": "explicit",
                "endpoints": {k: list(v) for k, v in canonical_endpoints().items()},
            }
        }
        cfg = tmp_path / "explicit.json"
        cfg.write_text(json.dumps(cfg_data))
        assert main(["synth", "--config", str(cfg),
                     "--out", str(tmp_path / "scene")]) == 0
        assert main(["preprocess", "--config", str(cfg),
                     "--in", str(tmp_path / "scene" / "dataset.csv"),
                     "--out", str(tmp_path / "prep")]) == 0
        report = (tmp_path / "prep" / "preprocess_report.txt").read_text()
        assert "vehicles labeled: 12" in report

    def test_truth_pair_skipped_by_stride_is_a_miss(self, tmp_path):
        labeled, models = _tiny_risk_inputs(tmp_path)
        cfg = tmp_path / "stride.json"
        cfg.write_text(json.dumps({"risk": {"frame_stride": 2}}))
        assert main(["risk", "--config", str(cfg), "--in", str(labeled),
                     "--models", str(models), "--out", str(tmp_path / "risk")]) == 0
        report = (tmp_path / "risk" / "detection_report.txt").read_text()
        assert "positives: 1  negatives: 0" in report  # tp + fn == 1
        assert "sensitivity (risk > 0): 0.0000" in report  # tp == 0, so fn == 1


def _tiny_risk_inputs(tmp_path):
    """``labeled.csv`` and a model directory for one vehicle and one
    pedestrian; the pedestrian shares only the vehicle's frame 3."""
    veh = Trajectory(
        id="v1", object_class=ObjectClass.VEHICLE,
        points=[row(0.1 * i, 0.1 * i, 0.0, 1.0, 0.0, 0.0) for i in range(4)],
        entering_direction=Direction.W, maneuver=Maneuver.STRAIGHT,
    )
    ped = Trajectory(id="p1", object_class=ObjectClass.PEDESTRIAN,
                     points=[row(0.1 * i, 0.3, 0.0, 0.0, 0.0) for i in range(3, 7)])
    save_dataset(Dataset(trajectories=[veh, ped]), tmp_path / "labeled.csv")
    rng = np.random.default_rng(0)
    x = rng.uniform(-2, 2, size=(10, 2))
    kernel = KernelConfig(kind="rbf", length_scale=2.0, noise_variance=1e-4)
    cell = (Direction.W, Maneuver.STRAIGHT)
    save_cluster_models({cell: GprModelPair(
        gp_x=build_gpr_model(x, np.ones(10), kernel),
        gp_y=build_gpr_model(x, np.zeros(10), kernel), cluster=cell,
    )}, tmp_path / "models" / "gpr_models.json")
    X = rng.normal(size=(30, 5))
    save_forest(train_forest(X, np.arange(30) % 3, n_trees=2, seed=0),
                tmp_path / "models" / "forest.json")
    return tmp_path / "labeled.csv", tmp_path / "models"


def _run_risk(tmp_path, labeled, models):
    return main(["risk", "--in", str(labeled), "--models", str(models),
                 "--out", str(tmp_path / "risk")])


def _straight_vehicles(path, n):
    """A labeled file of ``n`` straight-going vehicles, four frames each."""
    save_dataset(Dataset(trajectories=[
        Trajectory(id=f"v{k}", object_class=ObjectClass.VEHICLE,
                   points=[row(0.1 * i, 0.1 * i, float(k), 1.0, 0.0, 0.0) for i in range(4)],
                   entering_direction=Direction.W, maneuver=Maneuver.STRAIGHT)
        for k in range(n)
    ]), path)
    return path


def _edit_models(edit):
    def apply(path):
        payload = json.loads(path.read_text())
        edit(payload)
        path.write_text(json.dumps(payload))
    return apply


def _rename_cluster(new_key):
    def rename(payload):
        payload["clusters"][new_key] = payload["clusters"].pop("W:straight")
    return _edit_models(rename)


class TestExitCodes:
    """Bad input exits 1; any other exception is a bug and propagates."""

    @pytest.mark.parametrize("target,corrupt", [
        ("forest.json", lambda path: path.write_text('{"version": 2, "trees": [')),
        ("gpr_models.json", lambda path: path.write_text('{"version": 2, "clusters": {')),
        ("gpr_models.json", _edit_models(lambda p: p.pop("clusters"))),
        ("gpr_models.json", _edit_models(lambda p: p["clusters"]["W:straight"].pop("gp_x"))),
        ("gpr_models.json", _edit_models(lambda p: p["clusters"]["W:straight"].pop("gp_y"))),
        ("gpr_models.json", _rename_cluster("Wstraight")),
        ("gpr_models.json", _rename_cluster("Q:straight")),
        ("gpr_models.json", _rename_cluster("W:sideways")),
    ], ids=["forest-json", "models-json", "no-clusters", "no-gp_x", "no-gp_y",
            "key-without-colon", "unknown-direction", "unknown-maneuver"])
    def test_bad_model_file_is_exit_code_one(self, tmp_path, target, corrupt):
        labeled, models = _tiny_risk_inputs(tmp_path)
        corrupt(models / target)
        assert _run_risk(tmp_path, labeled, models) == 1

    @pytest.mark.parametrize("column,value", [("entering_direction", "Q"),
                                              ("maneuver", "sideways")])
    def test_unknown_dataset_label_is_exit_code_one(self, tmp_path, column, value):
        labeled, models = _tiny_risk_inputs(tmp_path)
        lines = labeled.read_text().splitlines()
        i = lines[0].split(",").index(column)
        cells = lines[1].split(",")
        cells[i] = value
        labeled.write_text("\n".join([lines[0], ",".join(cells)] + lines[2:]) + "\n")
        assert _run_risk(tmp_path, labeled, models) == 1

    @pytest.mark.parametrize("n_vehicles", [1, 10], ids=["empty-partition", "single-class"])
    def test_too_little_training_data_is_exit_code_one(self, tmp_path, n_vehicles, capsys):
        labeled = _straight_vehicles(tmp_path / "labeled.csv", n_vehicles)
        assert main(["train", "--in", str(labeled), "--out", str(tmp_path / "models")]) == 1
        reason = "empty partition" if n_vehicles == 1 else "single class"
        assert reason in capsys.readouterr().err

    @pytest.mark.parametrize("section", [
        {"synth": {"requested_pet_range": [2.5]}},
        {"forest": {"n_trees_grid": []}},
        {"forest": {"max_depth_grid": []}},
        {"forest": {"n_splits": 0}},
        {"data": 5},
        {"synth": {"seed": "x"}},
        {"data": {"frame_interval": "a"}},
        {"synth": {"n_vehicles_per_cell": 1.5}},
    ], ids=["one-value-pet-range", "empty-tree-grid", "empty-depth-grid", "no-splits",
            "non-object-section", "string-seed", "string-float", "float-int"])
    def test_malformed_config_value_is_exit_code_one(self, tmp_path, section):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(section))
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1

    def test_program_bug_propagates(self, tmp_path, monkeypatch):
        labeled, models = _tiny_risk_inputs(tmp_path)

        def broken(*args, **kwargs):
            raise ValueError("injected")

        monkeypatch.setattr(evaluation, "estimate_risk", broken)
        with pytest.raises(ValueError, match="injected"):
            _run_risk(tmp_path, labeled, models)
