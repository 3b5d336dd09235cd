import hashlib
import json
import math
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from helpers import edit_packed, row

from crossrisk import cli, evaluation, gpr, parallel
from crossrisk.cli import main
from crossrisk.config import RunConfig, load_config
from crossrisk.errors import InputError, NumericalError
from crossrisk.geometry import CROSSWALK_SEGMENTS, canonical_endpoints, canonical_search_regions
from crossrisk.gpr import (
    GprModelPair,
    KernelConfig,
    build_gpr_model,
    load_cluster_models,
    save_cluster_models,
)
from crossrisk.maneuver import load_forest, save_forest, train_forest
from crossrisk.trajectory import (
    Dataset,
    Direction,
    Maneuver,
    ObjectClass,
    Trajectory,
    load_dataset,
    save_dataset,
)

ROOT = Path(__file__).resolve().parent.parent


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
        assert cfg.forest.n_trees_grid == (100, 300)
        assert cfg.forest.max_depth_grid == (None, 10, 20)

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

    def test_synth_frame_interval_comes_from_data(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"data": {"frame_interval": 0.04}}))
        assert load_config(path).synth.frame_interval == 0.04
        path.write_text(json.dumps({"synth": {"frame_interval": 0.04}}))
        with pytest.raises(InputError, match="frame_interval"):
            load_config(path)

    def test_benchmark_configs_read_back_key_for_key(self, tmp_path, monkeypatch):
        # the example config and each benchmark workload's config, as the
        # benchmark writes them, parse into the stage settings unchanged
        monkeypatch.syspath_prepend(str(ROOT))
        from perfbench.workloads import WORKLOADS
        configs = {"example": json.loads((ROOT / "configs" / "example.json").read_text())}
        configs.update((name, w.config()) for name, w in WORKLOADS.items())
        for name, data in configs.items():
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(data))
            cfg = load_config(path)
            sections = {section: (data[section], getattr(cfg, section))
                        for section in ("data", "gpr", "forest", "synth")}
            prep = data["preprocess"]
            sections.update({"preprocess.merge": (prep["merge"], cfg.preprocess.merge),
                             "preprocess.geometry": (prep["geometry"], cfg.preprocess.geometry)})
            assert cfg.preprocess.cell_size == prep["cell_size"]
            for section, (values, parsed) in sections.items():
                for key, value in values.items():
                    want = tuple(value) if isinstance(value, list) else value
                    assert getattr(parsed, key) == want, (name, section, key)
            assert cfg.synth.frame_interval == data["data"]["frame_interval"]


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


@pytest.fixture(scope="module")
def default_scene(tmp_path_factory):
    """``dataset.csv`` of the default synthetic scene: 48 vehicles and 8
    pedestrians, two per crosswalk."""
    out = tmp_path_factory.mktemp("default_scene")
    assert main(["synth", "--out", str(out)]) == 0
    return out / "dataset.csv"


def _hash_tree(root: Path) -> dict:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


class TestCli:
    def test_pipeline_script_runs_from_a_checkout(self, tmp_path):
        # no installed package and no PYTHONPATH: the script finds the checkout's src/
        script = Path(__file__).resolve().parent.parent / "scripts" / "run_pipeline.py"
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        out = subprocess.run([sys.executable, str(script), "--help"], cwd=tmp_path, env=env,
                             capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert "--out" in out.stdout

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

    @staticmethod
    def _two_depth_scene(tmp_path) -> tuple[Path, Path]:
        """Config and labeled table whose forest grid has two depths, so the
        protocol splits choose among grid points and the final forest grows
        in the second map."""
        cfg = _pipeline_config(tmp_path)
        data = json.loads(cfg.read_text())
        data["forest"]["max_depth_grid"] = [None, 10]
        cfg.write_text(json.dumps(data))
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "scene")]) == 0
        assert main(["preprocess", "--config", str(cfg),
                     "--in", str(tmp_path / "scene" / "dataset.csv"),
                     "--out", str(tmp_path / "prep")]) == 0
        return cfg, tmp_path / "prep" / "labeled.csv"

    def test_train_outputs_identical_on_one_and_two_workers(self, tmp_path, monkeypatch,
                                                            capsys):
        cfg, labeled = self._two_depth_scene(tmp_path)
        digests = {}
        for workers in (1, 2):
            monkeypatch.setattr(parallel, "worker_count", lambda: workers)
            capsys.readouterr()
            out = tmp_path / f"models{workers}"
            assert main(["train", "--config", str(cfg), "--in", str(labeled),
                         "--out", str(out)]) == 0
            assert f"on {workers} worker process(es)" in capsys.readouterr().out
            digests[workers] = _hash_tree(out)
        assert sorted(digests[1]) == [
            "classifier_report.csv", "classifier_report.txt", "forest.json",
            "gpr_models.json", "prediction_by_horizon.csv", "prediction_by_start.csv"]
        assert digests[1] == digests[2]

    def test_train_outputs_identical_without_the_non_vehicle_rows(self, tmp_path):
        cfg, labeled = self._two_depth_scene(tmp_path)
        header, *rows = labeled.read_text().splitlines()
        column = header.split(",").index("class")
        vehicle_rows = [r for r in rows if r.split(",")[column] == "vehicle"]
        assert 0 < len(vehicle_rows) < len(rows)
        vehicles_only = tmp_path / "vehicles.csv"
        vehicles_only.write_text("\n".join([header, *vehicle_rows]) + "\n")
        digests = []
        for table in (labeled, vehicles_only):
            out = tmp_path / f"models_{table.stem}"
            assert main(["train", "--config", str(cfg), "--in", str(table),
                         "--out", str(out)]) == 0
            digests.append(_hash_tree(out))
        assert len(digests[0]) == 6 and digests[0] == digests[1]

    def test_train_forks_one_pool_of_workers(self, tmp_path, monkeypatch):
        cfg, labeled = self._two_depth_scene(tmp_path)
        monkeypatch.setattr(parallel, "worker_count", lambda: 2)
        forks, fork = [], os.fork

        def counted_fork():
            forks.append(os.getpid())
            return fork()

        monkeypatch.setattr(os, "fork", counted_fork)
        assert main(["train", "--config", str(cfg), "--in", str(labeled),
                     "--out", str(tmp_path / "models")]) == 0
        assert forks == [os.getpid()] * 2

    def test_gp_fit_failure_identical_on_one_and_two_workers(self, tmp_path, monkeypatch,
                                                             capsys):
        cfg, labeled = self._two_depth_scene(tmp_path)
        config = load_config(cfg)
        fits = gpr.cluster_fit_jobs(load_dataset(labeled, config.data), config.gpr)
        failing = list(fits)[1]  # second cluster; its y-velocity fit fails
        fit_cluster, adam = gpr.fit_cluster, gpr._adam_minimize

        def fit_or_fail(cluster, points, *args):
            if cluster != failing:
                return fit_cluster(cluster, points, *args)
            runs = []

            def adam_or_fail(*adam_args):  # the x fit runs, the y fit fails
                runs.append(cluster)
                if len(runs) == 2:
                    raise NumericalError(f"injected failure on {len(points)} points")
                return adam(*adam_args)

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(gpr, "_adam_minimize", adam_or_fail)
                return fit_cluster(cluster, points, *args)

        monkeypatch.setattr(gpr, "fit_cluster", fit_or_fail)  # before the workers fork
        errors = {}
        for workers in (1, 2):
            monkeypatch.setattr(parallel, "worker_count", lambda: workers)
            capsys.readouterr()
            assert main(["train", "--config", str(cfg), "--in", str(labeled),
                         "--out", str(tmp_path / f"models{workers}")]) == 2
            errors[workers] = capsys.readouterr().err
        assert "injected failure" in errors[1]
        assert errors[1] == errors[2]
        assert multiprocessing.active_children() == []

    def test_model_file_error_is_reported_before_the_forest_on_one_and_two_workers(
            self, tmp_path, monkeypatch, capsys):
        # the model file is the first job of the second map, so its error is
        # the one raised, as in the serial order, and no later output is written
        cfg, labeled = self._two_depth_scene(tmp_path)
        for workers in (1, 2):
            monkeypatch.setattr(parallel, "worker_count", lambda: workers)
            out = tmp_path / f"models{workers}"
            (out / "gpr_models.json").mkdir(parents=True)
            capsys.readouterr()
            assert main(["train", "--config", str(cfg), "--in", str(labeled),
                         "--out", str(out)]) == 1
            assert str(out / "gpr_models.json") in capsys.readouterr().err
            assert sorted(p.name for p in out.iterdir()) == [
                "classifier_report.csv", "classifier_report.txt", "gpr_models.json"]
        assert multiprocessing.active_children() == []

    def test_study_error_is_reported_and_no_forest_written_on_one_and_two_workers(
            self, tmp_path, monkeypatch, capsys):
        # the prediction study is the first job of the second map: its error
        # is the one reported, and forest.json, written after the map, is not
        cfg, labeled = self._two_depth_scene(tmp_path)

        def failing_study(*args):
            raise NumericalError("injected study failure")

        monkeypatch.setattr(cli, "prediction_error_study", failing_study)
        for workers in (1, 2):
            monkeypatch.setattr(parallel, "worker_count", lambda: workers)
            out = tmp_path / f"models{workers}"
            capsys.readouterr()
            assert main(["train", "--config", str(cfg), "--in", str(labeled),
                         "--out", str(out)]) == 2
            assert "injected study failure" in capsys.readouterr().err
            assert sorted(p.name for p in out.iterdir()) == [
                "classifier_report.csv", "classifier_report.txt", "gpr_models.json"]
            load_cluster_models(out / "gpr_models.json")  # complete, written before the map
        assert multiprocessing.active_children() == []

    def test_non_finite_gradient_is_exit_code_two(self, tmp_path, monkeypatch, capsys):
        cfg, labeled = self._two_depth_scene(tmp_path)
        neg_lml = gpr._neg_lml

        def nan_gradients(*args, **kwargs):
            return [(loss, None if grad is None else np.full_like(grad, np.nan), state)
                    for loss, grad, state in neg_lml(*args, **kwargs)]

        monkeypatch.setattr(gpr, "_neg_lml", nan_gradients)  # before the workers fork
        capsys.readouterr()
        assert main(["train", "--config", str(cfg), "--in", str(labeled),
                     "--out", str(tmp_path / "models")]) == 2
        assert "non-finite gradient at iteration 1" in capsys.readouterr().err

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

    def test_explicit_geometry_polygons(self, tmp_path, default_scene):
        # the canonical roadway box and crosswalk bands as polygons keep all
        # eight pedestrians; with only the N band, the other crosswalks'
        # pedestrians walk on the roadway polygon off every crosswalk
        endpoints = canonical_endpoints()
        bands = {}
        for approach, keys in CROSSWALK_SEGMENTS.items():
            (x1, y1), (x2, y2) = (endpoints[k] for k in keys)
            lo_x, hi_x = min(x1, x2) - 2, max(x1, x2) + 2
            lo_y, hi_y = min(y1, y2) - 2, max(y1, y2) + 2
            bands[approach.value] = [[lo_x, lo_y], [hi_x, lo_y], [hi_x, hi_y], [lo_x, hi_y]]
        geometry = {"mode": "explicit",
                    "endpoints": {k: list(v) for k, v in endpoints.items()},
                    "roadway_polygon": [[-12, -12], [12, -12], [12, 12], [-12, 12]]}
        for name, polygons, retained in (("all", bands, 8), ("north", {"N": bands["N"]}, 2)):
            cfg = tmp_path / f"{name}.json"
            cfg.write_text(json.dumps({"preprocess": {"geometry": {
                **geometry, "crosswalk_polygons": polygons}}}))
            assert main(["preprocess", "--config", str(cfg), "--in", str(default_scene),
                         "--out", str(tmp_path / name)]) == 0
            report = (tmp_path / name / "preprocess_report.txt").read_text()
            assert f"pedestrians retained: {retained}\n" in report
            assert not (tmp_path / name / "density_grid.csv").exists()

    def test_renamed_headers_and_degree_yaw_rates(self, tmp_path, default_scene):
        # the scene with three headers renamed and yaw rates in degrees,
        # read through data.schema and yaw_rate_unit, preprocesses as the
        # scene itself does
        lines = default_scene.read_text().splitlines()
        header = lines[0].split(",")
        assert header == ["t", "id", "class", "x", "y", "vx", "vy", "yaw_rate"]
        rows = [line.split(",") for line in lines[1:]]
        for cells in rows:
            cells[7] = repr(float(cells[7]) * 180.0 / math.pi)
        renamed = tmp_path / "renamed.csv"
        renamed.write_text("\n".join(",".join(cells) for cells in
                                     [["time", "track", *header[2:7], "yr"], *rows]) + "\n")
        cfg = tmp_path / "schema.json"
        cfg.write_text(json.dumps({"data": {"schema": {"t": "time", "id": "track",
                                                       "yaw_rate": "yr"},
                                            "yaw_rate_unit": "deg_s"}}))
        assert main(["preprocess", "--in", str(default_scene),
                     "--out", str(tmp_path / "plain")]) == 0
        assert main(["preprocess", "--config", str(cfg), "--in", str(renamed),
                     "--out", str(tmp_path / "mapped")]) == 0
        plain, mapped = (tmp_path / tag for tag in ("plain", "mapped"))
        for name in ("preprocess_report.txt", "density_grid.csv"):
            assert (plain / name).read_bytes() == (mapped / name).read_bytes()
        want, got = ([line.split(",") for line in (out / "labeled.csv").read_text().splitlines()]
                     for out in (plain, mapped))
        assert len(want) == len(got) > 1 and want[0] == got[0]
        for w, g in zip(want[1:], got[1:]):
            assert w[:7] == g[:7] and w[8:] == g[8:]
            assert float(g[7]) == pytest.approx(float(w[7]), rel=1e-12, nan_ok=True)

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


#: Config values out of their ranges, each with the key its error names.
_OUT_OF_RANGE = [
    ({"risk": {"conflict_radius": -1}}, "risk.conflict_radius"),
    ({"risk": {"conflict_radius": float("nan")}}, "risk.conflict_radius"),
    ({"risk": {"horizon_steps": 0}}, "risk.horizon_steps"),
    ({"ssm": {"pet_threshold": float("nan")}}, "ssm.pet_threshold"),
    ({"ssm": {"pet_threshold": -5}}, "ssm.pet_threshold"),
    ({"ssm": {"zone_radius": -1}}, "ssm.zone_radius"),
    ({"ssm": {"ttc_radius": float("nan")}}, "ssm.ttc_radius"),
    ({"ssm": {"ttc_radius": 0}}, "ssm.ttc_radius"),
    ({"preprocess": {"cell_size": float("nan")}}, "preprocess.cell_size"),
    ({"preprocess": {"cell_size": 0}}, "preprocess.cell_size"),
    ({"preprocess": {"filter": {"speed_run_length": 0}}}, "filter.speed_run_length"),
    ({"preprocess": {"filter": {"speed_limit": 0}}}, "filter.speed_limit"),
    ({"preprocess": {"filter": {"speed_limit": float("inf")}}}, "filter.speed_limit"),
    ({"preprocess": {"filter": {"min_duration": float("nan")}}}, "filter.min_duration"),
    ({"preprocess": {"filter": {"min_path_length": -1}}}, "filter.min_path_length"),
    ({"preprocess": {"filter": {"max_invalid_fraction": 1.5}}},
     "filter.max_invalid_fraction"),
    ({"preprocess": {"filter": {"min_region_fraction": -0.1}}}, "filter.min_region_fraction"),
    ({"preprocess": {"filter": {"max_offcrosswalk_fraction": float("nan")}}},
     "filter.max_offcrosswalk_fraction"),
]
_OUT_OF_RANGE_IDS = [
    "negative-conflict-radius", "nan-conflict-radius", "zero-risk-horizon", "nan-pet-threshold",
    "negative-pet-threshold", "negative-zone-radius", "nan-ttc-radius", "zero-ttc-radius",
    "nan-cell-size", "zero-cell-size", "zero-speed-run", "zero-speed-limit",
    "infinite-speed-limit", "nan-min-duration", "negative-min-path-length",
    "invalid-fraction-above-one", "negative-region-fraction", "nan-offcrosswalk-fraction",
]


class TestExitCodes:
    """Bad input exits 1; any other exception is a bug and propagates."""

    @pytest.mark.parametrize("target,corrupt", [
        ("forest.json", lambda path: path.write_text('{"version": 2, "trees": [')),
        ("forest.json", _edit_models(lambda p: p["trees"][0]["counts"][0].append(1))),
        ("gpr_models.json", lambda path: path.write_text('{"version": 2, "clusters": {')),
        ("gpr_models.json", _edit_models(lambda p: p.pop("clusters"))),
        ("gpr_models.json", _edit_models(lambda p: p["clusters"]["W:straight"].pop("gp_x"))),
        ("gpr_models.json", _edit_models(lambda p: p["clusters"]["W:straight"].pop("gp_y"))),
        ("gpr_models.json", _rename_cluster("Wstraight")),
        ("gpr_models.json", _rename_cluster("Q:straight")),
        ("gpr_models.json", _rename_cluster("W:sideways")),
        ("gpr_models.json", _edit_models(lambda p: edit_packed(
            p["clusters"]["W:straight"],
            lambda a: a.update({"gp_x.alpha_vec": a["gp_x.alpha_vec"][:-1]})))),
        ("gpr_models.json", _edit_models(lambda p: edit_packed(
            p["clusters"]["W:straight"],
            lambda a: a["gp_y.alpha_vec"].__setitem__(0, float("nan"))))),
        *(("gpr_models.json", _edit_models(
            lambda p, v=value: p["clusters"]["W:straight"]["gp_x"].__setitem__("loss_trace", v)))
          for value in (5, None, "abc")),
    ], ids=["forest-json", "forest-counts-too-wide", "models-json", "no-clusters", "no-gp_x", "no-gp_y",
            "key-without-colon", "unknown-direction", "unknown-maneuver",
            "short-alpha-vec", "nan-alpha-vec", "number-loss-trace", "null-loss-trace",
            "string-loss-trace"])
    def test_bad_model_file_is_exit_code_one(self, tmp_path, capsys, target, corrupt):
        labeled, models = _tiny_risk_inputs(tmp_path)
        corrupt(models / target)
        assert _run_risk(tmp_path, labeled, models) == 1
        assert str(models / target) in capsys.readouterr().err

    @pytest.mark.parametrize("corrupt", [
        lambda text: text.encode().replace(b"v1", b"v\xff", 1),
        lambda text: (text + '"' + "x" * 131073 + '"\n').encode(),
        lambda text: (text + "x" * 131073 + "\n").encode(),
    ], ids=["undecodable-byte", "oversized-field", "oversized-unquoted-field"])
    def test_unreadable_dataset_text_is_exit_code_one(self, tmp_path, capsys, corrupt):
        labeled, _ = _tiny_risk_inputs(tmp_path)
        labeled.write_bytes(corrupt(labeled.read_text()))
        assert main(["preprocess", "--in", str(labeled), "--out", str(tmp_path / "prep")]) == 1
        assert str(labeled) in capsys.readouterr().err

    @pytest.mark.parametrize("edit", [
        lambda p: p.update(n_classes=2, trees=[
            {**t, "counts": [[a, b + c] for a, b, c in t["counts"]]} for t in p["trees"]]),
        lambda p: p.update(n_features=6),
    ], ids=["two-classes", "six-features"])
    def test_forest_of_other_shape_is_exit_code_one(self, tmp_path, capsys, edit):
        labeled, models = _tiny_risk_inputs(tmp_path)
        _edit_models(edit)(models / "forest.json")
        assert _run_risk(tmp_path, labeled, models) == 1
        out, err = capsys.readouterr()
        assert out == "" and str(models / "forest.json") in err
        assert not (tmp_path / "risk").exists()

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
        {"data": {"schema": {"y": "x"}}},
        {"synth": {"n_vehicles_per_cell": 1.5}},
        {"forest": {"n_trees_grid": [0]}},
        {"forest": {"n_trees_grid": [-1]}},
        {"forest": {"n_trees_grid": ["a"]}},
        {"forest": {"max_depth_grid": ["x"]}},
        {"gpr": {"max_points": 0}},
        {"gpr": {"max_points": 1}},
        {"gpr": {"init_noise": 0}},
        {"gpr": {"init_noise": -1}},
        {"gpr": {"seed": -1}},
        {"forest": {"seed": -1}},
        {"synth": {"seed": -1}},
        {"risk": {"rollout_mode": "sample", "sample_seed": -1}},
        {"train": {"horizons": [0]}},
        {"train": {"horizons": [-3]}},
        {"train": {"rollout_steps": 0}},
        {"train": {"starting_points": ["a"]}},
        {"synth": {"requested_pet_range": ["a", "b"]}},
        *(section for section, _ in _OUT_OF_RANGE),
    ], ids=["one-value-pet-range", "empty-tree-grid", "empty-depth-grid", "no-splits",
            "non-object-section", "string-seed", "string-float", "repeated-schema-header",
            "float-int",
            "zero-trees", "negative-trees", "string-trees", "string-depth",
            "no-gp-points", "one-gp-point", "zero-init-noise", "negative-init-noise",
            "negative-gpr-seed", "negative-forest-seed", "negative-synth-seed",
            "negative-sample-seed", "zero-horizon", "negative-horizon",
            "no-rollout-steps", "string-starting-point", "string-pet-range",
            *_OUT_OF_RANGE_IDS])
    def test_malformed_config_value_is_exit_code_one(self, tmp_path, section):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(section))
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize("section,named", _OUT_OF_RANGE, ids=_OUT_OF_RANGE_IDS)
    def test_out_of_range_value_is_named_before_output(self, tmp_path, default_scene, capsys,
                                                       section, named):
        # run by the stage that reads the section, which writes nothing
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(section))
        out = tmp_path / "out"
        if "preprocess" in section:
            argv = ["preprocess", "--in", str(default_scene)]
        else:
            labeled, models = _tiny_risk_inputs(tmp_path)
            argv = ["risk", "--in", str(labeled), "--models", str(models)]
        assert main([*argv, "--config", str(cfg), "--out", str(out)]) == 1
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command,section,key,value", [
        *(pytest.param(command, section, key, value, id=f"{command}-{section}-{key}-{name}")
          for command, section, key in [
              *(("synth", "synth", key) for key in (
                  "cruise_speed", "turn_speed", "pedestrian_speed", "noise_std_position",
                  "noise_std_velocity", "min_separation", "pet_zone_radius")),
              *(("preprocess", "preprocess", f"merge.{key}") for key in (
                  "max_time_gap", "max_distance_gap", "max_heading_diff",
                  "max_traj_angle_diff")),
              ("train", "gpr", "learning_rate"),
          ]
          for value, name in [(float("nan"), "nan"), (-1, "negative")]),
        pytest.param("synth", "synth", "requested_pet_range", [0.8, math.inf],
                     id="synth-synth-requested_pet_range-infinite"),
    ])
    def test_non_positive_rate_is_named_before_output(self, tmp_path, default_scene,
                                                      capsys, command, section, key, value):
        *outer, leaf = key.split(".")
        body = {leaf: value}
        for name in reversed(outer):
            body = {name: body}
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({section: body}))
        out = tmp_path / "out"
        argv = [command] if command == "synth" else [command, "--in", str(default_scene)]
        assert main([*argv, "--config", str(cfg), "--out", str(out)]) == 1
        assert f"{section}.{key}" in capsys.readouterr().err
        assert not out.exists()

    def test_too_fine_cell_size_is_exit_code_one(self, tmp_path, default_scene, capsys):
        # 1e-9 m cells give a density grid of about 5e20 cells, rejected once
        # the scene's extent is known (NaN is rejected with the config above)
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"preprocess": {"cell_size": 1e-9}}))
        out = tmp_path / "prep"
        assert main(["preprocess", "--config", str(cfg), "--in", str(default_scene),
                     "--out", str(out)]) == 1
        assert "cell_size" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("geometry,named", [
        ({"roadway_polygon": [[0, 0], [1]]}, "roadway_polygon"),
        ({"roadway_polygon": [[0, 0], [1, 0], [0, float("inf")]]}, "roadway_polygon point"),
        ({"crosswalk_polygons": {"N": "abc"}}, "crosswalk_polygons.N"),
        ({"crosswalk_polygons": {"NE": [[0, 0], [1, 0], [0, 1]]}}, "'NE'"),
        ({"search_regions": {**canonical_search_regions(), "S_SE": [1, 2, 3]}},
         "search_regions.S_SE"),
        ({"mode": "explicit", "endpoints": {**canonical_endpoints(), "N_NW": ["a", 1]}},
         "endpoints.N_NW"),
        ({"mode": "explicit", "endpoints": {**canonical_endpoints(), "N_NW": [0, float("nan")]}},
         "endpoints.N_NW"),
        ({"crosswalk_inflation": -1}, "crosswalk_inflation"),
        ({"crosswalk_inflation": float("nan")}, "crosswalk_inflation"),
    ], ids=["two-point-polygon", "infinite-polygon-point", "string-polygon",
            "unknown-approach", "three-number-box", "string-endpoint", "nan-endpoint",
            "negative-inflation", "nan-inflation"])
    def test_malformed_geometry_value_is_exit_code_one(self, tmp_path, default_scene,
                                                       capsys, geometry, named):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"preprocess": {"geometry": geometry}}))
        out = tmp_path / "prep"
        assert main(["preprocess", "--config", str(cfg), "--in", str(default_scene),
                     "--out", str(out)]) == 1
        assert named in capsys.readouterr().err
        assert not out.exists()  # rejected with the config, before any output

    @pytest.mark.parametrize("reader", [load_config, load_forest, load_cluster_models])
    @pytest.mark.parametrize("content", ["{", "[1]", '{"version": 1}'],
                             ids=["cut", "list", "version-only"])
    def test_malformed_json_file_is_input_error(self, tmp_path, reader, content):
        path = tmp_path / "file.json"
        path.write_text(content)
        with pytest.raises(InputError):
            reader(path)

    def test_negative_seed_flag_is_exit_code_one(self, tmp_path, capsys):
        assert main(["synth", "--seed", "-1", "--out", str(tmp_path / "o")]) == 1
        assert "seed must be nonnegative" in capsys.readouterr().err

    def test_program_bug_propagates(self, tmp_path, monkeypatch):
        labeled, models = _tiny_risk_inputs(tmp_path)

        def broken(*args, **kwargs):
            raise ValueError("injected")

        monkeypatch.setattr(evaluation, "estimate_risk", broken)
        with pytest.raises(ValueError, match="injected"):
            _run_risk(tmp_path, labeled, models)
