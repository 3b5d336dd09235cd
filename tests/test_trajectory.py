import csv
import io
import math
from collections import Counter

import numpy as np
import pytest
from helpers import row
from hypothesis import given, settings, strategies as st

from crossrisk.errors import InputError
from crossrisk.ssm import co_present_pairs
from crossrisk.trajectory import (
    DataFormat,
    Dataset,
    Direction,
    Maneuver,
    ObjectClass,
    Trajectory,
    _majority_class,
    _parse_class,
    _read_cells,
    load_dataset,
    save_dataset,
)


def _write(tmp_path, rows, header="t,id,class,x,y,vx,vy,yaw_rate"):
    path = tmp_path / "data.csv"
    path.write_text(header + "\n" + "\n".join(rows) + "\n")
    return path


def _assert_same_datasets(a, b):
    """Equal ids, classes, labels and bit patterns of every point."""
    assert [(t.id, t.object_class, t.entering_direction, t.maneuver) for t in a.trajectories] \
        == [(t.id, t.object_class, t.entering_direction, t.maneuver) for t in b.trajectories]
    assert [t.points.tobytes() for t in a.trajectories] \
        == [t.points.tobytes() for t in b.trajectories]


def _csv_reader_cells(text):
    """What ``_read_cells`` must return for ``text``: ``csv.reader``'s rows
    with blank rows skipped, each cut or padded to the header's width."""
    reader = csv.reader(io.StringIO(text, newline=""))
    header = next(reader, [])
    width = len(header)
    return header, [cell for r in reader if r for cell in (r + [""] * width)[:width]]


def _csv_writer_text(dataset, include_labels=True):
    """The dataset as ``csv.writer`` writes it, row by row."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["t", "id", "class", "x", "y", "vx", "vy", "yaw_rate"]
                    + (["entering_direction", "maneuver"] if include_labels else []))
    for traj in dataset.trajectories:
        labels = [traj.entering_direction.value if traj.entering_direction else "",
                  traj.maneuver.value if traj.maneuver else ""] if include_labels else []
        for t, x, y, vx, vy, yaw in traj.points.tolist():
            writer.writerow([repr(t), traj.id, traj.object_class.value,
                             repr(x), repr(y), repr(vx), repr(vy), repr(yaw), *labels])
    return buf.getvalue()


class TestMajorityVote:
    def test_strict_majority(self):
        assert _majority_class(["ped", "Pedestrian", "vehicle"]) == ObjectClass.PEDESTRIAN

    def test_singleton(self):
        assert _majority_class(["vehicle"]) == ObjectClass.VEHICLE

    def test_tie_breaks_to_first_appearing(self):
        assert _majority_class(["car", "ped"]) == ObjectClass.VEHICLE
        assert _majority_class(["ped", "car"]) == ObjectClass.PEDESTRIAN
        # the tie is between classes, not between the texts that name them
        assert _majority_class(["ped", "car", "vehicle", "pedestrian"]) == ObjectClass.PEDESTRIAN

    @given(st.lists(st.sampled_from(["vehicle", "car", "ped", "pedestrian", "cyclist",
                                     "bicycle", "misc"]), min_size=1, max_size=30))
    def test_winner_always_in_input(self, labels):
        assert _majority_class(labels) in {_parse_class(text) for text in labels}


def _one(*fields):
    return Trajectory(id="a", object_class=ObjectClass.VEHICLE, points=[row(*fields)])


class TestRowValidity:
    def test_non_finite_kinematics_invalidate_row(self):
        assert not _one(0.0, float("nan"), 1.0, 0.0, 0.0).valid[0]
        assert not _one(0.0, 1.0, 1.0, 0.0, float("inf")).valid[0]
        assert _one(0.0, 1.0, 1.0, 0.0, 0.0).valid[0]

    def test_nan_yaw_rate_stays_valid(self):
        traj = _one(0.0, 1.0, 1.0, 0.0, 0.0)
        assert traj.valid[0] and math.isnan(traj.yaw_rate[0])

    def test_speed(self):
        assert _one(0.0, 0.0, 0.0, 3.0, 4.0).speed[0] == 5.0


class TestTrajectoryInvariants:
    def test_empty_points_rejected(self):
        with pytest.raises(ValueError):
            Trajectory(id="a", object_class=ObjectClass.VEHICLE, points=())

    def test_non_monotone_timestamps_rejected(self):
        pts = (row(1.0, 0, 0, 0, 0), row(1.0, 1, 0, 0, 0))
        with pytest.raises(ValueError):
            Trajectory(id="a", object_class=ObjectClass.VEHICLE, points=pts)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_timestamp_rejected(self, bad):
        # NaN compares false both ways, so an order check alone misses it
        pts = (row(0.0, 0, 0, 0, 0), row(bad, 1, 0, 0, 0))
        with pytest.raises(ValueError):
            Trajectory(id="a", object_class=ObjectClass.VEHICLE, points=pts)

    def test_duplicate_ids_rejected(self):
        t = _one(0.0, 0, 0, 0, 0)
        with pytest.raises(ValueError):
            Dataset(trajectories=[t, t])

    def test_points_are_a_read_only_copy(self):
        pts = np.array([row(0.0, 1.0, 2.0, 3.0, 4.0, 0.5)])
        traj = Trajectory(id="a", object_class=ObjectClass.VEHICLE, points=pts)
        pts[0, 1] = 9.0
        assert traj.xy[0, 0] == 1.0
        with pytest.raises(ValueError):
            traj.points[0, 1] = 9.0
        with pytest.raises(ValueError):
            traj.xy[0, 0] = 9.0


class TestLoadDataset:
    def test_single_object(self, tmp_path):
        path = _write(tmp_path, [
            "0.0,7,vehicle,1.0,2.0,3.0,4.0,0.1",
            "0.1,7,vehicle,1.3,2.4,3.0,4.0,0.1",
            "0.2,7,vehicle,1.6,2.8,3.0,4.0,0.1",
        ])
        ds = load_dataset(path)
        assert len(ds) == 1
        traj = ds.by_id("7")
        assert len(traj) == 3
        assert traj.object_class == ObjectClass.VEHICLE

    def test_interleaved_objects_sorted(self, tmp_path):
        path = _write(tmp_path, [
            "0.1,9,pedestrian,0,0,1,0,0",
            "0.0,7,vehicle,1,2,3,4,0",
            "0.0,9,pedestrian,0,0,1,0,0",
            "0.1,7,vehicle,1,2,3,4,0",
        ])
        ds = load_dataset(path)
        assert len(ds) == 2
        for traj in ds.trajectories:
            ts = traj.t.tolist()
            assert ts == sorted(ts)

    def test_non_finite_row_kept_invalid(self, tmp_path):
        path = _write(tmp_path, ["0.0,1,pedestrian,NaN,2.0,0.5,0.5,0.0"])
        ds = load_dataset(path)
        assert len(ds.by_id("1")) == 1
        assert not ds.by_id("1").valid[0]

    def test_duplicate_timestamp_keeps_first(self, tmp_path):
        path = _write(tmp_path, [
            "0.0,1,vehicle,1.0,0,0,0,0",
            "0.0,1,vehicle,9.0,0,0,0,0",
            "0.1,1,vehicle,2.0,0,0,0,0",
        ])
        traj = load_dataset(path).by_id("1")
        assert traj.xy[:, 0].tolist() == [1.0, 2.0]

    def test_non_finite_timestamps_dropped(self, tmp_path):
        path = _write(tmp_path, [
            f"{t},1,vehicle,{x},0,1,0,0" for x, t in enumerate(
                ["0.0", "nan", "0.1", "inf", "0.2", "-inf"])
        ] + ["5.0,p,pedestrian,0,0,0,0,0"])
        ds = load_dataset(path)
        traj = ds.by_id("1")
        assert traj.t.tolist() == [0.0, 0.1, 0.2]
        assert traj.xy[:, 0].tolist() == [0.0, 2.0, 4.0]
        assert traj.end_time == 0.2
        assert co_present_pairs(ds) == []  # an infinite end time would overlap p

    @pytest.mark.parametrize("quote", ["", '"'], ids=["split", "csv-reader"])
    def test_blank_object_ids_rejected(self, tmp_path, quote):
        # a quote anywhere sends the text through csv.reader
        path = _write(tmp_path, [
            "0.1,,pedestrian,0,0,1,0,0",
            "0.2, ,vehicle,5,0,1,0,0",
            "nan,,vehicle,0,0,0,0,0",  # no finite timestamp: dropped first
            f"0.0,7,{quote}vehicle{quote},1,2,3,4,0",
        ])
        with pytest.raises(InputError, match="2 row.* blank object id"):
            load_dataset(path)

    def test_short_row_reads_missing_cells_as_blank(self, tmp_path):
        path = _write(tmp_path, ["0.0,1,vehicle,1.0,2.0", "0.1,1,vehicle,1,2,3,4,0"])
        traj = load_dataset(path).by_id("1")
        assert traj.valid.tolist() == [False, True]

    def test_unknown_label_value_raises(self, tmp_path):
        header = "t,id,class,x,y,vx,vy,yaw_rate,entering_direction,maneuver"
        path = _write(tmp_path, ["0.0,1,vehicle,0,0,0,0,0,S,left",
                                 "0.1,1,vehicle,0,0,0,0,0,S,sideways"], header=header)
        with pytest.raises(InputError):
            load_dataset(path)
        path = _write(tmp_path, ["0.0,1,vehicle,0,0,0,0,0,Q,left"], header=header)
        with pytest.raises(InputError):
            load_dataset(path)

    def test_labels_take_last_non_empty_value(self, tmp_path):
        header = "t,id,class,x,y,vx,vy,yaw_rate,entering_direction,maneuver"
        path = _write(tmp_path, ["0.2,1,vehicle,0,0,0,0,0,,",
                                 "0.0,1,vehicle,0,0,0,0,0,N,right",
                                 "0.1,1,vehicle,0,0,0,0,0,S,",
                                 "0.1,1,vehicle,0,0,0,0,0,W,left"], header=header)
        traj = load_dataset(path).by_id("1")
        assert (traj.entering_direction, traj.maneuver) == (Direction.S, Maneuver.RIGHT)

    def test_majority_vote_applied(self, tmp_path):
        path = _write(tmp_path, [
            "0.0,1,misc,0,0,0,0,0",
            "0.1,1,pedestrian,0,0,0,0,0",
            "0.2,1,pedestrian,0,0,0,0,0",
        ])
        assert load_dataset(path).by_id("1").object_class == ObjectClass.PEDESTRIAN

    def test_missing_column_raises(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,id,class,x,y,vx,vy\n0,1,vehicle,0,0,0,0\n")
        with pytest.raises(InputError):
            load_dataset(path)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(InputError):
            load_dataset(tmp_path / "nope.csv")

    def test_zero_usable_rows_raises(self, tmp_path):
        path = _write(tmp_path, [])
        with pytest.raises(InputError):
            load_dataset(path)

    def test_schema_mapping_and_degree_conversion(self, tmp_path):
        path = tmp_path / "mapped.csv"
        path.write_text(
            "time,track,label,px,py,sx,sy,yr\n"
            "0.0,5,vehicle,1,2,3,4,90.0\n"
        )
        data = DataFormat(
            schema={"t": "time", "id": "track", "class": "label", "x": "px",
                    "y": "py", "vx": "sx", "vy": "sy", "yaw_rate": "yr"},
            yaw_rate_unit="deg_s",
        )
        traj = load_dataset(path, data).by_id("5")
        assert traj.yaw_rate[0] == pytest.approx(math.pi / 2.0)

    @pytest.mark.parametrize("kwargs,named", [
        ({"schema": {"time": "t"}}, "'time'"), ({"schema": {"t": 0}}, "'t': 0"),
        ({"yaw_rate_unit": "rpm"}, "'rpm'"), ({"frame_interval": 0.0}, "frame_interval"),
        ({"frame_interval": float("nan")}, "frame_interval"),
        ({"frame_interval": 10**400}, "frame_interval"),
        ({"schema": {"y": "x"}}, "['x']"), ({"schema": {"vx": "id"}}, "['id']"),
        ({"schema": {"t": "a", "x": "a"}}, "['a']"),
    ], ids=["unknown-column", "non-string-header", "unknown-unit", "zero-interval",
            "nan-interval", "huge-int-interval", "schema-onto-default", "schema-onto-id",
            "schema-two-onto-one"])
    def test_bad_data_format_rejected(self, kwargs, named):
        with pytest.raises(InputError) as exc:
            DataFormat(**kwargs)
        assert named in str(exc.value)


_LABELED_HEADER = "t,id,class,x,y,vx,vy,yaw_rate,entering_direction,maneuver"


def _frame_major_rows(seed):
    """A frame-major labeled file's rows: per frame, the objects present in a
    shuffled order, with 17-digit kinematics and yaw rates in degrees. It holds
    duplicate timestamps, rows without a finite timestamp, rows of non-finite
    kinematics, cyclists, and objects whose class labels disagree."""
    rng = np.random.default_rng(seed)
    classes = {"v1": ["vehicle"], "v2": ["car", "veh"], "v3": ["vehicle", "pedestrian"],
               "p1": ["pedestrian"], "p2": ["ped", "vehicle", "ped"], "c1": ["cyclist"],
               "c2": ["bicycle", "cyclists"], "m1": ["misc"]}
    spans = {obj: sorted(rng.integers(0, 40, size=2).tolist()) for obj in classes}
    rows = []
    for frame in range(40):
        present = [obj for obj, (a, b) in spans.items() if a <= frame <= b]
        for obj in rng.permutation(present).tolist():
            label = classes[obj][frame % len(classes[obj])]
            t = repr(round(0.1 * frame, 6))
            x, y, vx, vy, yaw = (repr(v) for v in rng.normal(0.0, 10.0, size=5).tolist())
            u = rng.random()
            if u < 0.05:
                t = str(rng.choice(["nan", "", "inf", "-inf"]))
            elif u < 0.1:
                x = "nan"
            elif u < 0.15:
                yaw = ""
            direction, maneuver = ("S", "left") if frame % 3 else ("", "")
            rows.append(f"{t},{obj},{label},{x},{y},{vx},{vy},{yaw},{direction},{maneuver}")
            if u > 0.9:  # a duplicate timestamp, which the load drops
                rows.append(f"{t},{obj},{label},1,2,3,4,5,N,right")
    return rows


class TestClassFilter:
    """``load_dataset(..., classes=...)`` builds the full load's trajectories
    of those classes, bit for bit, and rejects what the full load rejects."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("unit", ["deg_s", "rad_s"])
    def test_vehicles_equal_the_full_loads_vehicles(self, tmp_path, seed, unit):
        path = _write(tmp_path, _frame_major_rows(seed), header=_LABELED_HEADER)
        data = DataFormat(yaw_rate_unit=unit, frame_interval=0.2)
        full = load_dataset(path, data)
        vehicles = load_dataset(path, data, classes={ObjectClass.VEHICLE})
        assert vehicles.frame_interval == 0.2
        assert {t.object_class for t in full.trajectories} >= {
            ObjectClass.VEHICLE, ObjectClass.PEDESTRIAN, ObjectClass.CYCLIST}
        _assert_same_datasets(vehicles, Dataset(full.vehicles))
        kinds = {ObjectClass.CYCLIST, ObjectClass.MISC}
        _assert_same_datasets(load_dataset(path, data, classes=kinds),
                              Dataset([t for t in full.trajectories if t.object_class in kinds]))

    @pytest.mark.parametrize("column, value", [(2, "tram"), (9, "sideways"), (8, "Q")])
    def test_bad_label_on_a_pedestrian_row_is_the_full_loads_error(self, tmp_path, column,
                                                                    value):
        rows = _frame_major_rows(0)
        at = next(i for i, r in enumerate(rows) if ",p1,pedestrian," in r
                  and math.isfinite(float(r.split(",")[0] or "nan")))
        cells = rows[at].split(",")
        cells[column] = value
        rows[at] = ",".join(cells)
        path = _write(tmp_path, rows, header=_LABELED_HEADER)
        with pytest.raises(InputError) as full:
            load_dataset(path)
        with pytest.raises(InputError) as vehicles:
            load_dataset(path, classes={ObjectClass.VEHICLE})
        assert value in str(full.value)
        assert str(vehicles.value) == str(full.value)

    def test_no_trajectory_of_the_classes(self, tmp_path):
        path = _write(tmp_path, ["0.0,p,pedestrian,0,0,1,0,0"])
        assert load_dataset(path, classes={ObjectClass.VEHICLE}).trajectories == []


class TestRoundTrip:
    def test_save_load_identity(self, tmp_path):
        rng = np.random.default_rng(0)
        pts = [
            row(round(0.1 * k, 6), *rng.normal(size=5).tolist()) for k in range(20)
        ] + [row(2.0, float("nan"), 0.0, 0.0, 0.0, 0.0)]
        traj = Trajectory(id="42", object_class=ObjectClass.VEHICLE, points=pts,
                          entering_direction=Direction.S, maneuver=Maneuver.LEFT)
        ds = Dataset(trajectories=[traj])
        path = tmp_path / "roundtrip.csv"
        save_dataset(ds, path)
        back = load_dataset(path).by_id("42")
        assert len(back) == len(traj)
        assert back.entering_direction == Direction.S
        assert back.maneuver == Maneuver.LEFT
        assert back.valid.tolist() == traj.valid.tolist() == [True] * 20 + [False]
        assert np.array_equal(back.points, traj.points, equal_nan=True)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.text(alphabet='ab ,"\r\né', min_size=1, max_size=6)
                    .filter(lambda s: s == s.strip()), min_size=1, max_size=4, unique=True),
           st.lists(st.floats(allow_nan=False), min_size=5, max_size=5),
           st.sampled_from([True, False]))
    def test_save_writes_what_csv_writer_writes(self, tmp_path_factory, ids, values,
                                                include_labels):
        # ids that need quoting round-trip, as do empty labels and every float
        ds = Dataset(trajectories=[
            Trajectory(id=traj_id, object_class=ObjectClass.VEHICLE,
                       points=[row(float(k), *values), row(k + 0.5, math.nan, *values[1:])],
                       entering_direction=Direction.W if include_labels and k % 2 else None,
                       maneuver=Maneuver.LEFT if include_labels and k % 3 else None)
            for k, traj_id in enumerate(ids)])
        path = tmp_path_factory.mktemp("ids") / "data.csv"
        save_dataset(ds, path, include_labels=include_labels)
        assert path.read_bytes() == _csv_writer_text(ds, include_labels).encode()
        _assert_same_datasets(load_dataset(path), ds)


_LABELED_HEADER = "t,id,class,x,y,vx,vy,yaw_rate,entering_direction,maneuver"
_LABELED_ROWS = [
    ["0.0", "7", "vehicle", "1.0", "2.0", "3.0", "4.0", "0.1", "S", "left"],
    ["0.1", "7", " Car ", "1.25", "2.5", "nan", "4.0", "", "S", ""],
    ["0.0", "p 1", "pedestrian", "-1e-3", "0", "1", "0", "0", "", ""],
    ["0.1", "p 1", "PED", "0.1", "inf", "1", "0", "0", "", " "],
    ["0.05", "7", "vehicle", "x", "2.2", "3", "4", "0", "", "left"],
    ["", "7", "vehicle", "1", "2", "3", "4", "0", "", ""],
]


def _rows_text(lineterminator="\n", quoting=csv.QUOTE_MINIMAL):
    buf = io.StringIO()
    csv.writer(buf, lineterminator=lineterminator, quoting=quoting).writerows(
        [_LABELED_HEADER.split(","), *_LABELED_ROWS])
    return buf.getvalue()


def _through_csv_reader(text):
    """``text`` with its first header cell quoted: the same cells, read by ``csv.reader``."""
    assert text.startswith("t,")
    return '"t"' + text[1:]


class TestCsvText:
    """``load_dataset`` splits plain text itself and hands anything else to
    ``csv.reader``; both must read the same cells."""

    def _load(self, tmp_path, data, name="data.csv"):
        path = tmp_path / name
        path.write_bytes(data if isinstance(data, bytes) else data.encode())
        return load_dataset(path)

    def test_line_endings_and_quoting_load_alike(self, tmp_path):
        lf = self._load(tmp_path, _rows_text("\n"))
        assert [(t.id, t.object_class, len(t)) for t in lf.trajectories] == [
            ("7", ObjectClass.VEHICLE, 3), ("p 1", ObjectClass.PEDESTRIAN, 2)]
        for text in (_rows_text("\r\n"), _rows_text("\n", csv.QUOTE_ALL),
                     _rows_text("\r\n", csv.QUOTE_ALL), _through_csv_reader(_rows_text("\n"))):
            _assert_same_datasets(self._load(tmp_path, text), lf)

    def test_byte_order_mark_is_skipped(self, tmp_path):
        for text in (_rows_text("\r\n"), _rows_text("\n", csv.QUOTE_ALL)):
            plain = self._load(tmp_path, text)
            _assert_same_datasets(self._load(tmp_path, b"\xef\xbb\xbf" + text.encode()), plain)

    @pytest.mark.parametrize("edit", [
        lambda text: text.replace("\n", "\n\n"),
        lambda text: text.replace("\r\n", "\r\n\r\n", 3),
        lambda text: text.rstrip("\r\n"),
        lambda text: text + "\n\n",
    ], ids=["blank-lines", "blank-crlf-lines", "no-final-newline", "trailing-blank-lines"])
    @pytest.mark.parametrize("ending", ["\n", "\r\n"])
    def test_blank_lines_and_last_newline_change_nothing(self, tmp_path, edit, ending):
        plain = self._load(tmp_path, _rows_text(ending))
        text = edit(_rows_text(ending))
        _assert_same_datasets(self._load(tmp_path, text), plain)
        _assert_same_datasets(self._load(tmp_path, _through_csv_reader(text)), plain)

    def test_long_rows_ignore_extra_cells(self, tmp_path):
        plain = self._load(tmp_path, _rows_text())
        text = _rows_text().replace(",left\n", ",left,9,extra\n")
        _assert_same_datasets(self._load(tmp_path, text), plain)

    def test_blank_header_line_has_no_columns(self, tmp_path):
        for text in ("\n" + _rows_text(), "\r\n" + _rows_text(), ""):
            with pytest.raises(InputError, match="missing required columns"):
                self._load(tmp_path, text)

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet='ab,"\r\n \x00', max_size=40))
    def test_cells_match_csv_reader(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("cells") / "data.csv"
        path.write_bytes(text.encode())
        assert _read_cells(path) == _csv_reader_cells(text)

    @pytest.mark.parametrize("text,error", [
        ("t,id\n1,abcdefgh\n", False), ("t,id\n1,abcdefghij\n", True),
        ("t,id\n12345678,12345678\n", False), ("t,id\n1,abc\n", False),
    ], ids=["field-at-limit", "field-over-limit", "line-over-limit", "short-lines"])
    def test_field_size_limit_is_kept(self, tmp_path, text, error):
        path = tmp_path / "data.csv"
        path.write_text(text)
        old = csv.field_size_limit(8)
        try:
            if error:
                with pytest.raises(csv.Error):
                    _read_cells(path)
            else:
                assert _read_cells(path) == _csv_reader_cells(text)
        finally:
            csv.field_size_limit(old)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.sampled_from(["vehicle", " Car", "VEH", "ped", "Pedestrian ",
                                     "cyclist", "bicycle", "misc"]), min_size=1, max_size=12))
    def test_class_is_the_vote_over_parsed_labels(self, tmp_path_factory, classes):
        path = tmp_path_factory.mktemp("vote") / "data.csv"
        path.write_text("t,id,class,x,y,vx,vy,yaw_rate\n" + "".join(
            f"{k},1,{cls},0,0,0,0,0\n" for k, cls in enumerate(classes)))
        # the vote over every row's parsed label, a tie going to the class seen first
        expected = Counter(map(_parse_class, classes)).most_common(1)[0][0]
        assert load_dataset(path).by_id("1").object_class == expected
