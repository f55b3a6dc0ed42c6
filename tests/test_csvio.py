import math

import numpy as np
import pytest

from finedating import csvio


def test_fmt_round_trips_floats():
    rng = np.random.default_rng(12)
    for x in rng.normal(0, 1e4, 200):
        x = float(x)
        assert csvio.parse_float(csvio.fmt(x)) == x


def test_fmt_integral_floats_drop_the_point():
    assert csvio.fmt(-150.0) == "-150"
    assert csvio.fmt(2000) == "2000"
    assert csvio.parse_float(csvio.fmt(-150.0)) == -150.0


def test_fmt_handles_none_nan_bool_and_numpy_scalars():
    assert csvio.fmt(None) == ""
    assert csvio.fmt(math.nan) == ""
    assert csvio.fmt(True) == "true"
    assert csvio.fmt(np.float64(1.5)) == "1.5"
    assert csvio.fmt(np.int64(7)) == "7"


def test_fmt_numpy_bool_is_a_bool():
    assert csvio.fmt(np.True_) == "true"
    assert csvio.fmt(np.False_) == "false"
    assert [csvio.fmt(b) for b in np.array([1.0, 3.0]) < 2.0] == ["true", "false"]


def test_fmt_numpy_integer_is_an_int():
    assert csvio.fmt(np.int64(10**16 + 1)) == "10000000000000001"
    assert csvio.fmt(np.int32(-7)) == "-7"
    assert csvio.fmt(np.uint8(255)) == "255"


@pytest.mark.parametrize("value,cell", [
    (math.inf, "inf"), (-math.inf, "-inf"), (np.float64(-np.inf), "-inf"),
], ids=["inf", "-inf", "numpy-inf"])
def test_fmt_infinities_round_trip(value, cell):
    assert csvio.fmt(value) == cell
    assert csvio.parse_float(cell) == value


def test_parse_float_blank_is_nan():
    assert math.isnan(csvio.parse_float(""))
    assert math.isnan(csvio.parse_float("  "))
    assert csvio.parse_float("2.5") == 2.5


def test_read_commented_csv(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("# a=1\n# note=two words\ncol1,col2\n1,2\n3,4\n")
    meta, columns, rows = csvio.read_commented_csv(path)
    assert meta == {"a": "1", "note": "two words"}
    assert columns == ["col1", "col2"]
    assert rows == [["1", "2"], ["3", "4"]]


def test_rows_checksum_sensitive_to_any_change():
    base = ["1,2,3", "4,5,6"]
    assert csvio.rows_checksum(base) == csvio.rows_checksum(list(base))
    assert csvio.rows_checksum(base) != csvio.rows_checksum(["1,2,3", "4,5,7"])
    assert csvio.rows_checksum(base) != csvio.rows_checksum(["4,5,6", "1,2,3"])


def test_write_lines_newline_discipline(tmp_path):
    path = tmp_path / "n.csv"
    csvio.write_lines(path, ["a", "b"])
    assert path.read_bytes() == b"a\nb\n"


def test_write_artifact_layout(tmp_path):
    path = tmp_path / "a.csv"
    rows = [(1, -50.0, None), (2, 0.25, True)]
    csvio.write_artifact(
        path, {"format": "demo", "checksum": None, "n": 2}, ["id", "x", "flag"], rows,
        extra={"spec": [("a", 5.0), ("b", 1.5)]},
    )
    crc = csvio.rows_checksum(["1,-50,", "2,0.25,true"])
    assert path.read_text() == (
        f"# format=demo\n# checksum={crc}\n# n=2\n# spec=a,5\n# spec=b,1.5\n"
        "id,x,flag\n1,-50,\n2,0.25,true\n"
    )


def test_read_parses_schema_and_repeated_lines(tmp_path):
    path = tmp_path / "a.csv"
    schema = {"id": int, "x": float, "name": str.strip, "y": csvio.parse_float}
    rows = [(1, -50.0, "p", None), (2, 0.125, "q", 3.5)]
    csvio.write_artifact(path, {"format": "demo", "checksum": None}, schema, rows,
                         extra={"spec": [("a", 5)]})
    meta, columns, back = csvio.read_commented_csv(path, "demo", schema, extra=("spec",))
    assert meta["spec"] == [["a", "5"]]
    assert columns == list(schema)
    assert list(back) == list(schema)
    assert back["id"].dtype == np.int64 and back["id"].tolist() == [1, 2]
    assert back["x"].dtype == float and back["x"].tolist() == [-50.0, 0.125]
    assert back["name"].dtype == object and back["name"].tolist() == ["p", "q"]
    assert np.isnan(back["y"][0]) and back["y"][1] == 3.5


def test_read_checks_format_columns_and_checksum(tmp_path):
    path = tmp_path / "a.csv"
    csvio.write_artifact(path, {"format": "demo", "checksum": None}, ["a", "b"], [(1, 2), (3, 4)])
    with pytest.raises(ValueError, match="not a other file"):
        csvio.read_commented_csv(path, "other")
    with pytest.raises(ValueError, match="unexpected columns"):
        csvio.read_commented_csv(path, "demo", {"a": int, "c": int})
    path.write_text(path.read_text().replace("3,4", "3, 4"))
    with pytest.raises(ValueError, match="checksum mismatch"):
        csvio.read_commented_csv(path)


def test_ragged_row_names_file_and_line(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("# a=1\ncol1,col2\n1,2\n\n3\n")
    with pytest.raises(ValueError, match=f"ragged row in {path} at line 5: 1 cells"):
        csvio.read_commented_csv(path)
