import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    columns = {"id": np.array([1, 2]), "x": np.array([-50.0, 0.25]), "flag": [None, True]}
    csvio.write_artifact(
        path, {"format": "demo", "checksum": None, "n": 2}, columns,
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
    cells = [[1, 2], [-50.0, 0.125], ["p", "q"], [None, 3.5]]
    csvio.write_artifact(path, {"format": "demo", "checksum": None}, dict(zip(schema, cells)),
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
    csvio.write_artifact(path, {"format": "demo", "checksum": None}, {"a": [1, 3], "b": [2, 4]})
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


# --- the column writer against a per-row reference --------------------------

# Floats whose formatting has a case of its own in ``fmt``.
SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, 0.0, -0.0, 1e15 - 1, 1e15, 1e15 + 1,
                  -(1e15 - 1), -1e15, -(1e15 + 1), 5e-324, -5e-324, 2.2250738585072014e-308,
                  0.1, -150.0, 2.5]
FLOAT_CELLS = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats())
INT_CELLS = st.one_of(st.sampled_from([-2**63, 2**63 - 1, 0, -1, 10**15 + 1]),
                      st.integers(-2**63, 2**63 - 1))
OBJECT_CELLS = st.one_of(st.text(alphabet="ab_-. XY", max_size=6), st.none(), FLOAT_CELLS)
KINDS = {
    "float": (FLOAT_CELLS, float),
    "int": (INT_CELLS, np.int64),
    "bool": (st.booleans(), bool),
    "object": (OBJECT_CELLS, object),
    "list": (OBJECT_CELLS, None),  # a plain list, formatted as given
}
LENGTHS = st.one_of(st.sampled_from([0, 1, csvio._CHUNK, csvio._CHUNK + 1]),
                    st.integers(0, 40))


@st.composite
def column_sets(draw):
    """Columns of one length, each drawn from a small pool of values so
    that a chunk repeats values, as the artifacts' columns do."""
    n = draw(LENGTHS)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = {}
    for k, kind in enumerate(draw(st.lists(st.sampled_from(list(KINDS)), min_size=1,
                                           max_size=5))):
        cells, dtype = KINDS[kind]
        pool = draw(st.lists(cells, min_size=1, max_size=8))
        if kind == "float" and draw(st.booleans()):  # -0.0 beside 0.0, -nan beside nan
            pool += [-value for value in pool]
        picked = [pool[i] for i in rng.integers(0, len(pool), n).tolist()]
        columns[f"{kind}{k}"] = picked if dtype is None else np.array(picked, dtype=dtype)
    return columns


def reference_lines(columns) -> list[str]:
    """The per-row writer: each row's cells through ``fmt``."""
    values = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns.values()]
    return [",".join(map(csvio.fmt, row)) for row in zip(*values)]


def expected_fmt_calls(header, columns) -> int:
    """One ``fmt`` per header value, per distinct value of each chunk of a
    numeric column (NaNs alike, -0.0 equal to 0.0), per object cell."""
    calls = len(header)
    for column in columns.values():
        for start in range(0, len(column), csvio._CHUNK):
            chunk = column[start : start + csvio._CHUNK]
            if isinstance(column, np.ndarray) and column.dtype != object:
                calls += len({"nan" if v != v else v for v in chunk.tolist()})
            else:
                calls += len(chunk)
    return calls


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(columns=column_sets(), checksum=st.booleans())
def test_column_writer_equals_per_row_reference(tmp_path_factory, columns, checksum):
    n = len(next(iter(columns.values())))
    header = {"format": "demo", **({"checksum": None} if checksum else {}), "n": n}
    path = tmp_path_factory.mktemp("w") / "a.csv"
    calls = []

    def counted_fmt(value, fmt=csvio.fmt):
        calls.append(value)
        return fmt(value)

    with mock.patch.object(csvio, "fmt", counted_fmt):
        csvio.write_artifact(path, header, columns)
    assert len(calls) == expected_fmt_calls(header, columns)

    lines = reference_lines(columns)
    head = ["# format=demo"]
    if checksum:
        head.append(f"# checksum={csvio.rows_checksum(lines)}")
    head += [f"# n={n}", ",".join(columns)]
    assert path.read_text() == "".join(line + "\n" for line in head + lines)

    # independent of fmt: NaN is blank, -0.0 is 0, every other float reads back
    for j, column in enumerate(columns.values()):
        if isinstance(column, np.ndarray) and column.dtype == float:
            cells = [line.split(",")[j] for line in lines]
            assert [cell == "" for cell in cells] == np.isnan(column).tolist()
            assert all(csvio.parse_float(c) == v for c, v in zip(cells, column.tolist()) if c)
            assert "-0" not in cells


def test_column_writer_formats_each_distinct_value_once(tmp_path):
    column = np.array([0.0, -0.0, math.nan, -math.nan, 1.5, 1.5, 0.0])
    calls = []
    with mock.patch.object(csvio, "fmt", lambda v, fmt=csvio.fmt: calls.append(v) or fmt(v)):
        csvio.write_artifact(tmp_path / "a.csv", {}, {"x": column})
    assert len(calls) == 3
    assert (tmp_path / "a.csv").read_text() == "x\n0\n0\n\n\n1.5\n1.5\n0\n"


def test_column_writer_rejects_unequal_columns(tmp_path):
    with pytest.raises(ValueError, match="columns differ in shape"):
        csvio.write_artifact(tmp_path / "a.csv", {}, {"a": np.zeros(2), "b": np.zeros(3)})
    assert not (tmp_path / "a.csv").exists()
