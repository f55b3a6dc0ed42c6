import io
import math
import os
import re
import signal
import threading
import warnings
from contextlib import contextmanager, nullcontext
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import finedating as fd
from conftest import sidecar_parts, take_datasets, write_sidecar
from finedating import csvio
from finedating.evaluate import EVAL_SCHEMA, write_eval_rows
from finedating.finedate import SUMMARY_SCHEMA
from finedating.lookup import LOOKUP_SCHEMA
from finedating.reftable import TABLE_SCHEMA
from finedating.simulate import TEST_SCHEMA


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
    csvio.write_artifacts([], [(path, ["a", "b"])])
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
    assert isinstance(back["name"], csvio.Labels) and back["name"].cells().tolist() == ["p", "q"]
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
# Cells that compare and hash alike but format apart (True is 1 is 1.0),
# beside 0.0 and -0.0, which format alike.
OBJECT_CELLS = st.one_of(st.text(alphabet="ab_-. XY", max_size=6), st.none(), FLOAT_CELLS,
                         st.sampled_from([True, False, 1, 1.0, 0.0, -0.0]))
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
def column_sets(draw, n=LENGTHS, pools=None):
    """Columns of one length, each drawn from a small pool of values so
    that a chunk repeats values, as the artifacts' columns do.  Given a
    dict of ``pools``, every column of a kind draws from that kind's one
    pool, kept there for the next column set."""
    n = draw(n)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = {}
    for k, kind in enumerate(draw(st.lists(st.sampled_from(list(KINDS)), min_size=1,
                                           max_size=5))):
        cells, dtype = KINDS[kind]
        pool = None if pools is None else pools.get(kind)
        if pool is None:
            pool = draw(st.lists(cells, min_size=1, max_size=8))
            if kind == "float" and draw(st.booleans()):  # -0.0 beside 0.0, -nan beside nan
                pool += [-value for value in pool]
            if pools is not None:
                pools[kind] = pool
        picked = [pool[i] for i in rng.integers(0, len(pool), n).tolist()]
        columns[f"{kind}{k}"] = picked if dtype is None else np.array(picked, dtype=dtype)
    return columns


@contextmanager
def counting_formats():
    """The values formatted while the block runs: one per ``fmt`` call
    made outside ``_format_numbers``, and one per value passed to
    ``_format_numbers``, which formats each of its values once."""
    calls, inside = [], []
    fmt, format_numbers = csvio.fmt, csvio._format_numbers

    def counted_fmt(value):
        if not inside:
            calls.append(value)
        return fmt(value)

    def counted_numbers(values):
        calls.extend(values.tolist())
        inside.append(values)
        try:
            return format_numbers(values)
        finally:
            inside.pop()

    with mock.patch.multiple(csvio, fmt=counted_fmt, _format_numbers=counted_numbers):
        yield calls


def reference_lines(columns) -> list[str]:
    """The per-row writer: each row's cells through ``fmt``."""
    values = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns.values()]
    return [",".join(map(csvio.fmt, row)) for row in zip(*values)]


def expected_fmt_calls(tables) -> int:
    """For ``(header, columns)`` tables written in one call: one ``fmt``
    per header value, and per step (chunk i of every table) one per
    distinct value of each numeric dtype across its columns (NaNs alike,
    -0.0 equal to 0.0) and one per distinct object cell by type and value
    across the object columns that are not label columns (columns of
    ``str`` cells only, over the call)."""
    calls = sum(len(header) for header, _ in tables)
    n = max((len(column) for _, columns in tables for column in columns.values()), default=0)
    for start in range(0, n, csvio._CHUNK):
        distinct: dict = {}
        for _, columns in tables:
            for column in columns.values():
                chunk = column[start : start + csvio._CHUNK]
                if isinstance(column, np.ndarray) and column.dtype != object:
                    distinct.setdefault(column.dtype.str, set()).update(
                        "nan" if v != v else v for v in chunk.tolist())
                elif not all(type(cell) is str for cell in column):
                    values = list(chunk)
                    distinct.setdefault("object", set()).update(zip(map(type, values), values))
        calls += sum(map(len, distinct.values()))
    return calls


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(columns=column_sets(), checksum=st.booleans())
def test_column_writer_equals_per_row_reference(tmp_path_factory, columns, checksum):
    n = len(next(iter(columns.values())))
    header = {"format": "demo", **({"checksum": None} if checksum else {}), "n": n}
    path = tmp_path_factory.mktemp("w") / "a.csv"
    with counting_formats() as calls:
        csvio.write_artifact(path, header, columns)
    assert len(calls) == expected_fmt_calls([(header, columns)])

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
    with counting_formats() as calls:
        csvio.write_artifact(tmp_path / "a.csv", {}, {"x": column})
    assert len(calls) == 3
    assert (tmp_path / "a.csv").read_text() == "x\n0\n0\n\n\n1.5\n1.5\n0\n"


# Floats at the edges of the kinds of ``_format_numbers``: NaN of either sign,
# the zeros, the infinities, the smallest subnormal, integral floats past
# int32, 2**53 and its neighbours (2**53 + 1 rounds to 2**53), and 1e15 with
# its neighbours.
EDGE_FLOATS = [math.nan, -math.nan, 0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324,
               *(sign * x for sign in (1, -1) for x in (
                   2.0**31, 1e15 - 1, 2.0**53 - 1, 2.0**53, float(2**53 + 1), 2.0**53 + 2,
                   float(np.nextafter(1e15, 0)), 1e15, float(np.nextafter(1e15, math.inf))))]
NUMBERS = {
    "float": (st.one_of(st.sampled_from(EDGE_FLOATS), st.floats()), np.float64),
    "int": (st.one_of(st.sampled_from([-2**63, -(2**63 - 1), 2**63 - 1, 0, -1]),
                      st.integers(-2**63, 2**63 - 1)), np.int64),
    "bool": (st.booleans(), np.bool_),
}


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data(), kind=st.sampled_from(list(NUMBERS)))
def test_format_numbers_equals_fmt_of_each_value(data, kind):
    # the writer passes the sorted distinct values of a step's dtype group
    cells, dtype = NUMBERS[kind]
    values = np.unique(np.array(data.draw(st.lists(cells, max_size=30)), dtype=dtype))
    strings = csvio._format_numbers(values)
    assert strings.dtype == object and strings.shape == values.shape
    assert strings.tolist() == [csvio.fmt(value) for value in values.tolist()]


BREAKS = ["a\nb", "a\rb", "\n"]
SPACED = [" a", "a ", "a\t", "\u2028a"]


# the reader splits lines at \r and \n and strips every header value and extra
# cell; a text line may start or end with whitespace but holds no break
@pytest.mark.parametrize("place, value", [
    *((place, value) for place in ("header", "extra") for value in BREAKS + SPACED),
    *(("text", value) for value in BREAKS)])
def test_writer_refuses_a_header_cell_the_reader_would_read_otherwise(tmp_path, place, value):
    old = tmp_path / "a.csv"
    old.write_text("old\n")
    header = {"format": "demo", "checksum": None, "key": value if place == "header" else "v"}
    extra = {"spec": [("a", value if place == "extra" else "b")]}
    texts = [(tmp_path / "m.txt", ["x = 1", f"y = {value}" if place == "text" else "y = 2"])]
    name = {"header": f"key {value!r}", "extra": f"spec {value!r}",
            "text": f"line {'y = ' + value!r}"}[place]
    with pytest.raises(ValueError, match=re.escape(f"{name} cannot be written to ")):
        csvio.write_artifact(tmp_path / "a.csv", header, {"x": np.arange(3)}, extra, texts)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.csv"]
    assert old.read_text() == "old\n"


def test_column_writer_rejects_unequal_columns(tmp_path):
    with pytest.raises(ValueError, match="columns differ in shape"):
        csvio.write_artifact(tmp_path / "a.csv", {}, {"a": np.zeros(2), "b": np.zeros(3)})
    assert not (tmp_path / "a.csv").exists()


def is_label(cell) -> bool:
    """A str cell that a sidecar stores as a label: printable ASCII
    without a space or a comma."""
    return type(cell) is str and all("!" <= ch <= "~" and ch != "," for ch in cell)


def has_sidecar(header, columns) -> bool:
    """Whether the writer gives an artifact a sidecar: it is of a format
    in ``SIDECAR_FORMATS``, has rows, and has only int64 and float64
    columns (NaN included) and object columns of labels."""
    return header.get("format") in csvio.SIDECAR_FORMATS and all(
        isinstance(c, np.ndarray) and c.ndim == 1 and c.size > 0
        and (c.dtype in (np.int64, np.float64)
             or (c.dtype == object and all(map(is_label, c.tolist()))))
        for c in columns.values())


@st.composite
def artifact_sets(draw):
    """1-3 column sets of different lengths whose columns of a kind share
    one pool of values, each under a header of a format with or without a
    sidecar, with or without a checksum."""
    pools: dict = {}
    return [
        ({"format": draw(st.sampled_from(["demo", *csvio.SIDECAR_FORMATS])),
          **({"checksum": None} if draw(st.booleans()) else {}), "n": n},
         draw(column_sets(n=st.just(n), pools=pools)))
        for n in draw(st.lists(LENGTHS, min_size=1, max_size=3, unique=True))
    ]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(tables=artifact_sets())
def test_lockstep_writer_equals_separate_writes(tmp_path_factory, tables):
    base = tmp_path_factory.mktemp("l")
    together = [(base / "together" / f"a{i}.csv", header, columns, None)
                for i, (header, columns) in enumerate(tables)]
    with counting_formats() as calls:
        csvio.write_artifacts(together)
    assert len(calls) == expected_fmt_calls(tables)
    names = []
    for path, header, columns, _ in together:
        alone = base / "alone" / path.name
        csvio.write_artifact(alone, header, columns)
        assert path.read_bytes() == alone.read_bytes()
        names.append(path.name)
        if has_sidecar(header, columns):
            names.append(csvio.sidecar_path(path).name)
            assert (csvio.sidecar_path(path).read_bytes()
                    == csvio.sidecar_path(alone).read_bytes())
    assert sorted(p.name for p in (base / "together").iterdir()) == sorted(names)


@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
def test_failed_lockstep_write_leaves_no_file(tmp_path, existing):
    # fmt raises on the object() cell, in the second chunk of the second artifact
    second = np.array([*range(csvio._CHUNK + 1), object()], dtype=object)
    artifacts = [(tmp_path / "a.csv", {"format": "demo", "checksum": None}, {"x": [1.5]}, None),
                 (tmp_path / "b.csv", {"format": "demo"}, {"x": second}, None)]
    if existing:
        for path, *_ in artifacts:
            path.write_text("old\n")
    with pytest.raises(TypeError):
        csvio.write_artifacts(artifacts)
    assert sorted(p.name for p in tmp_path.iterdir()) == (["a.csv", "b.csv"] if existing else [])
    assert all(p.read_text() == "old\n" for p in tmp_path.iterdir())


@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
def test_failed_sidecar_write_leaves_no_file(tmp_path, existing):
    path = tmp_path / "a.csv"
    if existing:
        path.write_text("old\n")
        csvio.sidecar_path(path).write_text("old\n")
    with mock.patch.object(csvio, "_write_sidecar", side_effect=OSError("disk full")), \
            pytest.raises(OSError, match="disk full"):
        csvio.write_artifact(path, {"format": "finedating-tests"}, {"x": np.arange(3)})
    assert sorted(p.name for p in tmp_path.iterdir()) == (["a.csv", "a.csv.cols"]
                                                          if existing else [])
    assert all(p.read_text() == "old\n" for p in tmp_path.iterdir())


@pytest.mark.parametrize("header, column", [
    ({"format": "finedating-tests"}, np.arange(0)),
    ({"format": "demo"}, np.arange(3)),
    ({"format": "finedating-tests"}, np.array(["a b"], dtype=object)),
], ids=["no rows", "format without sidecar", "str cell not a label"])
def test_rewrite_without_a_sidecar_deletes_the_old_one(tmp_path, header, column):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        csvio.write_artifact(path, {"format": "finedating-tests"}, {"x": np.arange(3)})
    csvio.write_artifacts([(a, header, {"x": column}, None),
                           (b, {"format": "finedating-tests"}, {"x": np.arange(4)}, None)])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.csv", "b.csv", "b.csv.cols"]
    assert sidecar_parts(b)[1]["x"].tolist() == [0, 1, 2, 3]


def test_lockstep_writer_checks_every_artifact_before_opening_any(tmp_path):
    artifacts = [(tmp_path / "out" / "a.csv", {}, {"x": np.zeros(2)}, None),
                 (tmp_path / "out" / "b.csv", {}, {"a": np.zeros(2), "b": np.zeros(3)}, None)]
    with pytest.raises(ValueError, match="columns differ in shape"):
        csvio.write_artifacts(artifacts)
    assert not (tmp_path / "out").exists()


# --- the forked writer -------------------------------------------------------


@contextmanager
def forking(chunk: int):
    """Steps of ``chunk`` rows, and a fork for every call of two steps or
    more, as on a machine of two CPUs; yields ``os.fork``, counting."""
    with mock.patch.object(csvio, "_CHUNK", chunk), mock.patch.object(csvio, "_FORK_CELLS", 0), \
            mock.patch.object(csvio, "_usable_cpus", return_value=2), \
            mock.patch.object(os, "fork", wraps=os.fork) as fork:
        yield fork


def no_child_left() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def files_in(base: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted(base.iterdir())}


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(tables=artifact_sets(), chunk=st.sampled_from([1, 2, 7, 64]))
def test_forked_writer_equals_serial_writer(tmp_path_factory, tables, chunk):
    base = tmp_path_factory.mktemp("f")
    steps = -(-max(len(next(iter(columns.values()))) for _, columns in tables) // chunk)
    written, forks = {}, {}
    for mode, cells in (("forked", 0), ("serial", 10**18)):
        artifacts = [(base / mode / f"a{i}.csv", header, columns, None)
                     for i, (header, columns) in enumerate(tables)]
        with forking(chunk) as fork, mock.patch.object(csvio, "_FORK_CELLS", cells):
            csvio.write_artifacts(artifacts)
        written[mode], forks[mode] = files_in(base / mode), fork.call_count
        assert no_child_left()
    assert forks == {"forked": int(steps > 1), "serial": 0}
    assert written["forked"] == written["serial"]


class Unformattable:
    def __float__(self):
        raise ValueError("this cell has no float")


def old_files(tmp_path, existing: bool, *names) -> dict[str, bytes]:
    for name in names if existing else ():
        (tmp_path / name).write_text("old\n")
    return files_in(tmp_path)


@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
def test_failed_step_of_the_child_raises_as_the_serial_call(tmp_path, existing):
    # rows of 4 a step: row 13 is in step 3, which the child formats
    column = np.array([*range(13), Unformattable(), 14.5], dtype=object)
    artifacts = [(tmp_path / "a.csv", {"format": "demo", "checksum": None},
                  {"x": np.arange(15.0)}, None),
                 (tmp_path / "b.csv", {"format": "finedating-tests"}, {"x": column}, None)]
    before = old_files(tmp_path, existing, "a.csv", "b.csv")
    raised = {}
    for mode, cells in (("forked", 0), ("serial", 10**18)):
        with forking(4) as fork, mock.patch.object(csvio, "_FORK_CELLS", cells), \
                pytest.raises(Exception) as caught:
            csvio.write_artifacts(artifacts)
        raised[mode] = type(caught.value), str(caught.value), fork.call_count
        assert files_in(tmp_path) == before
        assert no_child_left()
    assert raised == {"forked": (ValueError, "this cell has no float", 1),
                      "serial": (ValueError, "this cell has no float", 0)}


@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
def test_failed_write_of_the_parent_ends_the_child(tmp_path, monkeypatch, existing):
    real_open = open

    class FullDisk:
        """A file that takes 100 bytes, then fails each write."""

        def __init__(self, fh):
            self.fh, self.room = fh, 100

        def write(self, data):
            self.room -= len(data)
            if self.room < 0:
                raise OSError("No space left on device")
            return self.fh.write(data)

        def close(self):
            self.fh.close()

    def failing_open(path, *args, **kwargs):
        fh = real_open(path, *args, **kwargs)
        return FullDisk(fh) if str(path).startswith(str(tmp_path / "b.csv.tmp-")) else fh

    monkeypatch.setattr(csvio, "open", failing_open, raising=False)
    artifacts = [(tmp_path / "a.csv", {"format": "finedating-tests"}, {"x": np.arange(400)}, None),
                 (tmp_path / "b.csv", {"format": "demo"}, {"x": np.arange(400.5, 800)}, None)]
    before = old_files(tmp_path, existing, "a.csv", "a.csv.cols", "b.csv")
    with forking(8) as fork, pytest.raises(OSError, match="No space left on device") as caught:
        csvio.write_artifacts(artifacts)
    # reaped before the call raised: its frames, held by the traceback, are alive
    assert caught.value.__traceback__ is not None
    assert no_child_left()
    assert fork.call_count == 1
    assert files_in(tmp_path) == before


def killed(*args):
    os.kill(os.getpid(), signal.SIGKILL)


def killed_mid_step(out, tables, start, send=csvio._send_step):
    """Send the first 12 bytes of the step, its first length and part of
    its chunk, then die."""
    step = io.BytesIO()
    send(step, tables, start)
    out.write(step.getvalue()[:12])
    out.flush()
    killed()


@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
@pytest.mark.parametrize("death", [killed, killed_mid_step], ids=["before-step", "mid-step"])
def test_child_that_ends_without_its_step_leaves_it_to_the_writer(tmp_path, existing, death):
    written = {}
    for mode, cells in (("killed", 0), ("serial", 10**18)):
        (tmp_path / mode).mkdir()
        old_files(tmp_path / mode, existing, "a.csv", "a.csv.cols")
        artifacts = [(tmp_path / mode / "a.csv", {"format": "finedating-eval", "checksum": None},
                      {"x": np.arange(40)}, None)]
        with forking(4) as fork, mock.patch.object(csvio, "_FORK_CELLS", cells), \
                mock.patch.object(csvio, "_send_step", death):
            csvio.write_artifacts(artifacts)
        written[mode] = files_in(tmp_path / mode), fork.call_count
        assert no_child_left()
    assert written["killed"][0] == written["serial"][0]
    assert sorted(written["killed"][0]) == ["a.csv", "a.csv.cols"]
    assert (written["killed"][1], written["serial"][1]) == (1, 0)


@contextmanager
def another_thread():
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        yield
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


@pytest.mark.parametrize("cpus, case, forks", [
    ({0}, "affinity", 0), ({0, 1}, "affinity", 1), (1, "cpu_count", 0), (2, "cpu_count", 1),
    ({0, 1}, "no fork", 0), ({0, 1}, "another thread", 0), ({0, 1}, "fork fails", 1),
], ids=["one cpu", "two cpus", "one cpu counted", "two cpus counted", "no os.fork",
        "another python thread", "fork fails"])
def test_writer_forks_only_where_two_cpus_and_one_thread_can_run(tmp_path, monkeypatch, cpus,
                                                                 case, forks):
    if case == "cpu_count":  # a platform without sched_getaffinity
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    fork = mock.Mock(wraps=os.fork)
    if case == "fork fails":  # the call is formatted serially
        fork.side_effect = BlockingIOError(11, "Resource temporarily unavailable")
    if case == "no fork":
        monkeypatch.delattr(os, "fork")
    else:
        monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(csvio, "_CHUNK", 4)
    monkeypatch.setattr(csvio, "_FORK_CELLS", 0)
    fds = os.listdir("/proc/self/fd") if os.path.isdir("/proc/self/fd") else None
    with another_thread() if case == "another thread" else nullcontext():
        csvio.write_artifact(tmp_path / "a.csv", {}, {"x": np.arange(40) + 0.5})
    assert fork.call_count == forks
    assert (tmp_path / "a.csv").read_text() == "x\n" + "".join(f"{x + 0.5}\n" for x in range(40))
    assert no_child_left()
    if fds is not None:  # the pipe is closed
        assert sorted(os.listdir("/proc/self/fd")) == sorted(fds)


def test_fork_warning_of_a_threaded_process_is_not_shown(tmp_path):
    # Python 3.12 warns so, from os.fork, when the process has other threads
    real_fork = os.fork

    def fork_of_a_threaded_process():
        warnings.warn(f"This process (pid={os.getpid()}) is multi-threaded, use of fork() "
                      "may lead to deadlocks in the child.", DeprecationWarning, stacklevel=2)
        return real_fork()

    with forking(4), mock.patch.object(os, "fork", wraps=fork_of_a_threaded_process) as fork, \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        csvio.write_artifact(tmp_path / "a.csv", {}, {"x": np.arange(40)})
    assert fork.call_count == 1
    assert (tmp_path / "a.csv").read_text() == "x\n" + "".join(f"{x}\n" for x in range(40))


# --- the block reader against the line reader --------------------------------

SCHEMAS = {
    "finedating-reftable": TABLE_SCHEMA,
    "finedating-tests": TEST_SCHEMA,
    "finedating-eval": EVAL_SCHEMA,
    "finedating-lookup": LOOKUP_SCHEMA,
    "finedating-summary": SUMMARY_SCHEMA,
}
SPECS = [("5_10_20", 5, 10, 20.0, -300, 20, 1), ("5_20_5", 5, 20, 5.0, -300, 20, 2)]
# What each parser's column may hold in a file the writer wrote and the
# line reader accepts: ``float`` cells are never blank, so never NaN.
PARSER_CELLS = {
    int: (INT_CELLS, np.int64),
    float: (st.one_of(st.sampled_from([x for x in SPECIAL_FLOATS if x == x]),
                      st.floats(allow_nan=False)), float),
    csvio.parse_float: (FLOAT_CELLS, float),
    str.strip: (st.text(alphabet="ab_XY-.09", max_size=6), object),
}
# Data-block step sizes, so that blank and ``#`` lines fall on step edges.
BLOCKS = st.sampled_from([1, 2, 7, 64, csvio._BLOCK])


@st.composite
def schema_files(draw, min_rows=0, kinds=st.sampled_from(list(SCHEMAS))):
    """A schema, a header and its columns, as the writer takes them."""
    kind = draw(kinds)
    schema = SCHEMAS[kind]
    n = draw(st.one_of(st.sampled_from([0, 1, csvio._CHUNK, csvio._CHUNK + 1]),
                       st.integers(0, 40)).filter(lambda k: k >= min_rows))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = {}
    for name, parse in schema.items():
        cells, dtype = PARSER_CELLS[parse]
        pool = draw(st.lists(cells, min_size=1, max_size=6))
        columns[name] = np.array([pool[i] for i in rng.integers(0, len(pool), n).tolist()],
                                 dtype=dtype)
    header = {"format": kind, **({"checksum": None} if draw(st.booleans()) else {}), "n": n}
    return kind, header, columns


def write_schema_file(path, kind, header, columns) -> tuple:
    """Write the file; the reader arguments that read it back."""
    spec = kind == "finedating-reftable"
    csvio.write_artifact(path, header, columns, extra={"spec": SPECS} if spec else None)
    return path, kind, SCHEMAS[kind], ("spec",) if spec else ()


def outcome(read, *args):
    """What a reader gives: the header, column names and each column's
    dtype and bytes, or a label column's names and codes; or the type and
    message of its ValueError."""
    try:
        meta, names, body = read(*args)
    except ValueError as exc:
        return type(exc), str(exc)
    return meta, names, {
        name: (csvio.Labels, col.names.tolist(), col.codes.tolist())
        if isinstance(col, csvio.Labels)
        else (col.dtype.str, col.flags.c_contiguous, col.tobytes())
        for name, col in body.items()
    }


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(drawn=schema_files(), block=BLOCKS)
def test_block_reader_equals_line_reader_on_written_files(tmp_path_factory, drawn, block):
    # only a written file with a sidecar is read by the block reader
    _, header, columns = drawn
    args = write_schema_file(tmp_path_factory.mktemp("b") / "a.csv", *drawn)
    with mock.patch.object(csvio, "_BLOCK", block):
        fast = csvio._read_block(*args)
    assert (fast is not None) == has_sidecar(header, columns)
    if fast is not None:
        assert outcome(lambda: fast) == outcome(csvio._read_lines, *args)
        assert all(type(cell) is str for col in fast.body.values()
                   if isinstance(col, csvio.Labels) for cell in col.names.tolist())


# Cells that keep a str column out of a sidecar: non-ASCII, a comma (which
# makes the row ragged), a space.
NON_LABELS = ["é", "aΩ", ",", "a,b", "x y"]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(drawn=schema_files(min_rows=1, kinds=st.one_of(st.just("finedating-eval"),
                                                      st.sampled_from(list(SCHEMAS)))),
       checksum=st.booleans(), negate=st.booleans(),
       bad=st.one_of(st.none(), st.tuples(st.sampled_from(NON_LABELS), st.integers(0, 2**16))))
def test_sidecar_read_equals_line_reader(tmp_path_factory, drawn, checksum, negate, bad):
    # The draws hold NaN in parse_float columns, -0.0 in float columns, and
    # str columns of repeated and empty labels (the eval rows, the one
    # sidecar format with str columns, are drawn about half the time);
    # ``negate`` turns each float column's NaN into -nan and 0.0 into -0.0,
    # and ``bad`` puts one cell of NON_LABELS in a str column.
    kind, header, columns = drawn
    header = {**header, "checksum": None} if checksum else header
    if negate:
        columns = {name: -c if c.dtype == float else c for name, c in columns.items()}
    strs = [name for name, parse in SCHEMAS[kind].items() if parse is str.strip]
    if bad and strs:
        cell, k = bad
        column = columns[strs[k % len(strs)]]
        column[k % column.size] = cell
    args = write_schema_file(tmp_path_factory.mktemp("s") / "a.csv", kind, header, columns)
    assert csvio.sidecar_path(args[0]).exists() == has_sidecar(header, columns)
    # the writer gives no sidecar to a str column with a cell that is not a
    # label (a space, a non-ASCII byte; _sidecar_labels)
    with mock.patch.object(csvio, "_read_lines", wraps=csvio._read_lines) as parse:
        got = outcome(csvio.read_commented_csv, *args)
    assert parse.called == (not has_sidecar(header, columns))
    assert got == outcome(csvio._read_lines, *args)


def _column_of(schema, parser, rng) -> int:
    return int(rng.choice([i for i, parse in enumerate(schema.values()) if parse is parser]))


DAMAGES = ["ragged row", "blank line", "crlf", "space after comma", "comment line",
           "3.0 in int cell", "blank float cell", "int beyond int64", "non-utf-8 byte",
           "no final newline", "tab in a cell", "DEL byte", "blank line after the last row",
           "comment line as the first data row"]


def damaged(data: bytes, name: str, schema: dict, rng) -> bytes:
    """The written file ``data`` with damage ``name`` done to one data row
    (or, for crlf, the final newline and the last or first row, to the
    whole file)."""
    lines = data.split(b"\n")[:-1]
    first = next(i for i, line in enumerate(lines) if not line.startswith(b"#")) + 1
    row = int(rng.integers(first, len(lines)))
    cells = lines[row].split(b",")
    if name == "ragged row":
        cells.append(b"1")
    elif name == "blank line":
        lines.insert(row, b"")
        row += 1
    elif name == "space after comma":
        j = int(rng.integers(1, len(cells)))
        cells[j] = b" " + cells[j]
    elif name == "comment line":  # cells the schema would parse, were it data
        lines.insert(row, b"#note=" + lines[row])
        row += 1
    elif name == "3.0 in int cell":
        cells[_column_of(schema, int, rng)] = b"3.0"
    elif name == "blank float cell":
        cells[_column_of(schema, float, rng)] = b""
    elif name == "int beyond int64":
        cells[_column_of(schema, int, rng)] = b"9223372036854775808"
    elif name == "non-utf-8 byte":
        cells[-1] += b"\xff"
    elif name == "tab in a cell":
        j = int(rng.integers(0, len(cells)))
        cells[j] = b"\t" + cells[j]
    elif name == "DEL byte":
        cells[-1] += b"\x7f"
    elif name == "blank line after the last row":
        lines.append(b"")
    elif name == "comment line as the first data row":
        lines.insert(first, b"#note=" + lines[first])
        row += 1
    lines[row] = b",".join(cells)
    text = b"".join(line + b"\n" for line in lines)
    if name == "crlf":
        return text.replace(b"\n", b"\r\n")
    return text[:-1] if name == "no final newline" else text


@settings(max_examples=210, deadline=None, derandomize=True, database=None)
@given(drawn=schema_files(min_rows=1), name=st.sampled_from(DAMAGES),
       seed=st.integers(0, 2**32 - 1), block=BLOCKS)
def test_damaged_file_reads_as_the_line_reader_reads_it(tmp_path_factory, drawn, name, seed,
                                                        block):
    args = write_schema_file(tmp_path_factory.mktemp("d") / "a.csv", *drawn)
    path, _, schema, _ = args
    path.write_bytes(damaged(path.read_bytes(), name, schema, np.random.default_rng(seed)))
    with mock.patch.object(csvio, "_BLOCK", block):
        assert csvio._read_block(*args) is None
        assert outcome(csvio.read_commented_csv, *args) == outcome(csvio._read_lines, *args)


# Edits of a written header that leave its data block, and so its sidecar's
# crc32 and byte length, as they were.
HEADER_DAMAGES = {
    "non-utf-8 header value": (b"# n=3\n", b"# n=3\xff\n"),
    "lone cr in a header line": (b"# n=3\n", b"# n=3\r# m=4\n"),
    "other format": (b"# format=finedating-tests\n", b"# format=finedating-eval\n"),
    "renamed column": (b"data_id,", b"id,"),
}


@pytest.mark.parametrize("damage", list(HEADER_DAMAGES))
def test_damaged_header_reads_as_the_line_reader_reads_it(tmp_path, damage):
    columns = {name: np.arange(3) if parse is int else np.arange(3.0)
               for name, parse in TEST_SCHEMA.items()}
    args = write_schema_file(tmp_path / "a.csv", "finedating-tests",
                             {"format": "finedating-tests", "n": 3}, columns)
    assert csvio._read_block(*args) is not None
    old, new = HEADER_DAMAGES[damage]
    data = args[0].read_bytes()
    assert data.count(old) == 1
    args[0].write_bytes(data.replace(old, new))
    assert csvio._read_block(*args) is None
    assert outcome(csvio.read_commented_csv, *args) == outcome(csvio._read_lines, *args)


@pytest.mark.parametrize("parse, column", [
    (csvio.parse_float, np.array([np.nan, 1.0])),
    (str.strip, np.array(["#a", "b"], dtype=object)),
], ids=["blank first cell", "first cell starts with #"])
def test_sidecar_of_a_schema_without_an_int_first_column_is_not_read(tmp_path, parse, column):
    # The writer gives both files a sidecar, but their first data line is
    # blank or starts with "#", which the line reader skips: only a schema
    # whose first column is int, whose cells never read so, takes a sidecar.
    path = tmp_path / "a.csv"
    csvio.write_artifact(path, {"format": "finedating-tests"}, {"x": column})
    assert csvio.sidecar_path(path).exists()
    args = path, "finedating-tests", {"x": parse}, ()
    assert outcome(csvio.read_commented_csv, *args) == outcome(csvio._read_lines, *args)


@pytest.mark.parametrize("kind", list(SCHEMAS))
def test_read_without_a_sidecar_opens_the_file_once(tmp_path, kind):
    cells = {int: np.arange(3), float: np.arange(3.0), csvio.parse_float: np.arange(3.0),
             str.strip: np.array(["a", "b", "c"], dtype=object)}
    columns = {name: cells[parse] for name, parse in SCHEMAS[kind].items()}
    args = write_schema_file(tmp_path / "a.csv", kind, {"format": kind}, columns)
    csvio.sidecar_path(args[0]).unlink(missing_ok=True)
    with mock.patch.object(csvio, "open", wraps=open, create=True) as opened:
        got = outcome(csvio.read_commented_csv, *args)
    assert [call.args[0] for call in opened.call_args_list].count(args[0]) == 1
    assert got == outcome(csvio._read_lines, *args)


@pytest.mark.parametrize("kind", list(SCHEMAS))
def test_empty_body_reads_without_loadtxt_or_warning(tmp_path, kind):
    schema = SCHEMAS[kind]
    args = write_schema_file(tmp_path / "e.csv", kind, {"format": kind, "checksum": None},
                             {name: [] for name in schema})
    dtypes = {int: np.int64, float: np.float64, csvio.parse_float: np.float64, str.strip: object}
    with mock.patch.object(np, "loadtxt", side_effect=AssertionError("loadtxt called")), \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        _, names, body = csvio.read_commented_csv(*args)
    assert names == list(schema)
    assert {name: (col.names.dtype if isinstance(col, csvio.Labels) else col.dtype, col.shape)
            for name, col in body.items()} == {
        name: (np.dtype(dtypes[parse]), (0,)) for name, parse in schema.items()
    }


# --- label columns given as codes ---------------------------------------------


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data(), mode=st.sampled_from(["serial", "forked"]), checksum=st.booleans())
def test_given_labels_write_the_bytes_of_their_object_column(tmp_path_factory, data, mode,
                                                              checksum):
    # names that _LABEL_BYTES takes (the empty one included) and two it refuses
    names = data.draw(st.lists(st.sampled_from(["CalDate_Mean", "no_match", "a.b", "x-1", "",
                                                "has space", "naïve"]),
                               min_size=1, max_size=6, unique=True))
    n = data.draw(st.integers(1, 40))
    picks = data.draw(st.lists(st.integers(0, len(names) - 1), min_size=n, max_size=n))
    column = np.array([names[i] for i in picks], dtype=object)
    # the same cells as codes: the names in another order, beside names no row uses
    order = data.draw(st.permutations(range(len(names))))
    unused = data.draw(st.lists(st.sampled_from(["unused", "also unused"]), unique=True))
    labels = csvio.Labels(np.argsort(order)[picks],
                          np.array([*(names[i] for i in order), *unused], dtype=object))
    assert labels.cells().tolist() == column.tolist()
    header = {"format": "finedating-eval", **({"checksum": None} if checksum else {})}
    base = tmp_path_factory.mktemp("g")
    for kind, given in (("object", column), ("labels", labels)):
        path = base / kind / "eval.csv"
        # an old sidecar, which a write that gets none deletes
        csvio.write_artifact(path, {"format": "finedating-tests"},
                             {"id": np.arange(2), "x": np.array(["old", "old"], dtype=object)})
        assert csvio.sidecar_path(path).exists()
        columns = {"id": np.arange(n), "label": given, "value": np.linspace(-1.0, 1.0, n),
                   "reversed": column[::-1].copy()}
        with forking(4) if mode == "forked" else nullcontext() as fork:
            csvio.write_artifact(path, header, columns)
        if mode == "forked":
            assert fork.call_count == int(n > 4)
        assert no_child_left()
    assert files_in(base / "object") == files_in(base / "labels")
    assert (base / "labels" / "eval.csv").read_text().splitlines()[-n:] == reference_lines(
        {"id": np.arange(n), "label": column, "value": np.linspace(-1.0, 1.0, n),
         "reversed": column[::-1]})
    has_labels = all(map(is_label, column.tolist()))
    assert csvio.sidecar_path(base / "labels" / "eval.csv").exists() == has_labels
    if has_labels:
        assert (sidecar_parts(base / "labels" / "eval.csv")[0]["labels"]["label"]
                == list(dict.fromkeys(column.tolist())))


def test_read_with_labels_gives_codes_into_distinct_names(tmp_path):
    path = tmp_path / "e.csv"
    csvio.write_artifact(path, {"format": "finedating-eval"},
                         {"id": np.arange(5), "name": np.array(list("babca"), dtype=object)})
    schema = {"id": int, "name": str.strip}
    reads = {}
    head, columns = sidecar_parts(path)
    for source in ("sidecar", "repeated label", "lines"):
        if source == "repeated label":  # a sidecar whose labels repeat is not taken
            columns["name"][0] = 3
            write_sidecar(path, {**head, "labels": {"name": ["b", "a", "c", "b"]}}, columns)
            assert csvio._read_block(path, "finedating-eval", schema, ()) is None
        if source == "lines":
            csvio.sidecar_path(path).unlink()
        labels = csvio.read_commented_csv(path, "finedating-eval", schema).body["name"]
        reads[source] = labels.names.tolist(), labels.codes.tolist()
    assert list(reads.values()) == [(["b", "a", "c"], [0, 1, 0, 2, 1])] * 3


def test_given_labels_of_other_cells_write_as_their_object_column(tmp_path):
    labels = csvio.Labels(np.array([0, 1, 2, 3, 1, 0]),
                          np.array([None, 2.5, True, "a"], dtype=object))
    for kind, column in (("object", labels.cells()), ("labels", labels)):
        csvio.write_artifact(tmp_path / kind / "a.csv", {"format": "finedating-eval"},
                             {"id": np.arange(6), "x": column})
    assert files_in(tmp_path / "object") == files_in(tmp_path / "labels") == {
        "a.csv": b"# format=finedating-eval\nid,x\n0,\n1,2.5\n2,true\n3,a\n4,2.5\n5,\n"}


# Damage inside a sidecar: the flipped byte and the truncation only its
# columns' crc32 tells, each other damage under a crc32 of the bytes as they
# are, so that only the damage named is wrong.
SIDECAR_DAMAGES = ["flipped byte in a column member", "truncated sidecar",
                   "header naming another layout", "extra member", "trailing bytes",
                   "label code out of range", "column offset past the end"]


def sidecar_file(path, kind, table, datasets, rows) -> tuple[tuple, str]:
    """The read arguments of a written file of ``kind`` and its sidecar,
    and the name of one of its float columns."""
    if kind == "finedating-reftable":
        fd.write_table(table, path)
        column = "cal_mean"
    elif kind == "finedating-tests":
        fd.write_tests(take_datasets(datasets, range(0, 6100, 61)), path)
        column = "cal_median"
    else:
        write_eval_rows(rows[:1200], path)
        column = "delta"
    return (path, kind, SCHEMAS[kind], ("spec",) if kind == "finedating-reftable" else ()), column


@pytest.mark.parametrize("kind, damage", [
    (kind, damage) for kind in csvio.SIDECAR_FORMATS for damage in SIDECAR_DAMAGES
    if damage != "label code out of range" or kind == "finedating-eval"])
def test_damaged_sidecar_reads_as_the_line_reader_reads_it(tmp_path, table_5_20_5, ts3_datasets,
                                                           eval_rows, kind, damage):
    args, column = sidecar_file(tmp_path / "a.csv", kind, table_5_20_5, ts3_datasets, eval_rows)
    sidecar = csvio.sidecar_path(args[0])
    head, columns = sidecar_parts(args[0])
    data = sidecar.read_bytes()
    if damage == "flipped byte in a column member":
        cells = columns[column].tobytes()
        at = data.index(cells) + len(cells) // 2
        sidecar.write_bytes(data[:at] + bytes([data[at] ^ 1]) + data[at + 1:])
    elif damage == "truncated sidecar":
        sidecar.write_bytes(data[: len(data) // 2])
    elif damage == "header naming another layout":
        write_sidecar(args[0], {**head, "layout": "finedating-columns-0"}, columns)
    elif damage == "extra member":  # a column that the schema does not have
        write_sidecar(args[0], head, {**columns, "extra": np.zeros(len(columns[column]))})
    elif damage == "trailing bytes":
        write_sidecar(args[0], head, columns, tail=bytes(8))
    elif damage == "label code out of range":
        columns["indicator"][-1] = len(head["labels"]["indicator"])
        write_sidecar(args[0], head, columns)
    else:
        layout, end = csvio._layout([(name, c.dtype.str) for name, c in columns.items()],
                                    len(columns[column]))
        layout[-1][2] = end
        write_sidecar(args[0], {**head, "columns": layout}, columns)
    lines = outcome(csvio._read_lines, *args)
    assert csvio._read_block(*args) is None
    assert outcome(csvio.read_commented_csv, *args) == lines
    sidecar.unlink()
    assert outcome(csvio.read_commented_csv, *args) == lines


@pytest.mark.parametrize("kind", csvio.SIDECAR_FORMATS)
def test_fresh_sidecar_is_read(tmp_path, table_5_20_5, ts3_datasets, eval_rows, kind):
    args, _ = sidecar_file(tmp_path / "a.csv", kind, table_5_20_5, ts3_datasets, eval_rows)
    with mock.patch.object(csvio, "_read_lines", side_effect=AssertionError("parsed")):
        assert csvio._read_block(*args) is not None
        csvio.read_commented_csv(*args)


@pytest.mark.parametrize("kind", csvio.SIDECAR_FORMATS)
def test_sidecar_columns_are_writable(tmp_path, table_5_20_5, ts3_datasets, eval_rows, kind):
    args, _ = sidecar_file(tmp_path / "a.csv", kind, table_5_20_5, ts3_datasets, eval_rows)
    body = csvio._read_block(*args).body
    for column in body.values():
        column = column.codes if isinstance(column, csvio.Labels) else column
        assert column.flags.writeable
        column[0] = column[-1]
