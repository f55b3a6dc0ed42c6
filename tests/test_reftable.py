import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import finedating as fd
from finedating import csvio
from finedating.reftable import (
    COMBO_COMPONENTS,
    STANDARD_SPECS,
    edge_warnings,
    match_ages,
)


def same_columns(a: fd.RefTable, b: fd.RefTable) -> bool:
    return all(np.array_equal(x, y) for x, y in zip(a.columns(), b.columns()))


def test_spec_slice_arithmetic():
    spec = fd.standard_spec("5_20_5", seed=1)
    assert spec.n_slices == 65
    assert spec.n_records == 1300
    spec = fd.standard_spec("1_50_5", seed=1)
    assert spec.n_slices == 200
    assert spec.n_records == 10_000


def test_spec_rejects_empty_and_bad_span():
    with pytest.raises(ValueError, match="empty spec"):
        fd.RefTableSpec(label="x", year_interval=5, per_slice=0, sd=5, span=(-50, 0), seed=1)
    with pytest.raises(ValueError, match="oldest"):
        fd.RefTableSpec(label="x", year_interval=5, per_slice=1, sd=5, span=(0, -50), seed=1)
    with pytest.raises(ValueError, match="whole number"):
        fd.RefTableSpec(label="x", year_interval=5, per_slice=1, sd=5, span=(-52, 0), seed=1)


def test_standard_specs_cover_expected_totals():
    totals = {
        "1_50_5": 10_000,
        "5_10_20": 650,
        "5_20_5": 1300,
        "5_50_5": 3250,
        "5_50_20": 3250,
        "5_80_5": 5200,
        "5_100_0": 6500,
        "5_100_5": 6500,
    }
    for label, expected in totals.items():
        assert fd.standard_spec(label, seed=0).n_records == expected
    assert sum(fd.standard_spec(l, 0).n_records for l in COMBO_COMPONENTS) == 26_000


def test_build_shape_and_grid(table_5_20_5):
    assert len(table_5_20_5) == 1300
    dates = set(table_5_20_5.base_date.tolist())
    assert dates == set(fd.standard_spec("5_20_5", 0).slice_dates())
    assert table_5_20_5.id.tolist() == list(range(1, 1301))


def test_build_rejects_span_outside_domain(flat_curve):
    spec = fd.RefTableSpec(label="x", year_interval=5, per_slice=1, sd=5, span=(-500, 0), seed=1)
    with pytest.raises(ValueError, match="outside curve domain"):
        fd.build_reference_table(flat_curve, spec)


def test_combo_concatenates_components(study_curve):
    spec = fd.RefTableSpec(
        label="small", year_interval=10, per_slice=3, sd=5, span=(-100, -50), seed=5
    )
    single = fd.build_combo_table(study_curve, [spec])
    direct = fd.build_reference_table(study_curve, spec)
    assert same_columns(single, direct)

    double = fd.build_combo_table(study_curve, [spec, spec])
    assert len(double) == 2 * len(direct)
    assert double.id.tolist() == list(range(1, 2 * len(direct) + 1))


def test_combo_rejects_mismatched_spans(study_curve):
    a = fd.RefTableSpec(label="a", year_interval=10, per_slice=2, sd=5, span=(-100, -50), seed=1)
    b = fd.RefTableSpec(label="b", year_interval=10, per_slice=2, sd=5, span=(-90, -40), seed=1)
    with pytest.raises(ValueError, match="incompatible specs"):
        fd.build_combo_table(study_curve, [a, b])
    with pytest.raises(ValueError, match="empty spec"):
        fd.build_combo_table(study_curve, [])


def test_write_read_roundtrip(tmp_path, study_curve):
    spec = fd.RefTableSpec(
        label="rt", year_interval=10, per_slice=3, sd=5, span=(-100, -50), seed=5
    )
    table = fd.build_reference_table(study_curve, spec)
    path = tmp_path / "rt.csv"
    fd.write_table(table, path)
    back = fd.read_table(path)
    assert same_columns(back, table)
    assert back.specs == table.specs
    assert back.label == table.label


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("column", ["sd", "cal_mean", "cal_median", "cal_sigma"])
def test_write_refuses_a_non_finite_value_before_opening_a_file(tmp_path, study_curve, column,
                                                                value):
    # the reader's own check: a NaN would be written as a blank cell, which the
    # reader refuses
    spec = fd.RefTableSpec(label="rt", year_interval=10, per_slice=3, sd=5, span=(-100, -50),
                           seed=5)
    table = fd.build_reference_table(study_curve, spec)
    cells = getattr(table, column).copy()
    cells[2] = value
    with pytest.raises(ValueError, match=f"record 3 has {column} {value}, not a finite number"):
        fd.write_table(dataclasses.replace(table, **{column: cells}), tmp_path / "t.csv")
    assert list(tmp_path.iterdir()) == []


def test_read_rejects_truncated_file(tmp_path, study_curve):
    spec = fd.RefTableSpec(
        label="rt", year_interval=10, per_slice=3, sd=5, span=(-100, -50), seed=5
    )
    fd.write_table(fd.build_reference_table(study_curve, spec), tmp_path / "t.csv")
    lines = (tmp_path / "t.csv").read_text().splitlines()
    (tmp_path / "trunc.csv").write_text("\n".join(lines[:-2]) + "\n")
    with pytest.raises(ValueError, match="corrupt table"):
        fd.read_table(tmp_path / "trunc.csv")


def test_read_rejects_tampered_data(tmp_path, study_curve):
    spec = fd.RefTableSpec(
        label="rt", year_interval=10, per_slice=3, sd=5, span=(-100, -50), seed=5
    )
    fd.write_table(fd.build_reference_table(study_curve, spec), tmp_path / "t.csv")
    text = (tmp_path / "t.csv").read_text()
    lines = text.splitlines()
    lines[-1] = lines[-1].replace(lines[-1].split(",")[2], "1234")
    (tmp_path / "t2.csv").write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="corrupt table"):
        fd.read_table(tmp_path / "t2.csv")


HAND_ROWS = ["1,-55,2005,5,-56.5,-57,9.25", "2,-50,2001,5,-51,-50.5,8.5"]


def hand_built_text(checksum: bool = True) -> str:
    return (
        "# format=finedating-reftable\n"
        "# label=hand\n"
        "# curve=none\n"
        "# seed=1\n"
        "# records=2\n"
        + (f"# checksum={csvio.rows_checksum(HAND_ROWS)}\n" if checksum else "")
        + "# spec=hand,5,1,5,-55,-50,1\n"
        "id,cal_date,age_bp,sd,cal_mean,cal_median,cal_sigma\n"
        + "".join(row + "\n" for row in HAND_ROWS)
    )


def test_read_hand_built_file(tmp_path):
    (tmp_path / "hand.csv").write_text(hand_built_text())
    table = fd.read_table(tmp_path / "hand.csv")
    assert len(table) == 2
    assert (table.id[0], table.base_date[0], table.age[0], table.sd[0]) == (1, -55.0, 2005, 5.0)
    assert (table.cal_mean[0], table.cal_median[0], table.cal_sigma[0]) == (-56.5, -57.0, 9.25)


def test_read_requires_checksum_header(tmp_path):
    (tmp_path / "hand.csv").write_text(hand_built_text(checksum=False))
    with pytest.raises(ValueError, match="corrupt table: .* has no checksum header"):
        fd.read_table(tmp_path / "hand.csv")


def test_rebuild_is_byte_identical(tmp_path, study_curve):
    spec = fd.RefTableSpec(
        label="det", year_interval=10, per_slice=5, sd=20, span=(-150, -50), seed=99
    )
    fd.write_table(fd.build_reference_table(study_curve, spec), tmp_path / "a.csv")
    fd.write_table(fd.build_reference_table(study_curve, spec), tmp_path / "b.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_per_slice_mean_tracks_curve(table_5_50_5, study_curve):
    for date in np.unique(table_5_50_5.base_date).tolist():
        ages = table_5_50_5.age[table_5_50_5.base_date == date]
        mu, sig = fd.curve_at(study_curve, date)
        tol = 4.0 * np.sqrt(5.0**2 + sig**2) / np.sqrt(ages.size)
        assert abs(np.mean(ages) - mu) <= tol


def test_scatter_tracks_curve(table_5_50_5, study_curve):
    mus = np.array([fd.curve_at(study_curve, date)[0] for date in table_5_50_5.base_date])
    assert np.corrcoef(table_5_50_5.age, mus)[0, 1] > 0.99


def test_edge_warnings_fire_near_span_edges(table_5_20_5, study_curve):
    warnings = edge_warnings(table_5_20_5, [0.0], curve=study_curve, sd=20.0)
    assert any("young edge" in w for w in warnings)
    assert not any(
        "young edge" in w
        for w in edge_warnings(table_5_20_5, [-150.0], curve=study_curve, sd=5.0)
    )


def test_unknown_standard_label_rejected():
    with pytest.raises(ValueError, match="unknown table variant"):
        fd.standard_spec("9_9_9", seed=0)


@pytest.mark.parametrize("sd", [-3.0, float("nan"), float("inf")])
def test_spec_rejects_negative_or_non_finite_sd(sd):
    with pytest.raises(ValueError, match="sd must be finite and >= 0"):
        fd.RefTableSpec(label="x", year_interval=5, per_slice=1, sd=sd, span=(-50, 0), seed=1)


# --- the binary sidecar -------------------------------------------------------


def same_table(a: fd.RefTable, b: fd.RefTable) -> bool:
    """Equal header fields, and columns of equal dtypes and equal bits."""
    return (a.label, a.curve_name, a.specs) == (b.label, b.curve_name, b.specs) and all(
        x.dtype == y.dtype and np.array_equal(x.view(np.int64), y.view(np.int64))
        for x, y in zip(a.columns(), b.columns())
    )


def csv_only_read(path, tmp_path) -> fd.RefTable:
    """The table read from a copy of ``path`` that has no sidecar."""
    copy = tmp_path / "csv-only" / path.name
    copy.parent.mkdir(exist_ok=True)
    copy.write_bytes(path.read_bytes())
    return fd.read_table(copy)


@st.composite
def spec_lists(draw):
    """1-3 specs of one step and span, so that more than one is a combo."""
    step = draw(st.sampled_from([1, 5, 10]))
    oldest = 5.0 * draw(st.integers(-80, -30))
    span = (oldest, oldest + step * draw(st.integers(1, 6)))
    return [
        fd.RefTableSpec(label=f"s{i}", year_interval=step, per_slice=draw(st.integers(1, 4)),
                        sd=draw(st.sampled_from([0.0, 2.5, 5.0, 20.0])), span=span,
                        seed=draw(st.integers(0, 2**32 - 1)))
        for i in range(draw(st.integers(1, 3)))
    ]


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(specs=spec_lists())
def test_sidecar_read_equals_csv_read(tmp_path_factory, study_curve, specs):
    tmp_path = tmp_path_factory.mktemp("sc")
    table = (fd.build_combo_table(study_curve, specs) if len(specs) > 1
             else fd.build_reference_table(study_curve, specs[0]))
    path = tmp_path / "t.csv"
    fd.write_table(table, path)
    assert csvio.sidecar_path(path).exists()
    with mock.patch.object(csvio, "_read_lines", side_effect=AssertionError("parsed")):
        fast = fd.read_table(path)
    assert same_table(fast, csv_only_read(path, tmp_path))
    assert same_table(fast, table)


@pytest.fixture
def two_tables(tmp_path, study_curve):
    """A combo table and another table, both written with their sidecars."""
    a = fd.RefTableSpec(label="a", year_interval=10, per_slice=3, sd=5, span=(-100, -50), seed=5)
    b = fd.RefTableSpec(label="b", year_interval=10, per_slice=2, sd=20, span=(-100, -50), seed=6)
    path, other = tmp_path / "t.csv", tmp_path / "other.csv"
    fd.write_table(fd.build_combo_table(study_curve, [a, b]), path)
    fd.write_table(fd.build_reference_table(study_curve, b), other)
    return path, other


def flip_last_digit(line: str) -> str:
    """The line with its last digit changed, so of the same byte length."""
    return line[:-1] + ("2" if line[-1] == "1" else "1")


def restamped(text: str, edit) -> str:
    """The table text with ``edit`` applied to its last data line and its
    checksum header recomputed."""
    lines = text.splitlines()
    lines[-1] = edit(lines[-1])
    first = next(i for i, line in enumerate(lines) if not line.startswith("#")) + 1
    crc = csvio.rows_checksum(lines[first:])
    return "".join((f"# checksum={crc}" if line.startswith("# checksum=") else line) + "\n"
                   for line in lines)


def spoil(sidecar, kind: str, path, other) -> None:
    good = dict(np.load(sidecar))
    if kind == "missing":
        sidecar.unlink()
    elif kind == "truncated":
        sidecar.write_bytes(sidecar.read_bytes()[: sidecar.stat().st_size // 2])
    elif kind == "garbage":
        sidecar.write_bytes(bytes(range(256)) * 16)
    elif kind == "pickled":
        np.savez(sidecar, **{**good, "cal_sigma": good["cal_sigma"].astype(object)})
    elif kind == "wrong dtype":
        np.savez(sidecar, **{**good, "age_bp": good["age_bp"].astype(np.float64)})
    elif kind == "short column":
        np.savez(sidecar, **{**good, "cal_mean": good["cal_mean"][:-1]})
    elif kind == "foreign":
        csvio.sidecar_path(other).replace(sidecar)
    elif kind == "stale":  # the CSV changed under its sidecar, checksum and all
        path.write_text(restamped(path.read_text(), flip_last_digit))
    else:  # columns that differ from the CSV's, and one key of the sidecar wrong
        key, value = {"crc off by one": ("#crc", good["#crc"] ^ 1),
                      "byte count off by one": ("#bytes", good["#bytes"] + 1),
                      "extra member": ("extra", 0)}[kind]
        np.savez(sidecar, **{**good, "cal_sigma": good["cal_sigma"] + 1, key: value})


@pytest.mark.parametrize("kind", ["missing", "truncated", "garbage", "pickled", "wrong dtype",
                                  "short column", "foreign", "stale", "crc off by one",
                                  "byte count off by one", "extra member"])
def test_bad_sidecar_reads_as_the_csv_alone(two_tables, tmp_path, kind):
    path, other = two_tables
    size = path.stat().st_size
    spoil(csvio.sidecar_path(path), kind, path, other)
    assert same_table(fd.read_table(path), csv_only_read(path, tmp_path))
    if kind == "stale":  # only the crc tells the edit from the written table
        assert path.stat().st_size == size


def test_damaged_body_fails_beside_a_valid_sidecar(two_tables):
    path, _ = two_tables
    lines = path.read_text().splitlines()
    lines[-1] = flip_last_digit(lines[-1])
    path.write_text("".join(line + "\n" for line in lines))
    with pytest.raises(ValueError) as exc:
        fd.read_table(path)
    assert str(exc.value) == f"corrupt table: checksum mismatch in {path}"


def test_valid_sidecar_is_read_without_a_parse(two_tables, monkeypatch):
    path, _ = two_tables
    expected = fd.read_table(path)
    monkeypatch.setattr(csvio, "_read_lines", mock.Mock(side_effect=AssertionError("parsed")))
    assert same_table(fd.read_table(path), expected)
    csvio.sidecar_path(path).unlink()
    with pytest.raises(AssertionError, match="parsed"):
        fd.read_table(path)


# --- matching -------------------------------------------------------------------


@st.composite
def age_columns(draw):
    """An age column of 1-4 parts laid end to end, each rising with noise
    as the slices of one table do: a combo's ages are unsorted and repeat
    across parts.  A one-row column is drawn often."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sizes = draw(st.one_of(st.just([1]), st.lists(st.integers(1, 80), min_size=1, max_size=4)))
    return np.concatenate([np.sort(rng.integers(-30, 30, k)) + rng.integers(-3, 4, k)
                           for k in sizes])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(age=age_columns(), asked=st.lists(st.integers(-40, 40), max_size=40))
def test_match_lays_the_rows_of_each_age_end_to_end(age, asked):
    # up to 40 ages, duplicates and absent ones included, so that both
    # ways of selecting the rows run
    ages = np.array(asked, dtype=np.int64)
    expected = [np.flatnonzero(age == a) for a in asked]
    positions, counts = match_ages(age, ages)
    assert positions.tolist() == np.concatenate([np.empty(0, np.int64), *expected]).tolist()
    assert counts.tolist() == [rows.size for rows in expected]
    if counts.any():
        n = age.size
        spec = fd.RefTableSpec(label="m", year_interval=1, per_slice=n, sd=5, span=(0, 1), seed=0)
        table = fd.RefTable("m", "none", (spec,), np.arange(1, n + 1), np.zeros(n), age,
                            *np.zeros((4, n)))
        matches = fd.match_measurements(table, [fd.Measurement(a, 20) for a in asked])
        assert matches.positions.tolist() == positions.tolist()
        assert matches.counts.tolist() == counts.tolist()


def test_match_ages_near_the_int64_limits():
    # 3 * 2**61 times 2 rows is beyond int64: a sort key of age * rows + row
    # would wrap
    age = np.array([3 * 2**61, 1, -(2**63), 2**63 - 1, 1], dtype=np.int64)
    positions, counts = match_ages(age, np.array([1, 3 * 2**61, 2**63 - 1, -(2**63)]))
    assert positions.tolist() == [1, 4, 0, 3, 2]
    assert counts.tolist() == [2, 1, 1, 1]
