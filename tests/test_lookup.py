from unittest import mock

import numpy as np
import pytest

import finedating as fd
from finedating import csvio
from finedating.evaluate import NO_MATCH
from conftest import eval_columns
from finedating.lookup import (
    LOOKUP_SCHEMA, LookupTable, bucket_left, build_lookup, read_lookup, write_lookup,
)


def row(data_id, indicator, value, delta, date=-100.0):
    return (data_id, date, indicator, value, delta, fd.classify_delta(delta).value, 5)


def build(rows, **kwargs):
    return build_lookup(eval_columns(rows), **kwargs)


def assert_same_lookup(a, b):
    assert (a.bucket_width, a.first) == (b.bucket_width, b.first)
    assert np.array_equal(a.bucket_lefts, b.bucket_lefts)
    assert a.count.dtype == b.count.dtype == np.int64
    assert np.array_equal(a.count, b.count)
    assert np.array_equal(a.frac12, b.frac12, equal_nan=True)
    assert np.array_equal(a.frac25, b.frac25, equal_nan=True)


def test_bucket_left_examples():
    assert bucket_left(-251.0, 5.0) == -255.0
    assert bucket_left(-242.0, 5.0) == -245.0
    # the left edge belongs to its own bucket
    assert bucket_left(-250.0, 5.0) == -250.0
    assert bucket_left(-255.0, 5.0) == -255.0


def test_same_record_lands_in_different_buckets_per_indicator():
    rows = [
        row(1, "CalDate_Median", -251.0, 4.0),
        row(1, "CalDate_Mean", -242.0, 13.0),
    ]
    table = build(rows)
    left, count, *_ = fd.query_lookup(table, "CalDate_Median", -251.0)
    assert (left, count) == (-255.0, 1)
    left, count, *_ = fd.query_lookup(table, "CalDate_Mean", -242.0)
    assert (left, count) == (-245.0, 1)


def test_fraction_counting():
    # deltas {0, 5, -20, 30} within one bucket: 2/4 within 12, 3/4 within 25
    rows = [
        row(i + 1, "CalDate_Mean", -102.0 - i, d)
        for i, d in enumerate((0.0, 5.0, -20.0, 30.0))
    ]
    table = build(rows)
    left, count, frac12, frac25 = fd.query_lookup(table, "CalDate_Mean", -103.0)
    assert (left, count) == (-105.0, 4)
    assert frac12 == 50.0
    assert frac25 == 75.0


def test_fractions_monotone_in_tolerance(eval_rows):
    table = build_lookup(eval_rows)
    filled = table.count > 0
    frac12, frac25 = table.frac12[filled], table.frac25[filled]
    assert ((0.0 <= frac12) & (frac12 <= frac25) & (frac25 <= 100.0)).all()
    assert np.isnan(table.frac12[~filled]).all() and np.isnan(table.frac25[~filled]).all()


def test_counts_sum_to_matched_dataset_count(eval_rows):
    table = build_lookup(eval_rows)
    matched = {}
    for name in eval_rows.indicator[eval_rows.category != NO_MATCH].tolist():
        matched[name] = matched.get(name, 0) + 1
    assert table.count.shape == (len(table.bucket_lefts), len(fd.INDICATOR_NAMES))
    for j, name in enumerate(fd.INDICATOR_NAMES):
        assert table.count[:, j].sum() == matched[name]


def test_empty_buckets_emitted_blank():
    rows = [
        row(1, "CalDate_Mean", -250.0, 2.0),
        row(2, "CalDate_Mean", -100.0, 2.0),
    ]
    table = build(rows)
    assert len(table.bucket_lefts) == (250 - 100) // 5 + 1
    left, count, frac12, frac25 = fd.query_lookup(table, "CalDate_Mean", -200.0)
    assert (count, frac12, frac25) == (0, None, None)


def test_query_boundary_and_range_errors():
    rows = [row(1, "CalDate_Mean", -250.0, 2.0)]
    table = build(rows)
    left, *_ = fd.query_lookup(table, "CalDate_Mean", -250.0)
    assert left == -250.0
    # covered range is [-250, -245): the right edge is outside
    with pytest.raises(ValueError, match="outside lookup range"):
        fd.query_lookup(table, "CalDate_Mean", -245.0)
    with pytest.raises(ValueError, match="outside lookup range"):
        fd.query_lookup(table, "CalDate_Mean", -400.0)
    with pytest.raises(ValueError, match="unknown indicator"):
        fd.query_lookup(table, "NoSuch", -250.0)


def test_build_rejects_bad_width_and_empty(eval_rows):
    with pytest.raises(ValueError, match="bucket_width"):
        build_lookup(eval_rows, bucket_width=0)
    with pytest.raises(ValueError, match="no matched"):
        build([])
    with pytest.raises(ValueError, match="bucket_width"):
        build_lookup(eval_rows, bucket_width=float("nan"))


def test_build_bounds_the_bucket_count():
    rows = [row(1, "CalDate_Mean", -250.0, 2.0), row(2, "CalDate_Mean", -150.0, 2.0)]
    # 100 years in buckets of 1e-4: exactly MAX_BUCKETS + 1 buckets
    with pytest.raises(ValueError, match=r"bucket width 0\.0001 gives 1000001 buckets, "
                                         r"more than the 1000000 allowed"):
        build(rows, bucket_width=1e-4)
    assert len(build(rows, bucket_width=100 / (fd.lookup.MAX_BUCKETS - 1))) == fd.lookup.MAX_BUCKETS
    with pytest.raises(ValueError, match="bucket width 1e-300 is too fine for the value -250"):
        build(rows[:1], bucket_width=1e-300)


def test_build_rejects_infinite_value_and_unknown_indicator():
    with pytest.raises(ValueError, match="not finite"):
        build([row(1, "CalDate_Mean", -250.0, 2.0), row(2, "CalDate_Mean", float("inf"), 2.0)])
    with pytest.raises(ValueError, match="unknown indicator 'NoSuch'"):
        build([row(1, "CalDate_Mean", -250.0, 2.0), row(2, "NoSuch", -250.0, 2.0)])


def test_rebuild_is_order_independent(eval_rows):
    subset = eval_rows[~np.isnan(eval_rows.value)][: 12 * 300]
    a = build_lookup(subset)
    rng = np.random.default_rng(8)
    b = build_lookup(subset[rng.permutation(len(subset))])
    assert_same_lookup(a, b)


def test_lookup_csv_roundtrip(tmp_path, eval_rows):
    table = build_lookup(eval_rows[: 12 * 500])
    path = tmp_path / "lookup.csv"
    write_lookup(table, path)
    back = read_lookup(path)
    assert_same_lookup(back, table)


def test_query_from_written_table_normalizes_names(tmp_path, eval_rows):
    table = build_lookup(eval_rows[: 12 * 500])
    path = tmp_path / "lookup.csv"
    write_lookup(table, path)
    back = read_lookup(path)
    value = eval_rows.value[(eval_rows.indicator == "CalDate_Median") & (eval_rows.value != 0)
                            & ~np.isnan(eval_rows.value)][0]
    a = fd.query_lookup(back, "CalDateMedian", value)
    b = fd.query_lookup(back, "CalDate_Median", value)
    assert a == b


def test_wide_lookup_runs_one_unique_per_dtype_per_chunk(tmp_path):
    # a fine width leaves most buckets empty: 0 counts, NaN fractions
    rng = np.random.default_rng(3)
    n = 2 * csvio._CHUNK + 1
    count = np.where(rng.random((n, 12)) < 0.01, rng.integers(1, 4, (n, 12)), 0)
    frac12 = np.where(count > 0, 100.0 * rng.integers(0, 2, (n, 12)), np.nan)
    frac25 = np.where(count > 0, 100.0, np.nan)
    table = LookupTable(0.001, -250_000, count, frac12, frac25)
    path = tmp_path / "wide.csv"
    with mock.patch.object(np, "unique", wraps=np.unique) as unique:
        write_lookup(table, path)
    assert len(LOOKUP_SCHEMA) == 37
    assert unique.call_count == 2 * 3  # float and int64 columns, three chunks
    assert_same_lookup(read_lookup(path), table)
