"""Property tests: the array evaluation path against plain references.

The batched indicators, the one-pass MPD search and the array
aggregations of an evaluated series must equal, bit for bit, a
straightforward per-item computation written here: ``np.mean`` and
``np.median`` over the pooled Python lists, the per-query MPD search the
package used before it searched all queries at once, and dict-of-lists
walks of the evaluation rows.
"""

from __future__ import annotations

import math
import re
from dataclasses import astuple
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import finedating as fd
from conftest import eval_columns, make_series, make_table, same_eval, take_datasets
from finedating.evaluate import mpd_searches
from finedating.finedate import batch_indicators

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)
# file round trips are slower per example
FILES = settings(PROPERTY, max_examples=40)

# Values on a coarse grid repeat often; arbitrary floats make sums order-sensitive.
VALUES = st.one_of(
    st.integers(-60, -40).map(lambda k: k * 5.0),
    st.floats(-400.0, 100.0, allow_nan=False, allow_infinity=False),
)
AGES = st.integers(1998, 2006)


def same(a, b) -> bool:
    """Equal bit for bit, NaN equal to NaN, None only to None."""
    if a is None or b is None:
        return a is b
    return np.float64(a).tobytes() == np.float64(b).tobytes() or (math.isnan(a) and math.isnan(b))


def table_of(entries) -> fd.RefTable:
    return make_table([(i + 1, date, age, 5.0, mean, median, 8.0)
                       for i, (age, date, mean, median) in enumerate(entries)], label="p")


def series_of(groups) -> fd.TestSeries:
    return make_series([(data_id, -100.0 - data_id, [(age, 20.0) for age in ages])
                        for data_id, ages in enumerate(groups, 1)])


def reference_indicators(table: fd.RefTable, ages) -> list[float] | None:
    """The twelve indicators of one dataset from the pooled Python lists."""
    pooled = [i for age in ages for i, row_age in enumerate(table.age.tolist()) if row_age == age]
    if not pooled:
        return None
    out = []
    for column in (table.base_date, table.cal_mean, table.cal_median):
        values = [column.tolist()[i] for i in pooled]
        unique = sorted(set(values))
        out += [float(np.mean(values)), float(np.median(values)),
                float(np.mean(unique)), float(np.median(unique))]
    return out


ENTRIES = st.lists(
    st.tuples(AGES, VALUES, st.one_of(VALUES, st.just(math.nan)), VALUES),
    max_size=60,
)
GROUPS = st.lists(st.lists(AGES, max_size=9), min_size=1, max_size=6)


@PROPERTY
@given(entries=ENTRIES, groups=GROUPS)
def test_batched_indicators_equal_pooled_list_reference(entries, groups):
    table = table_of(entries)
    rows = fd.evaluate_test_series(table, series_of(groups))
    assert len(rows) == 12 * len(groups)
    for data_id, ages in enumerate(groups, 1):
        got = rows[12 * (data_id - 1) : 12 * data_id]
        assert (got.data_id == data_id).all() and (got.original_date == -100.0 - data_id).all()
        expected = reference_indicators(table, ages)
        if expected is None:
            assert (got.category == fd.evaluate.NO_MATCH).all() and np.isnan(got.value).all()
            continue
        assert got.indicator.tolist() == list(fd.INDICATOR_NAMES)
        assert all(same(v, e) for v, e in zip(got.value.tolist(), expected)), (got, expected)
        assert all(same(d, e - (-100.0 - data_id)) for d, e in zip(got.delta.tolist(), expected))
        ind = fd.compute_indicators(
            fd.match_measurements(table, [fd.Measurement(age, 20.0) for age in ages])
        )
        assert all(same(ind.values[name], e) for name, e in zip(fd.INDICATOR_NAMES, expected))
        assert got.n_matches[0] == ind.n_used("CalDate_Mean")


@PROPERTY
@given(entries=ENTRIES, groups=GROUPS)
def test_unique_counts_equal_distinct_values(entries, groups):
    table = table_of([(a, d, m if m == m else 0.0, med) for a, d, m, med in entries])
    for ages in groups:
        try:
            ms = fd.match_measurements(table, [fd.Measurement(age, 20.0) for age in ages])
        except ValueError:
            continue
        ind = fd.compute_indicators(ms)
        for family, pooled in (("CalDate", ms.pooled_dates()), ("Mean", ms.pooled_means()),
                               ("Median", ms.pooled_medians())):
            assert ind.n_used(f"{family}_Mean") == len(pooled)
            assert ind.n_used(f"unique_{family}_Median") == len(set(pooled))


@PROPERTY
@given(entries=ENTRIES, groups=GROUPS, data=st.data())
def test_indicators_under_permuted_measurements(entries, groups, data):
    """Permuting the measurements of each set permutes its pools: the
    medians and the distinct-value means (taken over sorted values) stay
    bit-identical.  The pooled means are summed in pool order, so they
    may move by rounding: for a pool of n values of magnitude at most M,
    two summation orders differ by at most 2(n - 1) u M (u = 2**-53, and
    u M <= ulp(M)), and the division adds at most one ulp(M) more, so
    the bound is (2n - 1) ulp(M)."""
    table = table_of(entries)
    permuted = [data.draw(st.permutations(ages)) for ages in groups]
    n_measured = np.array([len(ages) for ages in groups])
    values, n_prime = batch_indicators(table, np.array(sum(groups, []), dtype=np.int64), n_measured)
    again, n_again = batch_indicators(table, np.array(sum(permuted, []), dtype=np.int64),
                                      n_measured)
    assert np.array_equal(n_prime, n_again)
    columns = (table.base_date, table.cal_mean, table.cal_median)
    for row, other, n in zip(values.tolist(), again.tolist(), n_prime[n_prime > 0].tolist()):
        for f, column in enumerate(columns):
            mean, median, unique_mean, unique_median = row[4 * f : 4 * f + 4]
            assert same(median, other[4 * f + 1]) and same(unique_median, other[4 * f + 3])
            assert same(unique_mean, other[4 * f + 2])
            magnitude = np.abs(column[~np.isnan(column)]).max(initial=0.0)
            if math.isnan(mean):
                assert math.isnan(other[4 * f])
            else:
                assert abs(mean - other[4 * f]) <= (2 * n - 1) * np.spacing(magnitude)


def test_batch_of_sets_equals_one_set_at_a_time(table_5_20_5, ts3_datasets):
    sample = take_datasets(ts3_datasets, range(0, len(ts3_datasets), 97))
    values, n_prime = batch_indicators(table_5_20_5, sample.age, np.full(len(sample), 3))
    assert (n_prime > 0).all()
    for row, ages in zip(values, sample.age.reshape(-1, 3).tolist()):
        ind = fd.compute_indicators(
            fd.match_measurements(table_5_20_5, [fd.Measurement(age, 20.0) for age in ages])
        )
        assert row.tolist() == [ind.values[name] for name in fd.INDICATOR_NAMES]


# --- MPD search ---------------------------------------------------------------

def reference_mpd(pool, value):
    """The per-query search: (tolerance, count, mode, range, under_min).
    The tolerance grows from 1 by 1 to at most 10 until 5 values match."""
    arr = np.sort(np.asarray(pool, dtype=float))

    def window(tol):
        return (int(np.searchsorted(arr, value - tol, side="left")),
                int(np.searchsorted(arr, value + tol, side="right")))

    tol = 1.0
    lo, hi = window(tol)
    while hi - lo < 5 and tol < 10.0:
        tol = min(tol + 1.0, 10.0)
        lo, hi = window(tol)
    matched = arr[lo:hi]
    if matched.size == 0:
        raise ValueError("no reference values within tolerance")
    values, counts = np.unique(matched, return_counts=True)
    candidates = values[counts == counts.max()]
    order = np.lexsort((candidates, np.abs(candidates - value)))
    return (float(tol), int(matched.size), float(candidates[order[0]]),
            float(matched.max() - matched.min()), bool(matched.size < 5))


TIED = st.one_of(
    st.integers(-30, 30).map(float),
    st.integers(-60, 60).map(lambda k: k / 2.0),
    st.floats(-40.0, 40.0, allow_nan=False, allow_infinity=False),
)


@PROPERTY
@given(pool=st.lists(TIED, min_size=1, max_size=80), queries=st.lists(TIED, max_size=30))
def test_one_pass_mpd_equals_per_query_search(pool, queries):
    arr = np.array(pool)
    answerable = []
    for q in queries + pool:
        try:
            expected = reference_mpd(pool, q)
        except ValueError:
            with pytest.raises(ValueError, match="no reference values within tolerance"):
                fd.mpd_search(pool, q)
            continue
        answerable.append((q, expected))
        r = fd.mpd_search(pool, q)
        got = (r.tolerance, r.match_count, r.mpd, r.value_range, r.under_min)
        assert got == expected
    if answerable:
        qs = np.array([q for q, _ in answerable])
        tol, count, mpd, value_range = mpd_searches(arr, qs)
        got = list(zip(tol.tolist(), count.tolist(), mpd.tolist(), value_range.tolist(),
                       (count < 5).tolist()))
        assert got == [e for _, e in answerable]


@st.composite
def large_pools(draw):
    """A few hundred to a few thousand values on a grid of 1/64 or 1/100
    year, drawn from few enough distinct values that counts tie, and
    zero (0.0 or -0.0), 5e-324 and 1e-17 each about as often as the most
    frequent of those.  A window can span hundreds of runs, so the mode
    search reads the upper rows of its range-maximum table."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = draw(st.sampled_from([64, 100]))
    half_span = draw(st.integers(1, 30))
    distinct = rng.integers(-half_span * grid, half_span * grid + 1,
                            draw(st.integers(10, 800))) / grid
    pool = rng.choice(distinct, draw(st.one_of(st.integers(200, 3000), st.just(3000))))
    # as often as the most frequent value, give or take one
    often = np.unique(pool, return_counts=True)[1].max() + draw(st.integers(-1, 1))
    tiny = np.repeat([5e-324, 1e-17], often)
    return np.concatenate([pool, tiny, rng.choice([0.0, -0.0], often)]), rng


@settings(PROPERTY, max_examples=50)
@given(drawn=large_pools(), far=st.lists(st.sampled_from([-500.0, 500.0, 1e6]), min_size=1,
                                         max_size=6))
def test_mpd_of_large_pools_equals_per_query_search(drawn, far):
    pool, rng = drawn
    runs = np.unique(pool)
    between = (runs[:-1] + runs[1:]) / 2
    # 5e-324 and 1e-17 lie as far from 0.5 or 3.0 as 0.0 does once the
    # difference is rounded: the oldest of such modes wins
    queries = np.concatenate([rng.choice(pool, 150), rng.choice(between, min(150, between.size)),
                              [0.0, -0.0, 5e-324, 1e-17, 0.5, -0.5, 3.0, -3.0]])
    expected = {}
    for q in queries.tolist():
        try:
            expected[q] = reference_mpd(pool, q)
        except ValueError:
            expected[q] = None
    answerable = np.array([q for q in queries.tolist() if expected[q] is not None])
    tol, count, mpd, value_range = mpd_searches(pool, answerable)
    got = list(zip(tol.tolist(), count.tolist(), mpd.tolist(), value_range.tolist(),
                   (count < 5).tolist()))
    assert got == [expected[q] for q in answerable.tolist()]
    # duplicates and unanswerable values in any order: the error names the
    # first unanswerable query as given, not the least
    mixed = rng.permutation(np.concatenate([queries, far]))
    first = next(q for q in mixed.tolist() if q in far or expected[q] is None)
    with pytest.raises(ValueError, match=re.escape(f"of {first:g}") + "$"):
        mpd_searches(pool, mixed)


@settings(PROPERTY, max_examples=50)
@given(drawn=large_pools())
def test_mpd_self_search_equals_the_search_of_a_copy(drawn):
    # one sort serves a pool searched for itself; value for value (a zero
    # mode may differ in sign, which fmt writes as 0 either way)
    pool, _ = drawn
    got = mpd_searches(pool, pool)
    assert [column.tolist() for column in got] == [
        column.tolist() for column in mpd_searches(pool, pool.copy())]
    assert [column.dtype for column in got] == [np.float64, np.int64, np.float64, np.float64]


def test_mpd_of_modes_equally_far_after_rounding_is_the_oldest():
    # 3.0 - 1e-17 and 3.0 - 5e-324 round to 3.0, as far as 0.0 and 6.0
    pool = [6.0, 1e-17, 5e-324, 0.0] * 2
    assert reference_mpd(pool, 3.0)[2] == 0.0
    assert fd.mpd_search(pool, 3.0).mpd == 0.0
    assert fd.mpd_search([6.0, 1e-17, 5e-324] * 2, 3.0).mpd == 5e-324


# --- interval normality --------------------------------------------------------

def reference_normality(table: fd.RefTable, series: fd.TestSeries) -> list[tuple]:
    """Per original date in ascending order, the fields of its
    ``IntervalNormality``: ``dagostino_pearson`` of the interval's ages
    and ``anderson_darling`` of their matched dates, each on the interval
    alone, None where the test refuses the sample."""
    dates_of: dict = {}
    for age, date in zip(table.age.tolist(), table.base_date.tolist()):
        dates_of.setdefault(age, []).append(date)
    ages: dict = {}
    matched: dict = {}
    for d, date in enumerate(series.original_date.tolist()):
        for age in series.age[series.offsets[d] : series.offsets[d + 1]].tolist():
            ages.setdefault(date, []).append(age)
            matched.setdefault(date, []).extend(dates_of.get(age, []))

    def attempt(test, sample):
        try:
            return test(sample)
        except ValueError:  # too small, or constant
            return None

    out = []
    for date in sorted(ages):
        dp = attempt(fd.dagostino_pearson, ages[date])
        ad = attempt(fd.anderson_darling, matched[date])
        out.append((date, len(ages[date]), dp and dp.statistic, dp and dp.p_value,
                    len(matched[date]), ad and ad.statistic))
    return out


def same_normality(got, expected) -> bool:
    return len(got) == len(expected) and all(
        all(same(g, e) for g, e in zip(astuple(result), fields))
        for result, fields in zip(got, expected))


@st.composite
def normality_layouts(draw):
    """A table and a series whose intervals hold from no matched date to
    hundreds, some of them constant: one matched date repeated, or one
    age for a whole interval."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_rows = draw(st.integers(0, 80))
    dates = np.round(rng.normal(-150.0, 30.0, n_rows), draw(st.integers(0, 2)))
    if draw(st.booleans()):
        dates[:] = -120.0
    table = table_of(zip(rng.integers(1998, 2006, n_rows).tolist(), dates.tolist(),
                         dates.tolist(), dates.tolist()))
    one_age = {date: rng.random() < 0.3 for date in (-300.0, -250.0, -200.0)}
    datasets = []
    for data_id in range(1, draw(st.integers(1, 16)) + 1):
        date = float(rng.choice(list(one_age)))
        n = int(rng.integers(0, 13))
        ages = np.full(n, 2001) if one_age[date] else rng.integers(1996, 2008, n)
        datasets.append((data_id, date, [(age, 20.0) for age in ages.tolist()]))
    return table, make_series(datasets)


@PROPERTY
@given(layout=normality_layouts())
def test_interval_normality_equals_per_interval_tests(layout):
    table, series = layout
    assert same_normality(fd.interval_normality(table, series), reference_normality(table, series))


def test_interval_normality_of_ts3_equals_per_interval_tests(table_5_20_5, ts3_datasets):
    got = fd.interval_normality(table_5_20_5, ts3_datasets)
    assert len(got) == 61 and all(r.matched_dates_statistic is not None for r in got)
    assert same_normality(got, reference_normality(table_5_20_5, ts3_datasets))


# --- aggregations over evaluation rows ----------------------------------------

class Row(NamedTuple):
    data_id: int
    original_date: float
    indicator: str
    delta: float | None


def reference_performance(rows, threshold):
    by_dataset, date_of = {}, {}
    for row in rows:
        by_dataset.setdefault(row.data_id, {})[row.indicator] = row
        date_of[row.data_id] = row.original_date
    per_date = {}
    for data_id, ind_rows in by_dataset.items():
        slot = per_date.setdefault(date_of[data_id], {name: [] for name in fd.FAMILIES})
        for family, members in fd.FAMILIES.items():
            deltas = [ind_rows[m].delta for m in members if m in ind_rows]
            if any(d is None for d in deltas) or len(deltas) < len(members):
                slot[family].append(False)
            else:
                slot[family].append(float(np.mean(np.abs(deltas))) <= threshold)
    return [(date, family, sum(per_date[date][family]) / len(per_date[date][family]))
            for date in sorted(per_date) for family in fd.FAMILIES]


def reference_deviation(rows):
    sums, totals = {}, {name: [] for name in fd.INDICATOR_NAMES}
    for row in rows:
        if row.delta is None:
            continue
        sums.setdefault((row.original_date, row.indicator), []).append(row.delta)
        totals[row.indicator].append(row.delta)
    per_date = {key: float(np.mean(vals)) for key, vals in sorted(sums.items())}
    return per_date, {name: float(np.mean(v)) if v else math.nan for name, v in totals.items()}


EVAL_ROWS = st.lists(
    st.tuples(
        st.integers(1, 8),  # data_id
        st.sampled_from([-110.0, -100.0, -95.0]),  # original date
        st.sampled_from(fd.INDICATOR_NAMES),
        st.one_of(st.none(), st.just(math.nan), st.floats(-60.0, 60.0)),  # delta
    ),
    min_size=1, max_size=120,
)


@PROPERTY
@given(cells=EVAL_ROWS, threshold=st.sampled_from([25, 35]))
def test_array_aggregations_equal_row_walks(cells, threshold):
    # in columns a missing delta is NaN, so the references read NaN as None
    rows = [Row(i, date, name, None if d is None or d != d else d) for i, date, name, d in cells]
    columns = eval_columns([(i, date, name, None if d is None else date + d, d,
                             "no_match" if d is None else fd.classify_delta(d).value, 3)
                            for i, date, name, d in cells])
    got = fd.performance_curves(columns, threshold)
    expected = reference_performance(rows, threshold)
    assert [g[:2] for g in got] == [e[:2] for e in expected]
    assert all(same(g[2], e[2]) for g, e in zip(got, expected))
    per_date, full = fd.average_deviation_analysis(columns)
    ref_per_date, ref_full = reference_deviation(rows)
    assert list(per_date) == list(ref_per_date)
    assert all(same(per_date[k], ref_per_date[k]) for k in per_date)
    assert list(full) == list(ref_full)
    assert all(same(full[k], ref_full[k]) for k in full)


@given(delta=st.one_of(st.floats(allow_nan=True), st.sampled_from([10.0, 25.0, 35.0, -35.0])))
@PROPERTY
def test_vectorized_categories_equal_classify_delta(delta):
    from finedating.evaluate import _CATEGORY_NAMES, _category_codes

    assert _CATEGORY_NAMES[_category_codes(np.array([delta]))][0] == fd.classify_delta(delta).value


# --- column readers: write -> read -> write ------------------------------------

FLOATS = st.one_of(
    st.floats(allow_nan=False),  # negatives, huge values, -0.0 and +-inf included
    st.integers(-10**6, 10**6).map(float),
)
NAN_FLOATS = st.one_of(FLOATS, st.just(math.nan))
INTS = st.integers(-2**63, 2**63 - 1)
NAMES = st.text(alphabet="abcdefgh_XYZ", max_size=12)


def same_columns(written, read) -> bool:
    """Equal column by column, NaN equal to NaN (the format writes -0.0
    as 0, which compares equal)."""
    return all(
        a.dtype == b.dtype and np.array_equal(a, b, equal_nan=a.dtype == float)
        for a, b in zip(written, read)
    )


def rewrite_is_identical(tmp_path, write, read, value) -> tuple:
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    write(value, first)
    back = read(first)
    write(back, second)
    assert second.read_bytes() == first.read_bytes()
    return back


@FILES
@given(rows=st.lists(st.tuples(st.floats(-5000.0, -4999.0), INTS, FLOATS, FLOATS, FLOATS,
                               FLOATS), min_size=2, max_size=40))
def test_table_columns_round_trip(tmp_path_factory, rows):
    n = len(rows)
    date, age, sd, mean, median, sigma = (np.array(c) for c in zip(*rows))
    spec = fd.RefTableSpec(label="rt", year_interval=1, per_slice=1, sd=5.0,
                           span=(-5000.0, -5000.0 + n - 1), seed=3)
    table = fd.RefTable("rt", "none", (spec,), np.arange(1, n + 1), date,
                        age.astype(np.int64), sd, mean, median, sigma)
    back = rewrite_is_identical(tmp_path_factory.mktemp("t"), fd.write_table, fd.read_table,
                                table)
    assert same_columns(table.columns(), back.columns())
    assert back.specs == table.specs


@FILES
@given(datasets=st.lists(
    st.tuples(FLOATS, st.floats(min_value=-0.0, allow_infinity=False),  # a valid sd
              st.lists(st.tuples(INTS, NAN_FLOATS, NAN_FLOATS, NAN_FLOATS), min_size=1,
                       max_size=4)),
    max_size=8,
), ids=st.data())
def test_test_series_columns_round_trip(tmp_path_factory, datasets, ids):
    data_id = ids.draw(st.lists(INTS, min_size=len(datasets), max_size=len(datasets),
                                unique=True))
    rows = [row for _, _, rows in datasets for row in rows]
    age, mean, median, sigma = (np.array(c) for c in zip(*rows)) if rows else [np.empty(0)] * 4
    sizes = [len(rows) for _, _, rows in datasets]
    series = fd.TestSeries(
        np.array(data_id, dtype=np.int64), np.array([d for d, _, _ in datasets], dtype=float),
        age.astype(np.int64), np.repeat([sd for _, sd, _ in datasets], sizes).astype(float),
        mean.astype(float), median.astype(float), sigma.astype(float),
        np.concatenate(([0], np.cumsum(sizes, dtype=np.int64))),
    )
    back = rewrite_is_identical(tmp_path_factory.mktemp("s"), fd.write_tests, fd.read_tests,
                                series)
    assert same_columns(series.columns(), back.columns())
    assert same_columns([series.data_id, series.original_date, series.offsets],
                        [back.data_id, back.original_date, back.offsets])


@FILES
@given(rows=st.lists(st.tuples(INTS, FLOATS, NAMES, NAN_FLOATS, NAN_FLOATS, NAMES, INTS),
                     max_size=40))
def test_eval_columns_round_trip(tmp_path_factory, rows):
    from finedating.evaluate import read_eval_rows, write_eval_rows

    columns = eval_columns(rows)
    back = rewrite_is_identical(tmp_path_factory.mktemp("e"), write_eval_rows, read_eval_rows,
                                columns)
    assert same_columns(columns.columns(), back.columns())


CELLS = st.one_of(
    st.tuples(st.just(0), st.just(math.nan), st.just(math.nan)),
    st.tuples(INTS, FLOATS, FLOATS),
)
WIDTHS = st.sampled_from([0.1, 0.3, 1.0, 2.5, 5.0])


def same_lookup(a, b) -> bool:
    return (a.bucket_width, a.first) == (b.bucket_width, b.first) and same_columns(
        (a.count, a.frac12, a.frac25), (b.count, b.frac12, b.frac25))


@FILES
@given(width=WIDTHS, first=st.integers(-10**6, 10**6),
       buckets=st.lists(st.lists(CELLS, min_size=12, max_size=12), min_size=1, max_size=6))
def test_lookup_round_trip(tmp_path_factory, width, first, buckets):
    from finedating.lookup import LookupTable, read_lookup, write_lookup

    cells = np.array(buckets, dtype=object)
    table = LookupTable(width, first, cells[..., 0].astype(np.int64),
                        cells[..., 1].astype(float), cells[..., 2].astype(float))
    back = rewrite_is_identical(tmp_path_factory.mktemp("l"), write_lookup, read_lookup, table)
    assert same_lookup(back, table)


@FILES
@given(width=WIDTHS, rows=st.lists(
    st.tuples(st.sampled_from(fd.INDICATOR_NAMES),
              st.one_of(VALUES, st.just(math.nan), st.integers(-3000, 1000)),
              st.one_of(st.floats(-40.0, 40.0), st.sampled_from([12.0, -25.0, math.nan])),
              st.booleans()),
    min_size=1, max_size=60,
))
def test_lookup_counts_partition_usable_rows(tmp_path_factory, width, rows):
    """An integer k stands for the value k * width, a bucket edge, which
    belongs to the bucket starting there."""
    from finedating.evaluate import NO_MATCH
    from finedating.lookup import build_lookup, read_lookup, write_lookup

    rows = [(name, k * width if isinstance(k, int) else k, isinstance(k, int), delta, no_match)
            for name, k, delta, no_match in rows]
    columns = eval_columns([(i, -100.0, name, value, delta, NO_MATCH if no_match else "high", 1)
                            for i, (name, value, _, delta, no_match) in enumerate(rows)])
    usable = [(name, value, edge) for name, value, edge, _, no_match in rows
              if not no_match and value == value]
    if not usable:
        with pytest.raises(ValueError, match="no matched"):
            build_lookup(columns, width)
        return
    table = build_lookup(columns, width)
    for j, name in enumerate(fd.INDICATOR_NAMES):
        assert table.count[:, j].sum() == sum(1 for n, _, _ in usable if n == name)
    for name, value, edge in usable:
        left, count, _, _ = fd.query_lookup(table, name, value)
        assert count >= 1 and left <= value
        assert left == value or not edge
    for left in table.bucket_lefts.tolist():
        assert fd.query_lookup(table, "CalDate_Mean", left)[0] == left
    back = rewrite_is_identical(tmp_path_factory.mktemp("p"), write_lookup, read_lookup, table)
    assert same_lookup(back, table)


@pytest.mark.parametrize("column, cell", [
    ("age_bp", "3.0"), ("age_bp", "abc"), ("age_bp", ""), ("age_bp", str(2**63)),
    ("sd", "abc"), ("sd", ""), ("data_id", "1e3"),
])
def test_tests_reader_rejects_bad_cells(tmp_path, column, cell):
    header = list(fd.simulate.TEST_SCHEMA)
    row = dict(zip(header, ["1", "-100", "2000", "20", "", "", ""]))
    row[column] = cell
    path = tmp_path / "tests.csv"
    path.write_text("# format=finedating-tests\n" + ",".join(header) + "\n"
                    + ",".join(row.values()) + "\n")
    with pytest.raises(ValueError):
        fd.read_tests(path)


@pytest.mark.parametrize("column, cell", [
    ("n_matches", "3.0"), ("data_id", "x"), ("original_cal_date", "abc"), ("value", "abc"),
])
def test_eval_reader_rejects_bad_cells(tmp_path, column, cell):
    from finedating.evaluate import EVAL_SCHEMA, read_eval_rows

    row = dict(zip(EVAL_SCHEMA, ["1", "-100", "CalDate_Mean", "-99", "1", "excellent", "3"]))
    row[column] = cell
    path = tmp_path / "eval.csv"
    path.write_text("# format=finedating-eval\n" + ",".join(EVAL_SCHEMA) + "\n"
                    + ",".join(row.values()) + "\n")
    with pytest.raises(ValueError):
        read_eval_rows(path)


# --- the code-indexed analyses against their string-mapping bodies -------------
#
# The bodies below are those of performance_curves, average_deviation_analysis,
# mpd_report and build_lookup before the analyses indexed the label columns
# by integer code: each maps every row's name through a dict.

def string_performance_curves(rows, threshold):
    from itertools import repeat

    from finedating.evaluate import _last_rows

    if threshold not in (25.0, 35.0, 25, 35):
        raise ValueError(f"unsupported threshold {threshold!r}: use 25 or 35")
    if not len(rows):
        return []
    slot = {name: k for k, name in enumerate(n for names in fd.FAMILIES.values() for n in names)}
    ids, dataset = np.unique(rows.data_id, return_inverse=True)
    dates = rows.original_date[_last_rows(dataset, ids.size)]
    member = np.fromiter(map(slot.get, rows.indicator, repeat(-1)), dtype=np.int64,
                         count=len(rows))
    is_member = member >= 0
    cell = _last_rows(dataset[is_member] * len(slot) + member[is_member], ids.size * len(slot))
    deltas = np.append(rows.delta[is_member], math.nan)[cell]
    score = np.abs(deltas.reshape(ids.size, len(fd.FAMILIES), -1)).mean(axis=2)
    success = score <= threshold
    by_date, date_of = np.unique(dates, return_inverse=True)
    totals = np.bincount(date_of, minlength=by_date.size).tolist()
    hits = [np.bincount(date_of, weights=success[:, f], minlength=by_date.size).astype(int).tolist()
            for f in range(len(fd.FAMILIES))]
    return [
        (date, family, hits[f][d] / totals[d])
        for d, date in enumerate(by_date.tolist())
        for f, family in enumerate(fd.FAMILIES)
    ]


def string_average_deviation(rows):
    from finedating.evaluate import _group_means

    if not len(rows):
        raise ValueError("no evaluation rows")
    scored = rows[~np.isnan(rows.delta)]
    names = sorted(set(scored.indicator.tolist()))
    rank = {name: k for k, name in enumerate(names)}
    name_of = np.fromiter(map(rank.__getitem__, scored.indicator), dtype=np.int64,
                          count=len(scored))
    dates, date_of = np.unique(scored.original_date, return_inverse=True)
    keys, means = _group_means(date_of * len(names) + name_of, scored.delta)
    per_date = {(dates[k // len(names)].item(), names[k % len(names)]): mean
                for k, mean in zip(keys, means)}
    keys, means = _group_means(name_of, scored.delta)
    totals = {names[k]: mean for k, mean in zip(keys, means)}
    return per_date, {name: totals.get(name, math.nan) for name in fd.INDICATOR_NAMES}


def string_mpd_report(rows):
    from finedating.evaluate import M_MIN

    searched = rows[~np.isnan(rows.value)]
    n = len(searched)
    codes = {name: k for k, name in enumerate(dict.fromkeys(searched.indicator.tolist()))}
    pool_of = np.fromiter(map(codes.__getitem__, searched.indicator), dtype=np.int64, count=n)
    tol = np.empty(n)
    count = np.empty(n, dtype=np.int64)
    mpd = np.empty(n)
    value_range = np.empty(n)
    for k in range(len(codes)):
        members = np.flatnonzero(pool_of == k)
        pool = searched.value[members]
        tol[members], count[members], mpd[members], value_range[members] = mpd_searches(pool, pool)
    return {
        "data_id": searched.data_id,
        "original_cal_date": searched.original_date,
        "indicator": searched.indicator,
        "value": searched.value,
        "tolerance": tol,
        "match_count": count,
        "under_min": count < M_MIN,
        "mpd": mpd,
        "range": value_range,
        "delta": mpd - searched.original_date,
    }


def string_build_lookup(rows, bucket_width=5.0):
    from finedating.evaluate import NO_MATCH
    from finedating.lookup import (MAX_BUCKETS, TOLERANCES, LookupTable, _bucket_floor,
                                   _percent)

    if not 0 < bucket_width < math.inf:
        raise ValueError(f"bucket_width must be finite and > 0, got {bucket_width}")
    usable = rows[(rows.category != NO_MATCH) & ~np.isnan(rows.value)]
    if not len(usable):
        raise ValueError("no matched evaluation rows to bucket")
    infinite = np.flatnonzero(np.isinf(usable.value))
    if infinite.size:
        raise ValueError(f"indicator value {usable.value[infinite[0]]} is not finite")
    codes = {name: j for j, name in enumerate(fd.INDICATOR_NAMES)}
    indicator = np.fromiter((codes.get(name, -1) for name in usable.indicator.tolist()),
                            dtype=np.int64, count=len(usable))
    if (indicator < 0).any():
        raise ValueError(f"unknown indicator {usable.indicator[np.argmin(indicator)]!r}")
    index = _bucket_floor(usable.value, bucket_width)
    first, last = index.min(), index.max()
    if last - first >= MAX_BUCKETS:
        raise ValueError(f"bucket width {bucket_width:g} gives {last - first + 1:.15g} buckets, "
                         f"more than the {MAX_BUCKETS} allowed")
    if max(-first, last) >= 2.0**53:
        raise ValueError(f"bucket width {bucket_width:g} is too fine for the value "
                         f"{usable.value[np.argmax(np.abs(index))]:g}")
    index = index.astype(np.int64)
    first = int(first)
    shape = (int(last) - first + 1, len(fd.INDICATOR_NAMES))
    cell = (index - first) * shape[1] + indicator
    deviation = np.abs(usable.delta)
    count, k12, k25 = (np.bincount(cell[within], minlength=shape[0] * shape[1]).reshape(shape)
                       for within in (slice(None), deviation <= TOLERANCES[0],
                                      deviation <= TOLERANCES[1]))
    return LookupTable(float(bucket_width), first, count,
                       _percent(k12, count), _percent(k25, count))


def canonical(value):
    """A value as a comparable structure: floats and numeric arrays by
    their bytes, object cells with their types, containers in order."""
    if isinstance(value, np.ndarray):
        cells = ([(type(c), c) for c in value.tolist()] if value.dtype == object
                 else value.tobytes())
        return value.dtype.str, value.shape, cells
    if isinstance(value, fd.LookupTable):
        return canonical(astuple(value))
    if isinstance(value, float):
        return float, np.float64(value).tobytes()
    if isinstance(value, dict):
        return dict, [(canonical(k), canonical(v)) for k, v in value.items()]
    if isinstance(value, (list, tuple)):
        return type(value), [canonical(v) for v in value]
    return type(value), value


def analysis_outcome(analysis, rows):
    try:
        return "value", canonical(analysis(rows))
    except Exception as exc:  # RuntimeWarning included, raised by the warning filter
        return "raised", type(exc), str(exc)


ANALYSES = [
    (lambda rows: fd.performance_curves(rows, 25), lambda rows: string_performance_curves(rows, 25)),
    (lambda rows: fd.performance_curves(rows, 35), lambda rows: string_performance_curves(rows, 35)),
    (fd.average_deviation_analysis, string_average_deviation),
    (fd.mpd_report, string_mpd_report),
    (fd.build_lookup, string_build_lookup),
]
# names outside INDICATOR_NAMES, and category members beside their str values
# (no_match beside a value too, which build_lookup leaves out)
LABEL_NAMES = st.sampled_from([*fd.INDICATOR_NAMES, "CalDate_mean", "Other"])
CATEGORY_CELLS = st.sampled_from([*fd.DeltaCategory, *(c.value for c in fd.DeltaCategory),
                                  fd.evaluate.NO_MATCH])
# a value's distance from its date: within the performance thresholds or not
LABEL_OFFSETS = st.one_of(st.integers(-12, 12).map(lambda k: k * 5.0), st.floats(-60.0, 60.0))


@st.composite
def labelled_rows(draw):
    """Rows of a few datasets, each with some of the indicator names (or
    others, or repeats), some without a match; shuffled."""
    from finedating.evaluate import NO_MATCH

    offsets = st.one_of(LABEL_OFFSETS, st.sampled_from(
        draw(st.sampled_from([[math.nan], [math.nan, math.inf, -math.inf]]))))
    rows = []
    for data_id in range(draw(st.integers(0, 6))):
        date = draw(st.sampled_from([-300.0, -150.0, -100.0, 0.0]))
        no_match = draw(st.booleans()) and draw(st.booleans())
        for name in draw(st.one_of(st.lists(LABEL_NAMES, max_size=14),
                                   st.permutations([*fd.INDICATOR_NAMES, "Other"]))):
            if no_match:
                rows.append((data_id, date, name, math.nan, math.nan, NO_MATCH, 0))
                continue
            value = date + draw(offsets)
            rows.append((data_id, date, name, value, value - date, draw(CATEGORY_CELLS), 3))
    return draw(st.permutations(rows))


@pytest.mark.filterwarnings("ignore::RuntimeWarning:numpy")  # means over inf - inf
@PROPERTY
@given(rows=labelled_rows(), data=st.data())
def test_code_indexed_analyses_equal_the_string_mapping_bodies(rows, data):
    columns = eval_columns(rows)
    mask = np.array(data.draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows))),
                    dtype=bool)
    # the same rows given as labels: names in another order, one unused
    labels = [fd.csvio.Labels.of(column) for column in (columns.indicator, columns.category)]
    given = []
    for label in labels:
        order = np.array(data.draw(st.permutations(range(label.names.size))), dtype=np.intp)
        names = np.array([*label.names[order].tolist(), "unused"], dtype=object)
        given.append(fd.csvio.Labels(np.argsort(order)[label.codes], names))
    relabelled = fd.EvalColumns(columns.data_id, columns.original_date, given[0],
                                columns.value, columns.delta, given[1],
                                columns.n_matches)
    assert np.array_equal(relabelled.indicator, columns.indicator)
    for analysis, reference in ANALYSES:
        for variant in (columns, columns[mask], relabelled, relabelled[mask]):
            assert analysis_outcome(analysis, variant) == analysis_outcome(reference, variant)


@FILES
@given(rows=labelled_rows().filter(len), data=st.data())
def test_rows_built_four_ways_are_equal(tmp_path_factory, rows, data):
    # from object arrays, from labels of permuted names, read from the
    # sidecar and read through the line reader
    from finedating.evaluate import read_eval_rows, write_eval_rows

    columns = eval_columns(rows)
    given = []
    for label in (columns.indicator_labels, columns.category_labels):
        order = np.array(data.draw(st.permutations(range(label.names.size))), dtype=np.intp)
        given.append(fd.csvio.Labels(np.argsort(order)[label.codes], label.names[order]))
    permuted = fd.EvalColumns(columns.data_id, columns.original_date, given[0], columns.value,
                              columns.delta, given[1], columns.n_matches)
    path = tmp_path_factory.mktemp("r") / "eval_long.csv"
    write_eval_rows(permuted, path)
    with mock.patch.object(fd.csvio, "_read_lines", side_effect=AssertionError("parsed")):
        from_sidecar = read_eval_rows(path)
    fd.csvio.sidecar_path(path).unlink()
    from_lines = read_eval_rows(path)
    assert all(same_eval(rows, columns) for rows in (permuted, from_sidecar, from_lines))
    # names in order of first appearance, but for the permuted ones as given
    for name in ("indicator_labels", "category_labels"):
        labels = [getattr(rows, name) for rows in (columns, from_sidecar, from_lines)]
        assert len({(tuple(label.names.tolist()), tuple(label.codes.tolist()))
                    for label in labels}) == 1


# Ties, NaN, infinities and sums that overflow; no -0.0, whose median
# beside 0.0 may take either sign (pool_statistics).
MEDIAN_VALUES = st.sampled_from([0.0, 0.1, 1.0, 2.0, -3.5, 5e-324, 1e308, -1e308, math.inf,
                                 -math.inf, math.nan])


def bits(value) -> bytes:
    return np.float64(value).tobytes()


@pytest.mark.filterwarnings("ignore::RuntimeWarning:numpy")  # np.median over inf - inf
@PROPERTY
@given(pools=st.lists(st.one_of(st.lists(MEDIAN_VALUES, min_size=1, max_size=3),
                                st.lists(MEDIAN_VALUES, min_size=1, max_size=40)),
                      min_size=1, max_size=8))
def test_sorted_medians_equal_np_median(pools):
    from finedating.finedate import pool_statistics

    flat = np.array([value for pool in pools for value in pool])
    stats, _ = pool_statistics(flat, np.array([len(pool) for pool in pools]))
    for k, pool in enumerate(pools):
        assert bits(stats[1, k]) == bits(np.median(pool))
        assert bits(stats[3, k]) == bits(np.median(distinct_values(pool)))
    # compute_indicators: one pool per family, the same kernel
    pool = pools[0]
    n = len(pool)
    table = make_table([(i + 1, v, 2000, 5.0, v, v, 8.0) for i, v in enumerate(pool)])
    indicators = fd.compute_indicators(fd.MatchSet(
        table, (fd.Measurement(age=2000, sd=10.0),), np.arange(n), np.array([n])))
    for family in fd.FAMILIES:
        assert bits(indicators.values[f"{family}_Median"]) == bits(np.median(pool))
        assert (bits(indicators.values[f"unique_{family}_Median"])
                == bits(np.median(distinct_values(pool))))


def distinct_values(pool) -> np.ndarray:
    """The sorted distinct values of a pool, each NaN kept."""
    ordered = np.sort(pool)
    return ordered[np.r_[True, ordered[1:] != ordered[:-1]]]
