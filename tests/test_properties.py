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

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import finedating as fd
from finedating.evaluate import mpd_searches
from finedating.finedate import batch_indicators

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)

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


def make_table(entries) -> fd.RefTable:
    records = tuple(
        fd.SimRecord(i + 1, date, age, 5.0, mean, median, 8.0)
        for i, (age, date, mean, median) in enumerate(entries)
    )
    spec = fd.RefTableSpec(label="p", year_interval=5, per_slice=1, sd=5.0,
                           span=(-400.0, 100.0), seed=0)
    return fd.RefTable(label="p", curve_name="none", specs=(spec,), records=records)


def make_datasets(groups) -> list[fd.TestDataset]:
    datasets, sim_id = [], 0
    for data_id, ages in enumerate(groups, 1):
        records = []
        for age in ages:
            sim_id += 1
            records.append(fd.SimRecord(sim_id, -100.0, age, 20.0, math.nan, math.nan, math.nan))
        datasets.append(fd.TestDataset(data_id, -100.0 - data_id, 20.0, tuple(records)))
    return datasets


def reference_indicators(table: fd.RefTable, ages) -> list[float] | None:
    """The twelve indicators of one dataset from the pooled Python lists."""
    pooled = [rec for age in ages for rec in table.records if rec.age == age]
    if not pooled:
        return None
    out = []
    for family in ("base_date", "cal_mean", "cal_median"):
        values = [getattr(rec, family) for rec in pooled]
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
    table = make_table(entries)
    datasets = make_datasets(groups)
    rows = fd.evaluate_test_series(table, datasets)
    assert len(rows) == 12 * len(datasets)
    for ds, start in zip(datasets, range(0, len(rows), 12)):
        got = rows[start : start + 12]
        expected = reference_indicators(table, [r.age for r in ds.records])
        if expected is None:
            assert all(r.category == fd.evaluate.NO_MATCH and r.value is None for r in got)
            continue
        assert [r.indicator for r in got] == list(fd.INDICATOR_NAMES)
        assert all(same(r.value, e) for r, e in zip(got, expected)), (got, expected)
        assert all(same(r.delta, e - ds.original_date) for r, e in zip(got, expected))
        ind = fd.compute_indicators(fd.match_measurements(table, list(ds.measurements)))
        assert all(same(ind.values[name], e) for name, e in zip(fd.INDICATOR_NAMES, expected))
        assert got[0].n_matches == ind.n_used("CalDate_Mean")


@PROPERTY
@given(entries=ENTRIES, groups=GROUPS)
def test_unique_counts_equal_distinct_values(entries, groups):
    table = make_table([(a, d, m if m == m else 0.0, med) for a, d, m, med in entries])
    for ds in make_datasets(groups):
        try:
            ms = fd.match_measurements(table, list(ds.measurements))
        except ValueError:
            continue
        ind = fd.compute_indicators(ms)
        for family, pooled in (("CalDate", ms.pooled_dates()), ("Mean", ms.pooled_means()),
                               ("Median", ms.pooled_medians())):
            assert ind.n_used(f"{family}_Mean") == len(pooled)
            assert ind.n_used(f"unique_{family}_Median") == len(set(pooled))


def test_batch_of_sets_equals_one_set_at_a_time(table_5_20_5, ts3_datasets):
    sample = ts3_datasets[::97]
    ages = np.array([r.age for ds in sample for r in ds.records], dtype=np.int64)
    values, n_prime = batch_indicators(table_5_20_5, ages, np.full(len(sample), 3))
    assert (n_prime > 0).all()
    for row, ds in zip(values, sample):
        ind = fd.compute_indicators(fd.match_measurements(table_5_20_5, list(ds.measurements)))
        assert row.tolist() == [ind.values[name] for name in fd.INDICATOR_NAMES]


# --- MPD search ---------------------------------------------------------------

def reference_mpd(pool, value, t0=1.0, dt=1.0, t_max=10.0, m_min=5):
    """The per-query search: (tolerance, count, mode, range, under_min)."""
    arr = np.sort(np.asarray(pool, dtype=float))

    def window(tol):
        return (int(np.searchsorted(arr, value - tol, side="left")),
                int(np.searchsorted(arr, value + tol, side="right")))

    tol = t0
    lo, hi = window(tol)
    while hi - lo < m_min and tol < t_max:
        tol = min(tol + dt, t_max)
        lo, hi = window(tol)
    matched = arr[lo:hi]
    if matched.size == 0:
        raise ValueError("no reference values within tolerance")
    values, counts = np.unique(matched, return_counts=True)
    candidates = values[counts == counts.max()]
    order = np.lexsort((candidates, np.abs(candidates - value)))
    return (float(tol), int(matched.size), float(candidates[order[0]]),
            float(matched.max() - matched.min()), bool(matched.size < m_min))


TIED = st.one_of(
    st.integers(-30, 30).map(float),
    st.integers(-60, 60).map(lambda k: k / 2.0),
    st.floats(-40.0, 40.0, allow_nan=False, allow_infinity=False),
)
SEARCH = st.tuples(
    st.sampled_from([0.5, 1.0, 2.0]),  # t0
    st.sampled_from([0.5, 1.0, 1.5]),  # dt
    st.sampled_from([0.5, 3.0, 10.0, 12.5]),  # t_max
    st.integers(1, 9),  # m_min
)


@PROPERTY
@given(pool=st.lists(TIED, min_size=1, max_size=80), queries=st.lists(TIED, max_size=30),
       search=SEARCH)
def test_one_pass_mpd_equals_per_query_search(pool, queries, search):
    arr = np.array(pool)
    answerable = []
    for q in queries + pool:
        try:
            expected = reference_mpd(pool, q, *search)
        except ValueError:
            with pytest.raises(ValueError, match="no reference values within tolerance"):
                fd.mpd_search(pool, q, *search)
            continue
        answerable.append((q, expected))
        r = fd.mpd_search(pool, q, *search)
        got = (r.tolerance, r.match_count, r.mpd, r.value_range, r.under_min)
        assert got == expected
    if answerable:
        qs = np.array([q for q, _ in answerable])
        tol, count, mpd, value_range = mpd_searches(arr, qs, *search)
        got = list(zip(tol.tolist(), count.tolist(), mpd.tolist(), value_range.tolist(),
                       (count < search[3]).tolist()))
        assert got == [e for _, e in answerable]


# --- aggregations over evaluation rows ----------------------------------------

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
    rows = [fd.EvalRow(i, date, name, None if d is None else date + d, d,
                       "no_match" if d is None else fd.classify_delta(d).value, 3)
            for i, date, name, d in cells]
    got = fd.performance_curves(rows, threshold)
    expected = reference_performance(rows, threshold)
    assert [g[:2] for g in got] == [e[:2] for e in expected]
    assert all(same(g[2], e[2]) for g, e in zip(got, expected))
    per_date, full = fd.average_deviation_analysis(rows)
    ref_per_date, ref_full = reference_deviation(rows)
    assert list(per_date) == list(ref_per_date)
    assert all(same(per_date[k], ref_per_date[k]) for k in per_date)
    assert list(full) == list(ref_full)
    assert all(same(full[k], ref_full[k]) for k in full)


@given(delta=st.one_of(st.floats(allow_nan=True), st.sampled_from([10.0, 25.0, 35.0, -35.0])))
@PROPERTY
def test_vectorized_categories_equal_classify_delta(delta):
    from finedating.evaluate import _category_names

    assert _category_names(np.array([delta]))[0] == fd.classify_delta(delta).value
