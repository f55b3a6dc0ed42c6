import numpy as np
import pytest

import finedating as fd
from conftest import brute_indicators, make_table, random_matchset
from finedating.finedate import read_summary


def tiny_table(entries, label="tiny", sd=5.0):
    """Reference table from (id, date, age[, cal_mean, cal_median]) rows."""
    rows = []
    for entry in entries:
        rid, date, age = entry[:3]
        cal_mean = entry[3] if len(entry) > 3 else date - 2.0
        cal_median = entry[4] if len(entry) > 4 else date - 1.0
        rows.append((rid, date, age, sd, cal_mean, cal_median, 8.0))
    return make_table(rows, label=label, span=(-100.0, 0.0), sd=sd)


def test_single_hit():
    table = tiny_table([(1, -50, 2000), (2, -55, 2005)])
    ms = fd.match_measurements(table, [fd.Measurement(2000, 20)])
    assert ms.n_prime == 1
    assert ms.pooled_dates() == [-50.0]
    assert ms.unmatched == ()


def test_all_unmatched_is_an_error():
    table = tiny_table([(1, -50, 2000), (2, -55, 2005)])
    with pytest.raises(ValueError, match="no matches in reference table"):
        fd.match_measurements(table, [fd.Measurement(1900, 20)])


def test_duplicate_measurements_form_multiset_union():
    table = tiny_table([(1, -50, 2000), (2, -55, 2000), (3, -60, 2000)])
    ms = fd.match_measurements(table, [fd.Measurement(2000, 20), fd.Measurement(2000, 20)])
    assert ms.n_prime == 6
    assert sorted(ms.pooled_dates()) == [-60.0, -60.0, -55.0, -55.0, -50.0, -50.0]


def test_partial_unmatched_recorded_not_dropped():
    table = tiny_table([(1, -50, 2000)])
    ms = fd.match_measurements(
        table, [fd.Measurement(2000, 20), fd.Measurement(1900, 20)]
    )
    assert ms.unmatched == (1900,)
    assert ms.n_prime == 1
    assert ms.unique_measured_ages() == 2


def test_empty_measurement_list_rejected():
    table = tiny_table([(1, -50, 2000)])
    with pytest.raises(ValueError, match="no measurements"):
        fd.match_measurements(table, [])


def test_singleton_indicators():
    table = tiny_table([(1, -100, 2000, -102.0, -101.0)])
    ms = fd.match_measurements(table, [fd.Measurement(2000, 20)])
    ind = fd.compute_indicators(ms)
    for name in ("CalDate_Mean", "CalDate_Median", "unique_CalDate_Mean", "unique_CalDate_Median"):
        assert ind.value(name) == -100.0
    for name in ("Mean_Mean", "Mean_Median", "unique_Mean_Mean", "unique_Mean_Median"):
        assert ind.value(name) == -102.0
    for name in ("Median_Mean", "Median_Median", "unique_Median_Mean", "unique_Median_Median"):
        assert ind.value(name) == -101.0


def test_hand_computed_example():
    # pooled dates {-100, -100, -90}
    table = tiny_table([(1, -100, 2000), (2, -100, 2001), (3, -90, 2002)])
    ms = fd.match_measurements(
        table,
        [fd.Measurement(2000, 20), fd.Measurement(2001, 20), fd.Measurement(2002, 20)],
    )
    ind = fd.compute_indicators(ms)
    assert ind.value("CalDate_Mean") == pytest.approx(-96.6666666667)
    assert ind.value("CalDate_Median") == -100.0
    assert ind.value("unique_CalDate_Mean") == -95.0
    assert ind.value("unique_CalDate_Median") == -95.0
    assert ind.n_used("CalDate_Mean") == 3
    assert ind.n_used("unique_CalDate_Mean") == 2


def test_even_cardinality_median_is_mean_of_central_pair():
    table = tiny_table([(1, -100, 2000), (2, -90, 2001), (3, -80, 2002), (4, -50, 2003)])
    ms = fd.match_measurements(table, [fd.Measurement(2000 + i, 20) for i in range(4)])
    ind = fd.compute_indicators(ms)
    assert ind.value("CalDate_Median") == -85.0


def test_permutation_invariance():
    table = tiny_table(
        [(i + 1, -50 - 5 * (i % 4), 2000 + i % 3) for i in range(12)]
    )
    meas = [fd.Measurement(2000, 20), fd.Measurement(2001, 20), fd.Measurement(2002, 20)]
    a = fd.compute_indicators(fd.match_measurements(table, meas))
    b = fd.compute_indicators(fd.match_measurements(table, meas[::-1]))
    for name in fd.INDICATOR_NAMES:
        assert a.value(name) == b.value(name)


def test_duplicating_reference_records_changes_nothing():
    entries = [(1, -50, 2000), (2, -55, 2000), (3, -60, 2001)]
    doubled = entries + [(4, -50, 2000), (5, -55, 2000), (6, -60, 2001)]
    meas = [fd.Measurement(2000, 20), fd.Measurement(2001, 20)]
    a = fd.compute_indicators(fd.match_measurements(tiny_table(entries), meas))
    b = fd.compute_indicators(fd.match_measurements(tiny_table(doubled), meas))
    for name in fd.INDICATOR_NAMES:
        assert a.value(name) == pytest.approx(b.value(name), abs=1e-12)


def test_indicator_values_stay_within_source_range():
    rng = np.random.default_rng(17)
    for _ in range(50):
        ms = random_matchset(rng)
        if ms.n_prime == 0:
            continue
        ind = fd.compute_indicators(ms)
        for family, values in (
            ("CalDate", ms.pooled_dates()),
            ("Mean", ms.pooled_means()),
            ("Median", ms.pooled_medians()),
        ):
            for suffix in ("Mean", "Median"):
                assert min(values) <= ind.value(f"{family}_{suffix}") <= max(values)
                assert min(values) <= ind.value(f"unique_{family}_{suffix}") <= max(values)


def test_matches_brute_force_reimplementation():
    rng = np.random.default_rng(23)
    checked = 0
    while checked < 200:
        ms = random_matchset(rng)
        if ms.n_prime == 0:
            continue
        checked += 1
        ind = fd.compute_indicators(ms)
        expected = brute_indicators(
            ms.pooled_dates(), ms.pooled_means(), ms.pooled_medians()
        )
        for name in fd.INDICATOR_NAMES:
            assert ind.value(name) == pytest.approx(expected[name], abs=1e-9)


def test_empty_matchset_rejected():
    ms = fd.MatchSet(
        table=tiny_table([(1, -50, 1990)]),
        measurements=(fd.Measurement(2000, 10),),
        positions=np.array([], dtype=np.int64),
        counts=np.array([0]),
    )
    assert ms.unmatched == (2000,)
    with pytest.raises(ValueError, match="nothing to aggregate"):
        fd.compute_indicators(ms)


def test_normalize_indicator_variants():
    assert fd.normalize_indicator("CalDateMedian") == "CalDate_Median"
    assert fd.normalize_indicator("caldate median") == "CalDate_Median"
    assert fd.normalize_indicator("unique_mean_mean") == "unique_Mean_Mean"
    with pytest.raises(ValueError, match="unknown indicator"):
        fd.normalize_indicator("Mode_Mode")


def test_report_files_and_roundtrip(tmp_path):
    table = tiny_table([(1, -50, 2000), (2, -55, 2000), (3, -60, 2001)])
    meas = [fd.Measurement(2000, 20), fd.Measurement(2001, 20), fd.Measurement(1900, 20)]
    ms = fd.match_measurements(table, meas)
    ind = fd.compute_indicators(ms)
    overview, summary = fd.write_report(ms, ind, tmp_path / "report")

    overview_lines = [
        l for l in open(overview).read().splitlines() if l and not l.startswith("#")
    ]
    assert len(overview_lines) - 1 == ms.n_prime  # one row per matched record

    text = open(summary).read()
    assert "unmatched_age,1900,0" in text
    values = read_summary(summary)
    assert set(values) == set(fd.INDICATOR_NAMES)
    for name in fd.INDICATOR_NAMES:
        assert values[name] == pytest.approx(ind.value(name), abs=1e-12)


def test_single_match_report_shape(tmp_path):
    table = tiny_table([(1, -50, 2000)])
    ms = fd.match_measurements(table, [fd.Measurement(2000, 20)])
    ind = fd.compute_indicators(ms)
    overview, summary = fd.write_report(ms, ind, tmp_path / "one")
    overview_rows = [
        l for l in open(overview).read().splitlines() if l and not l.startswith("#")
    ][1:]
    assert len(overview_rows) == 1
    assert len(read_summary(summary)) == 12


@pytest.mark.parametrize("k", [3, 40], ids=["few ages", "many ages"])
def test_match_sorts_no_more_than_the_matched_rows(monkeypatch, k):
    # matching costs O(n + m log m): for few ages and for many, no sort
    # runs over more than the m matched rows of the n-row table
    rng = np.random.default_rng(17)
    n = 50_000
    age = rng.integers(0, 5000, n)
    table = make_table([(i + 1, -50.0, a, 5.0, -52.0, -51.0, 8.0)
                        for i, a in enumerate(age.tolist())])
    ages = rng.choice(np.unique(age), k, replace=False)
    matched = int(np.isin(age, ages).sum())
    sizes = []
    for name in ("sort", "argsort", "lexsort", "unique", "partition", "argpartition"):
        real = getattr(np, name)

        def counted(a, *args, _real=real, **kwargs):
            sizes.append(np.size(a))
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np, name, counted)
    matches = fd.match_measurements(table, [fd.Measurement(int(a), 20) for a in ages])
    monkeypatch.undo()
    assert matches.n_prime == matched
    assert sizes and max(sizes) <= matched
