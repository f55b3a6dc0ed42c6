import inspect
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from scipy import special, stats

import finedating as fd
from finedating import csvio
from finedating.evaluate import (
    NO_MATCH,
    _ndtr,
    anderson_darling,
    average_deviation_analysis,
    category_fractions,
    dagostino_pearson,
    interval_normality,
    matches_within,
    mpd_report,
    read_eval_rows,
    write_eval_rows,
)
from conftest import eval_columns, make_series, same_eval, take_datasets
from test_finedate import tiny_table


# --- delta categories -------------------------------------------------------

@pytest.mark.parametrize(
    "delta,expected",
    [
        (-9, "excellent"),
        (10, "excellent"),
        (25, "high_quality"),
        (-25, "high_quality"),
        (10.5, "high_quality"),
        (35, "satisfactory"),
        (-40, "improvable"),
        (35.0001, "improvable"),
    ],
)
def test_classify_delta(delta, expected):
    assert fd.classify_delta(delta).value == expected


def test_classify_depends_only_on_magnitude():
    rng = np.random.default_rng(2)
    for d in rng.normal(0, 30, 100):
        assert fd.classify_delta(d) == fd.classify_delta(-d)


# --- MPD search -------------------------------------------------------------

def test_mpd_exact_pileup():
    r = fd.mpd_search([-75.0] * 5, -75.0)
    assert (r.tolerance, r.mpd, r.value_range, r.match_count) == (1.0, -75.0, 0.0, 5)
    assert not r.under_min


def test_mpd_grows_to_max_and_flags_under_min():
    r = fd.mpd_search([-80.0, -80.0, -75.0, -74.0, -60.0], -76.0)
    assert r.tolerance == 10.0
    assert r.match_count == 4
    assert r.mpd == -80.0
    assert r.value_range == 6.0
    assert r.under_min


def test_mpd_no_values_within_tolerance():
    with pytest.raises(ValueError, match="no reference values within tolerance"):
        fd.mpd_search([0.0], 50.0)
    with pytest.raises(ValueError, match="empty reference pool"):
        fd.mpd_search([], 0.0)


def test_mpd_mode_tiebreak_prefers_closer_then_older():
    # equal counts: -80 and -70 both appear twice; -70 is closer to -72
    r = fd.mpd_search([-80.0, -80.0, -70.0, -70.0, -75.0], -72.0)
    assert r.mpd == -70.0
    # equidistant tie goes to the older value
    r = fd.mpd_search([-80.0, -80.0, -70.0, -70.0, -76.0], -75.0)
    assert r.mpd == -80.0


def test_mpd_delta_against_original_date():
    r = fd.mpd_search([-75.0] * 5, -75.0, original_date=-70.0)
    assert r.delta == -5.0


def test_matched_set_monotone_in_tolerance():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        pool = rng.integers(-300, 0, size=rng.integers(1, 40)).astype(float)
        x = float(rng.integers(-310, 10))
        prev: set = set()
        for tol in (1.0, 3.0, 6.0, 10.0):
            got = matches_within(pool, x, tol)
            current = set(got.tolist())
            assert prev.issubset(current)
            prev = current


def test_mpd_deterministic(eval_rows):
    pool = eval_rows.value[~np.isnan(eval_rows.value)][:50].tolist()
    a = [fd.mpd_search(pool, value) for value in pool]
    b = [fd.mpd_search(pool, value) for value in pool]
    assert a == b


# --- overall aggregation ----------------------------------------------------

def test_overall_aggregate_examples():
    assert fd.overall_aggregate([-100, -100]) == (-100.0, -100.0)
    assert fd.overall_aggregate(np.array([-110.0, -100.0, -90.0])) == (-100.0, -100.0)
    mean, median = fd.overall_aggregate([-110, -100, -95, -90])
    assert mean == pytest.approx(-98.75)
    assert median == pytest.approx(-97.5)
    with pytest.raises(ValueError):
        fd.overall_aggregate([])


# --- test series evaluation -------------------------------------------------

def test_degenerate_single_record_table():
    table = tiny_table([(1, -120, 2000, -118.0, -119.0)])
    series = make_series([(1, -110.0, [(2000, 0.0)] * 3)])
    rows = fd.evaluate_test_series(table, series)
    assert len(rows) == 12
    by_name = dict(zip(rows.indicator.tolist(), rows.delta.tolist()))
    for name in fd.FAMILIES["CalDate"]:
        assert by_name[name] == pytest.approx(-120.0 - (-110.0))
    for name in fd.FAMILIES["Mean"]:
        assert by_name[name] == pytest.approx(-118.0 - (-110.0))
    for name in fd.FAMILIES["Median"]:
        assert by_name[name] == pytest.approx(-119.0 - (-110.0))


def test_unmatched_dataset_yields_flagged_rows():
    table = tiny_table([(1, -120, 2000)])
    rows = fd.evaluate_test_series(table, make_series([(7, -110.0, [(1700, 0.0)])]))
    assert len(rows) == 12
    assert (rows.category == NO_MATCH).all() and np.isnan(rows.value).all()
    assert (rows.data_id == 7).all() and (rows.n_matches == 0).all()


@pytest.mark.parametrize("sd", [-3.0, math.nan, math.inf])
def test_series_with_a_bad_sd_is_rejected(sd):
    good, bad = (2000, 20.0), (2000, sd)
    with pytest.raises(ValueError, match=r"dataset 2: sd must be finite and >= 0, got "):
        make_series([(1, -110.0, [good]), (2, -110.0, [good, bad]), (3, -110.0, [good])])


def test_full_scale_eval_shape(eval_rows):
    assert len(eval_rows) == 6100 * 12
    per_indicator = {}
    for name in eval_rows.indicator.tolist():
        per_indicator[name] = per_indicator.get(name, 0) + 1
    assert set(per_indicator) == set(fd.INDICATOR_NAMES)
    assert all(count == 6100 for count in per_indicator.values())


def test_category_counts_partition_matched_datasets(eval_rows):
    matched = eval_rows.category != NO_MATCH
    matched_datasets = set(eval_rows.data_id[matched].tolist())
    for name in fd.INDICATOR_NAMES:
        by_cat = {}
        for category in eval_rows.category[matched & (eval_rows.indicator == name)].tolist():
            by_cat[category] = by_cat.get(category, 0) + 1
        assert sum(by_cat.values()) == len(matched_datasets)
        assert set(by_cat) <= {c.value for c in fd.DeltaCategory}


def test_pipeline_consistency_against_report_files(tmp_path, table_5_20_5, ts3_datasets):
    # the eval row delta must be recomputable from the report files alone
    ds = take_datasets(ts3_datasets, [150])
    measurements = [fd.Measurement(age, sd) for age, sd in zip(ds.age.tolist(), ds.sd.tolist())]
    ms = fd.match_measurements(table_5_20_5, measurements)
    ind = fd.compute_indicators(ms)
    _, summary = fd.write_report(ms, ind, tmp_path / "ds")
    from finedating.finedate import read_summary

    values = read_summary(summary)
    rows = fd.evaluate_test_series(table_5_20_5, ds)
    for name, delta in zip(rows.indicator.tolist(), rows.delta.tolist()):
        assert delta == pytest.approx(values[name] - ds.original_date[0], abs=1e-9)


# --- performance curves -----------------------------------------------------

def test_performance_all_perfect():
    table = tiny_table([(1, -120, 2000, -120.0, -120.0)])
    rows = fd.evaluate_test_series(table, make_series([(1, -120.0, [(2000, 0.0)])]))
    for _, _, frac in fd.performance_curves(rows, 25):
        assert frac == 1.0


def test_performance_half_success():
    rows = []
    for data_id, delta in ((1, 5.0), (2, 100.0)):
        for name in fd.INDICATOR_NAMES:
            rows.append(
                (data_id, -100.0, name, -100.0 + delta, delta, fd.classify_delta(delta).value, 5)
            )
    out = fd.performance_curves(eval_columns(rows), 25)
    assert [(d, f, frac) for d, f, frac in out] == [
        (-100.0, "CalDate", 0.5),
        (-100.0, "Mean", 0.5),
        (-100.0, "Median", 0.5),
    ]


def test_performance_rejects_unknown_threshold(eval_rows):
    with pytest.raises(ValueError, match="threshold"):
        fd.performance_curves(eval_rows[:12], 30)


def test_performance_monotone_in_threshold(eval_rows):
    at25 = {(d, f): frac for d, f, frac in fd.performance_curves(eval_rows, 25)}
    at35 = {(d, f): frac for d, f, frac in fd.performance_curves(eval_rows, 35)}
    assert set(at25) == set(at35)
    for key in at25:
        assert at35[key] >= at25[key]
    assert len({d for d, _ in at25}) == 61


# --- average deviation ------------------------------------------------------

def test_average_deviation_cancels_symmetric_deltas():
    rows = eval_columns([
        (1, -100.0, "CalDate_Mean", -98.0, 2.0, "excellent", 5),
        (2, -100.0, "CalDate_Mean", -102.0, -2.0, "excellent", 5),
    ])
    per_date, full = average_deviation_analysis(rows)
    assert per_date[(-100.0, "CalDate_Mean")] == 0.0
    assert full["CalDate_Mean"] == 0.0


def test_average_deviation_small_on_benign_curve(eval_rows):
    # the synthetic study curve carries no strong systematic bias
    _, full = average_deviation_analysis(eval_rows)
    for name in fd.INDICATOR_NAMES:
        assert abs(full[name]) < 6.0


# --- normality tests --------------------------------------------------------

def test_dagostino_matches_scipy_on_shared_fixtures():
    rng = np.random.default_rng(1)
    for i in range(50):
        n = int(rng.integers(20, 400))
        x = rng.normal(0, 3, n) if i % 2 else rng.exponential(2.0, n)
        ours = dagostino_pearson(x)
        ref_stat, ref_p = stats.normaltest(x)
        assert ours.statistic == pytest.approx(float(ref_stat), abs=1e-6)
        assert ours.p_value == pytest.approx(float(ref_p), abs=1e-6)


# scipy 1.17 warns unless a p-value method is chosen; older scipy has no
# ``method``.  The statistic is the same either way.
ANDERSON_METHOD = (
    {"method": "interpolate"} if "method" in inspect.signature(stats.anderson).parameters else {}
)


def test_anderson_matches_scipy_on_shared_fixtures():
    rng = np.random.default_rng(2)
    for i in range(50):
        n = int(rng.integers(8, 400))
        x = rng.normal(0, 3, n) if i % 2 else rng.uniform(-1, 1, n)
        ours = anderson_darling(x)
        correction = 1.0 + 0.75 / n + 2.25 / n**2
        ref = stats.anderson(x, dist="norm", **ANDERSON_METHOD).statistic * correction
        assert ours.statistic == pytest.approx(float(ref), abs=1e-6)


def test_dagostino_rejects_small_sample():
    with pytest.raises(ValueError, match="sample too small"):
        dagostino_pearson(np.arange(10.0))


def test_dagostino_seeded_normal_mostly_passes():
    rng = np.random.default_rng(3)
    passes = sum(
        dagostino_pearson(rng.normal(0, 1, 300)).p_value > 0.05 for _ in range(100)
    )
    assert passes >= 95


def test_dagostino_detects_bimodal():
    x = np.concatenate([np.full(100, -10.0), np.full(100, 10.0)])
    x = x + np.random.default_rng(4).normal(0, 0.5, 200)
    assert dagostino_pearson(x).p_value < 0.001


def test_anderson_seeded_normal_below_critical():
    rng = np.random.default_rng(5)
    below = sum(
        anderson_darling(rng.normal(0, 1, 500)).statistic < 1.035 for _ in range(100)
    )
    assert below >= 90


def test_anderson_rejects_constant_sample():
    with pytest.raises(ValueError, match="zero variance"):
        anderson_darling(np.full(50, 3.0))
    with pytest.raises(ValueError, match="too small"):
        anderson_darling(np.arange(5.0))


def test_dagostino_rejects_constant_sample():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="zero variance"):
            dagostino_pearson(np.full(30, -100.0))


def test_dagostino_p_is_the_chi2_2_tail():
    # For 2 degrees of freedom the chi-square upper tail is exp(-k2/2).
    rng = np.random.default_rng(6)
    for i in range(200):
        n = int(rng.integers(20, 2000))
        x = [rng.normal(0, 3, n), rng.exponential(2.0, n), rng.uniform(-1, 1, n)][i % 3]
        got = dagostino_pearson(x)
        k2 = got.statistic
        assert got.p_value == math.exp(-k2 / 2)
        want = float(special.chdtrc(2, k2))
        if want >= np.finfo(float).tiny:
            assert got.p_value == pytest.approx(want, rel=1e-12, abs=0)
        else:  # Cephes returns 0 once k2/2 > MAXLOG; exp goes on into the subnormals
            assert got.p_value < np.finfo(float).tiny


_SQRT2 = math.sqrt(2.0)
_MAXLOG_CUT = math.sqrt(2 * 7.09782712893383996843e2)  # |z| where erfc's -x*x reaches -MAXLOG


def _steps_around(points, k=64):
    # each point and the k doubles on either side of it
    points = np.asarray(points, dtype=float)
    up, down = [points], [points]
    for _ in range(k):
        up.append(np.nextafter(up[-1], np.inf))
        down.append(np.nextafter(down[-1], -np.inf))
    return np.concatenate(up + down)


NDTR_INPUTS = {
    "normal": lambda rng: rng.normal(size=400_000),
    "uniform 8": lambda rng: rng.uniform(-8, 8, 400_000),
    "uniform 40": lambda rng: rng.uniform(-40, 40, 400_000),
    "branch edges": lambda rng: _steps_around([_SQRT2, -_SQRT2, 8 * _SQRT2, -8 * _SQRT2]),
    "MAXLOG cut": lambda rng: np.concatenate([
        _steps_around([_MAXLOG_CUT, -_MAXLOG_CUT], k=2000),
        rng.uniform(-1e-9, 1e-9, 20_000) + _MAXLOG_CUT,
        rng.uniform(-1e-9, 1e-9, 20_000) - _MAXLOG_CUT,
        np.linspace(-_MAXLOG_CUT - 1, -_MAXLOG_CUT + 1, 20_001),
    ]),
    "signed zeros": lambda rng: np.array([0.0, -0.0, 5e-324, -5e-324]),
}


@pytest.mark.parametrize("case", NDTR_INPUTS)
def test_ndtr_equals_scipy_bit_for_bit(case):
    z = NDTR_INPUTS[case](np.random.default_rng(7))
    got = _ndtr(z)
    want = special.ndtr(z)
    assert got.dtype == want.dtype == np.float64
    differ = got.view(np.int64) != want.view(np.int64)
    assert not differ.any(), (z[differ][:5], got[differ][:5], want[differ][:5])


def test_ndtr_of_non_finite_and_huge_inputs_warns_nothing():
    z = np.array([np.inf, -np.inf, np.nan, 1e300, -1e300, 40.0, -40.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _ndtr(z)
    np.testing.assert_array_equal(got, [1.0, 0.0, np.nan, 1.0, 0.0, 1.0, 0.0])
    np.testing.assert_array_equal(got, special.ndtr(z))


# --- histogram helpers ------------------------------------------------------

@pytest.mark.parametrize("n,expected", [(300, 14), (1163, 22), (12, 5), (6100, 37), (1, 2)])
def test_rice_bins(n, expected):
    assert fd.rice_bins(n) == expected


def test_rice_bins_rejects_empty():
    with pytest.raises(ValueError):
        fd.rice_bins(0)


def test_histogram_constant_sample():
    edges, counts = fd.histogram([0.0, 0.0, 0.0, 0.0])
    assert list(counts) == [4]


def test_histogram_hand_binning():
    edges, counts = fd.histogram(list(range(10)), bins=5)
    assert list(counts) == [2, 2, 2, 2, 2]
    assert edges[0] == 0.0 and edges[-1] == 9.0


def test_histogram_counts_conserved():
    rng = np.random.default_rng(6)
    for _ in range(10):
        x = rng.normal(0, 10, int(rng.integers(1, 500)))
        _, counts = fd.histogram(x)
        assert counts.sum() == x.size


# --- interval normality and eval csv ----------------------------------------

def test_interval_normality_rows(table_5_20_5, ts3_datasets):
    picks = np.flatnonzero(np.isin(ts3_datasets.original_date, (-150.0, -145.0)))
    subset = take_datasets(ts3_datasets, picks)
    rows = interval_normality(table_5_20_5, subset)
    assert [r.original_date for r in rows] == [-150.0, -145.0]
    for r in rows:
        assert r.n_ages == 300
        assert 0.0 <= r.ages_p_value <= 1.0
        assert r.n_matched_dates > 0


def test_eval_rows_csv_roundtrip(tmp_path, eval_rows):
    subset = eval_rows[: 12 * 20]
    path = tmp_path / "eval.csv"
    write_eval_rows(subset, path)
    back = read_eval_rows(path)
    assert same_eval(back, subset)


# --- the binary sidecar of eval_long.csv ----------------------------------------


def csv_only_eval(path, tmp_path) -> fd.EvalColumns:
    """The rows read from a copy of ``path`` that has no sidecar."""
    copy = tmp_path / "csv-only" / path.name
    copy.parent.mkdir(exist_ok=True)
    copy.write_bytes(path.read_bytes())
    return read_eval_rows(copy)


def spoil_eval(sidecar, kind: str, path, rows) -> None:
    """Damage the sidecar of ``path`` so that only ``kind`` is wrong: its
    ``#crc`` and ``#bytes`` still match, except for a stale sidecar, which
    is left beside ``path`` rewritten with other rows."""
    good = dict(np.load(sidecar))
    if kind == "stale":
        old = sidecar.read_bytes()
        write_eval_rows(rows[::-1], path)
        sidecar.write_bytes(old)
        return
    if kind == "code out of range":
        good["indicator"][-1] = good["indicator#labels"].size
    elif kind == "negative code":  # the last label, were it taken as an index
        good["category"][0] = -1
    elif kind == "labels not bytes":
        good["category#labels"] = good["category#labels"].astype(str)
    elif kind == "labels of raw bytes":  # void, not S: they read back as bytes
        good["category#labels"] = good["category#labels"].astype("V")
    elif kind == "NaN in a float column":
        good["original_cal_date"][0] = np.nan
    elif kind == "missing labels":
        del good["indicator#labels"]
    np.savez(sidecar, **good)


@pytest.mark.parametrize("kind", ["code out of range", "negative code", "labels not bytes",
                                  "labels of raw bytes", "NaN in a float column",
                                  "missing labels", "stale"])
def test_bad_eval_sidecar_reads_as_the_csv_alone(tmp_path, eval_rows, kind, monkeypatch):
    rows = eval_rows[(eval_rows.data_id <= 20) | (eval_rows.category == NO_MATCH)]
    assert np.isnan(rows.value).any()
    path = tmp_path / "eval_long.csv"
    write_eval_rows(rows, path)
    spoil_eval(csvio.sidecar_path(path), kind, path, rows)
    parse = mock.Mock(wraps=csvio._read_lines)
    monkeypatch.setattr(csvio, "_read_lines", parse)
    back = read_eval_rows(path)
    assert parse.called
    expected = csv_only_eval(path, tmp_path)
    assert same_eval(back, expected)
    assert [type(cell) for cell in back.indicator.tolist()] == [str] * len(back)


def test_eval_sidecar_read_equals_csv_read(tmp_path, eval_rows, monkeypatch):
    path = tmp_path / "eval_long.csv"
    write_eval_rows(eval_rows, path)
    monkeypatch.setattr(csvio, "_read_lines", mock.Mock(side_effect=AssertionError("parsed")))
    back = read_eval_rows(path)
    assert same_eval(back, eval_rows)
    monkeypatch.undo()
    assert same_eval(back, csv_only_eval(path, tmp_path))
    assert all(type(cell) is str for cell in back.category.tolist())


def test_mpd_report_skips_valueless_rows(eval_rows):
    subset = eval_rows[: 12 * 50]
    report = mpd_report(subset)
    assert len(report["mpd"]) == np.count_nonzero(~np.isnan(subset.value))
    assert (report["match_count"] >= 1).all()
    assert (report["range"] >= 0).all()


def test_category_fractions_sum_to_one(eval_rows):
    fractions = category_fractions(eval_rows)
    assert sum(fractions.values()) == pytest.approx(1.0)
