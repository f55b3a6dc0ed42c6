"""Quality assessment of fine-dating results.

Covers the tolerance-grown most-probable-date search against indicator
reference pools, signed deltas against known original dates and their
quality categories, per-date performance fractions for the three
indicator families, average-deviation tables, omnibus and
Anderson-Darling normality checks, and Rice-rule histogram utilities.
All outputs are plain rows ready for CSV emission; nothing here draws.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from enum import Enum
from pathlib import Path

import numpy as np
from scipy.stats import distributions

from . import csvio
from .finedate import (
    FAMILIES,
    INDICATOR_NAMES,
    compute_indicators,
    match_measurements,
)
from .reftable import RefTable
from .simulate import TestDataset


class DeltaCategory(str, Enum):
    """Quality class of an absolute deviation, boundary to the better class."""

    EXCELLENT = "excellent"
    HIGH_QUALITY = "high_quality"
    SATISFACTORY = "satisfactory"
    IMPROVABLE = "improvable"


def classify_delta(delta: float) -> DeltaCategory:
    """Category of a signed deviation in years; depends only on |delta|."""
    d = abs(delta)
    if d <= 10:
        return DeltaCategory.EXCELLENT
    if d <= 25:
        return DeltaCategory.HIGH_QUALITY
    if d <= 35:
        return DeltaCategory.SATISFACTORY
    return DeltaCategory.IMPROVABLE


@dataclass(frozen=True)
class MPDResult:
    """Outcome of one tolerance-grown mode search."""

    indicator: str
    value: float
    tolerance: float
    match_count: int
    mpd: float
    value_range: float
    under_min: bool
    delta: float | None = None


def matches_within(pool: list[float] | np.ndarray, value: float, tol: float) -> np.ndarray:
    """Pool entries within +-tol of value (multiset, original multiplicity)."""
    arr = np.asarray(pool, dtype=float)
    return arr[np.abs(arr - value) <= tol]


def mpd_search(
    pool: list[float] | np.ndarray,
    value: float,
    t0: float = 1.0,
    dt: float = 1.0,
    t_max: float = 10.0,
    m_min: int = 5,
    indicator: str = "",
    original_date: float | None = None,
    assume_sorted: bool = False,
) -> MPDResult:
    """Grow the tolerance from t0 by dt until at least m_min pool values
    fall within it (or t_max is reached), then report the mode.

    Mode ties break toward the value closest to the query, then toward
    the older date.  One to m_min-1 matches at t_max are returned with
    ``under_min`` set; zero matches at t_max is an error.  Callers
    issuing many searches against one pool can pre-sort it and pass
    ``assume_sorted`` to skip the per-call sort.
    """
    arr = np.asarray(pool, dtype=float)
    if arr.size == 0:
        raise ValueError("empty reference pool")
    if not assume_sorted:
        arr = np.sort(arr)

    def window(tol: float) -> tuple[int, int]:
        return (
            int(np.searchsorted(arr, value - tol, side="left")),
            int(np.searchsorted(arr, value + tol, side="right")),
        )

    tol = t0
    lo, hi = window(tol)
    while hi - lo < m_min and tol < t_max:
        tol = min(tol + dt, t_max)
        lo, hi = window(tol)
    matched = arr[lo:hi]
    if matched.size == 0:
        raise ValueError(
            f"no reference values within tolerance: nothing within +-{t_max:g} of {value:g}"
        )
    values, counts = np.unique(matched, return_counts=True)
    best = counts.max()
    candidates = values[counts == best]
    # closest to the query value first, older (more negative) on ties
    order = np.lexsort((candidates, np.abs(candidates - value)))
    mpd = float(candidates[order[0]])
    delta = None if original_date is None else mpd - original_date
    return MPDResult(
        indicator=indicator,
        value=float(value),
        tolerance=float(tol),
        match_count=int(matched.size),
        mpd=mpd,
        value_range=float(matched.max() - matched.min()),
        under_min=bool(matched.size < m_min),
        delta=delta,
    )


def overall_aggregate(results: list[MPDResult]) -> tuple[float, float]:
    """(mean, median) of the most probable dates."""
    if not results:
        raise ValueError("no MPD results to aggregate")
    mpds = [r.mpd for r in results]
    return float(np.mean(mpds)), float(np.median(mpds))


NO_MATCH = "no_match"


@dataclass(frozen=True)
class EvalRow:
    """One indicator of one evaluated dataset, long form."""

    data_id: int
    original_date: float
    indicator: str
    value: float | None
    delta: float | None
    category: str
    n_matches: int


def evaluate_test_series(table: RefTable, datasets: list[TestDataset]) -> list[EvalRow]:
    """Fine-date every dataset against the table and score each of the
    twelve indicators against the known original date.

    Datasets without any match yield flagged rows (category
    ``no_match``) rather than aborting the run.
    """
    rows: list[EvalRow] = []
    for ds in datasets:
        try:
            matches = match_measurements(table, list(ds.measurements))
        except ValueError:
            for name in INDICATOR_NAMES:
                rows.append(
                    EvalRow(
                        data_id=ds.data_id,
                        original_date=ds.original_date,
                        indicator=name,
                        value=None,
                        delta=None,
                        category=NO_MATCH,
                        n_matches=0,
                    )
                )
            continue
        indicators = compute_indicators(matches)
        for name, value, _ in indicators.as_rows():
            delta = value - ds.original_date
            rows.append(
                EvalRow(
                    data_id=ds.data_id,
                    original_date=ds.original_date,
                    indicator=name,
                    value=value,
                    delta=delta,
                    category=classify_delta(delta).value,
                    n_matches=matches.n_prime,
                )
            )
    return rows


def performance_curves(
    rows: list[EvalRow], threshold: float
) -> list[tuple[float, str, float]]:
    """Per-date success fraction of the three indicator families.

    A dataset succeeds for a family when the mean of its four absolute
    indicator deltas is at or below the threshold; unmatched datasets
    count as failures.  Returns (date, family, fraction) sorted by date.
    """
    if threshold not in (25.0, 35.0, 25, 35):
        raise ValueError(f"unsupported threshold {threshold!r}: use 25 or 35")
    by_dataset: dict[int, dict[str, EvalRow]] = {}
    date_of: dict[int, float] = {}
    for row in rows:
        by_dataset.setdefault(row.data_id, {})[row.indicator] = row
        date_of[row.data_id] = row.original_date

    per_date: dict[float, dict[str, list[bool]]] = {}
    for data_id, ind_rows in by_dataset.items():
        date = date_of[data_id]
        slot = per_date.setdefault(date, {name: [] for name in FAMILIES})
        for family, members in FAMILIES.items():
            deltas = [ind_rows[m].delta for m in members if m in ind_rows]
            if any(d is None for d in deltas) or len(deltas) < len(members):
                slot[family].append(False)
            else:
                score = float(np.mean(np.abs(deltas)))
                slot[family].append(score <= threshold)
    out = []
    for date in sorted(per_date):
        for family in FAMILIES:
            flags = per_date[date][family]
            out.append((date, family, sum(flags) / len(flags)))
    return out


def average_deviation_analysis(
    rows: list[EvalRow],
) -> tuple[dict[tuple[float, str], float], dict[str, float]]:
    """Signed mean delta per (original date, indicator) and over the
    full span.  Values are unrounded; round only for display."""
    if not rows:
        raise ValueError("no evaluation rows")
    sums: dict[tuple[float, str], list[float]] = {}
    totals: dict[str, list[float]] = {name: [] for name in INDICATOR_NAMES}
    for row in rows:
        if row.delta is None:
            continue
        sums.setdefault((row.original_date, row.indicator), []).append(row.delta)
        totals[row.indicator].append(row.delta)
    per_date = {key: float(np.mean(vals)) for key, vals in sorted(sums.items())}
    full_span = {
        name: float(np.mean(vals)) if vals else math.nan for name, vals in totals.items()
    }
    return per_date, full_span


def category_fractions(rows: list[EvalRow]) -> dict[str, float]:
    """Fraction of matched indicator evaluations per quality category."""
    matched = [r for r in rows if r.category != NO_MATCH]
    if not matched:
        raise ValueError("no matched evaluation rows")
    n = len(matched)
    return {
        cat.value: sum(1 for r in matched if r.category == cat.value) / n
        for cat in DeltaCategory
    }


@dataclass(frozen=True)
class NormalityResult:
    test_name: str
    statistic: float
    p_value: float | None
    n: int


def dagostino_pearson(sample) -> NormalityResult:
    """Omnibus normality test combining transformed skewness and
    kurtosis z-scores; p from chi-square with 2 degrees of freedom.

    Requires n >= 20, the validity floor of the kurtosis transform.
    """
    x = np.asarray(sample, dtype=float)
    n = x.size
    if n < 20:
        raise ValueError(f"sample too small for omnibus test: n={n} < 20")
    zs = _skewness_z(x)
    zk = _kurtosis_z(x)
    k2 = zs * zs + zk * zk
    p = float(distributions.chi2.sf(k2, 2))
    return NormalityResult(test_name="dagostino_pearson", statistic=float(k2), p_value=p, n=n)


def _skewness_z(x: np.ndarray) -> float:
    # transformation of sample skewness to an approximate standard normal
    n = x.size
    m = x.mean()
    m2 = ((x - m) ** 2).mean()
    m3 = ((x - m) ** 3).mean()
    b1 = m3 / m2 ** 1.5
    y = b1 * math.sqrt((n + 1) * (n + 3) / (6.0 * (n - 2)))
    beta2 = (
        3.0
        * (n * n + 27 * n - 70)
        * (n + 1)
        * (n + 3)
        / ((n - 2.0) * (n + 5) * (n + 7) * (n + 9))
    )
    w2 = -1.0 + math.sqrt(2.0 * (beta2 - 1.0))
    delta = 1.0 / math.sqrt(0.5 * math.log(w2))
    alpha = math.sqrt(2.0 / (w2 - 1.0))
    return delta * math.log(y / alpha + math.sqrt((y / alpha) ** 2 + 1.0))


def _kurtosis_z(x: np.ndarray) -> float:
    # transformation of sample kurtosis to an approximate standard normal
    n = x.size
    m = x.mean()
    m2 = ((x - m) ** 2).mean()
    m4 = ((x - m) ** 4).mean()
    b2 = m4 / (m2 * m2)
    e = 3.0 * (n - 1) / (n + 1)
    var = 24.0 * n * (n - 2) * (n - 3) / ((n + 1) ** 2 * (n + 3) * (n + 5))
    xx = (b2 - e) / math.sqrt(var)
    beta1 = (
        6.0
        * (n * n - 5 * n + 2)
        / ((n + 7.0) * (n + 9))
        * math.sqrt(6.0 * (n + 3) * (n + 5) / (n * (n - 2.0) * (n - 3)))
    )
    a = 6.0 + 8.0 / beta1 * (2.0 / beta1 + math.sqrt(1.0 + 4.0 / (beta1 * beta1)))
    term1 = 1.0 - 2.0 / (9.0 * a)
    denom = 1.0 + xx * math.sqrt(2.0 / (a - 4.0))
    term2 = math.copysign(abs((1.0 - 2.0 / a) / abs(denom)) ** (1.0 / 3.0), denom)
    return (term1 - term2) / math.sqrt(2.0 / (9.0 * a))


def anderson_darling(sample) -> NormalityResult:
    """Anderson-Darling statistic for normality with estimated mean and
    variance, including the small-sample correction
    ``A*^2 = A^2 (1 + 0.75/n + 2.25/n^2)``.  Statistic only, no p-value.

    Reference points for A*^2 (normality, estimated parameters):
    1.035 rejects at the 1% level, 0.752 at 5%.
    """
    x = np.sort(np.asarray(sample, dtype=float))
    n = x.size
    if n < 8:
        raise ValueError(f"sample too small for Anderson-Darling test: n={n} < 8")
    s = x.std(ddof=1)
    if s == 0:
        raise ValueError("zero variance sample")
    z = (x - x.mean()) / s
    cdf = distributions.norm.cdf(z)
    eps = np.finfo(float).tiny
    cdf = np.clip(cdf, eps, 1 - 1e-16)
    i = np.arange(1, n + 1)
    a2 = -n - np.mean((2 * i - 1) * (np.log(cdf) + np.log1p(-cdf[::-1])))
    a2_star = float(a2 * (1.0 + 0.75 / n + 2.25 / (n * n)))
    return NormalityResult(test_name="anderson_darling", statistic=a2_star, p_value=None, n=n)


def rice_bins(n: int) -> int:
    """Rice rule bin count: ceil(2 * n^(1/3))."""
    if n < 1:
        raise ValueError(f"need at least one sample, got n={n}")
    return int(math.ceil(2.0 * n ** (1.0 / 3.0) - 1e-9))


def histogram(sample, bins: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Equal-width histogram over [min, max]; right-open bins except the
    last; bin count defaults to the Rice rule.  Returns (edges, counts)."""
    x = np.asarray(sample, dtype=float)
    if x.size == 0:
        raise ValueError("empty sample")
    nbins = rice_bins(x.size) if bins is None else int(bins)
    if nbins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    lo, hi = float(x.min()), float(x.max())
    if lo == hi:
        # degenerate constant sample: one bin holding everything
        return np.array([lo, hi]), np.array([x.size])
    counts, edges = np.histogram(x, bins=nbins, range=(lo, hi))
    return edges, counts


def mpd_report(
    rows: list[EvalRow],
    t0: float = 1.0,
    dt: float = 1.0,
    t_max: float = 10.0,
    m_min: int = 5,
) -> list[MPDResult]:
    """Run the tolerance search for every evaluated indicator value,
    using the same indicator's values over all datasets as the
    reference pool.  Rows without a value are skipped."""
    pools: dict[str, list[float]] = {name: [] for name in INDICATOR_NAMES}
    for row in rows:
        if row.value is not None:
            pools[row.indicator].append(row.value)
    sorted_pools = {name: np.sort(vals) for name, vals in pools.items() if vals}
    results: list[MPDResult] = []
    for row in rows:
        if row.value is None:
            continue
        results.append(
            mpd_search(
                sorted_pools[row.indicator],
                row.value,
                t0=t0,
                dt=dt,
                t_max=t_max,
                m_min=m_min,
                indicator=row.indicator,
                original_date=row.original_date,
                assume_sorted=True,
            )
        )
    return results


EVAL_SCHEMA = {
    "data_id": int,
    "original_cal_date": float,
    "indicator": str.strip,
    "value": csvio.parse_float,
    "delta": csvio.parse_float,
    "category": str.strip,
    "n_matches": int,
}


def write_eval_rows(rows: list[EvalRow], path, extra_header: dict | None = None) -> None:
    header = {"format": "finedating-eval", "rows": len(rows)}
    if extra_header:
        header.update(extra_header)
    cells = (
        (r.data_id, r.original_date, r.indicator, r.value, r.delta, r.category, r.n_matches)
        for r in rows
    )
    csvio.write_artifact(path, header, EVAL_SCHEMA, cells)


def read_eval_rows(path) -> list[EvalRow]:
    return csvio.read_commented_csv(path, "finedating-eval", EVAL_SCHEMA, record=EvalRow).rows


@dataclass(frozen=True)
class IntervalNormality:
    """Per-interval dispersion diagnostics of a test series.

    Statistics are None when an interval is too small (or degenerate)
    for the respective test.
    """

    original_date: float
    n_ages: int
    ages_statistic: float | None
    ages_p_value: float | None
    n_matched_dates: int
    matched_dates_statistic: float | None


def interval_normality(table: RefTable, datasets: list[TestDataset]) -> list[IntervalNormality]:
    """For each original date: the omnibus test over all simulated ages
    and the Anderson-Darling statistic over the pooled matched calendar
    dates."""
    ages_by_date: dict[float, list[int]] = {}
    matched_by_date: dict[float, list[float]] = {}
    index = table.age_index()
    for ds in datasets:
        ages_by_date.setdefault(ds.original_date, []).extend(m.age for m in ds.measurements)
        pool = matched_by_date.setdefault(ds.original_date, [])
        for meas in ds.measurements:
            pool.extend(rec.base_date for rec in index.get(meas.age, ()))
    out = []
    for date in sorted(ages_by_date):
        ages = ages_by_date[date]
        dp_stat = dp_p = None
        if len(ages) >= 20:
            dp = dagostino_pearson(ages)
            dp_stat, dp_p = dp.statistic, dp.p_value
        matched = matched_by_date[date]
        ad_stat: float | None = None
        if len(matched) >= 8:
            try:
                ad_stat = anderson_darling(matched).statistic
            except ValueError:
                ad_stat = None
        out.append(
            IntervalNormality(
                original_date=date,
                n_ages=len(ages),
                ages_statistic=dp_stat,
                ages_p_value=dp_p,
                n_matched_dates=len(matched),
                matched_dates_statistic=ad_stat,
            )
        )
    return out


NORMALITY_COLUMNS = ["original_cal_date", "n_ages", "ages_statistic", "ages_p_value",
                     "n_matched_dates", "matched_dates_statistic"]
MPD_COLUMNS = ["data_id", "original_cal_date", "indicator", "value", "tolerance",
               "match_count", "under_min", "mpd", "range", "delta"]


def write_evaluation(
    table: RefTable,
    datasets: list[TestDataset],
    rows: list[EvalRow],
    out_dir,
    header: dict,
) -> None:
    """Write the artifacts of an evaluated test series into ``out_dir``:
    ``eval_long.csv``, ``performance_25.csv``, ``performance_35.csv``,
    ``avg_deviation.csv``, ``normality_by_interval.csv`` and
    ``mpd_report.csv``, each under the given header."""
    out_dir = Path(out_dir)
    write_eval_rows(rows, out_dir / "eval_long.csv", extra_header=header)

    for threshold in (25, 35):
        by_date: dict[float, dict[str, float]] = {}
        for date, family, frac in performance_curves(rows, threshold):
            by_date.setdefault(date, {})[family] = frac
        csvio.write_artifact(
            out_dir / f"performance_{threshold}.csv",
            {**header, "threshold": threshold},
            ["original_cal_date", *FAMILIES],
            ((date, *fracs.values()) for date, fracs in sorted(by_date.items())),
        )

    per_date, full_span = average_deviation_analysis(rows)
    deviations = [
        (date, *(per_date.get((date, name)) for name in INDICATOR_NAMES))
        for date in sorted({date for date, _ in per_date})
    ]
    deviations.append(("full_span", *(full_span[name] for name in INDICATOR_NAMES)))
    csvio.write_artifact(
        out_dir / "avg_deviation.csv", header, ["original_cal_date", *INDICATOR_NAMES], deviations
    )

    csvio.write_artifact(
        out_dir / "normality_by_interval.csv",
        header,
        NORMALITY_COLUMNS,
        map(astuple, interval_normality(table, datasets)),
    )

    results = mpd_report(rows)
    mpd_header = dict(header)
    if results:
        mpd_header["overall_mean"], mpd_header["overall_median"] = overall_aggregate(results)
    # mpd_report walks the rows in order, skipping valueless ones
    searched = (row for row in rows if row.value is not None)
    csvio.write_artifact(
        out_dir / "mpd_report.csv",
        mpd_header,
        MPD_COLUMNS,
        (
            (row.data_id, row.original_date, res.indicator, res.value, res.tolerance,
             res.match_count, res.under_min, res.mpd, res.value_range, res.delta)
            for row, res in zip(searched, results)
        ),
    )
