"""Exact-match retrieval and the twelve central-tendency indicators.

Each measured age pulls every reference record with the same integer
age.  The matched records are pooled as multisets (duplicates kept:
repeated measured ages contribute their full match lists again), and
three value families are aggregated: the simulated calendar dates, the
calibrated means and the calibrated medians.  Every family yields a
mean, a median, and the same pair over the deduplicated values, for
twelve indicators in total.  Means are unweighted throughout.

The measurements come in here too: :func:`read_measurements` reads an
ages file and :func:`parse_sd` checks an sd, so that a malformed age or
sd names where it came from (the flag, or the file, row and column).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import csvio
from .calcurve import Measurement, check_sd
from .reftable import RefTable, match_ages

# Canonical indicator names, in report order.  The leading token is the
# value family (CalDate = simulated calendar dates, Mean = calibrated
# means, Median = calibrated medians); the trailing token is the
# aggregation applied to the pooled multiset.
INDICATOR_NAMES = (
    "CalDate_Mean",
    "CalDate_Median",
    "unique_CalDate_Mean",
    "unique_CalDate_Median",
    "Mean_Mean",
    "Mean_Median",
    "unique_Mean_Mean",
    "unique_Mean_Median",
    "Median_Mean",
    "Median_Median",
    "unique_Median_Mean",
    "unique_Median_Median",
)

FAMILIES = {
    "CalDate": (
        "CalDate_Mean",
        "CalDate_Median",
        "unique_CalDate_Mean",
        "unique_CalDate_Median",
    ),
    "Mean": ("Mean_Mean", "Mean_Median", "unique_Mean_Mean", "unique_Mean_Median"),
    "Median": (
        "Median_Mean",
        "Median_Median",
        "unique_Median_Mean",
        "unique_Median_Median",
    ),
}

_CANON = {name.replace("_", "").casefold(): name for name in INDICATOR_NAMES}


def normalize_indicator(name: str) -> str:
    """Map loose spellings (``CalDateMedian``, ``caldate median``) to the
    canonical indicator name."""
    key = name.strip().replace("_", "").replace(" ", "").casefold()
    try:
        return _CANON[key]
    except KeyError:
        raise ValueError(
            f"unknown indicator {name!r}; known: {', '.join(INDICATOR_NAMES)}"
        ) from None


def parse_sd(text: str, source: str) -> float:
    """``text`` as a measurement sd, finite and >= 0; an error names
    ``source``, the flag or the file cell the text came from."""
    try:
        sd = float(text)
        check_sd(sd)
    except ValueError:
        raise ValueError(f"{source} must be finite and >= 0, got {text!r}") from None
    return sd


def read_measurements(path) -> list[Measurement]:
    """The measurements of an ages file: a CSV, ``#`` header lines
    allowed, with ``age`` and ``sd`` columns (names compared casefolded)
    holding per row an integer age that fits in 64 bits, as the table's
    ages do, and a finite sd >= 0.  An error names the file, the row and
    the column."""
    _, columns, rows = csvio.read_commented_csv(path)
    ai, si = csvio.find_columns(path, columns, {"age": ("age",), "sd": ("sd",)})
    measurements = []
    for row, cells in enumerate(rows, start=1):
        where = f"ages file {path} row {row}"
        try:
            age = int(cells[ai])
        except ValueError:
            age = None
        if age is None or not -(2**63) <= age < 2**63:
            raise ValueError(f"{where}: age must be an integer that fits in 64 bits, "
                             f"got {cells[ai]!r}")
        measurements.append(Measurement(age, parse_sd(cells[si], f"{where}: sd")))
    return measurements


@dataclass(frozen=True, eq=False)
class MatchSet:
    """All reference rows matched by a set of measurements.

    ``positions`` holds the matched row numbers of ``table``, pooled:
    measurement by measurement in input order, each measurement's rows in
    table order.  ``counts[i]`` is the number of rows measurement i
    matched (0 when unmatched).
    """

    table: RefTable
    measurements: tuple[Measurement, ...]
    positions: np.ndarray
    counts: np.ndarray

    @property
    def n_prime(self) -> int:
        return self.positions.size

    @property
    def unmatched(self) -> tuple[int, ...]:
        """The measured ages that found no row, in input order."""
        return tuple(m.age for m, c in zip(self.measurements, self.counts.tolist()) if not c)

    def pooled_dates(self) -> list[float]:
        return self.table.base_date[self.positions].tolist()

    def pooled_means(self) -> list[float]:
        return self.table.cal_mean[self.positions].tolist()

    def pooled_medians(self) -> list[float]:
        return self.table.cal_median[self.positions].tolist()

    def unique_measured_ages(self) -> int:
        """Diagnostic count of distinct measured ages (matching itself
        always runs over the full measurement multiset)."""
        return len({m.age for m in self.measurements})


def match_measurements(table: RefTable, measurements: list[Measurement]) -> MatchSet:
    """Exact integer-age retrieval against a reference table.

    Duplicate measured ages each contribute their own full match list.
    Unmatched ages are recorded, never dropped silently; only a fully
    unmatched input is an error.
    """
    if not measurements:
        raise ValueError("no measurements")
    positions, counts = match_ages(
        table.age, np.array([m.age for m in measurements], dtype=np.int64)
    )
    if not counts.any():
        lo, hi = table.span
        raise ValueError(
            "no matches in reference table: none of the measured ages occur in "
            f"{table.label!r} (span {lo:g}..{hi:g}; check span and buffer)"
        )
    return MatchSet(table, tuple(measurements), positions, counts)


def pool_blocks(flat: np.ndarray, sizes: np.ndarray):
    """Yield ``(pools, block)`` for each distinct pool size n.

    ``flat`` holds pools of the given (nonzero) sizes back to back.
    ``block`` is a fresh C-contiguous ``(k, n)`` matrix whose rows are
    the k pools of size n, numbered ``pools``, each in its stored order:
    a row reduction then sums exactly as a reduction over the pool alone.
    """
    starts = np.cumsum(sizes) - sizes
    for n in np.unique(sizes):
        pools = np.flatnonzero(sizes == n)
        yield pools, flat[starts[pools, None] + np.arange(n)]


def pool_statistics(flat: np.ndarray, sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean, median, distinct-value mean and distinct-value median of
    each pool stored back to back in ``flat``, as a ``(4, pools)``
    matrix, and the number of distinct values of each pool.

    Each value equals ``np.mean``/``np.median`` over the pool as a list
    and over ``sorted(set(pool))``, bit for bit, but that a median
    between 0.0 and -0.0 may take the other sign.  The medians are read
    from the sorted pools (:func:`_sorted_median`).
    """
    stats = np.empty((4, sizes.size))
    n_distinct = np.empty(sizes.size, dtype=np.int64)
    distinct, owners = [], []
    for pools, block in pool_blocks(flat, sizes):
        stats[0, pools] = block.mean(axis=1)
        block.sort(axis=1)
        stats[1, pools] = _sorted_median(block)
        keep = np.ones(block.shape, dtype=bool)
        np.not_equal(block[:, 1:], block[:, :-1], out=keep[:, 1:])
        n_distinct[pools] = keep.sum(axis=1)
        distinct.append(block[keep])
        owners.append(pools)
    if owners:
        owner = np.concatenate(owners)
        # the distinct values of each pool are kept in sorted order
        for pools, block in pool_blocks(np.concatenate(distinct), n_distinct[owner]):
            stats[2, owner[pools]] = block.mean(axis=1)
            stats[3, owner[pools]] = _sorted_median(block)
    return stats, n_distinct


def _sorted_median(block: np.ndarray) -> np.ndarray:
    """``np.median(block, axis=1)`` of a ``(k, n)`` block sorted along its
    rows: the middle value, or the mean of the middle two as ``np.mean``
    takes it, ``(a + b) / 2``; NaN where a row holds NaN, which sorts
    last."""
    n = block.shape[1]
    middle = block[:, n // 2]
    if n % 2 == 0:
        with np.errstate(over="ignore", invalid="ignore"):  # inf, or NaN from inf - inf
            middle = (block[:, n // 2 - 1] + middle) / 2
    return np.where(np.isnan(block[:, -1]), np.nan, middle)


def batch_indicators(
    table: RefTable, ages: np.ndarray, n_measured: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The twelve indicators of many measurement sets at once.

    ``ages`` holds the integer measured ages of all sets back to back,
    ``n_measured`` the number in each set.  Returns the indicator values
    of the matched sets as a ``(matched sets, 12)`` matrix in
    :data:`INDICATOR_NAMES` order, and n' of every set (0 = no match).
    Pools keep the order of :func:`match_measurements` (measurement
    order, then table order), so each row equals
    :func:`compute_indicators` of that set bit for bit.
    """
    positions, count = match_ages(table.age, ages)
    owner = np.repeat(np.arange(n_measured.size), n_measured)
    n_prime = np.bincount(owner, weights=count, minlength=n_measured.size).astype(np.int64)
    flat = np.concatenate([table.base_date[positions], table.cal_mean[positions],
                           table.cal_median[positions]])
    sizes = n_prime[n_prime > 0]
    stats, _ = pool_statistics(flat, np.tile(sizes, len(FAMILIES)))
    # (statistic, family, set) -> (set, family, statistic): INDICATOR_NAMES order
    values = stats.reshape(4, len(FAMILIES), sizes.size).transpose(2, 1, 0)
    return values.reshape(sizes.size, len(INDICATOR_NAMES)), n_prime


@dataclass(frozen=True)
class IndicatorSet:
    """The twelve estimates of the target calendar date, and how many
    values each one aggregated, keyed by :data:`INDICATOR_NAMES`."""

    values: dict[str, float]
    counts: dict[str, int]

    def value(self, indicator: str) -> float:
        return self.values[normalize_indicator(indicator)]

    def n_used(self, indicator: str) -> int:
        return self.counts[normalize_indicator(indicator)]

    def as_rows(self) -> list[tuple[str, float, int]]:
        return [(name, self.values[name], self.counts[name]) for name in INDICATOR_NAMES]


def compute_indicators(matches: MatchSet) -> IndicatorSet:
    """Aggregate the pooled multisets into the twelve indicators.

    Unique variants deduplicate the pooled multiset by exact value
    before aggregating; deduplication is global over the pool, not per
    measurement.  The same kernel as :func:`batch_indicators`, run on
    one pool per family.
    """
    n = matches.n_prime
    if n < 1:
        raise ValueError("nothing to aggregate: match set is empty")
    table, positions = matches.table, matches.positions
    flat = np.concatenate([table.base_date[positions], table.cal_mean[positions],
                           table.cal_median[positions]])
    stats, n_distinct = pool_statistics(flat, np.full(len(FAMILIES), n))
    # stats.T holds one row per family, in INDICATOR_NAMES order
    return IndicatorSet(
        values=dict(zip(INDICATOR_NAMES, stats.T.ravel().tolist())),
        counts=dict(zip(INDICATOR_NAMES, (c for u in n_distinct.tolist() for c in (n, n, u, u)))),
    )


OVERVIEW_COLUMNS = [
    "measurement_index",
    "measured_age",
    "ref_id",
    "ref_cal_date",
    "ref_cal_mean",
    "ref_cal_median",
    "ref_cal_sigma",
]

SUMMARY_SCHEMA = {"indicator": str.strip, "value": float, "n_used": int}


def write_report(
    matches: MatchSet,
    indicators: IndicatorSet,
    prefix,
    extra_header: dict | None = None,
    texts: list[tuple] = (),
) -> tuple[str, str]:
    """Write the matched-row overview and the indicator summary.

    Produces ``<prefix>_overview.csv`` (one row per matched record) and
    ``<prefix>_summary.csv`` (the twelve indicators, then diagnostic
    rows including any unmatched measured ages), with ``texts``, in one
    :func:`csvio.write_artifacts` call, so a failed open or write
    changes neither report file.  Returns both paths.
    """
    prefix = str(prefix)
    header = dict(extra_header or {})

    overview_path = prefix + "_overview.csv"
    table, positions = matches.table, matches.positions
    index = np.repeat(np.arange(len(matches.measurements)), matches.counts)
    ages = np.array([m.age for m in matches.measurements], dtype=np.int64)
    columns = (
        index, ages[index], table.id[positions], table.base_date[positions],
        table.cal_mean[positions], table.cal_median[positions], table.cal_sigma[positions],
    )
    overview = (overview_path, {"format": "finedating-overview", **header},
                dict(zip(OVERVIEW_COLUMNS, columns)), None)

    summary_path = prefix + "_summary.csv"
    rows = indicators.as_rows()
    rows.append(("total_matches", matches.n_prime, matches.n_prime))
    rows.append(
        ("unique_measured_ages", matches.unique_measured_ages(), len(matches.measurements))
    )
    rows.extend(("unmatched_age", age, 0) for age in matches.unmatched)
    summary = (summary_path, {"format": "finedating-summary", **header},
               dict(zip(SUMMARY_SCHEMA, zip(*rows))), None)
    csvio.write_artifacts([overview, summary], texts)
    return overview_path, summary_path


def read_summary(path) -> dict[str, float]:
    """Indicator name -> value from a summary file (diagnostics skipped)."""
    columns = csvio.read_commented_csv(path, "finedating-summary", SUMMARY_SCHEMA).body
    values: dict[str, float] = {}
    for name, value in zip(columns["indicator"].cells().tolist(), columns["value"].tolist()):
        try:
            values[normalize_indicator(name)] = value
        except ValueError:
            continue
    return values
