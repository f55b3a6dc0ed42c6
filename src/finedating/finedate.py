"""Exact-match retrieval and the twelve central-tendency indicators.

Each measured age pulls every reference record with the same integer
age.  The matched records are pooled as multisets (duplicates kept:
repeated measured ages contribute their full match lists again), and
three value families are aggregated: the simulated calendar dates, the
calibrated means and the calibrated medians.  Every family yields a
mean, a median, and the same pair over the deduplicated values, for
twelve indicators in total.  Means are unweighted throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import csvio
from .calcurve import Measurement
from .reftable import RefTable, SimRecord

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


@dataclass(frozen=True)
class MatchSet:
    """All reference records matched by a set of measurements.

    ``per_measurement[i]`` holds the full match list of measurement i
    (empty when unmatched); ``unmatched`` lists the measured ages that
    found no record, in input order.
    """

    measurements: tuple[Measurement, ...]
    per_measurement: tuple[tuple[SimRecord, ...], ...]
    unmatched: tuple[int, ...]

    @property
    def n_prime(self) -> int:
        return sum(len(m) for m in self.per_measurement)

    def pooled_dates(self) -> list[float]:
        return [rec.base_date for matches in self.per_measurement for rec in matches]

    def pooled_means(self) -> list[float]:
        return [rec.cal_mean for matches in self.per_measurement for rec in matches]

    def pooled_medians(self) -> list[float]:
        return [rec.cal_median for matches in self.per_measurement for rec in matches]

    def records(self) -> list[tuple[int, SimRecord]]:
        """(measurement index, record) pairs in pooled order."""
        return [
            (i, rec)
            for i, matches in enumerate(self.per_measurement)
            for rec in matches
        ]

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
    index = table.age_index()
    per: list[tuple[SimRecord, ...]] = []
    unmatched: list[int] = []
    for meas in measurements:
        hits = index.get(meas.age, ())
        per.append(hits)
        if not hits:
            unmatched.append(meas.age)
    if all(len(m) == 0 for m in per):
        lo, hi = table.span
        raise ValueError(
            "no matches in reference table: none of the measured ages occur in "
            f"{table.label!r} (span {lo:g}..{hi:g}; check span and buffer)"
        )
    return MatchSet(
        measurements=tuple(measurements),
        per_measurement=tuple(per),
        unmatched=tuple(unmatched),
    )


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
    measurement.
    """
    if matches.n_prime < 1:
        raise ValueError("nothing to aggregate: match set is empty")
    pools = {
        "CalDate": matches.pooled_dates(),
        "Mean": matches.pooled_means(),
        "Median": matches.pooled_medians(),
    }
    values: dict[str, float] = {}
    counts: dict[str, int] = {}
    for family, (mean, median, u_mean, u_median) in FAMILIES.items():
        pooled = pools[family]
        unique = sorted(set(pooled))
        values[mean] = float(np.mean(pooled))
        values[median] = float(np.median(pooled))
        values[u_mean] = float(np.mean(unique))
        values[u_median] = float(np.median(unique))
        counts[mean] = counts[median] = len(pooled)
        counts[u_mean] = counts[u_median] = len(unique)
    return IndicatorSet(values=values, counts=counts)


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
) -> tuple[str, str]:
    """Write the matched-record overview and the indicator summary.

    Produces ``<prefix>_overview.csv`` (one row per matched record) and
    ``<prefix>_summary.csv`` (the twelve indicators, then diagnostic
    rows including any unmatched measured ages).  Returns both paths.
    """
    prefix = str(prefix)
    header = dict(extra_header or {})

    overview_path = prefix + "_overview.csv"
    csvio.write_artifact(
        overview_path,
        {"format": "finedating-overview", **header},
        OVERVIEW_COLUMNS,
        (
            (
                i,
                matches.measurements[i].age,
                rec.sim_id,
                rec.base_date,
                rec.cal_mean,
                rec.cal_median,
                rec.cal_sigma,
            )
            for i, rec in matches.records()
        ),
    )

    summary_path = prefix + "_summary.csv"
    rows = indicators.as_rows()
    rows.append(("total_matches", matches.n_prime, matches.n_prime))
    rows.append(
        ("unique_measured_ages", matches.unique_measured_ages(), len(matches.measurements))
    )
    rows.extend(("unmatched_age", age, 0) for age in matches.unmatched)
    csvio.write_artifact(
        summary_path, {"format": "finedating-summary", **header}, SUMMARY_SCHEMA, rows
    )
    return overview_path, summary_path


def read_summary(path) -> dict[str, float]:
    """Indicator name -> value from a summary file (diagnostics skipped)."""
    rows = csvio.read_commented_csv(path, "finedating-summary", SUMMARY_SCHEMA).rows
    values: dict[str, float] = {}
    for name, value, _ in rows:
        try:
            values[normalize_indicator(name)] = value
        except ValueError:
            continue
    return values
