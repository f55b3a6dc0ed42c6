"""Indicator-quality lookup: per value bucket, how often each indicator
landed near the true date.

Evaluated datasets are bucketed by indicator value into half-open
5-year intervals [left, left + width); a record can land in different
buckets under different indicators.  For every (bucket, indicator) the
table stores the record count and the percentage of records whose
absolute deviation stayed within 12 and within 25 years.  Consulting
the bucket of a fresh dating result then tells which indicator tends to
be reliable at that value, without knowing the true date.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass

import numpy as np

from . import csvio
from .evaluate import NO_MATCH, EvalColumns
from .finedate import INDICATOR_NAMES, normalize_indicator


@dataclass(frozen=True)
class BucketStats:
    total_count: int
    frac12: float | None
    frac25: float | None


@dataclass(frozen=True)
class LookupTable:
    bucket_width: float
    tolerances: tuple[float, float]
    bucket_lefts: tuple[float, ...]
    indicators: tuple[str, ...]
    cells: dict[tuple[float, str], BucketStats]

    def covered_range(self) -> tuple[float, float]:
        return self.bucket_lefts[0], self.bucket_lefts[-1] + self.bucket_width


def bucket_left(value: float, width: float) -> float:
    """Left edge of the half-open bucket containing value; a value on an
    edge belongs to the bucket starting there."""
    return math.floor(value / width) * width


def build_lookup(
    rows: EvalColumns,
    bucket_width: float = 5.0,
    tolerances: tuple[float, float] = (12.0, 25.0),
) -> LookupTable:
    """Bucket every indicator independently by its own value and count
    the deviations within the two tolerances.

    Fractions are percentages at 0.01% resolution; empty (bucket,
    indicator) cells carry count 0 and blank fractions.  Buckets span
    the observed value range snapped outward to multiples of the width.
    """
    if not 0 < bucket_width < math.inf:
        raise ValueError(f"bucket_width must be finite and > 0, got {bucket_width}")
    tol_lo, tol_hi = sorted(tolerances)
    usable = rows[(rows.category != NO_MATCH) & ~np.isnan(rows.value)]
    if not len(usable):
        raise ValueError("no matched evaluation rows to bucket")

    # bucket_left of every value: np.floor equals math.floor as a float
    row_left = np.floor(usable.value / bucket_width) * bucket_width
    deviation = np.abs(usable.delta)
    counts: dict[tuple[float, str], tuple[int, int, int]] = {}
    for name in INDICATOR_NAMES:
        mine = usable.indicator == name
        keys, bucket = np.unique(row_left[mine], return_inverse=True)
        near = deviation[mine]
        tallies = (np.bincount(bucket[within], minlength=keys.size).tolist()
                   for within in (slice(None), near <= tol_lo, near <= tol_hi))
        counts.update(((key, name), cell) for key, *cell in zip(keys.tolist(), *tallies))

    lo, hi = float(row_left.min()), float(row_left.max())
    n_buckets = int(round((hi - lo) / bucket_width)) + 1
    lefts = tuple(lo + i * bucket_width for i in range(n_buckets))
    cells: dict[tuple[float, str], BucketStats] = {}
    for left in lefts:
        for name in INDICATOR_NAMES:
            raw = counts.get((left, name))
            if raw is None:
                cells[(left, name)] = BucketStats(0, None, None)
            else:
                total, k12, k25 = raw
                cells[(left, name)] = BucketStats(
                    total_count=total,
                    frac12=round(100.0 * k12 / total, 2),
                    frac25=round(100.0 * k25 / total, 2),
                )
    return LookupTable(
        bucket_width=float(bucket_width),
        tolerances=(float(tol_lo), float(tol_hi)),
        bucket_lefts=lefts,
        indicators=INDICATOR_NAMES,
        cells=cells,
    )


def query_lookup(
    table: LookupTable, indicator: str, value: float
) -> tuple[float, int, float | None, float | None]:
    """(bucket left, count, frac12, frac25) for the bucket holding value."""
    name = normalize_indicator(indicator)
    lo, hi = table.covered_range()
    if not (lo <= value < hi):
        raise ValueError(
            f"outside lookup range: {value:g} not in [{lo:g}, {hi:g})"
        )
    left = bucket_left(value, table.bucket_width)
    stats = table.cells[(left, name)]
    return left, stats.total_count, stats.frac12, stats.frac25


def _lookup_schema(indicators) -> dict:
    """Column name -> cell parser: ``BucketLeft``, then per indicator
    ``<Ind>_TotalCount, <Ind>_Frac12, <Ind>_Frac25``."""
    columns = {"BucketLeft": float}
    for name in indicators:
        columns[f"{name}_TotalCount"] = int
        columns[f"{name}_Frac12"] = csvio.parse_float
        columns[f"{name}_Frac25"] = csvio.parse_float
    return columns


LOOKUP_SCHEMA = _lookup_schema(INDICATOR_NAMES)


def write_lookup(table: LookupTable, path, extra_header: dict | None = None) -> None:
    """One row per bucket, with the count and both fractions of every
    indicator."""
    header = {
        "format": "finedating-lookup",
        "bucket_width": table.bucket_width,
        "tolerances": ";".join(map(csvio.fmt, table.tolerances)),
    }
    if extra_header:
        header.update(extra_header)
    rows = (
        (left, *(v for name in table.indicators for v in astuple(table.cells[(left, name)])))
        for left in table.bucket_lefts
    )
    csvio.write_artifact(path, header, _lookup_schema(table.indicators), rows)


def read_lookup(path) -> LookupTable:
    """Read a table written by :func:`write_lookup`.

    The bucket lefts must be the contiguous multiples of the bucket width
    that :func:`build_lookup` emits, so that :func:`query_lookup` finds
    the bucket of every value in the covered range.
    """
    meta, _, columns = csvio.read_commented_csv(path, "finedating-lookup", LOOKUP_SCHEMA)
    try:
        width = float(meta["bucket_width"])
        tol = tuple(float(t) for t in meta["tolerances"].split(";"))
    except KeyError as exc:
        raise ValueError(f"corrupt lookup: {path} has no {exc.args[0]} header") from None
    if not 0 < width < math.inf or len(tol) != 2:
        raise ValueError(
            f"corrupt lookup: bad bucket_width or tolerances header in {path}"
        )
    lefts = tuple(columns["BucketLeft"].tolist())
    if not lefts:
        raise ValueError(f"corrupt lookup: {path} has no buckets")
    for i, left in enumerate(lefts):
        if left != lefts[0] + i * width or bucket_left(left, width) != left:
            raise ValueError(
                f"corrupt lookup: bucket lefts in {path} must step by bucket_width "
                f"{width:g} from a multiple of it; bucket {left:g} does not"
            )
    cells: dict[tuple[float, str], BucketStats] = {}
    for name in INDICATOR_NAMES:
        stats = zip(
            columns[f"{name}_TotalCount"].tolist(),
            *([None if f != f else f for f in columns[f"{name}_{frac}"].tolist()]
              for frac in ("Frac12", "Frac25")),
        )
        cells.update(((left, name), BucketStats(*cell)) for left, cell in zip(lefts, stats))
    return LookupTable(
        bucket_width=width,
        tolerances=(tol[0], tol[1]),
        bucket_lefts=lefts,
        indicators=INDICATOR_NAMES,
        cells=cells,
    )
