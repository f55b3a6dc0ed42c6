"""Indicator-quality lookup: per value bucket, how often each indicator
landed near the true date.

Evaluated datasets are bucketed by indicator value into half-open
intervals [left, left + width); the width is a parameter (default 5
years), and a record can land in different buckets under different
indicators.  For every (bucket, indicator) the table stores the record
count and the percentage of records whose absolute deviation stayed
within 12 and within 25 years; these two tolerances are fixed.
Consulting the bucket of a fresh dating result then tells which
indicator tends to be reliable at that value, without knowing the true
date.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import csvio
from .evaluate import NO_MATCH, EvalColumns
from .finedate import INDICATOR_NAMES, normalize_indicator

# Deviation tolerances in years of the Frac12 and Frac25 columns.
TOLERANCES = (12, 25)
_TOLERANCES_HEADER = ";".join(map(str, TOLERANCES))

# The most buckets a table may span; the matrices are dense, so a finer
# width is rejected before they are allocated.
MAX_BUCKETS = 1_000_000


@dataclass(frozen=True, eq=False)
class LookupTable:
    """The lookup as matrices of ``(buckets, 12)`` cells, one column per
    indicator in ``INDICATOR_NAMES`` order.

    Bucket i covers ``[(first + i) * bucket_width, (first + i + 1) *
    bucket_width)``.  ``count`` is int64; ``frac12`` and ``frac25`` are
    percentages, NaN where the count is 0.
    """

    bucket_width: float
    first: int
    count: np.ndarray
    frac12: np.ndarray
    frac25: np.ndarray

    def __len__(self) -> int:
        """The number of buckets."""
        return self.count.shape[0]

    @property
    def bucket_lefts(self) -> np.ndarray:
        return (self.first + np.arange(len(self))) * self.bucket_width

    def covered_range(self) -> tuple[float, float]:
        return self.first * self.bucket_width, (self.first + len(self)) * self.bucket_width


def _bucket_floor(value, width: float):
    """Index i, as a float, of the half-open bucket ``[i * width, (i + 1)
    * width)`` holding value (a float or an array of them), with the edges
    as computed in floating point, so that a value on an edge belongs to
    the bucket starting there.

    ``floor(value / width)`` can be one off when width is not an exact
    binary fraction (0.1, 0.3); one step against the edges corrects it.
    """
    i = np.floor(np.divide(value, width))
    i = i - (i * width > value)
    return i + ((i + 1) * width <= value)


def bucket_left(value: float, width: float) -> float:
    """Left edge of the half-open bucket containing value."""
    return int(_bucket_floor(value, width)) * width


def build_lookup(rows: EvalColumns, bucket_width: float = 5.0) -> LookupTable:
    """Bucket every indicator independently by its own value and count
    the deviations within the two tolerances.

    Fractions are percentages at 0.01% resolution; empty (bucket,
    indicator) cells carry count 0 and NaN fractions.  Buckets run from
    the lowest to the highest bucket holding a value, at most
    ``MAX_BUCKETS`` of them.
    """
    if not 0 < bucket_width < math.inf:
        raise ValueError(f"bucket_width must be finite and > 0, got {bucket_width}")
    category = rows.category_labels
    usable = rows[(category.names != NO_MATCH)[category.codes] & ~np.isnan(rows.value)]
    if not len(usable):
        raise ValueError("no matched evaluation rows to bucket")
    infinite = np.flatnonzero(np.isinf(usable.value))
    if infinite.size:
        raise ValueError(f"indicator value {usable.value[infinite[0]]} is not finite")
    codes = {name: j for j, name in enumerate(INDICATOR_NAMES)}
    indicator = usable.indicator_labels.map(lambda name: codes.get(name, -1))
    if (indicator < 0).any():
        raise ValueError(f"unknown indicator {usable.indicator[np.argmin(indicator)]!r}")

    index = _bucket_floor(usable.value, bucket_width)
    first, last = index.min(), index.max()
    if last - first >= MAX_BUCKETS:
        raise ValueError(f"bucket width {bucket_width:g} gives {last - first + 1:.0f} buckets, "
                         f"more than the {MAX_BUCKETS} allowed")
    if max(-first, last) >= 2.0**53:
        raise ValueError(f"bucket width {bucket_width:g} is too fine for the value "
                         f"{usable.value[np.argmax(np.abs(index))]:g}")
    index = index.astype(np.int64)
    first = int(first)
    shape = (int(last) - first + 1, len(INDICATOR_NAMES))
    cell = (index - first) * shape[1] + indicator
    deviation = np.abs(usable.delta)
    count, k12, k25 = (np.bincount(cell[within], minlength=shape[0] * shape[1]).reshape(shape)
                       for within in (slice(None), deviation <= TOLERANCES[0],
                                      deviation <= TOLERANCES[1]))
    return LookupTable(float(bucket_width), first, count,
                       _percent(k12, count), _percent(k25, count))


def _percent(hits: np.ndarray, total: np.ndarray) -> np.ndarray:
    """``round(100 * hits / total, 2)``, NaN where total is 0.  Python's
    ``round`` rounds the float's exact value, which ``np.round`` (a scale,
    rint and unscale) does not."""
    pct = np.full(total.shape, math.nan)
    filled = total > 0
    pct[filled] = [round(p, 2) for p in (100.0 * hits[filled] / total[filled]).tolist()]
    return pct


def query_lookup(
    table: LookupTable, indicator: str, value: float
) -> tuple[float, int, float | None, float | None]:
    """(bucket left, count, frac12, frac25) for the bucket holding value."""
    j = INDICATOR_NAMES.index(normalize_indicator(indicator))
    # as a float, so that a value far outside the table cannot overflow int64
    i = _bucket_floor(value, table.bucket_width) - table.first if math.isfinite(value) else -1
    if not 0 <= i < len(table):
        lo, hi = table.covered_range()
        raise ValueError(f"outside lookup range: {value:g} not in [{lo:g}, {hi:g})")
    i = int(i)
    frac12, frac25 = (None if f != f else f for f in (table.frac12[i, j].item(),
                                                      table.frac25[i, j].item()))
    return (table.first + i) * table.bucket_width, int(table.count[i, j]), frac12, frac25


# The three cells of each indicator, in column order, with their parsers.
_CELLS = (("TotalCount", int), ("Frac12", csvio.parse_float), ("Frac25", csvio.parse_float))

# ``BucketLeft``, then per indicator ``<Ind>_TotalCount, <Ind>_Frac12, <Ind>_Frac25``.
LOOKUP_SCHEMA = {"BucketLeft": float} | {
    f"{name}_{kind}": parse for name in INDICATOR_NAMES for kind, parse in _CELLS
}


def write_lookup(table: LookupTable, path, extra_header: dict | None = None,
                 texts: list[tuple] = ()) -> None:
    """One row per bucket, with the count and both fractions of every
    indicator, under a header that counts the buckets; ``texts`` are
    written with it (:func:`csvio.write_artifacts`)."""
    header = {
        "format": "finedating-lookup",
        "buckets": len(table),
        "bucket_width": table.bucket_width,
        "tolerances": _TOLERANCES_HEADER,
    }
    if extra_header:
        header.update(extra_header)
    cells = (matrix[:, j] for j in range(len(INDICATOR_NAMES))
             for matrix in (table.count, table.frac12, table.frac25))
    csvio.write_artifact(path, header, dict(zip(LOOKUP_SCHEMA, (table.bucket_lefts, *cells))),
                         texts=texts)


def read_lookup(path) -> LookupTable:
    """Read a table written by :func:`write_lookup`.

    The bucket lefts must be the contiguous bucket edges that
    :func:`build_lookup` emits, so that :func:`query_lookup` finds the
    bucket of every value in the covered range, and a ``buckets`` header
    must count them.
    """
    meta, _, columns = csvio.read_commented_csv(path, "finedating-lookup", LOOKUP_SCHEMA)
    try:
        tolerances = meta["tolerances"]
        width = float(meta["bucket_width"])
    except KeyError as exc:
        raise ValueError(f"corrupt lookup: {path} has no {exc.args[0]} header") from None
    except ValueError:
        width = math.nan
    if not 0 < width < math.inf or tolerances != _TOLERANCES_HEADER:
        raise ValueError(
            f"corrupt lookup: bad bucket_width or tolerances header in {path} "
            f"(tolerances must be {_TOLERANCES_HEADER})"
        )
    lefts = columns["BucketLeft"]
    if not lefts.size:
        raise ValueError(f"corrupt lookup: {path} has no buckets")
    first = _bucket_floor(lefts[0], width)
    first = int(first) if abs(first) < 2.0**53 else 0  # a far or non-finite left is off grid
    off_grid = np.flatnonzero(lefts != (first + np.arange(lefts.size)) * width)
    if off_grid.size:
        raise ValueError(
            f"corrupt lookup: bucket lefts in {path} must step by bucket_width "
            f"{width:g} from a multiple of it; bucket {lefts[off_grid[0]]:g} does not"
        )
    csvio.check_count(meta, "buckets", lefts.size, path)
    count, frac12, frac25 = (
        np.stack([columns[f"{name}_{kind}"] for name in INDICATOR_NAMES], axis=1)
        for kind, _ in _CELLS
    )
    return LookupTable(width, first, count, frac12, frac25)
