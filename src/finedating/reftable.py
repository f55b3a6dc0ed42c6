"""Reference tables: repeated simulations on a uniform date grid.

A table is built from a spec (grid step, measurements per time step,
sd, span, seed) by drawing ``per_slice`` simulated measurements at
every grid date.  The standard variants are named ``step_per_sd``
(``5_20_5`` = 5-year grid, 20 measurements per slice, sd 5); the Combo
table concatenates the six 5-year variants.  Tables are immutable after
build; they are held as numpy columns.  Matching (:func:`match_ages`)
selects the rows whose age was asked for and orders only those, so a
request costs O(n + m log m) for m matched rows of an n-row table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import csvio
from .calcurve import CalCurve, check_sd, curve_at
from .simulate import MAX_RECORDS, simulate_date, substream_from_words, substream_words


@dataclass(frozen=True)
class RefTableSpec:
    """Build parameters of one reference table variant."""

    label: str
    year_interval: int
    per_slice: int
    sd: float
    span: tuple[float, float]
    seed: int

    def __post_init__(self) -> None:
        if self.year_interval < 1:
            raise ValueError(f"year_interval must be >= 1, got {self.year_interval}")
        if self.per_slice < 1:
            raise ValueError("empty spec: per_slice must be >= 1")
        check_sd(self.sd)
        oldest, youngest = self.span
        if not oldest < youngest:
            raise ValueError(f"span oldest must precede youngest, got {self.span}")
        n = (youngest - oldest) / self.year_interval
        if not 0.5 < n < math.inf or abs(n - round(n)) > 1e-9:
            raise ValueError(
                f"span {self.span} is not a whole number of {self.year_interval}-year steps"
            )
        if self.n_records > MAX_RECORDS:
            raise ValueError(
                f"spec {self.label!r} gives {self.n_records} records, "
                f"more than the {MAX_RECORDS} allowed"
            )

    @property
    def n_slices(self) -> int:
        oldest, youngest = self.span
        return int(round((youngest - oldest) / self.year_interval)) + 1

    @property
    def n_records(self) -> int:
        return self.n_slices * self.per_slice

    def slice_dates(self) -> list[float]:
        oldest, _ = self.span
        return [oldest + i * self.year_interval for i in range(self.n_slices)]


# Standard table variants: label -> (year_interval, per_slice, sd, span).
# The Combo table is the concatenation of the six 5-year variants.
STANDARD_SPECS: dict[str, tuple[int, int, float, tuple[float, float]]] = {
    "1_50_5": (1, 50, 5.0, (-200.0, -1.0)),
    "5_10_20": (5, 10, 20.0, (-300.0, 20.0)),
    "5_20_5": (5, 20, 5.0, (-300.0, 20.0)),
    "5_50_5": (5, 50, 5.0, (-300.0, 20.0)),
    "5_50_20": (5, 50, 20.0, (-300.0, 20.0)),
    "5_80_5": (5, 80, 5.0, (-300.0, 20.0)),
    "5_100_0": (5, 100, 0.0, (-300.0, 20.0)),
    "5_100_5": (5, 100, 5.0, (-300.0, 20.0)),
}

COMBO_COMPONENTS = ("5_20_5", "5_50_5", "5_50_20", "5_80_5", "5_100_0", "5_100_5")


def standard_spec(label: str, seed: int) -> RefTableSpec:
    """Spec for a standard variant name such as ``5_20_5``."""
    try:
        interval, per_slice, sd, span = STANDARD_SPECS[label]
    except KeyError:
        raise ValueError(
            f"unknown table variant {label!r}; known: {', '.join(STANDARD_SPECS)}"
        ) from None
    return RefTableSpec(
        label=label, year_interval=interval, per_slice=per_slice, sd=sd, span=span, seed=seed
    )


def match_ages(age: np.ndarray, ages: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows of the age column ``age`` holding each of ``ages``, laid
    end to end in the order of ``ages`` (row order within one age, which
    is id order), and the number of rows per age (0 when absent).

    Only the m rows whose age was asked for are ordered: one
    ``np.isin`` pass over the column selects them, then a stable sort of
    those rows by age, so a call costs O(n + m log m) on an n-row table,
    plus O(k log k) for k ages.
    """
    wanted, which = np.unique(ages, return_inverse=True)
    rows = np.flatnonzero(np.isin(age, wanted))
    # stable, so the rows of one age keep row order; an (age, row) key such
    # as age * m + row would sort faster but overflows int64 for large ages
    rows = rows[np.argsort(age[rows], kind="stable")]
    matched = age[rows]
    # each distinct age is searched once, then given to every request of it
    first = np.searchsorted(matched, wanted, side="left")
    end = np.searchsorted(matched, wanted, side="right")
    start, count = first[which], (end - first)[which]
    shift = np.repeat(start - (np.cumsum(count) - count), count)
    return rows[shift + np.arange(shift.size)], count


@dataclass(eq=False)
class RefTable:
    """A reference table as numpy columns, one row per simulated
    measurement, in id order: ``id`` (1..n), ``base_date`` (the simulated
    calendar date), ``age`` (the drawn integer age BP, int64), ``sd`` and
    the mean, median and sigma of the age's calibrated posterior."""

    label: str
    curve_name: str
    specs: tuple[RefTableSpec, ...]
    id: np.ndarray
    base_date: np.ndarray
    age: np.ndarray
    sd: np.ndarray
    cal_mean: np.ndarray
    cal_median: np.ndarray
    cal_sigma: np.ndarray

    def __len__(self) -> int:
        return self.id.size

    def columns(self) -> tuple[np.ndarray, ...]:
        """The seven columns, in file order."""
        return (self.id, self.base_date, self.age, self.sd, self.cal_mean, self.cal_median,
                self.cal_sigma)

    @property
    def span(self) -> tuple[float, float]:
        return (
            min(s.span[0] for s in self.specs),
            max(s.span[1] for s in self.specs),
        )


def build_reference_table(curve: CalCurve, spec: RefTableSpec) -> RefTable:
    """Simulate ``per_slice`` measurements at every grid date of the spec.

    Each slice is drawn from the substream keyed by its index, so
    rebuilding with the same seed reproduces the table exactly.
    """
    lo, hi = curve.domain
    oldest, youngest = spec.span
    if oldest < lo or youngest > hi:
        raise ValueError(
            f"span {spec.span} outside curve domain [{lo}, {hi}] of {curve.name!r}"
        )
    dates = spec.slice_dates()
    words = substream_words(spec.seed, np.arange(len(dates))[:, None])
    slices = [
        simulate_date(curve, date, spec.sd, [substream_from_words(words[si])], spec.per_slice)
        for si, date in enumerate(dates)
    ]
    age, cal_mean, cal_median, cal_sigma = map(np.concatenate, zip(*slices))
    n = age.size
    return RefTable(
        spec.label, curve.name, (spec,), np.arange(1, n + 1),
        np.repeat(np.asarray(dates, dtype=float), spec.per_slice), age,
        np.full(n, float(spec.sd)), cal_mean, cal_median, cal_sigma,
    )


def build_combo_table(
    curve: CalCurve, specs: list[RefTableSpec], label: str = "Combo"
) -> RefTable:
    """Concatenate component tables, re-assigning dense record ids."""
    if not specs:
        raise ValueError("empty spec: combo needs at least one component")
    spans = {s.span for s in specs}
    steps = {s.year_interval for s in specs}
    if len(spans) > 1 or len(steps) > 1:
        raise ValueError(
            f"incompatible specs: combo components must share span and step, got spans {sorted(spans)} steps {sorted(steps)}"
        )
    parts = [build_reference_table(curve, spec) for spec in specs]
    columns = [np.concatenate(c) for c in zip(*(part.columns()[1:] for part in parts))]
    return RefTable(
        label, curve.name, tuple(specs), np.arange(1, columns[0].size + 1), *columns
    )


TABLE_SCHEMA = dict(
    id=int, cal_date=float, age_bp=int, sd=float, cal_mean=float, cal_median=float, cal_sigma=float
)


def write_table(table: RefTable, path, extra_header: dict | None = None,
                texts: list[tuple] = ()) -> None:
    """Persist a table as commented CSV with its specs and a checksum;
    ``texts`` are written with it (:func:`csvio.write_artifacts`)."""
    header = {
        "format": "finedating-reftable",
        "label": table.label,
        "curve": table.curve_name,
        "seed": ";".join(str(s.seed) for s in table.specs),
        "records": len(table),
        "checksum": None,
    }
    if extra_header:
        header.update(extra_header)
    specs = [
        (s.label, s.year_interval, s.per_slice, s.sd, s.span[0], s.span[1], s.seed)
        for s in table.specs
    ]
    csvio.write_artifact(
        path, header, dict(zip(TABLE_SCHEMA, table.columns())), extra={"spec": specs},
        texts=texts,
    )


def read_table(path) -> RefTable:
    """Read a table written by :func:`write_table`, validating shape,
    checksum and record invariants."""
    meta, _, columns = csvio.read_commented_csv(
        path, "finedating-reftable", TABLE_SCHEMA, extra=("spec",)
    )
    if "checksum" not in meta:
        raise ValueError(f"corrupt table: {path} has no checksum header")
    specs = []
    for cells in meta["spec"]:
        try:
            label, interval, per_slice, sd, oldest, youngest, seed = cells
            specs.append(
                RefTableSpec(
                    label=label,
                    year_interval=int(interval),
                    per_slice=int(per_slice),
                    sd=float(sd),
                    span=(float(oldest), float(youngest)),
                    seed=int(seed),
                )
            )
        except ValueError as exc:
            raise ValueError(f"corrupt table: bad spec header in {path}: {exc}") from None
    if not specs:
        raise ValueError(f"corrupt table: {path} has no spec header")
    table = RefTable(
        meta.get("label", specs[0].label), meta.get("curve", ""), tuple(specs), *columns.values()
    )
    expected = meta.get("records", "-1")
    if expected != str(len(table)):
        raise ValueError(
            f"corrupt table: {path} holds {len(table)} rows, its records header says {expected}"
        )
    _validate_table(table, path)
    return table


# The columns whose every value must be finite; the dates are checked
# against the span.
_FINITE_COLUMNS = ("sd", "cal_mean", "cal_median", "cal_sigma")


def _validate_table(table: RefTable, path) -> None:
    expected = sum(s.n_records for s in table.specs)
    if len(table) != expected:
        raise ValueError(
            f"corrupt table: {path} holds {len(table)} records, its specs require {expected}"
        )
    if (table.id != np.arange(1, len(table) + 1)).any():
        raise ValueError(f"corrupt table: record ids in {path} are not dense from 1")
    oldest, youngest = table.span
    outside = np.flatnonzero(~((table.base_date >= oldest) & (table.base_date <= youngest)))
    if outside.size:
        i = outside[0]
        raise ValueError(f"corrupt table: {path} record {table.id[i]} date "
                         f"{table.base_date[i].item()} outside span")
    for name in _FINITE_COLUMNS:
        column = getattr(table, name)
        bad = np.flatnonzero(~np.isfinite(column))
        if bad.size:
            i = bad[0]
            raise ValueError(f"corrupt table: {path} record {table.id[i]} has {name} "
                             f"{column[i].item()}, not a finite number")


def buffer_margin(table: RefTable, sd: float, curve: CalCurve | None = None) -> float:
    """Recommended distance between the table span edges and the dates
    under analysis: 3 * (sd + max curve error over the span).

    Dispersion pushes simulated ages past the span edges, so analyses
    closer than this to an edge lose matches on one side.
    """
    if curve is None:
        return 3.0 * sd
    oldest, youngest = table.span
    max_err = max(curve_at(curve, oldest)[1], curve_at(curve, youngest)[1])
    n = 16
    for i in range(n + 1):
        d = oldest + (youngest - oldest) * i / n
        max_err = max(max_err, curve_at(curve, d)[1])
    return 3.0 * (sd + max_err)


def edge_warnings(
    table: RefTable,
    analysis_dates: list[float],
    sd: float,
    curve: CalCurve | None = None,
) -> list[str]:
    """Human-readable warnings when analysis dates sit too close to the
    table span edges (insufficient buffer)."""
    if not analysis_dates:
        return []
    margin = buffer_margin(table, sd, curve)
    oldest, youngest = table.span
    warnings = []
    lo, hi = min(analysis_dates), max(analysis_dates)
    if lo - oldest < margin:
        warnings.append(
            f"old edge of table span ({oldest:g}) is within {margin:.0f} years of the "
            f"oldest analysis date ({lo:g}); matches will be truncated on the old side"
        )
    if youngest - hi < margin:
        warnings.append(
            f"young edge of table span ({youngest:g}) is within {margin:.0f} years of the "
            f"youngest analysis date ({hi:g}); matches will be truncated on the young side"
        )
    return warnings
