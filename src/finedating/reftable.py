"""Reference tables: repeated simulations on a uniform date grid.

A table is built from a spec (grid step, measurements per time step,
sd, span, seed) by drawing ``per_slice`` simulated measurements at
every grid date.  The standard variants are named ``step_per_sd``
(``5_20_5`` = 5-year grid, 20 measurements per slice, sd 5); the Combo
table concatenates the six 5-year variants.  Tables are immutable after
build; matching is served by a lazily built age index.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from . import csvio
from .calcurve import CalCurve, check_sd, curve_at
from .simulate import SimRecord, simulate_date, substream


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
        if abs(n - round(n)) > 1e-9:
            raise ValueError(
                f"span {self.span} is not a whole number of {self.year_interval}-year steps"
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


@dataclass(eq=False)
class RefTable:
    label: str
    curve_name: str
    specs: tuple[RefTableSpec, ...]
    records: tuple[SimRecord, ...]
    _age_index: dict | None = field(default=None, repr=False)

    @property
    def span(self) -> tuple[float, float]:
        return (
            min(s.span[0] for s in self.specs),
            max(s.span[1] for s in self.specs),
        )

    def age_index(self) -> dict[int, tuple[SimRecord, ...]]:
        """Records grouped by integer age, built once."""
        if self._age_index is None:
            idx: dict[int, list[SimRecord]] = {}
            for rec in self.records:
                idx.setdefault(rec.age, []).append(rec)
            self._age_index = {age: tuple(recs) for age, recs in idx.items()}
        return self._age_index


def build_reference_table(
    curve: CalCurve,
    spec: RefTableSpec,
    grid_step: float = 1.0,
) -> RefTable:
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

    records: list[SimRecord] = []
    for si, date in enumerate(spec.slice_dates()):
        records += simulate_date(
            curve, date, spec.sd, [substream(spec.seed, si)], spec.per_slice,
            si * spec.per_slice + 1, grid_step,
        )
    return RefTable(label=spec.label, curve_name=curve.name, specs=(spec,), records=tuple(records))


def build_combo_table(
    curve: CalCurve,
    specs: list[RefTableSpec],
    label: str = "Combo",
    grid_step: float = 1.0,
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
    records: list[SimRecord] = []
    for spec in specs:
        part = build_reference_table(curve, spec, grid_step=grid_step)
        first = len(records) + 1
        records.extend(
            replace(rec, sim_id=sim_id) for sim_id, rec in enumerate(part.records, first)
        )
    return RefTable(
        label=label, curve_name=curve.name, specs=tuple(specs), records=tuple(records)
    )


TABLE_SCHEMA = dict(
    id=int, cal_date=float, age_bp=int, sd=float, cal_mean=float, cal_median=float, cal_sigma=float
)


def write_table(table: RefTable, path, extra_header: dict | None = None) -> None:
    """Persist a table as commented CSV with its specs and a checksum."""
    header = {
        "format": "finedating-reftable",
        "label": table.label,
        "curve": table.curve_name,
        "seed": ";".join(str(s.seed) for s in table.specs),
        "records": len(table.records),
        "checksum": None,
    }
    if extra_header:
        header.update(extra_header)
    specs = [
        (s.label, s.year_interval, s.per_slice, s.sd, s.span[0], s.span[1], s.seed)
        for s in table.specs
    ]
    rows = (
        (r.sim_id, r.base_date, r.age, r.sd, r.cal_mean, r.cal_median, r.cal_sigma)
        for r in table.records
    )
    csvio.write_artifact(path, header, TABLE_SCHEMA, rows, extra={"spec": specs})


def read_table(path) -> RefTable:
    """Read a table written by :func:`write_table`, validating shape,
    checksum and record invariants."""
    meta, _, records = csvio.read_commented_csv(
        path, "finedating-reftable", TABLE_SCHEMA, extra=("spec",), record=SimRecord
    )
    specs = []
    for cells in meta["spec"]:
        if len(cells) != 7:
            raise ValueError(f"corrupt table: bad spec header in {path}")
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
    if not specs:
        raise ValueError(f"corrupt table: {path} has no spec header")
    expected = int(meta.get("records", "-1"))
    if expected != len(records):
        raise ValueError(
            f"corrupt table: {path} holds {len(records)} rows, header says {expected}"
        )
    table = RefTable(
        label=meta.get("label", specs[0].label),
        curve_name=meta.get("curve", ""),
        specs=tuple(specs),
        records=tuple(records),
    )
    _validate_table(table)
    return table


def _validate_table(table: RefTable) -> None:
    expected = sum(s.n_records for s in table.specs)
    if len(table.records) != expected:
        raise ValueError(
            f"corrupt table: {len(table.records)} records, specs require {expected}"
        )
    ids = [rec.sim_id for rec in table.records]
    if ids != list(range(1, len(ids) + 1)):
        raise ValueError("corrupt table: record ids are not dense from 1")
    oldest, youngest = table.span
    for rec in table.records:
        if not (oldest <= rec.base_date <= youngest):
            raise ValueError(
                f"corrupt table: record {rec.sim_id} date {rec.base_date} outside span"
            )


def buffer_margin(table: RefTable, curve: CalCurve | None = None, sd: float | None = None) -> float:
    """Recommended distance between the table span edges and the dates
    under analysis: 3 * (sd + max curve error over the span).

    Dispersion pushes simulated ages past the span edges, so analyses
    closer than this to an edge lose matches on one side.
    """
    sds = [s.sd for s in table.specs]
    use_sd = max(sds) if sd is None else sd
    if curve is None:
        return 3.0 * use_sd
    oldest, youngest = table.span
    max_err = max(curve_at(curve, oldest)[1], curve_at(curve, youngest)[1])
    n = 16
    for i in range(n + 1):
        d = oldest + (youngest - oldest) * i / n
        max_err = max(max_err, curve_at(curve, d)[1])
    return 3.0 * (use_sd + max_err)


def edge_warnings(
    table: RefTable,
    analysis_dates: list[float],
    curve: CalCurve | None = None,
    sd: float | None = None,
) -> list[str]:
    """Human-readable warnings when analysis dates sit too close to the
    table span edges (insufficient buffer)."""
    if not analysis_dates:
        return []
    margin = buffer_margin(table, curve, sd)
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


def records_by_slice(table: RefTable) -> dict[float, list[SimRecord]]:
    """Records grouped by base date, in span order."""
    groups: dict[float, list[SimRecord]] = {}
    for rec in table.records:
        groups.setdefault(rec.base_date, []).append(rec)
    return dict(sorted(groups.items()))

