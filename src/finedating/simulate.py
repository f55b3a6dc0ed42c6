"""Simulated radiocarbon measurements for known calendar dates.

One simulation draws a radiocarbon age from a normal distribution
centered on the curve mean at the given date, with variance
``sd^2 + sigma_curve(date)^2``, rounds it to an integer BP (ties away
from zero) and calibrates the rounded age.  Even with a nominal sd of
zero the draws disperse by the curve error.  Batch generation derives
one RNG substream per (date, replicate) so outputs are reproducible and
independent of scheduling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import csvio, parallel
from .calcurve import CalCurve, Measurement, calibrate, check_sd, curve_at, parse_date


@dataclass(frozen=True)
class SimRecord:
    """One simulated measurement: the drawn integer age for a known
    calendar date, plus the summaries of its calibrated posterior."""

    sim_id: int
    base_date: float
    age: int
    sd: float
    cal_mean: float
    cal_median: float
    cal_sigma: float

    @property
    def measurement(self) -> Measurement:
        return Measurement(age=self.age, sd=self.sd)


@dataclass(frozen=True)
class TestDataset:
    """A cluster of simulated measurements sharing one original date.

    ``original_date`` is the control value used later to score the
    dating result; it never feeds the indicator computation itself.
    """

    data_id: int
    original_date: float
    sd: float
    records: tuple[SimRecord, ...]

    @property
    def measurements(self) -> tuple[Measurement, ...]:
        return tuple(r.measurement for r in self.records)


def round_half_away(x: float) -> int:
    """Round to nearest integer, ties away from zero."""
    return int(math.copysign(math.floor(abs(x) + 0.5), x))


def draw_age(curve: CalCurve, date: float, sd: float, rng: np.random.Generator) -> int:
    """Draw one integer radiocarbon age for a calendar date."""
    check_sd(sd)
    mu, sig = curve_at(curve, date)
    g = rng.normal(mu, math.sqrt(sd * sd + sig * sig))
    return round_half_away(g)


def r_simulate(
    curve: CalCurve,
    date: float,
    sd: float,
    rng: np.random.Generator,
    sim_id: int = 0,
    grid_step: float = 1.0,
) -> SimRecord:
    """Simulate one measurement of an object with a known calendar date.

    The calibration stored in the record uses the same sd as the draw.
    """
    age = draw_age(curve, date, sd, rng)
    cal = calibrate(curve, Measurement(age=age, sd=sd), grid_step=grid_step)
    return SimRecord(
        sim_id=sim_id,
        base_date=float(date),
        age=age,
        sd=float(sd),
        cal_mean=cal.mean,
        cal_median=cal.median,
        cal_sigma=cal.sigma,
    )


def substream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for a (seed, index...) coordinate."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=tuple(key))))


def generate_test_datasets(
    curve: CalCurve,
    dates: list[float],
    datasets_per_date: int,
    sd: float,
    seed: int,
    group_size: int = 3,
    grid_step: float = 1.0,
    workers: int = 1,
) -> list[TestDataset]:
    """Clusters of simulated measurements for every requested date.

    For each date, ``datasets_per_date`` datasets of ``group_size``
    measurements are drawn from the substream keyed by (date index,
    dataset index); ids are dense in date-major order.
    """
    if not dates:
        raise ValueError("no dates")
    if datasets_per_date < 1:
        raise ValueError(f"datasets_per_date must be >= 1, got {datasets_per_date}")
    if group_size < 1:
        raise ValueError(f"group_size must be >= 1, got {group_size}")
    check_sd(sd)

    jobs = [
        (di, ri, float(date))
        for di, date in enumerate(dates)
        for ri in range(datasets_per_date)
    ]

    def build(job: tuple[int, int, float]) -> TestDataset:
        di, ri, date = job
        rng = substream(seed, di, ri)
        index = di * datasets_per_date + ri
        recs = tuple(
            r_simulate(curve, date, sd, rng, sim_id=index * group_size + j + 1, grid_step=grid_step)
            for j in range(group_size)
        )
        return TestDataset(
            data_id=index + 1, original_date=date, sd=float(sd), records=recs
        )

    if workers is not None and workers > 1:
        # Warm the interpolation cache before forking so children share it.
        curve.grid(grid_step)
    return parallel.ordered_map(build, jobs, workers)


TEST_SCHEMA = dict(
    data_id=int, original_cal_date=float, age_bp=int, sd=float,
    cal_mean=csvio.parse_float_nan, cal_median=csvio.parse_float_nan,
    cal_sigma=csvio.parse_float_nan,
)


def write_tests(datasets: list[TestDataset], path, extra_header: dict | None = None) -> None:
    """Write test datasets as CSV, one row per measurement."""
    header = {"format": "finedating-tests", "datasets": len(datasets)}
    if extra_header:
        header.update(extra_header)
    rows = (
        (ds.data_id, ds.original_date, r.age, r.sd, r.cal_mean, r.cal_median, r.cal_sigma)
        for ds in datasets
        for r in ds.records
    )
    csvio.write_artifact(path, header, TEST_SCHEMA, rows)


def read_tests(path) -> list[TestDataset]:
    """Read datasets written by :func:`write_tests` (blank calibration
    cells, as in converted exports, become NaN)."""
    grouped: dict[int, list[tuple]] = {}
    for row in csvio.read_commented_csv(path, "finedating-tests", TEST_SCHEMA).rows:
        grouped.setdefault(row[0], []).append(row)
    datasets = []
    sim_id = 0
    for data_id, rows in grouped.items():
        _, date, _, sd, *_ = rows[0]
        recs = []
        for _, row_date, age, row_sd, cal_mean, cal_median, cal_sigma in rows:
            if row_date != date or row_sd != sd:
                raise ValueError(
                    f"dataset {data_id} mixes original dates or sds in {path}"
                )
            sim_id += 1
            recs.append(SimRecord(sim_id, date, age, sd, cal_mean, cal_median, cal_sigma))
        datasets.append(
            TestDataset(data_id=data_id, original_date=date, sd=sd, records=tuple(recs))
        )
    return datasets


_EXPORT_ALIASES = {
    "cal_date": ("cal_date", "caldate", "original_cal_date", "date", "calendar_date"),
    "age": ("age", "age_bp", "c14_age", "14c_age", "value"),
    "sd": ("sd", "error", "sigma", "uncertainty"),
}


def convert_rsim_to_tests(path, group_size: int = 3):
    """Group exported simulation rows (cal_date, age, sd) into
    consecutive clusters of ``group_size`` sharing one calendar date.

    Returns (datasets, leftovers) where leftovers lists (date, count)
    of trailing rows that did not fill a full group.
    """
    if group_size < 1:
        raise ValueError(f"group_size must be >= 1, got {group_size}")
    _, columns, rows = csvio.read_commented_csv(path)
    cols = [c.casefold() for c in columns]

    def find(kind: str) -> int:
        for alias in _EXPORT_ALIASES[kind]:
            if alias in cols:
                return cols.index(alias)
        raise ValueError(f"cannot find a {kind} column in {path}; columns are {columns}")

    ci, ai, si = find("cal_date"), find("age"), find("sd")
    by_date: dict[float, list[tuple[int, float]]] = {}
    for lineno, cells in enumerate(rows, start=1):
        try:
            date = parse_date(cells[ci])
            age = int(round(float(cells[ai])))
            sd = float(cells[si])
        except ValueError:
            raise ValueError(f"malformed row {lineno} in {path}: {cells}") from None
        by_date.setdefault(date, []).append((age, sd))

    datasets = []
    leftovers: list[tuple[float, int]] = []
    sim_id = 0
    for date, entries in by_date.items():
        n_full = len(entries) // group_size
        for g in range(n_full):
            chunk = entries[g * group_size : (g + 1) * group_size]
            sds = {sd for _, sd in chunk}
            sd = chunk[0][1] if len(sds) == 1 else float(sum(s for _, s in chunk) / group_size)
            recs = []
            for age, row_sd in chunk:
                sim_id += 1
                recs.append(SimRecord(sim_id, date, age, row_sd, math.nan, math.nan, math.nan))
            datasets.append(
                TestDataset(
                    data_id=len(datasets) + 1, original_date=date, sd=sd, records=tuple(recs)
                )
            )
        rest = len(entries) - n_full * group_size
        if rest:
            leftovers.append((date, rest))
    return datasets, leftovers
