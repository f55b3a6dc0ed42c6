"""Calibration curves and calibrated posterior densities.

Calendar dates live on a signed axis: negative years are BC, positive
years AD, and the conversion to cal BP is exactly ``1950 - date``.  A
curve is a piecewise-linear table of (cal BP, 14C age BP, 1-sigma curve
error) knots; calibration of an integer radiocarbon age produces a
normalized probability mass over a uniform calendar-date grid together
with its mean, median, sigma and highest-posterior-density intervals.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field

import numpy as np

REFERENCE_YEAR = 1950.0

HPD68_TARGET = 0.6827
HPD95_TARGET = 0.9545

# Relative weight below which grid cells are dropped from the stored
# posterior.  55k cells * 1e-14 keeps the discarded mass under the 1e-9
# normalization contract.
_SUPPORT_EPS = 1e-14

# log of the smallest unnormalized mass still considered calibratable
_LOG_FLOOR = math.log(1e-300)


def to_cal_bp(date: float) -> float:
    """Signed calendar year -> years before 1950."""
    return REFERENCE_YEAR - date


def from_cal_bp(cal_bp: float) -> float:
    """Years before 1950 -> signed calendar year."""
    return REFERENCE_YEAR - cal_bp


def parse_date(text: str) -> float:
    """Signed calendar year; '200BC' and 'AD20'/'20AD' accepted."""
    t = text.strip().replace(" ", "")
    upper = t.upper()
    if upper.endswith("BC"):
        return -float(upper[:-2])
    if upper.endswith("AD"):
        return float(upper[:-2])
    if upper.startswith("AD"):
        return float(upper[2:])
    if upper.startswith("BC"):
        return -float(upper[2:])
    return float(t)


def check_sd(sd: float) -> None:
    """Reject a measurement or simulation sd that is negative, NaN or infinite."""
    if not 0 <= sd < math.inf:
        raise ValueError(f"sd must be finite and >= 0, got {sd!r}")


@dataclass(frozen=True)
class Measurement:
    """An uncalibrated radiocarbon age in years BP with its 1-sigma error.

    Ages are integers: the retrieval step matches simulated against
    measured ages by exact equality, which is only well defined on an
    integer scale.
    """

    age: int
    sd: float

    def __post_init__(self) -> None:
        if self.age != int(self.age):
            raise ValueError(f"measurement age must be an integer BP, got {self.age!r}")
        object.__setattr__(self, "age", int(self.age))
        check_sd(self.sd)


@dataclass(eq=False)
class CalCurve:
    """Piecewise-linear calibration curve, immutable after construction.

    ``cal_bp`` is strictly ascending; ``c14_age`` and ``error`` are the
    curve mean and 1-sigma curve error at each knot, all finite.  The knot
    arrays are read-only copies, so the lazily built caches cannot go
    stale: per-grid interpolations keyed by grid step, and posterior
    summaries keyed by (age, sd, grid step).
    """

    name: str
    cal_bp: np.ndarray
    c14_age: np.ndarray
    error: np.ndarray
    _grids: dict = field(default_factory=dict, repr=False)
    _summaries: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        self.cal_bp = np.array(self.cal_bp, dtype=float)
        self.c14_age = np.array(self.c14_age, dtype=float)
        self.error = np.array(self.error, dtype=float)
        if self.cal_bp.size == 0:
            raise ValueError("no knots")
        if self.cal_bp.size < 2:
            raise ValueError("curve needs at least 2 knots")
        knots = (self.cal_bp, self.c14_age, self.error)
        finite = np.isfinite(knots).all(axis=0)
        if not finite.all():
            i = int(np.argmin(finite))
            raise ValueError(
                f"non-finite curve knot {i}: cal_bp={self.cal_bp[i]:g}, "
                f"c14_age={self.c14_age[i]:g}, error={self.error[i]:g}"
            )
        for arr in knots:
            arr.flags.writeable = False
        if not (np.diff(self.cal_bp) > 0).all():
            raise ValueError("unsorted curve: cal BP knots must be strictly increasing")
        if not (self.error > 0).all():
            raise ValueError("invalid error: curve error must be > 0 at every knot")

    @property
    def n_knots(self) -> int:
        return int(self.cal_bp.size)

    @property
    def domain(self) -> tuple[float, float]:
        """(oldest, youngest) calendar date covered by the curve."""
        return (from_cal_bp(float(self.cal_bp[-1])), from_cal_bp(float(self.cal_bp[0])))

    def grid(self, step: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Uniform calendar-date grid over the domain with interpolated
        curve mean and error, cached per step."""
        key = float(step)
        if key not in self._grids:
            lo, hi = self.domain
            n = int(math.floor((hi - lo) / step)) + 1
            dates = lo + step * np.arange(n)
            bp = REFERENCE_YEAR - dates
            mu = np.interp(bp, self.cal_bp, self.c14_age)
            sig = np.interp(bp, self.cal_bp, self.error)
            self._grids[key] = (dates, mu, sig)
        return self._grids[key]


@dataclass(frozen=True)
class CalibrationResult:
    """Posterior over calendar dates for one measurement.

    ``grid`` holds the cell centers of the retained support (uniform
    step); ``pdf`` is the probability mass per cell and sums to 1.
    HPD intervals are lists of (start, end, probability) segments.
    """

    grid: np.ndarray
    pdf: np.ndarray
    step: float
    mean: float
    median: float
    sigma: float
    hpd68: tuple[tuple[float, float, float], ...]
    hpd95: tuple[tuple[float, float, float], ...]


def load_curve(source, fmt: str = "14c", name: str | None = None) -> CalCurve:
    """Read a calibration curve from a ``#``-commented delimited text file.

    ``source`` may be a path or an open text/byte stream.  Data rows are
    ``cal_bp, c14_age, error`` (comma or whitespace delimited, detected
    per row; extra columns ignored).  Knots listed youngest-first are
    accepted and normalized to ascending cal BP; non-monotonic input is
    rejected.
    """
    if fmt not in ("14c", "intcal"):
        raise ValueError(f"unknown curve format {fmt!r}")
    if hasattr(source, "read"):
        raw = source.read()
        src_name = getattr(source, "name", "<stream>")
    else:
        with open(source, "rb") as fh:
            raw = fh.read()
        src_name = str(source)
    if isinstance(raw, bytes):
        raw = raw.decode("utf-8", errors="replace")

    bp, age, err = [], [], []
    for lineno, line in enumerate(raw.splitlines(), start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        parts = text.split(",") if "," in text else text.split()
        if len(parts) < 3:
            raise ValueError(f"unparsable curve row at line {lineno}: {line!r}")
        try:
            bp.append(float(parts[0]))
            age.append(float(parts[1]))
            err.append(float(parts[2]))
        except ValueError:
            raise ValueError(f"unparsable curve row at line {lineno}: {line!r}") from None

    if not bp:
        raise ValueError("no knots")
    bp_arr = np.array(bp)
    if bp_arr.size >= 2 and (np.diff(bp_arr) < 0).all():
        bp, age, err = bp[::-1], age[::-1], err[::-1]
    return CalCurve(
        name=name if name is not None else src_name,
        cal_bp=np.array(bp),
        c14_age=np.array(age),
        error=np.array(err),
    )


def curve_at(curve: CalCurve, date: float) -> tuple[float, float]:
    """Interpolated (curve mean BP, curve error) at a calendar date."""
    lo, hi = curve.domain
    if not (lo <= date <= hi):
        raise ValueError(
            f"out of curve range: date {date} not in [{lo}, {hi}] of curve {curve.name!r}"
        )
    bp = to_cal_bp(date)
    mu = float(np.interp(bp, curve.cal_bp, curve.c14_age))
    sig = float(np.interp(bp, curve.cal_bp, curve.error))
    return mu, sig


def calibrate(curve: CalCurve, meas: Measurement, grid_step: float = 1.0) -> CalibrationResult:
    """Calibrate a measurement into a calendar-date posterior.

    Cell weight is ``exp(-(age - mu(t))^2 / (2 (sd^2 + sigma_curve(t)^2)))``
    over a uniform grid spanning the curve domain, normalized to unit
    mass.  The mean and sigma are probability weighted; the median
    interpolates linearly within the crossing cell; HPD intervals are
    built by descending-density inclusion (ties toward older dates),
    taking a fraction of the boundary cell so each interval set carries
    exactly its target mass.
    """
    dates, pdf, mean, median, sigma = _posterior(curve, meas.age, meas.sd, grid_step)
    return CalibrationResult(
        grid=dates,
        pdf=pdf,
        step=float(grid_step),
        mean=mean,
        median=median,
        sigma=sigma,
        hpd68=_hpd_segments(dates, pdf, grid_step, HPD68_TARGET),
        hpd95=_hpd_segments(dates, pdf, grid_step, HPD95_TARGET),
    )


def posterior_summary(
    curve: CalCurve, age: int, sd: float, grid_step: float = 1.0
) -> tuple[float, float, float]:
    """(mean, median, sigma) of the posterior of ``age`` +- ``sd``.

    Bit for bit the summaries of :func:`calibrate`, computed once per
    distinct (age, sd, grid step) and kept on the curve.  An age that
    cannot be calibrated raises on every call; nothing is kept for it.
    """
    key = (age, float(sd), float(grid_step))
    summary = curve._summaries.get(key)
    if summary is None:
        meas = Measurement(age, sd)  # rejects a fractional age or a bad sd
        _, _, *values = _posterior(curve, meas.age, meas.sd, grid_step)
        summary = curve._summaries[meas.age, key[1], key[2]] = tuple(values)
    return summary


def _posterior(
    curve: CalCurve, age: int, sd: float, grid_step: float
) -> tuple[np.ndarray, np.ndarray, float, float, float]:
    """Retained grid, cell masses, mean, median and sigma of one calibration."""
    if grid_step <= 0:
        raise ValueError(f"grid_step must be > 0, got {grid_step}")
    dates, mu, sig = curve.grid(grid_step)
    var = sd * sd + sig * sig
    logw = -0.5 * (age - mu) ** 2 / var
    peak = float(logw.max())
    if peak < _LOG_FLOOR:
        raise ValueError(
            f"age outside calibratable range: {age} BP has no support on curve {curve.name!r}"
        )
    w = np.exp(logw)
    if float(w.sum()) < 1e-300:
        raise ValueError(
            f"age outside calibratable range: {age} BP has no support on curve {curve.name!r}"
        )

    keep = np.nonzero(w > w.max() * _SUPPORT_EPS)[0]
    lo_i, hi_i = int(keep[0]), int(keep[-1])
    dates = dates[lo_i : hi_i + 1]
    pdf = w[lo_i : hi_i + 1]
    pdf = pdf / pdf.sum()

    mean = float(np.dot(pdf, dates))
    sigma = float(math.sqrt(max(np.dot(pdf, (dates - mean) ** 2), 0.0)))
    cum = np.cumsum(pdf)
    i = int(np.searchsorted(cum, 0.5))
    prev = float(cum[i - 1]) if i > 0 else 0.0
    median = float(dates[i] - grid_step / 2 + grid_step * (0.5 - prev) / float(pdf[i]))
    return dates, pdf, mean, median, sigma


def _hpd_segments(
    dates: np.ndarray, pdf: np.ndarray, step: float, target: float
) -> tuple[tuple[float, float, float], ...]:
    # Stable argsort on -pdf: among equal densities the lower index
    # (older date) is taken first.
    order = np.argsort(-pdf, kind="stable")
    cum = np.cumsum(pdf[order])
    k = int(np.searchsorted(cum, target))
    k = min(k, len(order) - 1)

    frac = np.zeros(len(pdf))
    frac[order[:k]] = 1.0
    prev = float(cum[k - 1]) if k > 0 else 0.0
    boundary = order[k]
    frac[boundary] = min(1.0, (target - prev) / float(pdf[boundary]))

    segments: list[tuple[float, float, float]] = []
    included = np.nonzero(frac > 0)[0]
    run_start = included[0]
    prev_i = included[0]
    runs: list[tuple[int, int]] = []
    for i in included[1:]:
        if i != prev_i + 1:
            runs.append((int(run_start), int(prev_i)))
            run_start = i
        prev_i = i
    runs.append((int(run_start), int(prev_i)))

    for i0, i1 in runs:
        start = float(dates[i0]) - step / 2
        end = float(dates[i1]) + step / 2
        prob = float(np.dot(frac[i0 : i1 + 1], pdf[i0 : i1 + 1]))
        # Trim the partially included boundary cell from the outer edge
        # so the segment carries exactly its stated mass.
        if frac[i0] < 1.0 and frac[i1] < 1.0 and i0 == i1:
            c = float(dates[i0])
            half = float(frac[i0]) * step / 2
            start, end = c - half, c + half
        elif frac[i0] < 1.0:
            start += (1.0 - float(frac[i0])) * step
        elif frac[i1] < 1.0:
            end -= (1.0 - float(frac[i1])) * step
        segments.append((float(start), float(end), prob))
    return tuple(segments)


def curve_checksum(curve: CalCurve) -> int:
    """crc32 over the knot table, for provenance headers."""
    payload = curve.cal_bp.tobytes() + curve.c14_age.tobytes() + curve.error.tobytes()
    return zlib.crc32(payload)
