"""Calibration curves and calibrated posterior densities.

Calendar dates live on a signed axis: negative years are BC, positive
years AD, and the conversion to cal BP is exactly ``1950 - date``.  A
curve is a piecewise-linear table of (cal BP, 14C age BP, 1-sigma curve
error) knots; calibration of an integer radiocarbon age produces a
normalized probability mass over the curve's grid of one-year calendar
cells together with its mean, median, sigma and highest-posterior-density
intervals.

Calibration cost follows the posterior, not the grid.  The log weight
``-(age - mu)^2 / (2 var)`` (the variance ``sd^2 + sigma_curve^2`` is
cached per sd) is bounded per block of ``_BLOCK`` cells by
``-0.5 d^2 / var_max``, where ``d`` is the distance from the age to the
block's range of curve means and ``var_max`` its largest variance; the
block ranges and the maxima are cached with the grid and the variance.
The exact log weight of the block with the best bound gives a lower
bound ``L`` on the peak, and is then computed, with the same operations
in the same order, over the rest of the span from the first to the last
block whose bound exceeds ``L + log(1e-14) - 2``.  Every rounding step
is monotone, so no cell exceeds its block's bound: the span holds the
peak and every cell within ``log(1e-14) - 1`` of it, a superset of the
cells that can be retained, and each of its log weights has the bits a
full-grid pass gives.  ``exp`` and everything after it run over that
span, so every output is bit for bit that of a full-grid pass.  When
``L`` is below the 1e-300 support floor or NaN, or the span's mass is
within a factor 1e20 of the floor, one full-grid pass runs instead; it
alone raises the no-support error, for exactly the ages it cannot
calibrate.

Distinct ages are calibrated ``_CHUNK`` at a time, one age being a chunk
of one.  Each elementwise step runs once over the chunk: the bound as an
(ages x blocks) matrix, the best blocks, the reach, and the spans as an
(ages x widest span) matrix, each row from its first block on and padded
with cells whose ``exp`` is 0; then one ``exp``, the cut, the
normalization, the cumulative sum and the median's index.  Only the
reductions whose bits follow the length and order of their input, the
retained mass and the two dot products of the mean and sigma, run per
age over its retained cells alone.
"""

from __future__ import annotations

import io
import math
import zlib
from dataclasses import dataclass, field
from functools import cached_property

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

# Near the 1e-300 floor the mass outside the span, or rounding, could
# put the span's sum and the grid's on opposite sides of it: below this
# span sum the full grid is exponentiated and summed instead.
_SPAN_SUM_FLOOR = 1e-280

# Grid cells per block of the log-weight bound, the last block possibly
# partial.  Chosen by timing 64, 256 and 1024 on the 541- and 50,001-cell
# curves.
_BLOCK = 256

# Distinct ages calibrated together: every elementwise step runs once per
# chunk, over (ages x cells) matrices that must stay cache-sized.  Chosen
# by timing 16 to 128 on the ages of ref-gen and ts3 on both curves.
_CHUNK = 32

# Blocks whose bound is at or below L + _LOG_REACH, where L is the peak of
# the best-bounded block, hold no cell within log(_SUPPORT_EPS) - 1 of the
# peak, which is at least L; no cell outside that margin is retained, and
# the margin of 1 keeps that so through the rounding of exp and the sums.
_LOG_REACH = math.log(_SUPPORT_EPS) - 2.0


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
    stale: the one-year grid and its per-block range of curve means,
    calibration variances and their per-block maxima keyed by sd, and
    posterior summaries keyed by (age, sd).
    """

    name: str
    cal_bp: np.ndarray
    c14_age: np.ndarray
    error: np.ndarray
    _variances: dict = field(default_factory=dict, repr=False)
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

    @cached_property
    def grid(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Calendar dates one year apart from the oldest end of the
        domain, with the curve mean and error interpolated at each."""
        lo, hi = self.domain
        dates = lo + np.arange(int(math.floor(hi - lo)) + 1)
        bp = REFERENCE_YEAR - dates
        mu = np.interp(bp, self.cal_bp, self.c14_age)
        sig = np.interp(bp, self.cal_bp, self.error)
        return dates, mu, sig

    @cached_property
    def blocks(self) -> tuple[np.ndarray, np.ndarray]:
        """The min and the max of the grid's curve mean over each block of
        ``_BLOCK`` cells."""
        mu = self.grid[1]
        starts = np.arange(0, mu.size, _BLOCK)
        return np.minimum.reduceat(mu, starts), np.maximum.reduceat(mu, starts)

    def variance(self, sd: float) -> tuple[np.ndarray, np.ndarray]:
        """``sd^2 + sigma_curve^2`` over the grid and its max over each
        block of :attr:`blocks`, cached per sd.  Computed from ``sd`` as
        given: an int sd and the float equal to it give the same bits and
        share one entry."""
        cached = self._variances.get(sd)
        if cached is None:
            sig = self.grid[2]
            var = sd * sd + sig * sig
            block_max = np.maximum.reduceat(var, np.arange(0, var.size, _BLOCK))
            cached = self._variances[sd] = (var, block_max)
        return cached


@dataclass(frozen=True)
class CalibrationResult:
    """Posterior over calendar dates for one measurement.

    ``grid`` holds the centers of the retained one-year cells; ``pdf``
    is the probability mass per cell and sums to 1.
    HPD intervals are lists of (start, end, probability) segments.
    """

    grid: np.ndarray
    pdf: np.ndarray
    mean: float
    median: float
    sigma: float
    hpd68: tuple[tuple[float, float, float], ...]
    hpd95: tuple[tuple[float, float, float], ...]


def load_curve(source, name: str | None = None) -> CalCurve:
    """Read a calibration curve from a ``#``-commented delimited text file.

    ``source`` may be a path or an open text/byte stream.  Data rows are
    ``cal_bp, c14_age, error`` (comma or whitespace delimited, detected
    per row; extra columns ignored).  Knots listed youngest-first are
    accepted and normalized to ascending cal BP; non-monotonic input is
    rejected.  A file of leading ``#`` lines and a comma-delimited body
    is parsed by one ``np.loadtxt``; any other file, and any file that
    parse refuses, row by row, which names the line of a bad row.
    """
    if hasattr(source, "read"):
        raw = source.read()
        src_name = getattr(source, "name", "<stream>")
    else:
        with open(source, "rb") as fh:
            raw = fh.read()
        src_name = str(source)
    if isinstance(raw, bytes):
        raw = raw.decode("utf-8", errors="replace")

    knots = _load_knots(raw) if raw.isascii() else None
    if knots is None:
        knots = _parse_knot_rows(raw)
    bp, age, err = knots
    if bp.size >= 2 and (np.diff(bp) < 0).all():
        bp, age, err = bp[::-1], age[::-1], err[::-1]
    return CalCurve(
        name=name if name is not None else src_name,
        cal_bp=bp,
        c14_age=age,
        error=err,
    )


# What the one-parse path reads: header lines of printable ASCII and tabs,
# a body of comma-delimited decimal numbers, and \n or \r\n line ends.
# Every other byte (a lone \r, \f, a '#' or letter in the body) could
# split, skip or parse a line otherwise than the row parser does.
_HEADER_BYTES = bytes(range(0x20, 0x7F)) + b"\t\r\n"
_BODY_BYTES = b"0123456789.,+-eE \r\n"


def _load_knots(text: str) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """The knot columns parsed by one ``np.loadtxt``, or None where the
    row parser must read or reject the file."""
    raw = text.encode("ascii")
    start = 0
    while True:  # skip the leading blank and '#' lines
        end = raw.find(b"\n", start)
        line = raw[start:] if end < 0 else raw[start:end]
        if line.strip() and not line.lstrip().startswith(b"#"):
            break
        if end < 0:
            return None
        start = end + 1
    if (raw[:start].translate(None, _HEADER_BYTES) or raw[start:].translate(None, _BODY_BYTES)
            or b"\r" in raw and raw.count(b"\r") != raw.count(b"\r\n")):
        return None
    try:
        table = np.loadtxt(io.StringIO(text[start:]), delimiter=",", usecols=(0, 1, 2),
                           comments=None, quotechar=None, ndmin=2)
    except ValueError:
        return None
    return tuple(np.ascontiguousarray(column) for column in table.T)


def _parse_knot_rows(raw: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The knot columns parsed row by row, naming the line of a bad row."""
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
    return np.array(bp), np.array(age), np.array(err)


def curve_at(curve: CalCurve, date) -> tuple:
    """Interpolated (curve mean BP, curve error) at a calendar date, or
    arrays of them at an array of dates; the first date outside the
    curve's domain is named in the error."""
    lo, hi = curve.domain
    dates = np.asarray(date)
    outside = np.flatnonzero(~((lo <= dates) & (dates <= hi)))
    if outside.size:
        raise ValueError(f"out of curve range: date {dates.flat[outside[0]]} not in "
                         f"[{lo}, {hi}] of curve {curve.name!r}")
    bp = to_cal_bp(dates)
    return np.interp(bp, curve.cal_bp, curve.c14_age), np.interp(bp, curve.cal_bp, curve.error)


def calibrate(curve: CalCurve, meas: Measurement) -> CalibrationResult:
    """Calibrate a measurement into a calendar-date posterior.

    Cell weight is ``exp(-(age - mu(t))^2 / (2 (sd^2 + sigma_curve(t)^2)))``
    over the one-year grid spanning the curve domain, normalized to unit
    mass.  The mean and sigma are probability weighted; the median
    interpolates linearly within the crossing cell; HPD intervals are
    built by descending-density inclusion (ties toward older dates),
    taking a fraction of the boundary cell so each interval set carries
    exactly its target mass.
    """
    dates, pdf, mean, median, sigma = _posterior(curve, meas.age, meas.sd)
    return CalibrationResult(
        grid=dates,
        pdf=pdf,
        mean=mean,
        median=median,
        sigma=sigma,
        hpd68=_hpd_segments(dates, pdf, HPD68_TARGET),
        hpd95=_hpd_segments(dates, pdf, HPD95_TARGET),
    )


def posterior_summary(curve: CalCurve, age: int, sd: float) -> tuple[float, float, float]:
    """(mean, median, sigma) of the posterior of ``age`` +- ``sd``.

    Bit for bit the summaries of :func:`calibrate`, computed once per
    distinct (age, sd) and kept on the curve.  An age that cannot be
    calibrated raises on every call; nothing is kept for it.
    """
    key = (age, float(sd))
    summary = curve._summaries.get(key)
    if summary is None:
        meas = Measurement(age, sd)  # rejects a fractional age or a bad sd
        _, _, *values = _posterior(curve, meas.age, meas.sd)
        summary = curve._summaries[meas.age, key[1]] = tuple(values)
    return summary


def posterior_summaries(
    curve: CalCurve, ages: np.ndarray, sd: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The mean, median and sigma columns of :func:`posterior_summary`
    for every age of the int64 array ``ages``, all with one ``sd``.

    Each distinct age is calibrated once, in the order of its first
    appearance and ``_CHUNK`` ages at a time, so an age that cannot be
    calibrated is reported as a per-record loop would report it.
    """
    sd = float(sd)
    _, first, distinct = np.unique(ages, return_index=True, return_inverse=True)
    drawn_first = ages[np.sort(first)].tolist()
    memo = curve._summaries
    misses = [age for age in drawn_first if (age, sd) not in memo]
    if misses:
        check_sd(sd)
    for k in range(0, len(misses), _CHUNK):
        chunk = misses[k : k + _CHUNK]
        for age, (_, _, *values) in zip(chunk, _posteriors(curve, chunk, sd)):
            memo[age, sd] = tuple(values)
    summaries = np.array([memo[age, sd] for age in drawn_first], dtype=float).reshape(-1, 3)
    return tuple(summaries.T[:, np.argsort(np.argsort(first))[distinct]])


def _posterior(
    curve: CalCurve, age: int, sd: float
) -> tuple[np.ndarray, np.ndarray, float, float, float]:
    """Retained grid, cell masses, mean, median and sigma of one
    calibration: a chunk of one age."""
    return _posteriors(curve, [age], sd)[0]


def _posteriors(curve: CalCurve, ages: list[int], sd: float) -> list[tuple]:
    """:func:`_posterior` of each age of a chunk, with log weights and
    ``exp`` computed over the span of blocks that can reach each peak's
    retained cells, or, for an age the span cannot serve, over the full
    grid (see the module docstring)."""
    dates, mu, _ = curve.grid
    var, var_max = curve.variance(sd)
    lo, hi = curve.blocks
    # converted as float() converts each age: numpy converts an int age
    # to this same float in every operation
    x = np.array(ages, dtype=float)[:, None]
    # the bound takes the operations of _log_weights on each block's
    # curve mean nearest the age and its largest variance; each is
    # monotone, so no cell exceeds it (a NaN bound is taken first and
    # sends the age to the full grid)
    bound = np.maximum(lo, x)
    np.minimum(bound, hi, out=bound)
    bound -= x
    bound *= bound
    bound *= -0.5
    bound /= var_max
    best = bound.argmax(axis=1)
    cells = _BLOCK * best[:, None] + np.arange(_BLOCK)
    best_logw = _log_weights(x, mu.take(cells, mode="clip"), var.take(cells, mode="clip"))
    low = best_logw.max(axis=1)
    windowed = low >= _LOG_FLOOR
    reach = bound > (low + _LOG_REACH)[:, None]
    first = np.where(windowed, reach.argmax(axis=1), best)
    last = np.where(windowed, reach.shape[1] - 1 - reach[:, ::-1].argmax(axis=1), best)
    # row r holds the blocks from first[r] on, as many as the widest span:
    # the best block's log weights are copied in, every other block's
    # computed once, and the cells past the row's span or the grid are
    # padding whose exp is 0
    rows, width = np.arange(len(ages))[:, None], int((last - first).max()) + 1
    other = np.arange(width - 1)
    other = other + (other >= (best - first)[:, None])  # the block columns but the best's
    cells = (_BLOCK * (first[:, None] + other))[:, :, None] + np.arange(_BLOCK)
    logw = np.empty((len(ages), width, _BLOCK))
    logw[rows, other] = _log_weights(x[:, :, None], mu.take(cells, mode="clip"),
                                     var.take(cells, mode="clip"))
    logw[rows[:, 0], best - first] = best_logw
    logw = logw.reshape(len(ages), -1)
    start = _BLOCK * first
    end = np.minimum(_BLOCK * (last + 1), mu.size) - start
    logw[np.arange(logw.shape[1]) >= end[:, None]] = -np.inf
    w = np.exp(logw)
    windowed &= w.sum(axis=1) >= _SPAN_SUM_FLOOR
    served = np.flatnonzero(windowed)
    posteriors = dict(zip(served.tolist(), _summarize(w[served], start[served], dates)))
    for r in np.flatnonzero(~windowed).tolist():
        logw = _log_weights(x[r], mu, var)
        w = np.exp(logw)
        if float(logw.max()) < _LOG_FLOOR or float(w.sum()) < 1e-300:
            raise ValueError(f"age outside calibratable range: {ages[r]} BP has no support "
                             f"on curve {curve.name!r}")
        posteriors[r] = _summarize(w[None], np.zeros(1, dtype=int), dates)[0]
    return [posteriors[r] for r in range(len(ages))]


def _summarize(w: np.ndarray, start: np.ndarray, dates: np.ndarray) -> list[tuple]:
    """Retained grid, cell masses, mean, median and sigma of each row of
    weights ``w``, whose column 0 is grid cell ``start`` of its row.  The
    sum and the two dot products, whose bits follow the length and order
    of their input, run on each row's retained cells alone."""
    cut = w > (w.max(axis=1) * _SUPPORT_EPS)[:, None]
    lo = cut.argmax(axis=1)
    size = w.shape[1] - cut[:, ::-1].argmax(axis=1) - lo
    # each row's retained cells moved to column 0; the cells after them,
    # the row's own or the next row's, are >= 0 and reach no output
    cells = (lo + w.shape[1] * np.arange(w.shape[0]))[:, None] + np.arange(size.max(initial=0))
    pdf = w.take(cells, mode="clip")
    sizes = size.tolist()
    pdf /= np.array([pdf[r, :s].sum() for r, s in enumerate(sizes)])[:, None]
    cum = np.cumsum(pdf, axis=1)
    i = np.count_nonzero(cum < 0.5, axis=1)  # searchsorted(cum, 0.5) of each row
    rows = np.arange(w.shape[0])
    prev = np.where(i > 0, cum[rows, i - 1], 0.0)
    first = start + lo
    medians = dates[first + i] - 0.5 + (0.5 - prev) / pdf[rows, i]
    posteriors = []
    for p, s, f, median in zip(pdf, sizes, first.tolist(), medians.tolist()):
        p, d = p[:s], dates[f : f + s]
        mean = float(np.dot(p, d))
        sigma = float(math.sqrt(max(np.dot(p, (d - mean) ** 2), 0.0)))
        posteriors.append((d, p, mean, median, sigma))
    return posteriors


def _log_weights(age: np.ndarray, mu: np.ndarray, var: np.ndarray) -> np.ndarray:
    """``-0.5 (age - mu)^2 / var``, computed in one buffer: a fresh
    temporary per step costs page faults on every call when the heap is
    small."""
    logw = age - mu
    np.square(logw, out=logw)
    logw *= -0.5
    logw /= var
    return logw


def _hpd_segments(
    dates: np.ndarray, pdf: np.ndarray, target: float
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
    included = np.flatnonzero(frac > 0)
    # a run of consecutive cells ends where the next included cell is not adjacent
    ends = np.flatnonzero(np.diff(included) != 1)
    runs = zip(included[np.concatenate(([0], ends + 1))].tolist(),
               included[np.append(ends, included.size - 1)].tolist())
    for i0, i1 in runs:
        start = float(dates[i0]) - 0.5
        end = float(dates[i1]) + 0.5
        prob = float(np.dot(frac[i0 : i1 + 1], pdf[i0 : i1 + 1]))
        # Trim the partially included boundary cell from the outer edge
        # so the segment carries exactly its stated mass.
        if frac[i0] < 1.0 and frac[i1] < 1.0 and i0 == i1:
            c = float(dates[i0])
            half = float(frac[i0]) / 2
            start, end = c - half, c + half
        elif frac[i0] < 1.0:
            start += 1.0 - float(frac[i0])
        elif frac[i1] < 1.0:
            end -= 1.0 - float(frac[i1])
        segments.append((float(start), float(end), prob))
    return tuple(segments)


def curve_checksum(curve: CalCurve) -> int:
    """crc32 over the knot table, for provenance headers."""
    payload = curve.cal_bp.tobytes() + curve.c14_age.tobytes() + curve.error.tobytes()
    return zlib.crc32(payload)
