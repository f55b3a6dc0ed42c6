"""Curve sources: synthetic test curves and the optional IntCal20 file.

The synthetic study curve is a deterministic stand-in with the
qualitative anatomy that matters to fine-dating (steep stretches,
two plateaus, a short spike, slowly varying curve error).  It is not a
real atmospheric record; results on it demonstrate the machinery and
carry no chronological meaning.  Real analyses should load an IntCal-style
file via :func:`finedating.calcurve.load_curve`.
"""

from __future__ import annotations

import math
import os
from pathlib import Path

import numpy as np

from . import csvio
from .calcurve import CalCurve

INTCAL20_ENV = "INTCAL20_PATH"
INTCAL20_FILENAME = "intcal20.14c"


def _knots(span: tuple[float, float], step: float) -> np.ndarray:
    """Knot positions in cal BP every ``step`` years over the calendar
    ``span`` (oldest, youngest), youngest first."""
    oldest, youngest = span
    return np.arange(1950.0 - youngest, 1950.0 - oldest + step / 2, step)


def flat_curve(
    level: float = 2000.0,
    error: float = 5.0,
    span: tuple[float, float] = (-300.0, 0.0),
    name: str = "flat-synthetic",
) -> CalCurve:
    """Constant curve mean and error, with knots every 50 years;
    calibrations are uniform."""
    bp = _knots(span, 50.0)
    return CalCurve(
        name=name,
        cal_bp=bp,
        c14_age=np.full_like(bp, level),
        error=np.full_like(bp, error),
    )


def linear_curve(
    span: tuple[float, float] = (-1000.0, 500.0),
    error: float = 0.01,
    name: str = "linear-synthetic",
) -> CalCurve:
    """Identity curve with knots every 50 years: the 14C age equals cal
    BP, so posteriors are Gaussian and closed-form comparable."""
    bp = _knots(span, 50.0)
    return CalCurve(
        name=name,
        cal_bp=bp,
        c14_age=bp.copy(),
        error=np.full_like(bp, error),
    )


# Engineered features of the synthetic study curve, in cal BP.
# Dates -80..-40 and -235..-190 are plateaus; -150..-135 is a spike.
_PLATEAUS = ((1990.0, 2030.0), (2140.0, 2185.0))
_SPIKE = (2085.0, 2100.0)


def synthetic_study_curve(
    span: tuple[float, float] = (-420.0, 120.0),
    name: str = "synthetic-study",
) -> CalCurve:
    """Wiggly curve over the study period, knots every 5 years, with
    plateaus and a spike.

    Built by integrating a deterministic slope profile, so every call
    returns the same knots.  Slope stays positive (no age reversals);
    curve error varies smoothly between 5 and 11 years.
    """

    def slope(bp: float) -> float:
        for lo, hi in _PLATEAUS:
            if lo <= bp <= hi:
                return 0.06
        if _SPIKE[0] <= bp <= _SPIKE[1]:
            return 2.6
        return 1.0 + 0.45 * math.sin(2.0 * math.pi * (bp - 1830.0) / 173.0)

    knot_step = 5.0
    bp = _knots(span, knot_step)
    mu = np.empty_like(bp)
    mu[0] = bp[0] - 15.0
    for i in range(1, bp.size):
        mid = 0.5 * (bp[i - 1] + bp[i])
        mu[i] = mu[i - 1] + knot_step * slope(mid)
    err = 8.0 + 3.0 * np.sin(2.0 * math.pi * (bp - 1830.0) / 211.0)
    return CalCurve(name=name, cal_bp=bp, c14_age=mu, error=err)


def write_curve(curve: CalCurve, path) -> None:
    """Write a curve in the comment-prefixed delimited text format read
    by :func:`finedating.calcurve.load_curve`."""
    knots = zip(curve.cal_bp.tolist(), curve.c14_age.tolist(), curve.error.tolist())
    lines = (",".join(map(csvio.fmt, knot)) for knot in knots)
    csvio.write_artifacts([], [(path, [f"# {curve.name}", "# cal_bp, c14_age, error", *lines])])


def locate_intcal20() -> Path | None:
    """Find a locally provided intcal20.14c, or None.

    Looked up, in order: the INTCAL20_PATH environment variable, then
    ``data/intcal20.14c`` under the working directory, its parents, and
    the package directory.  The file itself is distributed by the
    IntCal working group and is not bundled here.
    """
    env = os.environ.get(INTCAL20_ENV)
    if env and Path(env).is_file():
        return Path(env)
    candidates = []
    cwd = Path.cwd()
    for base in [cwd, *cwd.parents[:3]]:
        candidates.append(base / "data" / INTCAL20_FILENAME)
    candidates.append(Path(__file__).parent / "data" / INTCAL20_FILENAME)
    for path in candidates:
        if path.is_file():
            return path
    return None
