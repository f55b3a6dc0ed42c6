import io
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import finedating as fd
from finedating import calcurve
from finedating.calcurve import curve_checksum

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def make_curve(rows, name="inline"):
    text = "# test curve\n" + "\n".join(",".join(str(v) for v in row) for row in rows)
    return fd.load_curve(io.BytesIO(text.encode()), name=name)


THREE_KNOTS = [(2000, 2050, 10), (2100, 2130, 12), (2200, 2210, 15)]


def test_load_three_synthetic_rows():
    curve = make_curve(THREE_KNOTS)
    assert curve.n_knots == 3
    assert curve.domain == (-250.0, -50.0)


def test_load_comment_only_file_errors():
    with pytest.raises(ValueError, match="no knots"):
        fd.load_curve(io.BytesIO(b"# just\n# comments\n"))


def test_load_unparsable_row_reports_line_number():
    data = b"# header\n2000,2050,10\nnot,a,row\n"
    with pytest.raises(ValueError, match="line 3"):
        fd.load_curve(io.BytesIO(data))


def test_load_accepts_descending_and_whitespace_delimited():
    text = "2200 2210 15\n2100 2130 12\n2000 2050 10\n"
    curve = fd.load_curve(io.BytesIO(text.encode()))
    assert list(curve.cal_bp) == [2000, 2100, 2200]
    assert list(curve.c14_age) == [2050, 2130, 2210]


def test_load_rejects_non_monotonic_knots():
    with pytest.raises(ValueError, match="unsorted curve"):
        make_curve([(2000, 2050, 10), (2200, 2210, 15), (2100, 2130, 12)])


def test_load_rejects_nonpositive_error():
    with pytest.raises(ValueError, match="invalid error"):
        make_curve([(2000, 2050, 10), (2100, 2130, 0)])


def test_load_rejects_single_knot():
    with pytest.raises(ValueError, match="2 knots"):
        make_curve([(2000, 2050, 10)])


@pytest.mark.parametrize(
    "text,knot",
    [
        ("0,100,10\n10,nan,10\n20,120,inf\n", "knot 1: cal_bp=10, c14_age=nan, error=10"),
        ("0,100,10\n10,110,10\n20,120,inf\n", "knot 2: cal_bp=20, c14_age=120, error=inf"),
        ("0,100,10\nnan,110,10\n20,120,10\n", "knot 1: cal_bp=nan, c14_age=110"),
        ("0,100,-inf\n10,110,10\n", "knot 0: cal_bp=0, c14_age=100, error=-inf"),
    ],
)
def test_load_rejects_non_finite_knot(text, knot):
    with pytest.raises(ValueError, match=f"non-finite curve {knot}"):
        fd.load_curve(io.StringIO(text))


def test_knot_arrays_are_read_only_copies():
    bp, age, err = np.array([0.0, 10.0]), np.array([100.0, 110.0]), np.array([10.0, 10.0])
    curve = fd.CalCurve(name="x", cal_bp=bp, c14_age=age, error=err)
    for knots in (curve.cal_bp, curve.c14_age, curve.error):
        with pytest.raises(ValueError, match="read-only"):
            knots[0] = 1.0
    bp[0] = -5.0  # the caller's array stays writable; the curve keeps its copy
    assert curve.cal_bp[0] == 0.0


def test_extra_columns_ignored():
    curve = make_curve([(2000, 2050, 10, -3, 1), (2100, 2130, 12, -4, 1)])
    assert curve.n_knots == 2


def test_curve_at_knot_hit():
    curve = make_curve(THREE_KNOTS[:2])
    assert fd.curve_at(curve, -150.0) == (2130.0, 12.0)


def test_curve_at_midpoint_interpolation():
    # hand interpolation halfway between the two knots
    curve = make_curve(THREE_KNOTS[:2])
    assert fd.curve_at(curve, -100.0) == (2090.0, 11.0)


def test_curve_at_outside_domain_errors():
    curve = make_curve(THREE_KNOTS)
    with pytest.raises(ValueError, match="out of curve range"):
        fd.curve_at(curve, -300.0)


def test_calibrate_flat_curve_is_uniform(flat_curve):
    res = fd.calibrate(flat_curve, fd.Measurement(2000, 20))
    assert res.pdf.max() - res.pdf.min() < 1e-12
    assert res.mean == pytest.approx(-150.0, abs=1e-6)
    assert res.median == pytest.approx(-150.0, abs=1e-6)


def test_calibrate_gaussian_oracle(linear_curve):
    res = fd.calibrate(linear_curve, fd.Measurement(2150, 20))
    assert res.mean == pytest.approx(-200.0, abs=0.5)
    assert res.median == pytest.approx(-200.0, abs=0.5)
    assert res.sigma == pytest.approx(20.0, rel=0.05)
    assert len(res.hpd68) == 1
    start, end, prob = res.hpd68[0]
    assert start == pytest.approx(-220.0, abs=1.5)
    assert end == pytest.approx(-180.0, abs=1.5)
    assert prob == pytest.approx(0.6827, abs=1e-9)


def test_calibrate_age_outside_range_errors():
    curve = make_curve([(2000, 1900, 10), (2500, 2400, 12)])
    with pytest.raises(ValueError, match="age outside calibratable range"):
        fd.calibrate(curve, fd.Measurement(50000, 10))


def test_pdf_nonnegative_and_normalized(study_curve):
    rng = np.random.default_rng(9)
    for _ in range(10):
        age = int(rng.integers(1950, 2200))
        sd = float(rng.integers(5, 30))
        res = fd.calibrate(study_curve, fd.Measurement(age, sd))
        assert (res.pdf >= 0).all()
        assert abs(res.pdf.sum() - 1.0) < 1e-9


def test_translation_invariance(study_curve):
    shifted = fd.CalCurve(
        name="shifted",
        cal_bp=study_curve.cal_bp.copy(),
        c14_age=study_curve.c14_age + 137.0,
        error=study_curve.error.copy(),
    )
    a = fd.calibrate(study_curve, fd.Measurement(2100, 20))
    b = fd.calibrate(shifted, fd.Measurement(2237, 20))
    assert a.mean == pytest.approx(b.mean, abs=1e-9)
    assert a.median == pytest.approx(b.median, abs=1e-9)
    assert a.sigma == pytest.approx(b.sigma, abs=1e-9)


def test_mean_age_calibrates_between_individual_means(linear_curve):
    # on a monotone segment the intermediate age lands between the two
    a = fd.calibrate(linear_curve, fd.Measurement(2100, 20)).mean
    b = fd.calibrate(linear_curve, fd.Measurement(2160, 20)).mean
    mid = fd.calibrate(linear_curve, fd.Measurement(2130, 20)).mean
    lo, hi = min(a, b), max(a, b)
    assert lo <= mid <= hi


def test_hpd_segments_disjoint_sorted_positive(study_curve):
    rng = np.random.default_rng(4)
    for _ in range(8):
        age = int(rng.integers(1950, 2200))
        res = fd.calibrate(study_curve, fd.Measurement(age, float(rng.integers(5, 25))))
        for segs, target in ((res.hpd68, 0.6827), (res.hpd95, 0.9545)):
            total = sum(p for _, _, p in segs)
            assert total == pytest.approx(target, abs=1e-9)
            assert 0.675 <= sum(p for _, _, p in res.hpd68) <= 0.690
            assert 0.950 <= sum(p for _, _, p in res.hpd95) <= 0.958
            for (s1, e1, p1), (s2, e2, _) in zip(segs, segs[1:]):
                assert e1 <= s2
            for s, e, p in segs:
                assert s < e and p > 0
        assert any(s <= res.median <= e for s, e, _ in res.hpd95)


def test_sd_zero_measurement_uses_curve_error(flat_curve):
    res = fd.calibrate(flat_curve, fd.Measurement(2000, 0))
    assert res.sigma > 0  # curve error keeps the variance positive


def test_curve_checksum_changes_with_data(study_curve, flat_curve):
    assert curve_checksum(study_curve) != curve_checksum(flat_curve)


def test_intcal20_ingestion_matches_independent_parse(intcal_curve):
    if intcal_curve is None:
        pytest.skip("intcal20.14c not provided (see README: data/intcal20.14c)")
    path = fd.locate_intcal20()
    rows = []
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        for line in fh:
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            parts = text.split(",") if "," in text else text.split()
            rows.append((float(parts[0]), float(parts[1]), float(parts[2])))
    assert intcal_curve.n_knots == len(rows)
    by_bp = {bp: (age, err) for bp, age, err in rows}
    assert 2000.0 in by_bp
    mu, sig = fd.curve_at(intcal_curve, fd.from_cal_bp(2000.0))
    assert (mu, sig) == by_bp[2000.0]


@pytest.mark.parametrize("sd", [-3.0, float("nan"), float("inf")])
def test_measurement_rejects_negative_or_non_finite_sd(sd):
    with pytest.raises(ValueError, match=f"sd must be finite and >= 0, got {sd!r}"):
        fd.Measurement(2000, sd)


def _bits(values):
    return [float(v).hex() for v in values]


@pytest.mark.parametrize(
    "curve,ages",
    [
        (fd.synthetic_study_curve(), range(1800, 2321)),
        (fd.synthetic_study_curve(span=(-3050.0, 1950.0)), range(2400, 2600)),
    ],
    ids=["study", "5000-year"],
)
def test_posterior_summary_is_calibrate_bit_for_bit(curve, ages):
    for age in ages:
        for sd in (0, 5, 20):
            res = fd.calibrate(curve, fd.Measurement(age, sd))
            got = fd.posterior_summary(curve, age, sd)
            assert _bits(got) == _bits((res.mean, res.median, res.sigma)), (age, sd)
    cached = len(curve._summaries)
    assert cached == len(ages) * 3
    first = curve._summaries[(ages[0], 5.0)]
    assert fd.posterior_summary(curve, ages[0], 5) is first
    assert fd.posterior_summary(curve, float(ages[0]), 5.0) is first
    assert len(curve._summaries) == cached


def test_posterior_summary_keeps_no_failure():
    curve = fd.synthetic_study_curve()
    for _ in range(2):
        with pytest.raises(ValueError, match="age outside calibratable range"):
            fd.posterior_summary(curve, 50000, 10.0)
    with pytest.raises(ValueError, match="sd must be finite"):
        fd.posterior_summary(curve, 2000, float("nan"))
    with pytest.raises(ValueError, match="integer BP"):
        fd.posterior_summary(curve, 2000.5, 10.0)
    assert curve._summaries == {}


# --- the posterior's window against the full grid ----------------------------


def full_grid_posterior(curve, age, sd):
    """The posterior computed over every grid cell: the reference the
    windowed ``_posterior`` must equal bit for bit."""
    dates, mu, sig = curve.grid
    logw = age - mu
    np.square(logw, out=logw)
    logw *= -0.5
    logw /= sd * sd + sig * sig
    peak = float(logw.max())
    if peak < math.log(1e-300):
        raise ValueError(
            f"age outside calibratable range: {age} BP has no support on curve {curve.name!r}"
        )
    w = np.exp(logw, out=logw)
    if float(w.sum()) < 1e-300:
        raise ValueError(
            f"age outside calibratable range: {age} BP has no support on curve {curve.name!r}"
        )
    keep = np.nonzero(w > w.max() * 1e-14)[0]
    lo_i, hi_i = int(keep[0]), int(keep[-1])
    dates = dates[lo_i : hi_i + 1]
    pdf = w[lo_i : hi_i + 1]
    pdf = pdf / pdf.sum()
    mean = float(np.dot(pdf, dates))
    sigma = float(math.sqrt(max(np.dot(pdf, (dates - mean) ** 2), 0.0)))
    cum = np.cumsum(pdf)
    i = int(np.searchsorted(cum, 0.5))
    prev = float(cum[i - 1]) if i > 0 else 0.0
    median = float(dates[i] - 0.5 + (0.5 - prev) / float(pdf[i]))
    return dates, pdf, mean, median, sigma


def posterior_bits(result):
    dates, pdf, *summary = result
    return dates.tobytes(), pdf.tobytes(), [float(v).hex() for v in summary]


def posterior_outcome(posterior, curve, age, sd):
    """The bytes of every output, or the type and message of the error."""
    try:
        return posterior_bits(posterior(curve, age, sd))
    except ValueError as exc:
        return type(exc), str(exc)


# Block sizes the log-weight bound was timed at; calcurve._BLOCK is one of them.
BLOCK_SIZES = (64, 256, 1024)


def every_cell(curve):
    return np.arange(curve.grid[1].size)


@st.composite
def drawn_curves(draw, block):
    """A curve of 2-60 knots, 1-40 years apart: monotone (the 14C age
    rises with cal BP) or wiggly (it may fall), with errors of 0.5-40."""
    n = draw(st.integers(2, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bp = draw(st.integers(-100, 5000)) + np.cumsum(rng.integers(1, 41, n)).astype(float)
    slope = rng.uniform(0.0, 2.5, n - 1)
    if draw(st.booleans()):  # wiggly
        slope = slope * rng.choice([-1.0, 1.0], n - 1)
    c14 = bp[0] + draw(st.integers(-300, 300)) + np.concatenate(([0.0], np.cumsum(np.diff(bp) * slope)))
    err = rng.uniform(0.5, 40.0, n)
    curve = fd.CalCurve(name="drawn", cal_bp=bp, c14_age=c14, error=err)
    return curve, every_cell(curve)


@st.composite
def sized_curves(draw, block):
    """A drawn curve whose grid has 1, B - 1, B or B + 1 cells, so that
    the last block is partial, full or the only one."""
    cells = draw(st.sampled_from([1, block - 1, block, block + 1]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    width = cells - 1 + draw(st.floats(0.0, 0.99)) if cells > 1 else draw(st.floats(0.01, 0.99))
    bp = draw(st.integers(-100, 5000)) + np.unique(
        np.concatenate(([0.0, width], rng.uniform(0.0, width, draw(st.integers(0, 20))))))
    slope = rng.uniform(-2.5, 2.5, bp.size - 1)
    c14 = bp[0] + np.concatenate(([0.0], np.cumsum(np.diff(bp) * slope)))
    curve = fd.CalCurve(name="sized", cal_bp=bp, c14_age=c14, error=rng.uniform(0.5, 40.0, bp.size))
    assert curve.grid[1].size == cells
    return curve, every_cell(curve)


@st.composite
def plateau_curves(draw, block):
    """A rising curve with 1-3 flat stretches of B + 1 to 3B years, where
    the 14C age holds (knots every 5-50 years); the focus is their cells."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bp, c14, flat = [float(draw(st.integers(-100, 5000)))], [0.0], []
    for _ in range(draw(st.integers(1, 3))):
        rise = rng.uniform(10.0, 300.0)
        bp.append(bp[-1] + rise)
        c14.append(c14[-1] + rise * rng.uniform(0.3, 2.5))
        length = rng.integers(block + 1, 3 * block + 1)
        inner = bp[-1] + np.cumsum(rng.integers(5, 51, length // 5))
        inner = inner[inner < bp[-1] + length]
        flat.append((bp[-1], bp[-1] + length))
        bp += [*inner, bp[-1] + length]
        c14 += [c14[-1]] * (inner.size + 1)
    bp.append(bp[-1] + rng.uniform(10.0, 300.0))
    c14.append(c14[-1] + (bp[-1] - bp[-2]) * rng.uniform(0.3, 2.5))
    bp, c14 = np.array(bp), np.array(c14) + bp[0] + draw(st.integers(-300, 300))
    if draw(st.booleans()):  # one error everywhere: the plateaus' log weights tie
        err = np.full(bp.size, rng.uniform(0.5, 40.0))
    else:
        err = rng.uniform(0.5, 40.0, bp.size)
    curve = fd.CalCurve(name="plateau", cal_bp=bp, c14_age=c14, error=err)
    grid_bp = calcurve.REFERENCE_YEAR - curve.grid[0]
    focus = np.flatnonzero(np.any([(grid_bp >= lo) & (grid_bp <= hi) for lo, hi in flat], axis=0))
    return curve, focus


@st.composite
def wiggly_curves(draw, block):
    """An IntCal-sized curve: 20,000-50,001 one-year cells, knots 5-20
    years apart, errors of 3-80.  The 14C age follows cal BP with two
    sinusoidal wiggles of up to 60 years, and falls back along a fold of
    W = B/2 + 1 to 2B years, so the ages of the fold recur up to 2W (more
    than B) years apart; the focus is the fold's cells."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cells = draw(st.integers(20_000, 50_001))
    start = float(draw(st.integers(-100, 5000)))
    bp = start + np.cumsum(np.concatenate(([0], rng.integers(5, 21, cells // 5))))
    bp = np.append(bp[bp < start + cells - 1], start + cells - 1)
    fold_width = int(rng.integers(block // 2 + 1, 2 * block + 1))
    fold = start + rng.uniform(0.0, cells - 1 - 2 * fold_width)
    c14 = bp - 2.0 * np.clip(bp - fold, 0.0, fold_width) + draw(st.integers(-300, 300))
    for _ in range(2):
        c14 += rng.uniform(0.0, 60.0) * np.sin(2 * np.pi * bp / rng.uniform(100.0, 3000.0)
                                              + rng.uniform(0.0, 2 * np.pi))
    curve = fd.CalCurve(name="wiggly", cal_bp=bp, c14_age=c14, error=rng.uniform(3.0, 80.0, bp.size))
    grid_bp = calcurve.REFERENCE_YEAR - curve.grid[0]
    return curve, np.flatnonzero((grid_bp >= fold) & (grid_bp <= fold + 2 * fold_width))


CURVES = {"drawn": drawn_curves, "sized": sized_curves, "plateau": plateau_curves,
          "wiggly": wiggly_curves}

SDS = st.one_of(st.just(0), st.just(0.0), st.floats(0.01, 5.0), st.floats(5.0, 5000.0),
                st.sampled_from([20, 137.5, 1e200]))


PLACES = ["focus", "on", "near", "off", "far"]


def draw_age(data, curve, focus, sd, where):
    """An age on a focus cell's curve mean, on or near any cell's, or
    off or far beyond the curve."""
    mu, sig = curve.grid[1:]
    k = int(focus[data.draw(st.integers(0, focus.size - 1))]) if where == "focus" else \
        data.draw(st.integers(0, mu.size - 1))
    spread = math.sqrt(sd * sd + float(sig[k]) ** 2) if sd < 1e100 else 1.0
    # off: 35-38 spreads beyond the curve, where the peak weight nears
    # the 1e-300 floor and the error or the full-grid fallback decides
    offset = {"focus": 0.0, "on": 0.0, "near": data.draw(st.floats(-4.0, 4.0)) * spread,
              "off": data.draw(st.floats(35.0, 38.0)) * spread,
              "far": data.draw(st.floats(50.0, 1e4)) * spread}[where]
    edge = float(mu.max()) if offset >= 0 else float(mu.min())
    return int(round((float(mu[k]) if where in ("focus", "on", "near") else edge) + offset))


@settings(PROPERTY, max_examples=3 * PROPERTY.max_examples)  # as many per block size
@given(block=st.sampled_from(BLOCK_SIZES), kind=st.sampled_from(sorted(CURVES)), sd=SDS,
       where=st.sampled_from(PLACES), data=st.data())
def test_windowed_posterior_equals_full_grid_bit_for_bit(block, kind, sd, where, data):
    with mock.patch.object(calcurve, "_BLOCK", block):
        curve, focus = data.draw(CURVES[kind](block))
        age = draw_age(data, curve, focus, sd, where)
        for _ in range(2):  # once more with the variance cached
            window = posterior_outcome(calcurve._posterior, curve, age, sd)
            assert window == posterior_outcome(full_grid_posterior, curve, age, sd)
        if isinstance(window[0], bytes):
            res = fd.calibrate(curve, fd.Measurement(age, sd))
            assert abs(float(res.pdf.sum()) - 1.0) < 1e-9
            for segments, target in ((res.hpd68, calcurve.HPD68_TARGET),
                                     (res.hpd95, calcurve.HPD95_TARGET)):
                assert abs(sum(p for _, _, p in segments) - target) < 1e-9


# no shrinking: an example holds 31-33 ages on curves of up to 50,001 cells,
# and shrinking a failure takes minutes where finding it takes a second
@settings(PROPERTY, deadline=None, phases=[p for p in Phase if p is not Phase.shrink])
@given(block=st.sampled_from(BLOCK_SIZES), kind=st.sampled_from(sorted(CURVES)), sd=SDS,
       size=st.sampled_from([-1, 0, 1]), data=st.data())
def test_chunked_summaries_equal_full_grid_bit_for_bit(block, kind, sd, size, data):
    # columns of about a chunk of distinct ages, each repeated, a few of
    # them off or far beyond the curve; the first one without support in
    # draw order raises, and nothing is memoized for it
    with mock.patch.object(calcurve, "_BLOCK", block):
        curve, focus = data.draw(CURVES[kind](block))
        distinct = {}
        for _ in range(4 * (calcurve._CHUNK + size)):  # fewer where the curve has few ages
            if len(distinct) == calcurve._CHUNK + size:
                break
            distinct[draw_age(data, curve, focus, sd, data.draw(st.sampled_from(PLACES[:3])))] = 1
        distinct = list(distinct)
        last = len(distinct) - 1  # an age of the second chunk, after a full first one
        for k in data.draw(st.sets(st.one_of(st.integers(0, last), st.just(last)), max_size=2)):
            distinct[k] = draw_age(data, curve, focus, sd, data.draw(st.sampled_from(PLACES[3:])))
        column = []  # the distinct ages in this order, each followed by repeats
        for age in distinct:
            column += [age, *data.draw(st.lists(st.sampled_from(column + [age]), max_size=2))]
        first_drawn = list(dict.fromkeys(column))
        outcomes = [posterior_outcome(full_grid_posterior, curve, age, sd) for age in first_drawn]
        failed = [(age, o) for age, o in zip(first_drawn, outcomes) if o[0] is ValueError]
        if failed:
            age, (_, message) = failed[0]
            with pytest.raises(ValueError) as exc:
                calcurve.posterior_summaries(curve, np.array(column, dtype=np.int64), sd)
            assert str(exc.value) == message
            assert (age, float(sd)) not in curve._summaries
            return
        columns = calcurve.posterior_summaries(curve, np.array(column, dtype=np.int64), sd)
        want = dict(zip(first_drawn, (o[2] for o in outcomes)))
        assert [[float(v).hex() for v in record] for record in zip(*columns)] == \
            [want[age] for age in column]


def log_weight_cells(curve, ages, sd):
    """(cells whose log weights were computed, shape of the matrix ``exp``
    took) for each ``exp`` call of ``posterior_summaries`` over ``ages``,
    on a copy of ``curve`` with an empty memo.  ``_log_weights`` squares
    each computed cell once, and nothing else calls ``np.square``."""
    fresh = fd.CalCurve(curve.name, curve.cal_bp, curve.c14_age, curve.error)
    squared, passes = [], []
    real_square, real_exp = np.square, np.exp

    def exp(x):
        passes.append((sum(squared), x.shape))
        squared.clear()
        return real_exp(x)

    with mock.patch.object(calcurve.np, "square",
                           lambda x, out=None: squared.append(x.size) or real_square(x, out=out)), \
            mock.patch.object(calcurve.np, "exp", exp):
        calcurve.posterior_summaries(fresh, np.asarray(ages, dtype=np.int64), sd)
    return passes


@pytest.mark.parametrize("block", BLOCK_SIZES)
def test_wiggly_curves_compute_a_small_share_of_the_grid(block, capsys):
    # the bound's kill criterion: on drawn wiggly curves the median
    # calibration of an age near the curve computes log weights over at
    # most a quarter of the grid
    shares = []

    @settings(PROPERTY, max_examples=40)
    @given(drawn=wiggly_curves(block), data=st.data())
    def calibrate_drawn(drawn, data):
        curve, _ = drawn
        mu = curve.grid[1]
        for _ in range(5):
            sd = data.draw(st.sampled_from([5, 20, 50]))
            k = data.draw(st.integers(0, mu.size - 1))
            age = int(round(float(mu[k]) + data.draw(st.floats(-2.0, 2.0)) * sd))
            [(cells, _)] = log_weight_cells(curve, [age], sd)
            shares.append(cells / mu.size)

    with mock.patch.object(calcurve, "_BLOCK", block):
        calibrate_drawn()
    median = float(np.median(shares))
    with capsys.disabled():
        print(f"\nB={block}: median computed share of the grid {median:.4f} "
              f"(max {max(shares):.4f}) over {len(shares)} calibrations")
    assert median <= 0.25


def test_calibration_near_the_curve_computes_a_few_blocks():
    # a silent return to full-grid passes would compute all 50,001 cells;
    # each chunk's matrix is as wide as its widest span
    curve = fd.synthetic_study_curve(span=(-48050, 1950))
    mu = curve.grid[1]
    rng = np.random.default_rng(0)
    ages = np.rint(mu[rng.integers(0, mu.size, 300)] + rng.normal(0.0, 20.0, 300))
    passes = log_weight_cells(curve, ages, 20)
    assert len(passes) == -(-np.unique(ages).size // calcurve._CHUNK)
    assert max(width for _, (_, width) in passes) <= 4 * calcurve._BLOCK < mu.size // 10


@pytest.mark.parametrize("span", [None, (-48050, 1950)], ids=["541-cells", "50001-cells"])
def test_calibration_exponentiates_its_log_weight_span_once(span):
    # one cut per chunk: exp runs once, over exactly the cells whose log
    # weights were computed, the best block's among them only once
    curve = fd.synthetic_study_curve() if span is None else fd.synthetic_study_curve(span=span)
    mu = curve.grid[1]
    rng = np.random.default_rng(1)
    ages = np.rint(mu[rng.integers(0, mu.size, 200)] + rng.normal(0.0, 20.0, 200))
    distinct = np.unique(ages).size
    passes = log_weight_cells(curve, ages, 20)
    assert [rows for _, (rows, _) in passes] == \
        [min(calcurve._CHUNK, distinct - k) for k in range(0, distinct, calcurve._CHUNK)]
    for cells, shape in passes:
        assert cells == math.prod(shape)


def test_window_falls_back_to_the_full_grid_near_the_floor():
    # ages 25 to 45 spreads below the curve: their peaks cross both the
    # window-sum bound (log 1e-280) and the floor (log 1e-300)
    curve = fd.synthetic_study_curve()
    spread = float(curve.error[0])
    ages = range(int(curve.c14_age[0] - 45 * spread), int(curve.c14_age[0] - 25 * spread))
    sizes = []
    real_exp = np.exp
    with mock.patch.object(calcurve.np, "exp", lambda x: sizes.append(x.size) or real_exp(x)):
        outcomes = [posterior_outcome(calcurve._posterior, curve, age, 0) for age in ages]
    assert curve.grid[0].size in sizes  # some window sums fell under the bound
    assert any(isinstance(o[0], bytes) for o in outcomes)
    assert any(o[0] is ValueError for o in outcomes)
    assert outcomes == [posterior_outcome(full_grid_posterior, curve, age, 0) for age in ages]


@pytest.mark.parametrize("end", ["first", "last"])
def test_peak_on_an_end_cell_matches_the_full_grid(linear_curve, end):
    dates, mu, _ = linear_curve.grid
    age = int(mu[0]) + 30 if end == "first" else int(mu[-1]) - 30
    window = calcurve._posterior(linear_curve, age, 20.0)
    assert posterior_bits(window) == posterior_outcome(full_grid_posterior, linear_curve, age, 20.0)
    cell = 0 if end == "first" else -1
    assert window[0][cell] == dates[cell]
    assert int(np.argmax(window[1])) == (0 if end == "first" else window[1].size - 1)


def test_flat_curve_keeps_the_whole_grid(flat_curve):
    window = calcurve._posterior(flat_curve, 2000, 20.0)
    assert window[0].tobytes() == flat_curve.grid[0].tobytes()
    assert posterior_bits(window) == posterior_outcome(full_grid_posterior, flat_curve, 2000, 20.0)


@pytest.mark.parametrize("sd", [0, 0.0])
def test_sd_zero_matches_the_full_grid(study_curve, sd):
    for age in (1900, 2050, 2160, 2300):
        assert posterior_outcome(calcurve._posterior, study_curve, age, sd) == \
            posterior_outcome(full_grid_posterior, study_curve, age, sd)


def test_no_support_raises_the_full_grid_message(study_curve):
    for age in (50000, -50000, 2**60 + 1, -(2**60) - 1):  # and ages a float cannot hold
        got = posterior_outcome(calcurve._posterior, study_curve, age, 10.0)
        assert got == posterior_outcome(full_grid_posterior, study_curve, age, 10.0)
        assert got[1] == (f"age outside calibratable range: {age} BP has no support on "
                          f"curve 'synthetic-study'")


def test_variance_is_cached_per_sd(study_curve):
    curve = fd.CalCurve("v", study_curve.cal_bp, study_curve.c14_age, study_curve.error)
    var, var_max = curve.variance(5)
    assert curve.variance(5.0) is curve.variance(5)  # one entry for 5 and 5.0
    assert curve.variance(6.0)[0] is not var
    assert var.tobytes() == (25.0 + curve.grid[2] ** 2).tobytes()
    block = calcurve._BLOCK
    starts = range(0, var.size, block)
    assert var.size % block and len(starts) > 1  # the last block is partial
    assert var_max.tolist() == [var[i : i + block].max() for i in starts]
    lo, hi = curve.blocks
    mu = curve.grid[1]
    assert lo.tolist() == [mu[i : i + block].min() for i in starts]
    assert hi.tolist() == [mu[i : i + block].max() for i in starts]
    first = fd.posterior_summary(curve, 2100, 5)
    assert fd.posterior_summary(curve, 2100, 5.0) is first
    assert len(curve._variances) == 2
    assert curve.blocks is curve.blocks
    twin = fd.CalCurve("v", curve.cal_bp, curve.c14_age, curve.error)
    assert twin._variances == {}
    twin_var, twin_max = twin.variance(5)
    assert twin_var is not var and twin_max is not var_max
    assert twin_max.tobytes() == var_max.tobytes()
    assert twin.blocks is not curve.blocks


# --- curve files: one loadtxt against the row parser --------------------------

FINITE = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
VARIANTS = ["written", "descending", "extra columns", "spaces", "crlf", "blank lines", "header"]


@st.composite
def curve_files(draw):
    """The knots of a drawn curve as :func:`fd.write_curve` writes them."""
    n = draw(st.integers(2, 30))
    steps = draw(st.lists(st.one_of(st.floats(1e-3, 1e4), st.integers(1, 50).map(float)),
                          min_size=n, max_size=n))
    cells = st.lists(st.one_of(FINITE, st.integers(-5000, 5000).map(float)),
                     min_size=n, max_size=n)
    return fd.CalCurve("drawn", draw(FINITE) + np.cumsum(steps), draw(cells),
                       draw(st.lists(st.floats(1e-3, 1e3), min_size=n, max_size=n)))


def variant(data: bytes, name: str) -> bytes:
    """A written curve file rewritten in one of the forms the one-parse
    path also takes: rows youngest-first, extra columns, spaces around
    cells, CRLF line ends, blank body lines, other leading comments."""
    lines = data.split(b"\n")[:-1]
    header, body = lines[:2], lines[2:]
    if name == "descending":
        body = body[::-1]
    elif name == "extra columns":
        body = [line + b",1.5e3,-2," for line in body]
    elif name == "spaces":
        body = [b" " + line.replace(b",", b" , ") + b" " for line in body]
    elif name == "blank lines":
        body = [line + b"\n" for line in body]
    elif name == "header":
        header = [b"##INTCAL-style header", b"", b"  # CAL BP,14C age,Error\t", b"#"]
    text = b"".join(line + b"\n" for line in header + body)
    return text.replace(b"\n", b"\r\n") if name == "crlf" else text


def row_parsed(raw: bytes):
    """What ``load_curve`` gives with the one-parse path switched off:
    the knot bytes, or the type and message of its ValueError."""
    with mock.patch.object(calcurve, "_load_knots", lambda text: None):
        return curve_outcome(raw)


def curve_outcome(raw: bytes):
    try:
        curve = fd.load_curve(io.BytesIO(raw))
    except ValueError as exc:
        return type(exc), str(exc)
    return curve.cal_bp.tobytes(), curve.c14_age.tobytes(), curve.error.tobytes()


@PROPERTY
@given(curve=curve_files(), name=st.sampled_from(VARIANTS))
def test_one_parse_equals_the_row_parser_on_written_curves(tmp_path_factory, curve, name):
    path = tmp_path_factory.mktemp("c") / "curve.14c"
    fd.write_curve(curve, path)
    raw = variant(path.read_bytes(), name)
    text = raw.decode()
    fast = calcurve._load_knots(text)
    assert fast is not None  # no such file is left to the row parser
    rows = calcurve._parse_knot_rows(text)
    assert [c.tobytes() for c in fast] == [c.tobytes() for c in rows]
    assert all(c.flags.c_contiguous for c in fast)
    assert curve_outcome(raw) == row_parsed(raw)
    if name != "descending":
        assert curve_outcome(raw)[0] == curve.cal_bp.tobytes()


DAMAGES = {
    "whitespace row": lambda cells: b" ".join(cells),
    "tab row": lambda cells: b"\t".join(cells),
    "two cells": lambda cells: b",".join(cells[:2]),
    "blank cell": lambda cells: b",".join([cells[0], b"", cells[2]]),
    "comment in the body": lambda cells: b"# " + b",".join(cells) + b"\n" + b",".join(cells),
    "trailing comment": lambda cells: b",".join(cells) + b" # note",
    "letters": lambda cells: b",".join([cells[0], b"abc", cells[2]]),
    "nan": lambda cells: b",".join([cells[0], b"nan", cells[2]]),
    "underscore": lambda cells: b",".join([b"1_0" + cells[0].lstrip(b"-"), *cells[1:]]),
    "non-ascii byte": lambda cells: b",".join(cells) + b"\xff",
    "utf-8 line separator": lambda cells: b",".join(cells) + "\u2028".encode() + b",".join(cells),
    "form feed": lambda cells: b",".join(cells) + b"\x0c" + b",".join(cells),
    "lone carriage return": lambda cells: b",".join(cells) + b"\r" + b",".join(cells),
}


@PROPERTY
@given(curve=curve_files(), name=st.sampled_from(list(DAMAGES)), data=st.data())
def test_damaged_curve_reads_as_the_row_parser_reads_it(tmp_path_factory, curve, name, data):
    path = tmp_path_factory.mktemp("c") / "curve.14c"
    fd.write_curve(curve, path)
    lines = path.read_bytes().split(b"\n")[:-1]
    row = data.draw(st.integers(2, len(lines) - 1))
    lines[row] = DAMAGES[name](lines[row].split(b","))
    raw = b"".join(line + b"\n" for line in lines)
    text = raw.decode("utf-8", errors="replace")
    assert not text.isascii() or calcurve._load_knots(text) is None
    assert curve_outcome(raw) == row_parsed(raw)


@pytest.mark.parametrize("separator", ["\x0b", "\x0c", "\x1c", "\r", "\x85", "\u2028"])
def test_line_break_inside_a_header_line_is_left_to_the_row_parser(separator):
    # the row parser splits lines at every break str.splitlines knows, so
    # the knot after the break is data, not part of the comment
    raw = f"# header{separator}1000,900,5\n2000,1950,10\n2100,2130,12\n".encode()
    assert not raw.isascii() or calcurve._load_knots(raw.decode()) is None
    assert curve_outcome(raw) == row_parsed(raw)
    assert curve_outcome(raw)[0] == np.array([1000.0, 2000.0, 2100.0]).tobytes()


def test_bad_row_names_its_line_after_a_comma_delimited_body():
    raw = b"# h\n2000,2050,10\n2100,2130,12\n2200 2210\n"
    assert curve_outcome(raw) == (ValueError, "unparsable curve row at line 4: '2200 2210'")
