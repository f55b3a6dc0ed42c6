import io

import numpy as np
import pytest

import finedating as fd
from finedating.calcurve import curve_checksum


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


def test_calibrate_rejects_bad_grid_step(flat_curve):
    with pytest.raises(ValueError, match="grid_step"):
        fd.calibrate(flat_curve, fd.Measurement(2000, 20), grid_step=0)


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


def test_halving_grid_step_moves_summaries_less_than_step(study_curve):
    for age in (2000, 2100, 2180):
        coarse = fd.calibrate(study_curve, fd.Measurement(age, 20), grid_step=2.0)
        fine = fd.calibrate(study_curve, fd.Measurement(age, 20), grid_step=1.0)
        assert abs(coarse.mean - fine.mean) < 2.0
        assert abs(coarse.median - fine.median) < 2.0


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
            for step in (1, 2):
                res = fd.calibrate(curve, fd.Measurement(age, sd), grid_step=step)
                got = fd.posterior_summary(curve, age, sd, step)
                assert _bits(got) == _bits((res.mean, res.median, res.sigma)), (age, sd, step)
    cached = len(curve._summaries)
    assert cached == len(ages) * 6
    first = curve._summaries[(ages[0], 5.0, 1.0)]
    assert fd.posterior_summary(curve, ages[0], 5, 1) is first
    assert fd.posterior_summary(curve, float(ages[0]), 5.0, 1.0) is first
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
