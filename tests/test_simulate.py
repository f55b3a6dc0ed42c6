import math

import numpy as np
import pytest

import finedating as fd
from finedating.evaluate import dagostino_pearson
from finedating.simulate import draw_ages, round_half_away


def test_zero_variance_limit():
    curve = fd.flat_curve(level=2000.0, error=0.01, span=(-300.0, 0.0))
    rng = fd.substream(1, 0)
    for _ in range(20):
        rec = fd.r_simulate(curve, -150.0, 0.0, rng)
        assert rec.age == 2000


def test_normal_sampling_oracle(linear_curve):
    # date -200 on the identity curve has mu 2150; 3 standard errors of
    # the 10k-draw mean plus rounding slack
    rng = fd.substream(42, 0)
    ages = [fd.draw_age(linear_curve, -200.0, 20.0, rng) for _ in range(10_000)]
    assert abs(np.mean(ages) - 2150.0) < 0.7


def test_r_simulate_deterministic(study_curve):
    a = fd.r_simulate(study_curve, -200.0, 20.0, fd.substream(42, 7))
    b = fd.r_simulate(study_curve, -200.0, 20.0, fd.substream(42, 7))
    assert a == b


def test_r_simulate_rejects_out_of_domain(study_curve):
    with pytest.raises(ValueError, match="out of curve range"):
        fd.r_simulate(study_curve, -9000.0, 20.0, fd.substream(1, 0))


class _FixedDraws:
    """Generator stand-in whose normal draws are the given values."""

    def __init__(self, values):
        self.values = values

    def normal(self, loc, scale, size):
        return np.array(self.values[:size])


@pytest.mark.parametrize(
    "value,expected",
    [(2.5, 3), (-2.5, -3), (2.4, 2), (-2.4, -2), (0.5, 1), (-0.5, -1), (0.0, 0),
     (1e6 + 0.5, 1000001), (-1e6 - 0.5, -1000001)],
)
def test_rounding_ties_away_from_zero(study_curve, value, expected):
    assert round_half_away(value) == expected
    # draw_ages rounds the whole array by the same rule
    assert draw_ages(study_curve, -120.0, 20.0, [_FixedDraws([value])], 1) == [expected]


def test_array_draw_equals_successive_scalar_draws(study_curve):
    n = 200
    block = draw_ages(study_curve, -120.0, 20.0, [fd.substream(8, 3)], n)
    rng = fd.substream(8, 3)
    assert block == [fd.draw_age(study_curve, -120.0, 20.0, rng) for _ in range(n)]
    # reference: one scalar normal draw at a time, rounded one by one
    mu, sig = fd.curve_at(study_curve, -120.0)
    rng = fd.substream(8, 3)
    scale = math.sqrt(20.0 * 20.0 + sig * sig)
    assert block == [round_half_away(rng.normal(mu, scale)) for _ in range(n)]
    assert all(type(age) is int for age in block)
    # several generators are drawn in turn
    both = draw_ages(study_curve, -120.0, 20.0, [fd.substream(8, 3), fd.substream(8, 4)], n)
    assert both == block + draw_ages(study_curve, -120.0, 20.0, [fd.substream(8, 4)], n)


def test_rounding_never_shifts_more_than_half():
    rng = np.random.default_rng(3)
    for x in rng.normal(2000, 50, 500):
        assert abs(round_half_away(float(x)) - x) <= 0.5


def test_generate_full_scale_shape(ts3_datasets):
    assert len(ts3_datasets) == 6100
    assert sum(len(ds.records) for ds in ts3_datasets) == 18_300
    ids = [ds.data_id for ds in ts3_datasets]
    assert ids == list(range(1, 6101))


def test_generate_unit_case(study_curve):
    out = fd.generate_test_datasets(study_curve, [-75.0], 1, sd=20.0, seed=5)
    assert len(out) == 1
    assert len(out[0].measurements) == 3
    assert out[0].original_date == -75.0
    assert all(m.sd == 20.0 for m in out[0].measurements)


def test_generate_seed_determinism(study_curve):
    dates = [-100.0, -50.0, 0.0]
    a = fd.generate_test_datasets(study_curve, dates, 2, sd=20.0, seed=9)
    b = fd.generate_test_datasets(study_curve, dates, 2, sd=20.0, seed=9)
    c = fd.generate_test_datasets(study_curve, dates, 2, sd=20.0, seed=10)
    assert a == b
    ages = lambda sets: sorted(m.age for ds in sets for m in ds.measurements)
    assert ages(a) != ages(c)


def test_generate_rejects_bad_inputs(study_curve):
    with pytest.raises(ValueError, match="no dates"):
        fd.generate_test_datasets(study_curve, [], 1, sd=20.0, seed=1)
    with pytest.raises(ValueError, match="datasets_per_date"):
        fd.generate_test_datasets(study_curve, [0.0], 0, sd=20.0, seed=1)
    with pytest.raises(ValueError, match="group_size"):
        fd.generate_test_datasets(study_curve, [0.0], 1, sd=20.0, seed=1, group_size=0)


def test_tests_csv_roundtrip(tmp_path, study_curve):
    datasets = fd.generate_test_datasets(study_curve, [-120.0, -60.0], 2, sd=20.0, seed=21)
    path = tmp_path / "tests.csv"
    fd.write_tests(datasets, path)
    back = fd.read_tests(path)
    assert back == datasets


def test_draws_pass_normality_on_locally_linear_curve(linear_curve):
    rng = fd.substream(11, 0)
    ages = [fd.draw_age(linear_curve, -200.0, 20.0, rng) for _ in range(300)]
    result = dagostino_pearson(ages)
    assert result.p_value > 0.01


def test_unique_to_total_ratio_band(study_curve):
    # roughly a 1:3 unique-to-total ratio for 300 draws at sd 20
    rng = fd.substream(7, 0)
    ages = [fd.draw_age(study_curve, 0.0, 20.0, rng) for _ in range(300)]
    assert 75 <= len(set(ages)) <= 120


def test_unique_ratio_band_on_real_curve(intcal_curve):
    if intcal_curve is None:
        pytest.skip("intcal20.14c not provided (see README: data/intcal20.14c)")
    rng = fd.substream(7, 0)
    ages = [fd.draw_age(intcal_curve, 0.0, 20.0, rng) for _ in range(300)]
    assert 75 <= len(set(ages)) <= 120


def test_sd_zero_still_disperses(study_curve):
    # curve error alone produces spread
    rng = fd.substream(13, 0)
    ages = {fd.draw_age(study_curve, -150.0, 0.0, rng) for _ in range(50)}
    assert len(ages) > 5


def test_record_calibration_matches_direct_calibrate(study_curve):
    rec = fd.r_simulate(study_curve, -100.0, 15.0, fd.substream(3, 1))
    cal = fd.calibrate(study_curve, fd.Measurement(rec.age, 15.0))
    assert rec.cal_mean == cal.mean
    assert rec.cal_median == cal.median
    assert rec.cal_sigma == cal.sigma


@pytest.mark.parametrize("sd", [-3.0, float("nan"), float("inf")])
def test_generate_rejects_negative_or_non_finite_sd(study_curve, sd):
    with pytest.raises(ValueError, match="sd must be finite and >= 0"):
        fd.generate_test_datasets(study_curve, [0.0], 1, sd=sd, seed=1)
