import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import finedating as fd
from finedating.calcurve import posterior_summaries
from finedating.evaluate import dagostino_pearson
from finedating.simulate import (
    draw_ages,
    draw_ages_at,
    round_half_away,
    substream_from_words,
    substream_words,
)


def test_zero_variance_limit():
    curve = fd.flat_curve(level=2000.0, error=0.01, span=(-300.0, 0.0))
    rng = fd.substream(1, 0)
    for _ in range(20):
        assert fd.r_simulate(curve, -150.0, 0.0, rng).age == 2000


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


def test_posterior_summaries_summarize_each_distinct_age_once(study_curve):
    draws = [2101.2, 2080.0, 2101.4, 2095.0, 2080.3, 2101.0, 2060.0, 2095.2]
    age = np.array(draw_ages(study_curve, -100.0, 20.0, [_FixedDraws(draws)], len(draws)))
    columns = posterior_summaries(study_curve, age, 20.0)
    assert age.tolist() == [2101, 2080, 2101, 2095, 2080, 2101, 2060, 2095]
    # reference: the per-record loop, on a copy whose memo the batch has
    # not filled
    fresh = _fresh_copy(study_curve)
    expected = np.array([fd.posterior_summary(fresh, a, 20.0) for a in age.tolist()])
    for got, want in zip(columns, expected.T):
        assert got.tobytes() == want.tobytes()


def test_posterior_summaries_report_the_first_drawn_age_without_support(study_curve):
    # 90000 is drawn first, 500 sorts first; neither calibrates
    draws = [2101.0, 90000.0, 2080.0, 500.0]
    age = np.array(draw_ages(study_curve, -100.0, 20.0, [_FixedDraws(draws)], len(draws)))
    with pytest.raises(ValueError, match="^age outside calibratable range: 90000 BP has no support"):
        posterior_summaries(study_curve, age, 20.0)


def test_the_first_drawn_age_without_support_is_reported_across_dates(study_curve):
    # the first date draws 90000 after a good age, the second draws 500,
    # which sorts first; neither calibrates
    groups = [[_FixedDraws([2101.0, 90000.0])], [_FixedDraws([500.0, 2080.0])]]
    age = draw_ages_at(study_curve, [-100.0, -50.0], 20.0, groups, 2)
    assert age.tolist() == [2101, 90000, 500, 2080]
    with pytest.raises(ValueError, match="^age outside calibratable range: 90000 BP has no support"):
        posterior_summaries(study_curve, age, 20.0)


def test_the_first_date_outside_the_curve_is_named_before_anything_is_drawn(study_curve):
    with pytest.raises(ValueError) as expected:
        fd.curve_at(study_curve, -9000.0)
    dates = [-100.0, -9000.0, -50.0, 9000.0]
    with pytest.raises(ValueError) as got:
        fd.generate_test_datasets(study_curve, dates, 2, sd=20.0, seed=1)
    assert str(got.value) == str(expected.value)
    # an earlier date's age without support is not calibrated first
    groups = [[_FixedDraws([90000.0])], [_FixedDraws([2000.0])], [], []]
    with pytest.raises(ValueError) as got:
        draw_ages_at(study_curve, dates, 20.0, groups, 1)
    assert str(got.value) == str(expected.value)


def _fresh_copy(curve):
    """The same curve with empty caches: a summary taken from it is
    computed afresh, not read from the memo of ``curve``."""
    return fd.CalCurve(curve.name, curve.cal_bp, curve.c14_age, curve.error)


def _per_date_reference(curve, dates, sd, rngs, n):
    """Ages and summary columns drawn one date at a time, one generator
    at a time, and calibrated one record at a time on a fresh copy of
    the curve."""
    ages = []
    for date, group in zip(dates, rngs):
        mu, sig = fd.curve_at(curve, date)
        scale = math.sqrt(sd * sd + sig * sig)
        for rng in group:
            ages += [round_half_away(x) for x in rng.normal(mu, scale, size=n).tolist()]
    fresh = _fresh_copy(curve)
    summaries = np.array([fd.posterior_summary(fresh, age, sd) for age in ages]).reshape(-1, 3)
    return np.array(ages, dtype=np.int64), *summaries.T


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(dates=st.lists(st.sampled_from([-290.0, -200.0, -120.5, -100.0, -35.0, 0.0, 15.0]),
                      min_size=1, max_size=5),
       per_date=st.integers(1, 3), group=st.integers(1, 4), sd=st.sampled_from([0.0, 20.0]),
       seed=st.integers(0, 2**40))
def test_commands_equal_the_per_date_draw(study_curve, dates, per_date, group, sd, seed):
    series = fd.generate_test_datasets(study_curve, dates, per_date, sd=sd, seed=seed,
                                       group_size=group)
    rngs = [[fd.substream(seed, di, k) for k in range(per_date)] for di in range(len(dates))]
    want = _per_date_reference(study_curve, dates, sd, rngs, group)
    got = (series.age, series.cal_mean, series.cal_median, series.cal_sigma)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
    # a table: one generator per slice of a one-year grid
    spec = fd.RefTableSpec("t", 1, group, sd, (-120.0, -120.0 + len(dates)), seed)
    table = fd.build_reference_table(study_curve, spec)
    want = _per_date_reference(study_curve, spec.slice_dates(), sd,
                               [[fd.substream(seed, si)] for si in range(spec.n_slices)], group)
    got = (table.age, table.cal_mean, table.cal_median, table.cal_sigma)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


# Seeds on both sides of each word-count boundary of numpy's entropy up
# to five 32-bit words (past the pool size of four), and any seed up to
# past 2^128.
SEEDS = st.one_of(
    st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**96 - 1, 2**96, 2**128 - 1,
                     2**128, 2**128 + 5, 2**160]),
    st.integers(0, 2**32),
    st.integers(0, 2**140),
)
KEY_WORDS = st.one_of(st.sampled_from([0, 1, 2**32 - 1]), st.integers(0, 2**32 - 1))
KEYS = st.integers(1, 2).flatmap(
    lambda width: st.lists(st.lists(KEY_WORDS, min_size=width, max_size=width),
                           min_size=1, max_size=6)
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(seed=SEEDS, keys=KEYS)
def test_substream_words_equal_numpy_seeding(seed, keys):
    """The one-pass words and their generators are numpy's own: a numpy
    that seeds differently fails here instead of moving the artifacts."""
    words = substream_words(seed, np.array(keys))
    assert words.shape == (len(keys), 4) and words.dtype == np.uint64
    for row, key in zip(words, keys):
        sequence = np.random.SeedSequence(seed, spawn_key=tuple(key))
        assert row.tolist() == sequence.generate_state(4, np.uint64).tolist()
        expected = np.random.Generator(np.random.PCG64(sequence)).normal(size=4).tolist()
        assert substream_from_words(row).normal(size=4).tolist() == expected
        assert fd.substream(seed, *key).normal(size=4).tolist() == expected


@pytest.mark.parametrize("key", [(2**32,), (0, 2**32), (-1, 0)])
def test_substream_words_reject_a_key_word_outside_32_bits(key):
    # numpy splits a word of 2^32 or more in two; the one-pass mixing
    # takes one word per key column
    with pytest.raises(ValueError, match=r"spawn key words must be in \[0, 2\^32\)"):
        substream_words(1, np.array([key]))
    with pytest.raises(ValueError, match="spawn key words"):
        fd.substream(1, *key)


def test_rounding_never_shifts_more_than_half():
    rng = np.random.default_rng(3)
    for x in rng.normal(2000, 50, 500):
        assert abs(round_half_away(float(x)) - x) <= 0.5


def same_series(a: fd.TestSeries, b: fd.TestSeries) -> bool:
    """Equal columns and offsets, NaN equal to NaN."""
    return all(
        np.array_equal(x, y, equal_nan=x.dtype == float)
        for x, y in zip((a.offsets, a.data_id, a.original_date, a.age, a.sd, a.cal_mean,
                         a.cal_median, a.cal_sigma),
                        (b.offsets, b.data_id, b.original_date, b.age, b.sd, b.cal_mean,
                         b.cal_median, b.cal_sigma))
    )


def test_generate_full_scale_shape(ts3_datasets):
    assert len(ts3_datasets) == 6100
    assert ts3_datasets.age.size == 18_300
    assert ts3_datasets.data_id.tolist() == list(range(1, 6101))


def test_generate_unit_case(study_curve):
    out = fd.generate_test_datasets(study_curve, [-75.0], 1, sd=20.0, seed=5)
    assert len(out) == 1
    assert out.offsets.tolist() == [0, 3]
    assert out.original_date.tolist() == [-75.0]
    assert (out.sd == 20.0).all()


def test_generate_seed_determinism(study_curve):
    dates = [-100.0, -50.0, 0.0]
    a = fd.generate_test_datasets(study_curve, dates, 2, sd=20.0, seed=9)
    b = fd.generate_test_datasets(study_curve, dates, 2, sd=20.0, seed=9)
    c = fd.generate_test_datasets(study_curve, dates, 2, sd=20.0, seed=10)
    assert same_series(a, b)
    assert sorted(a.age.tolist()) != sorted(c.age.tolist())


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
    assert same_series(back, datasets)


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
    age = np.array(draw_ages(study_curve, -100.0, 15.0, [fd.substream(3, 1)], 1))
    cal_mean, cal_median, cal_sigma = posterior_summaries(study_curve, age, 15.0)
    assert int(age[0]) == fd.r_simulate(study_curve, -100.0, 15.0, fd.substream(3, 1)).age
    cal = fd.calibrate(study_curve, fd.Measurement(int(age[0]), 15.0))
    assert cal_mean[0] == cal.mean
    assert cal_median[0] == cal.median
    assert cal_sigma[0] == cal.sigma


@pytest.mark.parametrize("sd", [-3.0, float("nan"), float("inf")])
def test_generate_rejects_negative_or_non_finite_sd(study_curve, sd):
    with pytest.raises(ValueError, match="sd must be finite and >= 0"):
        fd.generate_test_datasets(study_curve, [0.0], 1, sd=sd, seed=1)
