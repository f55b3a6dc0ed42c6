"""Simulated radiocarbon measurements for known calendar dates.

One simulation draws a radiocarbon age from a normal distribution
centered on the curve mean at the given date, with variance
``sd^2 + sigma_curve(date)^2``, rounds it to an integer BP (ties away
from zero) and summarizes the calibrated posterior of the rounded age.
Even with a nominal sd of zero the draws disperse by the curve error.

Each slice of a reference table and each test dataset is drawn, as one
array, from its own substream: a PCG64 generator seeded exactly as
``np.random.SeedSequence(seed, spawn_key=key)`` would seed it, so a seed
reproduces every artifact byte for byte.  The seed words of all of a
request's keys are computed in one vectorized pass
(:func:`substream_words`), which repeats the spawn-key mixing and state
generation of numpy's ``SeedSequence`` over every key at once; a test
compares it with numpy's own.

A command draws first and calibrates after: :func:`draw_ages_at` checks
every date against the curve's domain and interpolates the curve at all
of them at once, then draws each slice or dataset in turn, and one
:func:`~finedating.calcurve.posterior_summaries` call, through one
``np.unique``, calibrates each distinct age of the command once.  The
summaries of each distinct (age, sd) are also kept on the curve.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from . import csvio
from .calcurve import CalCurve, Measurement, check_sd, curve_at, parse_date, posterior_summaries

# The most simulated measurements one reference table or test series may
# hold, checked before anything is drawn: larger requests would exhaust
# memory long before they finished.
MAX_RECORDS = 10_000_000


@dataclass(frozen=True, eq=False)
class TestSeries:
    """Simulated test datasets as numpy columns.

    ``data_id`` and ``original_date`` hold one entry per dataset, the
    other columns one row per measurement, with the datasets back to
    back: dataset i holds rows ``offsets[i]:offsets[i + 1]``.
    ``original_date`` is the control value used later to score the
    dating result; it never feeds the indicator computation itself.
    ``age`` is int64; every ``sd`` is finite and >= 0
    (:func:`~finedating.calcurve.check_sd`); the calibration columns are
    NaN where unknown, as in converted exports.
    """

    __test__ = False  # not a pytest class

    data_id: np.ndarray
    original_date: np.ndarray
    age: np.ndarray
    sd: np.ndarray
    cal_mean: np.ndarray
    cal_median: np.ndarray
    cal_sigma: np.ndarray
    offsets: np.ndarray

    def __post_init__(self) -> None:
        bad = np.flatnonzero(~((self.sd >= 0) & (self.sd < math.inf)))
        if bad.size:
            dataset = np.searchsorted(self.offsets, bad[0], side="right") - 1
            raise ValueError(f"dataset {self.data_id[dataset]}: sd must be finite and >= 0, "
                             f"got {self.sd[bad[0]].item()!r}")

    def __len__(self) -> int:
        """The number of datasets."""
        return self.data_id.size

    def columns(self) -> tuple[np.ndarray, ...]:
        """The seven columns of the tests file, one row per measurement."""
        sizes = np.diff(self.offsets)
        return (np.repeat(self.data_id, sizes), np.repeat(self.original_date, sizes), self.age,
                self.sd, self.cal_mean, self.cal_median, self.cal_sigma)


def round_half_away(x: float) -> int:
    """Round to nearest integer, ties away from zero."""
    return int(math.copysign(math.floor(abs(x) + 0.5), x))


def draw_ages_at(
    curve: CalCurve, dates: list[float], sd: float, rngs, n: int
) -> np.ndarray:
    """``n`` integer radiocarbon ages from each generator of each date in
    turn, as one int64 array.

    ``rngs`` yields one list of generators per date, and is consumed as
    the dates are drawn, so a caller may build each date's generators
    only when they are needed.  Each generator gives one
    ``normal(size=n)`` array, the same values as ``n`` scalar draws;
    rounding is :func:`round_half_away` on the array.  Every date is
    checked against the curve's domain before anything is drawn, and an
    sd whose draw scale overflows, or whose rounded draws leave int64,
    is rejected before anything is returned.
    """
    check_sd(sd)
    mu, sig = curve_at(curve, dates)
    scale = np.sqrt(sd * sd + sig * sig)
    g = np.concatenate([rng.normal(m, s, size=n) for m, s, group
                        in zip(mu.tolist(), scale.tolist(), rngs) for rng in group])
    rounded = np.copysign(np.floor(np.abs(g) + 0.5), g)
    # an infinite scale draws inf or NaN, which fail the bounds too
    if not ((rounded >= -(2.0**63)) & (rounded < 2.0**63)).all():
        raise ValueError(
            f"sd {sd!r} is too large to simulate: the draw scale sqrt(sd^2 + curve error^2) "
            f"must be finite and every rounded draw must fit in a 64-bit integer"
        )
    return rounded.astype(np.int64)


def draw_ages(
    curve: CalCurve, date: float, sd: float, rngs: list[np.random.Generator], n: int
) -> list[int]:
    """Draw ``n`` integer radiocarbon ages for a calendar date from each
    generator in turn (:func:`draw_ages_at` of one date)."""
    return draw_ages_at(curve, [date], sd, [rngs], n).tolist()


def draw_age(curve: CalCurve, date: float, sd: float, rng: np.random.Generator) -> int:
    """Draw one integer radiocarbon age for a calendar date."""
    return draw_ages(curve, date, sd, [rng], 1)[0]


def r_simulate(
    curve: CalCurve, date: float, sd: float, rng: np.random.Generator
) -> Measurement:
    """Simulate one measurement of an object with a known calendar date."""
    return Measurement(age=draw_age(curve, date, sd, rng), sd=float(sd))


# Constants of numpy's SeedSequence (numpy/random/bit_generator.pyx): the
# hash that mixes entropy into the pool, the one that expands the pool
# into state words, and the mix of two words.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4


def _hash_steps(hash_const: int, mult: int, n: int) -> tuple[np.ndarray, np.ndarray, int]:
    """The constants of ``n`` successive steps of a SeedSequence hash from
    ``hash_const``: what each step xors in, what it multiplies by, and the
    constant the next step starts from."""
    xor, mul = np.empty(n, dtype=np.uint32), np.empty(n, dtype=np.uint32)
    for i in range(n):
        xor[i] = hash_const
        hash_const = hash_const * mult & 0xFFFFFFFF
        mul[i] = hash_const
    return xor, mul, hash_const


def _hash(words: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix and state output step over uint32 words."""
    value = (words ^ xor) * mul
    value ^= value >> 16
    return value


def substream_words(seed: int, keys) -> np.ndarray:
    """The PCG64 seed words of every spawn key of one seed, in one pass.

    ``keys`` is an ``(n, k)`` array of spawn keys.  Row i of the ``(n, 4)``
    uint64 result equals ``np.random.SeedSequence(seed,
    spawn_key=keys[i]).generate_state(4, np.uint64)``.  numpy mixes the
    seed into the base pool; the spawn-key words are then mixed into a
    copy of it per key, and the state is drawn from each pool, as numpy
    does one key at a time.  Every key word must be below 2^32: numpy
    would split a larger word in two, which the one-word-per-column
    mixing here does not.
    """
    seed = operator.index(seed)
    keys = np.asarray(keys, dtype=np.int64)
    if ((keys < 0) | (keys >= 2**32)).any():
        raise ValueError(f"spawn key words must be in [0, 2^32), got {keys.min()} to {keys.max()}")
    base = np.random.SeedSequence(seed).pool  # rejects a negative seed
    # The base pool took 4 hash steps to fill and 12 to mix, then 4 per
    # seed word past the pool size; the key words continue from there.
    seed_words = max(1, -(-seed.bit_length() // 32))
    hash_a = _INIT_A * pow(_MULT_A, 16 + _POOL_SIZE * max(0, seed_words - _POOL_SIZE), 2**32)
    hash_a &= 0xFFFFFFFF
    pool = np.tile(base, (keys.shape[0], 1))
    for column in keys.astype(np.uint32).T:
        xor, mul, hash_a = _hash_steps(hash_a, _MULT_A, _POOL_SIZE)
        mixed = _hash(column[:, None], xor, mul)
        pool = pool * np.uint32(_MIX_MULT_L) - mixed * np.uint32(_MIX_MULT_R)
        pool ^= pool >> 16
    # generate_state(4, np.uint64): 8 uint32 words cycling over the pool,
    # joined in pairs as little-endian words whatever the byte order
    xor, mul, _ = _hash_steps(_INIT_B, _MULT_B, 2 * _POOL_SIZE)
    state = _hash(np.tile(pool, 2), xor, mul)
    # a new C-contiguous array: PCG64 reads a row through its data pointer
    words = state[:, 1::2].astype(np.uint64)
    words <<= np.uint64(32)
    words |= state[:, 0::2]
    return words


@functools.cache
def _seed_words_type() -> type:
    """The ``ISeedSequence`` that hands PCG64 one substream's seed words.

    It is defined on first use: numpy imports ``numpy.random`` lazily,
    and a command that draws nothing (``finedate``, ``evaluate``,
    ``lookup``) should not pay for that import.
    """
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words  # PCG64 asks for (4, np.uint64)

    return SeedWords


def substream_from_words(words: np.ndarray) -> np.random.Generator:
    """The generator of one row of :func:`substream_words`."""
    return np.random.Generator(np.random.PCG64(_seed_words_type()(words)))


def substream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for a (seed, index...) coordinate: the one
    ``np.random.SeedSequence(seed, spawn_key=key)`` seeds."""
    return substream_from_words(substream_words(seed, [key])[0])


def generate_test_datasets(
    curve: CalCurve,
    dates: list[float],
    datasets_per_date: int,
    sd: float,
    seed: int,
    group_size: int = 3,
) -> TestSeries:
    """Clusters of simulated measurements for every requested date.

    For each date, ``datasets_per_date`` datasets of ``group_size``
    measurements are drawn, each from the substream keyed by (date
    index, dataset index); ids are dense in date-major order.
    """
    if not dates:
        raise ValueError("no dates")
    if datasets_per_date < 1:
        raise ValueError(f"datasets_per_date must be >= 1, got {datasets_per_date}")
    if group_size < 1:
        raise ValueError(f"group_size must be >= 1, got {group_size}")
    check_sd(sd)
    n_records = len(dates) * datasets_per_date * group_size
    if n_records > MAX_RECORDS:
        raise ValueError(
            f"{len(dates)} dates x {datasets_per_date} datasets x {group_size} measurements "
            f"give {n_records} records, more than the {MAX_RECORDS} allowed"
        )

    # keys (date index, dataset index), date-major
    words = substream_words(seed, np.indices((len(dates), datasets_per_date)).reshape(2, -1).T)
    words = words.reshape(len(dates), datasets_per_date, 4)
    # generators are built one date at a time: a date's draws need only its own
    age = draw_ages_at(curve, dates, sd, ([substream_from_words(w) for w in date_words]
                                          for date_words in words), group_size)
    # calibrated before the other columns exist, which would add to its peak
    summaries = posterior_summaries(curve, age, sd)
    n = len(dates) * datasets_per_date
    return TestSeries(
        np.arange(1, n + 1), np.repeat(np.asarray(dates, dtype=float), datasets_per_date),
        age, np.full(age.size, float(sd)), *summaries,
        np.arange(0, age.size + 1, group_size),
    )


TEST_SCHEMA = dict(
    data_id=int, original_cal_date=float, age_bp=int, sd=float,
    cal_mean=csvio.parse_float, cal_median=csvio.parse_float, cal_sigma=csvio.parse_float,
)


def write_tests(series: TestSeries, path, extra_header: dict | None = None,
                texts: list[tuple] = ()) -> None:
    """Write test datasets as CSV, one row per measurement, with headers
    that count the datasets and the rows; ``texts`` are written with it
    (:func:`csvio.write_artifacts`)."""
    header = {"format": "finedating-tests", "datasets": len(series), "rows": series.age.size}
    if extra_header:
        header.update(extra_header)
    csvio.write_artifact(path, header, dict(zip(TEST_SCHEMA, series.columns())), texts=texts)


def read_tests(path) -> TestSeries:
    """Read datasets written by :func:`write_tests` (blank calibration
    cells, as in converted exports, become NaN).

    The rows of one ``data_id`` form one dataset, in file order; datasets
    are ordered by their first row.  All rows of a dataset must share its
    original date and sd, every sd must be finite and >= 0, and
    ``datasets`` and ``rows`` headers must count the datasets and the
    rows.
    """
    meta, _, columns = csvio.read_commented_csv(path, "finedating-tests", TEST_SCHEMA)
    _, first, dataset = np.unique(columns["data_id"], return_index=True, return_inverse=True)
    dataset = np.argsort(np.argsort(first))[dataset]  # numbered by first appearance
    order = np.argsort(dataset, kind="stable")
    data_id, date, age, sd, *cal = (column[order] for column in columns.values())
    sizes = np.bincount(dataset, minlength=first.size)
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    csvio.check_count(meta, "datasets", first.size, path)
    csvio.check_count(meta, "rows", age.size, path)
    try:
        series = TestSeries(data_id[offsets[:-1]], date[offsets[:-1]], age, sd, *cal, offsets)
    except ValueError as exc:
        raise ValueError(f"{exc} in {path}") from None
    lead = np.repeat(offsets[:-1], sizes)  # each row's dataset's first row
    mixed = np.flatnonzero((date != date[lead]) | (sd != sd[lead]))
    if mixed.size:
        raise ValueError(f"dataset {data_id[mixed[0]]} mixes original dates or sds in {path}")
    return series


_EXPORT_ALIASES = {
    "cal_date": ("cal_date", "caldate", "original_cal_date", "date", "calendar_date"),
    "age": ("age", "age_bp", "c14_age", "14c_age", "value"),
    "sd": ("sd", "error", "sigma", "uncertainty"),
}


def convert_rsim_to_tests(
    path, group_size: int = 3
) -> tuple[TestSeries, list[tuple[float, float, int]]]:
    """Group exported simulation rows (cal_date, age, sd) into
    consecutive clusters of ``group_size`` sharing one calendar date and
    one sd, as :func:`read_tests` requires of a dataset.  The (date, sd)
    groups keep the order of their first row.

    Returns (series, leftovers) where leftovers lists (date, sd, count)
    of trailing rows that did not fill a full group.
    """
    if group_size < 1:
        raise ValueError(f"group_size must be >= 1, got {group_size}")
    _, columns, rows = csvio.read_commented_csv(path)
    ci, ai, si = csvio.find_columns(path, columns, _EXPORT_ALIASES)
    by_key: dict[tuple[float, float], list[int]] = {}
    for lineno, cells in enumerate(rows, start=1):
        try:
            date = parse_date(cells[ci])
            age = int(round(float(cells[ai])))
            if not -(2**63) <= age < 2**63:
                raise OverflowError
            sd = float(cells[si])
            check_sd(sd)
        except (ValueError, OverflowError):
            raise ValueError(f"malformed row {lineno} in {path}: {cells}") from None
        by_key.setdefault((date, sd), []).append(age)

    dates: list[float] = []
    ages: list[int] = []
    sds: list[float] = []
    leftovers: list[tuple[float, float, int]] = []
    for (date, sd), entries in by_key.items():
        n_full, rest = divmod(len(entries), group_size)
        dates += [date] * n_full
        ages += entries[: len(entries) - rest]
        sds += [sd] * (n_full * group_size)
        if rest:
            leftovers.append((date, sd, rest))
    nan = np.full(len(ages), math.nan)
    series = TestSeries(
        np.arange(1, len(dates) + 1), np.array(dates, dtype=float),
        np.array(ages, dtype=np.int64), np.array(sds, dtype=float), nan, nan, nan,
        np.arange(0, len(ages) + 1, group_size),
    )
    return series, leftovers
