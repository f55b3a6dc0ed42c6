"""Quality assessment of fine-dating results.

Covers the tolerance-grown most-probable-date search against indicator
reference pools, signed deltas against known original dates and their
quality categories, per-date performance fractions for the three
indicator families, average-deviation tables, omnibus and
Anderson-Darling normality checks, and Rice-rule histogram utilities.
Outputs are numpy columns or plain rows, ready for CSV emission; nothing
here draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import csvio
from .finedate import FAMILIES, INDICATOR_NAMES, batch_indicators, normalize_indicator, pool_blocks
from .reftable import RefTable, match_ages
from .simulate import TestSeries


class DeltaCategory(str, Enum):
    """Quality class of an absolute deviation, boundary to the better class."""

    EXCELLENT = "excellent"
    HIGH_QUALITY = "high_quality"
    SATISFACTORY = "satisfactory"
    IMPROVABLE = "improvable"


# Inclusive upper bounds of |delta| for the first three categories.
_DELTA_BOUNDS = (10.0, 25.0, 35.0)
_CATEGORIES = tuple(DeltaCategory)
NO_MATCH = "no_match"
# The names of the category codes: the categories in order, then NO_MATCH.
_CATEGORY_NAMES = np.array([*(c.value for c in _CATEGORIES), NO_MATCH], dtype=object)
_INDICATOR_NAMES = np.array(INDICATOR_NAMES, dtype=object)
_CATEGORY_NAMES.flags.writeable = _INDICATOR_NAMES.flags.writeable = False


def classify_delta(delta: float) -> DeltaCategory:
    """Category of a signed deviation in years; depends only on |delta|."""
    return _CATEGORIES[int(np.searchsorted(_DELTA_BOUNDS, abs(delta)))]


def _category_codes(deltas: np.ndarray) -> np.ndarray:
    """:func:`classify_delta` of an array of deltas, as indices into
    ``_CATEGORY_NAMES`` (NaN is improvable)."""
    return np.searchsorted(_DELTA_BOUNDS, np.abs(deltas))


# The tolerance schedule of every MPD search: +-1 to +-10 years in steps
# of 1, grown until M_MIN pool values match.
TOL_START = 1.0
TOL_STEP = 1.0
TOL_MAX = 10.0
M_MIN = 5


class MPDResult(NamedTuple):
    """Outcome of one tolerance-grown mode search."""

    indicator: str
    value: float
    tolerance: float
    match_count: int
    mpd: float
    value_range: float
    under_min: bool
    delta: float | None = None


def matches_within(pool: list[float] | np.ndarray, value: float, tol: float) -> np.ndarray:
    """Pool entries within +-tol of value (multiset, original multiplicity)."""
    arr = np.asarray(pool, dtype=float)
    return arr[np.abs(arr - value) <= tol]


def mpd_search(
    pool: list[float] | np.ndarray,
    value: float,
    indicator: str = "",
    original_date: float | None = None,
) -> MPDResult:
    """Grow the tolerance from ``TOL_START`` by ``TOL_STEP`` until at
    least ``M_MIN`` pool values fall within it (or ``TOL_MAX`` is
    reached), then report the mode.

    Mode ties break toward the value closest to the query, then toward
    the older date.  One to M_MIN-1 matches at TOL_MAX are returned with
    ``under_min`` set; zero matches at TOL_MAX is an error.  This is
    :func:`mpd_searches` run on one query.
    """
    arr = np.asarray(pool, dtype=float)
    if arr.size == 0:
        raise ValueError("empty reference pool")
    tol, count, mpd, value_range = mpd_searches(arr, np.array([value], dtype=float))
    mpd = float(mpd[0])
    return MPDResult(
        indicator=indicator,
        value=float(value),
        tolerance=float(tol[0]),
        match_count=int(count[0]),
        mpd=mpd,
        value_range=float(value_range[0]),
        under_min=bool(count[0] < M_MIN),
        delta=None if original_date is None else mpd - original_date,
    )


def mpd_searches(
    pool: np.ndarray, queries: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The tolerance-grown mode search of :func:`mpd_search` for every
    query against one non-empty pool, in one pass.

    The pool is sorted and run-length encoded once, and each distinct
    query value is answered once; a self-search (``queries is pool``, as
    in :func:`mpd_report`) takes both from one sort.  A window
    ``[q - tol, q + tol]`` never splits a run of equal values, so it is a
    range of runs, found by ``searchsorted``; the tolerance grows only for
    the queries still short of ``M_MIN``.  The mode is the run with the highest count, then
    closest to the query, then older: :func:`_window_modes` finds it with
    a range-maximum table of the run counts.  Returns (tolerance, match
    count, mode, value range) per query.
    """
    if queries is pool:  # a self-search: the runs are the distinct queries
        runs, of_query, counts = np.unique(pool, return_inverse=True, return_counts=True)
        values = runs
    else:
        runs, counts = np.unique(pool, return_counts=True)
        values, of_query = np.unique(queries, return_inverse=True)
    cum = np.concatenate(([0], np.cumsum(counts)))
    tol = np.full(values.size, TOL_START)
    lo = np.searchsorted(runs, values - TOL_START, side="left")
    hi = np.searchsorted(runs, values + TOL_START, side="right")
    short = np.flatnonzero(cum[hi] - cum[lo] < M_MIN)
    step = TOL_START
    while short.size and step < TOL_MAX:
        step = min(step + TOL_STEP, TOL_MAX)
        q = values[short]
        lo[short] = np.searchsorted(runs, q - step, side="left")
        hi[short] = np.searchsorted(runs, q + step, side="right")
        tol[short] = step
        short = short[cum[hi[short]] - cum[lo[short]] < M_MIN]
    match_count = cum[hi] - cum[lo]
    if not match_count.all():
        empty = np.flatnonzero(match_count[of_query] == 0)
        raise ValueError(
            "no reference values within tolerance: nothing within "
            f"+-{TOL_MAX:g} of {queries[empty[0]]:g}"
        )
    best = _window_modes(runs, counts, values, lo, hi)
    return (tol[of_query], match_count[of_query], runs[best][of_query],
            (runs[hi - 1] - runs[lo])[of_query])


def _window_modes(runs: np.ndarray, counts: np.ndarray, queries: np.ndarray,
                  lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The mode of each non-empty window ``[lo, hi)`` of runs: the run
    with the highest count, then closest to the query, then older.

    Row j of the table holds the highest count of each 2**j consecutive
    runs.  A window's highest count is the larger of two entries of one
    row.  The nearest run with that count on each side of the query is
    found by skipping, row by row from the top, the blocks that fall
    short of it.
    """
    if not queries.size:
        return lo
    levels = int((hi - lo).max()).bit_length()
    # one column to spare: the rightward skip reads column runs.size
    table = np.zeros((levels, runs.size + 1), dtype=counts.dtype)
    table[0, :-1] = counts
    for j in range(1, levels):
        half = 1 << (j - 1)
        n = runs.size - 2 * half + 1
        np.maximum(table[j - 1, :n], table[j - 1, half : half + n], out=table[j, :n])
    k = np.frexp(hi - lo)[1] - 1  # floor(log2(width))
    top = np.maximum(table[k, lo], table[k, hi - (1 << k)])
    left = np.searchsorted(runs, queries, side="left")  # runs[:left] < query <= runs[left:]
    right = left.copy()
    for j in reversed(range(levels)):
        step = 1 << j
        skip = (left - step >= lo) & (table[j, left - step] < top)
        np.subtract(left, step, out=left, where=skip)
        skip = (right + step <= hi) & (table[j, right] < top)
        np.add(right, step, out=right, where=skip)
    near = left - 1  # the nearest mode on the left, if left > lo
    dist = np.abs(runs[near] - queries)
    right_dist = np.abs(runs[np.minimum(right, hi - 1)] - queries)  # if right < hi
    take_right = (left == lo) | ((right < hi) & (right_dist < dist))
    best = np.where(take_right, right, near)
    # Older runs may round to the same distance as the nearest on the left
    # (0.0 and 5e-324 from 3.0, say); then the oldest such mode wins.
    tied = np.flatnonzero(~take_right & (near > lo))
    tied = tied[np.abs(runs[near[tied] - 1] - queries[tied]) == dist[tied]]
    for t in tied.tolist():
        window = slice(lo[t], near[t] + 1)
        modes = (counts[window] == top[t]) & (np.abs(runs[window] - queries[t]) == dist[t])
        best[t] = lo[t] + np.argmax(modes)
    return best


def overall_aggregate(mpds) -> tuple[float, float]:
    """(mean, median) of the most probable dates."""
    mpds = np.asarray(mpds, dtype=float)
    if not mpds.size:
        raise ValueError("no MPD results to aggregate")
    return float(np.mean(mpds)), float(np.median(mpds))


@dataclass(frozen=True, eq=False)
class EvalColumns:
    """Evaluation rows in long form as numpy columns: one row per
    indicator of each evaluated dataset.

    The two label columns are held as :class:`csvio.Labels`, integer
    codes into their distinct names (``indicator_labels``,
    ``category_labels``), which the analyses and the writer take.  Each
    may be given so, as :func:`evaluate_test_series` and
    :func:`read_eval_rows` give them, or as an object array of str, which
    is factorized once, here.  ``indicator`` and ``category`` are the two
    as object arrays, made on each read.  A row without a value (its
    dataset matched nothing) holds NaN ``value`` and ``delta``, category
    ``no_match`` and ``n_matches`` 0.  ``len`` is the row count, and
    indexing selects rows: ``rows[:12]``, ``rows[mask]``.
    """

    data_id: np.ndarray
    original_date: np.ndarray
    indicator_labels: csvio.Labels
    value: np.ndarray
    delta: np.ndarray
    category_labels: csvio.Labels
    n_matches: np.ndarray

    def __post_init__(self) -> None:
        for name in ("indicator_labels", "category_labels"):
            if not isinstance(getattr(self, name), csvio.Labels):
                object.__setattr__(self, name, csvio.Labels.of(getattr(self, name)))

    @property
    def indicator(self) -> np.ndarray:
        return self.indicator_labels.cells()

    @property
    def category(self) -> np.ndarray:
        return self.category_labels.cells()

    def __len__(self) -> int:
        return self.data_id.size

    def __getitem__(self, rows) -> EvalColumns:
        return EvalColumns(*(getattr(self, f.name)[rows] for f in fields(self)))

    def columns(self) -> tuple[np.ndarray, ...]:
        """The seven columns, in file order, the label columns as object
        arrays."""
        return (self.data_id, self.original_date, self.indicator, self.value, self.delta,
                self.category, self.n_matches)


def evaluate_test_series(table: RefTable, series: TestSeries) -> EvalColumns:
    """Fine-date every dataset against the table and score each of the
    twelve indicators against the known original date.

    All datasets are matched and aggregated in one batch
    (:func:`~finedating.finedate.batch_indicators`); each value is
    that of :func:`~finedating.finedate.compute_indicators` on the
    dataset alone.  A dataset without any match yields rows of category
    ``no_match`` without a value.
    """
    values, n_prime = batch_indicators(table, series.age, np.diff(series.offsets))
    matched = n_prime > 0
    k = len(INDICATOR_NAMES)
    value = np.full((len(series), k), math.nan)
    value[matched] = values
    delta = value - series.original_date[:, None]
    category = np.where(matched[:, None], _category_codes(delta), len(_CATEGORIES))
    return EvalColumns(
        np.repeat(series.data_id, k), np.repeat(series.original_date, k),
        csvio.Labels(np.tile(np.arange(k), len(series)), _INDICATOR_NAMES),
        value.ravel(), delta.ravel(), csvio.Labels(category.ravel(), _CATEGORY_NAMES),
        np.repeat(n_prime, k),
    )


def _last_rows(keys: np.ndarray, n_keys: int) -> np.ndarray:
    """Index of the last row holding each key, -1 where none does."""
    last = np.full(n_keys, -1, dtype=np.int64)
    np.maximum.at(last, keys, np.arange(keys.size))
    return last


def _group_means(keys: np.ndarray, values: np.ndarray) -> tuple[list, list[float]]:
    """The distinct keys in ascending order, and ``np.mean`` of each key's
    values in row order, bit for bit."""
    distinct, sizes = np.unique(keys, return_counts=True)
    grouped = values[np.argsort(keys, kind="stable")]
    means = np.empty(sizes.size)
    for groups, block in pool_blocks(grouped, sizes):
        means[groups] = block.mean(axis=1)
    return distinct.tolist(), means.tolist()


def performance_curves(rows: EvalColumns, threshold: float) -> list[tuple[float, str, float]]:
    """Per-date success fraction of the three indicator families.

    A dataset succeeds for a family when the mean of its four absolute
    indicator deltas is at or below the threshold; unmatched datasets
    count as failures.  Returns (date, family, fraction) sorted by date.
    A dataset's date and each of its indicator rows are the last given.
    """
    if threshold not in (25.0, 35.0, 25, 35):
        raise ValueError(f"unsupported threshold {threshold!r}: use 25 or 35")
    if not len(rows):
        return []
    slot = {name: k for k, name in enumerate(n for names in FAMILIES.values() for n in names)}
    ids, dataset = np.unique(rows.data_id, return_inverse=True)
    dates = rows.original_date[_last_rows(dataset, ids.size)]
    member = rows.indicator_labels.map(lambda name: slot.get(name, -1))
    is_member = member >= 0
    cell = _last_rows(dataset[is_member] * len(slot) + member[is_member], ids.size * len(slot))
    # a (dataset, member) cell without a row reads the appended NaN: a failure
    deltas = np.append(rows.delta[is_member], math.nan)[cell]
    score = np.abs(deltas.reshape(ids.size, len(FAMILIES), -1)).mean(axis=2)
    success = score <= threshold
    by_date, date_of = np.unique(dates, return_inverse=True)
    totals = np.bincount(date_of, minlength=by_date.size).tolist()
    hits = [np.bincount(date_of, weights=success[:, f], minlength=by_date.size).astype(int).tolist()
            for f in range(len(FAMILIES))]
    return [
        (date, family, hits[f][d] / totals[d])
        for d, date in enumerate(by_date.tolist())
        for f, family in enumerate(FAMILIES)
    ]


def average_deviation_analysis(
    rows: EvalColumns,
) -> tuple[dict[tuple[float, str], float], dict[str, float]]:
    """Signed mean delta per (original date, indicator) and over the
    full span, over the rows that have a delta.  Values are unrounded;
    round only for display."""
    if not len(rows):
        raise ValueError("no evaluation rows")
    scored = rows[~np.isnan(rows.delta)]
    labels = scored.indicator_labels
    used = np.flatnonzero(np.bincount(labels.codes, minlength=labels.names.size))
    names = sorted(labels.names[used].tolist())
    rank = {name: k for k, name in enumerate(names)}
    name_of = labels.map(lambda name: rank.get(name, -1))
    dates, date_of = np.unique(scored.original_date, return_inverse=True)
    # key order is (date, indicator name) order
    keys, means = _group_means(date_of * len(names) + name_of, scored.delta)
    per_date = {(dates[k // len(names)].item(), names[k % len(names)]): mean
                for k, mean in zip(keys, means)}
    keys, means = _group_means(name_of, scored.delta)
    totals = {names[k]: mean for k, mean in zip(keys, means)}
    return per_date, {name: totals.get(name, math.nan) for name in INDICATOR_NAMES}


def category_fractions(rows: EvalColumns) -> dict[str, float]:
    """Fraction of matched indicator evaluations per quality category."""
    matched = rows.category[rows.category != NO_MATCH]
    if not matched.size:
        raise ValueError("no matched evaluation rows")
    return {cat.value: int(np.count_nonzero(matched == cat.value)) / matched.size
            for cat in DeltaCategory}


@dataclass(frozen=True)
class NormalityResult:
    test_name: str
    statistic: float
    p_value: float | None
    n: int


def dagostino_pearson(sample) -> NormalityResult:
    """Omnibus normality test combining transformed skewness and
    kurtosis z-scores; p from chi-square with 2 degrees of freedom,
    whose upper tail is exactly ``exp(-k2/2)``.

    Requires n >= 20, the validity floor of the kurtosis transform, and
    a sample that is not constant.
    """
    x = np.asarray(sample, dtype=float)
    n = x.size
    if n < 20:
        raise ValueError(f"sample too small for omnibus test: n={n} < 20")
    if x.min() == x.max():
        raise ValueError("zero variance sample")
    zs = _skewness_z(x)
    zk = _kurtosis_z(x)
    k2 = zs * zs + zk * zk
    p = math.exp(-k2 / 2)
    return NormalityResult(test_name="dagostino_pearson", statistic=float(k2), p_value=p, n=n)


def _skewness_z(x: np.ndarray) -> float:
    # transformation of sample skewness to an approximate standard normal
    n = x.size
    m = x.mean()
    m2 = ((x - m) ** 2).mean()
    m3 = ((x - m) ** 3).mean()
    b1 = m3 / m2 ** 1.5
    y = b1 * math.sqrt((n + 1) * (n + 3) / (6.0 * (n - 2)))
    beta2 = (
        3.0
        * (n * n + 27 * n - 70)
        * (n + 1)
        * (n + 3)
        / ((n - 2.0) * (n + 5) * (n + 7) * (n + 9))
    )
    w2 = -1.0 + math.sqrt(2.0 * (beta2 - 1.0))
    delta = 1.0 / math.sqrt(0.5 * math.log(w2))
    alpha = math.sqrt(2.0 / (w2 - 1.0))
    return delta * math.log(y / alpha + math.sqrt((y / alpha) ** 2 + 1.0))


def _kurtosis_z(x: np.ndarray) -> float:
    # transformation of sample kurtosis to an approximate standard normal
    n = x.size
    m = x.mean()
    m2 = ((x - m) ** 2).mean()
    m4 = ((x - m) ** 4).mean()
    b2 = m4 / (m2 * m2)
    e = 3.0 * (n - 1) / (n + 1)
    var = 24.0 * n * (n - 2) * (n - 3) / ((n + 1) ** 2 * (n + 3) * (n + 5))
    xx = (b2 - e) / math.sqrt(var)
    beta1 = (
        6.0
        * (n * n - 5 * n + 2)
        / ((n + 7.0) * (n + 9))
        * math.sqrt(6.0 * (n + 3) * (n + 5) / (n * (n - 2.0) * (n - 3)))
    )
    a = 6.0 + 8.0 / beta1 * (2.0 / beta1 + math.sqrt(1.0 + 4.0 / (beta1 * beta1)))
    term1 = 1.0 - 2.0 / (9.0 * a)
    denom = 1.0 + xx * math.sqrt(2.0 / (a - 4.0))
    term2 = math.copysign(abs((1.0 - 2.0 / a) / abs(denom)) ** (1.0 / 3.0), denom)
    return (term1 - term2) / math.sqrt(2.0 / (9.0 * a))


def anderson_darling(sample) -> NormalityResult:
    """Anderson-Darling statistic for normality with estimated mean and
    variance, including the small-sample correction
    ``A*^2 = A^2 (1 + 0.75/n + 2.25/n^2)``.  Statistic only, no p-value.

    Reference points for A*^2 (normality, estimated parameters):
    1.035 rejects at the 1% level, 0.752 at 5%.

    The normal CDF is :func:`_ndtr`, a port of the Cephes ``ndtr`` of
    ``scipy.special``, equal to it bit for bit.  ``0.5 * erfc(-z /
    sqrt(2))`` is as accurate but differs in the last bits, and those
    reach the written statistic, whose bytes are pinned.
    """
    z = _standardized(sample)
    return NormalityResult(test_name="anderson_darling", statistic=_a2_star(_ndtr(z)),
                           p_value=None, n=z.size)


def _standardized(sample) -> np.ndarray:
    """The sorted sample in units of its standard deviation from its
    mean, for :func:`anderson_darling`: at least 8 values, not constant."""
    x = np.sort(np.asarray(sample, dtype=float))
    n = x.size
    if n < 8:
        raise ValueError(f"sample too small for Anderson-Darling test: n={n} < 8")
    s = x.std(ddof=1)
    if s == 0:
        raise ValueError("zero variance sample")
    return (x - x.mean()) / s


def _a2_star(cdf: np.ndarray) -> float:
    """A*^2 of a sorted standardized sample from its normal CDF values."""
    n = cdf.size
    eps = np.finfo(float).tiny
    cdf = np.clip(cdf, eps, 1 - 1e-16)
    i = np.arange(1, n + 1)
    a2 = -n - np.mean((2 * i - 1) * (np.log(cdf) + np.log1p(-cdf[::-1])))
    return float(a2 * (1.0 + 0.75 / n + 2.25 / (n * n)))


# Cephes ``ndtr``/``erf``/``erfc`` as scipy.special ships them, with
# their coefficient tables: polynomials by Horner's rule with a separate
# multiply and add, libm ``exp`` (``math.exp``; ``np.exp`` differs in the
# last bit), and erfc set to 0 once ``-x*x < -MAXLOG``.
_NDTR_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_NDTR_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_NDTR_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_NDTR_S = (2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_NDTR_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
           7.00332514112805075473e3, 5.55923013010394962768e4)
_NDTR_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
           2.26290000613890934246e4, 4.92673942608635921086e4)
_MAXLOG = 7.09782712893383996843e2
_SQRT1_2 = 7.07106781186547524401e-1


def _polevl(x: np.ndarray, coefs: tuple[float, ...], monic: bool = False) -> np.ndarray:
    # Cephes polevl, or p1evl if monic (a leading coefficient of 1, not stored)
    y = x + coefs[0] if monic else x * coefs[0] + coefs[1]
    for c in coefs[1 if monic else 2:]:
        y *= x
        y += c
    return y


def _ndtr(z: np.ndarray) -> np.ndarray:
    """Standard normal CDF, equal bit for bit to ``scipy.special.ndtr``."""
    x = z * _SQRT1_2
    ax = np.abs(x)
    out = np.empty_like(x)
    inner = ax < 1.0  # 0.5 + 0.5 * erf(x)
    xi = x[inner]
    s = xi * xi
    y = xi * _polevl(s, _NDTR_T)
    y /= _polevl(s, _NDTR_U, monic=True)
    y *= 0.5
    y += 0.5
    out[inner] = y
    outer = ~inner  # 0.5 * erfc(|x|), reflected for x > 0; NaN goes here
    xo = np.minimum(ax[outer], 40.0)  # beyond 40, erfc is 0 and x*x could overflow
    e = -xo * xo
    p = _polevl(xo, _NDTR_P)
    q = _polevl(xo, _NDTR_Q, monic=True)
    far = xo >= 8.0
    if far.any():
        p[far] = _polevl(xo[far], _NDTR_R)
        q[far] = _polevl(xo[far], _NDTR_S, monic=True)
    half = np.fromiter(map(math.exp, e.tolist()), float, count=e.size)
    half *= p
    half /= q
    half[e < -_MAXLOG] = 0.0
    half *= 0.5
    out[outer] = np.where(x[outer] > 0, 1.0 - half, half)
    return out


def rice_bins(n: int) -> int:
    """Rice rule bin count: ceil(2 * n^(1/3))."""
    if n < 1:
        raise ValueError(f"need at least one sample, got n={n}")
    return int(math.ceil(2.0 * n ** (1.0 / 3.0) - 1e-9))


def select_values(path, *names: str) -> list[list[float]]:
    """The numeric cells of each of one or two named columns of a CSV,
    read once.  In a file with ``indicator`` and ``value`` columns, an
    indicator name selects the values of that indicator's rows, and a
    plain column paired with an indicator name (the other of two) takes
    its cells from the same rows.  A selected cell that is not a number
    fails as the line reader fails it: the error names the first such
    cell of its column in the file, by line and column."""
    _, columns, body = csvio.read_commented_csv(path)
    by_indicator = "indicator" in columns and "value" in columns
    selections = []
    for column, paired in zip(names, reversed(names)):
        name = _indicator_or_none(column) if by_indicator else None
        if name is not None:
            column = "value"
        elif column not in columns:
            raise ValueError(f"no column {column!r} in {path}; columns are {columns}")
        elif by_indicator and paired not in columns:
            name = _indicator_or_none(paired)
        rows = body
        if name is not None:
            ii = columns.index("indicator")
            rows = [cells for cells in body if cells[ii] == name]
        ci = columns.index(column)
        try:
            selections.append([float(cells[ci]) for cells in rows if cells[ci]])
        except ValueError:
            csvio.reject_cell(path, [(col, csvio.parse_float if j == ci else str.strip)
                                     for j, col in enumerate(columns)])
            raise
        if not selections[-1]:
            raise ValueError(f"no numeric values for {column!r} in {path}")
    return selections


def _indicator_or_none(name: str) -> str | None:
    try:
        return normalize_indicator(name)
    except ValueError:
        return None


def histogram(sample, bins: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Equal-width histogram over [min, max]; right-open bins except the
    last; bin count defaults to the Rice rule.  Returns (edges, counts)."""
    x = np.asarray(sample, dtype=float)
    if x.size == 0:
        raise ValueError("empty sample")
    nbins = rice_bins(x.size) if bins is None else int(bins)
    if nbins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    lo, hi = float(x.min()), float(x.max())
    if lo == hi:
        # degenerate constant sample: one bin holding everything
        return np.array([lo, hi]), np.array([x.size])
    counts, edges = np.histogram(x, bins=nbins, range=(lo, hi))
    return edges, counts


def mpd_report(rows: EvalColumns) -> dict[str, np.ndarray]:
    """Run the tolerance search for every evaluated indicator value,
    using the same indicator's values over all datasets as the
    reference pool.  Rows without a value are skipped.  Each pool is
    searched in one pass by :func:`mpd_searches`, on the one tolerance
    schedule of every MPD search (``TOL_START`` to ``TOL_MAX`` years in
    steps of ``TOL_STEP``, until ``M_MIN`` values match).

    Returns the columns of ``mpd_report.csv`` by name, one entry per
    searched row, in row order.
    """
    report = _mpd_report(rows)
    return {**report, "indicator": report["indicator"].cells()}


def _mpd_report(rows: EvalColumns) -> dict[str, np.ndarray | csvio.Labels]:
    """:func:`mpd_report` of the rows, its indicator as :class:`csvio.Labels`."""
    searched = rows[~np.isnan(rows.value)]
    n = len(searched)
    codes = searched.indicator_labels.codes
    tol = np.empty(n)
    count = np.empty(n, dtype=np.int64)
    mpd = np.empty(n)
    value_range = np.empty(n)
    for k in searched.indicator_labels.first_seen().tolist():
        members = np.flatnonzero(codes == k)
        pool = searched.value[members]
        tol[members], count[members], mpd[members], value_range[members] = mpd_searches(pool, pool)
    return {
        "data_id": searched.data_id,
        "original_cal_date": searched.original_date,
        "indicator": searched.indicator_labels,
        "value": searched.value,
        "tolerance": tol,
        "match_count": count,
        "under_min": count < M_MIN,
        "mpd": mpd,
        "range": value_range,
        "delta": mpd - searched.original_date,
    }


EVAL_SCHEMA = {
    "data_id": int,
    "original_cal_date": float,
    "indicator": str.strip,
    "value": csvio.parse_float,
    "delta": csvio.parse_float,
    "category": str.strip,
    "n_matches": int,
}


def write_eval_rows(rows: EvalColumns, path, extra_header: dict | None = None) -> None:
    csvio.write_artifact(*_eval_artifact(rows, path, extra_header))


def _eval_artifact(rows: EvalColumns, path, extra_header: dict | None) -> tuple:
    """The ``(path, header, columns, extra)`` of an ``eval_long.csv``."""
    header = {"format": "finedating-eval", "rows": len(rows)}
    if extra_header:
        header.update(extra_header)
    columns = dict(zip(EVAL_SCHEMA, (getattr(rows, f.name) for f in fields(rows))))
    return path, header, columns, None


def read_eval_rows(path) -> EvalColumns:
    """Read rows written by :func:`write_eval_rows`; a ``rows`` header
    must count them."""
    meta, _, columns = csvio.read_commented_csv(path, "finedating-eval", EVAL_SCHEMA)
    rows = EvalColumns(*columns.values())
    csvio.check_count(meta, "rows", len(rows), path)
    return rows


@dataclass(frozen=True)
class IntervalNormality:
    """Per-interval dispersion diagnostics of a test series.

    Statistics are None when an interval is too small (or degenerate)
    for the respective test.
    """

    original_date: float
    n_ages: int
    ages_statistic: float | None
    ages_p_value: float | None
    n_matched_dates: int
    matched_dates_statistic: float | None


# _ndtr takes the intervals' values this many at a time, so that its
# dozen temporaries stay small: over all of ts3's 250k values at once
# they are 2 MB each, mapped afresh on every call, and the pass runs
# 1.8x slower than in these blocks.
_NDTR_BLOCK = 16384


def interval_normality(table: RefTable, series: TestSeries) -> list[IntervalNormality]:
    """For each original date: the omnibus test over all simulated ages
    and the Anderson-Darling statistic over the pooled matched calendar
    dates.  Each statistic is that of :func:`dagostino_pearson` or
    :func:`anderson_darling` on the interval alone; the normal CDF of
    the standardized dates of all intervals is taken together, in blocks
    of ``_NDTR_BLOCK`` values."""
    dates = np.repeat(series.original_date, np.diff(series.offsets))
    order = np.argsort(dates, kind="stable")  # dataset order, then measurement order
    ages = series.age[order]
    positions, count = match_ages(table.age, ages)
    matched = table.base_date[positions]
    by_date, n_ages = np.unique(dates, return_counts=True)
    age_bounds = np.concatenate(([0], np.cumsum(n_ages)))
    matched_bounds = np.concatenate(([0], np.cumsum(count)))[age_bounds]
    rows = []
    standardized = {}
    for i, date in enumerate(by_date.tolist()):
        a0, a1 = age_bounds[i : i + 2].tolist()
        m0, m1 = matched_bounds[i : i + 2].tolist()
        dp_stat = dp_p = None
        if a1 - a0 >= 20:
            try:
                dp = dagostino_pearson(ages[a0:a1])
            except ValueError:  # zero variance
                pass
            else:
                dp_stat, dp_p = dp.statistic, dp.p_value
        try:
            standardized[i] = _standardized(matched[m0:m1])
        except ValueError:  # fewer than 8 dates, or constant
            pass
        rows.append([date, a1 - a0, dp_stat, dp_p, m1 - m0, None])
    if standardized:
        z = np.concatenate(list(standardized.values()))
        cdf = np.concatenate([_ndtr(z[k : k + _NDTR_BLOCK])
                              for k in range(0, z.size, _NDTR_BLOCK)])
        start = 0
        for i, of_interval in standardized.items():
            rows[i][-1] = _a2_star(cdf[start : start + of_interval.size])
            start += of_interval.size
    return [IntervalNormality(*row) for row in rows]


NORMALITY_COLUMNS = ["original_cal_date", "n_ages", "ages_statistic", "ages_p_value",
                     "n_matched_dates", "matched_dates_statistic"]
def write_evaluation(
    table: RefTable,
    series: TestSeries,
    rows: EvalColumns,
    out_dir,
    header: dict,
    texts: list[tuple] = (),
) -> None:
    """Write the artifacts of an evaluated test series into ``out_dir``:
    ``eval_long.csv``, ``performance_25.csv``, ``performance_35.csv``,
    ``avg_deviation.csv``, ``normality_by_interval.csv`` and
    ``mpd_report.csv``, each under the given header, and ``texts`` with
    them, in one :func:`csvio.write_artifacts` call."""
    out_dir = Path(out_dir)
    artifacts = [_eval_artifact(rows, out_dir / "eval_long.csv", header)]

    for threshold in (25, 35):
        by_date: dict[float, dict[str, float]] = {}
        for date, family, frac in performance_curves(rows, threshold):
            by_date.setdefault(date, {})[family] = frac
        dates = sorted(by_date)
        artifacts.append((
            out_dir / f"performance_{threshold}.csv",
            {**header, "threshold": threshold},
            {"original_cal_date": dates}
            | {family: [by_date[date][family] for date in dates] for family in FAMILIES},
            None,
        ))

    per_date, full_span = average_deviation_analysis(rows)
    dates = sorted({date for date, _ in per_date})
    artifacts.append((
        out_dir / "avg_deviation.csv",
        header,
        {"original_cal_date": [*dates, "full_span"]}
        | {name: [*(per_date.get((date, name)) for date in dates), full_span[name]]
           for name in INDICATOR_NAMES},
        None,
    ))

    normality = interval_normality(table, series)
    artifacts.append((
        out_dir / "normality_by_interval.csv",
        header,
        {name: [getattr(result, f.name) for result in normality]
         for name, f in zip(NORMALITY_COLUMNS, fields(IntervalNormality))},
        None,
    ))

    report = _mpd_report(rows)
    mpd_header = dict(header)
    if report["mpd"].size:
        mpd_header["overall_mean"], mpd_header["overall_median"] = overall_aggregate(report["mpd"])
    artifacts.append((out_dir / "mpd_report.csv", mpd_header, report, None))
    csvio.write_artifacts(artifacts, texts)
