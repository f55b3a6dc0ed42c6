"""Shared fixtures: synthetic curves, session-scoped study tables and a
full-scale test series, plus the optional IntCal20 file.

The heavy fixtures are session scoped so the statistical tests and the
acceptance suite reuse one generation run.  Seeds are fixed; every
asserted band was checked against the seeded output.
"""

from __future__ import annotations

import ctypes
import math
import os
import re

import numpy as np
import pytest

import finedating as fd

STUDY_DATES = [-300.0 + 5.0 * i for i in range(61)]

TABLE_SEED_20_5 = 101
TABLE_SEED_50_5 = 202
TS3_SEED = 303


def _openblas() -> str:
    """The core and config of the OpenBLAS that numpy loaded, read best
    effort through ctypes from the mapped library (scipy-openblas builds
    prefix and suffix their symbols)."""
    try:
        with open("/proc/self/maps") as fh:
            path = next(line.split()[-1] for line in fh
                        if "openblas" in line.rsplit("/", 1)[-1])
        lib = ctypes.CDLL(path)
    except (OSError, StopIteration):
        return "openblas: not found"
    for core, config in (("scipy_openblas_get_corename64_", "scipy_openblas_get_config64_"),
                         ("openblas_get_corename", "openblas_get_config")):
        if hasattr(lib, core) and hasattr(lib, config):
            core, config = getattr(lib, core), getattr(lib, config)
            for get in (core, config):
                get.argtypes, get.restype = [], ctypes.c_char_p
            return f"openblas: core {core().decode()}, config {config().decode().strip()}"
    return f"openblas: {path} has no corename symbol"


def pytest_report_header():
    """The numpy build, the CPU targets it runs here, the OpenBLAS core
    and config, and the CPUs this process may use: the pinned artifact
    digests depend on the first three, and the writer forks only where
    two CPUs can run, so a digest or timing that differs on another host
    is read against these lines."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath

    dispatched = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    lines = [f"numpy {np.__version__}: baseline {' '.join(umath.__cpu_baseline__)}, "
             f"dispatched {' '.join(dispatched) or 'none'}"]
    lines.append(_openblas())
    usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else "?"
    lines.append(f"usable CPUs: {usable} of {os.cpu_count()}")
    lines += [f"{name}={os.environ[name]}" for name in ("NPY_DISABLE_CPU_FEATURES",
                                                        "OPENBLAS_CORETYPE")
              if name in os.environ]
    return lines


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process of this one running or
    unreaped, as the benchmark refuses a run that leaves a process
    running."""
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child at all
        return
    if pid:
        pytest.fail(f"the test left child process {pid} unreaped (wait status {status})")
    pytest.fail("the test left a child process running")


@pytest.fixture(autouse=True)
def no_temp_file_left(request):
    """Fail a test that leaves a writer's temporary ``<name>.tmp-<pid>``
    file under its ``tmp_path``: a write that fails must leave no file."""
    base = request.getfixturevalue("tmp_path") if "tmp_path" in request.fixturenames else None
    yield
    if base is None:
        return
    left = sorted(str(path.relative_to(base)) for path in base.rglob("*.tmp-*")
                  if re.fullmatch(r".*\.tmp-\d+", path.name))
    if left:
        pytest.fail(f"the test left temporary files {left}")


@pytest.fixture(scope="session")
def linear_curve():
    return fd.linear_curve(span=(-1000.0, 500.0), error=0.01)


@pytest.fixture(scope="session")
def flat_curve():
    return fd.flat_curve(level=2000.0, error=5.0, span=(-300.0, 0.0))


@pytest.fixture(scope="session")
def study_curve():
    return fd.synthetic_study_curve()


@pytest.fixture(scope="session")
def table_5_20_5(study_curve):
    return fd.build_reference_table(study_curve, fd.standard_spec("5_20_5", seed=TABLE_SEED_20_5))


@pytest.fixture(scope="session")
def table_5_50_5(study_curve):
    return fd.build_reference_table(study_curve, fd.standard_spec("5_50_5", seed=TABLE_SEED_50_5))


@pytest.fixture(scope="session")
def ts3_datasets(study_curve):
    """61 dates x 100 datasets x 3 measurements at sd 20."""
    return fd.generate_test_datasets(
        study_curve, STUDY_DATES, 100, sd=20.0, seed=TS3_SEED
    )


@pytest.fixture(scope="session")
def eval_rows(table_5_20_5, ts3_datasets):
    return fd.evaluate_test_series(table_5_20_5, ts3_datasets)


@pytest.fixture(scope="session")
def intcal_curve():
    """The real IntCal20 curve when the file is provided, else None."""
    path = fd.locate_intcal20()
    if path is None:
        return None
    return fd.load_curve(path, name="intcal20")


# ---------------------------------------------------------------------------
# independent oracles


def brute_median(values):
    ordered = sorted(values)
    n = len(ordered)
    if n % 2 == 1:
        return float(ordered[n // 2])
    return (ordered[n // 2 - 1] + ordered[n // 2]) / 2.0


def brute_mean(values):
    return sum(values) / len(values)


def brute_indicators(dates, means, medians):
    """Plain-Python reimplementation of the twelve indicators."""
    out = {}
    for family, values in (("CalDate", dates), ("Mean", means), ("Median", medians)):
        uniq = sorted(set(values))
        out[f"{family}_Mean"] = brute_mean(values)
        out[f"{family}_Median"] = brute_median(values)
        out[f"unique_{family}_Mean"] = brute_mean(uniq)
        out[f"unique_{family}_Median"] = brute_median(uniq)
    return out


def make_table(rows, label: str = "t", span=(-400.0, 100.0), sd: float = 5.0) -> fd.RefTable:
    """Reference table from (id, date, age, sd, cal_mean, cal_median,
    cal_sigma) rows."""
    id_, date, age, row_sd, mean, median, sigma = (
        np.array(column) for column in zip(*rows)
    ) if rows else [np.empty(0)] * 7
    spec = fd.RefTableSpec(label=label, year_interval=5, per_slice=1, sd=sd, span=span, seed=0)
    return fd.RefTable(
        label, "none", (spec,), id_.astype(np.int64), date.astype(float), age.astype(np.int64),
        row_sd.astype(float), mean.astype(float), median.astype(float), sigma.astype(float),
    )


def make_series(datasets) -> fd.TestSeries:
    """Test series from (data_id, original_date, [(age, sd), ...])
    datasets, without calibration values."""
    measured = [pair for _, _, pairs in datasets for pair in pairs]
    age, sd = (np.array(c) for c in zip(*measured)) if measured else [np.empty(0)] * 2
    nan = np.full(len(measured), math.nan)
    sizes = [len(pairs) for _, _, pairs in datasets]
    return fd.TestSeries(
        np.array([d[0] for d in datasets], dtype=np.int64),
        np.array([d[1] for d in datasets], dtype=float), age.astype(np.int64), sd.astype(float),
        nan, nan, nan, np.concatenate(([0], np.cumsum(sizes, dtype=np.int64))),
    )


def take_datasets(series: fd.TestSeries, picks) -> fd.TestSeries:
    """The datasets of ``series`` numbered ``picks``, in that order."""
    picks = np.asarray(picks, dtype=np.int64)
    sizes = np.diff(series.offsets)[picks]
    rows = np.concatenate([np.arange(series.offsets[i], series.offsets[i + 1]) for i in picks])
    return fd.TestSeries(
        series.data_id[picks], series.original_date[picks],
        *(column[rows] for column in (series.age, series.sd, series.cal_mean, series.cal_median,
                                      series.cal_sigma)),
        offsets=np.concatenate(([0], np.cumsum(sizes))),
    )


def random_matchset(rng: np.random.Generator, max_size: int = 50) -> fd.MatchSet:
    """Random small match set with plenty of exact duplicates."""
    n_meas = int(rng.integers(1, 5))
    rows = []
    counts = []
    measurements = []
    for i in range(n_meas):
        age = int(rng.integers(1900, 1910))
        measurements.append(fd.Measurement(age=age, sd=10.0))
        k = int(rng.integers(0, max_size // n_meas + 1))
        for j in range(k):
            # discrete grids force duplicate values across records
            date = float(rng.integers(-60, -40) * 5)
            rows.append(
                (
                    int(rng.integers(1, 10_000)),
                    date,
                    age,
                    5.0,
                    float(rng.integers(-230, -210)) / 2.0,
                    float(rng.integers(-240, -220)) / 2.0,
                    float(rng.integers(5, 30)),
                )
            )
        counts.append(k)
    return fd.MatchSet(
        make_table(rows), tuple(measurements), np.arange(len(rows)), np.array(counts)
    )


def eval_columns(rows) -> fd.EvalColumns:
    """Evaluation columns from (data_id, original_date, indicator, value,
    delta, category, n_matches) rows; a value or delta of None is NaN."""
    data_id, date, indicator, value, delta, category, n = zip(*rows) if rows else [()] * 7
    as_float = lambda cells: np.array([math.nan if c is None else c for c in cells], dtype=float)
    return fd.EvalColumns(
        np.array(data_id, dtype=np.int64), as_float(date), np.array(indicator, dtype=object),
        as_float(value), as_float(delta), np.array(category, dtype=object),
        np.array(n, dtype=np.int64),
    )


def same_eval(a: fd.EvalColumns, b: fd.EvalColumns) -> bool:
    """Equal columns, NaN equal to NaN."""
    return all(
        np.array_equal(x, y, equal_nan=x.dtype == float) for x, y in zip(a.columns(), b.columns())
    )
