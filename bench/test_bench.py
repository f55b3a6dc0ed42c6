"""Self-tests of the benchmark: ``python3 -m pytest -q bench``."""

from __future__ import annotations

import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import artifacts  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from tracing import WRAPPED, Tracer, layer_times  # noqa: E402

NORMALITY = """# format=whatever
# manifest=run_manifest.txt
original_cal_date,n_ages,ages_statistic,ages_p_value,n_matched_dates,matched_dates_statistic
-300,300,1.25,0.5349,300,2.5
-295,300,0.75,0.011087641056151554,300,1.5
"""


def session(tmp_path) -> workloads.Session:
    return workloads.Session(tmp_path, seed=1, golden={})


def test_tampered_artifact_is_caught(tmp_path):
    s = session(tmp_path)
    path = tmp_path / "table.csv"
    path.write_text("# checksum=1\nid,age_bp\n1,2000\n2,2010\n", encoding="utf-8")
    s.check_file(0, "table.csv", rows=2)
    path.write_text("# checksum=2\nid,age_bp\n1,2000\n2,2010\n", encoding="utf-8")
    s.check_file(1, "table.csv", rows=2)
    assert s.failed == set(), "a header comment is not part of the digest"
    path.write_text("# checksum=2\nid,age_bp\n1,2000\n2,2011\n", encoding="utf-8")
    s.check_file(2, "table.csv", rows=2)
    assert s.failed == {2}


def test_pinned_digest_mismatch_fails(tmp_path):
    path = tmp_path / "table.csv"
    path.write_text("id,age_bp\n1,2000\n", encoding="utf-8")
    pinned = artifacts.digest_file(path)
    path.write_text("id,age_bp\n1,2001\n", encoding="utf-8")
    s = workloads.Session(tmp_path, seed=1, golden={"table.csv": pinned})
    s.check_file(0, "table.csv")
    assert s.failed == {0} and "pinned" in s.failures[0]


def test_missing_artifact_fails(tmp_path):
    s = session(tmp_path)
    s.check_file(0, "eval/eval_long.csv")
    assert s.failed == {0}


def test_p_values_compare_at_relative_tolerance(tmp_path):
    path = tmp_path / "normality_by_interval.csv"
    path.write_text(NORMALITY, encoding="utf-8")
    want = artifacts.digest_file(path)
    assert want["ages_p_value"] == ["0.5349", "0.011087641056151554"]
    path.write_text(NORMALITY.replace("0.011087641056151554", "0.011087641056151557"), encoding="utf-8")
    assert artifacts.mismatches(artifacts.digest_file(path), want) == []
    path.write_text(NORMALITY.replace("0.5349", "0.5350"), encoding="utf-8")
    assert artifacts.mismatches(artifacts.digest_file(path), want)
    path.write_text(NORMALITY.replace("1.25", "1.26"), encoding="utf-8")
    assert artifacts.mismatches(artifacts.digest_file(path), want)


def test_self_time_of_nested_spans():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    with tracer.span("outer"):  # 0 .. 10
        with tracer.span("a"):  # 1 .. 3
            pass
        with tracer.span("b"):  # 4 .. 8
            with tracer.span("a"):  # 5 .. 6
                pass
    times = layer_times(tracer.spans)
    assert times["outer"] == [1, 10.0, 4.0]
    assert times["b"] == [1, 4.0, 3.0]
    assert times["a"] == [2, 3.0, 3.0]
    assert [span[3] for span in tracer.spans] == [-1, 0, 0, 2]


def test_wrappers_replace_every_binding_and_report_absent_names():
    pkg = "fakedating"
    calcurve = types.ModuleType(f"{pkg}.calcurve")
    simulate = types.ModuleType(f"{pkg}.simulate")

    def calibrate(x):
        return x + 1

    def generate_test_datasets(n):
        return [simulate.calibrate(i) for i in range(n)]

    calcurve.calibrate = simulate.calibrate = calibrate
    simulate.generate_test_datasets = generate_test_datasets
    sys.modules.update({pkg: types.ModuleType(pkg), calcurve.__name__: calcurve,
                        simulate.__name__: simulate})
    tracer = Tracer()
    try:
        tracer.install(pkg)
        assert simulate.calibrate is not calibrate
        assert simulate.generate_test_datasets(3) == [1, 2, 3]
    finally:
        tracer.uninstall()
        for name in (pkg, calcurve.__name__, simulate.__name__):
            del sys.modules[name]
    assert simulate.calibrate is calibrate and calcurve.calibrate is calibrate
    assert tracer.missing == set(WRAPPED) - {"calcurve.calibrate", "simulate.generate_test_datasets"}
    values = tracer.metrics(["calcurve.calibrate.calls", "simulate.generate_test_datasets.self_s",
                             "calcurve.load_curve.s", "evaluate.mpd_report.searches"])
    assert values["calcurve.calibrate.calls"] == 3
    assert values["simulate.generate_test_datasets.self_s"] >= 0.0
    assert values["calcurve.load_curve.s"] is None
    assert values["evaluate.mpd_report.searches"] is None


def test_count_of_reshaped_result_is_absent_not_raised():
    tracer = Tracer()
    wrapped = tracer.wrap("evaluate.mpd_report", lambda rows: object())
    wrapped([])
    assert tracer.metrics(["evaluate.mpd_report.searches", "evaluate.mpd_report.calls"]) == {
        "evaluate.mpd_report.searches": None, "evaluate.mpd_report.calls": 1}


def test_import_times_count_nested_packages_once():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy.core",
        "import time:       200 |        300 |   numpy",
        "import time:        50 |         50 |     scipy.special",
        "import time:       400 |        450 |   scipy.stats",
        "import time:        10 |        800 | finedating",
        "import time:        20 |         20 | finedating.cli",
    ])
    assert run.import_times(text) == pytest.approx(
        {"numpy": 300e-6, "scipy": 450e-6, "finedating": 820e-6})


def test_scale_uses_the_median_reference_time():
    ref = speed.REFERENCE_S
    assert speed.scale(3.0, [ref, 2 * ref, 3 * ref, 100 * ref]) == pytest.approx(3.0 / 2.5)
