import argparse
import dataclasses
import io
import os
import re
import shutil
import signal
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import finedating as fd
from finedating import cli, csvio
from finedating.cli import build_parser, main, parse_date, parse_date_range, parse_span

from conftest import write_sidecar


@pytest.fixture(scope="module")
def curve_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("curve") / "study.14c"
    fd.write_curve(fd.synthetic_study_curve(), path)
    return path


def run(*argv):
    return main([str(a) for a in argv])


def test_import_loads_neither_numpy_random_nor_scipy():
    # numpy.random (about 17 ms) is imported only by the commands that
    # draw, not by every command; scipy is imported by none
    code = ("import sys, finedating.cli; "
            "print([m for m in ('numpy.random', 'scipy') if m in sys.modules])")
    env = {**os.environ, "PYTHONPATH": str(Path(fd.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def normality_rows(eval_dir) -> list[dict]:
    art = csvio.read_commented_csv(eval_dir / "normality_by_interval.csv")
    return [dict(zip(art.columns, row)) for row in art.body]


def test_pipeline_runs_with_scipy_blocked(curve_file, tmp_path):
    # ref-gen, simulate and an evaluate whose intervals are large enough
    # for both normality tests, once with scipy unimportable in a fresh
    # interpreter and once in this one, with scipy loaded
    def argvs(base):
        return [["--seed", "11", "ref-gen", "--curve", str(curve_file), "--label", "5_20_5",
                 "--out", str(base / "ref.csv")],
                ["--seed", "12", "simulate", "tests", "--curve", str(curve_file),
                 "--dates", "-160:-120:10", "--per-date", "7", "--group", "3", "--sd", "20",
                 "--out", str(base / "tests.csv")],
                ["evaluate", "--ref", str(base / "ref.csv"), "--tests", str(base / "tests.csv"),
                 "--out", str(base / "eval")]]

    blocked, importable = tmp_path / "blocked", tmp_path / "importable"
    code = ('import sys; sys.modules["scipy"] = None\n'
            "from finedating.cli import main\n"
            f"sys.exit(any(main(argv) for argv in {argvs(blocked)!r}))\n")
    env = {**os.environ, "PYTHONPATH": str(Path(fd.__file__).parents[1])}
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)
    import scipy.special  # noqa: F401  (loaded, as in a process that uses it)

    for argv in argvs(importable):
        assert main(argv) == 0
    rows = normality_rows(blocked / "eval")
    assert rows and all(row["n_ages"] == "21" and row["ages_p_value"]
                        and row["matched_dates_statistic"] for row in rows)
    assert files_under(blocked) == files_under(importable)


def test_evaluate_of_a_constant_interval_leaves_its_omnibus_cells_blank(pipeline, tmp_path,
                                                                      capsys):
    src = tmp_path / "rsim.csv"
    src.write_text("cal_date,age,sd\n" + "-100,2050,20\n" * 30)
    tests = tmp_path / "tests.csv"
    assert run("simulate", "convert", "--in", src, "--group", 1, "--out", tests) == 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("evaluate", "--ref", pipeline / "ref.csv", "--tests", tests,
                   "--out", tmp_path / "eval") == 0
    assert "Warning" not in capsys.readouterr().err
    rows = normality_rows(tmp_path / "eval")
    assert [(row["n_ages"], row["ages_statistic"], row["ages_p_value"]) for row in rows] == [
        ("30", "", "")]


# --- argument parsing --------------------------------------------------------

def test_parse_date_conventions():
    assert parse_date("-200") == -200.0
    assert parse_date("200BC") == -200.0
    assert parse_date("200 bc") == -200.0
    assert parse_date("AD20") == 20.0
    assert parse_date("20AD") == 20.0
    assert parse_date("0") == 0.0


def test_parse_span_and_range():
    assert parse_span("-300:20") == (-300.0, 20.0)
    dates = parse_date_range("-300:0:5")
    assert len(dates) == 61
    assert dates[0] == -300.0 and dates[-1] == 0.0


def test_no_arguments_is_usage_error(capsys):
    assert run() == 2


def test_unknown_flag_is_usage_error():
    assert main(["ref-gen", "--no-such-flag"]) == 2


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert "finedating" in capsys.readouterr().out


# --- curve info --------------------------------------------------------------

def test_curve_info(curve_file, capsys):
    assert run("curve", "info", curve_file, "--at", "-150,0") == 0
    out = capsys.readouterr().out
    assert "knots: 109" in out
    assert "domain: -420 .. 120" in out
    assert "at -150:" in out


def test_curve_info_missing_file():
    assert run("curve", "info", "/nonexistent/curve.14c") == 3


def test_non_finite_curve_knot_is_data_error(tmp_path, capsys):
    curve = tmp_path / "bad.14c"
    curve.write_text("0,100,10\n10,nan,10\n20,120,inf\n")
    assert run("curve", "info", curve) == 4
    assert "non-finite curve knot 1" in capsys.readouterr().err
    out = tmp_path / "ref.csv"
    assert run("ref-gen", "--curve", curve, "--label", "x", "--step", 5, "--per-slice", 1,
               "--sd", 5, "--span", "-50:-40", "--out", out) == 4
    assert not out.exists()


# --- pipeline ----------------------------------------------------------------

def test_ref_gen_standard_label(curve_file, tmp_path, capsys):
    out = tmp_path / "ref.csv"
    code = run("--seed", 11, "ref-gen", "--curve", curve_file, "--label", "5_20_5", "--out", out)
    assert code == 0
    table = fd.read_table(out)
    assert len(table) == 1300
    assert (tmp_path / "ref_manifest.txt").exists()
    head = [l for l in out.read_text().splitlines() if l.startswith("#")]
    assert out.read_text().startswith("#")
    assert any(l.startswith("# tool=finedating") for l in head)
    assert any(l == "# manifest=ref_manifest.txt" for l in head)


def test_ref_gen_explicit_spec(curve_file, tmp_path):
    out = tmp_path / "ref.csv"
    code = run(
        "--seed", 3, "ref-gen", "--curve", curve_file, "--label", "tiny",
        "--step", 10, "--per-slice", 2, "--sd", 5, "--span", "-100:-50", "--out", out,
    )
    assert code == 0
    assert len(fd.read_table(out)) == 12


def test_ref_gen_combo(curve_file, tmp_path):
    out = tmp_path / "combo.csv"
    code = run(
        "--seed", 5, "ref-gen", "--curve", curve_file,
        "--combo", "5_20_5,5_10_20", "--out", out,
    )
    assert code == 0
    table = fd.read_table(out)
    assert len(table) == 1300 + 650
    assert table.label == "Combo"


def test_ref_gen_missing_required_option(curve_file, tmp_path):
    assert run("ref-gen", "--curve", curve_file) == 2


SPEC = ["--step", "5", "--per-slice", "2", "--sd", "20", "--span=-300:0"]


@pytest.mark.parametrize("label_argv, message", [
    (["--label", "a,b", *SPEC], "spec label 'a,b'"),
    (["--label", "a\rb", *SPEC], "spec label 'a\\rb'"),
    (["--label", "a\nb", *SPEC], "spec label 'a\\nb'"),
    (["--combo", "5_20_5", "--label", "a\nb"], "table label 'a\\nb'"),
    (["--combo", "5_20_5", "--label", "a\rb"], "table label 'a\\rb'"),
], ids=["spec comma", "spec cr", "spec lf", "table lf", "table cr"])
def test_ref_gen_refuses_a_label_the_reader_would_refuse(curve_file, tmp_path, capsys,
                                                         label_argv, message):
    out = tmp_path / "out" / "ref.csv"
    out.parent.mkdir()
    assert run("ref-gen", "--curve", curve_file, *label_argv, "--out", out) == 4
    err = capsys.readouterr().err
    assert err.startswith(f"error: data: {message} cannot be written to {out}"), err
    assert list(out.parent.iterdir()) == []


def test_ref_gen_combo_label_with_a_comma_reads_back(curve_file, tmp_path):
    out = tmp_path / "combo.csv"
    assert run("ref-gen", "--curve", curve_file, "--combo", "5_20_5", "--label", "a,b",
               "--out", out) == 0
    assert fd.read_table(out).label == "a,b"


@pytest.fixture(scope="module")
def pipeline(curve_file, tmp_path_factory):
    """ref table + tests + evaluation directory, built once via the CLI."""
    base = tmp_path_factory.mktemp("pipeline")
    ref = base / "ref.csv"
    tests = base / "tests.csv"
    eval_dir = base / "eval"
    assert run("--seed", 11, "ref-gen", "--curve", curve_file, "--label", "5_20_5", "--out", ref) == 0
    assert run(
        "--seed", 12, "simulate", "tests", "--curve", curve_file,
        "--dates", "-160:-120:10", "--per-date", 4, "--group", 3, "--sd", 20, "--out", tests,
    ) == 0
    assert run("evaluate", "--ref", ref, "--tests", tests, "--out", eval_dir) == 0
    return base


def test_simulate_tests_shape(pipeline):
    series = fd.read_tests(pipeline / "tests.csv")
    assert len(series) == 20
    assert (np.diff(series.offsets) == 3).all()


def test_evaluate_artifacts(pipeline):
    eval_dir = pipeline / "eval"
    for name in (
        "eval_long.csv",
        "performance_25.csv",
        "performance_35.csv",
        "avg_deviation.csv",
        "normality_by_interval.csv",
        "mpd_report.csv",
        "run_manifest.txt",
    ):
        assert (eval_dir / name).exists(), name
    rows = __import__("finedating").evaluate.read_eval_rows(eval_dir / "eval_long.csv")
    assert len(rows) == 20 * 12
    perf = (eval_dir / "performance_25.csv").read_text().splitlines()
    header = [l for l in perf if not l.startswith("#")][0]
    assert header == "original_cal_date,CalDate,Mean,Median"


def test_finedate_report(pipeline, capsys):
    ref = pipeline / "ref.csv"
    table = fd.read_table(ref)
    in_range = (-160 <= table.base_date) & (table.base_date <= -120)
    ages = sorted(set(table.age[in_range].tolist()))[:3]
    out = pipeline / "report"
    code = run("finedate", "--ref", ref, "--ages", ",".join(map(str, ages)), "--sd", 20, "--out", out)
    assert code == 0
    assert (pipeline / "report_overview.csv").exists()
    assert (pipeline / "report_summary.csv").exists()


def test_finedate_ages_file(pipeline, tmp_path):
    table = fd.read_table(pipeline / "ref.csv")
    ages = sorted(set(table.age.tolist()))[:3]
    src = tmp_path / "meas.csv"
    src.write_text("age,sd\n" + "\n".join(f"{a},20" for a in ages) + "\n")
    out = tmp_path / "filed"
    assert run("finedate", "--ref", pipeline / "ref.csv", "--ages-file", src, "--out", out) == 0
    assert (tmp_path / "filed_summary.csv").exists()


def test_mpd_report_carries_overall_aggregates(pipeline):
    text = (pipeline / "eval" / "mpd_report.csv").read_text()
    assert "# overall_mean=" in text
    assert "# overall_median=" in text


def test_finedate_no_matches_is_data_error(pipeline, capsys):
    code = run("finedate", "--ref", pipeline / "ref.csv", "--ages", "1000", "--sd", 20,
               "--out", pipeline / "nomatch")
    assert code == 4
    assert "no matches" in capsys.readouterr().err


@pytest.mark.parametrize("age", ["99999999999999999999", "-9223372036854775809"])
def test_finedate_age_beyond_int64_names_the_flag(pipeline, tmp_path, capsys, age):
    capsys.readouterr()
    assert run("finedate", "--ref", pipeline / "ref.csv", "--ages", f"2000,{age}", "--sd", 20,
               "--out", tmp_path / "report") == 4
    err = capsys.readouterr().err
    assert f"--ages must fit in a 64-bit integer, got '{age}'" in err
    assert "Traceback" not in err
    assert not any(tmp_path.iterdir())


def test_finedate_age_beyond_int64_in_file_names_file_and_row(pipeline, tmp_path, capsys):
    src = tmp_path / "meas.csv"
    src.write_text("age,sd\n2000,20\n99999999999999999999,20\n")
    capsys.readouterr()
    assert run("finedate", "--ref", pipeline / "ref.csv", "--ages-file", src,
               "--out", tmp_path / "report") == 4
    err = capsys.readouterr().err
    assert (f"ages file {src} row 2: age must be an integer that fits in 64 bits, "
            "got '99999999999999999999'") in err
    assert "Traceback" not in err
    assert sorted(tmp_path.iterdir()) == [src]


def test_finedate_int64_extreme_ages_are_accepted(pipeline, tmp_path, capsys):
    # the bounds themselves fit: they reach matching and simply match nothing
    capsys.readouterr()
    assert run("finedate", "--ref", pipeline / "ref.csv",
               "--ages", f"{2**63 - 1},{-2**63}", "--sd", 20, "--out", tmp_path / "report") == 4
    assert "no matches" in capsys.readouterr().err


def test_lookup_build_and_query(pipeline, capsys):
    eval_long = pipeline / "eval" / "eval_long.csv"
    table_path = pipeline / "lookup.csv"
    assert run("lookup", "build", "--eval", eval_long, "--out", table_path) == 0
    rows = __import__("finedating").evaluate.read_eval_rows(eval_long)
    value = rows.value[(rows.indicator == "CalDate_Median") & ~np.isnan(rows.value)][0]
    capsys.readouterr()
    assert run("lookup", "query", "--table", table_path, "--indicator", "CalDateMedian",
               "--value", value) == 0
    out = capsys.readouterr().out
    assert "bucket: [" in out and "total_count:" in out


@pytest.mark.parametrize("width", ["0.1", "0.3"])
def test_lookup_with_inexact_width_can_be_queried(pipeline, tmp_path, capsys, width):
    eval_long = pipeline / "eval" / "eval_long.csv"
    table_path = tmp_path / "lookup.csv"
    assert run("lookup", "build", "--eval", eval_long, "--bucket-width", width,
               "--out", table_path) == 0
    rows = fd.evaluate.read_eval_rows(eval_long)
    values = rows.value[(rows.indicator == "CalDate_Median") & ~np.isnan(rows.value)]
    for value in (values.min(), values[0], values.max()):
        capsys.readouterr()
        assert run("lookup", "query", "--table", table_path, "--indicator", "CalDate_Median",
                   "--value", repr(float(value))) == 0
        out = capsys.readouterr().out
        left, right = map(float, out.split("bucket: [", 1)[1].split(")", 1)[0].split(", "))
        assert left - 1e-9 <= value < right + 1e-9
        assert "total_count: 0" not in out


def test_lookup_build_rejects_too_many_buckets(pipeline, tmp_path, capsys):
    out = tmp_path / "lookup.csv"
    assert run("lookup", "build", "--eval", pipeline / "eval" / "eval_long.csv",
               "--bucket-width", "1e-6", "--out", out) == 4
    err = capsys.readouterr().err
    assert "bucket width 1e-06 gives " in err and "more than the 1000000 allowed" in err
    assert list(tmp_path.iterdir()) == []


def test_lookup_build_bounds_the_length_of_its_bucket_count(pipeline, tmp_path, capsys):
    # the count of a width of 1e-300 is about 1e+302 buckets, printed as such
    out = tmp_path / "lookup.csv"
    assert run("lookup", "build", "--eval", pipeline / "eval" / "eval_long.csv",
               "--bucket-width", "1e-300", "--out", out) == 4
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: data: bucket width 1e-300 gives \S+e\+30\d buckets, "
                        r"more than the 1000000 allowed\n", err), err
    assert len(err) < 120 and list(tmp_path.iterdir()) == []


def test_lookup_query_outside_range(pipeline, capsys):
    table_path = pipeline / "lookup.csv"
    assert run("lookup", "query", "--table", table_path, "--indicator", "CalDate_Median",
               "--value", 99999) == 4


def test_hist_from_tests_column(pipeline):
    out = pipeline / "hist_ages.csv"
    assert run("hist", "--in", pipeline / "tests.csv", "--col", "age_bp", "--out", out) == 0
    lines = [l for l in out.read_text().splitlines() if l and not l.startswith("#")]
    counts = [int(l.split(",")[2]) for l in lines[1:]]
    assert sum(counts) == 60


def test_hist_from_indicator(pipeline):
    out = pipeline / "hist_ind.csv"
    assert run("hist", "--in", pipeline / "eval" / "eval_long.csv",
               "--col", "Mean_Median", "--out", out) == 0
    lines = [l for l in out.read_text().splitlines() if l and not l.startswith("#")]
    assert sum(int(l.split(",")[2]) for l in lines[1:]) == 20


def test_hist_unknown_column(pipeline):
    assert run("hist", "--in", pipeline / "tests.csv", "--col", "bogus",
               "--out", pipeline / "x.csv") == 4


@pytest.mark.parametrize("bins", [1_000_001, 10**13])
def test_hist_bins_beyond_the_bound_is_data_error(pipeline, tmp_path, capsys, bins):
    # 10**13 bins would ask np.histogram for 72.8 TiB
    assert run("hist", "--in", pipeline / "tests.csv", "--col", "age_bp", "--bins", bins,
               "--out", tmp_path / "hist.csv") == 4
    assert f"--bins must be from 1 to 1000000, got {bins}" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_scatter_indicator_vs_original(pipeline):
    out = pipeline / "scatter.csv"
    assert run("scatter", "--in", pipeline / "eval" / "eval_long.csv",
               "--x", "original_cal_date", "--y", "caldate_median", "--out", out) == 0
    lines = [l for l in out.read_text().splitlines() if l and not l.startswith("#")]
    assert len(lines) - 1 == 20  # one point per dataset


def test_scatter_of_one_column_against_itself_is_usage_error(pipeline, tmp_path, capsys):
    out = tmp_path / "scatter.csv"
    assert run("scatter", "--in", pipeline / "tests.csv", "--x", "age_bp", "--y", "age_bp",
               "--out", out) == 2
    assert "--x and --y name the same column 'age_bp'" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_evaluate_curve_flag_sharpens_buffer_warning(pipeline, curve_file, tmp_path, capsys):
    # dates near the young span edge trigger the warning when the curve
    # error enters the margin
    tests = tmp_path / "edge_tests.csv"
    assert run("--seed", 9, "simulate", "tests", "--curve", curve_file,
               "--dates", "0:0:5", "--per-date", 2, "--sd", 20, "--out", tests) == 0
    capsys.readouterr()
    assert run("evaluate", "--ref", pipeline / "ref.csv", "--tests", tests,
               "--curve", curve_file, "--out", tmp_path / "edge_eval") == 0
    assert "young edge" in capsys.readouterr().err


def test_evaluate_with_a_missing_curve_writes_nothing(pipeline, tmp_path, capsys):
    assert run("evaluate", "--ref", pipeline / "ref.csv", "--tests", pipeline / "tests.csv",
               "--curve", tmp_path / "missing.14c", "--out", tmp_path / "ev2") == 3
    assert "curve file not found" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_convert_groups_and_flags_leftovers(pipeline, tmp_path, capsys):
    src = tmp_path / "rsim.csv"
    rows = ["cal_date,age,sd"]
    rows += [f"-100,{2000 + i},20" for i in range(6)]
    rows += [f"-50,{2010 + i},20" for i in range(7)]
    src.write_text("\n".join(rows) + "\n")
    out = tmp_path / "tests.csv"
    assert run("simulate", "convert", "--in", src, "--group", 3, "--out", out) == 0
    err = capsys.readouterr().err
    assert "leftover" in err
    series = fd.read_tests(out)
    assert len(series) == 4  # 2 + 2 full groups, 1 leftover row dropped
    assert series.age.size == 12


def test_convert_splits_a_date_by_sd_so_evaluate_accepts_it(pipeline, tmp_path, capsys):
    src = tmp_path / "rsim.csv"
    src.write_text("cal_date,age,sd\n-100,2060,15\n-100,2070,20\n-100,2075,20\n")
    out = tmp_path / "tests.csv"
    assert run("simulate", "convert", "--in", src, "--group", 2, "--out", out) == 0
    assert "1 leftover row(s) at date -100 sd 15" in capsys.readouterr().err
    series = fd.read_tests(out)
    assert series.sd.tolist() == [20.0, 20.0]
    assert run("evaluate", "--ref", pipeline / "ref.csv", "--tests", out,
               "--out", tmp_path / "eval") == 0


def test_convert_manifest_counts_leftover_rows(tmp_path, capsys):
    src = tmp_path / "rsim.csv"
    rows = ["cal_date,age,sd"]
    for date, n in ((-100, 2), (-50, 2), (-20, 3)):
        rows += [f"{date},{2000 + i},20" for i in range(n)]
    src.write_text("\n".join(rows) + "\n")
    out = tmp_path / "tests.csv"
    assert run("simulate", "convert", "--in", src, "--group", 3, "--out", out) == 0
    warnings = [line for line in capsys.readouterr().err.splitlines() if "leftover" in line]
    assert warnings == [
        f"warning: 2 leftover row(s) at date {date} sd 20 did not fill a group of 3 "
        "and were excluded" for date in (-100, -50)
    ]
    manifest = (tmp_path / "tests_manifest.txt").read_text().splitlines()
    assert "leftover_rows = 4" in manifest
    assert "datasets = 1" in manifest


@pytest.mark.parametrize("row", ["-100,inf,20", "-100,2060,nan", "-100,2060,-1", "-100,1e300,20"])
def test_convert_rejects_bad_cells(tmp_path, capsys, row):
    src = tmp_path / "rsim.csv"
    src.write_text(f"cal_date,age,sd\n-100,2050,20\n{row}\n")
    assert run("simulate", "convert", "--in", src, "--group", 1,
               "--out", tmp_path / "tests.csv") == 4
    assert f"malformed row 2 in {src}" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["rsim.csv"]


def test_config_file_supplies_defaults(curve_file, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text(f"curve = {curve_file}\nlabel = 5_10_20\nseed = 4\n")
    out = tmp_path / "ref.csv"
    assert run("--config", config, "ref-gen", "--out", out) == 0
    assert len(fd.read_table(out)) == 650


def test_negative_seed_is_rejected_where_it_enters(curve_file, tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text(f"curve = {curve_file}\nlabel = 5_10_20\nseed = -3\n")
    out = tmp_path / "ref.csv"
    for argv, seed in [(["--seed", -1, "ref-gen", "--curve", curve_file, "--label", "5_10_20"], -1),
                       (["--config", config, "ref-gen"], -3)]:
        assert run(*argv, "--out", out) == 4
        assert capsys.readouterr().err == (
            f"error: data: --seed must be a non-negative integer, got {seed}\n")
    assert not out.exists()
    assert run("--seed", 2**63, "--config", config, "ref-gen", "--out", out) == 0


def test_flags_override_config(curve_file, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text(f"curve = {curve_file}\nlabel = 5_10_20\n")
    out = tmp_path / "ref.csv"
    assert run("--config", config, "ref-gen", "--label", "5_20_5", "--out", out) == 0
    assert len(fd.read_table(out)) == 1300


# Per case: the command's words, then each of its options with a value.
# Values name the inputs as {curve}, {ref}, ... and the output directory as
# {out}; --seed goes before the command.
CONFIG_CASES = {
    "curve info": (["curve", "info", "{curve}"], {"--at": "-150,0"}),
    "ref-gen": (["ref-gen"], {"--seed": "3", "--curve": "{curve}", "--label": "tiny",
                              "--step": "10", "--per-slice": "2", "--sd": "5",
                              "--span": "-100:-50", "--out": "{out}/ref.csv"}),
    "ref-gen combo": (["ref-gen"], {"--combo": "5_10_20", "--curve": "{curve}",
                                    "--label": "both", "--out": "{out}/combo.csv"}),
    "simulate tests": (["simulate", "tests"], {"--curve": "{curve}", "--dates": "-100:-90:5",
                                               "--per-date": "2", "--group": "2", "--sd": "20",
                                               "--out": "{out}/tests.csv"}),
    "simulate convert": (["simulate", "convert"], {"--in": "{rsim}", "--group": "2",
                                                   "--out": "{out}/tests.csv"}),
    "finedate": (["finedate"], {"--ref": "{ref}", "--ages": "2087,2097", "--sd": "20,25",
                                "--out": "{out}/report"}),
    "finedate ages-file": (["finedate"], {"--ref": "{ref}", "--ages-file": "{ages}",
                                          "--out": "{out}/report"}),
    "evaluate": (["evaluate"], {"--ref": "{ref}", "--tests": "{tests}", "--curve": "{curve}",
                                "--out": "{out}/eval"}),
    "lookup build": (["lookup", "build"], {"--eval": "{eval}", "--bucket-width": "7.5",
                                           "--out": "{out}/lookup.csv"}),
    "lookup query": (["lookup", "query"], {"--table": "{lookup}", "--indicator": "caldate median",
                                           "--value": "-140"}),
    "hist": (["hist"], {"--in": "{eval}", "--col": "Mean_Median", "--bins": "4",
                        "--out": "{out}/hist.csv"}),
    "scatter": (["scatter"], {"--in": "{eval}", "--x": "original_cal_date",
                              "--y": "caldate_median", "--out": "{out}/scatter.csv"}),
}


@pytest.fixture(scope="module")
def config_inputs(curve_file, pipeline, lookup_file, tmp_path_factory):
    base = tmp_path_factory.mktemp("config-inputs")
    (base / "rsim.csv").write_text("cal_date,age,sd\n" + "-100,2050,20\n-100,2060,20\n" * 3)
    (base / "ages.csv").write_text("age,sd\n2087,20\n2097,25\n")
    return {"curve": curve_file, "ref": pipeline / "ref.csv", "tests": pipeline / "tests.csv",
            "eval": pipeline / "eval" / "eval_long.csv", "lookup": lookup_file,
            "rsim": base / "rsim.csv", "ages": base / "ages.csv"}


def run_case(case: str, inputs: dict, out, flags: dict, config: dict, config_path):
    """Exit code, stdout (the output directory written as {out}), stderr and
    the files written of ``case`` with ``flags`` on the command line and
    ``config`` in a config file (none if empty)."""
    words, _ = CONFIG_CASES[case]
    paths = {**inputs, "out": out}
    out.mkdir()
    argv = [] if "--seed" not in flags else ["--seed", flags["--seed"]]
    if config:
        config_path.write_text("".join(f"{key[2:]} = {value.format(**paths)}\n"
                                       for key, value in config.items()))
        argv += ["--config", config_path]
    argv += [word.format(**paths) for word in words]
    argv += [item.format(**paths) for key, value in flags.items() if key != "--seed"
             for item in (key, value)]
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = main([str(a) for a in argv])
    return code, stdout.getvalue().replace(str(out), "{out}"), stderr.getvalue(), files_under(out)


def parser_options(parser, words=()):
    """(subcommand words, option) of every option that takes a value."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, subparser in action.choices.items():
                yield from parser_options(subparser, (*words, name))
        elif action.option_strings and action.nargs != 0:
            yield words, action.option_strings[-1]


def test_config_cases_cover_every_option():
    covered = {((), "--config")}
    for words, options in CONFIG_CASES.values():
        command = tuple(word for word in words if "{" not in word)
        covered |= {(() if option == "--seed" else command, option) for option in options}
    assert covered == set(parser_options(build_parser()))


@pytest.mark.parametrize("case", list(CONFIG_CASES))
def test_config_entry_gives_the_bytes_of_its_flag(config_inputs, tmp_path, case):
    # each option in turn moves from the command line to the config file
    _, options = CONFIG_CASES[case]
    expected = run_case(case, config_inputs, tmp_path / "flags", options, {}, None)
    assert expected[0] == 0, expected
    assert expected[3] or case in ("curve info", "lookup query")
    for option, value in options.items():
        flags = {key: v for key, v in options.items() if key != option}
        got = run_case(case, config_inputs, tmp_path / option[2:], flags, {option: value},
                       tmp_path / f"{option[2:]}.cfg")
        assert got == expected, option


@pytest.mark.parametrize("case, option, value", [
    ("ref-gen", "--seed", "abc"), ("ref-gen", "--seed", "1.5"), ("ref-gen", "--step", "x"),
    ("ref-gen", "--per-slice", ""), ("ref-gen", "--sd", "abc"),
    ("simulate tests", "--group", "2.5"), ("simulate tests", "--per-date", "1e3"),
    ("simulate tests", "--sd", "20x"), ("simulate convert", "--group", "three"),
    ("lookup build", "--bucket-width", "wide"), ("lookup query", "--value", "-"),
    ("hist", "--bins", "4.0"),
])
def test_malformed_config_value_exits_2_with_the_flags_message(config_inputs, tmp_path, case,
                                                                 option, value):
    _, options = CONFIG_CASES[case]
    flags = {key: v for key, v in options.items() if key != option}
    code, _, err, files = run_case(case, config_inputs, tmp_path / "flag",
                                   {**flags, option: value}, {}, None)
    assert code == 2 and f"argument {option}: invalid" in err and not files
    got = run_case(case, config_inputs, tmp_path / "config", flags, {option: value},
                   tmp_path / "bad.cfg")
    assert got == (code, "", err, {})


def test_unknown_config_keys_are_ignored(config_inputs, tmp_path):
    # keys that name no option, or an argument that is not an option taking a value
    _, options = CONFIG_CASES["ref-gen"]
    expected = run_case("ref-gen", config_inputs, tmp_path / "flags", options, {}, None)
    unknown = {"--workers": "1", "--no-such-key": "x", "--subcommand": "hist", "--action": "x",
               "--file": "x", "--help": "x", "--version": "x", "--at": "abc", "--ages": "x"}
    got = run_case("ref-gen", config_inputs, tmp_path / "unknown", options, unknown,
                   tmp_path / "unknown.cfg")
    assert got == expected


def test_flag_beats_a_config_entry_it_would_reject(config_inputs, tmp_path):
    _, options = CONFIG_CASES["ref-gen"]
    expected = run_case("ref-gen", config_inputs, tmp_path / "flags", options, {}, None)
    config = {"--seed": "x", "--step": "x", "--per-slice": "-", "--sd": "abc", "--label": "other"}
    got = run_case("ref-gen", config_inputs, tmp_path / "both", options, config,
                   tmp_path / "both.cfg")
    assert got == expected


@pytest.mark.parametrize("argv, message", [
    (["ref-gen", "--curve", "{curve}", "--label", "x", "--step", "5", "--per-slice", "1",
      "--sd", "5", "--span=-100:abc", "--out", "{out}/r.csv"],
     "--span OLD:YOUNG must be finite years, got '-100:abc'"),
    (["ref-gen", "--curve", "{curve}", "--label", "x", "--step", "5", "--per-slice", "1",
      "--sd", "5", "--span", "100bcd:-50", "--out", "{out}/r.csv"],
     "--span OLD:YOUNG must be finite years, got '100bcd:-50'"),
    (["curve", "info", "{curve}", "--at", "abc"],
     "--at must be comma-separated finite years, got 'abc'"),
    (["curve", "info", "{curve}", "--at", "-150,0,abc"],
     "--at must be comma-separated finite years, got '-150,0,abc'"),
    (["curve", "info", "{curve}", "--at", "-150,"],
     "--at must be comma-separated finite years, got '-150,'"),
    (["simulate", "tests", "--curve", "{curve}", "--dates=-100:0:abc", "--per-date", "1",
      "--sd", "20", "--out", "{out}/t.csv"],
     "--dates START:END:STEP must be finite numbers, got '-100:0:abc'"),
    (["simulate", "tests", "--curve", "{curve}", "--dates", "ABC:0:5", "--per-date", "1",
      "--sd", "20", "--out", "{out}/t.csv"],
     "--dates START:END:STEP must be finite numbers, got 'ABC:0:5'"),
])
def test_malformed_date_names_its_flag_and_whole_value(curve_file, tmp_path, capsys, argv,
                                                      message):
    out = tmp_path / "out"
    out.mkdir()
    capsys.readouterr()
    assert run(*[a.format(curve=curve_file, out=out) for a in argv]) == 4
    # curve info prints nothing before it has parsed every --at date
    assert capsys.readouterr() == ("", f"error: data: {message}\n")
    assert not any(out.iterdir())


@pytest.mark.parametrize("source, message", [
    ("--sd abc", "--sd must be finite and >= 0, got 'abc'"),
    ("--sd 20,x", "--sd must be finite and >= 0, got 'x'"),
    ("age,sd\n2087,20\n2097,\n", "ages file {path} row 2: sd must be finite and >= 0, got ''"),
    ("AGE,SD\n2087,nan\n", "ages file {path} row 1: sd must be finite and >= 0, got 'nan'"),
    ("# note=x\nsd,age\n20,2087\n-1,2097\n",
     "ages file {path} row 2: sd must be finite and >= 0, got '-1'"),
    ("age,error\n2087,20\n", "cannot find a sd column in {path}; columns are ['age', 'error']"),
])
def test_malformed_sd_names_where_it_came_from(pipeline, tmp_path, capsys, source, message):
    path = tmp_path / "ages.csv"
    if source.startswith("--sd"):
        measurements = ["--ages", "2087,2097", "--sd", source.split(" ")[1]]
    else:
        path.write_text(source)
        measurements = ["--ages-file", path]
    capsys.readouterr()
    assert run("finedate", "--ref", pipeline / "ref.csv", *measurements,
               "--out", tmp_path / "report") == 4
    assert capsys.readouterr().err == f"error: data: {message.format(path=path)}\n"
    assert sorted(tmp_path.iterdir()) == ([path] if path.exists() else [])


def test_same_seed_produces_byte_identical_csvs(curve_file, tmp_path):
    outputs = []
    for name in ("a", "b"):
        base = tmp_path / name
        base.mkdir()
        ref = base / "ref.csv"
        tests = base / "tests.csv"
        eval_dir = base / "eval"
        assert run("--seed", 77, "ref-gen", "--curve", curve_file,
                   "--label", "5_10_20", "--out", ref) == 0
        assert run("--seed", 78, "simulate", "tests", "--curve", curve_file,
                   "--dates", "-150:-130:10", "--per-date", 3, "--sd", 20, "--out", tests) == 0
        assert run("evaluate", "--ref", ref, "--tests", tests, "--out", eval_dir) == 0
        assert run("lookup", "build", "--eval", eval_dir / "eval_long.csv",
                   "--out", base / "lookup.csv") == 0
        csvs = sorted(p.relative_to(base) for p in base.rglob("*.csv"))
        outputs.append({str(p): (base / p).read_bytes() for p in csvs})
    assert outputs[0].keys() == outputs[1].keys()
    for key in outputs[0]:
        assert outputs[0][key] == outputs[1][key], f"{key} differs between runs"


@pytest.mark.parametrize("command", ["finedate", "ref-gen", "simulate-tests"])
def test_bad_sd_is_data_error(pipeline, curve_file, tmp_path, capsys, command):
    argv = {
        "finedate": ["finedate", "--ref", pipeline / "ref.csv", "--ages", 2000, "--sd", "nan",
                     "--out", tmp_path / "report"],
        "ref-gen": ["ref-gen", "--curve", curve_file, "--label", "x", "--step", 5,
                    "--per-slice", 1, "--sd", -3, "--span", "-50:0", "--out", tmp_path / "ref.csv"],
        "simulate-tests": ["simulate", "tests", "--curve", curve_file, "--dates", "-100:-100:5",
                           "--per-date", 1, "--sd", "nan", "--out", tmp_path / "tests.csv"],
    }[command]
    assert run(*argv) == 4
    assert "sd must be finite and >= 0" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_evaluate_rejects_a_bad_sd_before_writing(pipeline, tmp_path, capsys):
    lines = (pipeline / "tests.csv").read_text().splitlines()
    columns = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    for i in range(columns + 4, columns + 7):  # the rows of the second dataset
        cells = lines[i].split(",")
        cells[3] = "-3"
        lines[i] = ",".join(cells)
    bad = tmp_path / "tests.csv"
    bad.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run("evaluate", "--ref", pipeline / "ref.csv", "--tests", bad,
               "--out", tmp_path / "eval") == 4
    assert f"dataset 2: sd must be finite and >= 0, got -3.0 in {bad}" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["tests.csv"]


@pytest.mark.parametrize("artifact", ["tests", "eval", "lookup", "tests-last-dataset"])
def test_file_cut_at_a_line_break_is_data_error(pipeline, lookup_file, tmp_path, capsys, artifact):
    source = {"tests": pipeline / "tests.csv", "eval": pipeline / "eval" / "eval_long.csv",
              "lookup": lookup_file, "tests-last-dataset": pipeline / "tests.csv"}[artifact]
    lines = source.read_text().splitlines()
    cut = tmp_path / "cut.csv"
    # the last line alone: the last dataset loses a row, the datasets count holds
    kept = lines[:-1] if artifact == "tests-last-dataset" else lines[: len(lines) // 2]
    cut.write_text("\n".join(kept) + "\n")
    evaluate = ("evaluate", "--ref", pipeline / "ref.csv", "--tests", cut, "--out", tmp_path / "ev")
    argv = {
        "tests": evaluate,
        "eval": ("lookup", "build", "--eval", cut, "--out", tmp_path / "lookup.csv"),
        "lookup": ("lookup", "query", "--table", cut, "--indicator", "CalDate_Median",
                   "--value", -140),
        "tests-last-dataset": evaluate,
    }[artifact]
    capsys.readouterr()
    assert run(*argv) == 4
    key, declared = {"tests": ("datasets", 20), "eval": ("rows", 240),
                     "lookup": ("buckets", len(fd.read_lookup(lookup_file))),
                     "tests-last-dataset": ("rows", 60)}[artifact]
    assert re.search(rf"corrupt file: {re.escape(str(cut))} holds \d+ {key}, "
                     rf"its header says {declared}$", capsys.readouterr().err, re.M)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cut.csv"]


def cut_last_row(source, target) -> int:
    """Copy a CSV without the last cell of its last row; return that line's number."""
    lines = source.read_text().splitlines()
    lines[-1] = lines[-1].rsplit(",", 1)[0]
    target.write_text("\n".join(lines) + "\n")
    return len(lines)


@pytest.mark.parametrize("artifact", ["lookup", "tests", "eval"])
def test_ragged_row_is_data_error(pipeline, tmp_path, capsys, artifact):
    eval_long = pipeline / "eval" / "eval_long.csv"
    bad = tmp_path / "bad.csv"
    if artifact == "lookup":
        assert run("lookup", "build", "--eval", eval_long, "--out", tmp_path / "lookup.csv") == 0
        lineno = cut_last_row(tmp_path / "lookup.csv", bad)
        argv = ("lookup", "query", "--table", bad, "--indicator", "CalDate_Median", "--value", -140)
    elif artifact == "tests":
        lineno = cut_last_row(pipeline / "tests.csv", bad)
        argv = ("evaluate", "--ref", pipeline / "ref.csv", "--tests", bad, "--out", tmp_path / "ev")
    else:
        lineno = cut_last_row(eval_long, bad)
        argv = ("lookup", "build", "--eval", bad, "--out", tmp_path / "out.csv")
    capsys.readouterr()
    assert run(*argv) == 4
    err = capsys.readouterr().err
    assert f"ragged row in {bad} at line {lineno}" in err


@pytest.mark.parametrize("damage", ["shifted", "gap", "no-width", "width-abc", "tolerances",
                                    "far"])
def test_corrupt_lookup_is_data_error(pipeline, tmp_path, capsys, damage):
    built, bad = tmp_path / "lookup.csv", tmp_path / "bad.csv"
    assert run("lookup", "build", "--eval", pipeline / "eval" / "eval_long.csv",
               "--out", built) == 0
    lines = built.read_text().splitlines()
    first = next(i for i, line in enumerate(lines) if line.startswith("BucketLeft")) + 1
    lefts = [float(line.split(",", 1)[0]) for line in lines[first:]]
    assert len(lefts) >= 3
    value = lefts[1] + 1.0
    if damage == "shifted":
        # every left off the width grid: a query used to end in a KeyError
        lines[first:] = [f"{left + 2.5:g},{line.split(',', 1)[1]}"
                         for left, line in zip(lefts, lines[first:])]
        value = lefts[1] + 3.0
    elif damage == "gap":
        del lines[first + 1]
    elif damage == "far":  # a first bucket index past int64, never cast to int
        lines[first:] = [f"1e300,{line.split(',', 1)[1]}" for line in lines[first:]]
    elif damage == "no-width":
        lines.remove("# bucket_width=5")
    elif damage == "width-abc":
        lines[lines.index("# bucket_width=5")] = "# bucket_width=abc"
    else:
        lines[lines.index("# tolerances=12;25")] = "# tolerances=10;25"
    bad.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run("lookup", "query", "--table", bad, "--indicator", "CalDate_Median",
               "--value", value) == 4
    err = capsys.readouterr().err
    assert "corrupt lookup:" in err and str(bad) in err


@pytest.mark.parametrize("case", ["dates-inf", "dates-nan", "ages-inf", "width-nan", "width-inf",
                                  "span-inf"])
def test_non_finite_number_names_flag_and_rule(pipeline, curve_file, tmp_path, capsys, case):
    argv, message = {
        "dates-inf": (["simulate", "tests", "--curve", curve_file, "--dates", "-300:inf:5",
                       "--per-date", 1, "--sd", 20, "--out", tmp_path / "tests.csv"],
                      "--dates START:END:STEP must be finite numbers, got '-300:inf:5'"),
        "dates-nan": (["simulate", "tests", "--curve", curve_file, "--dates", "-300:0:nan",
                       "--per-date", 1, "--sd", 20, "--out", tmp_path / "tests.csv"],
                      "--dates START:END:STEP must be finite numbers, got '-300:0:nan'"),
        "ages-inf": (["finedate", "--ref", pipeline / "ref.csv", "--ages", "2000,inf", "--sd", 20,
                      "--out", tmp_path / "report"],
                     "--ages must be an integer, got 'inf'"),
        "width-nan": (["lookup", "build", "--eval", pipeline / "eval" / "eval_long.csv",
                       "--bucket-width", "nan", "--out", tmp_path / "lookup.csv"],
                      "--bucket-width must be a finite number, got nan"),
        "width-inf": (["lookup", "build", "--eval", pipeline / "eval" / "eval_long.csv",
                       "--bucket-width", "inf", "--out", tmp_path / "lookup.csv"],
                      "--bucket-width must be a finite number, got inf"),
        "span-inf": (["ref-gen", "--curve", curve_file, "--label", "x", "--step", 5,
                      "--per-slice", 1, "--sd", 5, "--span", "-100:inf", "--out", tmp_path / "r.csv"],
                     "--span OLD:YOUNG must be finite years, got '-100:inf'"),
    }[case]
    capsys.readouterr()
    assert run(*argv) == 4
    assert message in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_table_without_checksum_is_data_error(pipeline, tmp_path, capsys):
    bad = tmp_path / "ref.csv"
    lines = (pipeline / "ref.csv").read_text().splitlines()
    bad.write_text("".join(line + "\n" for line in lines if not line.startswith("# checksum=")))
    capsys.readouterr()
    assert run("finedate", "--ref", bad, "--ages", 2000, "--sd", 20,
               "--out", tmp_path / "report") == 4
    assert "has no checksum header" in capsys.readouterr().err


@pytest.mark.parametrize("header, value, message", [
    ("records", "abc", "holds 1300 rows, its records header says abc"),
    ("checksum", "abc", "checksum mismatch in"),
    ("spec", "5_20_5,x,20,5,-300,20,11", "bad spec header in"),
    ("spec", "5_20_5,5,20,abc,-300,20,11", "bad spec header in"),
    ("spec", "5_20_5,5,20,5,-300,1e400,11", "bad spec header in"),  # an infinite span
])
def test_unparsable_table_header_names_the_file(pipeline, tmp_path, capsys, header, value,
                                                message):
    bad = tmp_path / "ref.csv"
    lines = (pipeline / "ref.csv").read_text().splitlines()
    i = next(i for i, line in enumerate(lines) if line.startswith(f"# {header}="))
    lines[i] = f"# {header}={value}"
    bad.write_text("".join(line + "\n" for line in lines))
    capsys.readouterr()
    assert run("finedate", "--ref", bad, "--ages", 2000, "--sd", 20,
               "--out", tmp_path / "report") == 4
    err = capsys.readouterr().err
    assert "corrupt table:" in err and str(bad) in err and message in err


@pytest.mark.parametrize("header, value", [("records", "abc"), ("checksum", "abc"),
                                           ("spec", "5_20_5,x,20,5,-300,20,11")])
def test_sidecar_leaves_table_errors_unchanged(pipeline, tmp_path, capsys, header, value):
    errors = []
    for name in ("csv-only", "with-sidecar"):
        bad = tmp_path / name / "ref.csv"
        bad.parent.mkdir()
        lines = (pipeline / "ref.csv").read_text().splitlines()
        i = next(i for i, line in enumerate(lines) if line.startswith(f"# {header}="))
        lines[i] = f"# {header}={value}"
        bad.write_text("".join(line + "\n" for line in lines))
        if name == "with-sidecar":
            shutil.copyfile(csvio.sidecar_path(pipeline / "ref.csv"), csvio.sidecar_path(bad))
        capsys.readouterr()
        assert run("finedate", "--ref", bad, "--ages", 2000, "--sd", 20,
                   "--out", tmp_path / "report") == 4
        errors.append(capsys.readouterr().err.replace(str(bad), "<path>"))
    assert errors[0] == errors[1]


def test_non_utf8_table_names_the_file(tmp_path, capsys):
    bad = tmp_path / "garbage.csv"
    bad.write_bytes(bytes(range(256)) * 4)
    assert run("finedate", "--ref", bad, "--ages", 2000, "--sd", 20,
               "--out", tmp_path / "report") == 4
    err = capsys.readouterr().err
    assert f"error: data: corrupt file: {bad} is not UTF-8 text" in err
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["garbage.csv"]


def test_failed_sidecar_write_leaves_no_table(curve_file, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(csvio, "_write_sidecar",
                        mock.Mock(side_effect=OSError("No space left on device")))
    assert run("--seed", 11, "ref-gen", "--curve", curve_file, "--label", "5_20_5",
               "--out", tmp_path / "ref.csv") == 3
    assert "error: io: No space left on device" in capsys.readouterr().err
    assert not [p.name for p in tmp_path.iterdir() if p.name.startswith("ref.csv")]
    assert not any(tmp_path.iterdir())  # nor its manifest


def test_failed_summary_write_leaves_the_report_unchanged(pipeline, tmp_path, capsys,
                                                          monkeypatch):
    ref = pipeline / "ref.csv"
    ages = sorted(set(fd.read_table(ref).age.tolist()))
    out = tmp_path / "report"
    assert run("finedate", "--ref", ref, "--ages", ages[0], "--sd", 20, "--out", out) == 0
    before = files_under(tmp_path)
    assert sorted(before) == ["report_manifest.txt", "report_overview.csv",
                              "report_summary.csv"]
    real_open = open

    def failing_open(path, *args, **kwargs):
        if Path(path).name.startswith("report_summary.csv.tmp-"):
            raise OSError("No space left on device")
        return real_open(path, *args, **kwargs)

    monkeypatch.setattr(csvio, "open", failing_open, raising=False)
    capsys.readouterr()
    assert run("finedate", "--ref", ref, "--ages", f"{ages[1]},{ages[2]}", "--sd", 20,
               "--out", out) == 3
    assert "error: io: No space left on device" in capsys.readouterr().err
    assert files_under(tmp_path) == before


def test_only_evaluate_of_the_benchmark_commands_forks(curve_file, tmp_path, monkeypatch):
    # the benchmark's commands at its sizes: a 3,250-row table, ts3's 18,300
    # records, and the 1.24 million cells of their evaluation, on two CPUs
    monkeypatch.setattr(csvio, "_usable_cpus", lambda: 2)
    ref, tests, out, lookup = (tmp_path / name for name in ("ref.csv", "tests.csv", "eval",
                                                            "lookup.csv"))
    commands = {
        "ref-gen": lambda: ["--seed", 1, "ref-gen", "--curve", curve_file, "--label", "5_50_5",
                            "--out", ref],
        "simulate tests": lambda: ["--seed", 1, "simulate", "tests", "--curve", curve_file,
                                   "--dates=-300:0:5", "--per-date", 100, "--group", 3,
                                   "--sd", 20, "--out", tests],
        "evaluate": lambda: ["evaluate", "--ref", ref, "--tests", tests, "--curve", curve_file,
                             "--out", out],
        "lookup build": lambda: ["lookup", "build", "--eval", out / "eval_long.csv",
                                 "--out", lookup],
        "finedate": lambda: ["finedate", "--ref", ref, "--ages",
                             ",".join(map(str, fd.read_tests(tests).age[:3].tolist())),
                             "--sd", 20, "--out", tmp_path / "report"],
        "lookup query": lambda: ["lookup", "query", "--table", lookup, "--indicator",
                                 "CalDate_Median", "--value=-150"],
    }
    forks = {}
    for name, argv in commands.items():
        with mock.patch.object(os, "fork", wraps=os.fork) as fork, redirect_stdout(io.StringIO()):
            assert run(*argv()) == 0
        forks[name] = fork.call_count
    assert forks == {"ref-gen": 0, "simulate tests": 0, "evaluate": 1, "lookup build": 0,
                     "finedate": 0, "lookup query": 0}
    assert len(fd.read_table(ref).id) == 3250


def test_killed_formatting_child_gives_the_serial_files(pipeline, tmp_path, capsys,
                                                       monkeypatch):
    # steps of 16 rows, each odd one sent by a child that is killed instead:
    # the writer formats them itself
    monkeypatch.setattr(csvio, "_CHUNK", 16)
    monkeypatch.setattr(csvio, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(csvio, "_send_step", lambda *args: os.kill(os.getpid(), signal.SIGKILL))
    written, forks = {}, {}
    for mode, cells in (("killed", 0), ("serial", 10**18)):
        monkeypatch.setattr(csvio, "_FORK_CELLS", cells)
        with mock.patch.object(os, "fork", wraps=os.fork) as fork:
            assert run("evaluate", "--ref", pipeline / "ref.csv", "--tests",
                       pipeline / "tests.csv", "--out", tmp_path / mode / "eval") == 0
        written[mode], forks[mode] = files_under(tmp_path / mode / "eval"), fork.call_count
    assert forks == {"killed": 1, "serial": 0}
    assert "eval_long.csv" in written["killed"]
    assert written["killed"] == written["serial"]
    assert capsys.readouterr().err == ""


def files_under(base) -> dict:
    """Every file under ``base``, by its path relative to ``base``, and
    its bytes."""
    return {p.relative_to(base).as_posix(): p.read_bytes() for p in base.rglob("*")
            if p.is_file()}


def test_finedate_writes_its_manifest_beside_the_report(pipeline, tmp_path):
    ref = pipeline / "ref.csv"
    age = fd.read_table(ref).age[0]
    for out in ("report", "report.csv"):
        assert run("finedate", "--ref", ref, "--ages", age, "--sd", 20,
                   "--out", tmp_path / out) == 0
    assert sorted(files_under(tmp_path)) == [
        "report.csv_manifest.txt", "report.csv_overview.csv", "report.csv_summary.csv",
        "report_manifest.txt", "report_overview.csv", "report_summary.csv"]
    header = csvio.read_commented_csv(tmp_path / "report_summary.csv")[0]
    assert header["manifest"] == "report_manifest.txt"


def test_fresh_sidecars_skip_the_parse_and_change_no_output(curve_file, tmp_path):
    # evaluate --tests on a fresh tests.csv and lookup build --eval on a fresh
    # eval_long.csv parse no CSV body; the same commands on the same CSVs
    # without their sidecars parse them and write the same bytes.
    fresh, bare = tmp_path / "fresh", tmp_path / "bare"
    ref, tests = fresh / "ref.csv", fresh / "tests.csv"
    assert run("--seed", 11, "ref-gen", "--curve", curve_file, "--label", "5_20_5",
               "--out", ref) == 0
    assert run("--seed", 12, "simulate", "tests", "--curve", curve_file,
               "--dates", "-160:-120:10", "--per-date", 4, "--group", 3, "--sd", 20,
               "--out", tests) == 0
    bare.mkdir()
    for path in (ref, tests):
        shutil.copyfile(path, bare / path.name)
    outputs = {}
    for base in (fresh, bare):
        with mock.patch.object(csvio, "_read_lines", wraps=csvio._read_lines) as parse:
            assert run("evaluate", "--ref", base / "ref.csv", "--tests", base / "tests.csv",
                       "--out", base / "eval") == 0
            written = files_under(base / "eval")
            if base == bare:
                csvio.sidecar_path(base / "eval" / "eval_long.csv").unlink()
            assert run("lookup", "build", "--eval", base / "eval" / "eval_long.csv",
                       "--out", base / "lookup.csv") == 0
        assert parse.called == (base == bare)
        outputs[base.name] = {**written, **{name: (base / name).read_bytes()
                                            for name in ("lookup.csv", "lookup_manifest.txt")}}
    assert "eval_long.csv.cols" in outputs["fresh"]
    assert outputs["fresh"] == outputs["bare"]


STUDY_CURVE = fd.synthetic_study_curve()


@st.composite
def small_pipelines(draw):
    """A seed and, for any seed, the argv of each command of a small
    pipeline: a table of 10-20 one-year steps, so dense that a test
    measurement inside its span all but surely matches, 1-2 test
    measurements (so few that two seeds often write tests files of one
    byte length), a few measured ages and one lookup query.  Paths are
    relative to the directory the pipeline runs in."""
    old = draw(st.integers(-300, -150))
    young = old + draw(st.integers(10, 20))
    first = draw(st.integers(old, young - 1))
    dates = f"{first}:{draw(st.integers(first, young))}:{young - old}"
    near = round(fd.curve_at(STUDY_CURVE, draw(st.integers(old, young)))[0])
    ages = ",".join(map(str, draw(st.lists(st.integers(near - 20, near + 20), min_size=1,
                                           max_size=6))))
    fixed = {
        "table": ["--step", 1, "--per-slice", draw(st.integers(20, 30)),
                  "--sd", draw(st.sampled_from([10, 20])), "--span", f"{old}:{young}"],
        "tests": ["--dates", dates, "--per-date", 1, "--group", draw(st.integers(1, 2)),
                  "--sd", 5],
        "width": draw(st.sampled_from([2.5, 5, 10])),
        "query": ["--indicator", draw(st.sampled_from(["CalDate_Median", "Mean_Mean",
                                                       "unique_CalDate_Mean"])),
                  "--value", draw(st.integers(old, young))],
    }

    def argvs(curve, seed):
        return [
            ["--seed", seed, "ref-gen", "--curve", curve, "--label", "t", *fixed["table"],
             "--out", "ref.csv"],
            ["--seed", seed, "simulate", "tests", "--curve", curve, *fixed["tests"],
             "--out", "tests.csv"],
            ["evaluate", "--ref", "ref.csv", "--tests", "tests.csv", "--out", "eval"],
            ["lookup", "build", "--eval", "eval/eval_long.csv", "--bucket-width",
             fixed["width"], "--out", "lookup.csv"],
            ["finedate", "--ref", "ref.csv", "--ages", ages, "--sd", 20, "--out", "report"],
            ["lookup", "query", "--table", "lookup.csv", *fixed["query"]],
        ]

    return draw(st.integers(0, 2**32 - 2)), argvs


def run_in(base, argvs, before_each=lambda: None) -> tuple[list, dict]:
    """Run each argv in process with ``base`` as the working directory,
    calling ``before_each`` before each: each command's exit code, stdout
    and stderr, and then every file under ``base`` (:func:`files_under`)."""
    base.mkdir(exist_ok=True)
    calls = []
    cwd = os.getcwd()
    os.chdir(base)
    try:
        for argv in argvs:
            before_each()
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = run(*argv)
            calls.append((code, out.getvalue(), err.getvalue()))
    finally:
        os.chdir(cwd)
    return calls, files_under(base)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(pipeline=small_pipelines())
def test_sidecar_cache_changes_no_output(curve_file, tmp_path_factory, pipeline):
    # The whole pipeline gives the same exit codes, messages, CSVs and
    # manifests whatever state its sidecars are in: fresh, deleted before
    # each command, replaced before each command by another seed's (a stale
    # cache), or left over, with every other output, from another seed's run;
    # that rerun also writes the fresh run's sidecars byte for byte.
    seed, argvs = pipeline
    base = tmp_path_factory.mktemp("cache")
    other = base / "other"
    run_in(other, argvs(curve_file, seed + 1))
    shutil.copytree(other, base / "rerun")

    def delete(mode):
        for sidecar in mode.rglob("*.cols"):
            sidecar.unlink()

    def swap(mode):
        for sidecar in mode.rglob("*.cols"):
            stale = other / sidecar.relative_to(mode)
            if stale.exists():
                shutil.copyfile(stale, sidecar)
            else:
                sidecar.unlink()

    calls, fresh = run_in(base / "fresh", argvs(curve_file, seed))
    # every command up to lookup build succeeds, so that no later command of
    # the rerun reads an input that only the other seed's run wrote
    assert [code for code, _, _ in calls[:4]] == [0] * 4
    assert any(name.endswith(".cols") for name in fresh)
    def without_sidecars(files):
        return {name: data for name, data in files.items() if not name.endswith(".cols")}

    for mode, spoil in [(base / "deleted", delete), (base / "swapped", swap)]:
        got_calls, got = run_in(mode, argvs(curve_file, seed), lambda: spoil(mode))
        assert got_calls == calls, mode.name
        assert without_sidecars(got) == without_sidecars(fresh), mode.name
    # the rerun keeps the files that only the other seed's run wrote, such as
    # a report where this seed's finedate matched nothing
    got_calls, got = run_in(base / "rerun", argvs(curve_file, seed))
    assert got_calls == calls
    assert {name: got.get(name) for name in fresh} == fresh


@pytest.mark.parametrize("sd", ["1e200", "1e19", "1.7e308"])
@pytest.mark.parametrize("command", ["ref-gen", "simulate-tests"])
def test_sd_too_large_to_draw_is_data_error(curve_file, tmp_path, capsys, command, sd):
    # 1e200 overflows the draw scale; 1e19 rounds draws past int64
    argv = {
        "ref-gen": ["ref-gen", "--curve", curve_file, "--label", "x", "--step", 5,
                    "--per-slice", 3, "--sd", sd, "--span", "-50:0", "--out", tmp_path / "r.csv"],
        "simulate-tests": ["simulate", "tests", "--curve", curve_file, "--dates", "-100:-90:5",
                           "--per-date", 2, "--sd", sd, "--out", tmp_path / "t.csv"],
    }[command]
    assert run(*argv) == 4
    assert (f"sd {float(sd)!r} is too large to simulate: the draw scale sqrt(sd^2 + curve "
            f"error^2) must be finite and every rounded draw must fit in a 64-bit integer"
            ) in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv, message", [
    (["ref-gen", "--step", 10**30], "span (-50.0, 0.0) is not a whole number of"),
    (["ref-gen", "--per-slice", 10**12], "more than the 10000000 allowed"),
    (["simulate", "--per-date", 2**63], "more than the 10000000 allowed"),
    (["simulate", "--group", 10**9], "more than the 10000000 allowed"),
    (["simulate", "--dates", "0:1e18:1"], "--dates '0:1e18:1' gives more than 10000000 dates"),
    (["ref-gen", "--span", "-1e308:1e308"], "is not a whole number of"),
])
def test_record_count_beyond_the_bound_is_data_error(curve_file, tmp_path, capsys, argv,
                                                      message):
    command, flag, value = argv
    flags = {"ref-gen": {"--step": 5, "--per-slice": 2, "--sd": 5, "--span": "-50:0"},
             "simulate": {"--dates": "-100:-90:5", "--per-date": 2, "--group": 3, "--sd": 20}}
    base = ["ref-gen", "--label", "x"] if command == "ref-gen" else ["simulate", "tests"]
    options = {**flags[command], flag: value}
    assert run(*base, "--curve", curve_file, *[f"{k}={v}" for k, v in options.items()],
               "--out", tmp_path / "out.csv") == 4
    assert message in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


# --- fuzzed numeric flags -----------------------------------------------------

NON_FINITE = st.sampled_from(["nan", "NaN", "-nan", "inf", "-inf", "+Infinity", "1e309"])
EMPTY = st.sampled_from(["", " "])
NON_NUMERIC = st.one_of(st.sampled_from(["abc", "5x", "x5", "1e", "--", "0x10", "1.2.3", "e5"]),
                        st.from_regex(r"[a-df-hj-mo-z]{1,6}", fullmatch=True))
BEYOND_INT64 = st.one_of(st.integers(2**63, 10**40), st.integers(-(10**40), -(2**63) - 1)).map(str)
HUGE_FLOAT = st.integers(309, 5000).flatmap(lambda e: st.sampled_from([f"1e{e}", f"-9e{e}"]))
NEGATIVE_INT = st.integers(-(10**6), -1).map(str)
NEGATIVE_FLOAT = st.floats(-1e300, -1e-300).map(repr)
COUNTS = st.one_of(NON_FINITE, EMPTY, NON_NUMERIC, BEYOND_INT64, NEGATIVE_INT,
                   st.integers(10**7 + 1, 2**63 - 1).map(str), st.just("0"))
SIM_SD = st.one_of(NON_FINITE, EMPTY, NON_NUMERIC, HUGE_FLOAT, NEGATIVE_FLOAT,
                   st.floats(1e19, 1e308).map(repr))


@st.composite
def triples(draw, parts: int):
    """START:END[:STEP] with one part malformed (or a step of zero or
    below, or a range of more dates than a series may hold)."""
    good = ["-100", "-90", "5"][:parts]
    i = draw(st.integers(0, parts - 1))
    good[i] = draw(st.one_of(NON_FINITE, EMPTY, NON_NUMERIC, HUGE_FLOAT))
    bad = [":".join(good)]
    if parts == 3:
        bad += [f"-100:-90:{draw(st.one_of(st.just('0'), NEGATIVE_FLOAT))}",
                f"0:{draw(st.floats(1e8, 1e300))!r}:1"]
    else:
        bad += [f"-100:{draw(st.floats(1e6, 1e300))!r}", "-90:-100", "-100:-100"]
    if parts == 3:
        bad.append("-100:-90")  # a valid --span, so malformed only as --dates
    return draw(st.sampled_from(bad + ["1:2:3:4", "-100"]))


# Per command: the other options, and a strategy of malformed values per
# numeric flag.  Negative values are malformed only where the flag's
# domain excludes them: ages, dates and lookup values may be negative.
FUZZED = {
    "ref-gen": (["ref-gen", "--label", "x"],
                {"--step": "5", "--per-slice": "2", "--sd": "5", "--span": "-50:0"},
                {"--step": COUNTS, "--per-slice": COUNTS, "--sd": SIM_SD,
                 "--span": triples(2), "--seed": st.one_of(NON_FINITE, EMPTY, NON_NUMERIC,
                                                           NEGATIVE_INT)}),
    "simulate tests": (["simulate", "tests"],
                       {"--dates": "-100:-90:5", "--per-date": "2", "--group": "3", "--sd": "20"},
                       {"--dates": triples(3), "--per-date": COUNTS, "--group": COUNTS,
                        "--sd": SIM_SD, "--seed": st.one_of(NON_FINITE, EMPTY, NON_NUMERIC,
                                                            NEGATIVE_INT)}),
    "finedate": (["finedate"], {"--ages": "2000", "--sd": "20"},
                 {"--ages": st.one_of(NON_FINITE, EMPTY, NON_NUMERIC, BEYOND_INT64, HUGE_FLOAT,
                                      st.floats(-1e6, 1e6).filter(lambda x: x != int(x)).map(repr)),
                  "--sd": st.one_of(NON_FINITE, EMPTY, NON_NUMERIC, HUGE_FLOAT,
                                    NEGATIVE_FLOAT)}),
    "lookup build": (["lookup", "build"], {"--bucket-width": "5"},
                     {"--bucket-width": st.one_of(NON_FINITE, EMPTY, NON_NUMERIC, HUGE_FLOAT,
                                                  NEGATIVE_FLOAT, st.just("0"),
                                                  st.floats(1e-300, 1e-5).map(repr))}),
    "hist": (["hist", "--col", "age_bp"], {"--bins": "5"},
             {"--bins": st.one_of(NON_FINITE, EMPTY, NON_NUMERIC, BEYOND_INT64, NEGATIVE_INT,
                                  st.integers(10**6 + 1, 10**40).map(str), st.just("0"))}),
    "lookup query": (["lookup", "query", "--indicator", "CalDate_Median"], {"--value": "-140"},
                     {"--value": st.one_of(NON_FINITE, EMPTY, NON_NUMERIC, HUGE_FLOAT,
                                           st.floats(1e10, 1e308).map(repr),
                                           st.floats(-1e308, -1e10).map(repr))}),
}


@st.composite
def fuzzed_calls(draw):
    command = draw(st.sampled_from(list(FUZZED)))
    base, options, malformed = FUZZED[command]
    flag = draw(st.sampled_from(list(malformed)))
    return command, base, {**options, flag: draw(malformed[flag])}, flag


@pytest.fixture(scope="module")
def lookup_file(pipeline, tmp_path_factory):
    path = tmp_path_factory.mktemp("lookup") / "lookup.csv"
    assert run("lookup", "build", "--eval", pipeline / "eval" / "eval_long.csv",
               "--out", path) == 0
    return path


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(call=fuzzed_calls())
def test_malformed_numeric_flag_exits_cleanly(pipeline, curve_file, lookup_file,
                                              tmp_path_factory, call):
    command, base, options, flag = call
    out_dir = tmp_path_factory.mktemp("fuzz")
    inputs = {"ref-gen": ["--curve", curve_file], "simulate tests": ["--curve", curve_file],
              "finedate": ["--ref", pipeline / "ref.csv"],
              "lookup build": ["--eval", pipeline / "eval" / "eval_long.csv"],
              "lookup query": ["--table", lookup_file],
              "hist": ["--in", pipeline / "tests.csv"]}[command]
    outputs = [] if command == "lookup query" else ["--out", out_dir / "out.csv"]
    seed = ["--seed=" + options.pop("--seed")] if "--seed" in options else []
    argv = [*seed, *base, *inputs, *[f"{k}={v}" for k, v in options.items()], *outputs]
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main([str(a) for a in argv])
    assert code in (2, 3, 4), (argv, code)
    assert "Traceback" not in err.getvalue()
    assert not any(out_dir.iterdir()), argv


@pytest.mark.parametrize("sidecar", [False, True], ids=["csv-only", "with-sidecar"])
@pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("column", ["sd", "cal_mean", "cal_median", "cal_sigma"])
def test_non_finite_table_value_is_data_error(pipeline, tmp_path, capsys, column, token,
                                              sidecar):
    # record 7's cell set to the token, under a valid checksum, and a
    # sidecar that holds the same columns, crc32 and byte length
    lines = (pipeline / "ref.csv").read_text().splitlines()
    head = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    names = lines[head].split(",")
    cells = lines[head + 7].split(",")
    assert cells[0] == "7"
    cells[names.index(column)] = token
    lines[head + 7] = ",".join(cells)
    data = lines[head + 1:]
    crc = csvio.rows_checksum(data)
    lines = [f"# checksum={crc}" if line.startswith("# checksum=") else line for line in lines]
    bad = tmp_path / "tables" / "ref.csv"
    bad.parent.mkdir()
    bad.write_text("".join(line + "\n" for line in lines))
    if sidecar:
        table = fd.read_table(pipeline / "ref.csv")
        columns = dict(zip(fd.reftable.TABLE_SCHEMA, table.columns()))
        columns[column] = columns[column].copy()
        columns[column][6] = float(token)
        write_sidecar(bad, {"layout": csvio._LAYOUT, "labels": {}, "crc": crc,
                            "bytes": sum(len(line) + 1 for line in data)}, columns)
        # NaN in a float column is refused by the sidecar read, inf is not
        read = csvio._read_block(bad, "finedating-reftable", fd.reftable.TABLE_SCHEMA, ("spec",))
        assert (read is None) == (token == "nan")
    capsys.readouterr()
    assert run("finedate", "--ref", bad, "--ages", 2000, "--sd", 20,
               "--out", tmp_path / "report") == 4
    err = capsys.readouterr().err
    assert err == (f"error: data: corrupt table: {bad} record 7 has {column} {float(token)}, "
                   "not a finite number\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["tables"]


@pytest.mark.parametrize("column, cell", [("sd", ""), ("age_bp", "3.0")],
                         ids=["blank float cell", "3.0 in int cell"])
def test_cell_the_parser_rejects_names_file_line_and_column(pipeline, tmp_path, capsys, column,
                                                            cell):
    # record 7's cell replaced, under a valid checksum and without a sidecar
    lines = (pipeline / "ref.csv").read_text().splitlines()
    head = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    cells = lines[head + 7].split(",")
    cells[lines[head].split(",").index(column)] = cell
    lines[head + 7] = ",".join(cells)
    crc = csvio.rows_checksum(lines[head + 1:])
    lines = [f"# checksum={crc}" if line.startswith("# checksum=") else line for line in lines]
    bad = tmp_path / "tables" / "ref.csv"
    bad.parent.mkdir()
    bad.write_text("".join(line + "\n" for line in lines))
    capsys.readouterr()
    assert run("finedate", "--ref", bad, "--ages", 2000, "--sd", 20,
               "--out", tmp_path / "report") == 4
    err = capsys.readouterr().err
    assert err.startswith(f"error: data: bad cell in {bad} at line {head + 8}, column {column}: ")
    assert repr(cell) in err and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["tables"]


@pytest.mark.parametrize("damage, message", [
    ("date", "record 7 date inf outside span"),
    ("id", "record ids in {} are not dense from 1"),
])
def test_bad_table_record_names_the_file(pipeline, tmp_path, capsys, damage, message):
    table = fd.read_table(pipeline / "ref.csv")
    column = (table.base_date if damage == "date" else table.id).copy()
    column[6] = np.inf if damage == "date" else 6
    bad = tmp_path / "tables" / "ref.csv"
    with mock.patch.object(fd.reftable, "_validate_table"):  # the writer refuses the table
        fd.write_table(dataclasses.replace(table, **{"base_date" if damage == "date" else "id":
                                                     column}), bad)
    capsys.readouterr()
    assert run("finedate", "--ref", bad, "--ages", 2000, "--sd", 20,
               "--out", tmp_path / "report") == 4
    err = capsys.readouterr().err
    assert err.startswith("error: data: corrupt table: ") and str(bad) in err
    assert message.format(bad) in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["tables"]


@pytest.mark.parametrize("argv", [["hist", "--col", "name"], ["scatter", "--x", "x", "--y", "name"]],
                         ids=["hist", "scatter"])
def test_non_numeric_cell_names_file_line_and_column(tmp_path, capsys, argv):
    src = tmp_path / "s.csv"
    src.write_text("# note=x\nid,name,x\n1,,2\n\n2,abc,3\n3,def,4\n")
    assert run(*argv, "--in", src, "--out", tmp_path / "out.csv") == 4
    assert capsys.readouterr() == ("", f"error: data: bad cell in {src} at line 5, column name: "
                                       "could not convert string to float: 'abc'\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["s.csv"]


def test_non_numeric_cell_is_found_by_its_column_position(tmp_path, capsys):
    # a repeated column name shifts no column: 'abc', under the second x,
    # is neither read nor reported
    src = tmp_path / "s.csv"
    src.write_text("x,y,x,name\n1,2,abc,3\n1,2,3,def\n")
    assert run("hist", "--in", src, "--col", "name", "--out", tmp_path / "h.csv") == 4
    assert capsys.readouterr().err == (f"error: data: bad cell in {src} at line 3, column name: "
                                       "could not convert string to float: 'def'\n")


def test_non_numeric_indicator_value_names_file_line_and_column(pipeline, tmp_path, capsys):
    lines = (pipeline / "eval" / "eval_long.csv").read_text().splitlines()
    columns = next(line for line in lines if not line.startswith("#")).split(",")
    at = [i for i, line in enumerate(lines) if ",Mean_Median," in line][3]
    cells = lines[at].split(",")
    assert cells[columns.index("indicator")] == "Mean_Median"
    cells[columns.index("value")] = "x1"
    lines[at] = ",".join(cells)
    src = tmp_path / "eval_long.csv"
    src.write_text("".join(line + "\n" for line in lines))
    assert run("hist", "--in", src, "--col", "mean median", "--out", tmp_path / "h.csv") == 4
    assert capsys.readouterr().err == (f"error: data: bad cell in {src} at line {at + 1}, "
                                       "column value: could not convert string to float: 'x1'\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["eval_long.csv"]


@pytest.mark.parametrize("line_6", ["y", "14"], ids=["line 6 bad", "only line 3 bad"])
def test_bad_cell_in_a_row_of_another_indicator_is_not_read(tmp_path, capsys, line_6):
    # line 3, a CalDate_Mean row, holds x; hist of Mean_Median reads lines 2, 5 and 6
    src = tmp_path / "eval_long.csv"
    src.write_text("data_id,indicator,value\n1,Mean_Median,10\n1,CalDate_Mean,x\n"
                   f"2,CalDate_Mean,5\n2,Mean_Median,12\n3,Mean_Median,{line_6}\n")
    code = run("hist", "--in", src, "--col", "Mean_Median", "--out", tmp_path / "h.csv")
    err = capsys.readouterr().err
    if line_6 == "y":
        assert (code, err) == (4, f"error: data: bad cell in {src} at line 6, column value: "
                                  "could not convert string to float: 'y'\n")
    else:
        assert (code, err) == (0, "")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["eval_long.csv", "h.csv",
                                                              "h_manifest.txt"]


@pytest.mark.parametrize("text, message", [
    (b"label = 5_10_20\n\xff\xfe = 2\n", "corrupt file: {path} is not UTF-8 text"),
    (b"label = 5_10_20\n\n# note\nno equals sign\n",
     "bad config line 4 in {path}: 'no equals sign'"),
], ids=["not utf-8", "line without ="])
def test_bad_config_file_names_the_file(config_inputs, tmp_path, capsys, text, message):
    path = tmp_path / "bad.cfg"
    path.write_bytes(text)
    assert run("--config", path, "hist", "--in", config_inputs["eval"], "--col", "Mean_Median",
               "--out", tmp_path / "h.csv") == 4
    assert capsys.readouterr() == ("", f"error: data: {message.format(path=path)}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.cfg"]


def case_argv(case: str, flags: dict) -> list[str]:
    """The argv template of ``case`` with ``flags`` on the command line."""
    words, _ = CONFIG_CASES[case]
    seed = ["--seed", flags["--seed"]] if "--seed" in flags else []
    return seed + words + [item for key, value in flags.items() if key != "--seed"
                           for item in (key, value)]


REF_GEN = ["ref-gen", "--curve", "{curve}", "--label", "5_10_20", "--out", "{out}/ref.csv"]
QUERY = ["lookup", "query", "--table", "{lookup}", "--indicator", "caldate median"]
# Argv (templates as in CONFIG_CASES; {cfg} is a config file of the given
# text, {base} the directory of the run) whose parse is not a plain case.
PARSER_EDGE_CASES = {
    "no arguments": ([], None),
    "no subcommand": (["--seed", "3"], None),
    "no subcommand, a config file": (["--config", "{cfg}"], "seed = 3\n"),
    "unknown subcommand": (["nosuch", "--out", "x"], None),
    "unknown subcommand after the seed": (["--seed", "3", "nosuch"], None),
    "abbreviated subcommand": (["fine", "--ages", "1"], None),
    "subcommand as the seed's value": (["--seed", "finedate"], None),
    "-- before the subcommand": (["--", *REF_GEN], None),
    "-h": (["-h"], None),
    "--help": (["--help"], None),
    "--he": (["--he"], None),
    "--version": (["--version"], None),
    "--ver": (["--ver"], None),
    "-h before the subcommand": (["-h", *REF_GEN], None),
    "--version before the subcommand": (["--version", *REF_GEN], None),
    "-h after the subcommand": ([*REF_GEN, "-h"], None),
    "--help after the action": ([*QUERY, "--help"], None),
    "--hel after the subcommand": (["simulate", "--hel"], None),
    "--version after the subcommand": ([*REF_GEN, "--version"], None),
    "--vers after the action": (["simulate", "tests", "--vers"], None),
    "-h as a value": (["ref-gen", "--label", "-h"], None),
    "--help=x": (["finedate", "--help=x"], None),
    "--se": (["--se", "3", *REF_GEN], None),
    "--se=": (["--se=3", *REF_GEN], None),
    "--conf": (["--conf", "{cfg}", *REF_GEN], "label = 5_20_5\n"),
    "abbreviated options": (["lookup", "query", "--tab", "{lookup}", "--ind", "CalDate_Median",
                             "--val", "-140"], None),
    "--v, a prefix of --version and of --value": ([*QUERY, "--v", "-140"], None),
    "ambiguous abbreviation": (["finedate", "--age", "2087"], None),
    "malformed value": ([*REF_GEN, "--step", "x"], None),
    "malformed value of a global option": (["--seed", "x", *REF_GEN], None),
    "negative seed": (["--seed", "-1", *REF_GEN], None),
    "malformed config entry": (["--config", "{cfg}", *REF_GEN], "step = x\n"),
    "malformed config entry of a global option": (["--config", "{cfg}", *REF_GEN], "seed = x\n"),
    "config line without =": (["--config", "{cfg}", *REF_GEN], "no equals sign\n"),
    "missing config file": (["--config", "{base}/none.cfg", *REF_GEN], None),
    "global option after the subcommand": ([*REF_GEN, "--seed", "3"], None),
    "config after the subcommand": ([*REF_GEN, "--config", "{cfg}"], "seed = 3\n"),
    "extra positional": ([*REF_GEN, "extra"], None),
    "missing positional": (["curve", "info"], None),
    "missing positional, a missing config file": (["--config", "{base}/none.cfg", "curve", "info"],
                                                  None),
    "malformed value, a missing config file": (["--config", "{base}/none.cfg", *REF_GEN,
                                                "--step", "x"], None),
    "no action": (["lookup"], None),
    "unknown action": (["simulate", "delete"], None),
    "option of another subcommand": ([*REF_GEN, "--ages", "1"], None),
    "-- as a value": (["finedate", "--sd=--"], None),
}


def parser_corpus():
    """(id, argv template, config text or None): each case with all its
    options as flags, each option in turn as a config entry, and the edge
    cases."""
    for case, (_, options) in CONFIG_CASES.items():
        yield case, case_argv(case, options), None
        for option, value in options.items():
            rest = {key: v for key, v in options.items() if key != option}
            yield (f"{case}, {option} from config", ["--config", "{cfg}", *case_argv(case, rest)],
                   f"{option[2:]} = {value}\n")
    for name, (argv, config) in PARSER_EDGE_CASES.items():
        yield name, argv, config


def through_parser(argv_template, config, inputs, base):
    """What the parse of the argv gives (its namespace, or the exit code
    of a parse that stops) with what it printed, and main's exit code,
    stdout and stderr; ``base`` is written as {base}."""
    base.mkdir()
    paths = {**inputs, "base": base, "out": base / "out", "cfg": base / "run.cfg"}
    paths["out"].mkdir()
    if config is not None:
        paths["cfg"].write_text(config.format(**paths))
    argv = [str(word).format(**paths) for word in argv_template]
    got = []
    for call in (lambda: vars(cli._parse(argv)), lambda: main(argv)):
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            try:
                result = call()
            except SystemExit as exc:
                result = ("exit", exc.code)
            except (OSError, ValueError) as exc:  # a config file's, which main reports
                result = (type(exc).__name__, str(exc))
        got += [result, stdout.getvalue(), stderr.getvalue()]
    return repr(got).replace(str(base), "{base}")


@pytest.mark.parametrize("argv, config", [pytest.param(argv, config, id=name)
                                          for name, argv, config in parser_corpus()])
def test_one_command_parser_gives_what_the_whole_parser_gives(config_inputs, tmp_path, argv,
                                                              config):
    # the merge of negative values runs before either the scan or the parser
    template = cli._merge_negative_values(argv)
    scanned = through_parser(template, config, config_inputs, tmp_path / "scanned")
    with mock.patch.object(cli, "_scan", return_value=None):  # the whole parser only
        whole = through_parser(template, config, config_inputs, tmp_path / "whole")
    assert scanned == whole


@pytest.mark.parametrize("case", list(CONFIG_CASES))
def test_one_command_parser_holds_its_subcommand_and_accepts_its_flags(config_inputs, tmp_path,
                                                                       case):
    # the scan reads each case without the parser, with every option as a
    # flag and with each in turn as a config entry
    _, options = CONFIG_CASES[case]
    paths = {**config_inputs, "out": tmp_path, "cfg": tmp_path / "run.cfg"}
    variants = [(options, {})] + [({key: v for key, v in options.items() if key != option},
                                   {option: value}) for option, value in options.items()]
    for flags, config in variants:
        argv = (["--config", "{cfg}"] if config else []) + case_argv(case, flags)
        argv = cli._merge_negative_values([str(word).format(**paths) for word in argv])
        paths["cfg"].write_text("".join(f"{key[2:]} = {value.format(**paths)}\n"
                                        for key, value in config.items()))
        expected = build_parser().parse_args(argv)
        if config:
            expected = build_parser(cli.load_config(paths["cfg"])).parse_args(argv)
        with mock.patch.object(cli, "build_parser", side_effect=AssertionError("fell back")):
            assert repr(vars(cli._parse(argv))) == repr(vars(expected)), (flags, config)


def declared_scopes():
    """The options of the top-level parser, each subcommand and each action."""
    yield cli.GLOBAL_OPTIONS
    for _, options, actions, _ in cli.COMMANDS.values():
        yield options
        for _, action_options, _ in actions.values():
            yield action_options


SCAN_FLAGS = sorted({name for scope in declared_scopes() for name in scope if name[0] == "-"})
SCAN_WORDS = [*cli.COMMANDS, *(word for _, _, actions, _ in cli.COMMANDS.values()
                               for word in actions)]
# values: numbers, negative numbers, a word, the empty string, '--' and the
# config file, written as {cfg}
SCAN_VALUES = st.sampled_from(["3", "1.5", "0", "-1", "-2.5", "x", "", "--", "{cfg}"])
SCAN_TOKENS = st.one_of(
    st.sampled_from([*SCAN_WORDS, *SCAN_FLAGS, "-h", "--help", "--version", "--"]),
    SCAN_VALUES,
    st.sampled_from(SCAN_FLAGS).flatmap(lambda flag: st.integers(2, len(flag) - 1).map(
        lambda k: flag[:k])),  # a prefix of a flag
)


def flag_with_value(flags):
    """A flag with a value, detached or joined to it by '='."""
    return st.tuples(st.sampled_from(flags), SCAN_VALUES, st.booleans()).map(
        lambda t: [f"{t[0]}={t[1]}"] if t[2] else [t[0], t[1]])


@st.composite
def scanned_calls(draw):
    """(argv template, config text or None): global options, a subcommand
    and its action, then that scope's options, with tokens of the whole
    alphabet mixed in and some tokens left out."""
    command = draw(st.sampled_from(list(cli.COMMANDS)))
    _, options, actions, _ = cli.COMMANDS[command]
    words = [command]
    if actions:
        action = draw(st.sampled_from(list(actions)))
        words.append(action)
        options = actions[action][1]
    flags = [name for name in options if name[0] == "-"]
    positionals = [[draw(st.sampled_from(["x", "{cfg}"]))] for name in options if name[0] != "-"]
    stray = draw(st.booleans())
    tokens = SCAN_TOKENS.map(lambda token: [token]) if stray else st.nothing()
    head = draw(st.lists(flag_with_value(["--seed"]) | st.just(["--config", "{cfg}"]) | tokens,
                         max_size=2))
    tail = draw(st.lists(flag_with_value(flags) | tokens, max_size=5))
    argv = [token for chunk in [*head, words, *positionals, *tail] for token in chunk]
    if stray:
        argv = [token for token in argv if draw(st.integers(0, 9))]
    # config entries, mostly of the flags this argv may give; None for no file
    entries = st.tuples(st.sampled_from(["--seed", *flags]) | st.sampled_from(SCAN_FLAGS),
                        SCAN_VALUES.filter(lambda v: v != "{cfg}"))
    config = draw(st.none() | st.lists(entries, max_size=3).map(
        lambda items: "".join(f"{flag[2:]} = {value}\n" for flag, value in items)))
    if config is not None and draw(st.booleans()):
        argv = ["--config", "{cfg}", *argv]
    return argv, config


def captured(call):
    """What ``call`` returns (or the exit code of a parse that stops, or a
    config file's error) with what it printed."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        try:
            result = call()
        except SystemExit as exc:
            result = ("exit", exc.code)
        except (OSError, ValueError) as exc:
            result = (type(exc).__name__, str(exc))
    return repr((result, stdout.getvalue(), stderr.getvalue()))


@pytest.fixture(scope="module")
def scan_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("scan")


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(call=scanned_calls())
def test_scan_accepts_only_what_the_whole_parser_reads_alike(scan_dir, call):
    # run in a directory of no inputs, so that no command gets to write
    template, config = call
    cfg = scan_dir / "run.cfg"
    cfg.unlink(missing_ok=True)
    if config is not None:
        cfg.write_text(config)
    argv = cli._merge_negative_values([token.replace("{cfg}", str(cfg)) for token in template])
    cwd = os.getcwd()
    os.chdir(scan_dir)
    try:
        scanned = captured(lambda: (lambda args: args and vars(args))(cli._scan(argv)))
        main_scanned = captured(lambda: main(argv))
        with mock.patch.object(cli, "_scan", return_value=None):  # the whole parser only
            whole = captured(lambda: vars(cli._parse(argv)))
            main_whole = captured(lambda: main(argv))
    finally:
        os.chdir(cwd)
    assert scanned == repr((None, "", "")) or scanned == whole
    assert main_scanned == main_whole


def test_object_dating_request_builds_no_parser(config_inputs, tmp_path):
    # the two calls of one request of the benchmark's object-dating workload
    prefix = tmp_path / "r0"
    with mock.patch.object(argparse.ArgumentParser, "__init__",
                           side_effect=AssertionError("an argparse parser was built")):
        assert run("--seed", 7, "finedate", "--ref", config_inputs["ref"], "--ages", "2087,2097",
                   "--sd", "20", "--out", prefix) == 0
        summary = csvio.read_commented_csv(f"{prefix}_summary.csv").body
        (value,) = [row[1] for row in summary if row[0] == "CalDate_Median"]
        assert run("--seed", 7, "lookup", "query", "--table", config_inputs["lookup"],
                   "--indicator", "CalDate_Median", f"--value={value}") == 0
