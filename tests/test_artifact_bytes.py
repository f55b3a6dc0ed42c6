"""Golden pins: every artifact of a small seeded CLI pipeline, byte for byte.

The pipeline runs serially on the bundled study curve.  Each CSV and
manifest is pinned by the sha256 of its full bytes, ``#`` lines included,
so any change to the artifact format, the header block or the numbers
shows up here.  Artifacts that have a reader are also read back and
rewritten with the same header, which must reproduce the file exactly.
"""

import hashlib

import pytest

import finedating as fd
from finedating import csvio
from finedating.cli import main
from finedating.evaluate import read_eval_rows, write_eval_rows

# Ages of the finedate step: three that match the 5_10_20 table at seed 11
# and one (1000 BP) that matches nothing.
AGES = "2085,2100,2110,1000"

GOLDEN = {
    "combo.csv": "6d91426a7b9570bbbd0c48c3af68ccb70c9303b8f31672792e2f9c1ace700a68",
    "combo_manifest.txt": "a091c99afce7a17e70e9c3f32d1a982407e3ecfd60bd5d4d438d297ece6198fa",
    "conv.csv": "068f5231523eb69b9c9dee6569ff3b2c4977d160c743b55b1bdff39a496701ea",
    "conv_manifest.txt": "16e3288c668d2f165e64aa63d5eae21ed7bdac19970dcbbb8b6beaaf1861e05b",
    "eval/avg_deviation.csv": "631caa26baf5ca1fd95c6c81dca99ae0f8a6ed761b65240442c9e8e32d5607a2",
    "eval/eval_long.csv": "3a5e94abdc0cb7771daccce7de24aff3262a681010389ee8bc8dad078e2c80af",
    "eval/mpd_report.csv": "54a37da2d10b45eee151965caa2e048d831079f5ba15a4d992ec0496dc200efa",
    "eval/normality_by_interval.csv": "82b68f34860795a358fc4917a7c66cea7ee89e58cf9fce59d60e100ba08dcf08",
    "eval/performance_25.csv": "4afaff337f718e8372b8b1d4b225ae3deec4009157074af190bdef040510375a",
    "eval/performance_35.csv": "d8a154e99305495beae3dfb3c4660dac12097822c2e64bd62ebe9a43422c1305",
    "eval/run_manifest.txt": "683a400569d62eab22f9a7c38370f607e024dd9bba29d01800c4cf5bf363ae7a",
    "hist.csv": "e51b192f0af8499cb1c359b47ce3bf5f7bcffef44c7e1edc8761fa7bcb3a74b3",
    "hist_manifest.txt": "2b49ece0246e790049ea6eb6443d4e5cbd7199b0e18b0e953aa06b0c23b73b93",
    "lookup.csv": "c04829f57d9d8851a8666d7d771682a8e3cb161f6d267df6ad33a77a23ec6465",
    "lookup_manifest.txt": "0174475854bb7df554de5761ebd848cea996a3722f019369d1230ef46598a801",
    "ref.csv": "58efd5df9b641195345e772ba7e53d43647d6e7d55bca72301455fb3bd30690e",
    "ref_manifest.txt": "563382ae407b3eeb2a1b662fa8e0e1fd0c9cf370f3ffa6a106414ada1df3a654",
    "report_manifest.txt": "28e5896769cefedd44170cb30b38c22e4d9b6e825a71c4522d4ed503232eacf3",
    "report_overview.csv": "8799cdde1016e9d4495d3a6d57832b2852f98983169e6c5bad4dfd12cd14a73a",
    "report_summary.csv": "5959cd688c4661c3422cafb823e6fa44da80922d9628447651dbd381cb0ee3ad",
    "scatter.csv": "b8687defb9ad200f8142b82ebc87ed84c6fda25e89ab81a78772026fd6a14292",
    "scatter_manifest.txt": "782c74f0a22d47894aea9831c4a8fc43e154fb3c173184b8972609fb445ab28e",
    "tests.csv": "6945ed4a5c754af2c7b664ff06df0e49a8451f0f388edc64c93b057fda077021",
    "tests_manifest.txt": "c5513d550f1dee064af78b7b0ec679db02ef132fd7912ffa5329f33a517b2fcd",
}

# The binary sidecars (``csvio.sidecar_path``) of the two reference tables,
# the two test series and the evaluation rows.
SIDECARS = {
    "combo.csv.npz": "933b7a82a679026cdb6dbc81ac241c2109b50888244d75d83d00ffd450098c8e",
    "conv.csv.npz": "89f80821110b831282bbc166c99d86f0e7071e070e415cebc7232d4d0eae6bd3",
    "eval/eval_long.csv.npz": "7b37e510836c0a8f586b3434847b247bff523d9a084e9f4a255e90bdae57aba7",
    "ref.csv.npz": "08a8b7e8409c8879a5522be584559e4e06ac4d5e6c833b0f5902fc21bd940d0f",
    "tests.csv.npz": "48b48521839eb35bff33077c4e78070a30948da1e6276c0bcb736ad6ef40bb17",
}


def run(*argv):
    assert main([str(a) for a in argv]) == 0, argv


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    base = tmp_path_factory.mktemp("golden")
    curve = base / "study.14c"
    fd.write_curve(fd.synthetic_study_curve(), curve)
    rsim = base / "rsim.csv"
    rsim.write_text(
        "cal_date,age,sd\n"
        + "".join(f"-100,{2050 + 3 * i},20\n" for i in range(6))
        + "".join(f"50BC,{2030 + 2 * i},15\n" for i in range(4))
    )
    run("--seed", 11, "ref-gen", "--curve", curve, "--label", "5_10_20",
        "--out", base / "ref.csv")
    run("--seed", 5, "ref-gen", "--curve", curve, "--combo", "5_10_20,5_20_5",
        "--out", base / "combo.csv")
    run("--seed", 12, "simulate", "tests", "--curve", curve,
        "--dates", "-160:-120:10", "--per-date", 4, "--group", 3, "--sd", 20,
        "--out", base / "tests.csv")
    run("simulate", "convert", "--in", rsim, "--group", 3, "--out", base / "conv.csv")
    run("finedate", "--ref", base / "ref.csv", "--ages", AGES, "--sd", 20,
        "--out", base / "report")
    run("evaluate", "--ref", base / "ref.csv", "--tests", base / "tests.csv",
        "--curve", curve, "--out", base / "eval")
    run("lookup", "build", "--eval", base / "eval" / "eval_long.csv", "--out", base / "lookup.csv")
    run("hist", "--in", base / "eval" / "eval_long.csv", "--col", "Mean_Median",
        "--out", base / "hist.csv")
    run("scatter", "--in", base / "eval" / "eval_long.csv", "--x", "original_cal_date",
        "--y", "caldate_median", "--out", base / "scatter.csv")
    return base


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_artifacts_match_pinned_digests(work):
    written = sorted(
        str(p.relative_to(work)) for p in work.rglob("*") if p.suffix in (".csv", ".txt")
    )
    written.remove("rsim.csv")
    assert written == sorted(GOLDEN)
    got = {name: sha256(work / name) for name in written}
    assert got == GOLDEN


def test_sidecars_match_pinned_digests(work):
    written = sorted(str(p.relative_to(work)) for p in work.rglob("*.npz"))
    assert written == sorted(SIDECARS)
    assert {name: sha256(work / name) for name in written} == SIDECARS


def header_of(path) -> dict:
    """The file's ``key=value`` header lines, the table's spec lines aside."""
    meta = csvio.read_commented_csv(path)[0]
    return {key: val for key, val in meta.items() if key != "spec"}


@pytest.mark.parametrize(
    "name, read, write",
    [
        ("ref.csv", fd.read_table, fd.write_table),
        ("combo.csv", fd.read_table, fd.write_table),
        ("tests.csv", fd.read_tests, fd.write_tests),
        ("conv.csv", fd.read_tests, fd.write_tests),
        ("eval/eval_long.csv", read_eval_rows, write_eval_rows),
        ("lookup.csv", fd.read_lookup, fd.write_lookup),
    ],
)
def test_read_then_rewrite_is_byte_identical(work, tmp_path, name, read, write):
    source = work / name
    copy = tmp_path / "copy.csv"
    write(read(source), copy, extra_header=header_of(source))
    assert copy.read_bytes() == source.read_bytes()


@pytest.mark.parametrize(
    "name, read",
    [
        ("ref.csv", fd.read_table),
        ("combo.csv", fd.read_table),
        ("tests.csv", fd.read_tests),
        ("conv.csv", fd.read_tests),
        ("eval/eval_long.csv", read_eval_rows),
    ],
)
def test_written_artifacts_never_reach_the_line_reader(work, monkeypatch, name, read):
    def line_reader(path, *args):
        raise AssertionError(f"{path} went through the line reader")

    monkeypatch.setattr(csvio, "_read_lines", line_reader)
    read(work / name)
