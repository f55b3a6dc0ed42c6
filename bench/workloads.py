"""The benchmark's workloads; each run happens in fresh interpreters.

run.py starts this file twice per workload run::

    python3 bench/workloads.py --workload NAME --seed N --seconds S \\
        --mode fixture|plain|traced --work DIR --result FILE

It drives the commit under test through ``finedating.cli.main(argv)``,
with ``src/`` on the path and nothing installed, as a user's command line
would, and writes what it did to FILE as JSON.  Every input comes from the
seed: the CLI's ``--seed`` and the choice of request datasets.

``fixture`` builds the workload's inputs in DIR, untimed, in an interpreter
of its own, so that the peak memory of the measured process covers only
the measured work.  ``plain`` then repeats timed passes with the CLI
defaults (no ``--workers``, so one worker per core) for at most S seconds.
``traced`` runs a throwaway warm-up pass and then rounds of an untraced
serial pass, an untraced generation pass at the default worker count and a
traced serial pass, in alternating order; "serial" means ``workers = 1`` in
a ``--config`` file, which the CLI ignores should the key ever go away.

Every artifact is digested after the pass that wrote it and must equal
its first occurrence in the run (same seed, any worker count, traced or
not) and, at the pinned seed, the digest in ``golden.json``.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import random
import resource
import statistics
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from importlib import metadata
from pathlib import Path

import artifacts
from speed import reference_s
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden.json"
# Workload reasons and metric names, units and directions.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

LONG_SPAN = (-48050, 1950)
TABLE_5_50_5 = 3250
TS3 = ("-300:0:5", 100, 3)  # dates, datasets per date, group: 18,300 records
TS3_DATASETS = 61 * 100
COMBO = "5_20_5,5_50_5,5_50_20,5_80_5,5_100_0,5_100_5"  # 26,000 records
COMBO_RECORDS = 26000
REQUEST_DATES = "-250:-50:5"
REQUEST_PER_DATE = 5
MIN_REQUESTS = 100  # so that p90 has at least ten samples beyond it
INDICATORS = 12
ROUNDS = 3  # traced rounds, as many as fit in TRACED_BUDGET_S
TRACED_BUDGET_S = 110.0  # one long-generation round takes about 50 s


class Session:
    """One workload run: CLI calls, their failures and artifact checks."""

    def __init__(self, work: Path, seed: int, golden: dict):
        self.work = work
        self.seed = seed
        self.golden = golden
        self.attempted = 0
        self.failed: set[int] = set()
        self.failures: list[str] = []
        self.reference: dict[str, dict] = {}
        self.tracer: Tracer | None = None
        from finedating.cli import main

        self._main = main

    def path(self, name: str) -> str:
        return str(self.work / name)

    def serial_config(self) -> list[str]:
        cfg = self.work / "serial.cfg"
        cfg.write_text("workers = 1\n", encoding="utf-8")
        return ["--config", str(cfg)]

    def call(self, command: str, argv: list[str]) -> tuple[int, float, str]:
        """Run one CLI command; return (operation id, seconds, stdout)."""
        op = self.attempted
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        code = None
        start = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                if self.tracer is None:
                    code = self._main(argv)
                else:
                    with self.tracer.span(f"cli.{command}"):
                        code = self._main(argv)
        except Exception:
            err.write(traceback.format_exc())
        seconds = time.perf_counter() - start
        if code != 0:
            self.fail(op, f"{command}: exit {code}: {err.getvalue().strip()[-400:]}")
        return op, seconds, out.getvalue()

    def fail(self, op: int, message: str) -> None:
        self.failed.add(op)
        self.failures.append(message)

    def check(self, op: int, key: str, digest: dict, rows: int | None = None) -> None:
        """Compare an artifact with its first occurrence in this run, its
        expected row count and its pinned digest."""
        problems = artifacts.mismatches(digest, self.reference.setdefault(key, digest))
        if rows is not None and digest["lines"] - 1 != rows:
            problems.append(f"{digest['lines'] - 1} data rows, want {rows}")
        if key in self.golden:
            problems += [f"pinned {p}" for p in artifacts.mismatches(digest, self.golden[key])]
        if problems:
            self.fail(op, f"{key}: {'; '.join(problems)}")

    def check_file(self, op: int, key: str, rows: int | None = None) -> None:
        try:
            digest = artifacts.digest_file(self.work / key)
        except OSError as exc:
            self.fail(op, f"{key}: {exc}")
            return
        self.check(op, key, digest, rows)


def write_curve(session: Session, name: str, span=None) -> str:
    """The bundled synthetic study curve, or its IntCal20-sized stretch."""
    from finedating.curves import synthetic_study_curve
    from finedating.curves import write_curve as write

    path = session.path(name)
    write(synthetic_study_curve() if span is None else synthetic_study_curve(span=span), path)
    return path


def grid_cells(curve_path: str) -> int:
    """One-year calibration grid cells over the curve's domain."""
    bp = [float(line.split(",")[0]) for line in artifacts.data_lines(curve_path)]
    return int(round(max(bp) - min(bp))) + 1


def distinct_age_share(*paths) -> float:
    """Distinct (age, sd) pairs over all simulated records of the files."""
    pairs, records = set(), 0
    for path in paths:
        header, *rows = (line.split(",") for line in artifacts.data_lines(path))
        age, sd = header.index("age_bp"), header.index("sd")
        pairs.update((cells[age], cells[sd]) for cells in rows)
        records += len(rows)
    return len(pairs) / records


class Pipeline:
    """ref-gen 5_50_5 and ts3 simulate tests on one curve, optionally
    followed by evaluate and lookup build."""

    generates = True

    def __init__(self, name: str, span, evaluate: bool):
        self.name = name
        self.span = span
        self.evaluate = evaluate

    def fixture(self, session: Session) -> None:
        write_curve(session, "curve.14c", self.span)

    def prepare(self, session: Session) -> None:
        self.curve = session.path("curve.14c")
        self.sizes = {"grid_cells": grid_cells(self.curve)}

    def steps(self, session: Session, flags: list[str], generation_only=False) -> list:
        """(metric, command, argv, {artifact: expected data rows})."""
        seed = ["--seed", str(session.seed), *flags]
        dates, per_date, group = TS3
        table, tests = session.path("table.csv"), session.path("tests.csv")
        steps = [
            ("refgen_s", "ref-gen",
             [*seed, "ref-gen", "--curve", self.curve, "--label", "5_50_5", "--out", table],
             {"table.csv": TABLE_5_50_5}),
            ("simulate_s", "simulate",
             [*seed, "simulate", "tests", "--curve", self.curve, f"--dates={dates}",
              "--per-date", str(per_date), "--group", str(group), "--sd", "20", "--out", tests],
             {"tests.csv": TS3_DATASETS * group}),
        ]
        if self.evaluate and not generation_only:
            out = session.path("eval")
            steps += [
                ("evaluate_s", "evaluate",
                 [*flags, "evaluate", "--ref", table, "--tests", tests, "--curve", self.curve,
                  "--out", out],
                 {"eval/eval_long.csv": TS3_DATASETS * INDICATORS, "eval/mpd_report.csv": None,
                  "eval/normality_by_interval.csv": 61, "eval/performance_25.csv": 61,
                  "eval/performance_35.csv": 61, "eval/avg_deviation.csv": None}),
                ("lookup_build_s", "lookup",
                 [*flags, "lookup", "build", "--eval", f"{out}/eval_long.csv",
                  "--out", session.path("lookup.csv")],
                 {"lookup.csv": None}),
            ]
        return steps

    def run_pass(self, session: Session, flags: list[str], generation_only=False):
        """Run the steps in order; artifacts are checked after the pass.
        Returns ({metric: seconds}, pass wall seconds)."""
        done, times = [], {}
        start = time.perf_counter()
        for metric, command, argv, outputs in self.steps(session, flags, generation_only):
            op, seconds, _ = session.call(command, argv)
            times[metric] = seconds
            done.append((op, outputs))
        wall = time.perf_counter() - start
        for op, outputs in done:
            for key, rows in outputs.items():
                session.check_file(op, key, rows)
        return times, wall

    def finish(self, session: Session) -> None:
        self.sizes["records"] = artifacts.data_rows(session.path("table.csv")) + artifacts.data_rows(
            session.path("tests.csv")
        )
        if self.evaluate:
            self.sizes["eval_rows"] = artifacts.data_rows(session.path("eval/eval_long.csv"))
            self.sizes["mpd_searches"] = artifacts.data_rows(session.path("eval/mpd_report.csv"))

    def inputs(self, session: Session) -> tuple[str, str]:
        return session.path("table.csv"), session.path("tests.csv")


class ObjectDating:
    """A closed loop with one client: fine-date one dataset against the
    Combo table, then query the lookup table at its dated value."""

    name = "object-dating"
    generates = False

    def fixture(self, session: Session) -> None:
        """Untimed: Combo table, a request series in -250..-50, its
        evaluation against the Combo table and a lookup table."""
        curve = write_curve(session, "curve.14c")
        combo, series = session.path("combo.csv"), session.path("requests.csv")
        seed = ["--seed", str(session.seed)]
        steps = [
            ("ref-gen", [*seed, "ref-gen", "--curve", curve, "--combo", COMBO, "--out", combo],
             {"combo.csv": COMBO_RECORDS}),
            ("simulate", [*seed, "simulate", "tests", "--curve", curve,
                          f"--dates={REQUEST_DATES}", "--per-date", str(REQUEST_PER_DATE),
                          "--group", "3", "--sd", "20", "--out", series],
             {"requests.csv": 41 * REQUEST_PER_DATE * 3}),
            ("evaluate", ["evaluate", "--ref", combo, "--tests", series,
                          "--out", session.path("fixture_eval")],
             {"fixture_eval/eval_long.csv": 41 * REQUEST_PER_DATE * INDICATORS}),
            ("lookup", ["lookup", "build", "--eval", session.path("fixture_eval/eval_long.csv"),
                        "--out", session.path("lookup.csv")],
             {"lookup.csv": None}),
        ]
        for command, argv, outputs in steps:
            op, _, _ = session.call(command, argv)
            for key, rows in outputs.items():
                session.check_file(op, key, rows)

    def prepare(self, session: Session) -> None:
        """Pick the request pool from the fixture's series."""
        self.curve = session.path("curve.14c")
        self.combo, self.series = session.path("combo.csv"), session.path("requests.csv")
        self.lookup = session.path("lookup.csv")
        # One dataset per date, so every seed's pool spans the same dates:
        # the plateaus match many more records than the steep stretches.
        ages: dict[str, list[str]] = {}
        by_date: dict[float, list[str]] = {}
        for line in artifacts.data_lines(self.series)[1:]:
            data_id, date, age = line.split(",")[:3]
            if data_id not in ages:
                by_date.setdefault(float(date), []).append(data_id)
            ages.setdefault(data_id, []).append(age)
        rng = random.Random(session.seed)
        chosen = [rng.choice(by_date[date]) for date in sorted(by_date)]
        self.pool = [(data_id, ",".join(ages[data_id])) for data_id in chosen]
        self.served = 0
        self.latencies: list[float] = []
        self.sizes = {
            "grid_cells": grid_cells(self.curve),
            "records": artifacts.data_rows(self.combo) + artifacts.data_rows(self.series),
        }

    def run_pass(self, session: Session, flags: list[str]):
        """Serve one request per pool dataset; outputs are checked after the
        pass.  Returns ({}, pass wall seconds); untraced latencies go to
        ``latencies``."""
        done = []
        start = time.perf_counter()
        for k, (data_id, ages) in enumerate(self.pool):
            prefix = session.path(f"req/r{k}")
            op, t_date, _ = session.call(
                "finedate",
                [*flags, "finedate", "--ref", self.combo, "--ages", ages, "--sd", "20", "--out", prefix],
            )
            value = None
            if op not in session.failed:
                for line in artifacts.data_lines(f"{prefix}_summary.csv"):
                    if line.startswith("CalDate_Median,"):
                        value = line.split(",")[1]
            if not value:
                session.fail(op, f"request {data_id}: no CalDate_Median in the report")
                continue
            query, t_query, text = session.call(
                "lookup",
                [*flags, "lookup", "query", "--table", self.lookup, "--indicator",
                 "CalDate_Median", f"--value={value}"],
            )
            if session.tracer is None:
                self.latencies.append(1000.0 * (t_date + t_query))
            self.served += 1
            done.append((op, query, data_id, prefix, text))
        wall = time.perf_counter() - start
        for op, query, data_id, prefix, text in done:
            lines = artifacts.data_lines(f"{prefix}_overview.csv")
            lines += artifacts.data_lines(f"{prefix}_summary.csv")
            digest = artifacts.digest_lines(lines + text.splitlines())
            session.check(query, f"request/{data_id}", digest)
        return {}, wall

    def finish(self, session: Session) -> None:
        """Pin the pool's outputs as one digest; a request that failed has
        no digest and was counted as failed already."""
        self.sizes["requests"] = self.served
        keys = [f"request/{data_id}" for data_id, _ in self.pool]
        if all(k in session.reference for k in keys):
            joined = "\n".join(session.reference[k]["sha256"] for k in keys)
            session.check(session.attempted - 1, "requests", artifacts.digest_lines([joined]))

    def inputs(self, session: Session) -> tuple[str, str]:
        return self.combo, self.series


# Why each workload was chosen; BENCHMARK.json holds a one-line version.
WORKLOADS = {
    w.name: w
    for w in (
        # Study curve, 541 one-year cells: calibration is cheap, so matching,
        # indicators, MPD search, normality and CSV writing take about half
        # of each pass.  Array evaluation and dropping scipy show here.
        Pipeline("study-pipeline", None, evaluate=True),
        # IntCal20-sized curve, 50,001 cells: calibrating each record takes
        # nearly all the time, and it is the only place where forked workers
        # pay off.  Calibration memoization and the parallel.py decision
        # show here.
        Pipeline("long-generation", LONG_SPAN, evaluate=False),
        # Calibrates nothing: its time is mostly read_table of the 26k-row
        # Combo table, so it bypasses calibration and workers and is where
        # reads show, beside the writes of the other two workloads.
        ObjectDating(),
    )
}


def plain(workload, session: Session, seconds: float) -> dict:
    """Timed passes with the CLI defaults, with the reference loop timed
    before and after each.  Beyond the minimum, a pass starts only while
    the last pass's time still fits in ``seconds``."""
    steps: dict[str, list[float]] = {}
    walls: list[float] = []
    refs = [reference_s()]
    min_passes = 2 if workload.generates else math.ceil(MIN_REQUESTS / len(workload.pool))
    start = time.perf_counter()
    while len(walls) < min_passes or time.perf_counter() - start + walls[-1] <= seconds:
        times, wall = workload.run_pass(session, [])
        refs.append(reference_s())
        walls.append(wall)
        for metric, value in times.items():
            steps.setdefault(metric, []).append(value)
    return {"steps": steps, "pass_wall": walls, "refs": refs}


def generation_s(times: dict) -> float:
    return times["refgen_s"] + times["simulate_s"]


def traced_pass(workload, session: Session, flags: list[str]) -> tuple[Tracer, float]:
    tracer = Tracer()
    tracer.install()
    session.tracer = tracer
    try:
        _, wall = workload.run_pass(session, flags)
    finally:
        session.tracer = None
        tracer.uninstall()
    return tracer, wall


def traced(workload, session: Session) -> dict:
    """A throwaway warm-up pass, then rounds of an untraced serial pass, an
    untraced default-worker generation pass and a traced serial pass, as
    many as fit in TRACED_BUDGET_S, up to ROUNDS.  Odd rounds run the three
    in reverse order, so that neither side of a ratio always runs first.
    parallel.speedup and trace.overhead_frac are medians over the rounds;
    the other per-layer figures come from the first traced pass."""
    serial = session.serial_config()
    workload.run_pass(session, [])
    steps: dict[str, list[float]] = {}
    walls, traced_walls, speedups, overheads = [], [], [], []
    first = None
    start = time.perf_counter()
    round_s = 0.0
    while not walls or (
        len(walls) < ROUNDS and time.perf_counter() - start + round_s <= TRACED_BUDGET_S
    ):
        began = time.perf_counter()
        order = ["serial", "default", "traced"]
        if len(walls) % 2:
            order.reverse()
        for kind in order:
            if kind == "serial":
                times, wall = workload.run_pass(session, serial)
            elif kind == "default" and workload.generates:
                default, _ = workload.run_pass(session, [], generation_only=True)
            elif kind == "traced":
                tracer, wall_traced = traced_pass(workload, session, serial)
                if first is None:
                    first = tracer
        walls.append(wall)
        traced_walls.append(wall_traced)
        overheads.append(wall_traced / wall - 1.0)
        if workload.generates:
            speedups.append(generation_s(times) / generation_s(default))
        for metric, value in times.items():
            steps.setdefault(metric, []).append(value)
        round_s = time.perf_counter() - began

    tracer = first
    if "simulate.generate_test_datasets" in {span[0] for span in tracer.spans}:
        tracer.count("simulate.generate_test_datasets.records", artifacts.data_rows(session.path("tests.csv")))
    rows = {}
    for path in tracer.paths["reftable.read_table"]:
        tracer.count("reftable.read_table.rows", rows.setdefault(path, artifacts.data_rows(path)))
    for path in tracer.paths["csvio.write_lines"]:
        tracer.count("csvio.write_lines.bytes", os.path.getsize(path))
    layers: dict[str, float | None] = {
        "parallel.speedup": statistics.median(speedups) if speedups else None,
        "workload.distinct_age_share": distinct_age_share(*workload.inputs(session)),
        "trace.overhead_frac": statistics.median(overheads),
    }
    layers.update(tracer.metrics(
        m["name"] for m in SPEC["per_layer"]
        if m["name"] not in layers and not m["name"].startswith("setup.")
    ))
    return {
        "steps": steps,
        "pass_wall": walls,
        "traced_wall": traced_walls,
        "layers": layers,
        "samples": {"parallel.speedup": len(speedups), "trace.overhead_frac": len(overheads)},
        "missing": sorted(tracer.missing),
    }


def version(package: str) -> str | None:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("fixture", "plain", "traced"), required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    golden = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.is_file() else {}
    pinned = {}
    if golden.get("seed") == args.seed:
        pinned = golden["workloads"].get(args.workload, {})
    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    session = Session(work, args.seed, pinned)
    workload = WORKLOADS[args.workload]
    result = {}
    if args.mode == "fixture":
        workload.fixture(session)
    else:
        workload.prepare(session)
        if args.mode == "plain":
            result = plain(workload, session, args.seconds)
        else:
            result = traced(workload, session)
        workload.finish(session)
        if not workload.generates:
            result["requests_ms"] = workload.latencies
        rss_kb = max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        )
        result.update(
            peak_rss_mb=rss_kb / 1024.0,
            sizes=workload.sizes,
            versions={
                "python": sys.version.split()[0],
                "numpy": version("numpy"),
                "scipy": version("scipy"),
            },
        )
    result.update(
        attempted=session.attempted,
        failed=len(session.failed),
        failures=session.failures[:20],
        digests=session.reference,
    )
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
