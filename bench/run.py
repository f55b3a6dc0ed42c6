"""Outside-in benchmark of the finedating CLI pipeline.

    python3 bench/run.py --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]

The workloads are defined, each with the reason it was chosen, in
``workloads.py``: study-pipeline, long-generation and object-dating.  Each
run builds the workload's fixture in one fresh interpreter and measures it
in another; both drive ``finedating.cli.main(argv)`` with ``src/`` on the
path, and nothing is installed.  Outputs go to ``.bench_work/`` in the
checkout and are removed at the end.  Metric names, units and the
workloads' reasons are read from ``BENCHMARK.json``.

``--trace 0`` reports the end-to-end metrics, measured with tracing off:

- ``setup_s``: median cold ``import finedating.cli`` over fresh interpreters;
- ``wall_s``: median wall time of one timed pass of the workload: the
  four commands of study-pipeline, the two of long-generation, or one
  request for each of the 41 pool datasets of object-dating;
- ``peak_rss_mb``: the larger ``ru_maxrss`` of the measuring process and
  of its forked workers; the fixture is built in another process.

``setup_s`` and ``wall_s`` are given at the reference machine speed of
``speed.py``: a fixed loop is timed before and after every sample, and the
medians are scaled by the median loop time of the run, so that the drift
of a shared machine's speed cancels.  The details hold the raw medians.

``--trace 1`` reports the per-layer metrics of a traced serial pass,
``setup.import.*`` from ``python -X importtime``, and the medians over a
few alternating rounds of ``parallel.speedup`` (untraced serial over
default-worker generation time) and ``trace.overhead_frac`` (traced over
untraced serial pass time).  A metric whose function no longer exists or
is never called reads 0 and is listed as absent.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The line before it holds the details: every
step's median with its unit and sample count, request percentiles,
``failed_frac``, input sizes, machine details and the artifact digests,
which let runs of two commits at any seed be compared; they are also how
``golden.json`` is re-pinned by hand when a change means to alter an
artifact.  Exit code 0 when every operation succeeded and every artifact
checked out, 1 otherwise, 2 when the sources to benchmark are missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))
from speed import reference_s, scale  # noqa: E402
from workloads import SPEC, WORKLOADS  # noqa: E402

DEFAULT_SEED = 1  # the seed whose artifact digests golden.json pins
SETUP_REPEATS = 7
DEADLINE_S = 160.0  # for the fixture and workload processes; set-up imports follow


class BenchError(Exception):
    pass


def python(code: str, *options: str, timeout: float) -> subprocess.CompletedProcess:
    prelude = f"import sys; sys.path.insert(0, {str(SRC)!r}); "
    return subprocess.run(
        [sys.executable, *options, "-c", prelude + code],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def cold_import_seconds(timeout: float) -> float:
    proc = python(
        "import time; t = time.perf_counter(); import finedating.cli; "
        "print(time.perf_counter() - t)",
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise BenchError(f"import finedating.cli failed: {proc.stderr.strip()[-400:]}")
    return float(proc.stdout.split()[-1])


def import_times(text: str, packages=("scipy", "numpy", "finedating")) -> dict[str, float]:
    """Seconds spent importing each top-level package, from ``-X importtime``.

    The report lists a module after the modules it imported, indented one
    level deeper.  A package's time is the cumulative time of its entries
    that are not nested inside another entry of the same package.
    """
    pending: list[tuple[int, str, int, list]] = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        label = name[1:]
        depth = (len(label) - len(label.lstrip())) // 2
        children = []
        while pending and pending[-1][0] > depth:
            children.insert(0, pending.pop())
        pending.append((depth, label.strip(), int(cumulative), children))
    totals = {pkg: 0.0 for pkg in packages}

    def visit(node, inside: frozenset) -> None:
        _, name, cumulative, children = node
        top = name.split(".")[0]
        if top in totals and top not in inside:
            totals[top] += cumulative / 1e6
            inside = inside | {top}
        for child in children:
            visit(child, inside)

    for node in pending:
        visit(node, frozenset())
    return totals


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def machine() -> dict:
    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.partition(":")[2].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model}


def run_child(workload: str, seed: int, seconds: float, mode: str, work: Path,
              deadline: float) -> dict:
    result = work / f"{mode}.json"
    argv = [
        sys.executable, str(HERE / "workloads.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--mode", mode,
        "--work", str(work / "out"), "--result", str(result),
    ]
    # Its own process group, so that a timeout also ends its forked workers.
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        _, stderr = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.communicate()
        raise BenchError(f"{workload}: no result within the deadline") from None
    if proc.returncode != 0 or not result.is_file():
        raise BenchError(f"{workload}: exit {proc.returncode}: {stderr.strip()[-800:]}")
    return json.loads(result.read_text(encoding="utf-8"))


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    """One workload run; returns the contract fields plus details."""
    deadline = time.monotonic() + DEADLINE_S
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=ROOT / ".bench_work"))
    try:
        # The children run first, so bytecode is compiled before imports are timed.
        fixture = run_child(name, seed, seconds, "fixture", work, deadline)
        child = run_child(name, seed, seconds, "traced" if trace else "plain", work, deadline)
        if trace:
            proc = python("import finedating.cli", "-X", "importtime", timeout=60)
            if proc.returncode != 0:
                raise BenchError(f"import finedating.cli failed: {proc.stderr.strip()[-400:]}")
            imports = import_times(proc.stderr)
        else:
            setup, refs = [], [reference_s()]
            for _ in range(SETUP_REPEATS):
                setup.append(cold_import_seconds(timeout=60))
                refs.append(reference_s())
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".bench_work").rmdir()
        except OSError:
            pass

    steps = {
        metric: {"median": statistics.median(values), "unit": "s", "samples": len(values)}
        for metric, values in child["steps"].items()
    }
    walls = child["pass_wall"]
    attempted = fixture["attempted"] + child["attempted"]
    failed = fixture["failed"] + child["failed"]
    digests = {**fixture["digests"], **child["digests"]}
    detail = {
        "workload": name,
        "why": next(w["why"] for w in SPEC["workloads"] if w["name"] == name),
        "seed": seed,
        "mode": "traced" if trace else "plain",
        "steps": steps,
        "wall_s": {"median": statistics.median(walls), "unit": "s", "samples": len(walls)},
        "failed_frac": failed / attempted,
        "failures": fixture["failures"] + child["failures"],
        "sizes": child["sizes"],
        "machine": {**machine(), **child["versions"]},
        "digests": {k: v for k, v in digests.items() if not k.startswith("request/")},
    }
    latencies = child.get("requests_ms")
    if latencies:
        detail["requests"] = {
            "request_p50_ms": statistics.median(latencies),
            "request_p90_ms": nearest_rank(latencies, 0.9),
            "samples": len(latencies),
        }
    if trace:
        layers = dict(child["layers"])
        layers.update({f"setup.import.{pkg}_s": s for pkg, s in imports.items()})
        absent = sorted(m["name"] for m in SPEC["per_layer"] if not layers.get(m["name"]))
        metrics = {m["name"]: {"value": layers.get(m["name"]) or 0.0, "unit": m["unit"]}
                   for m in SPEC["per_layer"]}
        detail["absent"] = absent
        detail["missing_functions"] = child["missing"]
        detail["traced_wall_s"] = child["traced_wall"]
        detail["samples"] = child["samples"]
    else:
        refs += child["refs"]
        values = {
            "setup_s": scale(statistics.median(setup), refs),
            "wall_s": scale(statistics.median(walls), refs),
            "peak_rss_mb": child["peak_rss_mb"],
        }
        detail["raw"] = {"setup_s": statistics.median(setup), "wall_s": statistics.median(walls),
                         "reference_s": statistics.median(refs)}
        detail["samples"] = {"setup_s": len(setup), "wall_s": len(walls), "peak_rss_mb": 1}
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in SPEC["end_to_end"]}
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "detail": detail,
    }


def report_lines(result: dict) -> list[str]:
    """Human-readable metric lines: name, value, unit, sample count."""
    d = result["detail"]
    rows = [f"[{d['workload']}] seed={d['seed']} mode={d['mode']} "
            f"failed_frac={d['failed_frac']:g} ({result['failed']}/{result['attempted']})",
            "  sizes: " + ", ".join(f"{k}={v}" for k, v in d["sizes"].items()),
            "  machine: " + ", ".join(f"{k}={v}" for k, v in d["machine"].items())]
    samples = d.get("samples", {})
    for name, m in result["metrics"].items():
        n = f" (n={samples[name]})" if name in samples else ""
        rows.append(f"  {name:<44} {m['value']:.6g} {m['unit']}{n}")
    for name, value in d.get("raw", {}).items():
        rows.append(f"  raw {name:<40} {value:.6g} s (median, unscaled)")
    for name, s in d["steps"].items():
        rows.append(f"  {name:<44} {s['median']:.6g} {s['unit']} (n={s['samples']}, median)")
    if "requests" in d:
        r = d["requests"]
        for name in ("request_p50_ms", "request_p90_ms"):
            rows.append(f"  {name:<44} {r[name]:.6g} ms (n={r['samples']})")
    for failure in d["failures"]:
        rows.append(f"  FAILED: {failure}")
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Outside-in benchmark of the finedating CLI.")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "finedating" / "cli.py").is_file():
        print(f"error: no finedating sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds, args.trace)
            for line in report_lines(result):
                print(line, file=sys.stderr if args.workload != "all" else sys.stdout)
            results.append(result)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        summary = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {
                f"{r['detail']['workload']}.{m}": v for r in results for m, v in r["metrics"].items()
            },
        }
    else:
        print(json.dumps({"detail": results[0]["detail"]}))
        summary = {k: results[0][k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
