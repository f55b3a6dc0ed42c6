"""Command-line entry point wiring the whole pipeline.

Subcommands: ``curve`` (inspect a curve file), ``ref-gen`` (build a
reference table), ``simulate`` (generate or convert test datasets),
``finedate`` (match measured ages and report indicators), ``evaluate``
(score a test series), ``lookup`` (build/query the quality table),
``hist`` and ``scatter`` (plot-ready data).  Every artifact-producing
run writes a ``*_manifest.txt`` with the effective configuration, in
the same replacing step as its CSVs (a failed open or write changes
none of them; the finished files are then moved into place one by
one), and every CSV starts with a provenance comment block.  Outputs contain no
timestamps: the same configuration and seed reproduce identical bytes.

Exit codes: 0 success, 2 usage, 3 I/O, 4 data.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import __version__, csvio
from .calcurve import Measurement, curve_at, load_curve, parse_date
from .evaluate import evaluate_test_series, histogram, read_eval_rows, write_evaluation
from .finedate import compute_indicators, match_measurements, normalize_indicator, write_report
from .lookup import MAX_BUCKETS, build_lookup, query_lookup, read_lookup, write_lookup
from .reftable import (
    RefTableSpec,
    build_combo_table,
    build_reference_table,
    edge_warnings,
    read_table,
    standard_spec,
    write_table,
)
from .simulate import (
    MAX_RECORDS,
    convert_rsim_to_tests,
    generate_test_datasets,
    read_tests,
    write_tests,
)

EXIT_USAGE = 2
EXIT_IO = 3
EXIT_DATA = 4


def parse_span(text: str) -> tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise ValueError(f"span must be OLD:YOUNG, got {text!r}")
    span = parse_date(parts[0]), parse_date(parts[1])
    if not all(map(math.isfinite, span)):
        raise ValueError(f"--span OLD:YOUNG must be finite years, got {text!r}")
    return span


def parse_date_range(text: str) -> list[float]:
    """START:END:STEP, inclusive of END when it lies on the grid."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"dates must be START:END:STEP, got {text!r}")
    start, end = parse_date(parts[0]), parse_date(parts[1])
    step = float(parts[2])
    if not all(map(math.isfinite, (start, end, step))):
        raise ValueError(f"--dates START:END:STEP must be finite numbers, got {text!r}")
    if step <= 0:
        raise ValueError(f"step must be > 0, got {step}")
    if (end - start) / step > MAX_RECORDS:
        raise ValueError(f"--dates {text!r} gives more than {MAX_RECORDS} dates")
    dates = []
    d = start
    while d <= end + 1e-9:
        dates.append(round(d, 9))
        d += step
    if not dates:
        raise ValueError(f"empty date range {text!r}")
    return dates


def _parse_number(text, flag: str, kind=float):
    """The finite ``kind`` (int or float) given as ``--flag``; an int
    must fit in int64, as the table columns it is matched against do."""
    try:
        value = kind(text)
    except ValueError:
        value = math.nan
    if isinstance(value, int) and not _fits_int64(value):
        raise ValueError(f"--{flag} must fit in a 64-bit integer, got {text!r}")
    if not math.isfinite(value):
        noun = "an integer" if kind is int else "a finite number"
        raise ValueError(f"--{flag} must be {noun}, got {text!r}")
    return value


def _fits_int64(value: int) -> bool:
    return -(2**63) <= value < 2**63


def load_config(path) -> dict[str, str]:
    """Flat ``key = value`` text; later keys win, '#' starts a comment."""
    config: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            if "=" not in text:
                raise ValueError(f"bad config line {lineno}: {line.rstrip()!r}")
            key, _, val = text.partition("=")
            config[key.strip()] = val.strip()
    return config


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _effective(
    args: argparse.Namespace, config: dict[str, str], key: str, default=None, attr: str | None = None
):
    """Flag value if given, else config entry, else default."""
    val = getattr(args, attr if attr else key.replace("-", "_"), None)
    if val is not None:
        return val
    if key in config:
        return config[key]
    return default


def _require(value, flag: str):
    if value is None:
        raise CliError(EXIT_USAGE, f"usage: missing required option --{flag}")
    return value


def _manifest(out_base: Path, subcommand: str, entries: dict,
              prefix: bool = False) -> tuple[dict, tuple]:
    """The provenance header of the run's CSVs (tool, subcommand, the
    manifest's bare name and the seed, if any) and the manifest itself,
    ``(path, lines)`` of '<base>_manifest.txt' (or 'run_manifest.txt'
    inside an output directory; '<prefix>_manifest.txt' where ``out_base``
    is a file ``prefix``), to be written in the same step as the CSVs
    (:func:`csvio.write_artifacts`)."""
    if prefix:
        path = out_base.with_name(out_base.name + "_manifest.txt")
    elif out_base.suffix:
        path = out_base.with_name(out_base.stem + "_manifest.txt")
    else:
        path = out_base / "run_manifest.txt"
    lines = [
        f"tool = finedating {__version__}",
        f"subcommand = {subcommand}",
    ]
    for key, val in entries.items():
        lines.append(f"{key} = {csvio.fmt(val)}")
    prov = {"tool": f"finedating {__version__}", "subcommand": subcommand, "manifest": path.name}
    if "seed" in entries:
        prov["seed"] = entries["seed"]
    return prov, (path, lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="finedating",
        description="Simulation-based radiocarbon fine-dating pipeline.",
    )
    parser.add_argument("--version", action="version", version=f"finedating {__version__}")
    parser.add_argument("--seed", type=int, default=None, help="global RNG seed")
    parser.add_argument("--config", default=None, help="flat key = value config file")
    sub = parser.add_subparsers(dest="subcommand")

    p = sub.add_parser("curve", help="inspect a calibration curve file")
    curve_sub = p.add_subparsers(dest="action")
    info = curve_sub.add_parser("info", help="knot count, domain, interpolated values")
    info.add_argument("file")
    info.add_argument("--at", default=None, help="comma-separated calendar dates")

    p = sub.add_parser("ref-gen", help="build a reference table")
    p.add_argument("--curve", default=None)
    p.add_argument("--label", default=None, help="table name, e.g. 5_20_5")
    p.add_argument("--step", type=int, default=None, help="grid step in years")
    p.add_argument("--per-slice", type=int, default=None, help="measurements per time step")
    p.add_argument("--sd", type=float, default=None)
    p.add_argument("--span", default=None, help="OLD:YOUNG, e.g. -300:20")
    p.add_argument("--combo", default=None, help="comma-separated component labels")
    p.add_argument("--out", default=None)

    p = sub.add_parser("simulate", help="generate or convert test datasets")
    sim_sub = p.add_subparsers(dest="action")
    tests = sim_sub.add_parser("tests", help="simulate clustered test datasets")
    tests.add_argument("--curve", default=None)
    tests.add_argument("--dates", default=None, help="START:END:STEP")
    tests.add_argument("--per-date", type=int, default=None)
    tests.add_argument("--group", type=int, default=None, help="measurements per dataset")
    tests.add_argument("--sd", type=float, default=None)
    tests.add_argument("--out", default=None)
    conv = sim_sub.add_parser("convert", help="cluster an exported simulation CSV")
    conv.add_argument("--in", dest="infile", default=None)
    conv.add_argument("--group", type=int, default=None)
    conv.add_argument("--out", default=None)

    p = sub.add_parser("finedate", help="match measured ages and write the report")
    p.add_argument("--ref", default=None, help="reference table CSV")
    p.add_argument("--ages", default=None, help="comma-separated integer ages BP")
    p.add_argument("--sd", default=None, help="shared sd, or comma-separated per age")
    p.add_argument("--ages-file", default=None, help="CSV with age,sd columns")
    p.add_argument("--out", default=None, help="report path prefix")

    p = sub.add_parser("evaluate", help="score a test series against a table")
    p.add_argument("--ref", default=None)
    p.add_argument("--tests", default=None)
    p.add_argument("--curve", default=None, help="curve file, sharpens the buffer warning")
    p.add_argument("--out", default=None, help="output directory")

    p = sub.add_parser("lookup", help="indicator-quality lookup table")
    lk_sub = p.add_subparsers(dest="action")
    build = lk_sub.add_parser("build")
    build.add_argument("--eval", dest="eval_file", default=None)
    build.add_argument("--bucket-width", type=float, default=None)
    build.add_argument("--out", default=None)
    query = lk_sub.add_parser("query")
    query.add_argument("--table", default=None)
    query.add_argument("--indicator", default=None)
    query.add_argument("--value", type=float, default=None)

    p = sub.add_parser("hist", help="histogram data from a CSV column or indicator")
    p.add_argument("--in", dest="infile", default=None)
    p.add_argument("--col", default=None)
    p.add_argument("--bins", type=int, default=None)
    p.add_argument("--out", default=None)

    p = sub.add_parser("scatter", help="x/y data from CSV columns or indicators")
    p.add_argument("--in", dest="infile", default=None)
    p.add_argument("--x", dest="xcol", default=None)
    p.add_argument("--y", dest="ycol", default=None)
    p.add_argument("--out", default=None)
    return parser


def _merge_negative_values(argv: list[str]) -> list[str]:
    # argparse reads values like -300:20 or -251 as flags; gluing them to
    # their option with '=' keeps the natural "--span -300:20" syntax.
    merged: list[str] = []
    i = 0
    while i < len(argv):
        token = argv[i]
        if (
            token.startswith("--")
            and "=" not in token
            and i + 1 < len(argv)
            and len(argv[i + 1]) > 1
            and argv[i + 1][0] == "-"
            and (argv[i + 1][1].isdigit() or argv[i + 1][1] == ".")
        ):
            merged.append(f"{token}={argv[i + 1]}")
            i += 2
        else:
            merged.append(token)
            i += 1
    return merged


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    argv = _merge_negative_values(argv)
    parser = build_parser()
    if not argv:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    if any(isinstance(value, list) for value in vars(args).values()):
        # argparse drops an attached value of '--' (as in --sd=--) and keeps []
        print("error: usage: '--' is not an option value", file=sys.stderr)
        return EXIT_USAGE
    if args.subcommand is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        config = load_config(args.config) if args.config else {}
        return _dispatch(args, config)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: data: {exc}", file=sys.stderr)
        return EXIT_DATA


def _dispatch(args: argparse.Namespace, config: dict[str, str]) -> int:
    seed = _effective(args, config, "seed")
    seed = int(seed) if seed is not None else 0

    if args.subcommand == "curve":
        return _cmd_curve(args, config)
    if args.subcommand == "ref-gen":
        return _cmd_ref_gen(args, config, seed)
    if args.subcommand == "simulate":
        return _cmd_simulate(args, config, seed)
    if args.subcommand == "finedate":
        return _cmd_finedate(args, config)
    if args.subcommand == "evaluate":
        return _cmd_evaluate(args, config)
    if args.subcommand == "lookup":
        return _cmd_lookup(args, config)
    if args.subcommand == "hist":
        return _cmd_hist(args, config)
    if args.subcommand == "scatter":
        return _cmd_scatter(args, config)
    raise CliError(EXIT_USAGE, f"unknown subcommand {args.subcommand!r}")


def _load_curve_arg(path_text: str):
    path = Path(path_text)
    if not path.is_file():
        raise CliError(EXIT_IO, f"io: curve file not found: {path}")
    return load_curve(path, name=path.name)


def _cmd_curve(args, config) -> int:
    if getattr(args, "action", None) != "info":
        raise CliError(EXIT_USAGE, "usage: curve needs the 'info' action")
    curve = _load_curve_arg(args.file)
    lo, hi = curve.domain
    print(f"curve: {curve.name}")
    print(f"knots: {curve.n_knots}")
    print(f"domain: {lo:g} .. {hi:g} (calendar years; negative = BC)")
    at = _effective(args, config, "at")
    if at:
        for token in str(at).split(","):
            date = parse_date(token)
            mu, sig = curve_at(curve, date)
            print(f"at {date:g}: mu={mu:.2f} BP, sigma={sig:.2f}")
    return 0


def _cmd_ref_gen(args, config, seed: int) -> int:
    curve = _load_curve_arg(_require(_effective(args, config, "curve"), "curve"))
    out = Path(_require(_effective(args, config, "out"), "out"))
    combo = _effective(args, config, "combo")
    if combo:
        labels = [t.strip() for t in str(combo).split(",") if t.strip()]
        specs = [standard_spec(label, seed + i) for i, label in enumerate(labels)]
        label = _effective(args, config, "label", "Combo")
        table = build_combo_table(curve, specs, label=label)
    else:
        label = _require(_effective(args, config, "label"), "label")
        step = _effective(args, config, "step")
        per_slice = _effective(args, config, "per-slice")
        sd = _effective(args, config, "sd")
        span = _effective(args, config, "span")
        if step is None and per_slice is None and sd is None and span is None:
            spec = standard_spec(label, seed)
        else:
            spec = RefTableSpec(
                label=label,
                year_interval=int(_require(step, "step")),
                per_slice=int(_require(per_slice, "per-slice")),
                sd=float(_require(sd, "sd")),
                span=parse_span(str(_require(span, "span"))),
                seed=seed,
            )
        table = build_reference_table(curve, spec)
    prov, manifest = _manifest(
        out,
        "ref-gen",
        {
            "curve": curve.name,
            "label": table.label,
            "seed": seed,
            "records": len(table),
            "out": out.name,
        },
    )
    write_table(table, out, extra_header=prov, texts=[manifest])
    print(f"wrote {out} ({len(table)} records)")
    return 0


def _cmd_simulate(args, config, seed: int) -> int:
    action = getattr(args, "action", None)
    if action == "tests":
        curve = _load_curve_arg(_require(_effective(args, config, "curve"), "curve"))
        dates = parse_date_range(str(_require(_effective(args, config, "dates"), "dates")))
        per_date = int(_require(_effective(args, config, "per-date"), "per-date"))
        group = int(_effective(args, config, "group", 3))
        sd = float(_require(_effective(args, config, "sd"), "sd"))
        out = Path(_require(_effective(args, config, "out"), "out"))
        series = generate_test_datasets(
            curve, dates, per_date, sd=sd, seed=seed, group_size=group
        )
        prov, manifest = _manifest(
            out,
            "simulate-tests",
            {
                "curve": curve.name,
                "dates": f"{dates[0]:g}..{dates[-1]:g}",
                "per_date": per_date,
                "group": group,
                "sd": sd,
                "seed": seed,
                "datasets": len(series),
                "out": out.name,
            },
        )
        write_tests(series, out, extra_header={**prov, "curve": curve.name}, texts=[manifest])
        print(f"wrote {out} ({len(series)} datasets)")
        return 0
    if action == "convert":
        infile = _require(_effective(args, config, "in", attr="infile"), "in")
        group = int(_effective(args, config, "group", 3))
        out = Path(_require(_effective(args, config, "out"), "out"))
        series, leftovers = convert_rsim_to_tests(infile, group_size=group)
        prov, manifest = _manifest(
            out,
            "simulate-convert",
            {
                "in": Path(str(infile)).name,
                "group": group,
                "datasets": len(series),
                "leftover_rows": sum(count for _, _, count in leftovers),
                "out": out.name,
            },
        )
        write_tests(series, out, extra_header=prov, texts=[manifest])
        for date, sd, count in leftovers:
            print(
                f"warning: {count} leftover row(s) at date {date:g} sd {sd:g} did not fill a "
                f"group of {group} and were excluded",
                file=sys.stderr,
            )
        print(f"wrote {out} ({len(series)} datasets)")
        return 0
    raise CliError(EXIT_USAGE, "usage: simulate needs an action: tests or convert")


def _parse_measurements(args, config) -> list[Measurement]:
    ages_file = _effective(args, config, "ages-file")
    if ages_file:
        _, columns, rows = csvio.read_commented_csv(ages_file)
        cols = [c.casefold() for c in columns]
        if "age" not in cols or "sd" not in cols:
            raise ValueError(f"ages file {ages_file} needs 'age' and 'sd' columns")
        ai, si = cols.index("age"), cols.index("sd")
        return [Measurement(age=_file_age(r[ai], ages_file, i), sd=float(r[si]))
                for i, r in enumerate(rows, start=1)]
    ages_text = _require(_effective(args, config, "ages"), "ages")
    ages = [_parse_number(t, "ages", int) for t in str(ages_text).split(",") if t.strip()]
    sd_text = str(_require(_effective(args, config, "sd"), "sd"))
    sds = [float(t) for t in sd_text.split(",") if t.strip()]
    if len(sds) == 1:
        sds = sds * len(ages)
    if len(sds) != len(ages):
        raise ValueError(f"{len(ages)} ages but {len(sds)} sd values")
    return [Measurement(age=a, sd=s) for a, s in zip(ages, sds)]


def _file_age(cell: str, path, row: int) -> int:
    try:
        age = int(cell)
    except ValueError:
        age = None
    if age is None or not _fits_int64(age):
        raise ValueError(
            f"ages file {path} row {row}: age must be an integer that fits in 64 bits, "
            f"got {cell!r}"
        )
    return age


def _cmd_finedate(args, config) -> int:
    table = read_table(_require(_effective(args, config, "ref"), "ref"))
    measurements = _parse_measurements(args, config)
    out = Path(_require(_effective(args, config, "out"), "out"))
    matches = match_measurements(table, measurements)
    indicators = compute_indicators(matches)
    prov, manifest = _manifest(
        out,
        "finedate",
        {
            "ref": table.label,
            "ages": ";".join(str(m.age) for m in measurements),
            "matches": matches.n_prime,
            "out": out.name,
        },
        prefix=True,
    )
    overview, summary = write_report(matches, indicators, out, extra_header=prov,
                                     texts=[manifest])
    for age in matches.unmatched:
        print(f"warning: measured age {age} BP has no match in the table", file=sys.stderr)
    print(f"wrote {overview} and {summary} ({matches.n_prime} matched records)")
    return 0


def _cmd_evaluate(args, config) -> int:
    table = read_table(_require(_effective(args, config, "ref"), "ref"))
    series = read_tests(_require(_effective(args, config, "tests"), "tests"))
    if not len(series):
        raise CliError(EXIT_DATA, "data: tests file holds no datasets")
    out_dir = Path(_require(_effective(args, config, "out"), "out"))

    curve_path = _effective(args, config, "curve")
    curve = _load_curve_arg(str(curve_path)) if curve_path else None
    for warning in edge_warnings(
        table, series.original_date.tolist(), float(series.sd.max()), curve=curve
    ):
        print(f"warning: {warning}", file=sys.stderr)

    rows = evaluate_test_series(table, series)
    prov, manifest = _manifest(
        out_dir,
        "evaluate",
        {
            "ref": table.label,
            "tests": len(series),
            "rows": len(rows),
            "out": out_dir.name,
        },
    )
    write_evaluation(table, series, rows, out_dir, prov, texts=[manifest])
    print(f"wrote evaluation artifacts to {out_dir} ({len(rows)} rows)")
    return 0


def _cmd_lookup(args, config) -> int:
    action = getattr(args, "action", None)
    if action == "build":
        rows = read_eval_rows(_require(_effective(args, config, "eval", attr="eval_file"), "eval"))
        width = _parse_number(_effective(args, config, "bucket-width", 5.0), "bucket-width")
        out = Path(_require(_effective(args, config, "out"), "out"))
        table = build_lookup(rows, bucket_width=width)
        prov, manifest = _manifest(
            out,
            "lookup-build",
            {"bucket_width": width, "buckets": len(table), "out": out.name},
        )
        write_lookup(table, out, extra_header=prov, texts=[manifest])
        print(f"wrote {out} ({len(table)} buckets)")
        return 0
    if action == "query":
        table = read_lookup(_require(_effective(args, config, "table"), "table"))
        indicator = normalize_indicator(
            str(_require(_effective(args, config, "indicator"), "indicator"))
        )
        value = _require(_effective(args, config, "value"), "value")
        left, count, frac12, frac25 = query_lookup(table, indicator, float(value))
        right = left + table.bucket_width
        print(f"indicator: {indicator}")
        print(f"bucket: [{left:g}, {right:g})")
        print(f"total_count: {count}")
        print(f"frac12: {'' if frac12 is None else f'{frac12:.0f}%'}")
        print(f"frac25: {'' if frac25 is None else f'{frac25:.0f}%'}")
        return 0
    raise CliError(EXIT_USAGE, "usage: lookup needs an action: build or query")


def _indicator_or_none(name: str | None) -> str | None:
    try:
        return normalize_indicator(name) if name is not None else None
    except ValueError:
        return None


def _select_values(
    path, art: csvio.Artifact, column: str, paired: str | None = None
) -> list[float]:
    """Numeric cells of a CSV column.  In a file with ``indicator`` and
    ``value`` columns, an indicator name selects the values of that
    indicator's rows, and a plain column paired with an indicator name
    takes its cells from the same rows."""
    columns, rows = art.columns, art.body
    by_indicator = "indicator" in columns and "value" in columns
    name = _indicator_or_none(column) if by_indicator else None
    if name is not None:
        column = "value"
    elif column not in columns:
        raise ValueError(f"no column {column!r} in {path}; columns are {columns}")
    elif by_indicator and paired not in columns:
        name = _indicator_or_none(paired)
    if name is not None:
        ii = columns.index("indicator")
        rows = [cells for cells in rows if cells[ii] == name]
    ci = columns.index(column)
    values = [float(cells[ci]) for cells in rows if cells[ci]]
    if not values:
        raise ValueError(f"no numeric values for {column!r} in {path}")
    return values


def _cmd_hist(args, config) -> int:
    infile = _require(_effective(args, config, "in", attr="infile"), "in")
    column = str(_require(_effective(args, config, "col"), "col"))
    out = Path(_require(_effective(args, config, "out"), "out"))
    bins = _effective(args, config, "bins")
    if bins is not None:
        bins = _parse_number(bins, "bins", int)
        if not 1 <= bins <= MAX_BUCKETS:  # np.histogram allocates every bin
            raise ValueError(f"--bins must be from 1 to {MAX_BUCKETS}, got {bins}")
    values = _select_values(infile, csvio.read_commented_csv(infile), column)
    edges, counts = histogram(values, bins=bins)
    prov, manifest = _manifest(
        out, "hist", {"in": Path(str(infile)).name, "col": column, "bins": len(counts)}
    )
    csvio.write_artifact(
        out,
        {**prov, "n": len(values)},
        {"bin_left": edges[:-1], "bin_right": edges[1:], "count": counts},
        texts=[manifest],
    )
    print(f"wrote {out} ({len(counts)} bins, n={len(values)})")
    return 0


def _cmd_scatter(args, config) -> int:
    infile = _require(_effective(args, config, "in", attr="infile"), "in")
    xcol = str(_require(_effective(args, config, "x", attr="xcol"), "x"))
    ycol = str(_require(_effective(args, config, "y", attr="ycol"), "y"))
    out = Path(_require(_effective(args, config, "out"), "out"))
    if xcol == ycol:  # the output has one column per axis, each named for its column
        raise CliError(EXIT_USAGE, f"usage: --x and --y name the same column {xcol!r}")
    art = csvio.read_commented_csv(infile)
    xs = _select_values(infile, art, xcol, paired=ycol)
    ys = _select_values(infile, art, ycol, paired=xcol)
    if len(xs) != len(ys):
        raise ValueError(f"x and y selections differ in length: {len(xs)} vs {len(ys)}")
    prov, manifest = _manifest(
        out, "scatter", {"in": Path(str(infile)).name, "x": xcol, "y": ycol, "points": len(xs)}
    )
    csvio.write_artifact(out, prov, {xcol: xs, ycol: ys}, texts=[manifest])
    print(f"wrote {out} ({len(xs)} points)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
