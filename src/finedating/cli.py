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

A ``--config`` file's entries become the defaults of the options they
name, on the parser and every subcommand's: an entry is typed and
checked as its flag is (a malformed one exits 2 with the flag's
message), a flag given on the command line wins, and an entry that
names no option of the command is ignored.  The commands
read their inputs through the library: this module parses flags, calls
the pipeline and prints.

Each subcommand is declared once, in ``COMMANDS``: its help line, its
options (flag, type, default and help line), its actions with theirs,
and its handler.  A call reads argv straight from these declarations
(:func:`_scan`) where it plainly fits them: the global options, a
subcommand and its action, then that scope's exact flags as ``--flag
value`` or ``--flag=value``.  Anything else (an abbreviation, help or
the version, '--', a value the flag's type refuses, a missing or extra
word) is parsed by the whole argparse parser (:func:`build_parser`,
built from the same declarations), which prints every usage line, help
text and error, so these are the same as with the whole parser alone.

Exit codes: 0 success, 2 usage, 3 I/O, 4 data.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import __version__, csvio
from .calcurve import Measurement, curve_at, load_curve, parse_date
from .evaluate import (
    evaluate_test_series,
    histogram,
    interval_normality,
    read_eval_rows,
    select_values,
    write_evaluation,
)
from .finedate import (
    compute_indicators,
    match_measurements,
    normalize_indicator,
    parse_sd,
    read_measurements,
    write_report,
)
from .lookup import MAX_BUCKETS, build_lookup, query_lookup, read_lookup, write_lookup
from .reftable import (
    RefTableSpec,
    build_combo_table,
    build_reference_table,
    edge_warnings,
    match_ages,
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
        raise ValueError(f"--span must be OLD:YOUNG, got {text!r}")
    old, young = _finite(map(parse_date, parts),
                         f"--span OLD:YOUNG must be finite years, got {text!r}")
    return old, young


def parse_date_range(text: str) -> list[float]:
    """START:END:STEP, inclusive of END when it lies on the grid."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"--dates must be START:END:STEP, got {text!r}")
    start, end, step = _finite(
        (parse(part) for parse, part in zip((parse_date, parse_date, float), parts)),
        f"--dates START:END:STEP must be finite numbers, got {text!r}",
    )
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


def _finite(values, message: str) -> list[float]:
    """The parsed ``values``, or ``ValueError(message)`` where one fails
    to parse or is not finite: the message names the flag and its whole
    value, not the token."""
    try:
        values = list(values)
    except ValueError:
        values = [math.nan]
    if not all(map(math.isfinite, values)):
        raise ValueError(message)
    return values


def _parse_age(text: str) -> int:
    """An ``--ages`` token: an integer that fits in int64, as the table
    column it is matched against does."""
    try:
        age = int(text)
    except ValueError:
        raise ValueError(f"--ages must be an integer, got {text!r}") from None
    if not -(2**63) <= age < 2**63:
        raise ValueError(f"--ages must fit in a 64-bit integer, got {text!r}")
    return age


def load_config(path) -> dict[str, str]:
    """Flat ``key = value`` text; later keys win, '#' starts a comment."""
    config: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                text = line.strip()
                if not text or text.startswith("#"):
                    continue
                if "=" not in text:
                    raise ValueError(f"bad config line {lineno} in {path}: {line.rstrip()!r}")
                key, _, val = text.partition("=")
                config[key.strip()] = val.strip()
    except UnicodeDecodeError:
        raise ValueError(f"corrupt file: {path} is not UTF-8 text") from None
    return config


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


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
    prov = {"tool": f"finedating {__version__}", "subcommand": subcommand}
    lines = [f"{key} = {csvio.fmt(val)}" for key, val in {**prov, **entries}.items()]
    prov["manifest"] = path.name
    if "seed" in entries:
        prov["seed"] = entries["seed"]
    return prov, (path, lines)


# The options of the top-level parser, as COMMANDS declares each scope's.
GLOBAL_OPTIONS = {
    "--seed": (int, 0, "global RNG seed"),
    "--config": (str, None, "flat key = value config file"),
}


def build_parser(config: dict[str, str] | None = None) -> argparse.ArgumentParser:
    """The whole parser, built from ``GLOBAL_OPTIONS`` and ``COMMANDS``;
    each ``config`` entry is the default of the option it names
    (``per-slice`` of ``--per-slice``), which argparse converts with the
    option's type when the flag is not given."""
    parser = argparse.ArgumentParser(
        prog="finedating",
        description="Simulation-based radiocarbon fine-dating pipeline.",
    )
    parser.add_argument("--version", action="version", version=f"finedating {__version__}")
    _add_scope(parser, GLOBAL_OPTIONS, COMMANDS, "subcommand", config or {})
    return parser


def _add_scope(parser, options: dict, actions: dict, dest: str, config: dict) -> None:
    """Add ``options`` to ``parser``, and each of ``actions`` as a
    subparser named in ``dest``."""
    for name, (kind, default, help_text) in options.items():
        if name.startswith("--"):
            default = config.get(name[2:], default)
        parser.add_argument(name, type=kind, default=default, help=help_text)
    if actions:
        sub = parser.add_subparsers(dest=dest)
        for word, (help_text, sub_options, sub_actions, *_) in actions.items():
            # a help line given as None would still list the action
            _add_scope(sub.add_parser(word, **({"help": help_text} if help_text else {})),
                       sub_options, sub_actions, "action", config)


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


def _scan(argv: list[str]) -> argparse.Namespace | None:
    """The namespace the whole parser gives ``argv``, a ``--config``
    file's entries as defaults, read straight from ``GLOBAL_OPTIONS`` and
    ``COMMANDS``; None where argv is not plainly accepted, before the
    config file is opened.  It accepts the global options, a subcommand
    and its action, then only that scope's exact flags, each as ``--flag
    value`` or ``--flag=value`` and converted by its type as given, and
    its positionals; anything else (an abbreviation, help or the version,
    '--', a detached value starting with '-', a failed conversion, a
    missing or extra word) is left to the whole parser."""
    scopes, words, given = [(GLOBAL_OPTIONS, COMMANDS)], [], {}
    tokens = iter(argv)
    for token in tokens:
        options, actions = scopes[-1]
        name, eq, value = token.partition("=")
        if token.startswith("--") and name in options:
            if not eq:
                value = next(tokens, "-")
            # a detached value starting with '-' is missing, or argparse may read it as a flag
            if value == "--" or not eq and value.startswith("-"):
                return None
        elif token.startswith("-") or actions and token not in actions:
            return None
        elif actions:
            words.append(token)
            scopes.append(actions[token][1:3])
            continue
        else:  # the first positional not yet given
            name, value = next((key for key in options if key[0] != "-" and key not in given),
                               None), token
            if name is None:
                return None
        try:
            given[name] = options[name][0](value)
        except (TypeError, ValueError):
            return None
    options, actions = scopes[-1]
    if actions or any(name[0] != "-" and name not in given for name in options):
        return None
    config = load_config(given["--config"]) if given.get("--config") else {}
    values = {}
    for depth, (options, actions) in enumerate(scopes):
        for name, (kind, default, _) in options.items():
            key = name.removeprefix("--")
            if name not in given and name.startswith("--") and key in config:
                try:
                    given[name] = kind(config[key])
                except (TypeError, ValueError):
                    return None
            values[key.replace("-", "_")] = given.get(name, default)
        if actions:
            values[("subcommand", "action")[depth]] = words[depth]
    return argparse.Namespace(**values)


def _parse(argv: list[str]) -> argparse.Namespace:
    """``argv`` read by :func:`_scan`, or else parsed by the whole parser,
    which prints every usage line, help text and error."""
    args = _scan(argv)
    if args is None:
        args = build_parser().parse_args(argv)
        if args.config:
            args = build_parser(load_config(args.config)).parse_args(argv)
    return args


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    argv = _merge_negative_values(argv)
    try:
        args = _parse(argv)
        if any(isinstance(value, list) for value in vars(args).values()):
            # argparse drops an attached value of '--' (as in --sd=--) and keeps []
            raise CliError(EXIT_USAGE, "usage: '--' is not an option value")
        if args.subcommand is None:
            build_parser().print_usage(sys.stderr)
            return EXIT_USAGE
        if args.seed < 0:
            raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
        return COMMANDS[args.subcommand][3](args)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: data: {exc}", file=sys.stderr)
        return EXIT_DATA


def _load_curve_arg(path_text: str):
    path = Path(path_text)
    if not path.is_file():
        raise CliError(EXIT_IO, f"io: curve file not found: {path}")
    return load_curve(path, name=path.name)


def _cmd_curve(args) -> int:
    if args.action != "info":
        raise CliError(EXIT_USAGE, "usage: curve needs the 'info' action")
    tokens = args.at.split(",") if args.at else []
    dates = _finite(map(parse_date, tokens),
                    f"--at must be comma-separated finite years, got {args.at!r}")
    curve = _load_curve_arg(args.file)
    lo, hi = curve.domain
    print(f"curve: {curve.name}")
    print(f"knots: {curve.n_knots}")
    print(f"domain: {lo:g} .. {hi:g} (calendar years; negative = BC)")
    for date in dates:
        mu, sig = curve_at(curve, date)
        print(f"at {date:g}: mu={mu:.2f} BP, sigma={sig:.2f}")
    return 0


def _cmd_ref_gen(args) -> int:
    curve = _load_curve_arg(_require(args.curve, "curve"))
    out = Path(_require(args.out, "out"))
    if args.combo:
        labels = [t.strip() for t in args.combo.split(",") if t.strip()]
        specs = [standard_spec(label, args.seed + i) for i, label in enumerate(labels)]
        label = "Combo" if args.label is None else args.label
        table = build_combo_table(curve, specs, label=label)
    else:
        label = _require(args.label, "label")
        if args.step is None and args.per_slice is None and args.sd is None and args.span is None:
            spec = standard_spec(label, args.seed)
        else:
            spec = RefTableSpec(
                label=label,
                year_interval=_require(args.step, "step"),
                per_slice=_require(args.per_slice, "per-slice"),
                sd=_require(args.sd, "sd"),
                span=parse_span(_require(args.span, "span")),
                seed=args.seed,
            )
        table = build_reference_table(curve, spec)
    prov, manifest = _manifest(
        out,
        "ref-gen",
        {
            "curve": curve.name,
            "label": table.label,
            "seed": args.seed,
            "records": len(table),
            "out": out.name,
        },
    )
    write_table(table, out, extra_header=prov, texts=[manifest])
    print(f"wrote {out} ({len(table)} records)")
    return 0


def _cmd_simulate(args) -> int:
    if args.action == "tests":
        curve = _load_curve_arg(_require(args.curve, "curve"))
        dates = parse_date_range(_require(args.dates, "dates"))
        per_date = _require(args.per_date, "per-date")
        sd = _require(args.sd, "sd")
        out = Path(_require(args.out, "out"))
        series = generate_test_datasets(
            curve, dates, per_date, sd=sd, seed=args.seed, group_size=args.group
        )
        prov, manifest = _manifest(
            out,
            "simulate-tests",
            {
                "curve": curve.name,
                "dates": f"{dates[0]:g}..{dates[-1]:g}",
                "per_date": per_date,
                "group": args.group,
                "sd": sd,
                "seed": args.seed,
                "datasets": len(series),
                "out": out.name,
            },
        )
        write_tests(series, out, extra_header={**prov, "curve": curve.name}, texts=[manifest])
        print(f"wrote {out} ({len(series)} datasets)")
        return 0
    if args.action == "convert":
        infile = _require(getattr(args, "in"), "in")
        out = Path(_require(args.out, "out"))
        series, leftovers = convert_rsim_to_tests(infile, group_size=args.group)
        prov, manifest = _manifest(
            out,
            "simulate-convert",
            {
                "in": Path(infile).name,
                "group": args.group,
                "datasets": len(series),
                "leftover_rows": sum(count for _, _, count in leftovers),
                "out": out.name,
            },
        )
        write_tests(series, out, extra_header=prov, texts=[manifest])
        for date, sd, count in leftovers:
            print(
                f"warning: {count} leftover row(s) at date {date:g} sd {sd:g} did not fill a "
                f"group of {args.group} and were excluded",
                file=sys.stderr,
            )
        print(f"wrote {out} ({len(series)} datasets)")
        return 0
    raise CliError(EXIT_USAGE, "usage: simulate needs an action: tests or convert")


def _parse_measurements(args) -> list[Measurement]:
    if args.ages_file:
        return read_measurements(args.ages_file)
    ages = [_parse_age(t) for t in _require(args.ages, "ages").split(",") if t.strip()]
    sds = [parse_sd(t, "--sd") for t in _require(args.sd, "sd").split(",") if t.strip()]
    if len(sds) == 1:
        sds = sds * len(ages)
    if len(sds) != len(ages):
        raise ValueError(f"{len(ages)} ages but {len(sds)} sd values")
    return [Measurement(age=a, sd=s) for a, s in zip(ages, sds)]


def _cmd_finedate(args) -> int:
    table = read_table(_require(args.ref, "ref"))
    measurements = _parse_measurements(args)
    out = Path(_require(args.out, "out"))
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


def _cmd_evaluate(args) -> int:
    table = read_table(_require(args.ref, "ref"))
    series = read_tests(_require(args.tests, "tests"))
    if not len(series):
        raise CliError(EXIT_DATA, "data: tests file holds no datasets")
    out_dir = Path(_require(args.out, "out"))

    curve = _load_curve_arg(args.curve) if args.curve else None
    for warning in edge_warnings(
        table, series.original_date.tolist(), float(series.sd.max()), curve=curve
    ):
        print(f"warning: {warning}", file=sys.stderr)

    # one match for both; normality first, while the rows are not yet held
    match = match_ages(table.age, series.age)
    normality = interval_normality(table, series, match)
    rows = evaluate_test_series(table, series, match)
    del match  # 8 bytes a matched row, not held while the artifacts are written
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
    write_evaluation(rows, normality, out_dir, prov, texts=[manifest])
    print(f"wrote evaluation artifacts to {out_dir} ({len(rows)} rows)")
    return 0


def _cmd_lookup(args) -> int:
    if args.action == "build":
        rows = read_eval_rows(_require(args.eval, "eval"))
        width = args.bucket_width
        if not math.isfinite(width):
            raise ValueError(f"--bucket-width must be a finite number, got {width!r}")
        out = Path(_require(args.out, "out"))
        table = build_lookup(rows, bucket_width=width)
        prov, manifest = _manifest(
            out,
            "lookup-build",
            {"bucket_width": width, "buckets": len(table), "out": out.name},
        )
        write_lookup(table, out, extra_header=prov, texts=[manifest])
        print(f"wrote {out} ({len(table)} buckets)")
        return 0
    if args.action == "query":
        table = read_lookup(_require(args.table, "table"))
        indicator = normalize_indicator(_require(args.indicator, "indicator"))
        value = _require(args.value, "value")
        left, count, frac12, frac25 = query_lookup(table, indicator, value)
        right = left + table.bucket_width
        print(f"indicator: {indicator}")
        print(f"bucket: [{left:g}, {right:g})")
        print(f"total_count: {count}")
        print(f"frac12: {'' if frac12 is None else f'{frac12:.0f}%'}")
        print(f"frac25: {'' if frac25 is None else f'{frac25:.0f}%'}")
        return 0
    raise CliError(EXIT_USAGE, "usage: lookup needs an action: build or query")


def _cmd_hist(args) -> int:
    infile = _require(getattr(args, "in"), "in")
    column = _require(args.col, "col")
    out = Path(_require(args.out, "out"))
    if args.bins is not None and not 1 <= args.bins <= MAX_BUCKETS:
        # np.histogram allocates every bin
        raise ValueError(f"--bins must be from 1 to {MAX_BUCKETS}, got {args.bins}")
    (values,) = select_values(infile, column)
    edges, counts = histogram(values, bins=args.bins)
    prov, manifest = _manifest(
        out, "hist", {"in": Path(infile).name, "col": column, "bins": len(counts)}
    )
    csvio.write_artifact(
        out,
        {**prov, "n": len(values)},
        {"bin_left": edges[:-1], "bin_right": edges[1:], "count": counts},
        texts=[manifest],
    )
    print(f"wrote {out} ({len(counts)} bins, n={len(values)})")
    return 0


def _cmd_scatter(args) -> int:
    infile = _require(getattr(args, "in"), "in")
    xcol = _require(args.x, "x")
    ycol = _require(args.y, "y")
    out = Path(_require(args.out, "out"))
    if xcol == ycol:  # the output has one column per axis, each named for its column
        raise CliError(EXIT_USAGE, f"usage: --x and --y name the same column {xcol!r}")
    xs, ys = select_values(infile, xcol, ycol)
    if len(xs) != len(ys):
        raise ValueError(f"x and y selections differ in length: {len(xs)} vs {len(ys)}")
    prov, manifest = _manifest(
        out, "scatter", {"in": Path(infile).name, "x": xcol, "y": ycol, "points": len(xs)}
    )
    csvio.write_artifact(out, prov, {xcol: xs, ycol: ys}, texts=[manifest])
    print(f"wrote {out} ({len(xs)} points)")
    return 0


# Each subcommand: its help line, its options, its actions and its handler.
# An option maps its flag, or a positional's name, to its type, default and
# help line; an action has a help line (or None), its options and no
# actions of its own.
_TEXT = (str, None, None)  # a string option without a help line
COMMANDS = {
    "curve": ("inspect a calibration curve file", {}, {
        "info": ("knot count, domain, interpolated values",
                 {"file": _TEXT, "--at": (str, None, "comma-separated calendar dates")}, {}),
    }, _cmd_curve),
    "ref-gen": ("build a reference table", {
        "--curve": _TEXT,
        "--label": (str, None, "table name, e.g. 5_20_5"),
        "--step": (int, None, "grid step in years"),
        "--per-slice": (int, None, "measurements per time step"),
        "--sd": (float, None, None),
        "--span": (str, None, "OLD:YOUNG, e.g. -300:20"),
        "--combo": (str, None, "comma-separated component labels"),
        "--out": _TEXT,
    }, {}, _cmd_ref_gen),
    "simulate": ("generate or convert test datasets", {}, {
        "tests": ("simulate clustered test datasets", {
            "--curve": _TEXT,
            "--dates": (str, None, "START:END:STEP"),
            "--per-date": (int, None, None),
            "--group": (int, 3, "measurements per dataset"),
            "--sd": (float, None, None),
            "--out": _TEXT,
        }, {}),
        "convert": ("cluster an exported simulation CSV",
                    {"--in": _TEXT, "--group": (int, 3, None), "--out": _TEXT}, {}),
    }, _cmd_simulate),
    "finedate": ("match measured ages and write the report", {
        "--ref": (str, None, "reference table CSV"),
        "--ages": (str, None, "comma-separated integer ages BP"),
        "--sd": (str, None, "shared sd, or comma-separated per age"),
        "--ages-file": (str, None, "CSV with age,sd columns"),
        "--out": (str, None, "report path prefix"),
    }, {}, _cmd_finedate),
    "evaluate": ("score a test series against a table", {
        "--ref": _TEXT,
        "--tests": _TEXT,
        "--curve": (str, None, "curve file, sharpens the buffer warning"),
        "--out": (str, None, "output directory"),
    }, {}, _cmd_evaluate),
    "lookup": ("indicator-quality lookup table", {}, {
        "build": (None, {"--eval": _TEXT, "--bucket-width": (float, 5.0, None), "--out": _TEXT},
                  {}),
        "query": (None, {"--table": _TEXT, "--indicator": _TEXT, "--value": (float, None, None)},
                  {}),
    }, _cmd_lookup),
    "hist": ("histogram data from a CSV column or indicator",
             {"--in": _TEXT, "--col": _TEXT, "--bins": (int, None, None), "--out": _TEXT}, {},
             _cmd_hist),
    "scatter": ("x/y data from CSV columns or indicators",
                {"--in": _TEXT, "--x": _TEXT, "--y": _TEXT, "--out": _TEXT}, {}, _cmd_scatter),
}


if __name__ == "__main__":
    sys.exit(main())
