"""Spans around calls into finedating's public functions, kept outside the package.

The traced pass replaces every binding of each function in ``WRAPPED``
across the loaded ``finedating.*`` modules with a wrapper that records a
span: name, start, end and the index of the enclosing span.  Nothing in
the package changes; ``Tracer.uninstall`` restores the original bindings.
Only the functions listed are wrapped, never per-cell helpers such as
``csvio.fmt``.  A listed name that no longer exists, or that a pass never
calls, is reported as absent instead of raising.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager

# Public functions wrapped in the traced pass, as "module.function".
WRAPPED = (
    "calcurve.calibrate",
    "calcurve.load_curve",
    "simulate.generate_test_datasets",
    "simulate.write_tests",
    "simulate.read_tests",
    "reftable.build_reference_table",
    "reftable.write_table",
    "reftable.read_table",
    "finedate.match_measurements",
    "finedate.compute_indicators",
    "finedate.write_report",
    "evaluate.evaluate_test_series",
    "evaluate.mpd_report",
    "evaluate.interval_normality",
    "evaluate.performance_curves",
    "evaluate.average_deviation_analysis",
    "evaluate.write_eval_rows",
    "evaluate.read_eval_rows",
    "lookup.build_lookup",
    "lookup.write_lookup",
    "lookup.read_lookup",
    "lookup.query_lookup",
    "csvio.write_lines",
    "csvio.read_commented_csv",
    "parallel.ordered_map",
)

# Item counts read from a call's arguments or result: name -> (item, count).
# A count that fails on a reshaped result leaves the item absent.
COUNTED = {
    "evaluate.evaluate_test_series": ("rows", lambda args, ret: len(ret)),
    "evaluate.mpd_report": ("searches", lambda args, ret: len(ret)),
    "csvio.read_commented_csv": ("rows", lambda args, ret: len(ret[2])),
    "parallel.ordered_map": ("jobs", lambda args, ret: len(args[1])),
}

# Calls whose first argument is a file path kept for counting after the
# pass, so that no file is read or stat'ed inside a span.
PATH_ARGS = ("reftable.read_table", "csvio.write_lines")

SPAN_FIELDS = ("calls", "s", "self_s")


def layer_times(spans) -> dict[str, list]:
    """Aggregate spans into name -> [calls, inclusive s, self s].

    A span is ``(name, start, end, parent)`` with ``parent`` the index of
    the enclosing span or -1.  Self time is the span's duration minus the
    durations of its direct children; spans of one thread never overlap
    their siblings, so the children's sum is the part of the interval
    they cover.
    """
    covered = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    totals: dict[str, list] = {}
    for i, (name, start, end, parent) in enumerate(spans):
        agg = totals.setdefault(name, [0, 0.0, 0.0])
        agg[0] += 1
        agg[1] += end - start
        agg[2] += end - start - covered[i]
    return totals


class Tracer:
    """Span recorder; spans live in memory until the pass ends."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.items: dict[str, int] = {}
        self.paths: dict[str, list] = {name: [] for name in PATH_ARGS}
        self.missing: set[str] = set()
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, self.clock(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = self.clock()
        self._stack.pop()

    def count(self, key: str, n: int) -> None:
        self.items[key] = self.items.get(key, 0) + n

    def wrap(self, name: str, fn):
        counted = COUNTED.get(name)
        keep_path = name in self.paths

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._open(name)
            try:
                ret = fn(*args, **kwargs)
            finally:
                self._close(index)
            if keep_path and args:
                self.paths[name].append(args[0])
            if counted:
                item, count = counted
                try:
                    self.count(f"{name}.{item}", count(args, ret))
                except (TypeError, IndexError, KeyError, AttributeError):
                    pass
            return ret

        return wrapper

    def install(self, package: str = "finedating") -> None:
        """Wrap every binding of each listed function in the package's
        loaded modules; names that do not resolve go to ``missing``."""
        modules = [
            mod
            for key, mod in list(sys.modules.items())
            if mod is not None and (key == package or key.startswith(package + "."))
        ]
        for name in WRAPPED:
            module_name, _, attr = name.partition(".")
            owner = sys.modules.get(f"{package}.{module_name}")
            fn = getattr(owner, attr, None)
            if not callable(fn):
                self.missing.add(name)
                continue
            wrapper = self.wrap(name, fn)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._restore.append((mod, key, fn))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, fn in reversed(self._restore):
            setattr(mod, key, fn)
        self._restore.clear()

    def metrics(self, names) -> dict:
        """Values of "<span name>.calls|s|self_s" and of counted items;
        None for a span never recorded or an item never counted."""
        times = layer_times(self.spans)
        values = {}
        for name in names:
            prefix, _, field = name.rpartition(".")
            if field in SPAN_FIELDS:
                agg = times.get(prefix)
                values[name] = None if agg is None else agg[SPAN_FIELDS.index(field)]
            else:
                values[name] = self.items.get(name)
        return values
