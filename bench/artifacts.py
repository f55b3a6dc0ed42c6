"""Digests of the CSV artifacts a workload writes, and their comparison.

A digest is a sha256 over an artifact's data lines, the lines that do not
start with ``#``, so header comments may gain fields without moving it;
manifests are never digested.  Columns named in ``FLOAT_COLUMNS`` are
blanked in the sha256 and compared as numbers at ``FLOAT_RTOL`` instead,
because a closed-form replacement of a library routine may move them by a
few ULP.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

FLOAT_COLUMNS = {"normality_by_interval.csv": ("ages_p_value",)}
FLOAT_RTOL = 1e-9


def digest_lines(lines, float_columns=()) -> dict:
    """Digest of data lines given without their newlines.

    Returns ``{"sha256": hex, "lines": n}`` plus, for each float column,
    the list of its cells as written.
    """
    sha = hashlib.sha256()
    floats: dict[str, list[str]] = {col: [] for col in float_columns}
    picks: dict[int, str] | None = None
    n = 0
    for line in lines:
        if line.startswith("#"):
            continue
        n += 1
        cells = line.split(",")
        if picks is None:
            picks = {i: cell for i, cell in enumerate(cells) if cell in floats}
        else:
            for i, col in picks.items():
                if i < len(cells):
                    floats[col].append(cells[i])
                    cells[i] = ""
        sha.update(",".join(cells).encode("utf-8"))
        sha.update(b"\n")
    return {"sha256": sha.hexdigest(), "lines": n, **floats}


def digest_file(path) -> dict:
    path = Path(path)
    with open(path, "r", encoding="utf-8") as fh:
        return digest_lines(
            (line.rstrip("\n") for line in fh), FLOAT_COLUMNS.get(path.name, ())
        )


def _same_float(a: str, b: str) -> bool:
    if a == b:
        return True
    try:
        x, y = float(a), float(b)
    except ValueError:
        return False
    return math.isclose(x, y, rel_tol=FLOAT_RTOL, abs_tol=0.0)


def mismatches(got: dict, want: dict) -> list[str]:
    """What differs between two digests; an empty list means they agree."""
    problems = []
    for key, expected in want.items():
        actual = got.get(key)
        if isinstance(expected, list):
            if not isinstance(actual, list) or len(actual) != len(expected):
                problems.append(f"{key}: {len(actual or [])} values, want {len(expected)}")
            elif not all(_same_float(a, b) for a, b in zip(actual, expected)):
                problems.append(f"{key}: values differ beyond {FLOAT_RTOL:g} relative")
        elif actual != expected:
            problems.append(f"{key}: {actual} != {expected}")
    return problems


def data_lines(path) -> list[str]:
    """Lines of a file that are neither blank nor comments, without newlines."""
    with open(path, "r", encoding="utf-8") as fh:
        return [line.rstrip("\n") for line in fh if line.strip() and not line.startswith("#")]


def data_rows(path) -> int:
    """Data lines after the column line."""
    return len(data_lines(path)) - 1
