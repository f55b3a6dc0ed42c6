"""The one CSV artifact schema: every artifact is written and read here.

An artifact is a UTF-8 text file of ``\\n``-terminated lines, in order:

1. a header block of ``# key=value`` lines (``format`` first for the
   artifacts that have a reader, then provenance such as the manifest);
2. optional extra ``# key=cell,cell,...`` lines that may repeat, such as
   the ``# spec=`` lines of a reference table;
3. one column line;
4. the data rows, cells joined by ``,`` without quoting (no cell holds a
   comma).

Every cell, header value included, is formatted by :func:`fmt`: ``None``
and NaN are blank, booleans are ``true``/``false``, integral floats below
1e15 drop the point, infinities are ``inf``/``-inf``, and other floats use
the shortest repr that round trips.  numpy scalars format as the Python
values they hold.  Nothing depends on time or locale, so the same seed
rebuilds byte-identical files.

A ``checksum`` header carries the crc32 of the data lines exactly as
written; the reader recomputes it over the lines as read, so any edit to
a data line, spaces included, is rejected.  A file without the header is
not checked here; reference tables must carry one.  The reader also
rejects any data row whose cell count differs from the column line,
naming the file and the line number.
"""

from __future__ import annotations

import zlib
from collections.abc import Iterable, Iterator
from itertools import chain
from pathlib import Path
from typing import NamedTuple

import numpy as np

# Rows parsed or formatted per batch; bounds the transient lists of a large file.
_CHUNK = 1024


def fmt(value) -> str:
    """Deterministic, lossless cell formatting.

    numpy scalars format as the Python value they hold (``np.True_`` is
    ``true``, ``np.int64(3)`` is ``3``); infinities are ``inf``/``-inf``.
    """
    if type(value) is not float:  # most cells are floats: test those first
        if value is None:
            return ""
        if isinstance(value, str):
            return value
        if isinstance(value, (bool, np.bool_)):
            return "true" if value else "false"
        if isinstance(value, (int, np.integer)):
            return str(int(value))
        value = float(value)
    if value != value:
        return ""
    if value.is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def parse_float(cell: str) -> float:
    """A float cell; blank is NaN, which :func:`fmt` writes blank."""
    return float(cell.strip() or "nan")


def write_lines(path, lines: Iterable[str]) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in lines:
            fh.write(line)
            fh.write("\n")


def write_artifact(path, header: dict, columns: dict, extra: dict | None = None) -> None:
    """Write one artifact: header, extra lines, column line and data rows.

    ``columns`` maps each column name, in file order, to a 1-D column of
    equal length; ``extra`` maps a key to the cell tuples of its repeated
    ``# key=`` lines.  A ``checksum`` key in ``header`` is written, at its
    place, as the crc32 of the data lines, whatever value it holds.  The
    rows are formatted a chunk at a time (:func:`format_chunks`); only a
    checksummed artifact holds its chunk strings until the header is known.
    """
    data: Iterable[str] = format_chunks(list(columns.values()))
    if "checksum" in header:
        data = list(data)  # a chunk is its lines joined by "\n", so this is their checksum
        header = {**header, "checksum": rows_checksum(data)}
    lines = [f"# {key}={fmt(val)}" for key, val in header.items()]
    for key, entries in (extra or {}).items():
        lines.extend(f"# {key}=" + ",".join(map(fmt, cells)) for cells in entries)
    lines.append(",".join(columns))
    write_lines(path, chain(lines, data))


def format_chunks(columns: list) -> Iterator[str]:
    """The data lines of equal-length columns, ``\\n``-joined, one string
    per chunk of up to ``_CHUNK`` rows.

    Each cell is :func:`fmt` of its value.  A numeric or bool numpy column
    runs ``fmt`` once per distinct value of the chunk (NaNs are one value,
    as are -0.0 and 0.0, and ``fmt`` writes each alike) and gathers the
    strings.  An object array, or a column given as a list or tuple, runs
    it cell by cell on the values as given.
    """
    columns = [c if isinstance(c, np.ndarray) else np.array(c, dtype=object) for c in columns]
    if len({column.shape for column in columns}) > 1:
        raise ValueError(f"columns differ in shape: {[column.shape for column in columns]}")
    n = len(columns[0]) if columns else 0
    return (_format_rows([c[i : i + _CHUNK] for c in columns]) for i in range(0, n, _CHUNK))


def _format_rows(columns: list[np.ndarray]) -> str:
    return "\n".join(map(",".join, zip(*map(_format_column, columns))))


def _format_column(column: np.ndarray) -> list[str]:
    if column.dtype == object:
        return list(map(fmt, column.tolist()))
    values, inverse = np.unique(column, return_inverse=True)
    return np.array(list(map(fmt, values.tolist())), dtype=object)[inverse].tolist()


class Artifact(NamedTuple):
    meta: dict
    columns: list[str]
    body: list | dict[str, np.ndarray]


def read_commented_csv(
    path, kind: str | None = None, schema: dict | None = None, extra=()
) -> Artifact:
    """Read an artifact as (header key/values, column names, body).

    ``kind``, when given, must equal the ``format`` header.  ``schema``
    maps each column name to its cell parser (``int``, ``float``,
    :func:`parse_float` or ``str.strip``): the column line must equal its
    keys, and the body is one numpy column per key (int64, float64, or
    object for ``str.strip``).  Without a schema, the body is one list
    of stripped strings per row.  Keys listed in ``extra`` may repeat;
    each maps to the list of its lines' cells.
    """
    meta: dict = {key: [] for key in extra}
    columns: list[str] = []
    data: list[str] = []
    commas = -1
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            if line.startswith("#"):
                key, eq, val = line[1:].partition("=")
                key, val = key.strip(), val.strip()
                if key in extra:
                    meta[key].append([cell.strip() for cell in val.split(",")])
                elif eq:
                    meta[key] = val
            elif columns:
                if line.count(",") != commas:
                    raise ValueError(
                        f"ragged row in {path} at line {lineno}: "
                        f"{line.count(',') + 1} cells, the column line has {len(columns)}"
                    )
                data.append(line)
            else:
                columns = [cell.strip() for cell in line.split(",")]
                commas = len(columns) - 1
                if kind is not None and meta.get("format") != kind:
                    raise ValueError(f"{path} is not a {kind} file")
                if schema is not None and columns != list(schema):
                    raise ValueError(f"unexpected columns in {path}: {columns}")
    if not columns and (kind is not None or schema is not None):
        raise ValueError(f"{path} has no column line")
    if "checksum" in meta and int(meta["checksum"]) != rows_checksum(data):
        raise ValueError(f"corrupt table: checksum mismatch in {path}")
    if schema is None:
        return Artifact(meta, columns, [[cell.strip() for cell in ln.split(",")] for ln in data])
    try:
        return Artifact(meta, columns, _parse_body(data, schema))
    except OverflowError:
        raise ValueError(f"integer cell out of range in {path}") from None


def _parse_body(lines: list[str], schema: dict) -> dict[str, np.ndarray]:
    # Split a batch of lines in one call and parse it column by column
    # straight into an array: a few C-level loops per batch, no object per
    # row, and only one batch of cell strings alive at a time.
    n = len(schema)
    parts: dict[str, list] = {name: [_parse_cells([], parse)] for name, parse in schema.items()}
    for start in range(0, len(lines), _CHUNK):
        cells = ",".join(lines[start : start + _CHUNK]).split(",")
        for i, (name, parse) in enumerate(schema.items()):
            parts[name].append(_parse_cells(cells[i::n], parse))
    return {name: np.concatenate(chunks) for name, chunks in parts.items()}


def _parse_cells(cells: list[str], parse) -> np.ndarray:
    if parse is str.strip:
        return np.array([cell.strip() for cell in cells], dtype=object)
    return np.fromiter(map(parse, cells), np.int64 if parse is int else float, len(cells))


def rows_checksum(lines: list[str]) -> int:
    """crc32 over the data lines of a table, header excluded; each line
    is followed by ``\\n``, so chunks of lines joined by ``\\n`` give the
    same crc."""
    crc = 0
    for line in lines:
        crc = zlib.crc32(line.encode("utf-8"), crc)
        crc = zlib.crc32(b"\n", crc)
    return crc
