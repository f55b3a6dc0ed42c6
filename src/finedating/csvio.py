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

A read with a schema (every artifact that has a reader) parses the
header lines one by one, streams the data block once in 1 MiB reads for
its crc32 and for anything a block parse would read otherwise (blank or
``#`` lines, whitespace, ``\\r``, non-ASCII bytes, no final newline), and
parses the block with one ``np.loadtxt`` into the schema's dtypes.  Only
a file that check or that parse refuses goes through the line reader,
which accepts what it always did and names what is wrong; no artifact
the package writes for one of its readers takes that path.  Reads
without a schema (``hist``, ``scatter``, ``--ages-file``, ``simulate
convert``) use the line reader.
"""

from __future__ import annotations

import warnings
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

    A schema'd file is read in one block pass (:func:`_read_block`); only
    a file that pass refuses, and every schema-less file, goes through
    the line reader, which names what is wrong.
    """
    if schema is not None:
        artifact = _read_block(path, kind, schema, extra)
        if artifact is not None:
            return artifact
    return _read_lines(path, kind, schema, extra)


def _read_lines(path, kind, schema, extra) -> Artifact:
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
                _meta_line(meta, line, extra)
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
    if "checksum" in meta and meta["checksum"] != str(rows_checksum(data)):
        raise ValueError(f"corrupt table: checksum mismatch in {path}")
    if schema is None:
        return Artifact(meta, columns, [[cell.strip() for cell in ln.split(",")] for ln in data])
    try:
        return Artifact(meta, columns, _parse_body(data, schema))
    except OverflowError:
        raise ValueError(f"integer cell out of range in {path}") from None


def _meta_line(meta: dict, line: str, extra) -> None:
    key, eq, val = line[1:].partition("=")
    key, val = key.strip(), val.strip()
    if key in extra:
        meta[key].append([cell.strip() for cell in val.split(",")])
    elif eq:
        meta[key] = val


# Bytes read per step of the block check.
_BLOCK = 1 << 20
# The bytes a data block may hold: printable ASCII but the space, and the
# newline.  A file with any other byte (\r, tab, space, non-ASCII) is left
# to the line reader.
_BLOCK_BYTES = bytes(range(0x21, 0x7F)) + b"\n"
_DTYPES = {int: np.int64, float: np.float64, parse_float: np.float64, str.strip: object}


def _read_block(path, kind, schema: dict, extra) -> Artifact | None:
    """The artifact with its body parsed by one ``np.loadtxt``, or None
    where the line reader is needed to read or reject it.

    The header is parsed line by line as the line reader does.  The data
    block is streamed once for a running crc32, which equals
    :func:`rows_checksum` when every line ends in ``\\n`` and none is
    blank, and for the bytes the block parse cannot read as the line
    reader does: blank lines, ``#`` lines, whitespace, ``\\r``, non-ASCII
    bytes, or no final newline.  Then one ``loadtxt`` parses the block
    into the schema's dtypes.
    """
    meta: dict = {key: [] for key in extra}
    with open(path, "rb") as fh:
        for raw in fh:
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError:
                return None
            if "\r" in line:
                return None
            line = line.rstrip("\n")
            if not line.strip():
                continue
            if not line.startswith("#"):
                break
            _meta_line(meta, line, extra)
        else:
            return None
        columns = [cell.strip() for cell in line.split(",")]
        if columns != list(schema) or (kind is not None and meta.get("format") != kind):
            return None
        start, crc, tail = fh.tell(), 0, b"\n"
        while chunk := fh.read(_BLOCK):
            if (chunk.translate(None, _BLOCK_BYTES) or b"\n\n" in chunk or b"\n#" in chunk
                    or (tail == b"\n" and chunk[:1] in (b"\n", b"#"))):
                return None
            crc = zlib.crc32(chunk, crc)
            tail = chunk[-1:]
        if tail != b"\n" or ("checksum" in meta and meta["checksum"] != str(crc)):
            return None
        if fh.tell() == start:
            body = {name: np.empty(0, _DTYPES[parse]) for name, parse in schema.items()}
        else:
            body = _load_block(fh, start, schema)
    return None if body is None else Artifact(meta, columns, body)


def _load_block(fh, start: int, schema: dict) -> dict[str, np.ndarray] | None:
    # Blank parse_float cells are NaN, which loadtxt has no option for: a
    # block the plain parse refuses is parsed again with parse_float as
    # the converter of those columns.  Warnings are errors, as numpy 1.24
    # only warns when it reads an int cell such as 3.0 through float.
    dtype = np.dtype([(name, _DTYPES[parse]) for name, parse in schema.items()])
    blanks = {i: parse for i, parse in enumerate(schema.values()) if parse is parse_float}
    for converters in (None, blanks) if blanks else (None,):
        fh.seek(start)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                table = np.loadtxt(
                    fh, delimiter=",", dtype=dtype, comments=None, quotechar=None, ndmin=1,
                    encoding="utf-8", converters=converters,
                )
        except (ValueError, OverflowError, Warning):
            continue
        return {name: np.ascontiguousarray(table[name]) for name in schema}
    return None


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


def check_count(meta: dict, key: str, n: int, path) -> None:
    """Reject a file whose ``key`` header, where it has one, is not ``n``:
    the count its writer declared of what the file holds."""
    if key in meta and meta[key] != str(n):
        raise ValueError(f"corrupt file: {path} holds {n} {key}, its header says {meta[key]}")


def rows_checksum(lines: list[str]) -> int:
    """crc32 over the data lines of a table, header excluded; each line
    is followed by ``\\n``, so chunks of lines joined by ``\\n`` give the
    same crc."""
    crc = 0
    for line in lines:
        crc = zlib.crc32(line.encode("utf-8"), crc)
        crc = zlib.crc32(b"\n", crc)
    return crc
