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

Artifacts are written in lockstep (:func:`write_artifacts`): step i
formats rows ``i * 4096`` to ``(i + 1) * 4096`` (``_CHUNK``) of every
artifact of the call.  Within a step, the numeric and bool columns of
one dtype, across all the artifacts, share one ``np.unique``, and
``fmt`` runs once per distinct value; the object columns run it once per
distinct cell.  Memory is bounded by one step's strings, except that a
checksummed artifact holds its data lines until its header is written.
Each file is written as ``<name>.tmp-<pid>`` beside its target and
moved into place with ``os.replace`` once every file of the call is
written, so a failed write leaves no partial artifact.

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

A checksummed artifact whose columns are all int64 or NaN-free float64
(the reference tables) also gets a binary sidecar, ``<name>.npz``
(:func:`sidecar_path`), written by ``np.savez`` in the same replacing
step as the file: its columns as a schema read of the file gives them,
the crc32 of the data lines and their byte length.  The sidecar is a
cache.  A schema'd read still parses the header and streams the data
block with every check above, and only then takes the columns from the
sidecar instead of parsing them, if the sidecar loads without pickle,
its crc32 and byte length equal the streamed block's, and it holds
exactly the schema's columns, 1-D, of the schema's dtypes and of one
length.  Any other sidecar, or none, costs only the parse: deleting it,
or copying a file without it, changes no result and no message.
"""

from __future__ import annotations

import os
import warnings
import zlib
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from itertools import chain
from pathlib import Path
from typing import NamedTuple

import numpy as np

# Rows formatted per step, and parsed per batch by the line reader; bounds the
# transient lists of a large file.
_CHUNK = 4096


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
    """Write each line followed by ``\\n``, through a temporary file beside
    ``path`` (:func:`_replacing`)."""
    with _replacing([path]) as (fh,):
        for line in lines:
            fh.write(line)
            fh.write("\n")


def write_artifact(path, header: dict, columns: dict, extra: dict | None = None) -> None:
    """Write one artifact: :func:`write_artifacts` of it alone."""
    write_artifacts([(path, header, columns, extra)])


def write_artifacts(artifacts: list[tuple]) -> None:
    """Write artifacts ``(path, header, columns, extra)`` in lockstep,
    each as header, extra lines, column line and data rows.

    ``columns`` maps each column name, in file order, to a 1-D column of
    equal length; ``extra`` maps a key to the cell tuples of its repeated
    ``# key=`` lines, or is None.  A ``checksum`` key in ``header`` is
    written, at its place, as the crc32 of the data lines, whatever value
    it holds.  Every artifact's columns are checked before any file is
    opened.  Chunk i of every artifact is formatted in one step
    (:func:`_format_steps`); only a checksummed artifact holds its chunk
    strings until its header is known.  Each file is written beside its
    target and moved into place once all are written; if any write
    fails, none is.  A checksummed artifact that :func:`_sidecar_columns`
    accepts also gets its sidecar, written the same way.
    """
    tables = [_table(columns.values()) for _, _, columns, _ in artifacts]
    held = [[] if "checksum" in header else None for _, header, _, _ in artifacts]
    sidecars = [None if hold is None else _sidecar_columns(columns)
                for hold, (_, _, columns, _) in zip(held, artifacts)]
    binary = [sidecar_path(path) for (path, *_), cols in zip(artifacts, sidecars) if cols]
    with _replacing([path for path, *_ in artifacts], binary) as files:
        files, sidecar_files = files[: len(artifacts)], iter(files[len(artifacts) :])
        for fh, hold, (_, header, columns, extra) in zip(files, held, artifacts):
            if hold is None:
                fh.write(_head(header, columns, extra))
        for chunks in _format_steps(tables):
            for fh, hold, chunk in zip(files, held, chunks):
                if chunk is None:
                    continue
                if hold is None:
                    fh.write(chunk)
                    fh.write("\n")
                else:
                    hold.append(chunk)
        for fh, hold, cols, (_, header, columns, extra) in zip(files, held, sidecars, artifacts):
            if hold is not None:
                # a chunk is its lines joined by "\n", so this is their checksum
                crc = rows_checksum(hold)
                fh.write(_head({**header, "checksum": crc}, columns, extra))
                for chunk in hold:
                    fh.write(chunk)
                    fh.write("\n")
                if cols:
                    # fmt writes int and float cells in ASCII: a chunk's length
                    # is its byte count
                    size = sum(map(len, hold)) + len(hold)
                    np.savez(next(sidecar_files), allow_pickle=False,
                             **{**cols, "#crc": crc, "#bytes": size})


def _head(header: dict, columns: dict, extra: dict | None) -> str:
    lines = [f"# {key}={fmt(val)}" for key, val in header.items()]
    for key, entries in (extra or {}).items():
        lines.extend(f"# {key}=" + ",".join(map(fmt, cells)) for cells in entries)
    lines.append(",".join(columns))
    return "".join(line + "\n" for line in lines)


def sidecar_path(path) -> Path:
    """The binary sidecar of an artifact: ``<name>.npz`` beside it."""
    path = Path(path)
    return path.with_name(path.name + ".npz")


def _sidecar_columns(columns: dict) -> dict | None:
    """The columns exactly as a schema read of their data lines gives
    them, or None where that is not known: a column that is not 1-D
    int64 or float64 (an object column would need pickle), or a float
    column holding NaN, which is written blank and parses as NaN or
    fails by the reader's schema.  ``fmt`` writes -0.0 as ``0``, so a
    column holding -0.0 is stored with 0.0."""
    stored = {}
    for name, column in columns.items():
        if not isinstance(column, np.ndarray) or column.ndim != 1:
            return None
        if column.dtype == np.float64:
            if np.isnan(column).any():
                return None
            if np.signbit(column[column == 0]).any():
                column = column + 0.0
        elif column.dtype != np.int64:
            return None
        stored[name] = column
    return stored


@contextmanager
def _replacing(paths: list, binary: list = ()) -> Iterator[list]:
    """Files open for writing, text for each of ``paths`` and then binary
    for each of ``binary``, each a temporary ``<name>.tmp-<pid>`` beside
    its path.  When the block completes, each is moved onto its path with
    ``os.replace``; when the block raises, every temporary is deleted and
    no path is touched."""
    text = len(paths)
    paths = [Path(path) for path in (*paths, *binary)]
    temps = [path.with_name(f"{path.name}.tmp-{os.getpid()}") for path in paths]
    files: list = []
    try:
        for i, (path, temp) in enumerate(zip(paths, temps)):
            path.parent.mkdir(parents=True, exist_ok=True)
            files.append(open(temp, "w", encoding="utf-8", newline="\n") if i < text
                         else open(temp, "wb"))
        yield files
        for fh in files:
            fh.close()
        for temp, path in zip(temps, paths):
            os.replace(temp, path)
    except BaseException:
        for fh in files:
            fh.close()
        for temp in temps[: len(files)]:
            temp.unlink(missing_ok=True)
        raise


def format_chunks(columns: list) -> Iterator[str]:
    """The data lines of equal-length columns, ``\\n``-joined, one string
    per chunk of up to ``_CHUNK`` rows: :func:`_format_steps` of one
    table."""
    return (chunks[0] for chunks in _format_steps([_table(columns)]))


def _table(columns: Iterable) -> list[np.ndarray]:
    """The columns as numpy arrays (a list or tuple as an object array),
    checked to be of one shape."""
    columns = [c if isinstance(c, np.ndarray) else np.array(c, dtype=object) for c in columns]
    if len({column.shape for column in columns}) > 1:
        raise ValueError(f"columns differ in shape: {[column.shape for column in columns]}")
    return columns


def _format_steps(tables: list[list[np.ndarray]]) -> Iterator[list[str | None]]:
    """Per step, chunk i of every table: its data lines ``\\n``-joined,
    or None for a table with fewer rows.

    Each cell is :func:`fmt` of its value.  Within a step, the numeric
    and bool columns of one dtype, across all tables, share one
    ``np.unique``: ``fmt`` runs once per distinct value (NaNs are one
    value, as are -0.0 and 0.0, and ``fmt`` writes each alike) and the
    strings are gathered.  The object columns of a step run ``fmt`` once
    per distinct cell, keyed by type and value, so that ``True``, ``1``
    and ``1.0`` each keep their own string.
    """
    lengths = [len(table[0]) if table else 0 for table in tables]
    for start in range(0, max(lengths, default=0), _CHUNK):
        chunks = [[c[start : start + _CHUNK] for c in table] if start < n else None
                  for table, n in zip(tables, lengths)]
        cells = [None if chunk is None else [None] * len(chunk) for chunk in chunks]
        groups: dict[np.dtype, list] = {}
        for t, chunk in enumerate(chunks):
            for j, column in enumerate(chunk or ()):
                groups.setdefault(column.dtype, []).append((t, j, column))
        for dtype, members in groups.items():
            strings = _format_group(dtype, [column for _, _, column in members])
            for (t, j, _), column_strings in zip(members, strings):
                cells[t][j] = column_strings
        yield [None if c is None else "\n".join(map(",".join, zip(*c))) for c in cells]


def _format_group(dtype: np.dtype, columns: list[np.ndarray]) -> list[list[str]]:
    if dtype == object:
        cells = [column.tolist() for column in columns]
        if len(set(map(type, chain.from_iterable(cells)))) == 1:
            memo = {cell: fmt(cell) for cell in dict.fromkeys(chain.from_iterable(cells))}
            return [list(map(memo.__getitem__, column_cells)) for column_cells in cells]
        # True == 1 == 1.0 and they hash alike, but each formats its own way
        keys = [list(zip(map(type, column_cells), column_cells)) for column_cells in cells]
        memo = {key: fmt(key[1]) for key in dict.fromkeys(chain.from_iterable(keys))}
        return [list(map(memo.__getitem__, column_keys)) for column_keys in keys]
    values, inverse = np.unique(np.concatenate(columns), return_inverse=True)
    strings = np.array(list(map(fmt, values.tolist())), dtype=object)[inverse]
    ends = np.cumsum([len(column) for column in columns]).tolist()
    return [strings[end - len(column) : end].tolist() for column, end in zip(columns, ends)]


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
        try:
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
        except UnicodeDecodeError:
            raise ValueError(f"corrupt file: {path} is not UTF-8 text") from None
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
            # no written cell holds "#", and a search for one byte costs a
            # fraction of a search for two
            if (chunk.translate(None, _BLOCK_BYTES) or b"\n\n" in chunk
                    or (b"#" in chunk and b"\n#" in chunk)
                    or (tail == b"\n" and chunk[:1] in (b"\n", b"#"))):
                return None
            crc = zlib.crc32(chunk, crc)
            tail = chunk[-1:]
        if tail != b"\n" or ("checksum" in meta and meta["checksum"] != str(crc)):
            return None
        size = fh.tell() - start
        if size == 0:
            body = {name: np.empty(0, _DTYPES[parse]) for name, parse in schema.items()}
        else:
            body = _load_sidecar(path, schema, crc, size) if "checksum" in meta else None
            if body is None:
                body = _load_block(fh, start, schema)
    return None if body is None else Artifact(meta, columns, body)


def _load_sidecar(path, schema: dict, crc: int, size: int) -> dict[str, np.ndarray] | None:
    """The columns held by the sidecar of ``path`` (:func:`sidecar_path`)
    if it provably holds this data block, else None: it loads without
    pickle, its ``#crc`` and ``#bytes`` equal the block's crc32 and byte
    length, and it holds exactly the schema's columns, 1-D, of the
    schema's dtypes and of one length.  Any failure to load is a miss."""
    try:
        # np.load of a path leaves its file open when the zip is unreadable
        with open(sidecar_path(path), "rb") as fh, np.load(fh, allow_pickle=False) as npz:
            if (npz.files != [*schema, "#crc", "#bytes"] or npz["#crc"].tolist() != crc
                    or npz["#bytes"].tolist() != size):
                return None
            body = {name: npz[name] for name in schema}
    except Exception:  # the sidecar is a cache: whatever fails to load costs only the parse
        return None
    if any(body[name].dtype != _DTYPES[parse] or body[name].ndim != 1
           for name, parse in schema.items()):
        return None
    return body if len({column.size for column in body.values()}) == 1 else None


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
