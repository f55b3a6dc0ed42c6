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
written, so a failed write leaves no partial artifact.  A command writes
its manifest in the same call (``texts``), so a failed write leaves no
manifest of artifacts that were never written.

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
parses the block with one ``np.loadtxt`` into the schema's dtypes.  Each
read is checked by one byte-class ``translate`` and one numpy gather of
the first byte of every line that starts in it (a blank or ``#`` line
starts with ``\\n`` or ``#``); a line that starts on the read's first
byte is checked against the byte that ended the read before.  Only
a file that check or that parse refuses goes through the line reader,
which accepts what it always did and names what is wrong; no artifact
the package writes for one of its readers takes that path.  Reads
without a schema (``hist``, ``scatter``, ``--ages-file``, ``simulate
convert``) use the line reader.

The bulk artifacts that a later command reads whole, reference tables,
test series and evaluation rows (``SIDECAR_FORMATS``), also get a binary
sidecar, ``<name>.npz`` (:func:`sidecar_path`), written by ``np.savez``
in the same replacing step as the file: its columns as a schema read of
the file gives them, the crc32 of the data lines and their byte length,
summed as the lines are written.  Int64 columns are stored as they
are, float64 columns with NaN as ``np.nan`` and -0.0 as 0.0, and a
column of ``str`` cells of printable ASCII, without comma or space, as
int32 codes, ``<name>``, into its distinct cells stored as bytes,
``<name>#labels``.  A file with any other column, or with no rows, gets
none.  The sidecar is a cache.  Every schema'd read still
parses the header and streams the data block with every check above,
and only then takes the columns from the sidecar instead of parsing
them, if it loads without pickle, its crc32 and byte length equal the
streamed block's, and it holds exactly the schema's columns (and
labels), each of the schema's dtype or of codes inside its labels, with
NaN only where the schema parses a blank cell as NaN, all of one
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
# The formats whose artifacts get a binary sidecar (:func:`sidecar_path`): the
# bulk files that a later command reads whole.
SIDECAR_FORMATS = ("finedating-reftable", "finedating-tests", "finedating-eval")
# The bits of np.nan, which is what a blank parse_float cell parses to.
_NAN_BITS = np.float64(np.nan).view(np.int64)


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
    ``path``: :func:`write_artifacts` of no artifact and this one text."""
    write_artifacts([], [(path, lines)])


def write_artifact(path, header: dict, columns: dict, extra: dict | None = None,
                   texts: list[tuple] = ()) -> None:
    """Write one artifact: :func:`write_artifacts` of it alone."""
    write_artifacts([(path, header, columns, extra)], texts)


def write_artifacts(artifacts: list[tuple], texts: list[tuple] = ()) -> None:
    """Write artifacts ``(path, header, columns, extra)`` in lockstep,
    each as header, extra lines, column line and data rows.

    ``columns`` maps each column name, in file order, to a 1-D column of
    equal length; ``extra`` maps a key to the cell tuples of its repeated
    ``# key=`` lines, or is None.  A ``checksum`` key in ``header`` is
    written, at its place, as the crc32 of the data lines, whatever value
    it holds.  Every artifact's columns are checked before any file is
    opened.  Chunk i of every artifact is formatted in one step
    (:func:`_format_steps`) and encoded once as UTF-8; only a checksummed
    artifact holds its encoded chunks until its header is known.  Each
    file is written beside its target and moved into place once all are
    written; if any open or write fails, none is.  An artifact of a
    format in ``SIDECAR_FORMATS`` whose columns :func:`_sidecar_labels`
    accepts also gets its sidecar, written the same way, with the crc32
    and byte length of its data lines summed chunk by chunk as they are
    written.  ``texts`` holds plain files ``(path, lines)``, such as a
    run's manifest, each line followed by ``\\n``, written in the same
    step and moved into place after the artifacts.  The moves are one
    ``os.replace`` per file, so a move that fails after the first leaves
    the earlier files new and the rest old.
    """
    tables = [_table(columns.values()) for _, _, columns, _ in artifacts]
    held = [[] if "checksum" in header else None for _, header, _, _ in artifacts]
    sidecars = [_sidecar_labels(columns) if header.get("format") in SIDECAR_FORMATS else None
                for _, header, columns, _ in artifacts]
    # [crc32, byte length] of the data lines, where a checksum or a sidecar needs them
    sums = [None if hold is None and labels is None else [0, 0]
            for hold, labels in zip(held, sidecars)]
    paths = ([path for path, *_ in artifacts] + [path for path, _ in texts]
             + [sidecar_path(path) for (path, *_), labels in zip(artifacts, sidecars)
                if labels is not None])
    n, m = len(artifacts), len(artifacts) + len(texts)
    with _replacing(paths) as files:
        files, text_files, sidecar_files = files[:n], files[n:m], iter(files[m:])
        for fh, (_, lines) in zip(text_files, texts):
            for line in lines:
                fh.write(line.encode("utf-8"))
                fh.write(b"\n")
        for fh, hold, (_, header, columns, extra) in zip(files, held, artifacts):
            if hold is None:
                fh.write(_head(header, columns, extra).encode("utf-8"))
        for chunks in _format_steps(tables):
            for fh, hold, total, chunk in zip(files, held, sums, chunks):
                if chunk is None:
                    continue
                # a chunk is its lines joined by "\n": each is followed by one
                data = chunk.encode("utf-8")
                if total is not None:
                    total[0] = zlib.crc32(b"\n", zlib.crc32(data, total[0]))
                    total[1] += len(data) + 1
                if hold is None:
                    fh.write(data)
                    fh.write(b"\n")
                else:
                    hold.append(data)
        for fh, hold, total, labels, (_, header, columns, extra) in zip(
                files, held, sums, sidecars, artifacts):
            if hold is not None:
                fh.write(_head({**header, "checksum": total[0]}, columns, extra).encode("utf-8"))
                for data in hold:
                    fh.write(data)
                    fh.write(b"\n")
            if labels is not None:
                # built after the formatting, so as not to add to its memory
                np.savez(next(sidecar_files), allow_pickle=False,
                         **_sidecar_members(columns, labels),
                         **{"#crc": total[0], "#bytes": total[1]})


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


def _sidecar_labels(columns: dict) -> dict[str, dict] | None:
    """Whether the columns get a sidecar (:func:`_sidecar_members`): for
    each object column, the code of each of its distinct cells, in order
    of first appearance; None where the columns get none.

    A sidecar holds only 1-D columns with rows, of int64, float64 or
    labels: object columns whose cells are all ``str`` of
    ``_LABEL_BYTES`` (no comma, no whitespace, no byte the block read
    refuses)."""
    labels = {}
    for name, column in columns.items():
        if not isinstance(column, np.ndarray) or column.ndim != 1 or column.size == 0:
            return None
        if column.dtype == object:
            cells = dict.fromkeys(column.tolist())
            if not all(isinstance(cell, str) and cell.isascii()
                       and not cell.encode().translate(None, _LABEL_BYTES) for cell in cells):
                return None
            labels[name] = dict(zip(cells, range(len(cells))))
        elif column.dtype not in (np.int64, np.float64):
            return None
    return labels


def _sidecar_members(columns: dict, labels: dict) -> dict[str, np.ndarray]:
    """The sidecar members that hold the columns exactly as a schema read
    of their data lines gives them.  An int64 column is stored as it is.
    A float64 column is stored with each NaN as ``np.nan`` and each -0.0
    as 0.0: ``fmt`` writes them blank and ``0``, which parse back so.  An
    object column (``labels``) is stored as ``<name>``, the int32 code of
    each cell, and ``<name>#labels``, its distinct cells as bytes."""
    stored = {}
    for name, column in columns.items():
        if name in labels:
            codes = labels[name]
            stored[name] = np.fromiter(map(codes.__getitem__, column.tolist()), np.int32,
                                       column.size)
            stored[name + "#labels"] = np.array([label.encode() for label in codes], "S")
            continue
        if column.dtype == np.float64:
            nan = np.isnan(column)
            if ((column[nan].view(np.int64) != _NAN_BITS).any()
                    or np.signbit(column[column == 0]).any()):
                column = np.where(nan, np.nan, column + 0.0)
        stored[name] = column
    return stored


@contextmanager
def _replacing(paths: list) -> Iterator[list]:
    """Binary files open for writing, one for each of ``paths``, each a
    temporary ``<name>.tmp-<pid>`` beside its path.  When the block
    completes, each is moved onto its path with ``os.replace``, one at a
    time; when the block or a move raises, every temporary left is
    deleted, so a failure inside the block touches no path, and a failed
    move leaves the paths before it replaced."""
    paths = [Path(path) for path in paths]
    temps = [path.with_name(f"{path.name}.tmp-{os.getpid()}") for path in paths]
    files: list = []
    try:
        for path, temp in zip(paths, temps):
            path.parent.mkdir(parents=True, exist_ok=True)
            files.append(open(temp, "wb"))
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
# The bytes of a str cell that a sidecar may hold: a data block's, but "," and
# the newline.
_LABEL_BYTES = _BLOCK_BYTES.replace(b",", b"").replace(b"\n", b"")
_DTYPES = {int: np.int64, float: np.float64, parse_float: np.float64, str.strip: object}


def _read_block(path, kind, schema: dict, extra) -> Artifact | None:
    """The artifact with its body parsed by one ``np.loadtxt``, or None
    where the line reader is needed to read or reject it.

    The header is parsed line by line as the line reader does.  The data
    block is streamed once for a running crc32, which equals
    :func:`rows_checksum` when every line ends in ``\\n`` and none is
    blank, and for the bytes the block parse cannot read as the line
    reader does: blank lines, ``#`` lines (found by the first byte of each
    line), whitespace, ``\\r``, non-ASCII bytes, or no final newline.  Then
    one ``loadtxt`` parses the block into the schema's dtypes.
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
            # the first byte of every line that starts inside the chunk, in
            # one gather: a blank or "#" line starts with "\n" or "#"
            a = np.frombuffer(chunk, np.uint8)
            starts = a[1:][a[:-1] == 10]
            if (chunk.translate(None, _BLOCK_BYTES)
                    or (starts == 10).any() or (starts == 35).any()
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
            body = _load_sidecar(path, schema, crc, size)
            if body is None:
                body = _load_block(fh, start, schema)
    return None if body is None else Artifact(meta, columns, body)


def _load_sidecar(path, schema: dict, crc: int, size: int) -> dict[str, np.ndarray] | None:
    """The columns held by the sidecar of ``path`` (:func:`sidecar_path`)
    if it provably holds this data block, else None: it loads without
    pickle; its members are the schema's columns, each ``str.strip``
    column followed by its ``#labels``, then ``#crc`` and ``#bytes``,
    which equal the block's crc32 and byte length; each column is 1-D,
    of the schema's dtype, or, for a ``str.strip`` column, of integer
    codes into its labels, which are 1-D bytes; a ``float`` column holds
    no NaN, as a blank ``float`` cell fails the parse; and the columns
    are of one length.  Any failure to load is a miss."""
    members = [member for name, parse in schema.items()
               for member in ((name, name + "#labels") if parse is str.strip else (name,))]
    try:
        # np.load of a path leaves its file open when the zip is unreadable
        with open(sidecar_path(path), "rb") as fh, np.load(fh, allow_pickle=False) as npz:
            if (npz.files != [*members, "#crc", "#bytes"] or npz["#crc"].tolist() != crc
                    or npz["#bytes"].tolist() != size):
                return None
            stored = {member: npz[member] for member in members}
        body = {}
        for name, parse in schema.items():
            column = stored[name]
            if column.ndim != 1:
                return None
            if parse is str.strip:
                labels = stored[name + "#labels"]
                if (labels.dtype.kind != "S" or labels.ndim != 1 or column.dtype.kind not in "iu"
                        or column.min() < 0 or column.max() >= labels.size):
                    return None
                column = np.array([label.decode("ascii") for label in labels.tolist()],
                                  dtype=object)[column]
            elif column.dtype != _DTYPES[parse] or (parse is float and np.isnan(column).any()):
                return None
            body[name] = column
    except Exception:  # the sidecar is a cache: whatever fails to load costs only the parse
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
