"""The one CSV artifact schema: every artifact is written and read here.

An artifact is a UTF-8 text file of ``\\n``-terminated lines, in order:

1. a header block of ``# key=value`` lines (``format`` first for the
   artifacts that have a reader, then provenance such as the manifest);
2. optional extra ``# key=cell,cell,...`` lines that may repeat, such as
   the ``# spec=`` lines of a reference table;
3. one column line;
4. the data rows, cells joined by ``,`` without quoting (no cell holds a
   comma).

Every cell, header value included, is :func:`fmt` of its value: ``None``
and NaN are blank, booleans are ``true``/``false``, integral floats below
1e15 drop the point, infinities are ``inf``/``-inf``, and other floats use
the shortest repr that round trips.  numpy scalars format as the Python
values they hold.  Nothing depends on time or locale, so the same seed
rebuilds byte-identical files.  A header value or extra cell that the
reader would not read back as written, one holding ``\\r`` or ``\\n`` or
with leading or trailing whitespace, is refused, as is a text line (a
manifest's) holding a line break.

Artifacts are written in lockstep (:func:`write_artifacts`): step i
formats rows ``i * 4096`` to ``(i + 1) * 4096`` (``_CHUNK``) of every
artifact of the call.  Within a step, the numeric and bool columns of
one dtype, across all the artifacts, share one ``np.unique``, and its
distinct values are formatted in one pass per kind of number
(:func:`_format_numbers`, which gives what ``fmt`` gives; ``fmt`` runs
once per distinct value of a bool column).  A column of ``str`` cells is
written from one form, :class:`Labels`: integer codes into its distinct
names, given so by the caller (``evaluate``'s ``indicator`` and
``category``) or built once per call from an object column; a step
gathers its names by code, and ``fmt``, which returns a ``str`` as it
is, does not run.  The other object columns of a step run ``fmt`` once
per distinct cell, by type and value.  Memory is bounded by one
step's strings, except that a checksummed artifact holds its data lines
until its header is written.  A call of more than ``_FORK_CELLS`` cells
(``evaluate``'s 1.2 million) over two steps or more is formatted on two
CPUs: a forked child formats the odd steps and pipes them back while the
writer formats the even ones (:func:`_format_steps`); the writer formats
any step that the child did not send whole.  The bytes do not
depend on which process formats a step.  The writer stays serial where
``os.fork`` is missing, the process may run on one CPU only, or another
Python thread runs; everything after the formatting (sums, held chunks,
headers, sidecars, moves) is the writer's alone.
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

A read has two paths.  A schema'd read (every artifact that has a
reader) of a file whose binary sidecar (below) holds its data block
takes its columns from the sidecar; every other read goes through the
line reader, which accepts what it always did and names what is wrong,
down to the line and column of a cell that its parser rejects.  Either
path gives a ``str`` column as :class:`Labels`.  Both parse the ``#``
header and the column line, and check ``format`` and the schema's
columns, with one function (:func:`_read_header`); the sidecar path
adds only its own checks (no ``\\r`` in the header, the data block's
byte length and crc32).  A file read without a schema (an ages file, an
exported simulation) names its columns in any case, and
:func:`find_columns` looks them up.

The bulk artifacts that a later command reads whole, reference tables,
test series and evaluation rows (``SIDECAR_FORMATS``), get that binary
sidecar, ``<name>.cols`` (:func:`sidecar_path`), written in the same
replacing step as the file (:func:`_write_sidecar`): one JSON header
line, then the columns' bytes as the line reader gives them, each at
the 8-byte boundary after the one before (:func:`_layout`).  The header
names the layout (``_LAYOUT``), the row count, each column's name,
little-endian dtype and offset, the names in use of each label column,
in order of first appearance, the crc32 of the data lines and their
byte length, summed as the lines are written, and the crc32 of the
column bytes.  Int64 columns are stored as they are, float64 columns
with NaN as ``np.nan`` and -0.0 as 0.0, and a label column whose names
in use are printable ASCII, without comma or space, as int32 codes into
those names, taken from the column's :class:`Labels`.  A file with any
other column, or with no rows, gets none, and a rewrite that gets none
deletes the old one.  The sidecar is a cache, read whole with one
``readinto`` and taken (:func:`_read_block`) only for a schema whose
first parser is ``int``, only if its header lays out the schema's
columns, its length and column crc32 are as the header says, its
columns pass :func:`_load_sidecar`, and the file's data block has its
crc32 and byte length, that crc32 also matching any ``checksum``
header.  The crc32 is the only check of the block's bytes: a damaged
block whose crc32 and byte length both equal the written block's is
read from the sidecar.  Any other sidecar, or none, sends the file to
the line reader: deleting it, or copying a file without it, changes no
result and no message.  The columns read are writable views of the one
buffer read.
"""

from __future__ import annotations

import os
import signal
import threading
import warnings
import zlib
from collections.abc import Iterable, Iterator
from contextlib import closing, contextmanager
from itertools import chain, product
from pathlib import Path
from typing import BinaryIO, NamedTuple

import numpy as np

# Rows formatted per step, and parsed per batch by the line reader; bounds the
# transient lists of a large file.
_CHUNK = 4096
# A call whose artifacts hold more cells than this formats its odd steps in a
# forked child (:func:`_format_steps`).  A fork and reap of a 60 MB process
# costs about 1.8 ms, and the copy-on-write faults after it about 0.6 ms,
# against 70-90 ns a cell of formatting, at most half of which the child
# takes over; a call of 128,000 cells gained nothing measurable, one of
# 384,000 about 9%.
_FORK_CELLS = 400_000
# The length in the child's stream that stands for no chunk (a table with
# fewer rows).
_NO_CHUNK = -1
# The formats whose artifacts get a binary sidecar (:func:`sidecar_path`): the
# bulk files that a later command reads whole.
SIDECAR_FORMATS = ("finedating-reftable", "finedating-tests", "finedating-eval")
# The bits of np.nan, which is what a blank parse_float cell parses to.
_NAN_BITS = np.float64(np.nan).view(np.int64)
# The layout that a sidecar's header names; a sidecar of any other is not read.
_LAYOUT = "finedating-columns-1"


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


class Labels:
    """A column of ``str`` cells as integer codes into its distinct
    cells: the column is ``names[codes]``.  ``names`` is a 1-D object
    array of distinct cells (no two equal), and may hold names that no
    row uses.  ``rows[mask]`` selects rows and keeps the names.

    The writer takes a label column in this form, given or built once per
    call from an object column of ``str`` cells, and a schema'd read gives
    its ``str.strip`` columns in it."""

    __slots__ = ("codes", "names")

    def __init__(self, codes: np.ndarray, names: np.ndarray):
        self.codes = codes
        self.names = names

    @classmethod
    def of(cls, column: np.ndarray) -> Labels:
        """The labels of a 1-D object column, its names in order of first
        appearance."""
        cells = column.tolist()
        code = {cell: k for k, cell in enumerate(dict.fromkeys(cells))}
        return cls(np.fromiter(map(code.__getitem__, cells), np.intp, len(cells)),
                   np.fromiter(code, object, len(code)))

    @property
    def shape(self) -> tuple[int, ...]:
        return self.codes.shape

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, rows) -> Labels:
        return Labels(self.codes[rows], self.names)

    def cells(self) -> np.ndarray:
        """The column as an object array."""
        return self.names[self.codes]

    def map(self, of_name) -> np.ndarray:
        """``of_name`` of each row's name, an int64 column; called once
        per name."""
        return np.array([of_name(name) for name in self.names.tolist()], np.int64)[self.codes]

    def first_seen(self) -> np.ndarray:
        """The codes that rows use, in order of their first row."""
        n = self.codes.size
        first = np.full(self.names.size, n)
        np.minimum.at(first, self.codes, np.arange(n))
        used = np.flatnonzero(first < n)
        return used[np.argsort(first[used])]


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
    it holds.  Every artifact's columns, header values and extra cells,
    and every text line, are checked before any file is opened
    (:func:`_head_cells`; a text line holding ``\\r`` or ``\\n`` is
    refused).  Chunk i of every artifact is formatted in one step and
    encoded once as UTF-8 (:func:`_format_steps`, which has a large call's
    odd steps formatted by a forked child, to the same bytes); only a
    checksummed artifact holds its encoded chunks until its header is
    known.  A column may be given as :class:`Labels`; a 1-D object column
    of ``str`` cells is made one here, once (:func:`_table`), and both
    write the same bytes.  The sums, headers, sidecars and moves are all
    made here, as in a serial call, and the child is reaped before this
    returns or raises.  Each file is written beside its target and moved
    into place once all are written; if any open or write fails, none is.
    An artifact of a format in ``SIDECAR_FORMATS`` whose columns
    :func:`_sidecar_labels` accepts also gets its sidecar, written the
    same way (:func:`_write_sidecar`), its label columns' codes and names
    taken from their :class:`Labels`, with the crc32 and byte length of
    its data lines summed chunk by chunk as they are written; once the
    files are moved, the old sidecar of every other artifact is deleted.  ``texts`` holds plain
    files ``(path, lines)``, such as a run's manifest, each line followed
    by ``\\n``, written in the same step and moved into place after the
    artifacts.  The moves are one ``os.replace`` per file, so a move that
    fails after the first leaves the earlier files new and the rest old.
    """
    heads = [_head_cells(path, header, extra) for path, header, _, extra in artifacts]
    for path, lines in texts:
        for line in lines:
            if "\r" in line or "\n" in line:
                raise ValueError(f"line {line!r} cannot be written to {path}: "
                                 "it holds a line break")
    tables = [_table(columns.values()) for _, _, columns, _ in artifacts]
    held = [[] if "checksum" in header else None for _, header, _, _ in artifacts]
    sidecars = [_sidecar_labels(columns, table) if header.get("format") in SIDECAR_FORMATS
                else None for (_, header, columns, _), table in zip(artifacts, tables)]
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
        for fh, hold, head, (_, _, columns, _) in zip(files, held, heads, artifacts):
            if hold is None:
                fh.write(_head(*head, columns))
        with closing(_format_steps(tables)) as steps:
            for chunks in steps:
                for fh, hold, total, data in zip(files, held, sums, chunks):
                    if data is None:
                        continue
                    # a chunk is its lines joined by "\n": each is followed by one
                    if total is not None:
                        total[0] = zlib.crc32(b"\n", zlib.crc32(data, total[0]))
                        total[1] += len(data) + 1
                    if hold is None:
                        fh.write(data)
                        fh.write(b"\n")
                    else:
                        hold.append(data)
        for fh, hold, total, labels, table, (cells, lines), (_, _, columns, _) in zip(
                files, held, sums, sidecars, tables, heads, artifacts):
            if hold is not None:
                fh.write(_head({**cells, "checksum": fmt(total[0])}, lines, columns))
                for data in hold:
                    fh.write(data)
                    fh.write(b"\n")
            if labels is not None:
                # built after the formatting, so as not to add to its memory
                _write_sidecar(next(sidecar_files), dict(zip(columns, table)), labels, *total)
    for (path, *_), labels in zip(artifacts, sidecars):
        if labels is None:
            sidecar_path(path).unlink(missing_ok=True)


def _head_cells(path, header: dict, extra: dict | None) -> tuple[dict[str, str], list[str]]:
    """Each header value (but ``checksum``'s, which is known only once the
    data lines are) and the extra ``# key=cell,...`` lines, each value and
    cell formatted by :func:`fmt` once.  A value or cell that the reader
    would not read back as written is refused, naming its key and the
    file: one holding ``\\r`` or ``\\n``, which the reader takes for a line
    break, or with leading or trailing whitespace, which it strips."""

    def cell(key, value) -> str:
        text = fmt(value)
        if "\r" in text or "\n" in text:
            raise ValueError(f"{key} {text!r} cannot be written to {path}: it holds a line break")
        if text != text.strip():
            raise ValueError(f"{key} {text!r} cannot be written to {path}: "
                             "it has leading or trailing whitespace")
        return text

    cells = {key: "" if key == "checksum" else cell(key, value) for key, value in header.items()}
    lines = [f"# {key}=" + ",".join(cell(key, value) for value in entry)
             for key, entries in (extra or {}).items() for entry in entries]
    return cells, lines


def _head(cells: dict[str, str], lines: list[str], columns: dict) -> bytes:
    head = [f"# {key}={text}" for key, text in cells.items()] + lines + [",".join(columns)]
    return "".join(line + "\n" for line in head).encode("utf-8")


def sidecar_path(path) -> Path:
    """The binary sidecar of an artifact: ``<name>.cols`` beside it."""
    path = Path(path)
    return path.with_name(path.name + ".cols")


def _sidecar_labels(columns: dict, table: list) -> dict[str, tuple] | None:
    """Whether the columns get a sidecar (:func:`_write_sidecar`): for
    each label column, the sidecar code of each of its codes, and its
    names in use in order of first appearance, as the object column's
    distinct cells would be; None where the columns get none.

    A sidecar holds only 1-D columns with rows, given as arrays or
    :class:`Labels`, of int64, float64 or labels (``table``, the columns
    as written) whose names in use are all ``str`` of ``_LABEL_BYTES``
    (printable ASCII, no comma, no whitespace), which the line reader
    reads back as written."""
    labels = {}
    for (name, given), column in zip(columns.items(), table):
        if (not isinstance(given, (np.ndarray, Labels)) or len(column.shape) != 1
                or not len(column)):
            return None
        if isinstance(column, Labels):
            used = column.first_seen()
            names = column.names[used].tolist()
            if not all(label.isascii() and not label.encode().translate(None, _LABEL_BYTES)
                       for label in names):
                return None
            recode = np.zeros(column.names.size, np.int32)
            recode[used] = np.arange(used.size)
            labels[name] = recode, names
        elif column.dtype not in (np.int64, np.float64):
            return None
    return labels


def _write_sidecar(fh: BinaryIO, columns: dict, labels: dict, crc: int, size: int) -> None:
    """Write the sidecar of columns whose data lines have crc32 ``crc``
    and ``size`` bytes: one header line, then each column's bytes as a
    schema read of the lines gives them, at its place in :func:`_layout`.

    The header is JSON: the layout (``_LAYOUT``), the row count, each
    column's ``[name, dtype, offset]``, the names in use of each label
    column, ``crc``, ``size``, and the crc32 of the column bytes, padded
    with spaces to a multiple of 8 bytes.  An int64 column is stored as
    it is.  A float64 column is stored with each NaN as ``np.nan`` and
    each -0.0 as 0.0: ``fmt`` writes them blank and ``0``, which parse
    back so.  A label column (``labels``) is stored as the int32 code of
    each cell into its names in use.  Each column is summed and written
    from its own buffer (:func:`_pieces`)."""
    import json  # here, so that a command that touches no sidecar never imports it

    stored = []
    for name, column in columns.items():
        if name in labels:
            column = labels[name][0][column.codes]
        elif column.dtype == np.float64:
            nan = np.isnan(column)
            if ((column[nan].view(np.int64) != _NAN_BITS).any()
                    or np.signbit(column[column == 0]).any()):
                column = np.where(nan, np.nan, column + 0.0)
        stored.append(column.astype(column.dtype.newbyteorder("<"), copy=False))
    rows = len(stored[0])
    layout, _ = _layout([(name, column.dtype.str) for name, column in zip(columns, stored)], rows)
    columns_crc = 0
    for piece in _pieces(stored):
        columns_crc = zlib.crc32(piece, columns_crc)
    head = json.dumps({"layout": _LAYOUT, "rows": rows, "columns": layout,
                       "labels": {name: names for name, (_, names) in labels.items()},
                       "crc": crc, "bytes": size, "columns_crc": columns_crc})
    fh.write((head + " " * (-(len(head) + 1) % 8) + "\n").encode("ascii"))
    for piece in _pieces(stored):
        fh.write(piece)


def _pieces(columns: list[np.ndarray]) -> Iterator[np.ndarray | bytes]:
    """The bytes of each column, then its padding to 8 bytes, in pieces
    of at most ``_BLOCK`` bytes: a contiguous column gives views of its
    buffer, and a strided one (a field of a wider array, as the table's
    posterior summaries are) is copied one piece at a time, never whole."""
    for column in columns:
        step = _BLOCK // column.itemsize
        for k in range(0, len(column), step):
            yield np.ascontiguousarray(column[k : k + step])
        yield bytes(-column.nbytes % 8)


def _layout(columns: list[tuple[str, str]], rows: int) -> tuple[list[list], int]:
    """The ``[name, dtype, offset]`` of each ``(name, dtype)`` column of a
    sidecar of ``rows`` rows, each column at the 8-byte boundary after the
    one before, and the length of the column bytes, the last padded so."""
    layout, end = [], 0
    for name, dtype in columns:
        layout.append([name, dtype, end])
        end += (rows * np.dtype(dtype).itemsize + 7) // 8 * 8
    return layout, end


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


def _table(columns: Iterable) -> list[np.ndarray | Labels]:
    """The columns as written: numpy arrays (a list or tuple as an object
    array), except that a 1-D column of ``str`` cells is :class:`Labels`,
    given so or built here once; checked to be of one shape."""
    table = []
    for column in columns:
        if isinstance(column, Labels) and not _all_str(column.names):
            column = column.cells()
        elif not isinstance(column, (np.ndarray, Labels)):
            column = np.array(column, dtype=object)
        if isinstance(column, np.ndarray) and column.dtype == object and column.ndim == 1:
            labels = Labels.of(column)
            if _all_str(labels.names):
                column = labels
        table.append(column)
    if len({column.shape for column in table}) > 1:
        raise ValueError(f"columns differ in shape: {[column.shape for column in table]}")
    return table


def _all_str(names: np.ndarray) -> bool:
    return all(isinstance(name, str) for name in names.tolist())


def _format_steps(tables: list[list[np.ndarray]]) -> Iterator[list[bytes | None]]:
    """Per step, chunk i of every table (:func:`_format_step`) encoded as
    UTF-8, or None for a table with fewer rows.

    A call of more than ``_FORK_CELLS`` cells over two steps or more
    formats on two processes, where ``os.fork`` exists, the process may
    run on two CPUs and no other Python thread runs: one forked child
    formats the odd steps and sends each through a pipe
    (:func:`_send_step`), while this process formats the even steps and
    takes the odd ones in order.  Every other call is formatted here.  A
    step is the same bytes whichever process formats it.  Any step that
    the child did not send whole, because it raised there or the child
    died, is formatted here: a step that raises then raises as in the
    serial call, and one that does not gives the serial call's bytes.
    Once the generator ends, is closed or raises, the pipe is closed and
    the child reaped, killed first unless the steps ran to the end.
    """
    lengths = [len(table[0]) if table else 0 for table in tables]
    starts = range(0, max(lengths, default=0), _CHUNK)
    child = None
    if (sum(n * len(table) for n, table in zip(lengths, tables)) > _FORK_CELLS
            and len(starts) > 1 and _usable_cpus() > 1 and threading.active_count() == 1):
        child = _fork_formatter(tables, starts[1::2])
    if child is None:
        for start in starts:
            yield _encoded_step(tables, start)
        return
    pid, reader = child
    try:
        with reader:
            for k, start in enumerate(starts):
                step = _received_step(reader, len(tables)) if k % 2 else None
                yield _encoded_step(tables, start) if step is None else step
    except BaseException:  # GeneratorExit included: the child may be mid-step
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.waitpid(pid, 0)


def _usable_cpus() -> int:
    """The CPUs this process may run on; 1 where it cannot fork."""
    if not hasattr(os, "fork"):
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def _fork_formatter(tables: list[list[np.ndarray]], starts: range) -> tuple[int, BinaryIO] | None:
    """The pid of a forked child that sends the steps at ``starts``
    (:func:`_send_step`), and the reading end of its pipe; None where
    ``fork`` fails.

    The child ends with ``os._exit``: it flushes none of the files it
    inherited and runs no exit handler.  Python 3.12 warns on a fork of a
    process with other threads; only native threads can be running here,
    which run no Python code and hold no lock that the child takes (numpy's
    OpenBLAS pool even stops itself before a fork), so the warning is not
    shown."""
    read_fd, write_fd = os.pipe()
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", r".*use of fork\(\) may lead to deadlocks",
                                    DeprecationWarning)
            pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        return None
    if pid == 0:
        try:
            os.close(read_fd)
            with open(write_fd, "wb") as out:
                for start in starts:
                    _send_step(out, tables, start)
        finally:
            os._exit(0)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def _send_step(out: BinaryIO, tables: list[list[np.ndarray]], start: int) -> None:
    """Write one step to the parent: per table an 8-byte signed length
    and the chunk, or ``_NO_CHUNK``.  A step that raises writes nothing,
    and ends the child."""
    for chunk in _encoded_step(tables, start):
        if chunk is None:
            out.write(_NO_CHUNK.to_bytes(8, "little", signed=True))
        else:
            out.write(len(chunk).to_bytes(8, "little", signed=True))
            out.write(chunk)
    out.flush()


def _received_step(reader: BinaryIO, n_tables: int) -> list[bytes | None] | None:
    """One step as :func:`_send_step` wrote it, or None where the child
    ended before sending it whole."""
    chunks = []
    for _ in range(n_tables):
        head = reader.read(8)
        size = int.from_bytes(head, "little", signed=True) if len(head) == 8 else None
        chunk = None if size in (None, _NO_CHUNK) else reader.read(size)
        if size is None or chunk is not None and len(chunk) < size:
            return None
        chunks.append(chunk)
    return chunks


def _encoded_step(tables: list[list[np.ndarray]], start: int) -> list[bytes | None]:
    return [None if chunk is None else chunk.encode("utf-8")
            for chunk in _format_step(tables, start)]


def _format_step(tables: list[list[np.ndarray]], start: int) -> list[str | None]:
    """Chunk i of every table, rows ``start`` to ``start + _CHUNK``: its
    data lines ``\\n``-joined, or None for a table with fewer rows.

    Each cell is :func:`fmt` of its value.  A :class:`Labels` column is
    its names gathered by code: they are ``str``, which ``fmt`` returns as
    they are.  The other columns are formatted by dtype
    (:func:`_format_group`).
    """
    chunks = [[c[start : start + _CHUNK] for c in table] if table and start < len(table[0])
              else None for table in tables]
    cells = [None if chunk is None else [None] * len(chunk) for chunk in chunks]
    groups: dict[np.dtype, list] = {}
    for t, chunk in enumerate(chunks):
        for j, column in enumerate(chunk or ()):
            if isinstance(column, Labels):
                cells[t][j] = column.cells().tolist()
            else:
                groups.setdefault(column.dtype, []).append((t, j, column))
    for dtype, members in groups.items():
        strings = _format_group(dtype, [column for _, _, column in members])
        for (t, j, _), column_strings in zip(members, strings):
            cells[t][j] = column_strings
    return [None if c is None else "\n".join(map(",".join, zip(*c))) for c in cells]


def _format_group(dtype: np.dtype, columns: list[np.ndarray]) -> list[list[str]]:
    """The cells of each of the columns of one dtype in a step.  Numeric
    and bool columns share one ``np.unique``: its sorted distinct values
    are formatted in one pass per kind (:func:`_format_numbers`; NaNs are
    one value, as are -0.0 and 0.0, each written alike) and the strings
    are gathered.  Object columns run ``fmt`` once per distinct cell,
    keyed by type and value, so that ``True``, ``1`` and ``1.0`` each keep
    their own string."""
    if dtype == object:
        # True == 1 == 1.0 and they hash alike, but each formats its own way
        keys = [list(zip(map(type, cells), cells)) for cells in map(np.ndarray.tolist, columns)]
        memo = {key: fmt(key[1]) for key in dict.fromkeys(chain.from_iterable(keys))}
        return [list(map(memo.__getitem__, column_keys)) for column_keys in keys]
    values, inverse = np.unique(np.concatenate(columns), return_inverse=True)
    strings = _format_numbers(values)[inverse]
    ends = np.cumsum([len(column) for column in columns]).tolist()
    return [strings[end - len(column) : end].tolist() for column, end in zip(columns, ends)]


def _format_numbers(values: np.ndarray) -> np.ndarray:
    """:func:`fmt` of each of ``values``, a 1-D numeric array, as an
    object array of ``str``, a pass per kind of cell: an integer dtype is
    ``str`` of each value; float64 is blank for NaN, ``str`` of the int64
    of an integral value below 1e15 in size (-0.0 is ``0``) and ``repr``
    of the rest, infinities included.  Any other dtype, such as bool, is
    ``fmt`` of each value."""
    if values.dtype.kind in "iu":
        return np.fromiter(map(str, values.tolist()), object, values.size)
    if values.dtype != np.float64:
        return np.fromiter(map(fmt, values.tolist()), object, values.size)
    strings = np.full(values.size, "", dtype=object)
    integral = (np.abs(values) < 1e15) & (values == np.trunc(values))  # NaN is neither
    rest = ~integral & ~np.isnan(values)
    ints = values[integral].astype(np.int64)
    strings[integral] = np.fromiter(map(str, ints.tolist()), object, ints.size)
    strings[rest] = np.fromiter(map(repr, values[rest].tolist()), object, np.count_nonzero(rest))
    return strings


class Artifact(NamedTuple):
    meta: dict
    columns: list[str]
    body: list | dict[str, np.ndarray]


def read_commented_csv(path, kind: str | None = None, schema: dict | None = None,
                       extra=()) -> Artifact:
    """Read an artifact as (header key/values, column names, body).

    ``kind``, when given, must equal the ``format`` header.  ``schema``
    maps each column name to its cell parser (``int``, ``float``,
    :func:`parse_float` or ``str.strip``): the column line must equal its
    keys, and the body is one column per key: int64 or float64 numpy
    arrays, and :class:`Labels` for ``str.strip``, taken as the sidecar
    holds it or built once from the parsed cells.  Without a schema, the
    body is one list of stripped strings per row.  Keys listed in
    ``extra`` may repeat; each maps to the list of its lines' cells.

    A schema'd file is read from its sidecar where :func:`_read_block`
    accepts it: an ``int`` first column, and a data block of the
    sidecar's crc32 and byte length, that crc32 also matching any
    ``checksum`` header.  Every other file goes through the line reader,
    which names what is wrong.
    """
    if schema is not None:
        artifact = _read_block(path, kind, schema, extra)
        if artifact is not None:
            return artifact
    return _read_lines(path, kind, schema, extra)


def find_columns(path, columns: list[str], aliases: dict[str, tuple[str, ...]]) -> list[int]:
    """The index in ``columns`` of each key of ``aliases``: that of the
    first of its names found among the column names, compared casefolded."""
    folded = [column.casefold() for column in columns]
    indices = []
    for kind, names in aliases.items():
        found = [folded.index(name) for name in names if name in folded]
        if not found:
            raise ValueError(f"cannot find a {kind} column in {path}; columns are {columns}")
        indices.append(found[0])
    return indices


def _read_header(lines: Iterator[str], path, kind, schema, extra) -> tuple[dict, list[str]]:
    """The ``#`` header and the column names, read from ``lines`` up to
    and including the column line, where both read paths stop: ``kind``,
    when given, must equal the ``format`` header, and ``schema``, when
    given, must have the column names as its keys.  A file without a
    column line has none, which only a read without either allows."""
    meta: dict = {key: [] for key in extra}
    for line in lines:
        line = line.rstrip("\n")
        if not line.strip():
            continue
        if line.startswith("#"):
            _meta_line(meta, line, extra)
            continue
        columns = [cell.strip() for cell in line.split(",")]
        if kind is not None and meta.get("format") != kind:
            raise ValueError(f"{path} is not a {kind} file")
        if schema is not None and columns != list(schema):
            raise ValueError(f"unexpected columns in {path}: {columns}")
        return meta, columns
    if kind is not None or schema is not None:
        raise ValueError(f"{path} has no column line")
    return meta, []


def _read_lines(path, kind, schema, extra) -> Artifact:
    data: list[str] = []
    with open(path, "r", encoding="utf-8") as fh:
        lines = enumerate(fh, start=1)
        try:
            meta, columns = _read_header((line for _, line in lines), path, kind, schema, extra)
            commas = len(columns) - 1
            for lineno, line in lines:
                line = line.rstrip("\n")
                if not line.strip():
                    continue
                if line.startswith("#"):
                    _meta_line(meta, line, extra)
                elif line.count(",") != commas:
                    raise ValueError(
                        f"ragged row in {path} at line {lineno}: "
                        f"{line.count(',') + 1} cells, the column line has {len(columns)}"
                    )
                else:
                    data.append(line)
        except UnicodeDecodeError:
            raise ValueError(f"corrupt file: {path} is not UTF-8 text") from None
    if "checksum" in meta and meta["checksum"] != str(rows_checksum(data)):
        raise ValueError(f"corrupt table: checksum mismatch in {path}")
    if schema is None:
        return Artifact(meta, columns, [[cell.strip() for cell in ln.split(",")] for ln in data])
    try:
        return Artifact(meta, columns, _parse_body(data, schema))
    except OverflowError:
        raise ValueError(f"integer cell out of range in {path}") from None
    except ValueError:
        reject_cell(path, schema.items())
        raise


def reject_cell(path, parsers, rows: Iterable[int] | None = None) -> None:
    """Raise the error of the first data cell of the file that its parser
    rejects, naming the file, the line and the column; ``parsers`` holds
    the ``(name, parser)`` of each column, in order, and ``rows``, where
    given, the indices of the data lines to look at, in order.  The file
    is read again, as the line reader reads it, only once a parse has
    failed."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [(n, line) for n, line in enumerate(fh, start=1) if line.strip() and line[0] != "#"]
    data = lines[1:]  # the first line is the column line
    if rows is not None:
        data = [data[k] for k in rows]
    # each cell of each data line, in order
    for (lineno, line), (j, (name, parse)) in product(data, enumerate(parsers)):
        try:
            parse(line.rstrip("\n").split(",")[j])
        except ValueError as exc:
            raise ValueError(f"bad cell in {path} at line {lineno}, column {name}: {exc}") from None


def _meta_line(meta: dict, line: str, extra) -> None:
    key, eq, val = line[1:].partition("=")
    key, val = key.strip(), val.strip()
    if key in extra:
        meta[key].append([cell.strip() for cell in val.split(",")])
    elif eq:
        meta[key] = val


# Bytes read per step of the data block's crc32: below glibc's initial mmap
# threshold (128 KiB), so each read reuses heap memory, where 1 MiB reads cost
# a fresh mapping and its page faults each, about half the read of a 1.9 MB
# table.
_BLOCK = 1 << 16
# The bytes of a str cell that a sidecar may hold: printable ASCII but the
# space and the comma.
_LABEL_BYTES = bytes(range(0x21, 0x7F)).replace(b",", b"")
# The dtype of a sidecar column of each parser: a label column holds codes.
_DTYPES = {int: "<i8", float: "<f8", parse_float: "<f8", str.strip: "<i4"}


def _read_block(path, kind, schema: dict, extra) -> Artifact | None:
    """The artifact with its body taken from its sidecar, or None where
    the line reader is needed to read or reject it.

    Only a schema whose first parser is ``int`` takes a sidecar: a data
    line then starts with an int64's digits, never blank or ``#``, so the
    line reader keeps every line that the writer summed.  The sidecar is
    read first, whole, with one ``readinto``, so a file without one is
    opened only by the line reader.  Its header must name ``_LAYOUT`` and
    the schema's columns at their :func:`_layout` places, the file must
    end where the last column does, and its column bytes must have the
    header's crc32.  The file's data block must then have the sidecar's
    byte length and crc32, which must equal any ``checksum`` header
    (:func:`_read_head`), before the columns are taken
    (:func:`_load_sidecar`).  A damaged block whose crc32 and byte length
    both collide with the written block's is read from the sidecar.
    """
    if next(iter(schema.values()), None) is not int:
        return None
    import json  # as in _write_sidecar

    try:
        with open(sidecar_path(path), "rb") as fh:
            data = bytearray(os.fstat(fh.fileno()).st_size)
            fh.readinto(data)  # a short read leaves zeros, which the crc32 sees
        start = data.index(b"\n") + 1
        head = json.loads(data[:start])
        layout, end = _layout([(name, _DTYPES[parse]) for name, parse in schema.items()],
                              head["rows"])
        if (head["layout"] != _LAYOUT or head["columns"] != layout or len(data) != start + end
                or zlib.crc32(memoryview(data)[start:]) != head["columns_crc"]):
            return None
        meta = _read_head(path, kind, schema, extra, head["crc"], head["bytes"])
        body = None if meta is None else _load_sidecar(data, start, head, schema)
    except Exception:  # a miss: the line reader reads the file and reports its errors
        return None
    return None if body is None else Artifact(*meta, body)


def _read_head(path, kind, schema: dict, extra, crc: int, size: int) -> tuple[dict, list] | None:
    """The header and column names of the file, as :func:`_read_header`
    reads them, if the header holds no ``\\r`` (which the line reader
    reads as a line break) and the data block after the column line is
    ``size`` bytes of crc32 ``crc``, streamed in ``_BLOCK`` reads, that
    also equals any ``checksum`` header; else None, or the error of a
    header that is not UTF-8 or that the line reader rejects."""
    with open(path, "rb") as fh:
        meta, columns = _read_header((raw.decode("utf-8") for raw in fh),
                                     path, kind, schema, extra)
        head = fh.tell()
        fh.seek(0)
        if b"\r" in fh.read(head) or os.fstat(fh.fileno()).st_size - head != size:
            return None
        streamed = 0
        while chunk := fh.read(_BLOCK):
            streamed = zlib.crc32(chunk, streamed)
    if streamed != crc or ("checksum" in meta and meta["checksum"] != str(crc)):
        return None
    return meta, columns


def _load_sidecar(data: bytearray, start: int, head: dict,
                  schema: dict) -> dict[str, np.ndarray | Labels] | None:
    """The columns of a sidecar read into ``data``, whose header ``head``
    ends at ``start`` and lays out the schema's columns, as writable views
    of ``data``; or None unless each ``str.strip`` column's names are
    distinct ASCII ``str`` and its codes index them, and no ``float``
    column holds NaN, as a blank ``float`` cell fails the parse.  A
    ``str.strip`` column is its codes and names as they are
    (:class:`Labels`)."""
    body = {}
    for name, dtype, offset in head["columns"]:
        column = np.frombuffer(data, dtype, head["rows"], start + offset)
        if schema[name] is str.strip:
            names = head["labels"][name]
            if (type(names) is not list
                    or not all(type(label) is str and label.isascii() for label in names)
                    or len(set(names)) != len(names)
                    or column.min() < 0 or column.max() >= len(names)):
                return None
            column = Labels(column, np.array(names, dtype=object))
        elif schema[name] is float and np.isnan(column).any():
            return None
        body[name] = column
    return body


def _parse_body(lines: list[str], schema: dict) -> dict[str, np.ndarray | Labels]:
    # Split a batch of lines in one call and parse it column by column
    # straight into an array: a few C-level loops per batch, no object per
    # row, and only one batch of cell strings alive at a time.
    n = len(schema)
    parts: dict[str, list] = {name: [_parse_cells([], parse)] for name, parse in schema.items()}
    for start in range(0, len(lines), _CHUNK):
        cells = ",".join(lines[start : start + _CHUNK]).split(",")
        for i, (name, parse) in enumerate(schema.items()):
            parts[name].append(_parse_cells(cells[i::n], parse))
    return {name: Labels.of(np.concatenate(chunks)) if schema[name] is str.strip
            else np.concatenate(chunks) for name, chunks in parts.items()}


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
