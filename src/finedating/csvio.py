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
``fmt`` runs once per distinct value.  A column of ``str`` cells is
written from one form, :class:`Labels`: integer codes into its distinct
names, given so by the caller (``evaluate``'s ``indicator`` and
``category``) or built once per call from an object column; a step
gathers its names by code, and ``fmt``, which returns a ``str`` as it
is, does not run.  The other object columns run ``fmt`` once per
distinct cell, with any label names of the step beside them, or not at
all when every such cell of the step is a ``str``.  Memory is bounded by one
step's strings, except that a checksummed artifact holds its data lines
until its header is written.  A call of more than ``_FORK_CELLS`` cells
(``evaluate``'s 1.2 million) over two steps or more is formatted on two
CPUs: a forked child formats the odd steps and pipes them back while the
writer formats the even ones (:func:`_format_steps`).  The bytes do not
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
line reader, which accepts what it always did and names what is wrong.

The bulk artifacts that a later command reads whole, reference tables,
test series and evaluation rows (``SIDECAR_FORMATS``), get that binary
sidecar, ``<name>.npz`` (:func:`sidecar_path`), written by ``np.savez``
in the same replacing step as the file: its columns as the line reader
gives them, the crc32 of the data lines and their byte length, summed
as the lines are written.  Int64 columns are stored as they are,
float64 columns with NaN as ``np.nan`` and -0.0 as 0.0, and a label
column whose names in use are printable ASCII, without comma or space,
as int32 codes, ``<name>``, into its names in use stored as bytes in
order of first appearance, ``<name>#labels``, both taken from the
column's :class:`Labels`.  A file with any other column, or with no rows, gets
none, and a rewrite that gets none deletes the old one.  The sidecar is
a cache, taken (:func:`_read_block`) only for a schema whose first
parser is ``int``, only if its members hold the schema's columns
(:func:`_load_sidecar`), and only if the file's data block has its
crc32 and byte length, that crc32 also matching any ``checksum``
header.  The crc32 is the only check of the block's bytes: a damaged
block whose crc32 and byte length both equal the written block's is
read from the sidecar.  Any other sidecar, or none, sends the file to
the line reader: deleting it, or copying a file without it, changes no
result and no message.
"""

from __future__ import annotations

import os
import signal
import threading
import warnings
import zlib
from collections.abc import Iterable, Iterator
from contextlib import closing, contextmanager
from itertools import chain
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
# The lengths of the child's stream that stand for no chunk (a table with
# fewer rows) and for a step that raised.
_NO_CHUNK, _FAILED = -1, -2
# The formats whose artifacts get a binary sidecar (:func:`sidecar_path`): the
# bulk files that a later command reads whole.
SIDECAR_FORMATS = ("finedating-reftable", "finedating-tests", "finedating-eval")
# The bits of np.nan, which is what a blank parse_float cell parses to.
_NAN_BITS = np.float64(np.nan).view(np.int64)
_OBJECT = np.dtype(object)


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
    call from an object column of ``str`` cells, and a read asked for
    ``labels`` gives its ``str.strip`` columns in it."""

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
    opened.  Chunk i of every artifact is formatted in one step and
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
    same way, its label columns' codes and ``#labels`` taken from their
    :class:`Labels`, with the crc32 and byte length of its data lines
    summed chunk by chunk as they are written; once the files are moved, the old
    sidecar of every other artifact is deleted.  ``texts`` holds plain
    files ``(path, lines)``, such as a run's manifest, each line followed
    by ``\\n``, written in the same step and moved into place after the
    artifacts.  The moves are one ``os.replace`` per file, so a move that
    fails after the first leaves the earlier files new and the rest old.
    """
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
        for fh, hold, (_, header, columns, extra) in zip(files, held, artifacts):
            if hold is None:
                fh.write(_head(header, columns, extra).encode("utf-8"))
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
        for fh, hold, total, labels, table, (_, header, columns, extra) in zip(
                files, held, sums, sidecars, tables, artifacts):
            if hold is not None:
                fh.write(_head({**header, "checksum": total[0]}, columns, extra).encode("utf-8"))
                for data in hold:
                    fh.write(data)
                    fh.write(b"\n")
            if labels is not None:
                # built after the formatting, so as not to add to its memory
                np.savez(next(sidecar_files), allow_pickle=False,
                         **_sidecar_members(dict(zip(columns, table)), labels),
                         **{"#crc": total[0], "#bytes": total[1]})
    for (path, *_), labels in zip(artifacts, sidecars):
        if labels is None:
            sidecar_path(path).unlink(missing_ok=True)


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


def _sidecar_labels(columns: dict, table: list) -> dict[str, tuple] | None:
    """Whether the columns get a sidecar (:func:`_sidecar_members`): for
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


def _sidecar_members(columns: dict, labels: dict) -> dict[str, np.ndarray]:
    """The sidecar members that hold the columns exactly as a schema read
    of their data lines gives them.  An int64 column is stored as it is.
    A float64 column is stored with each NaN as ``np.nan`` and each -0.0
    as 0.0: ``fmt`` writes them blank and ``0``, which parse back so.  A
    label column (``labels``) is stored as ``<name>``, the int32 code of
    each cell, and ``<name>#labels``, its distinct cells as bytes."""
    stored = {}
    for name, column in columns.items():
        if name in labels:
            recode, names = labels[name]
            stored[name] = recode[column.codes]
            stored[name + "#labels"] = np.array([label.encode() for label in names], "S")
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
    per chunk of up to ``_CHUNK`` rows: :func:`_format_step` of one
    table, step by step, in this process."""
    table = _table(columns)
    return (_format_step([table], start)[0]
            for start in range(0, len(table[0]) if table else 0, _CHUNK))


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
    step is the same bytes whichever process formats it.  A step that
    raises in the child is formatted again here, so that it raises as
    the serial call does; a child that ends without sending its step
    gives ``OSError``.  Once the generator ends, is closed or raises, the
    pipe is closed and the child reaped, killed first unless the steps
    ran to the end.
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
    and the chunk, or ``_NO_CHUNK``; or ``_FAILED`` alone where the step
    raises, for the parent to format it again."""
    try:
        chunks = _encoded_step(tables, start)
    except Exception:  # reported to the parent, which raises it
        out.write(_FAILED.to_bytes(8, "little", signed=True))
    else:
        for chunk in chunks:
            if chunk is None:
                out.write(_NO_CHUNK.to_bytes(8, "little", signed=True))
            else:
                out.write(len(chunk).to_bytes(8, "little", signed=True))
                out.write(chunk)
    out.flush()


def _received_step(reader: BinaryIO, n_tables: int) -> list[bytes | None] | None:
    """One step as :func:`_send_step` wrote it, or None where it raised."""
    chunks = []
    for _ in range(n_tables):
        size = int.from_bytes(_read_exactly(reader, 8), "little", signed=True)
        if size == _FAILED:
            return None
        chunks.append(None if size == _NO_CHUNK else _read_exactly(reader, size))
    return chunks


def _read_exactly(reader: BinaryIO, size: int) -> bytes:
    data = reader.read(size)
    if len(data) < size:
        raise OSError("the formatting child process ended before sending its step")
    return data


def _encoded_step(tables: list[list[np.ndarray]], start: int) -> list[bytes | None]:
    return [None if chunk is None else chunk.encode("utf-8")
            for chunk in _format_step(tables, start)]


def _format_step(tables: list[list[np.ndarray]], start: int) -> list[str | None]:
    """Chunk i of every table, rows ``start`` to ``start + _CHUNK``: its
    data lines ``\\n``-joined, or None for a table with fewer rows.

    Each cell is :func:`fmt` of its value.  The numeric and bool columns
    of one dtype, across all tables, share one ``np.unique``: ``fmt`` runs
    once per distinct value (NaNs are one value, as are -0.0 and 0.0, and
    ``fmt`` writes each alike) and the strings are gathered.  The object
    columns run ``fmt`` once per distinct cell, keyed by type and value,
    so that ``True``, ``1`` and ``1.0`` each keep their own string.
    """
    chunks = [[c[start : start + _CHUNK] for c in table] if table and start < len(table[0])
              else None for table in tables]
    cells = [None if chunk is None else [None] * len(chunk) for chunk in chunks]
    groups: dict[np.dtype, list] = {}
    for t, chunk in enumerate(chunks):
        for j, column in enumerate(chunk or ()):
            dtype = _OBJECT if isinstance(column, Labels) else column.dtype
            groups.setdefault(dtype, []).append((t, j, column))
    for dtype, members in groups.items():
        strings = _format_group(dtype, [column for _, _, column in members])
        for (t, j, _), column_strings in zip(members, strings):
            cells[t][j] = column_strings
    return [None if c is None else "\n".join(map(",".join, zip(*c))) for c in cells]


def _format_group(dtype: np.dtype, columns: list[np.ndarray | Labels]) -> list[list[str]]:
    if dtype == object:
        if all(isinstance(column, Labels) for column in columns):
            # names are str, which fmt returns as they are
            return [column.cells().tolist() for column in columns]
        # beside a column of other cells, each distinct name is formatted
        # once with them, and a step of only str cells is written as it is
        cells = [column.cells().tolist() if isinstance(column, Labels) else column.tolist()
                 for column in columns]
        types = set(map(type, chain.from_iterable(cells)))
        if types == {str}:
            return cells
        if len(types) == 1:
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
    path, kind: str | None = None, schema: dict | None = None, extra=(), labels: bool = False
) -> Artifact:
    """Read an artifact as (header key/values, column names, body).

    ``kind``, when given, must equal the ``format`` header.  ``schema``
    maps each column name to its cell parser (``int``, ``float``,
    :func:`parse_float` or ``str.strip``): the column line must equal its
    keys, and the body is one numpy column per key (int64, float64, or
    object for ``str.strip``).  Without a schema, the body is one list
    of stripped strings per row.  Keys listed in ``extra`` may repeat;
    each maps to the list of its lines' cells.  With ``labels``, each
    ``str.strip`` column is :class:`Labels` instead, taken as the sidecar
    holds it or built once from the parsed cells.

    A schema'd file is read from its sidecar where :func:`_read_block`
    accepts it: an ``int`` first column, and a data block of the
    sidecar's crc32 and byte length, that crc32 also matching any
    ``checksum`` header.  Every other file goes through the line reader,
    which names what is wrong.
    """
    if schema is not None:
        artifact = _read_block(path, kind, schema, extra, labels)
        if artifact is not None:
            return artifact
    artifact = _read_lines(path, kind, schema, extra)
    if labels and schema is not None:
        for name, parse in schema.items():
            if parse is str.strip:
                artifact.body[name] = Labels.of(artifact.body[name])
    return artifact


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


# Bytes read per step of the data block's crc32.
_BLOCK = 1 << 20
# The bytes of a str cell that a sidecar may hold: printable ASCII but the
# space and the comma.
_LABEL_BYTES = bytes(range(0x21, 0x7F)).replace(b",", b"")
# The dtype of a sidecar column of each numeric parser.
_DTYPES = {int: np.int64, float: np.float64, parse_float: np.float64}


def _read_block(path, kind, schema: dict, extra, labels: bool = False) -> Artifact | None:
    """The artifact with its body taken from its sidecar, or None where
    the line reader is needed to read or reject it.

    Only a schema whose first parser is ``int`` takes a sidecar: a data
    line then starts with an int64's digits, never blank or ``#``, so the
    line reader keeps every line that the writer summed.  The sidecar is
    opened first, so a file without one is opened only by the line
    reader; the file's data block must have the sidecar's byte length and
    crc32, which must equal any ``checksum`` header (:func:`_read_head`),
    before the sidecar's columns are loaded (:func:`_load_sidecar`).  A
    damaged block whose crc32 and byte length both collide with the
    written block's is read from the sidecar.
    """
    if next(iter(schema.values()), None) is not int:
        return None
    members = [member for name, parse in schema.items()
               for member in ((name, name + "#labels") if parse is str.strip else (name,))]
    try:
        # np.load of a path leaves its file open when the zip is unreadable
        with open(sidecar_path(path), "rb") as fh, np.load(fh, allow_pickle=False) as npz:
            if npz.files != [*members, "#crc", "#bytes"]:
                return None
            head = _read_head(path, kind, schema, extra,
                              npz["#crc"].tolist(), npz["#bytes"].tolist())
            body = None if head is None else _load_sidecar(npz, schema, labels)
    except Exception:  # a miss: the line reader reads the file and reports its errors
        return None
    return None if body is None else Artifact(*head, body)


def _read_head(path, kind, schema: dict, extra, crc: int, size: int) -> tuple[dict, list] | None:
    """The header and column names of the file, parsed line by line as
    the line reader parses them, if its column line and ``format`` are
    the schema's and its data block is ``size`` bytes of crc32 ``crc``,
    streamed in ``_BLOCK`` reads, that also equals any ``checksum``
    header; else None."""
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
        if (columns != list(schema) or (kind is not None and meta.get("format") != kind)
                or os.fstat(fh.fileno()).st_size - fh.tell() != size):
            return None
        streamed = 0
        while chunk := fh.read(_BLOCK):
            streamed = zlib.crc32(chunk, streamed)
    if streamed != crc or ("checksum" in meta and meta["checksum"] != str(crc)):
        return None
    return meta, columns


def _load_sidecar(npz, schema: dict, labels: bool = False) -> dict[str, np.ndarray] | None:
    """The columns held by an open sidecar whose members are the
    schema's columns, each ``str.strip`` column followed by its
    ``#labels``, then ``#crc`` and ``#bytes``; or None unless each column
    is 1-D, of the schema's dtype, or, for a ``str.strip`` column, of
    integer codes into its labels, which are 1-D distinct bytes; a
    ``float`` column holds no NaN, as a blank ``float`` cell fails the
    parse; and the columns are of one length.  A ``str.strip`` column is
    an object array, or with ``labels`` the codes and labels as they are
    (:class:`Labels`)."""
    body = {}
    for name, parse in schema.items():
        column = npz[name]
        if column.ndim != 1:
            return None
        if parse is str.strip:
            names = npz[name + "#labels"]
            if (names.dtype.kind != "S" or names.ndim != 1 or column.dtype.kind not in "iu"
                    or column.min() < 0 or column.max() >= names.size):
                return None
            names = np.array([label.decode("ascii") for label in names.tolist()], dtype=object)
            if len(set(names.tolist())) != names.size:
                return None
            column = Labels(column, names) if labels else names[column]
        elif column.dtype != _DTYPES[parse] or (parse is float and np.isnan(column).any()):
            return None
        body[name] = column
    return body if len(set(map(len, body.values()))) == 1 else None


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
