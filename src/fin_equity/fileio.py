"""File formats: canonical JSON and the CSV layouts.

Checkpoints and CSVs must round-trip doubles exactly, so floats in those
formats are written in scientific notation with 17 significant digits
(%.16e), which is always enough to reproduce the same double on parse.
The canonical JSON writer also fixes key order (insertion order) so that
save -> load -> save is byte-identical.

The CSV writers do not check finiteness again: a Dataset cannot hold a
non-finite feature, nor Predictions a score outside [0, 1]. Both run
_write_csv, which builds each block of lines as bytes (_line_bytes): every
field at a fixed place in a uint8 matrix, NUL-padded, and one mask drops
the NULs. A block whose ids csv.writer would quote, or that holds an id
that is not ASCII, holds a NUL or is longer than ID_BYTES, or an int of
10**8 or more, goes to csv.writer, as does every block of a file that
quotes every field (see _write_csv). Either way its float cells come from
_format_floats, the inverse of _writer_floats: FLOAT_CELL % v exactly, in
whole-array 64-bit integer steps that numpy takes alike on every host (see
_format_block), about 0.1 us a cell against 1.2-1.5 us for the %. A block
holds FLOAT_BLOCK // (floats + 3) records, so that its matrix and each
temporary stay under about 100 KB, below glibc's 128 KB mmap threshold
(see the parser below). On a 2-vCPU x86-64 host, 60,000 predictions
take 50-85 ms against 250-270 ms one % and csv.writer row a record, and
60,000 x 20 features 0.45-0.6 s against 1.9-2.0 s.

The CSV readers check the header line first, then stream the data rows
once, a block of CHUNK_TEXT bytes at a time, each run on to a line end.
While a block is plain, the byte path converts it where it lies
(_plain_columns; Langdale & Lemire, VLDB J. 2019): one scan finds every ","
and "\\n", which give each cell's start and length; each float cell's 24
bytes (a negative one's from after its "-") are gathered as three words for
the parser below (or, in any other form, cast from S24), an int cell's
first 8 as one word whose digits are summed as the parser's are, and each
id's bytes as NUL-padded words, cast to StringDType and mixed into its key
(see below). Plain means valid UTF-8 with no quote, "\\r" or NUL, and the
header's width on every line; and every cell must be in a form the byte
path reads and pass its rule. csv.reader reads the first block that is not,
from its bytes, then the rest of the file, a pipe as a file; no later block
goes back, so every error's text and line come from the row-by-row rules
below. Both formats share this path, each by its _Schema. At 80 KB a
block's temporaries stay below glibc's 128 KB mmap threshold; 4 KB blocks
made the read four times slower, from numpy's cost per call. Each block
writes its rows at their row into the read's columns (_Columns), one
allocation each (as in Apache Arrow's columnar format), for as many rows as
the file's "\\n" bytes after the header plus 1 (_line_ends: about 2 ms for
7 MB and 8 ms for 29 MB on a 2-vCPU x86-64 host); a pipe's double as they
fill. The float, int and key columns lie in anonymous memory maps
(_mapped); the StringDType id column cannot. The blocks' temporaries come
and go in malloc's heap, and kept columns among them fragmented it: with
them there, score_eval's peak RSS read 84.4-87.6 MB over 12 checkout paths,
against 80.9-89.2 MB before the byte path and 80.1-80.5 MB with the maps.

A regular file with 2 * PART_BYTES data bytes or more is read in two parts
when this process may run on 2 CPUs or more (os.sched_getaffinity): its
data rows are cut at the line end after the middle (_cut), and a forked
worker converts the second part with the same block loop while this process
converts the first (_byte_path). Threads do not help: numpy's calls on an
80 KB block are short, and the GIL is held between them. A worker imports
nothing, calls no BLAS, touches no stdio and ends in os._exit. It writes
its rows' floats, ints and id keys into the columns' shared maps from row
n1 on, n1 being the "\\n" bytes before the cut, and hands back only its
ids' bytes (_write_part), which this process casts into the id column once
it has exited (_Part.take): nothing is copied. A worker stops at its first
block that is not plain or would pass the columns, and its part counts only
while every block before it is plain, for a quote before the cut could open
a field that the cut splits (Ge et al., "Speculative Distributed CSV Data
Parsing for Big Data Analytics", SIGMOD 2019); then this process's part has
n1 rows. Else the worker is killed before this process writes a row at or
past n1, and csv.reader reads on from the first block that is not plain, as
in one pass, or from where the worker stopped; a worker that fails, or a
fork that raises, leaves its part to this process. So every value, error
text and record number is the one-pass read's. A pipe, one CPU or a smaller
file is read in one pass, and so is every file from Python 3.12 on, where
os.fork() warns in a process with threads (_CAN_SPLIT). More parts than
two, one worker each, were never measured. On a 2-vCPU x86-64 host, in a
phase where the two vCPUs ran two processes at full speed, a dataset file
of 1 MB read in 7.2-8.9 ms in one pass and 7.6-11.4 ms in two parts, 2 MB
in 13.8-15.2 and 11.3-14.5 ms, 4 MB in 26.8-30.0 and 19.7-26.3 ms, and 6 MB
in 41.8-44.4 and 26.5-40.1 ms; where the vCPUs acted as one, two parts took
6-8 ms longer at every size. So a part has at least 2 MB.

csv.reader reads CHUNK_CELLS cells a chunk, whose cells take the same
parsers, FLOAT_BLOCK at a time (_text_columns), so one function decides how
any cell becomes a number and when it is refused (_cell_values). A slice
they refuse goes to a loop over its rows in a row-by-row reader's order,
which gives each row's values or names the first rule broken, with the line
and text such a reader of the whole file gives. A chunk's rows go into the
columns, so at most one chunk's cells are alive at a time. The first
failing chunk stops the conversion, but the chunk stream is still read to
its end, so a decode error or an oversized field after it still wins.

The byte path reads float cells from their words by _writer_floats,
which takes only the writers' form with a two-digit exponent,
-?D.DDDDDDDDDDDDDDDDe[+-]DD, and gives float()'s bits for it from the same
64-bit integer product as the formatter's, the same on every host (see
_parse_floats); any other cell takes the S24 cast. It works on
FLOAT_BLOCK cells at a time, straight into the result: with a whole chunk
of 30,000 cells at once its temporaries reach 200-700 KB, past glibc's
128 KB mmap threshold, and freeing one raises that threshold, so later
chunk arrays land in the heap and can fragment it (one such variant's peak
RSS grew about 1 MB per evaluate).

Duplicate ids are found from an int64 key per id, not from a set of every
id, and only when the read ends: at the failing chunk, over the rows up to
and including its failing row, or after the last chunk. A key is computed
in numpy from the id's UTF-8 bytes, its 8-byte words mixed with its byte
length (_id_column), and both paths share that helper: a plain block
gathers its ids' bytes where they lie, and a csv.reader chunk encodes its
cells joined by NULs (_cell_bytes). So an id first read on one path and
repeated on the other has one key. One sort of the keys finds the rows
whose key an earlier row has, and a set of those rows' ids as str decides
each; so only ids whose keys collide are hashed, and PYTHONHASHSEED cannot
change the row named. The earliest duplicate wins over the chunk's own
error, as in a row loop, which checks a row's id first; the chunks before
cost a few numpy calls a block and no search. On a 2-vCPU x86-64 host the
200,000 7-byte ids of a predictions file take about 8 ms, against about 50
ms for a str and a hash() each.
"""

from __future__ import annotations

import codecs
import contextlib
import csv
import gc
import io
import json
import math
import mmap
import os
import signal
import stat
import sys
from itertools import chain, islice
from typing import Callable, NamedTuple, Sequence

import numpy as np
from numpy.dtypes import StringDType

from .core import AttributeSet, Dataset, IdColumn, Predictions
from .errors import ValidationError
from .metrics import MetricReport, PredictionHistogram

FLOAT_CELL = "%.16e"  # 17 significant digits
CHUNK_CELLS = 1 << 15  # CSV cells tokenized and checked at a time
CHUNK_TEXT = 80 << 10  # CSV bytes read at a time; see the module docstring
PART_BYTES = 2 << 20  # least data bytes of either part of a split read; see below
FLOAT_BLOCK = 4096  # float cells parsed or formatted at a time; see below


def format_float(x: float) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise ValidationError(f"cannot serialize non-finite float {x!r}")
    return FLOAT_CELL % x


def dumps_canonical(obj) -> str:
    """Deterministic JSON: %.16e floats, insertion-ordered keys, no spaces.

    The walk leaves each float array in out, and one _format_floats call
    formats them all (a call costs 100-170 us however few its cells).
    """
    out: list = []
    _write_canonical(obj, out)
    spots = [i for i, o in enumerate(out) if isinstance(o, np.ndarray)]
    if spots:
        flat = np.concatenate([out[i].reshape(-1) for i in spots])
        cells, at = [cell.decode() for cell in _format_floats(flat).tolist()], 0
        for i in spots:
            shape, text = out[i].shape, cells[at : at + out[i].size]
            at += len(text)
            for n in reversed(shape):  # nest the brackets, innermost first
                rows = range(0, len(text), n)
                text = ["[" + ",".join(text[j : j + n]) + "]" for j in rows]
            out[i] = text[0]
    return "".join(out)


def _write_canonical(o, out: list) -> None:
    if o is None:
        out.append("null")
    elif isinstance(o, bool):
        out.append("true" if o else "false")
    elif isinstance(o, (int, np.integer)):
        out.append(str(int(o)))
    elif isinstance(o, (float, np.floating)):
        out.append(format_float(o))
    elif isinstance(o, str):
        out.append(json.dumps(o))
    elif isinstance(o, dict):
        out.append("{")
        for i, (k, v) in enumerate(o.items()):
            if not isinstance(k, str):
                raise ValidationError(f"JSON object keys must be strings, got {k!r}")
            if i:
                out.append(",")
            out.append(json.dumps(k))
            out.append(":")
            _write_canonical(v, out)
        out.append("}")
    elif isinstance(o, (list, tuple)):
        out.append("[")
        for i, v in enumerate(o):
            if i:
                out.append(",")
            _write_canonical(v, out)
        out.append("]")
    elif isinstance(o, np.ndarray) and o.dtype == np.float64 and o.size:
        flat = o.reshape(-1)
        bad = np.flatnonzero(~np.isfinite(flat))
        if bad.size:
            format_float(flat[bad[0]])  # raises for the first
        out.append(o)  # formatted by dumps_canonical
    elif isinstance(o, np.ndarray):
        _write_canonical(o.tolist(), out)
    else:
        raise ValidationError(f"cannot serialize {type(o).__name__} to JSON")


def write_pretty_json(obj, path: str) -> None:
    """Human-facing JSON (reports, aggregates); still deterministic."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        json.dump(obj, f, indent=2)
        f.write("\n")


def load_json(path: str, what: str = "file"):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"{what} {path!r} is not valid JSON: {exc.msg} at line {exc.lineno} "
            f"column {exc.colno}"
        ) from exc
    except UnicodeDecodeError as exc:
        raise ValidationError(
            f"{what} {path!r} is not valid UTF-8 ({exc.reason})"
        ) from exc
    except RecursionError as exc:
        raise ValidationError(
            f"{what} {path!r} is not valid JSON: nested too deeply"
        ) from exc


# ---------------------------------------------------------------------------
# dataset CSV: header  id,attr,label,f0..f{d-1}


def _write_csv(path: str, header: list[str], columns: list) -> None:
    """Write the header, then a line per record of its cell in each column:
    the ids, then int and float arrays (a 2-D one gives several cells).

    A block of FLOAT_BLOCK // (floats + 3) records, floats being a record's
    float cells, is built as bytes by _line_bytes; csv.writer writes a block
    it refuses. The lines end in "\\n". Minimal quoting quotes only the line
    terminator's characters, so an id holding a lone "\\r" would be written
    bare and end its record when read back; a file with such an id quotes
    every field, and csv.writer writes all of it.
    """
    ids = np.asarray(columns[0])
    columns = [ids, *columns[1:]]
    quote_all = any(
        (np.strings.find(ids[i : i + FLOAT_BLOCK], "\r") >= 0).any()
        for i in range(0, len(ids), FLOAT_BLOCK)
    )
    text = io.StringIO()
    quoting = csv.QUOTE_ALL if quote_all else csv.QUOTE_MINIMAL
    w = csv.writer(text, lineterminator="\n", quoting=quoting)
    w.writerow(header)
    floats = sum(math.prod(c.shape[1:]) for c in columns if c.dtype.kind == "f")
    rows = max(1, FLOAT_BLOCK // (floats + 3))
    with open(path, "wb") as f:
        f.write(text.getvalue().encode())
        for start in range(0, len(ids), rows):
            block = [column[start : start + rows] for column in columns]
            data = None if quote_all else _line_bytes(block)
            if data is None:
                text.seek(0)
                text.truncate()
                w.writerows(np.concatenate([_csv_cells(c) for c in block], 1).tolist())
                data = text.getvalue().encode()
            f.write(data)


def _csv_cells(column: np.ndarray) -> np.ndarray:
    """A block of a column as a (rows, cells) object array for csv.writer."""
    if column.dtype.kind == "f":
        cells = [cell.decode() for cell in _format_floats(column.reshape(-1)).tolist()]
        return np.array(cells, object).reshape(len(column), -1)
    return column.astype(object).reshape(len(column), 1)


def write_dataset_csv(dataset: Dataset, path: str) -> None:
    header = ["id", "attr", "label"] + [f"f{i}" for i in range(dataset.d)]
    _write_csv(path, header, [dataset.ids, dataset.attrs, dataset.labels, dataset.x])


class _Schema(NamedTuple):
    """A CSV format. Column 0 holds the ids; each of ints is (column, top,
    dtype), its values integers in 0..top (no bound for None); floats picks
    the float column(s), whose array valid must accept."""

    header_width: Callable[[list[str]], int]  # checks the header; a row's width
    what: str  # the error's name for a duplicate id
    ints: tuple[tuple[int, int | None, type], ...]
    floats: int | slice
    valid: Callable[[np.ndarray], bool]
    check_row: Callable[[list[str]], tuple]  # a row's values; raises at a broken rule


class _Chunk:
    """Where a chunk's rows sit in the file and in the columns, and a
    wrong-width row after them.

    Messages name a row by its record number, the header being line 1 and
    blank rows counted.
    """

    def __init__(self, width: int, line: int, row: int, blanks: list, wrong: int | None):
        self.width = width  # cells per row
        self.line = line  # record number of row 0, were no record blank
        self.row = row  # the columns' row that row 0 is written to
        self.blanks = blanks  # record numbers of the blank rows among them
        self.wrong = wrong  # the width of a row after them that ends the read

    def line_of(self, i: int) -> int:
        """The record number of row i."""
        line = self.line + i
        for blank in self.blanks:
            if blank > line:
                break
            line += 1
        return line


class _Columns:
    """A read's columns, which each block writes its rows into at their row
    offset, as in Apache Arrow's columnar layout: the ids (StringDType),
    their duplicate keys (_duplicate), the float column(s) and each int
    column. All but the ids lie in anonymous maps (_mapped), shared with a
    forked worker, which writes its rows into them itself.

    bound is the rows the file can hold (_line_ends), and the first plain
    block allocates them all. csv.reader's rows, which may stop at a first
    error, allocate their first slice's, then the bound. A read past the
    bound, as a pipe's, doubles the capacity whenever it fills.
    """

    def __init__(self, schema: _Schema, width: int, bound: int):
        floats = np.empty((0, width))[:, schema.floats].shape[1:]
        shapes = [((), np.int64), (floats, np.float64)]
        shapes += [((), dtype) for *_, dtype in schema.ints]
        self.schema, self.width, self.bound = schema, width, bound
        self.rows = 0  # rows written, from row 0 on
        self.ids = np.empty(0, StringDType())  # a map cannot hold it
        self.numbers = [_mapped((0, *shape), dtype) for shape, dtype in shapes]

    @property
    def keys(self) -> np.ndarray:
        return self.numbers[0]

    def reserve(self, rows: int) -> None:
        """Make room for rows rows, copying the rows written."""
        capacity = len(self.ids)
        if rows <= capacity:
            return
        if capacity and rows <= self.bound:
            capacity = self.bound
        else:
            capacity = max(rows, 2 * capacity)
        ids, self.ids = self.ids, np.empty(capacity, StringDType())
        self.ids[: self.rows] = ids[: self.rows]
        for i, column in enumerate(self.numbers):
            self.numbers[i] = _mapped((capacity, *column.shape[1:]), column.dtype)
            self.numbers[i][: self.rows] = column[: self.rows]

    def write(self, at: slice, values) -> None:
        """Write the float and int columns of rows at."""
        for column, value in zip(self.numbers[1:], values):
            column[at] = value


def _duplicate(out: _Columns, chunks: list[_Chunk]) -> str | None:
    """The error naming the earliest of out's rows whose id an earlier row
    has, or None; chunks, the read's so far, give its line.

    It runs once, when the read ends: after the last chunk, or once a
    failing chunk's rows up to and including the failing one are counted.
    Each id's int64 key comes from its UTF-8 bytes (_id_column) on either
    path. A row whose key an earlier row has is a candidate, and a set of
    the candidates' ids as str decides it, so the row named does not depend
    on which ids share a key, and ids built to share one cost a set lookup
    each, not a comparison with every earlier one.
    """
    keys = out.keys[: out.rows]
    ranked = np.sort(keys)
    twice = ranked[1:][ranked[1:] == ranked[:-1]]
    if not twice.size:
        return None
    rows = np.flatnonzero(np.isin(keys, twice))
    inside = np.searchsorted([chunk.row for chunk in chunks], rows, side="right") - 1
    earlier: set[str] = set()  # the candidates' ids so far
    for row, c in zip(rows.tolist(), inside.tolist()):
        sid = out.ids[row]
        if sid in earlier:
            chunk = chunks[c]
            return f"line {chunk.line_of(row - chunk.row)}: {out.schema.what} {sid!r}"
        earlier.add(sid)
    return None


def _read_chunks(path: str, schema: _Schema):
    """Stream a CSV once, yielding its data rows a chunk at a time.

    Each chunk is (data, chunk), chunk being its _Chunk. The header line is
    decoded and checked first (one holding a quote or "\\r" is csv.reader's
    first block instead). While each block of CHUNK_TEXT bytes, run on to a
    line end, is plain, _byte_path writes its rows into the read's columns
    (_Columns, sized by _line_ends), in this process or in a worker that
    reads the second part of a long file; the first chunk is those rows,
    none if no block is plain, and its data the columns. csv.reader reads
    the first block that is not, as bytes, and then the rest of the file (a
    pipe as a file), CHUNK_CELLS / width records a chunk, whose data is its
    rows' flat cells, for the consumer to write into the columns from
    chunk.row on (_text_columns). Blank rows are skipped; reading stops at
    the first row of another width, which ends the last chunk. A decode
    error or an oversized field raises with its record's number, whatever
    the consumer did with the chunks before it.
    """
    # no per-row counter: a record's number is line plus the rows and blank
    # rows of the chunk read before it
    line, width = 1, 1  # record number of the chunk's first record
    cells: list[str] = []
    blanks: list[int] = []  # record numbers of the chunk's blank rows
    try:
        with open(path, "rb") as f:
            block = f.readline()  # csv.reader starts at the last block read
            text = block.decode()
            if not text:
                raise ValidationError(f"{path!r} is empty")
            plain = '"' not in text and "\r" not in text
            cut = _cut(f) if plain else None  # where a worker's part starts
            n1, bound = _line_ends(f, cut)
            if plain:
                line, width = 2, schema.header_width(next(csv.reader([text]), []))
                out = _Columns(schema, width, bound)
                block = _byte_path(f, path, out, cut, n1)
            # that block and the rest of the file, row by row
            start = io.TextIOWrapper(io.BytesIO(block), encoding="utf-8", newline="")
            rest = io.TextIOWrapper(f, encoding="utf-8", newline="")
            reader = csv.reader(chain(start, rest))
            if not plain:
                line, width = 2, schema.header_width(next(reader))
                out = _Columns(schema, width, bound)
            yield out, _Chunk(width, line, 0, [], None)
            line += out.rows
            records = -(-CHUNK_CELLS // width)  # per chunk, blank ones too
            while True:
                read, wrong = len(cells) // width + len(blanks), None
                for row in islice(reader, records):
                    if len(row) == width:
                        cells.extend(row)
                    elif row:
                        wrong = len(row)
                        break
                    else:
                        blanks.append(line + len(cells) // width + len(blanks))
                end = len(cells) // width + len(blanks) - read < records
                if cells or wrong is not None:
                    yield cells, _Chunk(width, line, out.rows, blanks, wrong)
                    line += len(cells) // width + len(blanks)
                    cells, blanks = [], []
                if end:
                    return
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path!r} is not valid UTF-8 ({exc.reason})") from exc
    except csv.Error as exc:
        line += len(cells) // width + len(blanks)  # the record being read
        raise ValidationError(f"{path!r} line {line}: {exc}") from exc


def _line_ends(f, cut: int | None) -> tuple[int, int]:
    """(n1, bound) of a read of f from its position on: n1 the "\\n" bytes
    before cut (0 if cut is None), and bound all of them plus 1, which
    bounds the records unless a lone "\\r" ends some; (0, 0) for a pipe.

    They are counted in slices of CHUNK_TEXT bytes read by os.pread, which
    leaves f's offset alone; a read-only map of f took as long, and one
    truncated meanwhile would raise SIGBUS.
    """
    info = os.fstat(f.fileno())
    if not stat.S_ISREG(info.st_mode):
        return 0, 0
    at = f.tell()
    bounds = [at, at if cut is None else cut, info.st_size]
    counts = [0, 0]
    for part, (start, stop) in enumerate(zip(bounds, bounds[1:])):
        for offset in range(start, stop, CHUNK_TEXT):
            data = os.pread(f.fileno(), min(CHUNK_TEXT, stop - offset), offset)
            counts[part] += int(np.count_nonzero(np.frombuffer(data, np.uint8) == 10))
    return counts[0], sum(counts) + 1


def _byte_path(f, path: str, out: _Columns, cut: int | None, n1: int) -> bytes:
    """Write the rows of f's plain blocks from its position on into out;
    return the first block that is not plain (or b""), with f just past
    it, where csv.reader reads on.

    From cut on (None: no split), a forked worker (_write_part) writes the
    rows of the data's second part into out from row n1 on, n1 being the
    "\\n" bytes before the cut, while this process writes the first part's;
    then it casts the worker's ids (_Part.take). The second part counts
    only if every block of the first is plain and they hold n1 rows: else
    the worker is killed and reaped before this process writes any row at
    or past n1, and csv.reader reads on from the first block that is not
    plain or would pass n1. A worker that fails, or a fork that raises,
    leaves the second part to this process. The worker is reaped before
    this returns, raises or is closed.
    """
    pid = None  # the worker's, until it is reaped
    try:
        if cut is not None:
            out.reserve(out.bound)  # before the fork, so that the maps are shared
            with contextlib.suppress(OSError):  # no worker: all of it here
                pid, part = _fork_part(f, path, cut, out, n1)
        if pid is None:
            return _plain_rows(f, None, out, None)
        block = _plain_rows(f, cut, out, n1)
        if block or out.rows != n1:  # once finally has killed the worker
            return block
        status, pid = _reap(pid), None
        if status == 0:  # the worker's rows follow these
            f.seek(part.take(out))
            return b""
        f.seek(cut)  # the second part, here
        return _plain_rows(f, None, out, None)
    finally:
        if pid is not None:
            with contextlib.suppress(ProcessLookupError):  # reaped elsewhere
                os.kill(pid, signal.SIGKILL)
            _reap(pid)


def _plain_rows(f, end: int | None, out: _Columns, limit: int | None, part=None) -> bytes:
    """Write the rows of f's plain blocks of CHUNK_TEXT bytes, each run on
    to a line end, from its position up to byte end (None: to the end of
    the file) into out from out.rows on; return the first block that is not
    plain, or whose rows would pass row limit (None: out grows instead), or
    b"" past end.

    Each block's ids are cast into out.ids, or, in a worker, handed back
    in part (_Part), for a worker's ids column is its own.
    """
    while True:
        size = CHUNK_TEXT if end is None else max(min(CHUNK_TEXT, end - f.tell()), 0)
        block = f.read(size)
        if block and not block.endswith(b"\n"):
            block += f.readline()  # a part ends at a line end, so not past end
        data = _plain_columns(block, out.width, out.schema) if block else None
        if data is None:
            return block
        (text, starts, lengths), *values = data
        rows = out.rows + len(starts)
        if limit is not None and rows > limit:
            return block
        out.reserve(max(rows, out.bound))
        at = slice(out.rows, rows)
        ids = out.ids[at] if part is None else None
        _id_column(text, starts, lengths, ids, out.keys[at])
        if part is not None:
            part.add(text, starts, lengths)
        out.write(at, values)
        out.rows = rows
        del data, text, starts, lengths, values, ids  # before the next block's


# From Python 3.12 on, os.fork() warns of deadlocks in the child of a process
# with threads, as numpy's BLAS pool starts on 2 CPUs or more; there a file
# is read in one pass, so that no reader warns in its caller's process.
_CAN_SPLIT = sys.version_info < (3, 12) and hasattr(os, "sched_getaffinity")


def _cut(f) -> int | None:
    """Where a worker's part of f's data starts: the line end after the
    middle of its bytes from its position on. None unless f is a regular
    file with 2 * PART_BYTES of them and this process may use 2 CPUs."""
    info = os.fstat(f.fileno())
    if not _CAN_SPLIT or not stat.S_ISREG(info.st_mode):
        return None
    at, size = f.tell(), info.st_size
    if size - at < 2 * PART_BYTES or len(os.sched_getaffinity(0)) < 2:
        return None
    f.seek(at + (size - at) // 2)
    f.readline()  # on to a line end
    cut = f.tell()
    f.seek(at)
    return cut if cut < size else None


class _Part:
    """What a worker hands back besides the rows it writes into the
    columns, in maps made before the fork and so shared: head holds its
    rows' count and the offset past its last plain block, then each row's
    id length, and text their bytes end to end (no more than the part's)."""

    def __init__(self, rows: int, size: int):
        self.head = _mapped((2 + rows,), np.int64)
        self.text = _mapped((size,), np.uint8)
        self.rows = self.size = 0  # written so far, in the worker

    def add(self, data: bytes, starts: np.ndarray, lengths: np.ndarray) -> None:
        """In the worker: hand back the ids data[start : start + length]."""
        ids = _gathered(data, starts, lengths)
        self.text[self.size : self.size + len(ids)] = ids
        self.head[2 + self.rows : 2 + self.rows + len(lengths)] = lengths
        self.rows += len(lengths)
        self.size += len(ids)

    def take(self, out: _Columns) -> int:
        """Once the worker has exited 0: cast its ids into out.ids from
        out.rows on, where its rows start, and count them in; return the
        offset past its last plain block."""
        rows, stop = self.head[:2].tolist()
        lengths = self.head[2 : 2 + rows]
        at = slice(out.rows, out.rows + rows)
        _id_column(self.text, np.cumsum(lengths) - lengths, lengths, out.ids[at], None)
        out.rows += rows
        return stop


def _fork_part(f, path: str, start: int, out: _Columns, row: int):
    """(pid, part) of a forked worker that writes the rows of the plain
    blocks of f's bytes from start on into out from row on, handing back
    the rest in part (_Part).

    A fork, not a spawned interpreter: importing numpy afresh would cost
    more than the part saves. The fork copies only this thread, and BLAS's
    idle threads are safe to lose because the worker calls no BLAS; it
    takes no lock that another thread may hold, as stdio's or an import's.
    """
    info = os.fstat(f.fileno())
    part = _Part(len(out.ids) - row, info.st_size - start)
    pid = os.fork()
    if pid == 0:  # the worker: no import, BLAS or stdio, and no return
        code = 1
        try:
            gc.disable()  # the parent's garbage is the parent's to collect
            out.rows = row
            code = _write_part(out, part, path, (info.st_ino, info.st_dev), start)
        finally:
            os._exit(code)
    return pid, part


def _write_part(out: _Columns, part: _Part, path: str, identity: tuple, start: int) -> int:
    """In a worker: write the rows of the plain blocks of path's bytes from
    start on into out's shared maps from out.rows on, up to the first block
    that is not plain or would pass out's capacity (a column grown here
    would not be shared), and hand back their count, end and ids in part;
    return 0, or 1 if path no longer names the file of identity.
    """
    with open(path, "rb") as f:  # a file offset of its own, not the reader's
        if os.fstat(f.fileno())[1:3] != identity:
            return 1
        f.seek(start)
        block = _plain_rows(f, None, out, len(out.ids), part)
        part.head[:2] = part.rows, f.tell() - len(block)
    return 0


def _gathered(data: bytes, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The bytes data[start : start + length] of each cell, end to end."""
    ends = np.cumsum(lengths)
    index = np.arange(ends[-1]) + np.repeat(starts - ends + lengths, lengths)
    return np.frombuffer(data, np.uint8)[index]


def _reap(pid: int) -> int:
    """Wait for the child pid; its wait status, or -1 if it was reaped
    elsewhere (as where SIGCHLD is ignored)."""
    try:
        return os.waitpid(pid, 0)[1]
    except ChildProcessError:
        return -1


def _mapped(shape: tuple, dtype) -> np.ndarray:
    """np.empty(shape, dtype) in an anonymous memory map of its own, out of
    malloc's heap (see the module docstring). The map is shared, so a
    child forked after it is made writes into this process's pages."""
    size = math.prod(shape)
    mapped = mmap.mmap(-1, max(size * np.dtype(dtype).itemsize, 1))
    return np.frombuffer(mapped, dtype, size).reshape(shape)


_PAD = bytes(24)  # after a block, so that _cell_words reads 24 bytes at any cell


def _plain_columns(block: bytes, width: int, schema: _Schema):
    """(ids, floats, *ints) of a block of lines, or None unless it is plain
    and _cell_values reads its cells. ids is where the ids lie, (data,
    starts, lengths) for _id_column, which casts them straight into the
    chunk's column.

    Plain: valid UTF-8 with no quote, "\\r" or NUL, and width cells on each
    line, so csv.reader would read a line as line.split(","); and no id
    past csv's field limit.
    """
    if b'"' in block or b"\r" in block or b"\0" in block:
        return None
    if not block.isascii() and not _is_utf8(block):  # csv.reader raises it
        return None
    if not block.endswith(b"\n"):  # the file's last line
        block += b"\n"
    data = block + _PAD
    bounds = _cell_bounds(np.frombuffer(data, np.uint8), width)
    if bounds is None or bounds[1][:, 0].max() > csv.field_size_limit():
        return None
    starts, lengths = bounds
    values = _cell_values(data, starts, lengths, schema)
    if values is None:
        return None
    # copies, so that the block's bounds are freed before its rows are
    # written: kept until the cast, they raised audit_report's peak RSS by
    # 0.6-0.8 MB at some checkout paths, where each chunk made its columns
    return (data, starts[:, 0].copy(), lengths[:, 0].copy()), *values


def _cell_values(data: bytes, starts: np.ndarray, lengths: np.ndarray, schema: _Schema):
    """(floats, *ints) of the (rows, width) cells data[start : start +
    length], or None unless each is in a form the byte path reads and
    passes its rule: an int of 1 to 8 ASCII digits (as the writers give any
    int below 10**8), a float in _writer_floats's form or else float() of
    its at most 24 ASCII bytes. No cell may hold a NUL, which the S24 cast
    drops; data holds 24 bytes from each start."""
    floats = schema.floats
    x = _block_floats(data, starts[:, floats], lengths[:, floats])
    if x is None or not schema.valid(x):
        return None
    ints = []
    for column, top, dtype in schema.ints:
        values = _cell_ints(data, starts[:, column], lengths[:, column])
        if values is None or (top is not None and values.max() > top):
            return None
        ints.append(values.astype(dtype))
    return x, *ints


def _is_utf8(block: bytes) -> bool:
    """Whether block is valid UTF-8, which the ids' cast to StringDType does
    not check. It is decoded 16 KB at a time: a str of a whole block that
    holds one character past U+FFFF takes 4 bytes a character, past glibc's
    128 KB mmap threshold, while a piece's stays under 64 KB."""
    view, at = memoryview(block), 0
    try:
        while at < len(block):
            piece = view[at : at + (16 << 10)]
            at += codecs.utf_8_decode(piece, "strict", at + len(piece) == len(block))[1]
    except UnicodeDecodeError:
        return False
    return True


def _cell_bounds(a: np.ndarray, width: int):
    """Where each cell of a's lines starts, and its length, as (lines,
    width) arrays; or None unless each line has width cells, a cell ending
    at a "," or "\\n", and a holds nothing after its last "\\n" but NULs.

    One scan finds every separator. Each line has width cells exactly when
    there are width of them per "\\n" and every width-th one is a "\\n".
    """
    line_ends = a == ord("\n")
    ends = np.flatnonzero(line_ends | (a == ord(",")))
    rows = np.count_nonzero(line_ends)
    if len(ends) != rows * width or a[ends].reshape(rows, width)[:, -1].max() != ord("\n"):
        return None
    starts = np.empty_like(ends)
    starts[:1] = 0
    starts[1:] = ends[:-1] + 1
    return starts.reshape(rows, width), (ends - starts).reshape(rows, width)


# the bytes of a cell of n <= 24 bytes in each of its three words
_KEEP = np.array(
    [[(1 << 8 * min(max(n - 8 * i, 0), 8)) - 1 for i in range(3)] for n in range(25)],
    np.uint64,
)


def _cell_words(data: bytes, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """_words of each cell for _writer_floats; a cell that starts with "-"
    is read from its next byte, and byte 23, past the NUL that ends a cell
    of the writers' form, is 1 for it and 0 for any other. (An empty
    cell's first byte is the separator after it.)"""
    neg = np.frombuffer(data, np.uint8)[starts] == ord("-")
    words = _words(data, starts + neg, lengths - neg)
    words.view(np.uint8)[..., 23] = neg
    return words


def _words(data: bytes, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The 24 bytes from each start as three little-endian words, shape
    (*starts.shape, 3), with the third word's bytes past the length 0.

    So a cell of 16 to 24 bytes gets the words of its S24 form. A shorter
    one keeps a separator ("," or "\\n", or in _cell_bytes' data a NUL) in
    its first two, and none of those is in the writers' form anywhere.
    data holds 24 bytes from each start.
    """
    at = np.ndarray((len(data) - 23,), "V24", data, strides=(1,))  # one a byte
    words = at[starts].view(np.uint64).reshape(*starts.shape, 3)
    words[..., 2] &= _KEEP[np.minimum(lengths, 24), 2]
    return words


def _block_floats(data: bytes, starts: np.ndarray, lengths: np.ndarray):
    """float() of each float cell of a block, or None unless each is in the
    writers' form or has 1 to 24 bytes that float() reads.

    The writers' form takes the parser below. Else the cells' bytes, masked
    to their lengths, are cast from S24: numpy's bytes-to-float cast reads
    what float() reads of ASCII text, and refuses a byte past ASCII, which
    csv.reader's str then decides.
    """
    x = _writer_floats(_cell_words(data, starts, lengths))
    if x is not None or lengths.max() > 24:
        return x
    words = _words(data, starts, lengths)
    words[..., :2] &= _KEEP[lengths, :2]
    try:
        return words.view("S24")[..., 0].astype(np.float64)
    except ValueError:
        return None


def _cell_ints(data: bytes, starts: np.ndarray, lengths: np.ndarray):
    """The value of each int cell, or None unless each is 1 to 8 ASCII
    digits: its word, moved up so that its last digit is the highest byte,
    read by _eight_digits."""
    shortest, longest = lengths.min(), lengths.max()
    if shortest < 1 or longest > 8:
        return None
    if longest == 1:  # one digit each, the common case
        digits = np.frombuffer(data, np.uint8)[starts] - ord("0")
        return None if digits.max() > 9 else digits
    at = np.ndarray((len(data) - 7,), "V8", data, strides=(1,))
    shift = (64 - 8 * lengths).astype(np.uint64)
    w = (at[starts].view(np.uint64) ^ 0x30 * _ONES) << shift  # leading zeros
    if ((w | (w + 6 * _ONES)) & 0xF0 * _ONES).any():  # a byte past 9
        return None
    return _eight_digits(w)


# odd multipliers that mix an id's words and its length into its key
_WORD_MIX = np.uint64(0x9E37_79B9_7F4A_7C15)
_LENGTH_MIX = np.uint64(0xC2B2_AE3D_27D4_EB4F)


def _id_column(data, starts: np.ndarray, lengths: np.ndarray, column, keys):
    """Cast the ids whose UTF-8 bytes are data[start : start + length] into
    column, a StringDType array, and put an int64 duplicate key of each in
    keys; either may be None, for none. Each id must be valid UTF-8, for
    numpy's cast copies the bytes without checking them; the column is
    exact unless an id holds a NUL.

    A run of rows is gathered as a NUL-padded (rows, words) matrix of
    little-endian words, words being its longest id's (_id_words), and the
    matrix viewed as S bytes is cast to StringDType in one call. A run
    whose matrix would pass FLOAT_BLOCK words is halved until it fits or is
    one row, so a matrix of several ids and its temporaries stay under
    32 KB, far below glibc's 128 KB mmap threshold, and an id of any length
    takes no per-id loop.

    The key is the sum over an id's words w_j of v ^ (v >> 29), v being
    w_j * (2j + 1) * _WORD_MIX, plus its byte length * _LENGTH_MIX (all mod
    2**64). Each step is a bijection of w_j, so two ids of one length that
    differ in one word only never share a key; a NUL word adds 0, so the
    key does not depend on the matrix width. Equal keys are only candidates
    for _duplicate, which compares the ids themselves.
    """
    words = (lengths + 7) >> 3
    runs = [(0, len(starts))]
    while runs:
        start, stop = runs.pop()
        width = int(words[start:stop].max(initial=1))
        if (stop - start) * width > FLOAT_BLOCK and stop - start > 1:
            half = (start + stop) // 2
            runs += [(start, half), (half, stop)]
            continue
        run = slice(start, stop)
        matrix = _id_words(data, starts[run], lengths[run], width)
        if column is not None:
            column[run] = matrix.view(f"S{8 * width}")[:, 0]
        if keys is None:
            continue
        v = matrix * (np.arange(1, 2 * width, 2, dtype=np.uint64) * _WORD_MIX)
        v ^= v >> 29
        key = v.sum(axis=1, dtype=np.uint64)
        key += lengths[run].astype(np.uint64) * _LENGTH_MIX
        keys[run] = key.view(np.int64)


def _id_words(data: bytes, starts: np.ndarray, lengths: np.ndarray, width: int):
    """The bytes of each id as width little-endian words, shape (rows,
    width), with the bytes past its length zeroed; 8 * width >= each length.

    Each id's 8 * width bytes are one cell of a stride-1 V view, as in
    _cell_words; where the last ones would run past data's end, a copy of
    data from the first id on, padded with NULs, is read instead. data is
    bytes or a uint8 array.
    """
    size = 8 * width
    end = int(starts.max(initial=0)) + size
    if end > len(data):
        first = int(starts.min(initial=0))
        data = bytes(memoryview(data)[first:]) + bytes(end - len(data))
        starts = starts - first
    at = np.ndarray((len(data) - size + 1,), f"V{size}", data, strides=(1,))
    words = at[starts].view(np.uint64).reshape(-1, width)
    # _KEEP[n, 0] keeps a word's first n <= 8 bytes
    words &= _KEEP[np.clip(lengths[:, None] - 8 * np.arange(width), 0, 8), 0]
    return words


def _cell_bytes(cells: list[str]):
    """(data, starts, lengths, nul) of cells from one encode of them all: a
    cell's UTF-8 bytes are data[start : start + length], _PAD ends data,
    and nul tells whether a cell holds a NUL.

    The cells are joined with NULs, whose places are the cells' ends in
    bytes. Where a cell holds a NUL itself, they are joined bare instead,
    and their lengths in characters give the ends.
    """
    data = "\0".join(cells).encode() + _PAD
    ends = np.flatnonzero(np.frombuffer(data, np.uint8) == 0)[: len(cells)]
    if ends[-1] == len(data) - len(_PAD):  # the NULs are the separators only
        starts = np.empty_like(ends)
        starts[0] = 0
        starts[1:] = ends[:-1] + 1
        return data, starts, ends - starts, False
    text = "".join(cells)
    data = text.encode() + _PAD
    ends = np.cumsum(np.fromiter(map(len, cells), np.int64, len(cells)))
    if len(data) - len(_PAD) > len(text):  # character offsets to byte offsets
        firsts = (np.frombuffer(data, np.uint8) & 0xC0) != 0x80
        ends = np.flatnonzero(firsts)[ends]  # the first NUL of _PAD ends the last
    lengths = np.diff(ends, prepend=0)
    return data, ends - lengths, lengths, True


def _read_csv(path: str, schema: _Schema):
    """Read and check a CSV's rows: (its ids, its float column(s), its int
    columns, and per int column the largest value too large for its dtype,
    stored there as 0, or 0 if none is).

    Every row is written at its row into columns made for the file
    (_Columns): the plain blocks' by _read_chunks, a csv.reader chunk's by
    _text_columns. At a chunk's first error, a duplicate id up to and
    including the failing row wins, as a row's id is checked first. No
    later chunk is converted, but the rest of the file is still read, so
    that a decode error or an oversized field in it wins; then the read's
    error is raised.
    """
    huge = [0 for _ in schema.ints]
    read = _read_chunks(path, schema)
    out, chunk = next(read)  # the plain rows, in the columns
    chunks = [chunk]
    for cells, chunk in read:
        chunks.append(chunk)
        error = _text_columns(cells, chunk, out, huge)
        del cells  # before the next chunk is read
        if error is not None:
            error = _duplicate(out, chunks) or error
            for cells, _ in read:  # read on: a later decode error still wins
                del cells
            raise ValidationError(error)
    error = _duplicate(out, chunks)
    if error is not None:
        raise ValidationError(error)
    ids, _, x, *ints = (column[: out.rows] for column in (out.ids, *out.numbers))
    return ids, x, ints, huge


def _text_columns(cells: list[str], chunk: _Chunk, out: _Columns, huge: list[int]):
    """Write a csv.reader chunk's flat cells into out from chunk.row on and
    count them in; or, at the first row that breaks a rule or the
    wrong-width row after them, return its error, with the rows up to and
    including it counted, their ids and keys written.

    Each slice of whole rows, FLOAT_BLOCK cells, is encoded once
    (_cell_bytes) for _id_column and _cell_values; one these refuse, or
    that holds a NUL, goes to _first_bad_row and _row_columns instead.
    """
    width, schema = chunk.width, out.schema
    rows, step = len(cells) // width, max(1, FLOAT_BLOCK // width)
    for start in range(0, rows, step):
        part = cells[start * width : (start + step) * width]
        data, starts, lengths, nul = _cell_bytes(part)
        starts, lengths = starts.reshape(-1, width), lengths.reshape(-1, width)
        at = slice(chunk.row + start, chunk.row + start + len(starts))
        out.reserve(at.stop)
        _id_column(data, starts[:, 0], lengths[:, 0], out.ids[at], out.keys[at])
        if nul:  # the cast ends an id at its trailing NULs
            out.ids[at] = part[::width]
        values = None if nul else _cell_values(data, starts, lengths, schema)
        if values is None:
            parsed, bad = _first_bad_row(part, width, schema.check_row)
            if bad is not None:
                out.rows = at.start + len(parsed) + 1
                return f"line {chunk.line_of(start + len(parsed))}: {bad}"
            values = _row_columns(parsed, schema, huge)
        out.write(at, values)
        out.rows = at.stop
    if chunk.wrong is None:
        return None
    # a wrong-width row comes after the chunk's rows
    return f"line {chunk.line_of(rows)}: expected {width} fields, got {chunk.wrong}"


def _first_bad_row(cells: list[str], width: int, check_row) -> tuple[list, str | None]:
    """check_row's values of each row up to the first it refuses, and that
    row's error, or None if it refuses none."""
    parsed = []
    for r in range(len(cells) // width):
        try:
            parsed.append(check_row(cells[r * width : (r + 1) * width]))
        except ValidationError as exc:
            return parsed, str(exc)
    return parsed, None


def _row_columns(parsed: list, schema: _Schema, huge: list[int]):
    """(floats, *ints) of check_row's values of each row. An int too large
    for its column's dtype (a huge attr, which _attribute_set refuses) is
    stored as 0, and the largest such is kept in huge."""
    x, *columns = zip(*parsed)
    ints = []
    for i, (values, (_, _, dtype)) in enumerate(zip(columns, schema.ints)):
        try:
            ints.append(np.array(values, dtype))
        except OverflowError:
            top = np.iinfo(dtype).max
            huge[i] = max(huge[i], *values)
            ints.append(np.array([v if v <= top else 0 for v in values], dtype))
    return np.array(x, np.float64), *ints


def _writer_floats(words: np.ndarray) -> np.ndarray | None:
    """float() of every cell, or None unless each is in the form the
    writers give, -?D.DDDDDDDDDDDDDDDDe[+-]DD in ASCII.

    words is the cells' (..., 3) words from _cell_words, and the result has
    the cells' shape. They are parsed FLOAT_BLOCK at a time straight into
    it, so that no temporary is as large as a chunk (see the module
    docstring), by integer steps that give the same bits on every host.
    """
    out = np.empty(words.shape[:-1])
    flat, words = out.reshape(-1), words.reshape(-1, 3)
    for start in range(0, flat.size, FLOAT_BLOCK):
        end = start + FLOAT_BLOCK
        if not _parse_floats(words[start:end], flat[start:end]):
            return None
    return out


_ONES = 0x0101_0101_0101_0101  # one in each byte of a word
# A cell's three words, read from its first digit, in the writers' form:
# _FORM's byte wherever _FIXED is set, a digit wherever _DIGITS is. The
# sign byte is checked apart; the NUL at byte 22 fixes the cell's length.
_FORM = np.array([0x3030_3030_3030_2E30, 0x30 * _ONES, 0x3030_2B65_3030], np.uint64)
_FIXED = np.array([0xFF00, 0, 0x00FF_0000_00FF_0000], np.uint64)
_DIGITS = np.array([0x0101_0101_0101_0001, _ONES, 0x0101_0000_0101], np.uint64)


def _powers_of_five(top: int) -> tuple[np.ndarray, np.ndarray]:
    """T and g with 5**k = (T + f) * 2**g, 2**63 <= T < 2**64 and 0 <= f < 1,
    at k + top for each |k| <= top, from Python ints: T is 5**k's first 64
    bits, truncated, so f = 0 only for 0 <= k <= 27."""
    powers, exponents = [], []
    for k in range(-top, top + 1):
        p = 5 ** abs(k)
        g = p.bit_length() - 64 if k >= 0 else -63 - p.bit_length()
        powers.append(p << 64 >> g + 64 if k >= 0 else (1 << -g) // p)
        exponents.append(g)
    return np.array(powers, np.uint64), np.array(exponents)


_POW5, _POW5_EXP = _powers_of_five(115)  # k = exponent - 16, or 16 - decade


def _high(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The high 64 bits of each product a * b of uint64s, from 32-bit halves."""
    a0, a1, b0, b1 = a & 0xFFFF_FFFF, a >> 32, b & 0xFFFF_FFFF, b >> 32
    mid = a1 * b0 + (a0 * b0 >> 32)
    return a1 * b1 + (mid >> 32) + (a0 * b1 + (mid & 0xFFFF_FFFF) >> 32)


def _parse_floats(words: np.ndarray, out: np.ndarray) -> bool:
    """Parse cells into out as float() would; False unless each is in the
    writers' form.

    words is (n, 3), each cell's three little-endian words (_cell_words),
    its first character in the lowest byte; a negative one's are read after
    its "-", and its byte 23 is 1. Its 17 digits are read eight at a time
    (Lemire, "Number Parsing at a Gigabyte per Second", SPE 2021) into
    M < 10**17, and its value is
    M * 10**k = M * 5**k * 2**k, k = exponent - 16, as in Eisel and Lemire's
    algorithm with a 64-bit power (Mushtak & Lemire, SPE 2023). M, shifted
    up to w, 2**63 <= w < 2**64, times 5**k = (T + f) * 2**g (_POW5) lies
    in [hi, hi + 2) * 2**64, hi = _high(w, T). hi's first 53 bits, rounded
    half up, are the double's significand unless its 11 bits below, with hi
    shifted up to 64 bits (which doubles the bound), lie at a half or up to
    two below it: only those cells, never written from a double, take
    float(). M = 0 gives a signed 0.
    """
    w = words.T.copy()  # rows of words; words stay
    w ^= _FORM[:, None]  # a digit's byte now holds its value
    high = 0xF0 * _DIGITS[:, None]  # set unless a digit's byte is in 0-9
    bad = (w & (_FIXED[:, None] | high)) | ((w + 6 * _DIGITS[:, None]) & high)
    sign = (w[2] >> 24) & 0xFF  # 0 for "+", "+" ^ "-" for "-"
    if bad.any() or not ((sign == 0) | (sign == 6)).all():
        return False
    w[0] = (w[0] & 0xFFFF_FFFF_FFFF_0000) | (w[0] & 0xFF) << 8  # 0, d0, d1..d6
    eights = _eight_digits(w[:2])
    m = eights[0] * 10**10 + eights[1] * 100 + (w[2] & 0xFF) * 10 + (w[2] >> 8 & 0xFF)
    e = (w[2] >> 32 & 0xFF) * 10 + (w[2] >> 40 & 0xFF)
    i = (e * (1 - (sign >> 1 & 2))).view(np.int64) + 99  # k + 115; sign >> 1 & 2 is 2 for "-"
    n = m.astype(np.float64).view(np.uint64) >> 52  # 1023 + M's binary exponent, or one more
    m <<= 1086 - n  # a shift by 64 or more gives 0
    up = (m >> 63) ^ 1  # M's float was rounded up to a power of two
    m <<= up
    hi = _high(m, _POW5[i])
    low = (hi >> 63) ^ 1
    hi <<= low  # 2**63 <= hi: the double's 53 bits, then 11
    near = (hi & 0x7FF) - 1022 <= 2  # at a half, or up to two below it
    significand = (hi >> 10) + 1 >> 1
    exponent = (_POW5_EXP[i] + i).view(np.uint64) + n - up - low - 52  # k = i - 115
    bits = out.view(np.uint64)  # a significand of 2**53 carries into the exponent
    bits[...] = np.where(m, exponent << 52, 0) + significand
    bits |= w[2] >> 56 << 63  # the sign, from byte 23
    if near.any():  # their bytes, trailing NULs dropped, and their signs
        slow = np.flatnonzero(near)
        cells = words[slow]
        cells[:, 2] &= 0x00FF_FFFF_FFFF_FFFF
        values = [float(cell) for cell in cells.view("S24").reshape(-1).tolist()]
        out[slow] = np.copysign(values, out[slow])
    return True


def _eight_digits(w: np.ndarray) -> np.ndarray:
    """The number each word's bytes spell, one digit's value a byte, the
    first in the lowest byte (Lemire's SWAR steps)."""
    w = w * 10 + (w >> 8)  # each even byte: its two digits' value
    pairs = 0x0000_00FF_0000_00FF
    hundreds = (w & pairs) * (100 + (10**6 << 32))
    return (hundreds + (w >> 16 & pairs) * (1 + (10**4 << 32))) >> 32


# the decade of 2**(b - 1023), b being a double's biased exponent: that of
# any double in the binade, or one below it
_DECADE = np.floor((np.arange(2048) - 1023) * math.log10(2)).astype(np.int64)
# a cell's third word for each exponent E, |E| < 100: two NULs for its last
# two digits, then "e", the sign and two digits
_EXPONENT = np.array(
    [int.from_bytes(b"\0\0" + b"e%+03d" % e, "little") for e in range(-99, 100)],
    np.uint64,
)


def _format_floats(values: np.ndarray) -> np.ndarray:
    """FLOAT_CELL % v of each finite float64 v, as S24 cells, made
    FLOAT_BLOCK at a time (see the module docstring) by _format_block."""
    cells = np.empty(len(values), "S24")
    for start in range(0, len(values), FLOAT_BLOCK):
        end = start + FLOAT_BLOCK
        _format_block(values[start:end], cells[start:end])
    return cells


def _format_block(values: np.ndarray, out: np.ndarray) -> None:
    """Write FLOAT_CELL % v of each finite v into the S24 cells out.

    For v = ±a, a normal, let E be its decade and k = 16 - E. Its 17 digits
    are M = a * 10**k rounded to an integer (Steele & White, "How to Print
    Floating-Point Numbers Accurately", PLDI 1990), from the parser's
    product: a's significand, shifted up to w, times 5**k = (T + f) * 2**g
    (_POW5) lies in [hi, hi + 2) * 2**64, hi = _high(w, T), so a * 10**k
    lies in [hi, hi + 2) / 2**s, s (6 to 9) from a's and 10**k's binary
    exponents. E is _DECADE's, or one more where hi >> s >= 10**17, and
    then hi // 10 takes hi's place. M is hi / 2**s rounded half up. Only
    these take the %: a cell whose hi has its low s bits at a half or one
    below (exact ties among them), or whose M rounds up to 10**17, and
    zero, subnormals and three-digit exponents.

    A cell is three little-endian words, its first character in the lowest
    byte: the first digit, ".", then M's other 16 digits, eight a word half
    (_ascii8), then _EXPONENT's; a negative cell is moved a byte up behind
    a "-".
    """
    a = np.abs(values).view(np.uint64)
    binade = a >> 52
    e = _DECADE[binade]
    k = np.clip(16 - e, -115, 115)
    hi = _high(a << 11 | 2**63, _POW5[k + 115])
    shift = (1022 - _POW5_EXP[k + 115] - k).view(np.uint64) - binade
    big = hi >> shift >= 10**17  # the decade is one more
    hi[big] //= 10
    mask = (1 << shift) - 1
    m = (hi >> shift - 1) + 1 >> 1  # rounded half up
    near = (hi & mask) - (mask >> 1) <= 1  # at a half, or one below it
    slow = np.flatnonzero(near | (m >= 10**17) | (e < -99) | (e + big > 99))
    e += big
    first = m // 10**16
    rest = m - first * 10**16
    high = rest // 10**8
    digits = _ascii8(np.stack([high, rest - high * 10**8]))
    w = out.view(np.uint64).reshape(-1, 3)
    w[:, 0] = digits[0] << 16 | 0x2E30 | first  # the first digit and "."
    w[:, 1] = digits[0] >> 48 | digits[1] << 16
    w[:, 2] = digits[1] >> 48 | _EXPONENT[np.clip(e, -99, 99) + 99]
    cells = out.view(np.uint8).reshape(-1, 24)
    neg = np.flatnonzero(np.signbit(values))
    cells[neg, 1:] = cells[neg, :23]
    cells[neg, 0] = ord("-")
    out[slow] = [FLOAT_CELL % v for v in values[slow].tolist()]


def _ascii8(n: np.ndarray) -> np.ndarray:
    """The eight digits of each n < 10**8 as ASCII, the first in the lowest
    byte: split into halves, quarters and digits a lane each (SWAR), with
    n // 100 as n * 5243 >> 19 and n // 10 as n * 103 >> 10."""
    high = n // 10_000
    n = high | (n - high * 10_000) << 32
    high = n * 5243 >> 19 & 0x7F_0000_007F
    n = high | (n - high * 100) << 16
    high = n * 103 >> 10 & 0x000F_000F_000F_000F
    return high | (n - high * 10) << 8 | 0x30 * _ONES


_TENS = np.array([10**k for k in range(1, 8)], np.uint64)  # 10 .. 10**7
ID_BYTES = 40  # a longer id goes to csv.writer, which bounds a block's bytes
_QUOTED = np.zeros(256, bool)  # the bytes that make csv.writer quote a field
_QUOTED[[ord(c) for c in ',"\r\n']] = True


def _line_bytes(block: list[np.ndarray]) -> np.ndarray | None:
    """The text of a block of CSV lines, or None unless csv.writer would
    write each id bare and it is ASCII, holds no NUL and has at most
    ID_BYTES characters, and each int is below 10**8.

    Each field sits at a fixed place in a uint8 matrix, a row a line, as
    NUL-padded bytes followed by "," (the last by "\\n"); dropping the NULs
    leaves the text.
    """
    ids, *columns = block
    # str_len stops at trailing NULs; with a "," after them it counts them
    lengths = np.strings.str_len(np.strings.add(ids, ",")) - 1
    longest = int(lengths.max())
    if longest > ID_BYTES:
        return None
    try:
        id_bytes = ids.astype(f"S{max(longest, 1)}").view(np.uint8)
    except UnicodeEncodeError:
        return None
    # count_nonzero counts neither the padding nor a NUL
    if _QUOTED[id_bytes].any() or np.count_nonzero(id_bytes) != lengths.sum():
        return None
    fields = [id_bytes.reshape(len(ids), 1, -1)]
    for column in columns:
        if column.dtype.kind == "f":
            cells = _format_floats(column.reshape(-1)).view(np.uint8)
            fields.append(cells.reshape(len(ids), -1, 24))
        elif column.max() >= 10**8:
            return None
        else:  # eight digits, less the leading zeros
            n = column.astype(np.uint64)
            zeros = 56 - 8 * np.searchsorted(_TENS, n, "right").astype(np.uint64)
            fields.append((_ascii8(n) >> zeros).view(np.uint8).reshape(len(ids), 1, 8))
    widths = [cells * (size + 1) for _, cells, size in (f.shape for f in fields)]
    lines = np.zeros((len(ids), sum(widths)), np.uint8)
    at = 0
    for field, width in zip(fields, widths):
        rows, cells, size = field.shape
        view = lines[:, at : at + width].reshape(rows, cells, size + 1)  # a view
        view[..., :size] = field
        view[..., size] = ord(",")
        at += width
    lines[:, -1] = ord("\n")  # for the last ","
    return lines[lines != 0]


def _parse_int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValidationError(f"{what} {text!r} is not an integer") from None


def _attribute_set(
    path: str,
    attrs: np.ndarray,
    huge: int,
    group_names: Sequence[str] | None,
    group_count: int | None = None,
) -> AttributeSet:
    """The given group names, or group0.. defaults.

    attrs is the file's group ids, and huge the largest id too large for
    their dtype (or 0). Refuses a file with no data rows, and given names
    too few for the ids. Without names, a given group_count (a model's)
    bounds the ids and sets the number of default names. Else the defaults
    run to the largest id k, which must be below the record count: a file
    cannot show more groups than it has records, and a stray large id would
    otherwise make about k empty default groups.
    """
    records = len(attrs)
    if not records:
        raise ValidationError(f"{path!r} has a header but no data rows")
    max_attr = max(int(attrs.max()), huge)
    if group_names is None and group_count is not None:
        if max_attr >= group_count:
            raise ValidationError(
                f"{path!r}: attribute id {max_attr} is not below the model's "
                f"group count {group_count}"
            )
        return AttributeSet.default(group_count)
    if group_names is None:
        if max_attr >= records:
            raise ValidationError(
                f"{path!r}: attribute id {max_attr} is not below the record "
                f"count {records}; pass --groups to name the groups"
            )
        return AttributeSet.default(max_attr + 1)
    attribute_set = AttributeSet(tuple(group_names))
    if max_attr >= attribute_set.group_count:
        raise ValidationError(
            f"attribute id {max_attr} out of range for the "
            f"{attribute_set.group_count} provided group names"
        )
    return attribute_set


def _dataset_width(header: list[str]) -> int:
    if len(header) < 4 or header[:3] != ["id", "attr", "label"]:
        raise ValidationError(
            f"line 1: header must start with id,attr,label,f0..., got {header[:4]}"
        )
    d = len(header) - 3
    if header[3:] != [f"f{i}" for i in range(d)]:
        raise ValidationError(f"line 1: feature columns must be f0..f{d-1}")
    return d + 3


def _check_dataset_row(row: list[str]) -> tuple[list[float], int, int]:
    """(features, attr, label) of a dataset row; raises its first broken rule."""
    attr = _parse_int(row[1], "attr")
    if attr < 0:
        raise ValidationError(f"attr must be >= 0, got {attr}")
    label = _parse_int(row[2], "label")
    if label not in (0, 1):
        raise ValidationError(f"label must be 0 or 1, got {label}")
    try:
        x = list(map(float, row[3:]))
    except ValueError as exc:
        raise ValidationError(f"bad feature value ({exc})") from None
    if not all(map(math.isfinite, x)):
        raise ValidationError("non-finite feature value")
    return x, attr, label


# id, attr (>= 0), label (0 or 1), finite features
_DATASET = _Schema(
    _dataset_width,
    "duplicate sample id",
    ((1, None, np.intp), (2, 1, np.int64)),
    slice(3, None),
    lambda x: np.isfinite(x).all(),
    _check_dataset_row,
)


def read_dataset_csv(
    path: str,
    group_names: Sequence[str] | None = None,
    group_count: int | None = None,
) -> Dataset:
    """Load and validate a dataset CSV.

    Group names default to group0..k where k is the largest attribute id
    seen, which must then be below the record count; pass group_names (e.g.
    from a sidecar file) to override. Without group_names, a group_count
    (the groups of the model that will score the data) replaces that rule:
    the ids must be below it, and it names group0..group{count-1}. Sample
    ids must be unique; violations name the offending line.
    """
    ids, x, (attrs, labels), (huge, _) = _read_csv(path, _DATASET)
    attribute_set = _attribute_set(path, attrs, huge, group_names, group_count)
    return Dataset(attribute_set, x, labels, attrs, IdColumn._of(ids))


# ---------------------------------------------------------------------------
# prediction CSV: header  id,score,label,attr


def write_predictions_csv(predictions: Predictions, path: str) -> None:
    columns = [predictions.ids, predictions.scores, predictions.labels, predictions.attrs]
    _write_csv(path, ["id", "score", "label", "attr"], columns)


def _predictions_width(header: list[str]) -> int:
    if header != ["id", "score", "label", "attr"]:
        raise ValidationError(
            f"line 1: header must be id,score,label,attr, got {header}"
        )
    return 4


def _check_predictions_row(row: list[str]) -> tuple[float, int, int]:
    """(score, label, attr) of a predictions row; raises its first broken rule."""
    sid, score_text, label_text, attr_text = row
    try:
        score = float(score_text)
    except ValueError:
        raise ValidationError(f"score {score_text!r} is not a number") from None
    label = _parse_int(label_text, "label")
    attr = _parse_int(attr_text, "attr")
    if attr < 0:
        raise ValidationError(f"attr must be >= 0, got {attr}")
    if not 0.0 <= score <= 1.0:
        raise ValidationError(
            f"record {sid!r}: score must lie in [0, 1], got {score!r}"
        )
    if label not in (0, 1):
        raise ValidationError(f"record {sid!r}: label must be 0 or 1, got {label!r}")
    return score, label, attr


# id, score (in [0, 1]; NaN fails both tests), label (0 or 1), attr (>= 0)
_PREDICTIONS = _Schema(
    _predictions_width,
    "duplicate id",
    ((2, 1, np.int64), (3, None, np.intp)),
    1,
    lambda scores: ((scores >= 0.0) & (scores <= 1.0)).all(),
    _check_predictions_row,
)


def read_predictions_csv(
    path: str, group_names: Sequence[str] | None = None
) -> tuple[Predictions, AttributeSet]:
    ids, scores, (labels, attrs), (_, huge) = _read_csv(path, _PREDICTIONS)
    attribute_set = _attribute_set(path, attrs, huge, group_names)
    return Predictions(IdColumn._of(ids), scores, labels, attrs), attribute_set


# ---------------------------------------------------------------------------
# histogram CSV: header  bin_lo,bin_hi,tp,fp,tn,fn


def write_histogram_csv(hist: PredictionHistogram, path: str) -> None:
    # tp, fp, tn, fn of each bin from its [label, decision] counts
    cells = hist.counts[:, [1, 0, 0, 1], [1, 1, 0, 0]].tolist()
    edges = hist.edges.tolist()
    with open(path, "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["bin_lo", "bin_hi", "tp", "fp", "tn", "fn"])
        for lo, hi, row in zip(edges, edges[1:], cells):
            w.writerow([repr(lo), repr(hi), *row])


# ---------------------------------------------------------------------------
# report JSON (fractions, rounded to 6 decimals; None -> null)


def _round6(x: float | None) -> float | None:
    return None if x is None else round(float(x), 6)


def metric_report_to_dict(report: MetricReport) -> dict:
    return {
        "threshold": _round6(report.threshold),
        "overall": {k: _round6(v) for k, v in report.overall.items()},
        "per_group": {
            str(g): {k: _round6(v) for k, v in row.items()}
            for g, row in sorted(report.per_group.items())
        },
        "delta": {k: _round6(v) for k, v in report.delta.items()},
        "equity_scaled": {k: _round6(v) for k, v in report.equity_scaled.items()},
        "dpd": _round6(report.dpd),
        "deodds": _round6(report.deodds),
        "group_sizes": {str(g): n for g, n in sorted(report.group_sizes.items())},
        "undefined": list(report.undefined),
    }


def read_groups_sidecar(path: str) -> tuple[str, ...]:
    """Sidecar JSON of group names: {"groups": ["...", ...]}."""
    data = load_json(path, what="groups sidecar")
    if (
        not isinstance(data, dict)
        or "groups" not in data
        or not isinstance(data["groups"], list)
        or not all(isinstance(g, str) for g in data["groups"])
    ):
        raise ValidationError(
            f'groups sidecar {path!r} must look like {{"groups": ["name", ...]}}'
        )
    return tuple(data["groups"])
