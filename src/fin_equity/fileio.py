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
(_plain_columns; Langdale & Lemire, VLDB J. 2019): one scan finds every
"," and "\\n", which give each cell's start and length; each float cell's
24 bytes are gathered as three words for the parser below (or, in any
other form, cast from S24), an int cell's first 8 as one word whose
digits are summed as the parser's are, and each id's bytes as NUL-padded
words, cast to StringDType and mixed into its key (see below). Plain
means valid UTF-8 with no quote, "\\r" or NUL, and the header's width on
every line; and every cell must be in a form the byte path reads and
pass its rule. csv.reader reads the first block that is not, from its
bytes, then the rest of the file, a pipe as a file; no later block goes
back, so every error's text and line come from the row-by-row rules
below. Both formats share this path, each by its _Schema. At 80 KB a
block's temporaries stay below glibc's 128 KB mmap threshold; 4 KB blocks
made the read four times slower, from numpy's cost per call. Plain blocks
are gathered into chunks of CHUNK_CELLS cells, whose float, int and key
columns each get an anonymous memory map (_mapped); the StringDType id
column cannot, and each block's ids are cast straight into it. The blocks' temporaries come and go in malloc's heap, and
kept columns among them fragmented it: with them there, score_eval's peak
RSS read 84.4-87.6 MB over 12 checkout paths, against 80.9-89.2 MB before
the byte path and 80.1-80.5 MB with the maps.

csv.reader reads CHUNK_CELLS cells a chunk, whose cells take the same
parsers, FLOAT_BLOCK at a time (_text_columns), so one function decides how
any cell becomes a number and when it is refused (_cell_values). A slice
they refuse goes to a loop over its rows in a row-by-row reader's order,
which gives each row's values or names the first rule broken, with the
line and text such a reader of the whole file gives. A chunk is kept as a
plain one is, so at most one chunk's cells are alive at a time. The first
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
cells (_cell_bytes). So an id first read on one path and repeated on the
other has one key. One sort of the keys finds the rows whose key an
earlier row has, and a set of those rows' ids as str decides each; so
only ids whose keys collide are hashed, and PYTHONHASHSEED cannot change
the row named. The earliest duplicate wins over the chunk's own error, as
in a row loop, which checks a row's id first; the chunks before cost a few
numpy calls a block and no search. On a 2-vCPU x86-64 host the 200,000
7-byte ids of a predictions file take about 8 ms, against about 50 ms for
a str and a hash() each.
"""

from __future__ import annotations

import codecs
import csv
import io
import json
import math
import mmap
from itertools import chain, islice
from typing import Callable, NamedTuple, Sequence

import numpy as np
from numpy.dtypes import StringDType

from .core import AttributeSet, Dataset, IdColumn, Predictions, join_chunks
from .errors import ValidationError
from .metrics import MetricReport, PredictionHistogram

FLOAT_CELL = "%.16e"  # 17 significant digits
CHUNK_CELLS = 1 << 15  # CSV cells tokenized and checked at a time
CHUNK_TEXT = 80 << 10  # CSV bytes read at a time; see the module docstring
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
    """Where a chunk's rows sit in the file, and a wrong-width row after them.

    Messages name a row by its record number, the header being line 1 and
    blank rows counted.
    """

    def __init__(
        self, width: int, line: int, blanks: list[int], wrong: int | None, plain: bool
    ):
        self.width = width  # cells per row
        self.line = line  # record number of row 0, were no record blank
        self.blanks = blanks  # record numbers of the blank rows among them
        self.wrong = wrong  # the width of a row after them that ends the read
        self.plain = plain  # from the byte path, so every row passed

    def line_of(self, i: int) -> int:
        """The record number of row i."""
        line = self.line + i
        for blank in self.blanks:
            if blank > line:
                break
            line += 1
        return line


class _SeenIds:
    """The ids of the chunks read: their columns and duplicate keys.

    Each chunk's ids come as a StringDType column and an int64 key per id,
    computed in numpy from the id's UTF-8 bytes by _id_column on either
    path, so an id has one key wherever it is read. Duplicates are looked
    for once, when the read ends (see check), so a chunk that passes costs
    no search, and only ids whose keys collide take a hash() of a str.
    """

    def __init__(self, what: str):
        self.what = what  # the error's name for a duplicate
        self.chunks: list[np.ndarray] = []  # StringDType columns, in order
        self.keys: list[np.ndarray] = []  # int64 key of each id
        self.places: list[_Chunk] = []  # each chunk's line numbers

    def add(self, ids: np.ndarray, keys: np.ndarray, place: _Chunk) -> None:
        self.chunks.append(ids)
        self.keys.append(keys)
        self.places.append(place)

    def check(self) -> str | None:
        """The error naming the earliest row whose id an earlier row has.

        Call it once, when the read ends: after the last chunk, or after a
        failing chunk's ids up to and including its failing row were added.
        A row whose key an earlier row has is a candidate, and a set of the
        candidates' ids as str decides it, so the row named does not depend
        on which ids share a key, and ids built to share one cost a set
        lookup each, not a comparison with every earlier one.
        """
        keys = join_chunks(self.keys, np.int64)
        ranked = np.sort(keys)
        twice = ranked[1:][ranked[1:] == ranked[:-1]]
        if not twice.size:
            return None
        rows = np.flatnonzero(np.isin(keys, twice))
        ends = np.cumsum([len(chunk) for chunk in self.chunks])
        inside = np.searchsorted(ends, rows, side="right")  # each row's chunk
        earlier: set[str] = set()  # the candidates' ids so far
        for row, c in zip(rows.tolist(), inside.tolist()):
            i = row - int(ends[c]) + len(self.chunks[c])
            sid = self.chunks[c][i]
            if sid in earlier:
                return f"line {self.places[c].line_of(i)}: {self.what} {sid!r}"
            earlier.add(sid)
        return None


def _read_chunks(path: str, schema: _Schema):
    """Stream a CSV once, yielding its data rows a chunk at a time.

    Each chunk is (data, chunk), chunk being its _Chunk. While each block
    of CHUNK_TEXT bytes, run on to a line end, is plain, a chunk gathers
    the blocks' _plain_columns up to CHUNK_CELLS cells, and data is its
    (ids, keys, floats, *ints). csv.reader reads the first block that is
    not, as bytes, and then the rest of the file (a pipe as a file),
    CHUNK_CELLS / width records a chunk; data is then the flat cells of a
    chunk's rows, for _text_columns. The header line is decoded and checked
    first (one holding a quote or "\\r" is csv.reader's first block
    instead). Blank rows are skipped; reading stops at the first row of
    another width, which ends the last chunk. A decode error or an
    oversized field raises with its record's number, whatever the consumer
    did with the chunks before it.
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
            if plain:
                line, width = 2, schema.header_width(next(csv.reader([text]), []))
            kept, rows = [], 0  # the byte path's chunk so far
            while plain:  # byte blocks, up to the first that is not plain
                block = f.read(CHUNK_TEXT)
                if block and not block.endswith(b"\n"):
                    block += f.readline()
                data = _plain_columns(block, width, schema) if block else None
                if kept and (data is None or rows + len(data[1]) > len(kept[0])):
                    full = tuple(column[:rows] for column in kept)
                    yield full, _Chunk(width, line, [], None, True)
                    line += rows
                    kept, rows = [], 0
                if data is None:  # csv.reader reads on from this block
                    break
                ids, *columns = data
                if not kept:  # a chunk's columns, CHUNK_CELLS cells
                    size = max(CHUNK_CELLS // width, len(columns[0]))
                    kept = [np.empty(size, StringDType())]  # a map cannot hold it
                    kept += [_mapped((size,), np.int64)]  # the ids' keys
                    kept += [_mapped((size, *c.shape[1:]), c.dtype) for c in columns]
                at = slice(rows, rows + len(columns[0]))
                _id_column(*ids, kept[0][at], kept[1][at])
                for column, part in zip(kept[2:], columns):
                    column[at] = part
                rows += len(columns[0])
                del data, ids, columns
            # that block and the rest of the file, row by row
            start = io.TextIOWrapper(io.BytesIO(block), encoding="utf-8", newline="")
            rest = io.TextIOWrapper(f, encoding="utf-8", newline="")
            reader = csv.reader(chain(start, rest))
            if not plain:
                line, width = 2, schema.header_width(next(reader))
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
                    yield cells, _Chunk(width, line, blanks, wrong, False)
                    line += len(cells) // width + len(blanks)
                    cells, blanks = [], []
                if end:
                    return
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path!r} is not valid UTF-8 ({exc.reason})") from exc
    except csv.Error as exc:
        line += len(cells) // width + len(blanks)  # the record being read
        raise ValidationError(f"{path!r} line {line}: {exc}") from exc


def _mapped(shape: tuple, dtype) -> np.ndarray:
    """np.empty(shape, dtype) in an anonymous memory map of its own, out of
    malloc's heap (see the module docstring)."""
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
    # copies, so that the block's bounds are freed before the chunk's columns
    # are made: kept until the cast, they raised audit_report's peak RSS by
    # 0.6-0.8 MB at some checkout paths
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
    """The 24 bytes from each start as three little-endian words, shape
    (*starts.shape, 3), with the third word's bytes past the length 0.

    So a cell of 16 to 24 bytes gets the words of its S24 form. A shorter
    one keeps a separator ("," or "\\n") in its first two, and none of those
    is in the writers' form anywhere. data holds 24 bytes from each start.
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
    words = _cell_words(data, starts, lengths)
    x = _writer_floats(words)
    if x is not None or lengths.max() > 24:
        return x
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


def _id_column(data: bytes, starts: np.ndarray, lengths: np.ndarray, column, keys):
    """Cast the ids whose UTF-8 bytes are data[start : start + length] into
    column, a StringDType array, and put an int64 duplicate key of each in
    keys. Each id must be valid UTF-8, for numpy's cast copies the bytes
    without checking them; the column is exact unless an id holds a NUL.

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
    for _SeenIds.check, which compares the ids themselves.
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
        column[run] = matrix.view(f"S{8 * width}")[:, 0]
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
    data padded with NULs is read instead.
    """
    size = 8 * width
    end = int(starts.max(initial=0)) + size
    if end > len(data):
        data += bytes(end - len(data))
    at = np.ndarray((len(data) - size + 1,), f"V{size}", data, strides=(1,))
    words = at[starts].view(np.uint64).reshape(-1, width)
    # _KEEP[n, 0] keeps a word's first n <= 8 bytes
    words &= _KEEP[np.clip(lengths[:, None] - 8 * np.arange(width), 0, 8), 0]
    return words


def _cell_bytes(cells: list[str]):
    """(data, starts, lengths) of cells from one encode of them all: a cell's
    UTF-8 bytes are data[start : start + length], and _PAD ends data."""
    text = "".join(cells)
    data = text.encode() + _PAD
    ends = np.cumsum(np.fromiter(map(len, cells), np.int64, len(cells)))
    if len(data) - len(_PAD) > len(text):  # character offsets to byte offsets
        firsts = (np.frombuffer(data, np.uint8) & 0xC0) != 0x80
        ends = np.flatnonzero(firsts)[ends]  # the first NUL of _PAD ends the last
    lengths = np.diff(ends, prepend=0)
    return data, ends - lengths, lengths


def _read_csv(path: str, schema: _Schema):
    """Read and check a CSV's rows: (its id column in chunks, its float
    column(s), its int columns, and per int column the largest value too
    large for its dtype, stored there as 0, or 0 if none is).

    A csv.reader chunk is converted by _text_columns. At its first error, a
    duplicate id up to and including the failing row wins, as a row's id is
    checked first. No later chunk is converted, but the rest of the file is
    still read, so that a decode error or an oversized field in it wins;
    then the read's error is raised.
    """
    seen = _SeenIds(schema.what)
    huge = [0 for _ in schema.ints]
    floats: list[np.ndarray] = []
    ints: list[list[np.ndarray]] = [[] for _ in schema.ints]
    chunks = _read_chunks(path, schema)
    for data, chunk in chunks:
        if not chunk.plain:
            data, error = _text_columns(data, chunk, schema, huge)
            if error is not None:
                seen.add(*data, chunk)
                error = seen.check() or error
                del data
                for data, _ in chunks:  # read on: a later decode error still wins
                    del data
                raise ValidationError(error)
        ids, keys, x, *columns = data
        floats.append(x)
        seen.add(ids, keys, chunk)
        for column, kept in zip(columns, ints):
            kept.append(column)
        del data, ids, keys, x, columns
    error = seen.check()
    if error is not None:
        raise ValidationError(error)
    ints = [join_chunks(kept, dtype) for kept, (_, _, dtype) in zip(ints, schema.ints)]
    return seen.chunks, join_chunks(floats, np.float64), ints, huge


def _text_columns(cells: list[str], chunk: _Chunk, schema: _Schema, huge: list[int]):
    """((ids, keys, floats, *ints), None) of a csv.reader chunk's flat
    cells; or, at the first row that breaks a rule or the wrong-width row
    after them, ((ids, keys) up to and including it, its error).

    Each slice of whole rows, FLOAT_BLOCK cells, is encoded once
    (_cell_bytes) for _id_column and _cell_values; one these refuse, or
    that holds a NUL, goes to _first_bad_row and _row_columns instead.
    """
    width, wrong = chunk.width, chunk.wrong
    rows, step = len(cells) // width, max(1, FLOAT_BLOCK // width)
    ids, keys = np.empty(rows, StringDType()), np.empty(rows, np.int64)
    # the error and its row: a wrong-width row comes after the chunk's rows
    error = None if wrong is None else f"expected {width} fields, got {wrong}"
    parts = []
    for start in range(0, rows, step):
        part = cells[start * width : (start + step) * width]
        data, starts, lengths = _cell_bytes(part)
        starts, lengths = starts.reshape(-1, width), lengths.reshape(-1, width)
        at = slice(start, start + len(starts))
        _id_column(data, starts[:, 0], lengths[:, 0], ids[at], keys[at])
        nul = data.index(0) < len(data) - len(_PAD)
        if nul:  # the cast ends an id at its trailing NULs
            ids[at] = part[::width]
        values = None if nul else _cell_values(data, starts, lengths, schema)
        if values is None:
            parsed, bad = _first_bad_row(part, width, schema.check_row)
            if bad is not None:
                rows, error = start + len(parsed), bad
                break
            values = _row_columns(parsed, schema, huge)
        parts.append(values)
    if error is not None:
        return (ids[: rows + 1], keys[: rows + 1]), f"line {chunk.line_of(rows)}: {error}"
    return (ids, keys, *map(np.concatenate, zip(*parts))), None


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
    its first character in the lowest byte; a negative one is moved a byte
    down. Its 17 digits are read eight at a time (Lemire, "Number Parsing
    at a Gigabyte per Second", SPE 2021) into M < 10**17, and its value is
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
    neg = (w[0] & 0xFF) == ord("-")
    if neg.any():
        shift = neg.astype(np.uint64) << 3  # bits; a shift by 64 gives 0
        w[:2] = (w[:2] >> shift) | (w[1:] << (64 - shift))
        w[2] >>= shift
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
    bits |= neg.astype(np.uint64) << 63
    if near.any():  # their bytes, trailing NULs dropped
        slow = np.flatnonzero(near)
        cells = words[slow].view("S24").reshape(-1)
        out[slow] = [float(cell) for cell in cells.tolist()]
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
    return Dataset(attribute_set, x, labels, attrs, IdColumn.from_chunks(ids))


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
    return Predictions(IdColumn.from_chunks(ids), scores, labels, attrs), attribute_set


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
