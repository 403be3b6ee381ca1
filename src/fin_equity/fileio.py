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
the NULs. Float cells come from _format_floats, the inverse of
_writer_floats: FLOAT_CELL % v exactly, in whole-array steps with one x87
long double multiply or divide (see _format_block), about 0.15 us a cell
against 1.2-1.5 us for the %; without x87, FAST_FLOATS off, each takes the
%. A block whose ids csv.writer would quote, or that holds an id that is
not ASCII, holds a NUL or is longer than ID_BYTES, or an int of 10**8 or
more, goes to csv.writer, as does every block of a file that quotes every
field (see _write_csv). A block holds FLOAT_BLOCK // (floats + 3) records,
so that its matrix and each temporary stay under about 100 KB, below
glibc's 128 KB mmap threshold (see the parser below). On a 2-vCPU x86-64 host,
60,000 predictions take 50-85 ms against 250-270 ms one % and csv.writer
row a record, and 60,000 x 20 features 0.45-0.6 s against 1.9-2.0 s.

The CSV readers stream a file once, in chunks of about CHUNK_CELLS cells.
The data is split by str.split in blocks of CHUNK_TEXT characters while
each block is plain (see _plain_cells); the first that is not, and the rest
of the file, go to csv.reader row by row. First a chunk's columns decide:
each is converted whole (ints once per distinct text, floats by the
parser or astype below) and checked whole. A chunk whose every row
passes is kept as a StringDType id column and int and float columns, so at
most one chunk's cells are alive at a time; each column is joined from its
chunks once the file is read. A chunk that the columns refuse, or that
ends at a row of the wrong width, then goes to a loop over its rows in the
order of a row-by-row reader, which names the first rule broken. So every
error is the one such a reader of the whole file raises, with the same
line and text. The first failing chunk stops the conversion, but the same
chunk stream is still read to its end, so a decode error or an oversized
field anywhere after it still wins.

A plain chunk's float cells are first read by _writer_floats, which takes
only the writers' form with a two-digit exponent,
-?D.DDDDDDDDDDDDDDDDe[+-]DD, and gives float()'s bits for it; if any cell
differs from that form, or the chunk came from csv.reader (whose cells may
end in a NUL that the cast to bytes would drop), the chunk takes one
object-to-float64 astype, which decides values and errors as before. The
parser needs x87's 64-bit long double significand (see _parse_floats), so
FAST_FLOATS gates it once, at import. It works on FLOAT_BLOCK cells at a
time, straight into the chunk's result: with the whole chunk at once its
temporaries reach 200-700 KB, past glibc's 128 KB mmap threshold, and
freeing one raises that threshold, so later chunk arrays land in the heap
and can fragment it (one such variant's peak RSS grew about 1 MB per
evaluate). With 4096-cell blocks no temporary passes 100 KB. On a 2-vCPU
x86-64 host, 30,000 cells take 3.8-4.4 ms this way against 8.1-8.7 ms by
the astype.

Duplicate ids are found from an int64 array of hash() of each id, not
from a set of str, and only when the read ends: at the failing chunk, over
the rows up to and including its failing row, or after the last chunk. One
sort of the hashes finds the rows whose hash an earlier row has, and an
exact comparison of the ids decides each. The earliest duplicate wins over
the chunk's own error, as in a row loop, which checks a row's id first;
the chunks before cost one hash per id and no search.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from itertools import chain, islice
from typing import Sequence

import numpy as np
from numpy.dtypes import StringDType

from .core import AttributeSet, Dataset, IdColumn, Predictions, join_chunks
from .errors import ValidationError
from .metrics import MetricReport, PredictionHistogram

FLOAT_FMT = ".16e"  # 17 significant digits
FLOAT_CELL = "%" + FLOAT_FMT  # the same, as a %-format
CHUNK_CELLS = 1 << 15  # CSV cells tokenized and checked at a time
CHUNK_TEXT = 4096  # CSV text split at a time; larger left heap holes (ROADMAP)
FLOAT_BLOCK = 4096  # float cells parsed or formatted at a time; see below
# The writer-form parser's exact rounding needs x87's 64-bit significand,
# stored in 16 bytes (see _parse_floats); elsewhere float cells take the astype.
FAST_FLOATS = (
    np.finfo(np.longdouble).nmant == 63
    and np.dtype(np.longdouble).itemsize == 16
    and sys.byteorder == "little"
)
# 10**k for k <= 27, exact in a 64-bit significand (5**27 < 2**63)
_POW10 = np.array([5**k for k in range(28)], np.uint64).astype(np.longdouble)
_POW10 *= 2.0 ** np.arange(28)


def format_float(x: float) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise ValidationError(f"cannot serialize non-finite float {x!r}")
    return format(x, FLOAT_FMT)


def dumps_canonical(obj) -> str:
    """Deterministic JSON: %.16e floats, insertion-ordered keys, no spaces."""
    out: list[str] = []
    _write_canonical(obj, out)
    return "".join(out)


def _write_canonical(o, out: list[str]) -> None:
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
        text = [cell.decode() for cell in _format_floats(flat).tolist()]
        for n in reversed(o.shape):  # nest the brackets, innermost first
            text = ["[" + ",".join(text[i : i + n]) + "]" for i in range(0, len(text), n)]
        out.append(text[0])
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
        cells = [FLOAT_CELL % v for v in column.reshape(-1).tolist()]
        return np.array(cells, object).reshape(len(column), -1)
    return column.astype(object).reshape(len(column), 1)


def write_dataset_csv(dataset: Dataset, path: str) -> None:
    header = ["id", "attr", "label"] + [f"f{i}" for i in range(dataset.d)]
    _write_csv(path, header, [dataset.ids, dataset.attrs, dataset.labels, dataset.x])


def _hashes(ids: list[str]) -> np.ndarray:
    return np.fromiter(map(hash, ids), np.int64, len(ids))


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
        self.plain = plain  # split from plain blocks, so no cell holds a NUL

    def line_of(self, i: int) -> int:
        """The record number of row i."""
        line = self.line + i
        for blank in self.blanks:
            if blank > line:
                break
            line += 1
        return line


class _SeenIds:
    """The ids of the chunks read: their columns and hashes.

    Duplicates are looked for once, when the read ends (see check), so a
    chunk that passes costs one hash() per id and no search.
    """

    def __init__(self, what: str):
        self.what = what  # the error's name for a duplicate
        self.chunks: list[np.ndarray] = []  # StringDType columns, in order
        self.hashes: list[np.ndarray] = []  # int64 hash() of each id
        self.places: list[_Chunk] = []  # each chunk's line numbers

    def add(self, ids: list[str], place: _Chunk) -> None:
        self.chunks.append(np.array(ids, StringDType()))
        self.hashes.append(_hashes(ids))
        self.places.append(place)

    def check(self) -> str | None:
        """The error naming the earliest row whose id an earlier row has.

        Call it once, when the read ends: after the last chunk, or after a
        failing chunk's ids up to and including its failing row were added.
        A row whose hash an earlier row has is a candidate, and an exact
        comparison with those rows' ids decides it, so the row named does
        not depend on how PYTHONHASHSEED salts the hashes.
        """
        hashes = join_chunks(self.hashes, np.int64)
        ranked = np.sort(hashes)
        twice = ranked[1:][ranked[1:] == ranked[:-1]]
        if not twice.size:
            return None
        ends = np.cumsum([len(chunk) for chunk in self.chunks])
        earlier: dict[int, list[str]] = {}  # candidates' ids by hash
        for row in np.flatnonzero(np.isin(hashes, twice)).tolist():
            c = int(np.searchsorted(ends, row, side="right"))
            i = row - int(ends[c]) + len(self.chunks[c])
            sid = self.chunks[c][i]
            same = earlier.setdefault(int(hashes[row]), [])
            if sid in same:
                return f"line {self.places[c].line_of(i)}: {self.what} {sid!r}"
            same.append(sid)
        return None


def _read_chunks(path: str, header_width):
    """Stream a CSV once, yielding its data rows a chunk at a time.

    header_width checks the header row and returns the width of a data row.
    Each chunk is (cells, chunk): the flat cells of its rows, and their
    _Chunk. While each text block is plain, a chunk gathers blocks up to
    at least CHUNK_CELLS cells; from the first block that is not, csv.reader
    reads CHUNK_CELLS / width records a chunk. Blank rows are skipped;
    reading stops at the first row of another width, which ends the last
    chunk. A decode error or an oversized field raises with its record's
    number, whatever the consumer did with the chunks before it.
    """
    # no per-row counter: a record's number is line plus the rows and blank
    # rows of the chunk read before it
    line, width = 1, 1  # record number of the chunk's first record
    cells: list[str] = []
    blanks: list[int] = []  # record numbers of the chunk's blank rows
    try:
        with open(path, "r", encoding="utf-8", newline="") as f:
            reader = csv.reader(f)
            header = next(reader, None)
            if header is None:
                raise ValidationError(f"{path!r} is empty")
            line, width = 2, header_width(header)
            while True:  # plain blocks, up to the first that is not
                block = f.read(CHUNK_TEXT)
                if not block.endswith("\n"):
                    block += f.readline()
                plain = _plain_cells(block, width)
                if plain:
                    cells += plain
                if cells and (not plain or len(cells) >= CHUNK_CELLS):
                    yield cells, _Chunk(width, line, [], None, True)
                    line += len(cells) // width
                    cells = []
                if not plain:  # not plain, or the end of the file
                    break
            # that block and the rest of the file, row by row
            reader = csv.reader(chain(io.StringIO(block, newline=""), f))
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


def _plain_cells(block: str, width: int) -> list[str] | None:
    """The cells of a block of lines, or None unless csv.reader would read
    each line as line.split(",") of width cells: no quote, "\\r" or NUL,
    and no field past csv's limit.

    Each "\\n" becomes a cell of its own; every line has width cells exactly
    when these are the only "\\n" cells and sit one in every width + 1 (a
    blank line is one cell; width is at least 2).
    """
    needs_csv = '"' in block or "\r" in block or "\0" in block
    if needs_csv or len(block) > csv.field_size_limit():
        return None
    if block and not block.endswith("\n"):  # the file's last line
        block += "\n"
    rows = block.count("\n")
    cells = block.replace("\n", ",\n,").split(",")
    ends = slice(width, None, width + 1)
    if len(cells) != rows * (width + 1) + 1 or cells[ends].count("\n") != rows:
        return None
    del cells[ends]
    cells.pop()  # the "" after the last "\n"
    return cells


def _read_csv(path: str, header_width, what: str, keep, check_row) -> list[np.ndarray]:
    """Read and check a CSV's rows; return its id column in chunks.

    keep(cells, width, plain, add_ids) converts a chunk column by column
    (plain is _Chunk.plain). If every row is valid it calls add_ids, between
    its float and int columns, and keeps its columns; else it returns False.
    (That order is for heap layout alone: on a 2-vCPU host, score_eval's
    peak RSS read 82.3-82.4 MB with the ids added before keep, 80.5-81.5 MB
    after it, and 80.1-80.2 MB in this order, 5 runs each.) The first chunk
    it refuses, or that ends at a row of another width, goes to a loop over
    its rows: check_row raises the ValidationError of the first rule a row
    breaks, in a row-by-row reader's order. A duplicate id up to and
    including that row wins, as a row's id is checked first. No later chunk
    is converted, but the rest of the file is still read, so that a decode
    error or an oversized field in it wins; then the read's error is raised.
    """
    seen = _SeenIds(what)
    chunks = _read_chunks(path, header_width)
    for cells, chunk in chunks:
        width = chunk.width
        ids = cells[::width]
        if chunk.wrong is None and keep(
            cells, width, chunk.plain, lambda: seen.add(ids, chunk)
        ):
            del cells, ids  # free the chunk's cells before the next is read
            continue
        r, error = _first_bad_row(cells, width, check_row)
        if error is None:
            if chunk.wrong is None:
                raise AssertionError(f"{path!r}: no row of a refused chunk fails")
            error = f"expected {width} fields, got {chunk.wrong}"
        seen.add(ids[: r + 1], chunk)
        error = seen.check() or f"line {chunk.line_of(r)}: {error}"
        del cells, ids
        for cells, _ in chunks:  # read on: a later decode error still wins
            del cells
        raise ValidationError(error)
    error = seen.check()
    if error is not None:
        raise ValidationError(error)
    return seen.chunks


def _first_bad_row(cells: list[str], width: int, check_row) -> tuple[int, str | None]:
    """The first row that check_row refuses and its error, else (rows, None)."""
    rows = len(cells) // width
    for r in range(rows):
        try:
            check_row(cells[r * width : (r + 1) * width])
        except ValidationError as exc:
            return r, str(exc)
    return rows, None


def _writer_floats(texts) -> np.ndarray | None:
    """float() of every cell of texts, or None unless each is in the form
    the writers give, -?D.DDDDDDDDDDDDDDDDe[+-]DD in ASCII.

    texts is a list of str or a 2-D object array of them, holding no NUL:
    the cast to bytes drops a trailing NUL, which float() refuses. The
    cells are parsed FLOAT_BLOCK at a time straight into the result, so
    that no temporary is as large as a chunk (see the module docstring).
    """
    if not FAST_FLOATS:
        return None
    out = np.empty(texts.shape if isinstance(texts, np.ndarray) else len(texts))
    rows = max(1, FLOAT_BLOCK // math.prod(out.shape[1:]))
    for start in range(0, len(out), rows):
        try:
            cells = np.array(texts[start : start + rows], "S24")
        except UnicodeEncodeError:
            return None
        if not _parse_floats(cells.reshape(-1), out[start : start + rows].reshape(-1)):
            return None
    return out


_ONES = 0x0101_0101_0101_0101  # one in each byte of a word
# A cell's three words, read from its first digit, in the writers' form:
# _FORM's byte wherever _FIXED is set, a digit wherever _DIGITS is. The
# sign byte is checked apart; the NUL at byte 22 fixes the cell's length.
_FORM = np.array([0x3030_3030_3030_2E30, 0x30 * _ONES, 0x3030_2B65_3030], np.uint64)
_FIXED = np.array([0xFF00, 0, 0x00FF_0000_00FF_0000], np.uint64)
_DIGITS = np.array([0x0101_0101_0101_0001, _ONES, 0x0101_0000_0101], np.uint64)


def _scaled(a: np.ndarray, k: np.ndarray) -> np.ndarray:
    """a * 10**k in long double, rounded once where |k| <= 27: each value's
    other step, if any, is by 10**0 = 1."""
    q = a.astype(np.longdouble)
    if k.min() < 0:
        q /= _POW10[np.clip(-k, 0, 27)]
    if k.max() > 0:
        q *= _POW10[np.clip(k, 0, 27)]
    return q


def _parse_floats(cells: np.ndarray, out: np.ndarray) -> bool:
    """Parse S24 cells into out as float() would; False unless each is in
    the writers' form.

    A cell is three little-endian words, its first character in the lowest
    byte; a negative one is moved a byte down. Its 17 digits are read eight
    at a time (Lemire, "Number Parsing at a Gigabyte per Second", SPE 2021)
    into M < 10**17 < 2**57, and its value is M * 10**k, k = exponent - 16.
    For |k| <= 27, M and 10**|k| are exact in x87's 64-bit significand, so
    one multiply or divide gives q, the value rounded to 64 bits. Every
    midpoint between adjacent doubles lies on that 64-bit grid, so none
    lies strictly between the value and q, and q rounded to a double is
    float()'s result unless q is such a midpoint (its 11 bits below a
    double's are 0x400). Those cells, and those with |k| > 27, take float().
    """
    w = cells.view(np.uint64).reshape(-1, 3).T.copy()  # rows of words; cells stay
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
    e = ((w[2] >> 32 & 0xFF) * 10 + (w[2] >> 40 & 0xFF)).astype(np.int64)
    k = np.where(sign, -e, e) - 16
    q = _scaled(m, k)
    out[...] = q
    bits = out.view(np.uint64)
    bits |= neg.astype(np.uint64) << 63
    midpoint = q.view(np.uint64)[::2] & 0x7FF == 0x400  # the significand's word
    slow = np.flatnonzero(midpoint | (np.abs(k) > 27))
    out[slow] = [float(cell) for cell in cells[slow]]
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
    """FLOAT_CELL % v of each finite float64 v, as S24 cells.

    The cells are made FLOAT_BLOCK at a time (see the module docstring).
    Without x87's long double each takes the % (see _format_block).
    """
    cells = np.empty(len(values), "S24")
    for start in range(0, len(values), FLOAT_BLOCK):
        block = values[start : start + FLOAT_BLOCK]
        if FAST_FLOATS:
            _format_block(block, cells[start : start + FLOAT_BLOCK])
        else:
            cells[start : start + FLOAT_BLOCK] = [FLOAT_CELL % v for v in block.tolist()]
    return cells


def _format_block(values: np.ndarray, out: np.ndarray) -> None:
    """Write FLOAT_CELL % v of each finite v into the S24 cells out.

    For v = ±a, a normal, let E be its decade and k = 16 - E. Its 17 digits
    are M = a * 10**k rounded to an integer (Steele & White, "How to Print
    Floating-Point Numbers Accurately", PLDI 1990). For |k| <= 27, a and
    10**|k| are exact in x87's 64-bit significand, so one multiply or
    divide gives q, the exact product rounded once; q < 2**57, so q is
    within 2**-8 of it. Unless q's fraction is within 2**-8 of 1/2, q
    rounds to M as the product does. Those cells (exact ties among them)
    and |k| > 27 (zero, subnormals and three-digit exponents too) take the
    %. E comes from _DECADE, one more where q >= 10**17. M < 10**17: no
    double with |k| <= 27 lies within half a unit of the 17th digit below
    a power of ten, so none is written 1.0000000000000000e+(E + 1).

    A cell is three little-endian words, its first character in the lowest
    byte: the first digit, ".", then M's other 16 digits, eight a word half
    (_ascii8), then _EXPONENT's; a negative cell is moved a byte up behind
    a "-".
    """
    a = np.abs(values)
    k = 16 - _DECADE[a.view(np.uint64) >> 52]
    q = _scaled(a, k)
    with np.errstate(invalid="ignore"):  # q past 2**64, where |k| > 27
        m = q.astype(np.uint64)
    low = np.flatnonzero(m >= 10**17)  # the decade is one more
    if low.size:
        k[low] -= 1
        q[low] = _scaled(a[low], k[low])
        m[low] = q[low].astype(np.uint64)
    half = q - m - 0.5  # exact
    m += half > 0
    first = m // 10**16
    rest = m - first * 10**16
    high = rest // 10**8
    digits = _ascii8(np.stack([high, rest - high * 10**8]))
    w = out.view(np.uint64).reshape(-1, 3)
    w[:, 0] = digits[0] << 16 | 0x2E30 | first  # the first digit and "."
    w[:, 1] = digits[0] >> 48 | digits[1] << 16
    w[:, 2] = digits[1] >> 48 | _EXPONENT[np.clip(16 - k, -99, 99) + 99]
    cells = out.view(np.uint8).reshape(-1, 24)
    neg = np.flatnonzero(np.signbit(values))
    cells[neg, 1:] = cells[neg, :23]
    cells[neg, 0] = ord("-")
    slow = np.flatnonzero((np.abs(half) <= 2.0**-8) | (np.abs(k) > 27))
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


def _add_ints(texts: list[str], values: dict[str, int], valid) -> bool:
    """Add int() of each new distinct text to values, which holds those of
    the earlier chunks; False at a text that is not an integer or whose
    value valid refuses."""
    for text in set(texts).difference(values):
        try:
            value = int(text)
        except ValueError:
            return False
        if not valid(value):
            return False
        values[text] = value
    return True


def _parse_int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValidationError(f"{what} {text!r} is not an integer") from None


def _attribute_set(
    path: str,
    attrs: dict[str, int],
    records: int,
    group_names: Sequence[str] | None,
    group_count: int | None = None,
) -> AttributeSet:
    """The given group names, or group0.. defaults.

    Refuses a file with no data rows, and given names too few for the ids.
    Without names, a given group_count (a model's) bounds the ids and sets
    the number of default names. Else the defaults run to the largest id k,
    which must be below the record count: a file cannot show more groups
    than it has records, and a stray large id would otherwise make about k
    empty default groups.
    """
    if not attrs:
        raise ValidationError(f"{path!r} has a header but no data rows")
    max_attr = max(attrs.values())
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


def _int_column(texts: list[str], values: dict[str, int], dtype) -> np.ndarray:
    """The value of each text, in order, as an array."""
    try:
        return np.fromiter(map(values.__getitem__, texts), dtype, len(texts))
    except OverflowError:
        # a group id past any dtype: _attribute_set refuses the file, unless
        # a later chunk fails first, so these values are never used
        return np.zeros(len(texts), dtype)


def _dataset_width(header: list[str]) -> int:
    if len(header) < 4 or header[:3] != ["id", "attr", "label"]:
        raise ValidationError(
            f"line 1: header must start with id,attr,label,f0..., got {header[:4]}"
        )
    d = len(header) - 3
    if header[3:] != [f"f{i}" for i in range(d)]:
        raise ValidationError(f"line 1: feature columns must be f0..f{d-1}")
    return d + 3


def _check_dataset_row(row: list[str]) -> None:
    """Raise the error of the first rule a dataset row breaks, if any."""
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
    attrs: dict[str, int] = {}
    labels: dict[str, int] = {}
    attr_chunks, label_chunks, x_chunks = [], [], []

    def keep(cells: list[str], width: int, plain: bool, add_ids) -> bool:
        attr_text, label_text = cells[1::width], cells[2::width]
        if not (
            _add_ints(attr_text, attrs, lambda attr: attr >= 0)
            and _add_ints(label_text, labels, lambda label: label in (0, 1))
        ):
            return False
        table = np.array(cells, dtype=object).reshape(-1, width)
        x = _writer_floats(table[:, 3:]) if plain else None
        if x is None:
            try:
                x = table[:, 3:].astype(np.float64)
            except ValueError:
                return False
        if not np.isfinite(x).all():
            return False
        add_ids()
        attr_chunks.append(_int_column(attr_text, attrs, np.intp))
        label_chunks.append(_int_column(label_text, labels, np.int64))
        x_chunks.append(x)
        return True

    ids = _read_csv(
        path, _dataset_width, "duplicate sample id", keep, _check_dataset_row
    )
    records = sum(map(len, ids))
    attribute_set = _attribute_set(path, attrs, records, group_names, group_count)
    x = np.concatenate(x_chunks)
    del x_chunks
    return Dataset(
        attribute_set,
        x,
        join_chunks(label_chunks, np.int64),
        join_chunks(attr_chunks, np.intp),
        IdColumn.from_chunks(ids),
    )


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


def _check_predictions_row(row: list[str]) -> None:
    """Raise the error of the first rule a predictions row breaks, if any."""
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


def read_predictions_csv(
    path: str, group_names: Sequence[str] | None = None
) -> tuple[Predictions, AttributeSet]:
    labels: dict[str, int] = {}
    attrs: dict[str, int] = {}
    score_chunks, label_chunks, attr_chunks = [], [], []

    def keep(cells: list[str], width: int, plain: bool, add_ids) -> bool:
        score_text, label_text, attr_text = (cells[c::width] for c in (1, 2, 3))
        if not (
            _add_ints(label_text, labels, lambda label: label in (0, 1))
            and _add_ints(attr_text, attrs, lambda attr: attr >= 0)
        ):
            return False
        scores = _writer_floats(score_text) if plain else None
        if scores is None:
            try:
                scores = np.array(score_text, dtype=object).astype(np.float64)
            except ValueError:
                return False
        if not ((scores >= 0.0) & (scores <= 1.0)).all():  # NaN fails both
            return False
        add_ids()
        score_chunks.append(scores)
        label_chunks.append(_int_column(label_text, labels, np.int64))
        attr_chunks.append(_int_column(attr_text, attrs, np.intp))
        return True

    ids = _read_csv(
        path, _predictions_width, "duplicate id", keep, _check_predictions_row
    )
    records = sum(map(len, ids))
    attribute_set = _attribute_set(path, attrs, records, group_names)
    predictions = Predictions(
        IdColumn.from_chunks(ids),
        join_chunks(score_chunks, np.float64),
        join_chunks(label_chunks, np.int64),
        join_chunks(attr_chunks, np.intp),
    )
    return predictions, attribute_set


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
