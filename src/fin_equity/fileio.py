"""File formats: canonical JSON and the CSV layouts.

Checkpoints and CSVs must round-trip doubles exactly, so floats in those
formats are written in scientific notation with 17 significant digits
(%.16e), which is always enough to reproduce the same double on parse.
The canonical JSON writer also fixes key order (insertion order) so that
save -> load -> save is byte-identical.

The CSV writers do not check finiteness again: a Dataset cannot hold a
non-finite feature, nor Predictions a score outside [0, 1]. Each float
costs one C-level %.16e conversion. The dataset writer formats a
row's d features with one % and appends them to csv.writer's own encoding
of the row's (id, attr, label), so csv.writer alone decides the quoting;
under QUOTE_ALL (see _csv_writer) the features are quoted too. It works in
blocks of WRITE_ROWS rows, whose strings stay small: at 20,000 x 20 rows
the write's tracemalloc peak is 0.5 MB in blocks of 128 rows and 8.1 MB in
blocks of 4096, and three score_eval set-ups with blocks of 4096 left a
peak RSS 11 MB higher.

The CSV readers stream a file once, in chunks of about CHUNK_CELLS cells.
First a chunk's columns decide: each is converted whole (ints once per
distinct text, floats by one object-to-float64 astype) and checked whole.
A chunk whose every row passes is kept as a StringDType id column and int
and float columns, so at most one chunk's cells are alive at a time; each
column is joined from its chunks once the file is read. A chunk that the
columns refuse, or that ends at a row of the wrong width, then goes to a
loop over its rows in the order of a row-by-row reader, which names the
first rule broken. So every error is the one such a reader of the whole
file raises, with the same line and text. The first failing chunk stops
the conversion, but the same chunk stream is still read to its end, so a
decode error or an oversized field anywhere after it still wins.

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
from itertools import accumulate, islice
from typing import Sequence

import numpy as np
from numpy.dtypes import StringDType

from .core import AttributeSet, Dataset, IdColumn, Predictions, join_chunks
from .errors import ValidationError
from .metrics import MetricReport, PredictionHistogram

FLOAT_FMT = ".16e"  # 17 significant digits
FLOAT_CELL = "%" + FLOAT_FMT  # the same, as a %-format
CHUNK_CELLS = 1 << 15  # CSV cells tokenized and checked at a time
WRITE_ROWS = 128  # dataset CSV rows formatted and written at a time


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


# ---------------------------------------------------------------------------
# dataset CSV: header  id,attr,label,f0..f{d-1}


def _csv_writer(f, ids: IdColumn):
    """A csv writer with "\\n" line ends.

    Minimal quoting quotes only the line terminator's characters, so an id
    holding a lone "\\r" would be written bare and end its record when read
    back; a file with such an id quotes every field.
    """
    quote_all = bool((np.strings.find(ids, "\r") >= 0).any())
    quoting = csv.QUOTE_ALL if quote_all else csv.QUOTE_MINIMAL
    return csv.writer(f, lineterminator="\n", quoting=quoting)


def write_dataset_csv(dataset: Dataset, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        w = _csv_writer(f, dataset.ids)
        w.writerow(["id", "attr", "label"] + [f"f{i}" for i in range(dataset.d)])
        cell = f'"{FLOAT_CELL}"' if w.dialect.quoting == csv.QUOTE_ALL else FLOAT_CELL
        # one % per row over (head, *features): at d = 20 that tuple is past
        # CPython's free lists (tuples of up to 20 items), which kept the
        # last 2000 tuple(features) of the write alive and raised the peak
        # RSS of an evaluate after synth by 1.7 MB
        row_format = "%s" + ("," + cell) * dataset.d + "\n"
        heads = io.StringIO()
        head_writer = csv.writer(heads, w.dialect)
        for start in range(0, len(dataset), WRITE_ROWS):
            block = slice(start, start + WRITE_ROWS)
            heads.seek(0)
            heads.truncate()
            head_rows = zip(
                dataset.ids[block],
                dataset.attrs[block].tolist(),
                dataset.labels[block].tolist(),
            )
            # writerow returns the characters it wrote, the "\n" included
            ends = list(accumulate(map(head_writer.writerow, head_rows)))
            text = heads.getvalue()
            lines = [
                row_format % (text[begin : end - 1], *row)
                for begin, end, row in zip([0, *ends], ends, dataset.x[block].tolist())
            ]
            f.write("".join(lines))


def _hashes(ids: list[str]) -> np.ndarray:
    return np.fromiter(map(hash, ids), np.int64, len(ids))


class _Chunk:
    """Where a chunk's rows sit in the file, and a wrong-width row after them.

    Messages name a row by its record number, the header being line 1 and
    blank rows counted.
    """

    def __init__(self, width: int, line: int, blanks: list[int], wrong: int | None):
        self.width = width  # cells per row
        self.line = line  # record number of row 0, were no record blank
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
    Each chunk is (cells, chunk): the flat cells of the rows among the next
    CHUNK_CELLS / width records, and their _Chunk. Blank rows are skipped;
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
                    yield cells, _Chunk(width, line, blanks, wrong)
                    line += len(cells) // width + len(blanks)
                    cells, blanks = [], []
                if end:
                    return
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path!r} is not valid UTF-8 ({exc.reason})") from exc
    except csv.Error as exc:
        line += len(cells) // width + len(blanks)  # the record being read
        raise ValidationError(f"{path!r} line {line}: {exc}") from exc


def _read_csv(path: str, header_width, what: str, keep, check_row) -> list[np.ndarray]:
    """Read and check a CSV's rows; return its id column in chunks.

    keep(cells, width, add_ids) converts a chunk column by column. If every
    row is valid it calls add_ids, between its float and int columns, and
    keeps its columns; else it returns False. (That order is for heap layout
    alone: on a 2-vCPU host, score_eval's peak RSS read 82.3-82.4 MB with
    the ids added before keep, 80.5-81.5 MB after it, and 80.1-80.2 MB in
    this order, 5 runs each.) The first chunk it refuses, or that ends at a
    row of another width, goes to a loop over its rows: check_row raises the
    ValidationError of the first rule a row breaks, in a row-by-row reader's
    order. A duplicate id up to and including that row wins, as a row's id
    is checked first. No later chunk is converted, but the rest of the file
    is still read, so that a decode error or an oversized field in it wins;
    then the read's error is raised.
    """
    seen = _SeenIds(what)
    chunks = _read_chunks(path, header_width)
    for cells, chunk in chunks:
        width = chunk.width
        ids = cells[::width]
        if chunk.wrong is None and keep(cells, width, lambda: seen.add(ids, chunk)):
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

    def keep(cells: list[str], width: int, add_ids) -> bool:
        attr_text, label_text = cells[1::width], cells[2::width]
        if not (
            _add_ints(attr_text, attrs, lambda attr: attr >= 0)
            and _add_ints(label_text, labels, lambda label: label in (0, 1))
        ):
            return False
        table = np.array(cells, dtype=object).reshape(-1, width)
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
    with open(path, "w", encoding="utf-8", newline="") as f:
        w = _csv_writer(f, predictions.ids)
        w.writerow(["id", "score", "label", "attr"])
        w.writerows(
            zip(
                predictions.ids,
                map(FLOAT_CELL.__mod__, predictions.scores.tolist()),
                predictions.labels.tolist(),
                predictions.attrs.tolist(),
            )
        )


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

    def keep(cells: list[str], width: int, add_ids) -> bool:
        score_text, label_text, attr_text = (cells[c::width] for c in (1, 2, 3))
        if not (
            _add_ints(label_text, labels, lambda label: label in (0, 1))
            and _add_ints(attr_text, attrs, lambda attr: attr >= 0)
        ):
            return False
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
