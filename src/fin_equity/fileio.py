"""File formats: canonical JSON and the CSV layouts.

Checkpoints and CSVs must round-trip doubles exactly, so floats in those
formats are written in scientific notation with 17 significant digits
(%.16e), which is always enough to reproduce the same double on parse.
The canonical JSON writer also fixes key order (insertion order) so that
save -> load -> save is byte-identical.

The CSV readers stream a file once, in chunks of about CHUNK_CELLS cells,
and check and convert each chunk column by column, in record order. Within
a chunk the checks run in the order a row loop meets them within a row,
each over the rows before the earliest failure so far; one set of the ids
seen so far spans the chunks. So every error is the one a row-by-row reader
of the whole file raises, with the same line and text: the earliest record
wins, and within a record the earlier check. After a failing chunk the file
is still tokenized to its end (or to a row of the wrong width), so a decode
error or an oversized field anywhere in that range still wins. The int
columns are built only once the group ids have been range-checked, and at
most one chunk's cells are alive at a time.
"""

from __future__ import annotations

import csv
import json
import math
from itertools import chain, islice
from typing import Sequence

import numpy as np

from .core import AttributeSet, Dataset, Predictions, require_valid
from .errors import ValidationError
from .metrics import MetricReport, PredictionHistogram

FLOAT_FMT = ".16e"  # 17 significant digits
CHUNK_CELLS = 1 << 16  # CSV cells tokenized and checked at a time


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


def write_canonical_json(obj, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(dumps_canonical(obj))
        f.write("\n")


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


def _csv_writer(f, ids: Sequence[str]):
    """A csv writer with "\\n" line ends.

    Minimal quoting quotes only the line terminator's characters, so an id
    holding a lone "\\r" would be written bare and end its record when read
    back; a file with such an id quotes every field.
    """
    quote_all = any("\r" in sid for sid in ids)
    quoting = csv.QUOTE_ALL if quote_all else csv.QUOTE_MINIMAL
    return csv.writer(f, lineterminator="\n", quoting=quoting)


def write_dataset_csv(dataset: Dataset, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        w = _csv_writer(f, dataset.ids)
        w.writerow(["id", "attr", "label"] + [f"f{i}" for i in range(dataset.d)])
        for sid, attr, label, feats in zip(
            dataset.ids, dataset.attrs.tolist(), dataset.labels.tolist(), dataset.x
        ):
            w.writerow([sid, attr, label] + [format_float(v) for v in feats])


class _FirstError:
    """The earliest failing row of a chunk found so far, and its message.

    Each check looks only at the chunk's rows before that failure (see the
    module docstring). Messages name a row by its record number, the header
    being line 1 and blank rows counted.
    """

    def __init__(self, rows: int, line: int, blanks: list[int]):
        self.limit = rows  # rows [0, limit) are still checked
        self.line = line  # record number of row 0, were no record blank
        self.blanks = blanks  # record numbers of the blank rows among them
        self.message: str | None = None

    def fail(self, i: int, message: str) -> None:
        line = self.line + i
        for blank in self.blanks:
            if blank > line:
                break
            line += 1
        self.limit = i
        self.message = f"line {line}: {message}"

    def raise_first(self) -> None:
        if self.message is not None:
            raise ValidationError(self.message)

    def first_of(self, texts: list[str], bad: set[str]) -> int | None:
        """The first row still checked whose text is in bad."""
        if bad:
            for i, text in enumerate(texts[: self.limit]):
                if text in bad:
                    return i
        return None

    def duplicates(
        self, ids: list[str], seen: set[str], earlier: list[list[str]], what: str
    ) -> None:
        """Fail at the first row still checked whose id an earlier row has.

        seen holds the ids of the earlier chunks, whose id lists are
        earlier, and gains the chunk's ids.
        """
        size = len(seen)
        seen.update(ids)
        if len(seen) - size == len(ids):
            return
        seen = set(chain.from_iterable(earlier))
        for i, sid in enumerate(ids[: self.limit]):
            if sid in seen:
                self.fail(i, f"{what} {sid!r}")
                return
            seen.add(sid)

    def ints(self, texts: list[str], values: dict[str, int], what: str) -> None:
        """Add int() of each new distinct text of the rows still checked to
        values, which holds those of the earlier chunks."""
        bad = set()
        for text in set(texts[: self.limit]).difference(values):
            try:
                values[text] = int(text)
            except ValueError:
                bad.add(text)
        i = self.first_of(texts, bad)
        if i is not None:
            self.fail(i, f"{what} {texts[i]!r} is not an integer")

    def refuse(
        self, texts: list[str], values: dict[str, int], refused, message
    ) -> None:
        """Fail at the first row still checked whose value is refused."""
        i = self.first_of(texts, {t for t, v in values.items() if refused(v)})
        if i is not None:
            self.fail(i, message(i, values[texts[i]]))

    def mask(self, bad: np.ndarray, message) -> None:
        """Fail at the first row still checked where bad is true."""
        hits = np.flatnonzero(bad[: self.limit])
        if hits.size:
            self.fail(int(hits[0]), message(int(hits[0])))

    def floats(self, cells: np.ndarray, message) -> np.ndarray:
        """float() of each cell of an (n, k) object array, in the rows still
        checked. A refused cell fails its row; the leftmost one is named."""
        cells = cells[: self.limit]
        try:
            return cells.astype(np.float64)
        except ValueError:
            pass
        first, error = len(cells), None
        for column in cells.T:
            try:
                column[:first].astype(np.float64)
                continue
            except ValueError:
                pass
            for i, text in enumerate(column[:first]):
                try:
                    float(text)
                except ValueError as exc:
                    first, error = i, exc
                    break
        self.fail(first, message(first, error))
        return cells[:first].astype(np.float64)


def _read_chunks(path: str, header_width):
    """Stream a CSV once, yielding its data rows a chunk at a time.

    header_width checks the header row and returns the width of a data row.
    Each chunk is (cells, width, first): the flat cells of the rows among
    the next CHUNK_CELLS / width records, and an error tracker over them.
    Blank rows are skipped; reading stops at the first row of another width,
    which becomes the first error of the last chunk. Once the caller's checks
    have failed a chunk, the rest of the file up to that row is still
    tokenized, so that a decode error or an oversized field anywhere in it
    wins; then the chunk's error is raised.
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
                    first = _FirstError(len(cells) // width, line, blanks)
                    if wrong is not None:
                        first.fail(first.limit, f"expected {width} fields, got {wrong}")
                    yield cells, width, first
                    line += len(cells) // width + len(blanks)
                    cells, blanks = [], []
                    if first.message is not None:
                        if wrong is None:
                            for row in reader:
                                if row and len(row) != width:
                                    break
                                line += 1
                        first.raise_first()
                if end:
                    return
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path!r} is not valid UTF-8 ({exc.reason})") from exc
    except csv.Error as exc:
        line += len(cells) // width + len(blanks)  # the record being read
        raise ValidationError(f"{path!r} line {line}: {exc}") from exc


def _attribute_set(
    path: str, attrs: dict[str, int], records: int, group_names: Sequence[str] | None
) -> AttributeSet:
    """The given group names, or group0..k defaults for the largest id k.

    Refuses a file with no data rows, and given names too few for the ids.
    Without names, k must be below the record count: a file cannot show more
    groups than it has records, and a stray large id would otherwise make
    about k empty default groups.
    """
    if not attrs:
        raise ValidationError(f"{path!r} has a header but no data rows")
    max_attr = max(attrs.values())
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


def _int_column(
    chunks: list[list[str]], values: dict[str, int], n: int, dtype
) -> np.ndarray:
    """The value of each text of the chunks, in order, as an n-long array."""
    return np.fromiter(map(values.__getitem__, chain.from_iterable(chunks)), dtype, n)


def _negative(attr: int) -> bool:
    return attr < 0


def _not_binary(label: int) -> bool:
    return label not in (0, 1)


def _dataset_width(header: list[str]) -> int:
    if len(header) < 4 or header[:3] != ["id", "attr", "label"]:
        raise ValidationError(
            f"line 1: header must start with id,attr,label,f0..., got {header[:4]}"
        )
    d = len(header) - 3
    if header[3:] != [f"f{i}" for i in range(d)]:
        raise ValidationError(f"line 1: feature columns must be f0..f{d-1}")
    return d + 3


def read_dataset_csv(path: str, group_names: Sequence[str] | None = None) -> Dataset:
    """Load and validate a dataset CSV.

    Group names default to group0..k where k is the largest attribute id
    seen, which must then be below the record count; pass group_names (e.g.
    from a sidecar file) to override. Sample ids must be unique; violations
    name the offending line.
    """
    seen: set[str] = set()
    attrs: dict[str, int] = {}
    labels: dict[str, int] = {}
    id_chunks, attr_chunks, label_chunks, x_chunks = [], [], [], []
    for cells, width, first in _read_chunks(path, _dataset_width):
        ids, attr_text, label_text = (cells[c::width] for c in range(3))
        first.duplicates(ids, seen, id_chunks, "duplicate sample id")
        first.ints(attr_text, attrs, "attr")
        first.refuse(
            attr_text, attrs, _negative, lambda i, v: f"attr must be >= 0, got {v}"
        )
        first.ints(label_text, labels, "label")
        first.refuse(
            label_text,
            labels,
            _not_binary,
            lambda i, v: f"label must be 0 or 1, got {v}",
        )
        table = np.array(cells, dtype=object).reshape(-1, width)
        x = first.floats(table[:, 3:], lambda i, exc: f"bad feature value ({exc})")
        first.mask(~np.isfinite(x).all(axis=1), lambda i: "non-finite feature value")
        id_chunks.append(ids)
        attr_chunks.append(attr_text)
        label_chunks.append(label_text)
        x_chunks.append(x)
        del cells, table  # free the chunk's cells before the next is read
    del seen  # free the duplicate-id set before the columns are built
    attribute_set = _attribute_set(path, attrs, sum(map(len, id_chunks)), group_names)
    x = np.concatenate(x_chunks)
    del x_chunks
    dataset = Dataset(
        attribute_set,
        x,
        _int_column(label_chunks, labels, len(x), np.int64),
        _int_column(attr_chunks, attrs, len(x), np.intp),
        tuple(chain.from_iterable(id_chunks)),
    )
    require_valid(dataset, what=path)
    return dataset


# ---------------------------------------------------------------------------
# prediction CSV: header  id,score,label,attr


def write_predictions_csv(predictions: Predictions, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        w = _csv_writer(f, predictions.ids)
        w.writerow(["id", "score", "label", "attr"])
        w.writerows(
            zip(
                predictions.ids,
                map(format_float, predictions.scores.tolist()),
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


def read_predictions_csv(
    path: str, group_names: Sequence[str] | None = None
) -> tuple[Predictions, AttributeSet]:
    seen: set[str] = set()
    labels: dict[str, int] = {}
    attrs: dict[str, int] = {}
    id_chunks, score_chunks, label_chunks, attr_chunks = [], [], [], []
    for cells, _, first in _read_chunks(path, _predictions_width):
        ids, score_text, label_text, attr_text = (cells[c::4] for c in range(4))
        first.duplicates(ids, seen, id_chunks, "duplicate id")
        scores = first.floats(
            np.array(score_text, dtype=object)[:, None],
            lambda i, exc: f"score {score_text[i]!r} is not a number",
        )[:, 0]
        first.ints(label_text, labels, "label")
        first.ints(attr_text, attrs, "attr")
        first.refuse(
            attr_text, attrs, _negative, lambda i, v: f"attr must be >= 0, got {v}"
        )
        first.mask(
            ~((scores >= 0.0) & (scores <= 1.0)),  # NaN fails both
            lambda i: f"record {ids[i]!r}: score must lie in [0, 1], "
            f"got {float(scores[i])!r}",
        )
        first.refuse(
            label_text,
            labels,
            _not_binary,
            lambda i, v: f"record {ids[i]!r}: label must be 0 or 1, got {v!r}",
        )
        id_chunks.append(ids)
        score_chunks.append(scores)
        label_chunks.append(label_text)
        attr_chunks.append(attr_text)
        del cells, score_text  # free the chunk's cells before the next is read
    del seen  # free the duplicate-id set before the columns are built
    attribute_set = _attribute_set(path, attrs, sum(map(len, id_chunks)), group_names)
    scores = np.concatenate(score_chunks)
    predictions = Predictions(
        tuple(chain.from_iterable(id_chunks)),
        scores,
        _int_column(label_chunks, labels, len(scores), np.int64),
        _int_column(attr_chunks, attrs, len(scores), np.intp),
    )
    return predictions, attribute_set


# ---------------------------------------------------------------------------
# histogram CSV: header  bin_lo,bin_hi,tp,fp,tn,fn


def write_histogram_csv(hist: PredictionHistogram, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["bin_lo", "bin_hi", "tp", "fp", "tn", "fn"])
        for i in range(hist.bins):
            w.writerow(
                [
                    repr(float(hist.edges[i])),
                    repr(float(hist.edges[i + 1])),
                    int(hist.counts["tp"][i]),
                    int(hist.counts["fp"][i]),
                    int(hist.counts["tn"][i]),
                    int(hist.counts["fn"][i]),
                ]
            )


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
