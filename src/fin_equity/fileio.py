"""File formats: canonical JSON and the CSV layouts.

Checkpoints and CSVs must round-trip doubles exactly, so floats in those
formats are written in scientific notation with 17 significant digits
(%.16e), which is always enough to reproduce the same double on parse.
The canonical JSON writer also fixes key order (insertion order) so that
save -> load -> save is byte-identical.

The CSV readers parse row by row, so every error names its line, and
append straight into the columns of a Dataset or Predictions (dataset
features into one preallocated float64 matrix).
"""

from __future__ import annotations

import csv
import io
import json
import math
from typing import Sequence

import numpy as np

from .core import AttributeSet, Dataset, Predictions, require_valid
from .errors import ValidationError
from .metrics import MetricReport, PredictionHistogram

FLOAT_FMT = ".16e"  # 17 significant digits


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


# ---------------------------------------------------------------------------
# dataset CSV: header  id,attr,label,f0..f{d-1}


def write_dataset_csv(dataset: Dataset, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["id", "attr", "label"] + [f"f{i}" for i in range(dataset.d)])
        for sid, attr, label, feats in zip(
            dataset.ids, dataset.attrs.tolist(), dataset.labels.tolist(), dataset.x
        ):
            w.writerow([sid, attr, label] + [format_float(v) for v in feats])


def _parse_int(text: str, line: int, what: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise ValidationError(f"line {line}: {what} {text!r} is not an integer") from exc


def _read_rows(path: str) -> list[list[str]]:
    with open(path, "r", encoding="utf-8", newline="") as f:
        rows = list(csv.reader(f))
    if not rows:
        raise ValidationError(f"{path!r} is empty")
    return rows


def _attribute_set(
    path: str, attrs: list[int], group_names: Sequence[str] | None
) -> AttributeSet:
    """The given group names, or group0..k defaults for the largest id k.

    Refuses a file with no data rows, and given names too few for the ids.
    """
    if not attrs:
        raise ValidationError(f"{path!r} has a header but no data rows")
    max_attr = max(attrs)
    if group_names is None:
        return AttributeSet.default(max_attr + 1)
    attribute_set = AttributeSet(tuple(group_names))
    if max_attr >= attribute_set.group_count:
        raise ValidationError(
            f"attribute id {max_attr} out of range for the "
            f"{attribute_set.group_count} provided group names"
        )
    return attribute_set


def read_dataset_csv(path: str, group_names: Sequence[str] | None = None) -> Dataset:
    """Load and validate a dataset CSV.

    Group names default to group0..k where k is the largest attribute id
    seen; pass group_names (e.g. from a sidecar file) to override. Sample
    ids must be unique; violations name the offending line.
    """
    rows = _read_rows(path)
    header = rows[0]
    if len(header) < 4 or header[:3] != ["id", "attr", "label"]:
        raise ValidationError(
            f"line 1: header must start with id,attr,label,f0..., got {header[:4]}"
        )
    d = len(header) - 3
    if header[3:] != [f"f{i}" for i in range(d)]:
        raise ValidationError(f"line 1: feature columns must be f0..f{d-1}")
    x = np.empty((len(rows) - 1, d), dtype=np.float64)
    ids, labels, attrs = [], [], []
    seen: set[str] = set()
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != d + 3:
            raise ValidationError(
                f"line {lineno}: expected {d + 3} fields, got {len(row)}"
            )
        sid = row[0]
        if sid in seen:
            raise ValidationError(f"line {lineno}: duplicate sample id {sid!r}")
        seen.add(sid)
        attr = _parse_int(row[1], lineno, "attr")
        if attr < 0:
            raise ValidationError(f"line {lineno}: attr must be >= 0, got {attr}")
        label = _parse_int(row[2], lineno, "label")
        if label not in (0, 1):
            raise ValidationError(f"line {lineno}: label must be 0 or 1, got {label}")
        feats = x[len(ids)]
        try:
            feats[:] = row[3:]
        except ValueError as exc:
            raise ValidationError(f"line {lineno}: bad feature value ({exc})") from exc
        if not np.isfinite(feats).all():
            raise ValidationError(f"line {lineno}: non-finite feature value")
        ids.append(sid)
        labels.append(label)
        attrs.append(attr)
    attribute_set = _attribute_set(path, attrs, group_names)
    dataset = Dataset(attribute_set, x[: len(ids)], labels, attrs, ids)
    require_valid(dataset, what=path)
    return dataset


# ---------------------------------------------------------------------------
# prediction CSV: header  id,score,label,attr


def write_predictions_csv(predictions: Predictions, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["id", "score", "label", "attr"])
        w.writerows(
            zip(
                predictions.ids,
                map(format_float, predictions.scores.tolist()),
                predictions.labels.tolist(),
                predictions.attrs.tolist(),
            )
        )


def read_predictions_csv(
    path: str, group_names: Sequence[str] | None = None
) -> tuple[Predictions, AttributeSet]:
    rows = _read_rows(path)
    if rows[0] != ["id", "score", "label", "attr"]:
        raise ValidationError(
            f"line 1: header must be id,score,label,attr, got {rows[0]}"
        )
    ids, scores, labels, attrs = [], [], [], []
    seen: set[str] = set()
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != 4:
            raise ValidationError(f"line {lineno}: expected 4 fields, got {len(row)}")
        sid = row[0]
        if sid in seen:
            raise ValidationError(f"line {lineno}: duplicate id {sid!r}")
        seen.add(sid)
        try:
            score = float(row[1])
        except ValueError as exc:
            raise ValidationError(
                f"line {lineno}: score {row[1]!r} is not a number"
            ) from exc
        label = _parse_int(row[2], lineno, "label")
        attr = _parse_int(row[3], lineno, "attr")
        if attr < 0:
            raise ValidationError(f"line {lineno}: attr must be >= 0, got {attr}")
        if not 0.0 <= score <= 1.0:
            raise ValidationError(
                f"line {lineno}: record {sid!r}: score must lie in [0, 1], got {score!r}"
            )
        if label not in (0, 1):
            raise ValidationError(
                f"line {lineno}: record {sid!r}: label must be 0 or 1, got {label!r}"
            )
        ids.append(sid)
        scores.append(score)
        labels.append(label)
        attrs.append(attr)
    attribute_set = _attribute_set(path, attrs, group_names)
    return Predictions(ids, scores, labels, attrs), attribute_set


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
