"""Fairness-aware metric engine for scored binary predictions.

All metrics live in fractional units (0.5 means 50%, never the number 50).
The equity-scaled family deflates an overall metric by the total absolute
discrepancy between per-group values and the overall value:

    delta = sum_A |overall - group_A|
    es    = overall / (1 + delta)

so es == overall exactly when every group matches the overall value, and
es < overall otherwise. Undefined metrics (single-class AUC, empty groups,
rate gaps with fewer than two eligible groups) are flagged, never imputed.

An audit counts its records once, into a (group, label, decision) table
(group_counts). Accuracy, the demographic-parity gap and the
equalized-odds gap are ratios of those exact integer counts; only AUC
reads each group's scores. Every AUC, auc()'s and each group's in
full_report, comes from one helper (_rank_sums): a sort of one uint64 key
per record, its score's bits above its label, gives each positive's
midrank as an exact integer, so a group's AUC has the same bits whether
it is computed alone or with the others. The records are split into
groups by one stable radix argsort, not a scan per group. A histogram bin
is floor(score * bins), corrected once against each edge of its bin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .core import AttributeSet, Predictions
from .errors import UndefinedMetricError, ValidationError


def decide(scores, threshold: float = 0.5) -> np.ndarray:
    """Binarize scores: decision 1 iff score >= threshold.

    The boundary is inclusive, so threshold 0.0 selects everything.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if not np.isfinite(threshold) or not 0.0 <= threshold <= 1.0:
        raise ValidationError(f"threshold must lie in [0, 1], got {threshold!r}")
    if scores.size and (
        not np.all(np.isfinite(scores)) or scores.min() < 0.0 or scores.max() > 1.0
    ):
        raise ValidationError("scores must lie in [0, 1]")
    return (scores >= threshold).astype(np.int64)


def _check_paired(a, b, name_a: str, name_b: str) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape or a.ndim != 1:
        raise ValidationError(
            f"{name_a} and {name_b} must be 1-D with equal length, "
            f"got {a.shape} vs {b.shape}"
        )
    return a, b


def accuracy(decisions, labels) -> float:
    """Fraction of decisions equal to labels."""
    decisions, labels = _check_paired(decisions, labels, "decisions", "labels")
    if decisions.size == 0:
        raise UndefinedMetricError("accuracy undefined on empty input")
    return float(np.mean(decisions == labels))


def _rank_sums(scores: np.ndarray, pos: np.ndarray, attrs=None, group_count: int = 1):
    """For each group, the sum over its positives of below + upto: its
    scores < v and <= v, v being the positive's score. That is twice the
    positives' 1-based midranks less one each, an exact integer. With
    attrs None all records are one group.

    A record's key is its score's float64 bits moved up one, its label in
    bit 0. The move drops the sign bit, so -0.0 keys as 0.0 and a negative
    score as its magnitude; keys of scores >= 0 sort like (score, label).
    The records are split once, by a stable argsort of their part: the
    group, and the sign when a score is negative, in the smallest unsigned
    dtype, so a radix sort. Each part's keys are sorted in place
    (_sorted_rank_sum); a negative part is sorted on |score|, so its places
    run backwards and are mirrored.
    """
    negative = bool(scores.size) and scores.min() < 0.0
    part = None if attrs is None else attrs.astype(np.min_scalar_type(2 * group_count))
    if negative:  # a group's negative scores come first; -0.0 is not one
        upper = scores >= 0.0
        part = upper.view(np.uint8) if part is None else 2 * part + upper
    if part is None:
        keys = scores.view(np.uint64) << 1
        keys |= pos
        sizes = [keys.size]
    else:
        order = np.argsort(part, kind="stable")
        keys = scores[order].view(np.uint64)
        keys <<= 1
        keys |= pos[order]
        del order
        sizes = np.bincount(part, minlength=group_count * (1 + negative)).tolist()
    sums, start = [], 0
    for size in sizes:
        sums.append(_sorted_rank_sum(keys[start : start + size]))
        start += size
    if not negative:
        return [total for total, _ in sums]
    # a part of m negative scores puts real place m - 1 - j at its sorted
    # place j, and its group's other scores are at places m + j
    return [
        2 * m * (low + high) + above - below
        for (below, low), (above, high), m in zip(sums[::2], sums[1::2], sizes[::2])
    ]


def _sorted_rank_sum(keys: np.ndarray) -> tuple[int, int]:
    """Sort one part's keys in place, then shift their labels out:
    (the sum over its positives of below + upto, within the part; its
    positives).

    A positive alone at sorted place i adds i + (i + 1). A run of equal
    scores over places [a, b) holds its z negatives, then its h positives
    at places b - h .. b - 1; each of those adds a + b, in all h * z less
    than 2i + 1 summed over their places. Only the tied runs are found
    and summed (np.add.reduceat), so no array per run is as long as the
    part.
    """
    keys.sort()
    labels = keys.astype(np.uint8)  # the low byte
    labels &= 1
    places = np.flatnonzero(labels)
    total = 2 * int(places.sum()) + places.size
    keys >>= 1  # the scores' bits alone, so ties compare with no temporary
    tied = np.zeros(keys.size + 1, bool)  # tied[i]: places i - 1 and i tie
    np.equal(keys[1:], keys[:-1], out=tied[1:-1])
    edges = np.flatnonzero(tied[1:] != tied[:-1])  # each run's a, then b - 1
    if edges.size:
        edges[1::2] += 1
        lengths = edges[1::2] - edges[::2]
        cut = edges[:-1] if edges[-1] == keys.size else edges  # reduceat's last runs on
        h = np.add.reduceat(labels, cut, dtype=np.int64)[::2]
        total -= int(np.dot(h, lengths - h))
    return total, places.size


def _auc(rank_sum: int, n_pos: int, n_neg: int) -> float:
    """AUC from a group's _rank_sums entry and its class counts."""
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError(
            f"auc undefined: needs both classes, got {n_pos} positive / {n_neg} negative"
        )
    return (0.5 * float(rank_sum + n_pos) - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def auc(scores, labels) -> float:
    """Area under the ROC curve via the rank statistic.

    Equals the probability that a uniformly drawn positive outscores a
    uniformly drawn negative, ties counted 1/2. Midranks make the rank form
    identical to counting all positive/negative pairs: both reduce to
    (wins + ties/2) / (P * N) with the same floating-point value, because
    rank sums are exact sums of half-integers (Hanley & McNeil 1982). Scores
    may be any finite reals, since only their order counts (a discriminant
    need not be a probability), and labels must be 0 or 1.
    """
    scores, labels = _check_paired(scores, labels, "scores", "labels")
    scores = scores.astype(np.float64, copy=False)
    if scores.size and not np.isfinite([scores.min(), scores.max()]).all():
        raise ValidationError("scores must be finite")  # min and max carry a NaN
    pos = labels == 1
    n_pos = int(np.count_nonzero(pos))
    n_neg = int(np.count_nonzero(labels == 0))
    if n_pos + n_neg != labels.size:
        raise ValidationError("labels must be 0 or 1")
    (rank_sum,) = _rank_sums(scores, pos)
    return _auc(rank_sum, n_pos, n_neg)


def group_counts(decisions, labels, attrs, group_count: int) -> np.ndarray:
    """Confusion counts per group: an int64 (group_count, 2, 2) table.

    counts[g, y, d] is the number of records of group g with label y and
    decision d, all from one bincount over the key 4 * g + 2 * y + d.
    Decisions and labels must be 0 or 1, and group ids integers in
    [0, group_count).
    """
    decisions, labels = _check_paired(decisions, labels, "decisions", "labels")
    labels, attrs = _check_paired(labels, attrs, "labels", "group ids")
    try:
        key = np.ravel_multi_index((attrs, labels, decisions), (group_count, 2, 2))
    except (TypeError, ValueError) as exc:
        raise ValidationError(
            f"group counts need integer group ids in [0, {group_count}) and "
            "0/1 labels and decisions"
        ) from exc
    return np.bincount(key, minlength=4 * group_count).reshape(group_count, 2, 2)


def _rates(hits: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """hits / sizes over the groups with a nonzero size."""
    some = sizes > 0
    return hits[some] / sizes[some]


def dpd(counts) -> float:
    """Demographic parity difference: max - min per-group selection rate.

    counts is a group_counts table. Empty groups are skipped; fewer than
    two nonempty groups leaves the gap undefined.
    """
    selected = counts[:, :, 1].sum(axis=1)
    rates = _rates(selected, counts.sum(axis=(1, 2)))
    if rates.size < 2:
        raise UndefinedMetricError(
            f"dpd undefined: needs >= 2 nonempty groups, got {rates.size}"
        )
    return float(rates.max() - rates.min())


def deodds(counts) -> float:
    """Equalized-odds difference: the larger of the TPR gap and FPR gap.

    counts is a group_counts table. A group enters the TPR gap only if it
    has a positive label, the FPR gap only if it has a negative one. A gap
    needs two eligible groups; if both gaps are short of that, the metric
    is undefined.
    """
    tprs = _rates(counts[:, 1, 1], counts[:, 1].sum(axis=1))
    fprs = _rates(counts[:, 0, 1], counts[:, 0].sum(axis=1))
    gaps = [float(r.max() - r.min()) for r in (tprs, fprs) if r.size >= 2]
    if not gaps:
        raise UndefinedMetricError(
            "deodds undefined: fewer than 2 groups have positives and fewer "
            "than 2 have negatives"
        )
    return max(gaps)


def _check_fraction(value: float, what: str) -> float:
    value = float(value)
    if not np.isfinite(value) or not 0.0 <= value <= 1.0:
        raise ValidationError(
            f"{what} must be a fraction in [0, 1], got {value!r} "
            "(percentages are not accepted)"
        )
    return value


def discrepancy(overall: float, group_values: Mapping[int, float]) -> float:
    """Total absolute deviation of per-group values from the overall value.

    delta = sum_A |overall - group_values[A]|, in fractional units, summed
    over the groups present in the map.
    """
    overall = _check_fraction(overall, "overall value")
    if not group_values:
        raise UndefinedMetricError("discrepancy undefined for an empty group map")
    total = 0.0
    for g, v in sorted(group_values.items()):
        total += abs(overall - _check_fraction(v, f"group {g} value"))
    return total


def equity_scaled(overall: float, delta: float) -> float:
    """Deflate an overall metric by its group discrepancy: overall / (1 + delta)."""
    overall = _check_fraction(overall, "overall value")
    delta = float(delta)
    if not np.isfinite(delta) or delta < 0.0:
        raise ValidationError(f"delta must be >= 0, got {delta!r}")
    return overall / (1.0 + delta)


def es_over_groups(
    overall: float | None, group_values: Mapping[int, float | None]
) -> tuple[float | None, float | None]:
    """(delta, es) over the groups that have a value; (None, None) when
    overall is None or no group has one."""
    values = {g: v for g, v in group_values.items() if v is not None}
    if overall is None or not values:
        return None, None
    delta = discrepancy(overall, values)
    return delta, equity_scaled(overall, delta)


@dataclass(frozen=True)
class MetricReport:
    """Everything the auditor produces for one prediction set.

    Metric values are fractions; a None value means the metric was
    undefined for that slot, with a human-readable note in `undefined`.
    The invariant equity_scaled[m] == overall[m] / (1 + delta[m]) holds for
    every metric m with a defined value.
    """

    threshold: float
    overall: dict[str, float | None]
    per_group: dict[int, dict[str, float | None]]
    delta: dict[str, float | None]
    equity_scaled: dict[str, float | None]
    dpd: float | None
    deodds: float | None
    group_sizes: dict[int, int]
    undefined: tuple[str, ...]


_REPORT_METRICS = ("accuracy", "auc")


def full_report(
    predictions: Predictions,
    attribute_set: AttributeSet,
    threshold: float = 0.5,
) -> MetricReport:
    """Compute overall, per-group, discrepancy, and equity-scaled metrics.

    Group sizes, accuracies and both rate gaps come from one group_counts
    table, which also gives each AUC its class counts. The overall AUC
    sorts all records' keys once; the groups' split the records once by
    group and sort each group's keys (_rank_sums). Partial failures (a
    single-class group, a degenerate gap) are recorded as flags and None
    values; they never abort the rest of the report. A group id outside
    the attribute set is an error naming its record.
    """
    return _audit(predictions, attribute_set, threshold, None)[0]


def _audit(
    predictions: Predictions,
    attribute_set: AttributeSet,
    threshold: float,
    bins: int | None,
) -> tuple[MetricReport, PredictionHistogram | None]:
    """full_report, and prediction_histogram of bins bins unless bins is
    None, from one decide(scores); the decisions are freed before the AUCs'
    sorts, as full_report alone frees them."""
    if not len(predictions):
        raise UndefinedMetricError("cannot build a report from zero records")
    scores, labels, attrs = predictions.scores, predictions.labels, predictions.attrs
    decisions = decide(scores, threshold)
    group_count = attribute_set.group_count
    if attrs.max() >= group_count:
        pos = int(np.argmax(attrs >= group_count))
        raise ValidationError(
            f"record {pos} (id={predictions.ids[pos]!r}): attribute id "
            f"{int(attrs[pos])} out of range for {group_count} groups"
        )
    counts = group_counts(decisions, labels, attrs, group_count)
    hist = None if bins is None else _histogram(scores, labels, decisions, bins)
    del decisions
    sizes = counts.sum(axis=(1, 2)).tolist()
    correct = (counts[:, 0, 0] + counts[:, 1, 1]).tolist()
    negatives, positives = counts.sum(axis=2).T.tolist()
    positive = labels == 1
    (rank_sum,) = _rank_sums(scores, positive)
    rank_sums = _rank_sums(scores, positive, attrs, group_count)

    flags: list[str] = []

    def defined(note: str, metric, *args) -> float | None:
        """metric(*args), or None with the note in flags if it is undefined."""
        try:
            return metric(*args)
        except UndefinedMetricError as exc:
            flags.append(f"{note}: {exc}")
            return None

    overall: dict[str, float | None] = {
        "accuracy": sum(correct) / len(predictions),
        "auc": defined(
            "overall auc undefined", _auc, rank_sum, sum(positives), sum(negatives)
        ),
    }
    per_group: dict[int, dict[str, float | None]] = {}
    for gid in range(group_count):
        if not sizes[gid]:
            per_group[gid] = {"accuracy": None, "auc": None}
            flags.append(f"group {gid} empty: accuracy and auc undefined")
            continue
        note = f"auc undefined for group {gid}"
        per_group[gid] = {
            "accuracy": correct[gid] / sizes[gid],
            "auc": defined(note, _auc, rank_sums[gid], positives[gid], negatives[gid]),
        }

    delta: dict[str, float | None] = {}
    es: dict[str, float | None] = {}
    for name in _REPORT_METRICS:
        group_values = {g: row[name] for g, row in per_group.items()}
        delta[name], es[name] = es_over_groups(overall[name], group_values)
        if delta[name] is None and overall[name] is not None:
            flags.append(f"delta undefined for {name}: no group has a value")
    dpd_value = defined("dpd undefined", dpd, counts)
    deodds_value = defined("deodds undefined", deodds, counts)

    report = MetricReport(
        threshold=float(threshold),
        overall=overall,
        per_group=per_group,
        delta=delta,
        equity_scaled=es,
        dpd=dpd_value,
        deodds=deodds_value,
        group_sizes=dict(enumerate(sizes)),
        undefined=tuple(flags),
    )
    return report, hist


@dataclass(frozen=True, eq=False)
class PredictionHistogram:
    """Confusion counts per uniform score bin on [0, 1].

    counts is a group_counts table over the bins, indexed [bin, label,
    decision]. Bins are right-open except the last, which includes 1.0.
    """

    bins: int
    edges: np.ndarray  # length bins + 1
    counts: np.ndarray  # int64 (bins, 2, 2)


MAX_BINS = 100_000  # far beyond any useful histogram; bounds its arrays


def check_bins(bins: int) -> None:
    """Refuse a histogram bin count outside [1, MAX_BINS]."""
    if bins < 1:
        raise ValidationError(f"bins must be >= 1, got {bins}")
    if bins > MAX_BINS:
        raise ValidationError(f"bins must be <= {MAX_BINS}, got {bins}")


def prediction_histogram(
    predictions: Predictions, threshold: float = 0.5, bins: int = 20
) -> PredictionHistogram:
    """Count each score bin's records by label and decision (group_counts).

    A score's bin is the last whose lower edge it reaches, as a binary
    search of the edges gives it. floor(score * bins) is at most one bin
    off that, for the product and each edge k / bins are within an ulp of
    their exact values, far less than a bin; so one check against each of
    its bin's edges corrects it. With bins = 1 its one row holds the
    counts of the whole set.
    """
    check_bins(bins)
    decisions = decide(predictions.scores, threshold)
    return _histogram(predictions.scores, predictions.labels, decisions, bins)


def _histogram(scores, labels, decisions, bins: int) -> PredictionHistogram:
    """prediction_histogram of scores already decided."""
    edges = np.arange(bins + 1) / bins
    bin_ids = (scores * bins).astype(np.int32)  # truncation floors a score >= 0
    np.minimum(bin_ids, bins - 1, out=bin_ids)
    bin_ids -= edges[bin_ids] > scores
    bin_ids += edges[1:][bin_ids] <= scores
    np.minimum(bin_ids, bins - 1, out=bin_ids)  # a score of 1.0 stays in the last bin
    counts = group_counts(decisions, labels, bin_ids, bins)
    return PredictionHistogram(bins=bins, edges=edges, counts=counts)
