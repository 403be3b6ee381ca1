"""full_report against the partition-based report it replaced.

reference_full_report is full_report as it was before the audit counted
(group, label, decision) cells in one table: it partitions the record
positions into one index array per group, then gathers each group's
decisions and labels for its accuracy, its selection rate and its TPR and
FPR, each a numpy mean over the gathered slice. The property below asserts
that both give equal reports, float for float and note for note, on small
random prediction sets with empty groups, single-class groups and tied
scores.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fin_equity import (
    AttributeSet,
    MetricReport,
    Predictions,
    UndefinedMetricError,
    ValidationError,
    accuracy,
    auc,
    decide,
    discrepancy,
    equity_scaled,
    full_report,
)


def _partition(predictions: Predictions, group_count: int) -> dict[int, np.ndarray]:
    attrs = predictions.attrs
    bad = np.flatnonzero(attrs >= group_count)
    if bad.size:
        pos = int(bad[0])
        raise ValidationError(
            f"record {pos} (id={predictions.ids[pos]!r}): attribute id "
            f"{int(attrs[pos])} out of range for {group_count} groups"
        )
    return {
        g: np.flatnonzero(attrs == g).astype(np.intp) for g in range(group_count)
    }


def _selection_rate(decisions) -> float:
    if decisions.size == 0:
        raise UndefinedMetricError("selection rate undefined on empty input")
    return float(np.mean(decisions != 0))


def _dpd(decisions, partition) -> float:
    rates = [
        _selection_rate(decisions[ix]) for _, ix in sorted(partition.items()) if ix.size
    ]
    if len(rates) < 2:
        raise UndefinedMetricError(
            f"dpd undefined: needs >= 2 nonempty groups, got {len(rates)}"
        )
    return float(max(rates) - min(rates))


def _deodds(decisions, labels, partition) -> float:
    tprs: list[float] = []
    fprs: list[float] = []
    for _, ix in sorted(partition.items()):
        if ix.size == 0:
            continue
        dec = decisions[ix]
        pos = labels[ix] == 1
        if pos.any():
            tprs.append(float(np.mean(dec[pos] != 0)))
        if (~pos).any():
            fprs.append(float(np.mean(dec[~pos] != 0)))
    gaps = []
    if len(tprs) >= 2:
        gaps.append(max(tprs) - min(tprs))
    if len(fprs) >= 2:
        gaps.append(max(fprs) - min(fprs))
    if not gaps:
        raise UndefinedMetricError(
            "deodds undefined: fewer than 2 groups have positives and fewer "
            "than 2 have negatives"
        )
    return float(max(gaps))


def reference_full_report(
    predictions: Predictions, attribute_set: AttributeSet, threshold: float = 0.5
) -> MetricReport:
    if not len(predictions):
        raise UndefinedMetricError("cannot build a report from zero records")
    scores, labels = predictions.scores, predictions.labels
    decisions = decide(scores, threshold)
    partition = _partition(predictions, attribute_set.group_count)

    flags: list[str] = []
    overall: dict = {"accuracy": accuracy(decisions, labels)}
    try:
        overall["auc"] = auc(scores, labels)
    except UndefinedMetricError as exc:
        overall["auc"] = None
        flags.append(f"overall auc undefined: {exc}")

    per_group: dict = {}
    for gid in range(attribute_set.group_count):
        ix = partition[gid]
        if ix.size == 0:
            per_group[gid] = {"accuracy": None, "auc": None}
            flags.append(f"group {gid} empty: accuracy and auc undefined")
            continue
        row = {"accuracy": accuracy(decisions[ix], labels[ix])}
        try:
            row["auc"] = auc(scores[ix], labels[ix])
        except UndefinedMetricError as exc:
            row["auc"] = None
            flags.append(f"auc undefined for group {gid}: {exc}")
        per_group[gid] = row

    delta: dict = {}
    es: dict = {}
    for name in ("accuracy", "auc"):
        group_vals = {
            g: row[name] for g, row in per_group.items() if row[name] is not None
        }
        if overall[name] is None or not group_vals:
            delta[name] = None
            es[name] = None
            if overall[name] is not None:
                flags.append(f"delta undefined for {name}: no group has a value")
            continue
        delta[name] = discrepancy(overall[name], group_vals)
        es[name] = equity_scaled(overall[name], delta[name])

    try:
        dpd_value = _dpd(decisions, partition)
    except UndefinedMetricError as exc:
        dpd_value = None
        flags.append(f"dpd undefined: {exc}")
    try:
        deodds_value = _deodds(decisions, labels, partition)
    except UndefinedMetricError as exc:
        deodds_value = None
        flags.append(f"deodds undefined: {exc}")

    return MetricReport(
        threshold=float(threshold),
        overall=overall,
        per_group=per_group,
        delta=delta,
        equity_scaled=es,
        dpd=dpd_value,
        deodds=deodds_value,
        group_sizes={g: int(ix.size) for g, ix in sorted(partition.items())},
        undefined=tuple(flags),
    )


# a few scores drawn again and again give tie runs, some at the thresholds
SCORE_POOL = (0.0, 1.0, 0.5, 0.3, 0.25, 0.7)


@st.composite
def audit_case(draw):
    group_count = draw(st.integers(1, 6))
    # a subset of the groups holds records; the rest stay empty
    used = draw(st.lists(st.integers(0, group_count - 1), min_size=1, unique=True))
    n = draw(st.integers(1, 60))
    attrs = draw(st.lists(st.sampled_from(used), min_size=n, max_size=n))
    score = st.one_of(st.sampled_from(SCORE_POOL), st.floats(0.0, 1.0))
    scores = draw(st.lists(score, min_size=n, max_size=n))
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    # some groups take a single class
    for g in draw(st.lists(st.sampled_from(used), unique=True)):
        label = draw(st.integers(0, 1))
        labels = [label if a == g else y for a, y in zip(attrs, labels)]
    threshold = draw(
        st.one_of(st.sampled_from((0.0, 0.3, 0.5, 1.0)), st.floats(0.0, 1.0))
    )
    predictions = Predictions(
        tuple(f"r{i}" for i in range(n)), np.array(scores), labels, attrs
    )
    return predictions, AttributeSet.default(group_count), threshold


@settings(max_examples=400, deadline=None)
@given(case=audit_case())
def test_full_report_equals_the_partition_reference(case):
    predictions, attribute_set, threshold = case
    report = full_report(predictions, attribute_set, threshold)
    expected = reference_full_report(predictions, attribute_set, threshold)
    assert report == expected
    assert list(report.group_sizes.items()) == list(expected.group_sizes.items())
    assert all(type(n) is int for n in report.group_sizes.values())


def test_out_of_range_and_empty_errors_match_the_reference():
    preds = Predictions(("ok", "oops", "also"), [0.5, 0.2, 0.9], [0, 1, 1], [0, 5, 7])
    for build in (full_report, reference_full_report):
        with pytest.raises(ValidationError) as info:
            build(preds, AttributeSet.default(2))
        assert str(info.value) == (
            "record 1 (id='oops'): attribute id 5 out of range for 2 groups"
        )
        with pytest.raises(UndefinedMetricError, match="zero records"):
            build(Predictions((), [], [], []), AttributeSet.default(1))
