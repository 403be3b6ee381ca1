import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fin_equity import (
    AttributeSet,
    Predictions,
    UndefinedMetricError,
    ValidationError,
    accuracy,
    auc,
    decide,
    deodds,
    discrepancy,
    dpd,
    equity_scaled,
    full_report,
    group_counts,
    metric_report_to_dict,
    prediction_histogram,
)
from fin_equity.metrics import MAX_BINS, _rank_sums
from reference_fixtures import (
    RECON_DEODDS,
    RECON_DPD,
    RECON_ES_AUC_4DP,
    RECON_GROUP_AUC,
    RECON_OVERALL_AUC,
    add_at_histogram,
    midranks_auc,
    pairs_auc,
    reconciliation_records,
)


def test_decide_threshold_is_inclusive():
    out = decide([0.2, 0.5, 0.8], 0.5)
    assert out.tolist() == [0, 1, 1]
    assert decide([0.0, 1.0], 0.0).tolist() == [1, 1]
    with pytest.raises(ValidationError):
        decide([0.5], 1.5)
    with pytest.raises(ValidationError):
        decide([1.2], 0.5)


def test_accuracy():
    assert accuracy([1, 0, 1, 1], [1, 0, 0, 1]) == 0.75
    with pytest.raises(UndefinedMetricError):
        accuracy([], [])
    with pytest.raises(ValidationError):
        accuracy([1, 0], [1])


def test_auc_textbook_case():
    assert auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == 0.75


def test_auc_tie_handling():
    # a tied positive/negative pair is worth exactly one half
    assert auc([0.5, 0.5], [0, 1]) == 0.5
    assert auc([0.3, 0.3, 0.3, 0.3], [0, 1, 0, 1]) == 0.5
    assert auc([0.1, 0.5, 0.5, 0.9], [0, 0, 1, 1]) == 0.875


def test_auc_perfect_and_inverted():
    assert auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0
    assert auc([0.9, 0.8, 0.2, 0.1], [0, 0, 1, 1]) == 0.0


def test_auc_needs_both_classes():
    with pytest.raises(UndefinedMetricError):
        auc([0.1, 0.9], [1, 1])
    with pytest.raises(UndefinedMetricError):
        auc([0.1, 0.9], [0, 0])


def test_auc_refuses_non_finite_scores_and_non_binary_labels():
    nan, inf = float("nan"), float("inf")
    for scores in ([nan, 0.5, nan, 0.2], [0.5, inf, 0.2, 0.1], [-inf, 0.5, 0.2, 0.1]):
        with pytest.raises(ValidationError, match="scores must be finite"):
            auc(scores, [1, 0, 0, 1])
    for labels in ([2, 0, 1], [1, 0, -1], [0.5, 0, 1]):
        with pytest.raises(ValidationError, match="labels must be 0 or 1"):
            auc([0.1, 0.5, 0.3], labels)
    # only the order counts: an unbounded discriminant has an AUC too
    assert auc([0.5, 1.7, -3.0], [1, 0, 1]) == 0.0
    assert auc([0.0, 1.0, -0.0], [0, 1, 1]) == 0.75


def test_auc_matches_pair_counting_oracle():
    rng = np.random.default_rng(11)
    for trial in range(200):
        n = int(rng.integers(2, 60))
        # coarse grid forces plenty of ties
        scores = rng.integers(0, 8, size=n) / 7.0
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        assert auc(scores, labels) == pairs_auc(scores, labels)


# a few values drawn again and again give long tie runs: -0.0 beside 0.0,
# runs of the smallest subnormals either side of them, so that ties meet
# at zero from both signs, and runs of large magnitudes of either sign
TIE_POOL = (
    0.0, -0.0, 1.0, 0.5, 0.25, 1 / 3, 0.7, 5e-324, np.nextafter(1.0, 0.0),
    -5e-324, -0.5, -1.0, 2.0, 1e300, -1e300,
)


@st.composite
def scored_labels(draw):
    n = draw(st.integers(2, 80))
    # any finite score: bounded so that pairs_auc's differences stay finite
    value = st.one_of(
        st.sampled_from(TIE_POOL), st.floats(0.0, 1.0), st.floats(-1e307, 1e307)
    )
    scores = draw(st.lists(value, min_size=n, max_size=n))
    if draw(st.booleans()):  # one class nearly absent
        base = draw(st.integers(0, 1))
        labels = [base] * n
        few = st.sets(st.integers(0, n - 1), min_size=1, max_size=min(3, n - 1))
        for i in draw(few):
            labels[i] = 1 - base
    else:
        labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        assume(0 < sum(labels) < n)
    return np.array(scores), np.array(labels)


@settings(max_examples=200, deadline=None)
@given(case=scored_labels())
def test_rank_auc_is_pair_counting_and_the_midrank_form_bit_for_bit(case):
    scores, labels = case
    value = auc(scores, labels)
    assert value == pairs_auc(scores, labels)
    assert value == midranks_auc(scores, labels)


@settings(max_examples=200, deadline=None)
@given(case=scored_labels(), data=st.data())
def test_rank_sums_of_groups_split_at_once_equal_each_group_alone(case, data):
    # the grouped split, with negative scores also split by sign, against
    # one call per group, which the test above holds to the oracles
    scores, labels = case
    group_count = data.draw(st.integers(1, 4))
    group = st.integers(0, group_count - 1)
    attrs = np.array(data.draw(st.lists(group, min_size=len(scores), max_size=len(scores))))
    pos = labels == 1
    alone = [_rank_sums(scores[attrs == g], pos[attrs == g])[0] for g in range(group_count)]
    assert _rank_sums(scores, pos, attrs, group_count) == alone


def test_confusion_counts():
    decisions, labels = np.array([1, 1, 0, 0, 1]), np.array([1, 0, 0, 1, 1])
    c = group_counts(decisions, labels, np.zeros(5, int), 1)
    (tn, fp), (fn, tp) = c[0].tolist()
    assert (tp, fp, tn, fn) == (2, 1, 1, 1)
    assert c.sum() == 5


def test_group_counts_table():
    decisions = np.array([1, 0, 1, 1, 0, 0])
    labels = np.array([1, 1, 0, 1, 0, 1])
    counts = group_counts(decisions, labels, np.array([0, 0, 0, 2, 2, 2]), 3)
    assert counts.shape == (3, 2, 2) and counts.dtype == np.int64
    # [group, label, decision]
    assert counts[0].tolist() == [[0, 1], [1, 1]]
    assert counts[1].tolist() == [[0, 0], [0, 0]]
    assert counts[2].tolist() == [[1, 0], [1, 1]]
    empty = np.array([], dtype=int)
    assert group_counts(empty, empty, empty, 2).tolist() == [[[0, 0], [0, 0]]] * 2


def test_group_counts_refuses_bad_input():
    message = r"integer group ids in \[0, 3\) and 0/1 labels and decisions"
    for decisions, labels, attrs in (
        ([1, 0], [1, 0], [0, 3]),
        ([1, 0], [1, 0], [-1, 0]),
        ([1, 0], [1, 2], [0, 0]),
        ([1, -1], [1, 0], [0, 0]),
        ([1, 0], [1.0, 0.0], [0, 0]),
    ):
        with pytest.raises(ValidationError, match=message):
            group_counts(decisions, labels, np.array(attrs), 3)
    with pytest.raises(ValidationError, match="equal length"):
        group_counts([1, 0], [1, 0], np.array([0]), 3)


def test_dpd_max_minus_min():
    decisions = np.array([1, 0, 0, 0, 0, 1, 1, 1, 0, 0, 1, 0])
    attrs = np.array([0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 2, 2])
    counts = group_counts(decisions, np.zeros(12, dtype=int), attrs, 3)
    # rates 0.2 / 0.6 / 0.5
    assert dpd(counts) == pytest.approx(0.4)


def test_dpd_skips_empty_groups_and_needs_two():
    decisions = np.array([1, 0])
    labels = np.array([0, 0])
    counts = group_counts(decisions, labels, np.array([0, 0]), 3)
    with pytest.raises(UndefinedMetricError, match="got 1"):
        dpd(counts)
    # group 1 empty, still fine
    counts = group_counts(decisions, labels, np.array([0, 2]), 3)
    assert dpd(counts) == 1.0


def test_deodds_takes_the_larger_gap():
    #       g0: tpr 1.0, fpr 0.0      g1: tpr 0.0, fpr 1.0
    decisions = np.array([1, 1, 0, 0, 1, 1])
    labels = np.array([1, 1, 0, 1, 0, 0])
    counts = group_counts(decisions, labels, np.array([0, 0, 0, 1, 1, 1]), 2)
    assert deodds(counts) == 1.0


def test_deodds_eligibility_is_per_gap():
    # group 0 has only positives, group 1 only negatives: neither gap has
    # two eligible groups, so the metric is undefined
    decisions = np.array([1, 0, 1, 0])
    labels = np.array([1, 1, 0, 0])
    counts = group_counts(decisions, labels, np.array([0, 0, 1, 1]), 2)
    with pytest.raises(UndefinedMetricError):
        deodds(counts)

    # adding a mixed group makes both gaps well defined
    decisions = np.array([1, 0, 1, 0, 1, 1])
    labels = np.array([1, 1, 0, 0, 1, 0])
    counts = group_counts(decisions, labels, np.array([0, 0, 1, 1, 2, 2]), 3)
    # tprs: g0 0.5, g2 1.0 ; fprs: g1 0.5, g2 1.0
    assert deodds(counts) == 0.5


def test_discrepancy_and_equity_scaled():
    delta = discrepancy(0.8695, {0: 0.8929, 1: 0.8166, 2: 0.8936})
    assert delta == pytest.approx(0.1004, abs=1e-12)
    assert equity_scaled(0.8695, delta) == pytest.approx(0.8695 / 1.1004, abs=1e-15)
    # zero discrepancy leaves the metric untouched
    assert equity_scaled(0.77, 0.0) == 0.77
    assert discrepancy(0.5, {0: 0.5}) == 0.0


def test_fraction_units_are_enforced():
    with pytest.raises(ValidationError, match="percentage"):
        discrepancy(86.95, {0: 0.89})
    with pytest.raises(ValidationError):
        discrepancy(0.5, {0: 89.29})
    with pytest.raises(ValidationError):
        equity_scaled(0.5, -0.1)
    with pytest.raises(UndefinedMetricError):
        discrepancy(0.5, {})


def test_full_report_on_reconciliation_fixture():
    """End-to-end audit of a set with hand-counted pair totals."""
    records, attribute_set = reconciliation_records()
    rep = full_report(records, attribute_set, threshold=0.5)
    assert rep.overall["auc"] == RECON_OVERALL_AUC
    for g, expected in RECON_GROUP_AUC.items():
        assert rep.per_group[g]["auc"] == expected
    assert round(rep.equity_scaled["auc"], 4) == RECON_ES_AUC_4DP
    assert rep.dpd == pytest.approx(RECON_DPD, abs=1e-12)
    assert rep.deodds == pytest.approx(RECON_DEODDS, abs=1e-12)
    assert rep.overall["accuracy"] == pytest.approx(23 / 30)
    assert rep.group_sizes == {0: 200, 1: 200, 2: 200}
    assert rep.undefined == ()
    # the defining identity of the equity-scaled family
    for name in ("accuracy", "auc"):
        assert rep.equity_scaled[name] == pytest.approx(
            rep.overall[name] / (1.0 + rep.delta[name]), abs=1e-15
        )
        assert rep.equity_scaled[name] <= rep.overall[name]


def test_full_report_flags_undefined_instead_of_imputing():
    preds = Predictions(("a", "b", "c"), [0.9, 0.1, 0.8], [1, 1, 1], [0, 0, 1])
    rep = full_report(preds, AttributeSet.default(3), threshold=0.5)
    assert rep.overall["auc"] is None  # single-class overall
    assert rep.per_group[0]["auc"] is None
    assert rep.per_group[2]["accuracy"] is None  # empty group
    assert rep.delta["auc"] is None
    assert rep.equity_scaled["auc"] is None
    assert rep.group_sizes == {0: 2, 1: 1, 2: 0}
    assert any("group 2 empty" in f for f in rep.undefined)
    assert any("overall auc undefined" in f for f in rep.undefined)
    # accuracy is still defined everywhere it can be
    assert rep.overall["accuracy"] == pytest.approx(2 / 3)
    assert rep.equity_scaled["accuracy"] is not None


@st.composite
def es_case(draw):
    """Records in a few groups, some single-class, in one of three shapes:
    random scores; inverted ones (every positive below the threshold and
    every negative above it, so overall accuracy and AUC are 0); or one
    block of records copied into every group, so each group equals overall."""
    group_count = draw(st.integers(1, 4))
    n = draw(st.integers(1, 30))
    labels = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    unit = st.floats(0.0, 1.0)
    scores = np.array(draw(st.lists(unit, min_size=n, max_size=n)))
    shape = draw(st.sampled_from(["random", "inverted", "copies"]))
    if shape == "inverted":
        scores = np.where(labels == 1, 0.4 * scores, 0.6 + 0.4 * scores)
    if shape == "copies":
        attrs = np.repeat(np.arange(group_count), n)
        labels, scores = np.tile(labels, group_count), np.tile(scores, group_count)
    else:
        group = st.integers(0, group_count - 1)
        attrs = np.array(draw(st.lists(group, min_size=n, max_size=n)))
        for g in draw(st.lists(group, unique=True)):
            labels[attrs == g] = draw(st.integers(0, 1))  # a single-class group
    ids = [f"r{i}" for i in range(len(labels))]
    return Predictions(ids, scores, labels, attrs), AttributeSet.default(group_count)


@settings(max_examples=300, deadline=None)
@given(case=es_case())
def test_equity_scaling_never_raises_a_metric_and_keeps_it_only_without_gaps(case):
    predictions, attribute_set = case
    report = full_report(predictions, attribute_set, threshold=0.5)
    for name in ("accuracy", "auc"):
        overall, es = report.overall[name], report.equity_scaled[name]
        if es is None:
            continue
        values = [row[name] for row in report.per_group.values()]
        values = [value for value in values if value is not None]
        assert es <= overall
        # a gap between distinct count ratios is far above 2**-52, so 1 + delta > 1
        assert (es == overall) == all(value == overall for value in values)


def test_equity_scaling_at_an_overall_value_of_zero():
    # every positive scored below 0.5 and every negative above: accuracy and
    # auc are 0 overall and in each group with both classes; group 2 has one
    labels, attrs = [1, 0, 1, 0, 1, 1], [0, 0, 1, 1, 2, 2]
    scores = [0.1, 0.9, 0.2, 0.7, 0.3, 0.4]
    preds = Predictions([f"r{i}" for i in range(6)], scores, labels, attrs)
    report = full_report(preds, AttributeSet.default(3), threshold=0.5)
    assert report.overall == {"accuracy": 0.0, "auc": 0.0}
    assert report.per_group[2] == {"accuracy": 0.0, "auc": None}
    assert report.delta == {"accuracy": 0.0, "auc": 0.0}
    assert report.equity_scaled == {"accuracy": 0.0, "auc": 0.0}


def test_full_report_rejects_empty_input():
    with pytest.raises(UndefinedMetricError):
        full_report(Predictions((), [], [], []), AttributeSet.default(1))


def test_full_report_names_the_out_of_range_record():
    preds = Predictions(("ok", "oops"), [0.5, 0.5], [0, 0], [0, 5])
    with pytest.raises(ValidationError, match="oops"):
        full_report(preds, AttributeSet.default(2))
    rep = full_report(Predictions(("ok",), [0.5], [0], [0]), AttributeSet.default(2))
    assert rep.group_sizes == {0: 1, 1: 0}
    assert rep.undefined[-3] == "group 1 empty: accuracy and auc undefined"


def test_report_and_histogram_are_invariant_under_row_permutation():
    rng = np.random.default_rng(11)
    n = 400
    attrs = rng.integers(0, 4, size=n)
    labels = rng.integers(0, 2, size=n)
    labels[attrs == 3] = 1  # a single-class group; group 4 stays empty
    scores = np.round(rng.random(n), 2)  # plenty of tied scores
    random_set = Predictions(tuple(f"r{i}" for i in range(n)), scores, labels, attrs)
    notes = full_report(random_set, AttributeSet.default(5)).undefined
    assert any("group 3" in f for f in notes) and any("group 4 empty" in f for f in notes)
    cases = [(random_set, AttributeSet.default(5)), reconciliation_records()]
    for preds, attribute_set in cases:
        perm = rng.permutation(len(preds))
        shuffled = Predictions(
            tuple(preds.ids[i] for i in perm),
            preds.scores[perm],
            preds.labels[perm],
            preds.attrs[perm],
        )
        report = metric_report_to_dict(full_report(preds, attribute_set))
        assert metric_report_to_dict(full_report(shuffled, attribute_set)) == report
        hist = prediction_histogram(preds, bins=13)
        hist_shuffled = prediction_histogram(shuffled, bins=13)
        assert np.array_equal(hist_shuffled.counts, hist.counts)


def recs(scores, labels):
    n = len(scores)
    return Predictions(tuple(f"r{i}" for i in range(n)), scores, labels, np.zeros(n, dtype=int))


def test_histogram_hand_case():
    records = recs(
        [0.0, 0.25, 0.5, 0.74, 0.75, 1.0],
        [0, 1, 1, 0, 1, 0],
    )
    hist = prediction_histogram(records, threshold=0.5, bins=4)
    assert hist.edges.tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]
    # [bin, label, decision]
    assert hist.counts[:, 0, 0].tolist() == [1, 0, 0, 0]  # tn
    assert hist.counts[:, 1, 0].tolist() == [0, 1, 0, 0]  # fn
    assert hist.counts[:, 1, 1].tolist() == [0, 0, 1, 1]  # tp
    assert hist.counts[:, 0, 1].tolist() == [0, 0, 1, 1]  # fp


def test_histogram_totals_match_confusion():
    rng = np.random.default_rng(3)
    scores = rng.random(500)
    labels = rng.integers(0, 2, size=500)
    records = recs(scores, labels)
    hist = prediction_histogram(records, threshold=0.4, bins=20)
    dec, pos = decide(scores, 0.4) == 1, labels == 1
    c = [[np.sum(~dec & ~pos), np.sum(dec & ~pos)], [np.sum(~dec & pos), np.sum(dec & pos)]]
    assert hist.counts.sum(axis=0).tolist() == c
    assert hist.counts.sum() == 500


def test_histogram_single_bin_is_plain_confusion():
    records = recs([0.1, 0.6, 0.9], [0, 0, 1])
    hist = prediction_histogram(records, threshold=0.5, bins=1)
    (tn, fp), (fn, tp) = hist.counts[0].tolist()
    assert hist.counts.shape == (1, 2, 2) and (tp, fp, tn, fn) == (1, 1, 1, 0)
    with pytest.raises(ValidationError):
        prediction_histogram(records, bins=0)


# each kind's [label, decision] cell of a histogram bin
HISTOGRAM_CELLS = {"tp": (1, 1), "fp": (0, 1), "tn": (0, 0), "fn": (1, 0)}


@settings(max_examples=200, deadline=None)
@given(data=st.data(), bins=st.one_of(st.integers(1, 50), st.integers(1, MAX_BINS)))
def test_histogram_tally_equals_one_add_at_per_kind(data, bins):
    on_edge = st.integers(0, bins).map(lambda k: k / bins)
    # an ulp either side of an edge, where floor(score * bins) may miss the
    # bin by one: the histogram is exact only if it never misses by more
    toward = st.sampled_from((0.0, 1.0))
    near_edge = st.tuples(on_edge, toward).map(lambda e: float(np.nextafter(*e)))
    fixed = st.sampled_from((0.0, -0.0, 1.0))
    value = st.one_of(on_edge, near_edge, fixed, st.floats(0.0, 1.0))
    scores = data.draw(st.lists(value, max_size=60))
    n = len(scores)
    labels = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    threshold = data.draw(st.one_of(st.sampled_from((0.0, 1.0)), on_edge))
    hist = prediction_histogram(recs(scores, labels), threshold=threshold, bins=bins)
    expected = add_at_histogram(scores, labels, threshold, bins)
    assert hist.counts.dtype == np.int64 and hist.counts.shape == (bins, 2, 2)
    for kind, (label, decision) in HISTOGRAM_CELLS.items():
        assert hist.counts[:, label, decision].tolist() == expected[kind].tolist()
