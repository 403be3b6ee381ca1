"""The CSV writers against the value-by-value writers they replaced.

reference_write_dataset_csv and reference_write_predictions_csv are the
writers as they were before the row-formatted rewrite: every float goes
through format_float on its own, and csv.writer joins and quotes every
field. The new writers must give the same bytes; no Dataset or Predictions
can hold a value that format_float refuses. The SHA-256 pins fix the bytes
of `synth`'s stock cohort.
"""

import csv
import hashlib

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from fin_equity import AttributeSet, Dataset, Predictions, ValidationError
from fin_equity.cli import run
from fin_equity.fileio import format_float, write_dataset_csv, write_predictions_csv


def _reference_writer(f, ids):
    quoting = csv.QUOTE_ALL if any("\r" in sid for sid in ids) else csv.QUOTE_MINIMAL
    return csv.writer(f, lineterminator="\n", quoting=quoting)


def reference_write_dataset_csv(dataset: Dataset, path: str) -> None:
    """The per-value dataset writer that the row-formatted one must match."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        w = _reference_writer(f, dataset.ids)
        w.writerow(["id", "attr", "label"] + [f"f{i}" for i in range(dataset.d)])
        for sid, attr, label, feats in zip(
            dataset.ids, dataset.attrs.tolist(), dataset.labels.tolist(), dataset.x
        ):
            w.writerow([sid, attr, label] + [format_float(v) for v in feats])


def reference_write_predictions_csv(predictions: Predictions, path: str) -> None:
    """The per-value predictions writer that the row-formatted one must match."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        w = _reference_writer(f, predictions.ids)
        w.writerow(["id", "score", "label", "attr"])
        w.writerows(
            zip(
                predictions.ids,
                map(format_float, predictions.scores.tolist()),
                predictions.labels.tolist(),
                predictions.attrs.tolist(),
            )
        )


def written(write, data, path):
    """The bytes that write puts in path."""
    write(data, str(path))
    return path.read_bytes()


# every character that csv quoting or the encoding treats specially
SPECIAL = ',"\n\r\0 é日\U0001f600'
ids_text = st.text(
    st.one_of(st.sampled_from(SPECIAL), st.characters(codec="utf-8")), max_size=4
)
finite = st.floats(allow_nan=False, allow_infinity=False)
edge_floats = st.sampled_from(
    [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1.7976931348623157e308]
)
feature = st.one_of(finite, edge_floats)

# ids that exercise each quoting case; "c\rr" makes the file QUOTE_ALL
AWKWARD_IDS = ["", "a,b", 'q"q', "l\nf", "c\rr", "n\0l", "ü日", "plain"]
EDGE_ROW = [-0.0, 5e-324, -2.2250738585072009e-308]


def rows_from(draw, n, palette):
    """n draws from a small hypothesis palette, picked by a drawn seed; the
    palette keeps generation cheap while files still cross a block."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng, [palette[i] for i in rng.integers(len(palette), size=n).tolist()]


@st.composite
def datasets(draw):
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1, 300))  # past two 128-row blocks
    rng, ids = rows_from(draw, n, draw(st.lists(ids_text, min_size=1, max_size=8)))
    # doubles of every magnitude, with the drawn ones in about half the cells
    x = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-320, 300, (n, d))
    drawn = draw(st.lists(feature, min_size=1, max_size=8))
    picks = rng.random((n, d)) < 0.5
    x[picks] = np.array(drawn)[rng.integers(len(drawn), size=int(picks.sum()))]
    labels = rng.integers(0, 2, n)
    attrs = rng.integers(0, 13, n)
    return Dataset(AttributeSet.default(13), x, labels, attrs, ids)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(datasets())
@example(
    Dataset(
        AttributeSet.default(2), [EDGE_ROW] * 8, [0, 1] * 4, [1, 0] * 4, AWKWARD_IDS
    )
)
def test_dataset_writer_matches_the_reference(tmp_path_factory, dataset):
    tmp = tmp_path_factory.mktemp("dataset")
    expected = written(reference_write_dataset_csv, dataset, tmp / "reference.csv")
    assert written(write_dataset_csv, dataset, tmp / "new.csv") == expected


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("quote_all", [False, True])
def test_dataset_writer_quotes_like_the_reference(tmp_path, d, quote_all):
    ids = AWKWARD_IDS if quote_all else [s for s in AWKWARD_IDS if "\r" not in s]
    n = len(ids)
    x = np.resize(np.array(EDGE_ROW + [1.0, -2.5e-300, 3.0e300]), (n, d))
    dataset = Dataset(AttributeSet.default(2), x, [1] * n, np.arange(n) % 2, ids)
    reference_write_dataset_csv(dataset, str(tmp_path / "reference.csv"))
    write_dataset_csv(dataset, str(tmp_path / "new.csv"))
    written = (tmp_path / "new.csv").read_bytes()
    assert written == (tmp_path / "reference.csv").read_bytes()
    assert written.startswith(b'"id"') == quote_all


@st.composite
def prediction_sets(draw):
    n = draw(st.integers(0, 300))
    rng, ids = rows_from(draw, n, draw(st.lists(ids_text, min_size=1, max_size=8)))
    score = st.one_of(st.floats(0.0, 1.0), st.sampled_from([-0.0, 5e-324, 1e-310]))
    drawn = np.array(draw(st.lists(score, min_size=1, max_size=8)))
    scores = np.where(
        rng.random(n) < 0.5,
        rng.random(n) * 10.0 ** rng.integers(-320, 1, n),
        drawn[rng.integers(len(drawn), size=n)],
    )
    labels = rng.integers(0, 2, n)
    attrs = rng.integers(0, 2**40, n)
    return Predictions(ids, scores, labels, attrs)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(prediction_sets())
@example(Predictions(AWKWARD_IDS, [-0.0, 5e-324, 1e-310, 1.0] * 2, [0, 1] * 4, [3] * 8))
def test_predictions_writer_matches_the_reference(tmp_path_factory, predictions):
    tmp = tmp_path_factory.mktemp("predictions")
    reference = reference_write_predictions_csv
    expected = written(reference, predictions, tmp / "reference.csv")
    assert written(write_predictions_csv, predictions, tmp / "new.csv") == expected


def test_no_dataset_holds_a_value_the_writer_would_refuse():
    x = np.ones((5, 2))
    x[3, 1], x[4, 0] = np.nan, np.inf  # the first row holding one is named
    with pytest.raises(ValidationError) as error:
        Dataset(AttributeSet.default(1), x, [0] * 5, [0] * 5, list("abcde"))
    assert str(error.value) == "record 'd': non-finite feature value"


def test_synth_stock_cohort_bytes_are_pinned(tmp_path, capsys):
    train, evaluation = tmp_path / "train.csv", tmp_path / "eval.csv"
    assert run(["synth", "--out-train", str(train), "--out-eval", str(evaluation)]) == 0
    assert hashlib.sha256(train.read_bytes()).hexdigest() == (
        "cc893059ca64f0e7151f543d1e7d42141f70d234485fa71d983d772753b3f76c"
    )
    assert hashlib.sha256(evaluation.read_bytes()).hexdigest() == (
        "258d8fc1df9089eb1231e8cf2fd751f11bf6684709237e26d120d2d03b7a0a19"
    )
