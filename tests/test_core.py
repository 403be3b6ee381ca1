from dataclasses import dataclass

import numpy as np
import pytest

from fin_equity import AttributeSet, Dataset, IdColumn, Predictions, ValidationError
from fin_equity.core import type_config_fields


def test_attribute_rejects_bad_ids():
    def dataset(attrs):
        return Dataset(AttributeSet.default(4), np.zeros((1, 2)), [0], attrs, ("s",))

    def predictions(attrs):
        return Predictions(("p",), [0.5], [0], attrs)

    for build in (dataset, predictions):
        with pytest.raises(ValidationError, match="non-negative"):
            build([-1])
        with pytest.raises(ValidationError, match="integers"):
            build(["0"])
        with pytest.raises(ValidationError, match="integers"):
            build([True])  # bools are not group ids
        with pytest.raises(ValidationError, match="integers"):
            build([0.0])
        attrs = build(np.array([3], dtype=np.int64)).attrs
        assert attrs.tolist() == [3] and attrs.dtype == np.intp


def test_attribute_set_basics():
    s = AttributeSet(("asian", "black", "white"))
    assert s.group_count == 3
    assert s.names == ("asian", "black", "white")
    assert AttributeSet.default(2).names == ("group0", "group1")
    with pytest.raises(ValidationError):
        AttributeSet(())
    with pytest.raises(ValidationError):
        AttributeSet(("a", "a"))
    with pytest.raises(ValidationError):
        AttributeSet(("a", ""))
    with pytest.raises(ValidationError):
        AttributeSet.default(0)


def test_dataset_copies_and_freezes_columns():
    raw = np.array([[1.0, 2.0]])
    labels = np.array([1])
    ds = Dataset(AttributeSet.default(1), raw, labels, [0], ("s0",))
    raw[0, 0] = 99.0
    labels[0] = 0
    assert ds.x[0, 0] == 1.0 and ds.labels[0] == 1  # own copies, not views
    for column in (ds.x, ds.labels, ds.attrs):
        assert not column.flags.writeable
    with pytest.raises(ValueError):
        ds.x[0, 0] = 5.0
    assert ds.x.dtype == np.float64 and ds.labels.dtype == np.int64


def make_dataset():
    return Dataset(
        AttributeSet.default(2),
        x=np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]]),
        labels=[0, 1, 1],
        attrs=[0, 1, 0],
        ids=("a", "b", "c"),
    )


def test_dataset_helpers():
    ds = make_dataset()
    assert len(ds) == 3 and ds.d == 2
    assert ds.x.shape == (3, 2) and ds.x[1, 0] == 2.0
    assert ds.labels.tolist() == [0, 1, 1]
    assert ds.attrs.tolist() == [0, 1, 0]
    assert ds.ids == ("a", "b", "c")
    with pytest.raises(ValidationError, match="2-D"):
        Dataset(AttributeSet.default(1), np.zeros(3), [0, 0, 0], [0, 0, 0], "abc")
    with pytest.raises(ValidationError, match="labels"):
        Dataset(AttributeSet.default(1), np.zeros((3, 2)), [0, 0], [0, 0, 0], "abc")
    with pytest.raises(ValidationError, match="attribute ids"):
        Dataset(AttributeSet.default(1), np.zeros((3, 2)), [0, 0, 0], [0], "abc")
    with pytest.raises(ValidationError, match="ids"):
        Dataset(AttributeSet.default(1), np.zeros((3, 2)), [0, 0, 0], [0, 0, 0], "ab")


def test_prediction_record_validation():
    p = Predictions(("p",), [0.5], [1], [0])
    assert p.scores.tolist() == [0.5] and p.labels.tolist() == [1] and len(p) == 1
    with pytest.raises(ValidationError, match="'p'.*score"):
        Predictions(("p",), [1.5], [1], [0])
    with pytest.raises(ValidationError, match="got nan"):
        Predictions(("p",), [float("nan")], [1], [0])
    with pytest.raises(ValidationError, match="'p'.*label must be 0 or 1, got 2"):
        Predictions(("p",), [0.5], [2], [0])
    # the first bad record is named, whichever column is wrong
    with pytest.raises(ValidationError, match="'b'.*label"):
        Predictions(("a", "b", "c"), [0.5, 0.5, -0.1], [0, 3, 1], [0, 0, 0])
    with pytest.raises(ValidationError, match="scores"):
        Predictions(("a", "b"), [0.5], [0, 1], [0, 0])


def first_bad_record(x, labels, attrs, groups):
    """The first problem a per-row loop finds, as the constructor names it."""
    for i in range(len(x)):
        if not np.all(np.isfinite(x[i])):
            return i, "non-finite feature value"
        if labels[i] not in (0, 1):
            return i, f"label must be 0 or 1, got {labels[i]}"
        if attrs[i] >= groups:
            return i, f"attribute id {attrs[i]} out of range for {groups} groups"
    return None


def test_dataset_names_its_first_bad_record():
    make_dataset()  # a valid dataset builds
    x = np.array([[1.0, 2.0], [1.0, np.inf], [1.0, 2.0], [np.nan, 0.0]])
    labels, attrs = [0, 0, 3, 1], [0, 0, 1, 2]
    ids = ("ok", "inf", "two_problems", "nan_and_attr")
    # row order first, then features, label and group id within a row
    for rows, message in [
        ([0, 1, 2, 3], "record 'inf': non-finite feature value"),
        ([0, 2, 3], "record 'two_problems': label must be 0 or 1, got 3"),
        ([0, 3], "record 'nan_and_attr': non-finite feature value"),
    ]:
        with pytest.raises(ValidationError) as error:
            Dataset(
                AttributeSet.default(1), x[rows], [labels[i] for i in rows],
                [attrs[i] for i in rows], [ids[i] for i in rows],
            )
        assert str(error.value) == message
    with pytest.raises(ValidationError) as error:
        Dataset(AttributeSet.default(2), [[0.0]], [1], [2], ["a"])
    assert str(error.value) == "record 'a': attribute id 2 out of range for 2 groups"

    # the constructor agrees with a per-row loop on random dirty datasets: a
    # dense one, and sparse ones of which some are clean
    rng = np.random.default_rng(5)
    x = rng.standard_normal((60, 3))
    x.flat[rng.choice(x.size, 8, replace=False)] = rng.choice([np.nan, np.inf, -np.inf], 8)
    cases = [(x, rng.choice([0, 1, 1, 0, 2, -1], 60), rng.choice([0, 1, 2, 3], 60))]
    for seed in range(40):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((60, 3))
        labels, attrs = rng.integers(0, 2, 60), rng.integers(0, 3, 60)
        for _ in range(rng.integers(0, 3)):  # 0, 1 or 2 dirty cells
            i, kind = rng.integers(60), rng.integers(3)
            if kind == 0:
                x[i, rng.integers(3)] = rng.choice([np.nan, np.inf, -np.inf])
            elif kind == 1:
                labels[i] = rng.choice([2, -1])
            else:
                attrs[i] = 3
        cases.append((x, labels, attrs))
    found = []
    for x, labels, attrs in cases:
        ids = tuple(map(str, range(60)))
        first = first_bad_record(x, labels.tolist(), attrs.tolist(), 3)
        if first is None:
            Dataset(AttributeSet.default(3), x, labels, attrs, ids)
        else:
            with pytest.raises(ValidationError) as error:
                Dataset(AttributeSet.default(3), x, labels, attrs, ids)
            assert str(error.value) == f"record '{first[0]}': {first[1]}"
        found.append(first and first[1].split()[0])
    assert {None, "non-finite", "label", "attribute"} <= set(found)


def test_dataset_needs_a_feature_and_a_row():
    with pytest.raises(ValidationError, match=r"^dataset has no samples$"):
        Dataset(AttributeSet.default(1), np.zeros((0, 2)), [], [], ())
    for ids in (["a", "b"], []):  # the feature dimension is checked first
        n = len(ids)
        with pytest.raises(
            ValidationError, match=r"^feature dimension must be >= 1, got 0$"
        ):
            Dataset(AttributeSet.default(1), np.zeros((n, 0)), [0] * n, [0] * n, ids)


def test_ids_are_one_read_only_string_column():
    ds = make_dataset()
    column = np.asarray(ds.ids)
    assert column.dtype == np.dtypes.StringDType() and not column.flags.writeable
    assert ds.ids == ["a", "b", "c"] and ds.ids != ("a", "b") and ds.ids != "abc"
    assert ds.ids[1] == "b" and ds.ids[np.int64(-1)] == "c"
    assert type(ds.ids[:2]) is type(ds.ids) and ds.ids[:2] == ("a", "b")
    assert [type(i) for i in ds.ids] == [str, str, str]
    # a NUL ends no id: numpy compares such strings loosely, the column must not
    ids = Predictions(("a\x00b", "x\x00"), [0.5, 0.5], [0, 1], [0, 0]).ids
    assert ids == ("a\x00b", "x\x00") and ids != ("a\x00c", "x")
    with pytest.raises(ValidationError, match="ids must be a flat sequence of strings"):
        IdColumn([["a", "b"]])


def test_lone_surrogate_id_is_a_validation_error():
    with pytest.raises(ValidationError, match="not valid text"):
        Dataset(AttributeSet.default(1), np.zeros((1, 2)), [0], [0], ("\ud800",))
    with pytest.raises(ValidationError, match="not valid text"):
        Predictions(("ok", "x\udfff"), [0.5, 0.5], [0, 1], [0, 0])


@dataclass(frozen=True)
class Probe:
    """A config typed from both forms of annotation this module can hold."""

    count: int = 1  # the type itself: this module does not postpone annotations
    share: "float" = 0.5  # the name, as a module that postpones them leaves it
    label: str = "x"

    def __post_init__(self):
        type_config_fields(self, "probe config")


def test_config_fields_are_typed_from_their_annotations():
    probe = Probe(count=np.int64(2), share=1)
    assert type(probe.count) is int and type(probe.share) is float
    assert Probe(label=3).label == 3  # other annotations are the class's to check
    with pytest.raises(
        ValidationError, match="bad probe config: 'count' must be an integer, got '2'"
    ):
        Probe(count="2", share="x")  # fields are typed in order: the first is named
    with pytest.raises(ValidationError, match="'share' must be a number, got True"):
        Probe(share=True)
