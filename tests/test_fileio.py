import json

import numpy as np
import pytest

from fin_equity import (
    AttributeSet,
    Dataset,
    Predictions,
    ValidationError,
    full_report,
    prediction_histogram,
)
from fin_equity.fileio import (
    dumps_canonical,
    format_float,
    load_json,
    metric_report_to_dict,
    read_dataset_csv,
    read_groups_sidecar,
    read_predictions_csv,
    write_dataset_csv,
    write_histogram_csv,
    write_predictions_csv,
    write_pretty_json,
)
from reference_fixtures import same_predictions


def test_format_float_round_trips_doubles():
    rng = np.random.default_rng(0)
    for x in rng.standard_normal(200) * 10.0 ** rng.integers(-300, 300, 200):
        assert float(format_float(float(x))) == float(x)
    assert format_float(0.1) == "1.0000000000000001e-01"
    for bad in (float("inf"), float("nan"), np.float64("-inf"), np.nan, np.inf):
        with pytest.raises(ValidationError, match="non-finite"):
            format_float(bad)
    # numpy floats and ints are formatted as the double they hold
    assert format_float(np.float32(0.1)) == format_float(float(np.float32(0.1)))
    assert format_float(np.float32(0.1)) == "1.0000000149011612e-01"
    assert format_float(3) == "3.0000000000000000e+00"
    assert format_float(np.int64(-2)) == "-2.0000000000000000e+00"


def test_dumps_canonical():
    obj = {"b": 1, "a": [True, None, 0.5], "c": {"x": np.array([1.0, 2.0])}}
    s = dumps_canonical(obj)
    # insertion order, not sorted; floats in scientific notation
    assert s == (
        '{"b":1,"a":[true,null,5.0000000000000000e-01],'
        '"c":{"x":[1.0000000000000000e+00,2.0000000000000000e+00]}}'
    )
    assert json.loads(s) == {"b": 1, "a": [True, None, 0.5], "c": {"x": [1.0, 2.0]}}
    assert dumps_canonical(obj) == s  # stable


def test_dumps_canonical_rejects_unserializable():
    with pytest.raises(ValidationError):
        dumps_canonical({1: "non-string key"})
    with pytest.raises(ValidationError):
        dumps_canonical({"x": float("nan")})
    with pytest.raises(ValidationError):
        dumps_canonical({"x": {1, 2}})


def test_numpy_scalars_serialize():
    assert dumps_canonical(np.int64(3)) == "3"
    assert dumps_canonical(np.float64(1.0)) == "1.0000000000000000e+00"


def make_dataset():
    rng = np.random.default_rng(1)
    return Dataset(
        AttributeSet.default(2),
        x=rng.standard_normal((10, 3)),
        labels=[i % 2 for i in range(10)],
        attrs=[i % 2 for i in range(10)],
        ids=tuple(f"s{i}" for i in range(10)),
    )


def test_dataset_csv_round_trip_is_exact(tmp_path):
    ds = make_dataset()
    path = str(tmp_path / "data.csv")
    write_dataset_csv(ds, path)
    back = read_dataset_csv(path)
    assert back.x.tobytes() == ds.x.tobytes()  # bitwise
    assert back.labels.tolist() == ds.labels.tolist()
    assert back.attrs.tolist() == ds.attrs.tolist()
    assert back.ids == ds.ids
    assert back.attribute_set.names == ("group0", "group1")
    with open(path) as f:
        assert f.readline().strip() == "id,attr,label,f0,f1,f2"
    # write -> read -> write gives the same bytes
    write_dataset_csv(back, str(tmp_path / "again.csv"))
    assert (tmp_path / "again.csv").read_bytes() == (tmp_path / "data.csv").read_bytes()


def test_dataset_csv_group_names_override(tmp_path):
    ds = make_dataset()
    path = str(tmp_path / "data.csv")
    write_dataset_csv(ds, path)
    back = read_dataset_csv(path, group_names=("asian", "black", "white"))
    assert back.attribute_set.names == ("asian", "black", "white")
    with pytest.raises(ValidationError, match="out of range"):
        read_dataset_csv(path, group_names=("only_one",))


def write_lines(tmp_path, name, lines):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_dataset_csv_errors_name_the_line(tmp_path):
    header = "id,attr,label,f0"
    cases = [
        (["id,label,attr,f0", "a,0,1,0.5"], "line 1"),
        ([header, "a,0,1,0.5", "a,0,1,0.5"], "duplicate sample id"),
        ([header, "a,x,1,0.5"], "line 2"),
        ([header, "a,0,7,0.5"], "label must be 0 or 1"),
        ([header, "a,-1,1,0.5"], "attr must be >= 0"),
        ([header, "a,0,1,zzz"], "bad feature value"),
        ([header, "a,0,1,inf"], "non-finite"),
        (["id,attr,label,f0,f1", "a,0,1,0.5,nan"], "line 2: non-finite"),
        ([header, "a,0,1"], "expected 4 fields"),
        ([header], "no data rows"),
    ]
    for lines, message in cases:
        path = write_lines(tmp_path, "bad.csv", lines)
        with pytest.raises(ValidationError, match=message):
            read_dataset_csv(path)
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ValidationError, match="empty"):
        read_dataset_csv(str(empty))


def test_predictions_csv_round_trip(tmp_path):
    preds = Predictions(
        ids=tuple(f"p{i}" for i in range(6)),
        scores=[(i + 1) / 7.0 for i in range(6)],
        labels=[i % 2 for i in range(6)],
        attrs=[i % 3 for i in range(6)],
    )
    path = str(tmp_path / "preds.csv")
    write_predictions_csv(preds, path)
    back, attribute_set = read_predictions_csv(path)
    assert same_predictions(back, preds)  # scores bitwise equal via %.16e
    assert attribute_set.group_count == 3
    back2, named = read_predictions_csv(path, group_names=("a", "b", "c"))
    assert named.names == ("a", "b", "c")
    # write -> read -> write gives the same bytes
    write_predictions_csv(back, str(tmp_path / "again.csv"))
    assert (tmp_path / "again.csv").read_bytes() == (tmp_path / "preds.csv").read_bytes()


def test_ids_with_a_carriage_return_round_trip(tmp_path):
    # minimal quoting would leave the lone \r bare and split the record
    preds = Predictions(("a\rb", "c"), [0.25, 0.5], [0, 1], [0, 1])
    write_predictions_csv(preds, str(tmp_path / "preds.csv"))
    back, _ = read_predictions_csv(str(tmp_path / "preds.csv"))
    assert same_predictions(back, preds)
    ds = Dataset(AttributeSet.default(1), [[1.5], [2.5]], [0, 1], [0, 0], ("x\r", "y"))
    write_dataset_csv(ds, str(tmp_path / "data.csv"))
    assert read_dataset_csv(str(tmp_path / "data.csv")).ids == ("x\r", "y")


def test_predictions_csv_errors(tmp_path):
    header = "id,score,label,attr"
    cases = [
        (["id,score,attr,label", "a,0.5,1,0"], "header"),
        ([header, "a,1.5,1,0"], "line 2"),
        ([header, "a,0.5,1,0", "a,0.5,1,0"], "duplicate id"),
        ([header, "a,abc,1,0"], "not a number"),
        ([header, "a,0.5,3,0"], "label"),
        ([header, "a,0.5,1,-2"], "attr must be >= 0"),
    ]
    for lines, message in cases:
        path = write_lines(tmp_path, "bad.csv", lines)
        with pytest.raises(ValidationError, match=message):
            read_predictions_csv(path)


def test_histogram_csv(tmp_path):
    preds = Predictions(("a", "b"), [0.1, 0.9], [0, 1], [0, 0])
    hist = prediction_histogram(preds, threshold=0.5, bins=2)
    path = str(tmp_path / "hist.csv")
    write_histogram_csv(hist, path)
    lines = (tmp_path / "hist.csv").read_text().splitlines()
    assert lines[0] == "bin_lo,bin_hi,tp,fp,tn,fn"
    assert lines[1] == "0.0,0.5,0,0,1,0"
    assert lines[2] == "0.5,1.0,1,0,0,0"


def test_metric_report_dict_rounds_to_six_decimals():
    preds = Predictions(("a", "b", "c", "d"), [1 / 3, 0.9, 0.2, 0.8], [1, 0, 0, 1], [0, 0, 1, 1])
    rep = full_report(preds, AttributeSet.default(2), threshold=0.5)
    d = metric_report_to_dict(rep)
    assert d["overall"]["accuracy"] == 0.5
    assert set(d["per_group"]) == {"0", "1"}  # JSON keys are strings
    assert d["group_sizes"] == {"0": 2, "1": 2}
    for value in d["equity_scaled"].values():
        if value is not None:
            assert value == round(value, 6)
    assert isinstance(d["undefined"], list)
    assert json.loads(json.dumps(d)) == d  # plain JSON types only


def test_groups_sidecar(tmp_path):
    path = tmp_path / "groups.json"
    path.write_text('{"groups": ["asian", "black", "white"]}')
    assert read_groups_sidecar(str(path)) == ("asian", "black", "white")
    path.write_text('{"groups": "nope"}')
    with pytest.raises(ValidationError):
        read_groups_sidecar(str(path))
    path.write_text("{broken")
    with pytest.raises(ValidationError, match="line 1"):
        read_groups_sidecar(str(path))


def test_write_pretty_json(tmp_path):
    path = tmp_path / "out.json"
    write_pretty_json({"a": 1}, str(path))
    text = path.read_text()
    assert text.endswith("\n")
    assert json.loads(text) == {"a": 1}
