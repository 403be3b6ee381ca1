"""The CSV readers against the row-by-row readers they replaced.

reference_read_dataset_csv and reference_read_predictions_csv are the
readers as they were before the column-by-column rewrite: one loop over the
rows, each row checked in turn. The fuzz below corrupts small valid files at
random and asserts that both readers give the same outcome, the same error
text or bitwise-equal columns. The plain tests pin which error wins when a
file has several.
"""

import csv
import io
from typing import Sequence

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fin_equity import AttributeSet, Dataset, Predictions, ValidationError
from fin_equity.fileio import (
    format_float,
    read_dataset_csv,
    read_predictions_csv,
    write_dataset_csv,
    write_predictions_csv,
)


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
    if not attrs:
        raise ValidationError(f"{path!r} has a header but no data rows")
    max_attr = max(attrs)
    if group_names is None:
        if max_attr >= len(attrs):
            raise ValidationError(
                f"{path!r}: attribute id {max_attr} is not below the record "
                f"count {len(attrs)}; pass --groups to name the groups"
            )
        return AttributeSet.default(max_attr + 1)
    attribute_set = AttributeSet(tuple(group_names))
    if max_attr >= attribute_set.group_count:
        raise ValidationError(
            f"attribute id {max_attr} out of range for the "
            f"{attribute_set.group_count} provided group names"
        )
    return attribute_set


def reference_read_dataset_csv(
    path: str, group_names: Sequence[str] | None = None
) -> Dataset:
    """The row-by-row dataset reader that the column checks must match."""
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
    return Dataset(attribute_set, x[: len(ids)], labels, attrs, ids)


def reference_read_predictions_csv(
    path: str, group_names: Sequence[str] | None = None
) -> tuple[Predictions, AttributeSet]:
    """The row-by-row predictions reader that the column checks must match."""
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


def columns(value) -> tuple:
    """Everything a read returns, as bytes and tuples (so == is bitwise)."""
    if isinstance(value, Dataset):
        arrays = (value.x, value.labels, value.attrs)
        names = value.attribute_set.names
        ids = value.ids
    else:
        predictions, attribute_set = value
        arrays = (predictions.scores, predictions.labels, predictions.attrs)
        names = attribute_set.names
        ids = predictions.ids
    return (
        ids,
        names,
        tuple((a.dtype.str, a.shape, a.tobytes()) for a in arrays),
    )


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    """One directory for every example; each example overwrites its files."""
    return tmp_path_factory.mktemp("csv")


def outcome(read, path, group_names):
    try:
        return "ok", columns(read(path, group_names))
    except ValidationError as exc:
        return "error", str(exc)


# ---------------------------------------------------------------------------
# fuzz: corrupt small valid files, compare with the reference readers

# cells a corruption may put anywhere: numbers int() or float() read in
# unusual ways, non-numbers, non-finite values, quoting and embedded newlines,
# and numbers with whitespace that int() and float() read through (csv.writer
# quotes those with a line end), as the S24 cast of a csv.reader cell must
TOKENS = (
    "", " ", "x", "0", "1", "2", "-1", "-0", "+1", "01", " 1", "1 ", "1_0",
    "١", "٢٣", "\U0001d7cf", " 1", "0.5", "1.0", "1.5",
    "-0.5", "0.0", "1e-400", "nan", "NaN", "-nan", "inf", "-inf", "Infinity",
    "1e999", "0x1p3", "1e", "1,5", '"', "a\nb", "s0", "s1", "é",
    "0.5\n", "1\r", "\t1", "\x0b0.5", "1\r\n", "\n0.25",
)
HUGE = "9" * 25  # fits no int64; as an attr it is only used with group names
FORMATS = {
    "dataset": (read_dataset_csv, reference_read_dataset_csv),
    "predictions": (read_predictions_csv, reference_read_predictions_csv),
}


def csv_line(row: list[str]) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="").writerow(row)
    return buf.getvalue()


@st.composite
def dirty_files(draw):
    kind = draw(st.sampled_from(sorted(FORMATS)))
    names = draw(
        st.one_of(
            st.none(),
            st.lists(st.sampled_from(["a", "b", "c", "d", ""]), min_size=1, max_size=4),
        )
    )
    n = draw(st.integers(0, 6))
    number = st.floats(-3.0, 3.0).map(format_float)
    if kind == "dataset":
        d = draw(st.integers(1, 3))
        header = ["id", "attr", "label"] + [f"f{i}" for i in range(d)]
        attr_col = 1
        rows = [
            [f"s{i}", str(draw(st.integers(0, 3))), str(draw(st.integers(0, 1)))]
            + [draw(number) for _ in range(d)]
            for i in range(n)
        ]
    else:
        header = ["id", "score", "label", "attr"]
        attr_col = 3
        rows = [
            [
                f"s{i}",
                format_float(draw(st.floats(0.0, 1.0))),
                str(draw(st.integers(0, 1))),
                str(draw(st.integers(0, 3))),
            ]
            for i in range(n)
        ]
    tokens = TOKENS + (HUGE,)
    for _ in range(draw(st.integers(0, 4))):
        if not rows:
            break
        r = draw(st.integers(0, len(rows) - 1))
        action = draw(st.sampled_from(["cell", "row", "width", "duplicate"]))
        if action in ("cell", "row"):
            # "row" corrupts several cells of one row, to pit checks against
            # each other within a row
            if action == "cell":
                cols = [draw(st.integers(0, len(rows[r]) - 1))]
            else:
                cols = [c for c in range(len(rows[r])) if draw(st.booleans())]
            for c in cols:
                token = draw(st.sampled_from(tokens))
                if c == attr_col and token == HUGE and names is None:
                    token = "1"  # group0..k for k ~ 1e25 would not fit in memory
                rows[r][c] = token
        elif action == "width":
            if draw(st.booleans()):
                rows[r].append("0.5")
            else:
                rows[r].pop()
        else:
            rows[r][0] = rows[draw(st.integers(0, len(rows) - 1))][0]
    lines = [csv_line(header)] + [csv_line(row) for row in rows]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(1, len(lines))), "")
    text = "\n".join(lines) + "\n"
    if draw(st.integers(0, 4)) == 0:
        text = text[: draw(st.integers(0, len(text)))]
    return kind, text, names


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(dirty_files())
def test_readers_match_the_row_by_row_readers(scratch, case):
    kind, text, names = case
    path = scratch / f"{kind}.csv"
    path.write_text(text, encoding="utf-8", newline="")
    read, reference = FORMATS[kind]
    assert outcome(read, str(path), names) == outcome(reference, str(path), names)


# ---------------------------------------------------------------------------
# which error wins when a file has several


def write_lines(tmp_path, lines):
    path = tmp_path / "case.csv"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.mark.parametrize("kind", sorted(FORMATS))
def test_earlier_row_beats_later_short_row(tmp_path, kind):
    if kind == "dataset":
        lines = ["id,attr,label,f0", "a,0,1,0.5", "b,0,7,0.5", "c,0,1,0.5", "d,0,1"]
        message = "line 3: label must be 0 or 1, got 7"
    else:
        lines = ["id,score,label,attr", "a,0.5,1,0", "b,0.5,7,0", "c,0.5,1,0"]
        lines.append("d,0.5,1")
        message = "line 3: record 'b': label must be 0 or 1, got 7"
    path = write_lines(tmp_path, lines)
    for read in FORMATS[kind]:
        with pytest.raises(ValidationError) as exc:
            read(path)
        assert str(exc.value) == message


@pytest.mark.parametrize("kind", sorted(FORMATS))
def test_default_group_ids_must_stay_below_the_record_count(tmp_path, kind):
    if kind == "dataset":
        header, row = "id,attr,label,f0", "r{},{},1,0.5"
    else:
        header, row = "id,score,label,attr", "r{},0.5,1,{}"
    for top, ok in ((2, True), (3, False)):  # three records
        rows = [row.format(i, attr) for i, attr in enumerate((0, 1, top))]
        path = write_lines(tmp_path, [header, *rows])
        for read in FORMATS[kind]:
            if ok:
                read(path)
                continue
            with pytest.raises(ValidationError) as exc:
                read(path)
            assert str(exc.value).endswith(
                "attribute id 3 is not below the record count 3; "
                "pass --groups to name the groups"
            )
            read(path, ("a", "b", "c", "d"))  # named groups lift the bound


@pytest.mark.parametrize("kind", sorted(FORMATS))
def test_duplicate_id_beats_bad_attr_in_the_same_row(tmp_path, kind):
    if kind == "dataset":
        lines = ["id,attr,label,f0", "a,0,1,0.5", "a,x,1,0.5"]
        message = "line 3: duplicate sample id 'a'"
    else:
        lines = ["id,score,label,attr", "a,0.5,1,0", "a,0.5,1,x"]
        message = "line 3: duplicate id 'a'"
    path = write_lines(tmp_path, lines)
    for read in FORMATS[kind]:
        with pytest.raises(ValidationError) as exc:
            read(path)
        assert str(exc.value) == message


@pytest.mark.parametrize("kind", sorted(FORMATS))
def test_blank_lines_count_in_the_line_number(tmp_path, kind):
    if kind == "dataset":
        lines = ["id,attr,label,f0", "", "a,0,1,0.5", "", "", "b,0,1,zzz"]
        message = "line 6: bad feature value (could not convert string to float: 'zzz')"
    else:
        lines = ["id,score,label,attr", "", "a,0.5,1,0", "", "", "b,zzz,1,0"]
        message = "line 6: score 'zzz' is not a number"
    path = write_lines(tmp_path, lines)
    for read in FORMATS[kind]:
        with pytest.raises(ValidationError) as exc:
            read(path)
        assert str(exc.value) == message


# one row failing two checks in a row: the check the row loop meets first wins
WITHIN_A_ROW = [
    ("predictions", "a,x,1,0", "duplicate id 'a'"),
    ("predictions", "b,x,y,0", "score 'x' is not a number"),
    ("predictions", "b,0.5,y,z", "label 'y' is not an integer"),
    ("predictions", "b,1.5,1,z", "attr 'z' is not an integer"),
    ("predictions", "b,1.5,1,-1", "attr must be >= 0, got -1"),
    ("predictions", "b,nan,7,0", "record 'b': score must lie in [0, 1], got nan"),
    ("dataset", "a,x,1,0.5,0.5", "duplicate sample id 'a'"),
    ("dataset", "b,x,y,0.5,0.5", "attr 'x' is not an integer"),
    ("dataset", "b,-1,y,0.5,0.5", "attr must be >= 0, got -1"),
    ("dataset", "b,0,y,zz,0.5", "label 'y' is not an integer"),
    ("dataset", "b,0,7,zz,0.5", "label must be 0 or 1, got 7"),
    (
        "dataset",
        "b,0,1,inf,zz",
        "bad feature value (could not convert string to float: 'zz')",
    ),
]


@pytest.mark.parametrize("kind, row, message", WITHIN_A_ROW)
def test_within_a_row_the_earlier_check_wins(tmp_path, kind, row, message):
    header = "id,score,label,attr" if kind == "predictions" else "id,attr,label,f0,f1"
    good = "a,0.5,1,0" if kind == "predictions" else "a,0,1,0.5,0.5"
    path = write_lines(tmp_path, [header, good, row])
    for read in FORMATS[kind]:
        with pytest.raises(ValidationError) as exc:
            read(path)
        assert str(exc.value) == f"line 3: {message}"


def test_leftmost_bad_feature_is_named(tmp_path):
    lines = ["id,attr,label,f0,f1,f2", "a,0,1,0.5,1.5,2.5", "b,0,1,0.5,yy,xx"]
    path = write_lines(tmp_path, lines)
    for read in FORMATS["dataset"]:
        with pytest.raises(ValidationError, match="line 3: .*'yy'"):
            read(path)


# ---------------------------------------------------------------------------
# write -> read -> write gives the same bytes

GROUPS = ("a", "b", "c")
# any text but surrogates, which UTF-8 cannot encode
ids_strategy = st.lists(
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=6),
    min_size=1,
    max_size=8,
    unique=True,
)


@settings(max_examples=150, deadline=None)
@given(ids=ids_strategy, data=st.data())
def test_dataset_csv_write_read_write_is_byte_identical(scratch, ids, data):
    n = len(ids)
    d = data.draw(st.integers(1, 3))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    x = data.draw(st.lists(finite, min_size=n * d, max_size=n * d))
    dataset = Dataset(
        AttributeSet(GROUPS),
        x=np.array(x).reshape(n, d),
        labels=data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)),
        attrs=data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)),
        ids=tuple(ids),
    )
    write_dataset_csv(dataset, str(scratch / "a.csv"))
    back = read_dataset_csv(str(scratch / "a.csv"), group_names=GROUPS)
    assert columns(back) == columns(dataset)
    write_dataset_csv(back, str(scratch / "b.csv"))
    assert (scratch / "a.csv").read_bytes() == (scratch / "b.csv").read_bytes()


@settings(max_examples=150, deadline=None)
@given(ids=ids_strategy, data=st.data())
def test_predictions_csv_write_read_write_is_byte_identical(scratch, ids, data):
    n = len(ids)
    predictions = Predictions(
        ids=tuple(ids),
        scores=data.draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)),
        labels=data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)),
        attrs=data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)),
    )
    write_predictions_csv(predictions, str(scratch / "a.csv"))
    back = read_predictions_csv(str(scratch / "a.csv"), group_names=GROUPS)
    assert columns(back) == columns((predictions, AttributeSet(GROUPS)))
    write_predictions_csv(back[0], str(scratch / "b.csv"))
    assert (scratch / "a.csv").read_bytes() == (scratch / "b.csv").read_bytes()
