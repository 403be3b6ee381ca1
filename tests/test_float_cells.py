"""The CSV readers' parser of the float cells the writers write.

`fileio._writer_floats` reads cells in exactly the form FLOAT_CELL gives a
double with a two-digit exponent, -?D.DDDDDDDDDDDDDDDDe[+-]DD, and must give
the bits float() gives. Any other cell makes it return None, and the cells
then take the S24 cast, or float() in the row loop where that cast refuses
one, so a file reads the same either way. The parser's arithmetic is 64-bit integer steps, the same on every
host: the properties below compare it with float() bitwise, check its table
of powers of five against Python ints, and pin that a double written in any
two-digit decade reads back without float(). The reader tests pin that
writer-form files take it, and that it keeps its bits under numpy's AVX2
paths.
"""

import math
import os
import subprocess
import sys
import textwrap
from decimal import Decimal, localcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numeric_fingerprint import fingerprint
from test_csv_readers import FORMATS, columns, outcome

from fin_equity import AttributeSet, Dataset, Predictions, fileio
from fin_equity.fileio import (
    FLOAT_CELL,
    read_dataset_csv,
    read_predictions_csv,
    write_dataset_csv,
    write_predictions_csv,
)

VALID = "1.0000000000000000e+00"
finite = st.floats(allow_nan=False, allow_infinity=False)


def bits(values) -> list[int]:
    return np.asarray(values, np.float64).view(np.uint64).tolist()


def cell_words(cells) -> np.ndarray | None:
    """The (..., 3) words fileio._cell_words gives str cells (a list, or a
    2-D object array), or None if one holds a ",", "\\n" or NUL: a NUL past
    a cell's text would be masked off, and float() refuses it."""
    cells = np.asarray(cells, object)
    text = "\n".join(cells.reshape(-1)) + "\n"
    if "\0" in text:
        return None
    data = text.encode() + fileio._PAD
    bounds = fileio._cell_bounds(np.frombuffer(data, np.uint8), 1)
    if bounds is None or len(bounds[0]) != cells.size:
        return None
    return fileio._cell_words(data, *bounds).reshape(*cells.shape, 3)


def writer_floats(cells) -> np.ndarray | None:
    """fileio._writer_floats of str cells, as the byte path would give them."""
    words = cell_words(cells)
    return None if words is None else fileio._writer_floats(words)


def assert_reads_as_float(cells: list[str]) -> None:
    got = writer_floats(cells)
    assert got is not None, cells
    assert bits(got) == bits([float(c) for c in cells]), fingerprint()


def two_digit_exponent(cell: str) -> bool:
    return cell[-4] == "e"


@settings(max_examples=300, deadline=None)
@given(st.lists(finite, min_size=1, max_size=40))
def test_written_doubles_read_as_float_does(values):
    cells = [FLOAT_CELL % v for v in values]
    if all(map(two_digit_exponent, cells)):
        assert_reads_as_float(cells)
    else:  # a three-digit exponent is not the form
        assert writer_floats(cells) is None
    short = [c for c in cells if two_digit_exponent(c)]
    if short:
        assert_reads_as_float(short)


seventeen_digit_cells = st.builds(
    lambda sign, digits, exponent: f"{sign}{digits[0]}.{digits[1:]}e{exponent:+03d}",
    st.sampled_from(["", "-"]),
    st.text("0123456789", min_size=17, max_size=17),
    st.integers(-99, 99),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(seventeen_digit_cells, min_size=1, max_size=40))
def test_any_seventeen_digit_cell_reads_as_float_does(cells):
    assert_reads_as_float(cells)


@st.composite
def midpoint_cells(draw):
    """17-digit cells at and next to the midpoint between two adjacent
    doubles: the midpoint itself where 17 digits hold it (integers up to
    10**17), else its 17-digit roundings on either side."""
    if draw(st.booleans()):
        x = float(draw(st.integers(2**53, 10**17 - 1)))
    else:
        x = abs(draw(st.floats(1e-40, 1e60)))
    if draw(st.booleans()):  # around powers of two the gaps differ by 2x
        x = 2.0 ** math.frexp(x)[1]
    y = math.nextafter(x, math.inf if draw(st.booleans()) else 0.0)
    with localcontext() as ctx:
        ctx.prec = 1000
        mid = (Decimal(x) + Decimal(y)) / 2
        step = Decimal(1).scaleb(mid.adjusted() - 16)  # one in the 17th digit
        near = [mid.quantize(step, "ROUND_FLOOR"), mid.quantize(step, "ROUND_CEILING")]
        cells = [f"{d:.16e}" for d in {near[0] - step, *near, near[1] + step}]
    sign = draw(st.sampled_from(["", "-"]))
    return [sign + c for c in cells if two_digit_exponent(c)]


@settings(max_examples=300, deadline=None)
@given(midpoint_cells())
def test_cells_at_and_next_to_midpoints_read_as_float_does(cells):
    if cells:
        assert_reads_as_float(cells)


def test_exact_midpoints_round_to_even():
    # 2**53 + 1 lies halfway between 2**53 and 2**53 + 2
    cells = ["9.0071992547409930e+15", "9.0071992547409950e+15"]
    cells.append("-1.8014398509481985e+16")
    assert_reads_as_float(cells)
    assert writer_floats(cells).tolist() == [2.0**53, 2.0**53 + 4, -(2.0**54)]


def no_float_call():
    """fileio's float(), wrapped, so that a test can count its calls."""
    return mock.patch.object(fileio, "float", wraps=float, create=True)


def test_cells_outside_the_exact_range_read_as_float_does():
    # 5**k is exact in the table only for 0 <= k = exponent - 16 <= 27; these
    # cells, at both ends of the two-digit exponents, read through truncated
    # powers, and zero has any exponent. 1e-14 and 1e98, the doubles just
    # below those powers, are written 1.0000000000000000e-14 and e+98. None
    # takes float().
    cells = ["1.2345678901234567e-12", "9.9999999999999999e+99"]
    cells += ["-4.9406564584124654e-99", "0.0000000000000000e+00"]
    cells += ["-0.0000000000000000e+00", "0.0000000000000000e-99"]
    cells += [FLOAT_CELL % x for x in (1e-14, 1e98, -1e-14, -1e98)]
    assert cells[-4:-2] == ["1.0000000000000000e-14", "1.0000000000000000e+98"]
    with no_float_call() as wrapped:
        assert_reads_as_float(cells)
    assert wrapped.call_count == 0


def test_the_table_holds_each_power_of_five_truncated_to_64_bits():
    # 5**k = (T + f) * 2**g with 0 <= f < 1: T is floor(5**k / 2**g)
    ks = range(-115, 116)
    assert len(fileio._POW5) == len(fileio._POW5_EXP) == len(ks) == 231
    for k, t, g in zip(ks, fileio._POW5.tolist(), fileio._POW5_EXP.tolist()):
        assert 2**63 <= t < 2**64, k
        num, den = 5 ** max(k, 0) << max(-g, 0), 5 ** max(-k, 0) << max(g, 0)
        assert t * den <= num < (t + 1) * den, k


def test_doubles_next_to_every_two_digit_power_of_ten_read_back_without_float():
    # a written double lies far from any midpoint, so none takes float()
    values = []
    for e in range(-99, 99):
        below = above = float(f"1e{e}")
        values.append(below)
        for _ in range(3):
            below, above = math.nextafter(below, 0.0), math.nextafter(above, math.inf)
            values += [below, above]
    cells = [FLOAT_CELL % v for v in values + [-v for v in values]]
    cells = [c for c in cells if two_digit_exponent(c)]
    assert len(cells) > 2500
    with no_float_call() as wrapped:
        assert_reads_as_float(cells)
    assert wrapped.call_count == 0


@pytest.mark.parametrize(
    "cell",
    [
        "1.5",
        "nan",
        "inf",
        "",
        "é",
        "1.0000000000000000e+0",
        "1.0000000000000000e+000",
        "-1.0000000000000000e+000",
        "1.0000000000000000e+00000",  # 25 characters: more than the S24 cast keeps
        "1.0000000000000000E+00",
        "+1.0000000000000000e+00",
        "--1.000000000000000e+00",
        " 1.0000000000000000e+00",
        "1.0000000000000000e+00 ",
        "1.000000000000000e+00",
        "1.00000000000000000e+00",
        "1,0000000000000000e+00",
        "1.000000000000000:e+00",
        "1.0000000000000000f+00",
        "1.0000000000000000e*00",
        "1.0000000000000000e0+0",
        "1.0000000000000000e+0a",
        "1.0000000000000000e+/0",
        "١.0000000000000000e+00",  # a digit float() takes, but not ASCII
    ],
)
def test_other_forms_are_refused(cell):
    assert writer_floats([cell]) is None
    assert writer_floats([VALID, cell, VALID]) is None
    table = np.array([[VALID] * 5, [VALID, VALID, cell, VALID, VALID]], dtype=object)
    assert writer_floats(table) is None


# ---------------------------------------------------------------------------
# the readers: the fast path is taken, and reads as float() does


def dataset(rows: int, d: int = 5) -> Dataset:
    rng = np.random.default_rng(7)
    x = rng.standard_normal((rows, d)) * 10.0 ** rng.integers(-14, 30, (rows, d))
    x[::97, 0] = 2.0**53 + 2  # next to a midpoint
    return Dataset(
        AttributeSet.default(3),
        x,
        rng.integers(0, 2, rows),
        rng.integers(0, 3, rows),
        [f"s{i}" for i in range(rows)],
    )


def predictions(rows: int) -> Predictions:
    rng = np.random.default_rng(8)
    scores = rng.random(rows) ** 8
    scores[::50] = np.round(scores[::50], 2)
    return Predictions(
        [f"p{i}" for i in range(rows)],
        scores,
        rng.integers(0, 2, rows),
        rng.integers(0, 3, rows),
    )


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """A dataset and a predictions file from the writers, each several chunks long."""
    root = tmp_path_factory.mktemp("float_cells")
    data, preds = str(root / "data.csv"), str(root / "preds.csv")
    write_dataset_csv(dataset(20_000), data)
    write_predictions_csv(predictions(40_000), preds)
    return data, preds


def read_both(data: str, preds: str) -> tuple:
    return columns(read_dataset_csv(data)), columns(read_predictions_csv(preds))


def test_writer_files_take_the_fast_path(written):
    parse, results = fileio._writer_floats, []

    def spy(words):
        results.append(parse(words))
        return results[-1]

    with mock.patch.object(fileio, "_writer_floats", spy):
        read_both(*written)
    # 20,000 x 5 features and 40,000 scores: at least three chunks each
    assert len(results) >= 6
    assert all(r is not None for r in results), fingerprint()


MIXED = ["0.5", "1", " 0.25 ", "1e-3", "0_0.5", "-0.0", "7.0000000000000000E-01"]


@pytest.mark.parametrize("kind", sorted(FORMATS))
@pytest.mark.parametrize("quoted", [False, True], ids=["plain", "csv-reader"])
def test_chunks_mixing_forms_read_as_today(tmp_path, kind, quoted):
    read, reference = FORMATS[kind]
    rng = np.random.default_rng(3)
    lines = ["id,attr,label,f0,f1" if kind == "dataset" else "id,score,label,attr"]
    for i in range(3000):
        other = MIXED[i % len(MIXED)] if i % 5 == 0 else FLOAT_CELL % rng.random()
        own = FLOAT_CELL % rng.random()
        sid = f'"s{i}"' if quoted and i == 2000 else f"s{i}"
        cells = [sid, str(i % 3), str(i % 2), own, other]
        if kind == "predictions":
            cells = [sid, other, str(i % 2), str(i % 3)]
        lines.append(",".join(cells))
    path = tmp_path / f"{kind}.csv"
    path.write_text("\n".join(lines) + "\n")
    got = outcome(read, str(path), None)
    assert got[0] == "ok" and got == outcome(reference, str(path), None)


@pytest.mark.parametrize("kind", sorted(FORMATS))
def test_a_nul_after_a_writer_cell_is_refused_as_today(tmp_path, kind):
    # csv.reader passes the NUL through; the bytes cast would drop it
    read, reference = FORMATS[kind]
    if kind == "dataset":
        lines = ["id,attr,label,f0", f"s0,0,1,{VALID}", f"s1,1,0,{VALID}\0"]
    else:
        lines = ["id,score,label,attr", f"p0,{VALID},1,0", f"p1,{VALID}\0,0,1"]
    path = tmp_path / f"{kind}.csv"
    path.write_text("\n".join(lines) + "\n")
    got = outcome(read, str(path), None)
    assert got[0] == "error" and got == outcome(reference, str(path), None)


FOREIGN_KERNELS = {"NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4"}
FOREIGN_SCRIPT = textwrap.dedent(
    """
    import numpy as np
    from numeric_fingerprint import fingerprint
    from fin_equity import fileio
    from test_float_cells import writer_floats

    rng = np.random.default_rng(11)
    values = rng.standard_normal(20_000) * 10.0 ** rng.integers(-20, 40, 20_000)
    cells = [fileio.FLOAT_CELL % v for v in values.tolist()]
    digits = rng.integers(0, 10, (20_000, 17)).tolist()
    cells += [f"{d[0]}.{''.join(map(str, d[1:]))}e{e:+03d}"
              for d, e in zip(digits, rng.integers(-40, 60, 20_000).tolist())]
    got = writer_floats(cells)
    want = np.array([float(c) for c in cells])
    same = got is not None and np.array_equal(got.view(np.uint64), want.view(np.uint64))
    print(fingerprint())
    print("same" if same else "differ", len(cells))
    """
)


def test_the_parser_keeps_its_bits_under_numpys_avx2_paths():
    tests = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ, **FOREIGN_KERNELS)
    env["PYTHONPATH"] = os.pathsep.join([tests, env.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-c", FOREIGN_SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    printed, verdict = proc.stdout.splitlines()
    assert "AVX512_ICL" not in printed, printed  # the switch took
    assert verdict == "same 40000", printed
