"""The CSV writers' float formatter and the byte blocks they build.

`fileio._format_floats` turns finite doubles into S24 cells, which must
hold exactly the bytes FLOAT_CELL % v gives. Its arithmetic is 64-bit
integer steps, the same on every host. The properties below compare it
bitwise: any double, any bit pattern, exact decimal ties, doubles next to
powers of ten, those whose 17 digits round up to the next decade, and the
values that take the % (zero, subnormals, three-digit exponents). The
writers build each block of lines as bytes, and hand a block to csv.writer
when an id would be quoted, holds a NUL, is not ASCII or is long, or an int
is large; the tests pin that the stock writers' blocks take the byte path,
and that the bytes are the same under numpy's AVX2 paths and for files that
mix both kinds of block.
"""

import math
import os
import subprocess
import sys
import textwrap
from decimal import Decimal
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numeric_fingerprint import fingerprint
from test_csv_writers import (
    AWKWARD_IDS,
    reference_write_dataset_csv,
    reference_write_predictions_csv,
    written,
)
from test_float_cells import FOREIGN_KERNELS

from fin_equity import AttributeSet, Dataset, Predictions, ValidationError, fileio
from fin_equity.fileio import (
    FLOAT_CELL,
    dumps_canonical,
    write_dataset_csv,
    write_predictions_csv,
)

finite = st.floats(allow_nan=False, allow_infinity=False)


def assert_formats_as_percent(values) -> None:
    values = np.asarray(values, np.float64)
    got = fileio._format_floats(values).tolist()
    assert got == [(FLOAT_CELL % v).encode() for v in values.tolist()], fingerprint()


@settings(max_examples=300, deadline=None)
@given(st.lists(finite, min_size=1, max_size=50))
def test_any_double_formats_as_percent_does(values):
    assert_formats_as_percent(values)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=50))
def test_any_bit_pattern_formats_as_percent_does(patterns):
    values = np.array(patterns, np.uint64).view(np.float64)
    assert_formats_as_percent(values[np.isfinite(values)])


@st.composite
def exact_ties(draw):
    """Doubles whose exact decimal has 18 significant digits, the last a 5,
    so that 17 digits fall exactly halfway: r / 2**s with r < 2**53 odd and
    r * 5**s of 18 digits, and their neighbours."""
    s = draw(st.integers(2, 25))
    low, high = -(-(10**17) // 5**s), min(10**18 // 5**s, 2**53)
    r = 2 * draw(st.integers(low // 2, (high - 2) // 2)) + 1
    tie = r / 2**s
    digits = Decimal(tie).as_tuple().digits
    assert len(digits) == 18 and digits[-1] == 5, tie
    sign = draw(st.sampled_from([1.0, -1.0]))
    return [sign * x for x in (math.nextafter(tie, 0), tie, math.nextafter(tie, math.inf))]


@settings(max_examples=300, deadline=None)
@given(st.lists(exact_ties(), min_size=1, max_size=10))
def test_exact_decimal_ties_format_as_percent_does(ties):
    assert_formats_as_percent([x for triple in ties for x in triple])


def powers_of_ten() -> list[float]:
    """10**E as a double for every E, and two doubles on either side."""
    values = []
    for e in range(-323, 309):
        power = float(f"1e{e}")
        below = math.nextafter(power, 0)
        above = math.nextafter(power, math.inf)
        values += [math.nextafter(below, 0), below, power, above]
        values.append(math.nextafter(above, math.inf))
    return [v for v in values if math.isfinite(v)]


def test_doubles_next_to_powers_of_ten_format_as_percent_does():
    values = powers_of_ten()
    assert_formats_as_percent(values + [-v for v in values])


def test_doubles_that_round_up_to_the_next_decade_format_as_percent_does():
    # 1.0000000000000000e+(E + 1) for a double below 10**(E + 1): its 17
    # digits round up to 10**17, and it takes the %
    cells = [(v, (FLOAT_CELL % v).split("e")) for v in powers_of_ten()]
    rounded_up = [
        (v, int(exponent) - 1)  # the double and its decade
        for v, (digits, exponent) in cells
        if digits == "1.0000000000000000" and Decimal(v) < Decimal(10) ** int(exponent)
    ]
    decades = [e for _, e in rounded_up]
    assert -15 in decades and 97 in decades  # 1e-14 and 1e98: k = 31 and -81
    values = [v for v, _ in rounded_up]
    assert_formats_as_percent(values + [-v for v in values])


def test_values_that_take_the_percent_format_as_it_does():
    # zero, subnormals and three-digit exponents take the %
    values = [0.0, 5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308]
    values += [1e-100, 1.7976931348623157e308, 1e100, 1.5e-300]
    # 5**k is exact in 64 bits up to k = 27 (decade -11), and truncated from
    # k = 28 (decade -12) and below k = 0 (decade 17 and up)
    values += [1e-11, 9.999999999999999e-12, 1e-12, 9.99999999999999e43, 1e44]
    values += [1.0, 0.5, 2.0**53 + 2, 9.999999999999999e16, 1 - 2.0**-53]
    # the doubles just below 10**-14 and 10**98, written 1.0000000000000000e-14
    # and e+98
    values += [1e-14, 1e98]
    assert_formats_as_percent(values + [-v for v in values])


def test_checkpoint_arrays_write_as_their_lists_do():
    rng = np.random.default_rng(4)
    for shape in [(), (1,), (7,), (3, 5), (2, 3, 4), (0,), (2, 0)]:
        array = rng.standard_normal(shape) * 10.0 ** rng.integers(-30, 30, shape)
        assert dumps_canonical({"a": array}) == dumps_canonical({"a": array.tolist()})
    array = np.ones((2, 3))
    array[1, 2], array[1, 0] = np.inf, np.nan  # the first in order is named
    with pytest.raises(ValidationError, match="cannot serialize non-finite float nan"):
        dumps_canonical([array])


# ---------------------------------------------------------------------------
# the writers' blocks


def stock_dataset(rows: int, d: int = 4) -> Dataset:
    rng = np.random.default_rng(9)
    return Dataset(
        AttributeSet.default(3),
        rng.standard_normal((rows, d)),
        rng.integers(0, 2, rows),
        rng.integers(0, 3, rows),
        [f"ev-g{i % 3}-{i:05d}" for i in range(rows)],
    )


def stock_predictions(rows: int) -> Predictions:
    dataset = stock_dataset(rows)
    scores = np.random.default_rng(10).random(rows)
    return Predictions(dataset.ids, scores, dataset.labels, dataset.attrs)


def write_both(tmp_path) -> tuple[bytes, bytes]:
    return (
        written(write_dataset_csv, stock_dataset(5000), tmp_path / "data.csv"),
        written(write_predictions_csv, stock_predictions(5000), tmp_path / "preds.csv"),
    )


def test_stock_writer_blocks_take_the_fast_path(tmp_path):
    lines, results = fileio._line_bytes, []

    def spy(block):
        results.append(lines(block))
        return results[-1]

    with (
        mock.patch.object(fileio, "_line_bytes", spy),
        mock.patch.object(fileio, "_format_block", wraps=fileio._format_block) as fmt,
    ):
        write_both(tmp_path)
    # 5,000 rows: 9 blocks of up to 585 rows at d = 4, 5 of 1024 predictions
    assert len(results) == 14
    assert all(r is not None for r in results), fingerprint()
    assert fmt.call_count == 14


@pytest.mark.parametrize(
    "odd", ["n\0l", "x\0", "\0", "é", "日本", "q" * 41, "a,b", 'q"', "l\nf"]
)
def test_a_block_csv_writer_must_write_matches_the_reference(tmp_path, odd):
    # the odd id sits in the second block of each file (585 rows a block at
    # d = 4, 1024 predictions); that block goes to csv.writer, the blocks
    # around it are built as bytes
    rows = 3000
    ids = [f"s{i}" for i in range(rows)]
    ids[1100] = odd
    dataset = stock_dataset(rows)
    dataset = Dataset(dataset.attribute_set, dataset.x, dataset.labels, dataset.attrs, ids)
    predictions = Predictions(ids, stock_predictions(rows).scores, dataset.labels, dataset.attrs)
    lines, refused = fileio._line_bytes, []

    def spy(block):
        result = lines(block)
        refused.append(result is None)
        return result

    for write, reference, data in [
        (write_dataset_csv, reference_write_dataset_csv, dataset),
        (write_predictions_csv, reference_write_predictions_csv, predictions),
    ]:
        expected = written(reference, data, tmp_path / "reference.csv")
        refused.clear()
        with mock.patch.object(fileio, "_line_bytes", spy):
            assert written(write, data, tmp_path / "new.csv") == expected
        assert refused.count(True) == 1 and refused.index(True) == 1, refused


def test_large_group_ids_and_awkward_ids_match_the_reference(tmp_path):
    rows = 2500
    ids = [f"s{i}" for i in range(rows)]
    ids[: len(AWKWARD_IDS)] = AWKWARD_IDS  # "c\rr": every field quoted
    attrs = np.arange(rows) % 3
    attrs[2000] = 10**8  # past the byte path's ints
    for quote_all in (True, False):
        if not quote_all:
            ids[4] = "c r"
        scores = np.random.default_rng(11).random(rows)
        predictions = Predictions(ids, scores, attrs % 2, attrs)
        reference = reference_write_predictions_csv
        expected = written(reference, predictions, tmp_path / "reference.csv")
        assert written(write_predictions_csv, predictions, tmp_path / "new.csv") == expected


FOREIGN_SCRIPT = textwrap.dedent(
    """
    import numpy as np
    from numeric_fingerprint import fingerprint
    from fin_equity import fileio

    rng = np.random.default_rng(12)
    values = rng.standard_normal(20_000) * 10.0 ** rng.integers(-20, 50, 20_000)
    values = np.concatenate([values, rng.random(20_000)])
    got = fileio._format_floats(values).tolist()
    want = [(fileio.FLOAT_CELL % v).encode() for v in values.tolist()]
    print(fingerprint())
    print("same" if got == want else "differ", len(values))
    """
)


def test_the_formatter_keeps_its_bytes_under_numpys_avx2_paths():
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
