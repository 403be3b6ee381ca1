"""The CSV readers on files long enough to be read in several chunks.

The readers tokenize a file in chunks of about `fileio.CHUNK_CELLS` cells
and check each chunk in record order. These tests pin, on files that span
several chunks of the default size, that the outcome is the one a reader of
the whole file gives: a decode error or an oversized field anywhere before
the first wrong-width row beats every check, ids are unique across chunks,
blank rows count in later line numbers, and group ids are range-checked only
after every row has passed. The row-by-row fuzz of test_csv_readers then
runs again with chunks a few cells long and byte blocks
(`fileio.CHUNK_TEXT`) a few bytes long, so that chunk edges, block edges
and the switch from the byte path to csv.reader fall between any two
records. Files from the writers, with one dirty line of each kind at each
position, read as the row-by-row readers read them, at every block size
and with the float parser switched off too; clean ones (12 groups,
non-ASCII ids and short floats among them) never reach csv.reader, and
CRLF files read as their LF twins, their writer-form float cells through
the byte path's parser. The header is checked before any data row is
decoded. An id first read on the byte path and repeated after a dirty
line, where csv.reader reads it, is still named as a duplicate, and ids
far longer than the writers' ID_BYTES stay on the byte path.
"""

import csv
import itertools
import os
import subprocess
import sys
import threading
import time
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_csv_readers import FORMATS, columns, dirty_files, outcome
from test_float_cells import dataset as float_dataset
from test_float_cells import predictions as float_predictions
from test_float_cells import writer_floats
from test_memory import traced

from fin_equity import AttributeSet, Dataset, Predictions, ValidationError, cli, fileio
from fin_equity.fileio import read_dataset_csv, write_dataset_csv, write_predictions_csv
from fin_equity.synth import default_benchmark, generate

ROWS = 60_000  # over three chunks of the default size in both formats
HEADERS = {"dataset": "id,attr,label,f0", "predictions": "id,score,label,attr"}
READERS = {kind: read for kind, (read, _) in FORMATS.items()}
UNDECODABLE = b"\xff"
FIELD_LIMIT = 131_072  # csv.field_size_limit()'s default


def row(kind: str, i: int, attr: str = "", label: str = "") -> str:
    attr = attr or str(i % 3)
    label = label or str(i % 2)
    if kind == "dataset":
        return f"s{i},{attr},{label},{i % 7 / 8}"
    return f"s{i},{i % 9 / 8},{label},{attr}"


def write_file(tmp_path, kind, rows, tail=b""):
    """Write the header and rows; tail is raw bytes appended after them."""
    path = tmp_path / f"{kind}.csv"
    text = "\n".join([HEADERS[kind]] + rows) + "\n"
    path.write_bytes(text.encode() + tail)
    return str(path)


def read_error(kind, path, group_names=None) -> str:
    with pytest.raises(ValidationError) as exc:
        READERS[kind](path, group_names)
    return str(exc.value)


def good_rows(kind):
    return [row(kind, i) for i in range(ROWS)]


@pytest.mark.parametrize("kind", sorted(READERS))
def test_late_undecodable_byte_beats_an_early_bad_label(tmp_path, kind):
    rows = good_rows(kind)
    rows[1] = row(kind, 1, label="7")  # line 3
    path = write_file(tmp_path, kind, rows[:-1], tail=UNDECODABLE + rows[-1].encode())
    assert "is not valid UTF-8" in read_error(kind, path)
    # without the byte, the label is the error
    path = write_file(tmp_path, kind, rows)
    assert read_error(kind, path).startswith("line 3: ")


@pytest.mark.parametrize("kind", sorted(READERS))
def test_late_oversized_field_beats_an_early_bad_label(tmp_path, kind):
    rows = good_rows(kind)
    rows[1] = row(kind, 1, label="7")  # line 3
    late = ROWS - 10
    rows[late] = "x" * (FIELD_LIMIT + 1) + rows[late][rows[late].index(","):]
    message = read_error(kind, write_file(tmp_path, kind, rows))
    assert message.endswith(
        f"line {late + 2}: field larger than field limit ({FIELD_LIMIT})"
    )


@pytest.mark.parametrize("kind", sorted(READERS))
def test_decode_error_after_a_wrong_width_row_does_not_count(tmp_path, kind):
    rows = good_rows(kind)
    rows[1] = row(kind, 1, label="7")  # line 3
    rows[30_000] += ",0.5"  # too wide; reading stops here
    path = write_file(tmp_path, kind, rows, tail=UNDECODABLE)
    assert read_error(kind, path).startswith("line 3: ")


@pytest.mark.parametrize("kind", sorted(READERS))
def test_duplicate_id_far_from_its_first_use_is_named_at_the_later_line(
    tmp_path, kind
):
    rows = good_rows(kind)
    later = 5 + 40_000
    rows[later] = "s5" + rows[later][rows[later].index(","):]
    message = read_error(kind, write_file(tmp_path, kind, rows))
    what = "duplicate sample id" if kind == "dataset" else "duplicate id"
    assert message == f"line {later + 2}: {what} 's5'"


@pytest.mark.parametrize("kind", sorted(READERS))
def test_blank_rows_shift_a_later_error_line(tmp_path, kind):
    rows = good_rows(kind)
    bad = 50_000
    rows[bad] = row(kind, bad, attr="-1")
    rows[3:3] = ["", "", ""]  # three blank records early in the file
    message = read_error(kind, write_file(tmp_path, kind, rows))
    assert message == f"line {bad + 2 + 3}: attr must be >= 0, got -1"


HUGE_ATTR = str(10**25)  # fits no int64


@pytest.mark.parametrize("kind", sorted(READERS))
def test_huge_attr_with_one_group_name_is_out_of_range(tmp_path, kind):
    rows = [row(kind, i, attr="0") for i in range(ROWS)]
    rows[10] = row(kind, 10, attr=HUGE_ATTR)
    path = write_file(tmp_path, kind, rows)
    assert read_error(kind, path, ["a"]) == (
        f"attribute id {HUGE_ATTR} out of range for the 1 provided group names"
    )
    # every row is checked before the group ids: a later bad label wins
    rows[ROWS - 5] = row(kind, ROWS - 5, attr="0", label="7")
    path = write_file(tmp_path, kind, rows)
    assert read_error(kind, path, ["a"]).startswith(f"line {ROWS - 3}: ")


def test_huge_attr_report_exits_2(tmp_path, capsys):
    rows = [row("predictions", i, attr="0") for i in range(ROWS)]
    rows[10] = row("predictions", 10, attr=HUGE_ATTR)
    path = write_file(tmp_path, "predictions", rows)
    (tmp_path / "groups.json").write_text('{"groups": ["a"]}')
    code = cli.run([
        "report",
        "--predictions", path,
        "--groups", str(tmp_path / "groups.json"),
        "--out", str(tmp_path / "report.json"),
    ])
    assert code == 2
    assert "out of range for the 1 provided group names" in capsys.readouterr().err


@pytest.mark.parametrize("kind", sorted(READERS))
def test_multi_chunk_file_reads_every_row(tmp_path, kind):
    rows = good_rows(kind)
    rows[20_000:20_000] = [""]  # a blank record mid-file
    value = READERS[kind](write_file(tmp_path, kind, rows))
    if kind == "dataset":
        ids, labels, attrs = value.ids, value.labels, value.attrs
        column = value.x[:, 0]
    else:
        ids, labels, attrs = value[0].ids, value[0].labels, value[0].attrs
        column = value[0].scores
    n = np.arange(ROWS)
    assert ids == tuple(f"s{i}" for i in range(ROWS))
    assert labels.tolist() == (n % 2).tolist()
    assert attrs.tolist() == (n % 3).tolist()
    step = 7 if kind == "dataset" else 9
    assert column.tolist() == ((n % step) / 8).tolist()


def crlf_text(kind, rows, first):
    """The file of write_file with "\r\n" ending every row from rows[first] on."""
    lines = [HEADERS[kind]] + rows
    ends = ["\n"] * (first + 1) + ["\r\n"] * (len(rows) - first)
    return "".join(map(str.__add__, lines, ends))


@pytest.mark.parametrize("kind", sorted(READERS))
def test_crlf_file_reads_as_its_lf_twin(tmp_path, kind):
    rows = good_rows(kind)
    lf = columns(READERS[kind](write_file(tmp_path, kind, rows)))
    path = tmp_path / "crlf.csv"
    for first in (0, ROWS // 2):  # every row, or the plain blocks end mid-file
        path.write_text(crlf_text(kind, rows, first), encoding="utf-8", newline="")
        assert columns(READERS[kind](str(path))) == lf


@pytest.mark.parametrize("kind", sorted(READERS))
@pytest.mark.parametrize("chunk_text", range(1, 25))
def test_crlf_at_any_block_edge_keeps_line_numbers(tmp_path, kind, chunk_text):
    # a block of chunk_text characters may end between a "\r" and its "\n";
    # the pair still ends one record, so a later error names the LF twin's line
    rows = [row(kind, i) for i in range(12)]
    rows[10] = row(kind, 10, label="7")
    lf = read_error(kind, write_file(tmp_path, kind, rows))
    path = tmp_path / "crlf.csv"
    path.write_text(crlf_text(kind, rows, 2), encoding="utf-8", newline="")
    with mock.patch.object(fileio, "CHUNK_TEXT", chunk_text):
        assert read_error(kind, str(path)) == lf
    assert lf.startswith("line 12: ")


# ---------------------------------------------------------------------------
# tiny chunks and blocks: the row-by-row fuzz with a chunk edge, a block edge
# and the switch from plain blocks to csv.reader between any two records


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("chunks")


def match_the_row_by_row_readers(scratch, case, chunk_cells, chunk_text):
    kind, text, names = case
    path = scratch / f"{kind}.csv"
    path.write_text(text, encoding="utf-8", newline="")
    read, reference = FORMATS[kind]
    with (
        mock.patch.object(fileio, "CHUNK_CELLS", chunk_cells),
        mock.patch.object(fileio, "CHUNK_TEXT", chunk_text),
    ):
        got = outcome(read, str(path), names)
    assert got == outcome(reference, str(path), names)


@pytest.mark.parametrize("chunk_cells", [1, 2, 3, 7, 13])
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=dirty_files())
def test_tiny_chunks_match_the_row_by_row_readers(scratch, chunk_cells, case):
    match_the_row_by_row_readers(scratch, case, chunk_cells, fileio.CHUNK_TEXT)


@pytest.mark.parametrize("chunk_text", [1, 7, 64])
@pytest.mark.parametrize("chunk_cells", [1, 2, 3, 7, 13])
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=dirty_files())
def test_tiny_blocks_match_the_row_by_row_readers(scratch, chunk_cells, chunk_text, case):
    match_the_row_by_row_readers(scratch, case, chunk_cells, chunk_text)


# ---------------------------------------------------------------------------
# the byte path: files from the writers with one dirty line at every
# position, read in blocks of every size, with the float parser on and off


def writer_lines(tmp_path, kind: str) -> list[bytes]:
    """The lines of a small file from the writers, header first."""
    rng = np.random.default_rng(5)
    rows = 8
    attrs, labels = np.arange(rows) % 3, np.arange(rows) % 2
    path = str(tmp_path / f"writer_{kind}.csv")
    if kind == "dataset":
        x = rng.standard_normal((rows, 2)) * 10.0 ** rng.integers(-5, 5, (rows, 2))
        ids = [f"s{i}" for i in range(rows)]
        write_dataset_csv(Dataset(AttributeSet.default(3), x, labels, attrs, ids), path)
    else:
        ids = [f"p{i}" for i in range(rows)]
        write_predictions_csv(Predictions(ids, rng.random(rows), labels, attrs), path)
    with open(path, "rb") as f:
        return f.read().splitlines(keepends=True)


def with_cell(line: bytes, column: int, cell: bytes) -> bytes:
    cells = line.rstrip(b"\n").split(b",")
    cells[column] = cell
    return b",".join(cells) + b"\n"


# kind -> (attr, label, float) columns
COLUMNS = {"dataset": (1, 2, 4), "predictions": (3, 2, 1)}
# one line that the byte path refuses, or reads, as csv.reader would
DIRTY = {
    "quote": lambda line, c, other: b'"' + line.replace(b",", b'",', 1),
    "crlf": lambda line, c, other: line[:-1] + b"\r\n",
    "nul": lambda line, c, other: with_cell(line, 0, b"n\0l"),
    "non-ascii id": lambda line, c, other: with_cell(line, 0, "é".encode()),
    "invalid utf-8": lambda line, c, other: with_cell(line, 0, b"s\xff"),
    "blank": lambda line, c, other: b"\n" + line,
    "wide": lambda line, c, other: line[:-1] + b",0.5\n",
    "narrow": lambda line, c, other: line[: line.rindex(b",")] + b"\n",
    # as many cells as two rows, on two lines of the wrong widths
    "wide, then narrow": lambda line, c, other: (
        line[:-1] + b",0.5\n" + other[: other.rindex(b",")] + b"\n"
    ),
    # a new id at the end of one line, the next line without its id: as
    # many cells as two rows, each run of width cells a valid row
    "id moved up a line": lambda line, c, other: (
        line[:-1] + b",x9\n" + other.split(b",", 1)[1]
    ),
    "float form": lambda line, c, other: with_cell(line, c[2], b"0.5"),
    "two-digit attr": lambda line, c, other: with_cell(line, c[0], b"10"),
    "negative attr": lambda line, c, other: with_cell(line, c[0], b"-1"),
    "label out of range": lambda line, c, other: with_cell(line, c[1], b"2"),
    "duplicate id": lambda line, c, other: with_cell(line, 0, other.split(b",")[0]),
    "inf": lambda line, c, other: with_cell(line, c[2], b"inf"),
    "nan": lambda line, c, other: with_cell(line, c[2], b"nan"),
}


def reference_outcome(kind, path):
    """The row-by-row reader's outcome; it leaves a decode error unnamed."""
    try:
        return outcome(FORMATS[kind][1], path, None)
    except UnicodeDecodeError as exc:
        return "error", f"{path!r} is not valid UTF-8 ({exc.reason})"


@pytest.mark.parametrize("dirt", sorted(DIRTY))
@pytest.mark.parametrize("kind", sorted(READERS))
def test_a_dirty_line_anywhere_reads_as_the_row_by_row_readers(tmp_path, kind, dirt):
    header, *lines = writer_lines(tmp_path, kind)
    path = tmp_path / "dirty.csv"
    for r in range(len(lines)):
        other = lines[r - 1] if r else lines[1]
        dirty = [*lines[:r], DIRTY[dirt](lines[r], COLUMNS[kind], other), *lines[r + 1 :]]
        path.write_bytes(b"".join([header, *dirty]))
        want = reference_outcome(kind, str(path))
        for chunk_text, chunk_cells in itertools.product(
            [1, 7, 64, fileio.CHUNK_TEXT], [5, fileio.CHUNK_CELLS]
        ):
            with (
                mock.patch.object(fileio, "CHUNK_TEXT", chunk_text),
                mock.patch.object(fileio, "CHUNK_CELLS", chunk_cells),
            ):
                got = outcome(READERS[kind], str(path), None)
            assert got == want, (r, chunk_text, chunk_cells)


def csv_reader_rows(rows: list):
    """A stand-in for csv.reader that records every row it yields."""
    reader = csv.reader

    def spy(*args, **kwargs):
        for row in reader(*args, **kwargs):
            rows.append(row)
            yield row

    return mock.patch.object(csv, "reader", spy)


def plain_file(path, kind: str, variant: str) -> None:
    """A file every block of which the byte path reads: from the writers
    (3 groups), from the writers with 12 groups and non-ASCII ids, or
    written by hand with short floats."""
    if variant == "writer" and kind == "dataset":
        write_dataset_csv(float_dataset(20_000), str(path))
    elif variant == "writer":
        write_predictions_csv(float_predictions(40_000), str(path))
    elif variant == "12 groups" and kind == "dataset":
        d = float_dataset(5_000)
        ids = [f"é{i}" for i in range(len(d.x))]
        attrs = np.arange(len(d.x)) % 12
        write_dataset_csv(Dataset(AttributeSet.default(12), d.x, d.labels, attrs, ids), str(path))
    elif variant == "12 groups":
        p = float_predictions(5_000)
        ids = [f"é{i}" for i in range(len(p.scores))]
        attrs = np.arange(len(p.scores)) % 12
        write_predictions_csv(Predictions(ids, p.scores, p.labels, attrs), str(path))
    else:  # short floats, some with an exponent
        rng = np.random.default_rng(9)
        v = rng.random((5_000, 4)) * 10.0 ** rng.integers(-6, 3, (5_000, 4))
        lines = [HEADERS[kind] + (",f1,f2,f3" if kind == "dataset" else "")]
        for i, (a, b, c, e) in enumerate(v.tolist()):
            if kind == "dataset":
                lines.append(f"s{i},{i % 3},{i % 2},{a:.6g},{-b:.4g},{c:g},{e:.3e}")
            else:
                lines.append(f"s{i},{a / 200:.5g},{i % 2},{i % 3}")
        path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("fast", [True, False])
@pytest.mark.parametrize("variant", ["writer", "12 groups", "short floats"])
@pytest.mark.parametrize("kind", sorted(READERS))
def test_plain_files_take_the_byte_path(tmp_path, kind, variant, fast):
    # only the header reaches csv.reader; a CRLF twin sends every row to it,
    # and its cells on to the byte path's parsers. Without the writer-form
    # parser (fast False) every float cell of the byte path takes the S24
    # cast, which must read the same values.
    path = tmp_path / "plain.csv"
    plain_file(path, kind, variant)
    want = reference_outcome(kind, str(path))
    assert want[0] == "ok"
    rows: list = []
    writer_floats = fileio._writer_floats if fast else lambda words: None
    with (
        mock.patch.object(fileio, "_writer_floats", writer_floats),
        csv_reader_rows(rows),
    ):
        assert columns(READERS[kind](str(path))) == want[1]
    with open(path, encoding="utf-8") as f:
        assert rows == [f.readline().rstrip("\n").split(",")]
    twin = tmp_path / "crlf.csv"
    twin.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    rows.clear()
    parsed: list = []  # the float cells of each call to the writer-form parser
    parse = fileio._writer_floats

    def counted(words):
        parsed.append(words.size // 3)
        return parse(words)

    with csv_reader_rows(rows), mock.patch.object(fileio, "_writer_floats", counted):
        assert columns(READERS[kind](str(twin))) == want[1]
    assert len(rows) == 1 + len(want[1][0])
    if variant == "writer":
        _, shape, _ = want[1][2][0]  # the float column(s)
        assert sum(parsed) == np.prod(shape)


def pipe_file(path, kind: str, case: str) -> str | None:
    """Write the case's file; return the error its reads must give, if any.

    The error cases are one refused block of about 32 KB: a quoted id on
    line 2, then a row of 3 fields and an undecodable byte, in either order.
    """
    if case == "crlf half":  # plain blocks, then CRLF lines
        plain_file(path, kind, "12 groups")
        data = path.read_bytes()
        half = len(data) // 2
        path.write_bytes(data[:half] + data[half:].replace(b"\n", b"\r\n"))
        return None
    lines = [row(kind, i).encode() for i in range(2400)]
    lines[0] = b'"s0"' + lines[0][2:]
    bad_row, bad_byte = (10, -1) if case == "bad row, then bad byte" else (-1, 1200)
    lines[bad_row] = lines[bad_row][: lines[bad_row].rindex(b",")]
    lines[bad_byte] = UNDECODABLE + lines[bad_byte]
    path.write_bytes(b"\n".join([HEADERS[kind].encode(), *lines]) + b"\n")
    assert len(path.read_bytes()) < fileio.CHUNK_TEXT
    if bad_row == 10:
        return "line 12: expected 4 fields, got 3"
    return f"{str(path)!r} is not valid UTF-8 (invalid start byte)"


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes here")
@pytest.mark.parametrize(
    "kind, case",
    [
        pytest.param(kind, case, id=kind if case == "crlf half" else f"{kind}-{case}")
        for case in ("crlf half", "bad row, then bad byte", "bad byte, then bad row")
        for kind in sorted(READERS)
    ],
)
def test_a_pipe_reads_as_its_file(tmp_path, kind, case):
    # csv.reader reads a pipe's refused block as it reads a file's
    path = tmp_path / "file.csv"
    error = pipe_file(path, kind, case)
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    writer = threading.Thread(target=pipe.write_bytes, args=(path.read_bytes(),))
    writer.start()
    try:
        got = outcome(READERS[kind], str(pipe), None)
    finally:
        writer.join()
    want = outcome(READERS[kind], str(path), None)
    if error is None:
        assert got[0] == "ok" and got == want
    else:
        assert want == ("error", error)
        assert got == ("error", error.replace(str(path), str(pipe)))


def test_a_nul_after_a_writer_float_cell_is_refused():
    cell = "1.0000000000000000e+00"
    assert writer_floats([cell]).tolist() == [1.0]
    with pytest.raises(ValueError):
        float(cell + "\0")
    assert writer_floats([cell + "\0"]) is None


@pytest.mark.parametrize("quoted", [False, True])
@pytest.mark.parametrize("kind", sorted(READERS))
def test_the_header_is_checked_before_any_row_is_decoded(tmp_path, kind, quoted):
    # a wrong header is named even with an undecodable byte on line 2, but
    # an undecodable byte in the header line is a decode error
    header = HEADERS[kind].replace("label", "lbl")
    if quoted:
        header = ",".join(f'"{cell}"' for cell in header.split(","))
    path = tmp_path / "header.csv"
    path.write_bytes(header.encode() + b"\n" + row(kind, 0).encode() + UNDECODABLE + b"\n")
    assert read_error(kind, str(path)).startswith("line 1: header")
    path.write_bytes(header.encode() + UNDECODABLE + b"\n" + row(kind, 0).encode() + b"\n")
    assert read_error(kind, str(path)) == f"{str(path)!r} is not valid UTF-8 (invalid start byte)"


# ---------------------------------------------------------------------------
# memory: at most one chunk's cells are alive at a time


def test_dataset_read_peak_is_a_few_times_what_it_keeps(tmp_path):
    config = default_benchmark(0)
    sizes = (6667, 6667, 6666)  # 20,000 rows
    config = replace(
        config,
        groups=tuple(replace(g, n_eval=n) for g, n in zip(config.groups, sizes)),
    )
    path = str(tmp_path / "eval.csv")
    write_dataset_csv(generate(config)[1], path)
    dataset, kept, peak = traced(lambda: read_dataset_csv(path))  # with its columns
    assert len(dataset) == 20_000
    assert peak <= 4 * kept, (peak, kept)



@pytest.mark.parametrize("kind", sorted(READERS))
def test_earlier_chunk_duplicate_beats_a_later_chunks_bad_label(tmp_path, kind):
    rows = [row(kind, i) for i in range(40)]
    rows[12] = "s3" + rows[12][rows[12].index(","):]  # line 14, a later chunk
    rows[30] = row(kind, 30, label="7")  # line 32, a chunk after that
    path = write_file(tmp_path, kind, rows)
    what = "duplicate sample id" if kind == "dataset" else "duplicate id"
    with mock.patch.object(fileio, "CHUNK_CELLS", 4 * 5):  # five rows a chunk
        assert read_error(kind, path) == f"line 14: {what} 's3'"


# ids used twice: an id's key must not depend on which path read it
TWICE = {
    "ascii": "s10",
    "non-ascii": "é-ü-10",
    "long": "record-" + "x" * fileio.ID_BYTES + "-10",
}
DIRTY_LINE = {
    "crlf": lambda line: line + "\r",
    "quote": lambda line: '"' + line.replace(",", '",', 1),
}


def with_id(line: str, sid: str) -> str:
    return sid + line[line.index(",") :]


def read_duplicate(tmp_path, kind, rows, sid, first, repeat) -> list:
    """Assert the read names the repeat as the row-by-row reader does, and
    return the rows csv.reader gave."""
    rows[first], rows[repeat] = with_id(rows[first], sid), with_id(rows[repeat], sid)
    path = write_file(tmp_path, kind, rows)
    read: list = []
    with csv_reader_rows(read):
        message = read_error(kind, path)
    what = "duplicate sample id" if kind == "dataset" else "duplicate id"
    assert message == f"line {repeat + 2}: {what} {sid!r}"
    assert reference_outcome(kind, path) == ("error", message)
    return read


@pytest.mark.parametrize("dirt", sorted(DIRTY_LINE))
@pytest.mark.parametrize("sid", sorted(TWICE))
@pytest.mark.parametrize("kind", sorted(READERS))
def test_a_duplicate_across_the_byte_path_and_csv_reader_is_found(
    tmp_path, kind, sid, dirt
):
    # about 115 KB: the first use is in the first block, which is plain;
    # the second block holds the dirty line, so csv.reader reads the repeat
    rows = good_rows(kind)[:8_000]
    rows[7_000] = DIRTY_LINE[dirt](rows[7_000])
    read = read_duplicate(tmp_path, kind, rows, TWICE[sid], 10, 7_500)
    assert [row[0] for row in read].count(TWICE[sid]) == 1  # the repeat only


@pytest.mark.parametrize("sid", ["long", "non-ascii"])
@pytest.mark.parametrize("kind", sorted(READERS))
def test_a_duplicate_in_one_plain_block_is_found(tmp_path, kind, sid):
    rows = good_rows(kind)[:3_000]
    read = read_duplicate(tmp_path, kind, rows, TWICE[sid], 10, 2_000)
    assert read == [HEADERS[kind].split(",")]  # the byte path read every row


@pytest.mark.parametrize("kind", sorted(READERS))
def test_long_ids_among_short_ones_take_the_byte_path(tmp_path, kind):
    # ids of up to about 40,000 bytes, past FLOAT_BLOCK words, and one of
    # about 60 bytes in the last short lines, whose words run past the
    # block's end
    rows = good_rows(kind)[:3_000]
    for r, n in [(100, 5_000), (101, 40_000), (102, 9), (2_000, 300), (2_995, 60)]:
        rows[r] = with_id(rows[r], f"{r}-" + "é" * (n // 2 - 3))
    path = write_file(tmp_path, kind, rows)
    want = reference_outcome(kind, path)
    assert want[0] == "ok"
    read: list = []
    with csv_reader_rows(read):
        assert outcome(READERS[kind], path, None) == want
    assert read == [HEADERS[kind].split(",")]


@pytest.mark.parametrize("kind", sorted(READERS))
def test_ids_that_share_one_key_are_read_in_linear_time(tmp_path, kind):
    # every id gets key 0, as ids built to collide would, so all 20,000 are
    # candidates: a set reads them in under 0.1 s, a comparison of each with
    # every earlier one took about 3 s on a 2-vCPU x86-64 host
    rows = good_rows(kind)[:20_000]
    rows[19_990] = with_id(rows[19_990], "s10")
    path = write_file(tmp_path, kind, rows)
    id_column = fileio._id_column

    def one_key(data, starts, lengths, column, keys):
        id_column(data, starts, lengths, column, keys)
        keys[:] = 0

    with mock.patch.object(fileio, "_id_column", one_key):
        start = time.perf_counter()
        message = read_error(kind, path)
        seconds = time.perf_counter() - start
    what = "duplicate sample id" if kind == "dataset" else "duplicate id"
    assert message == f"line 19992: {what} 's10'"
    assert seconds < 1.0


def test_duplicate_error_does_not_depend_on_the_hash_seed(tmp_path):
    rows = good_rows("predictions")
    rows[45_000] = "s40000" + rows[45_000][rows[45_000].index(","):]
    rows[50_000] = "s7" + rows[50_000][rows[50_000].index(","):]
    path = write_file(tmp_path, "predictions", rows)
    code = (
        "import sys\n"
        "from fin_equity import ValidationError, read_predictions_csv\n"
        "try:\n"
        "    read_predictions_csv(sys.argv[1])\n"
        "except ValidationError as exc:\n"
        "    print(exc)\n"
    )
    outputs = []
    for seed in ("0", "1"):  # one process after the other
        done = subprocess.run(
            [sys.executable, "-c", code, path],
            capture_output=True,
            env={**os.environ, "PYTHONHASHSEED": seed},
        )
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1] == b"line 45002: duplicate id 's40000'\n"
