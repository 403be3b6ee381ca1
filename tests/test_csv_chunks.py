"""The CSV readers on files long enough to be read in several chunks.

The readers tokenize a file in chunks of about `fileio.CHUNK_CELLS` cells
and check each chunk in record order. These tests pin, on files that span
several chunks of the default size, that the outcome is the one a reader of
the whole file gives: a decode error or an oversized field anywhere before
the first wrong-width row beats every check, ids are unique across chunks,
blank rows count in later line numbers, and group ids are range-checked only
after every row has passed. The row-by-row fuzz of test_csv_readers then
runs again with chunks a few cells long and text blocks
(`fileio.CHUNK_TEXT`) a few characters long, so that chunk edges, block
edges and the switch from plain blocks to csv.reader fall between any two
records. A second fuzz pins that the plain blocks split into the cells and
record numbers csv.reader gives, and that only a line csv.reader reads
otherwise ends them; CRLF files read as their LF twins.
"""

import csv
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_csv_readers import FORMATS, columns, dirty_files, outcome

from fin_equity import ValidationError, cli, fileio
from fin_equity.fileio import read_dataset_csv, write_dataset_csv
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


# cell text with no comma, quote, "\r", "\n" or NUL; str.splitlines breaks
# lines at \x0b, \x0c, \x1c-\x1e, \x85 and \u2028-\u2029, but csv and io do not
PLAIN_CELLS = st.text(
    st.sampled_from(" a1.-é\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029\U0001d7cf"), max_size=4
)
# one line that is not plain: csv.reader reads it and every line after it
DIRT = {
    "crlf": lambda line: line + "\r",
    "lone cr": lambda line: line + "\r" + line,
    "quoted": lambda line: '"a,\nb"' + line[line.index(","):],
    "nul": lambda line: "\0" + line,
    "wide": lambda line: line + ",x",
    # 2 * width + 1 fields: the line's "\n" still falls on the stride
    "wider by width + 1": lambda line: f"{line},{line},x",
    "blank": lambda line: "\n" + line,
}


@st.composite
def plain_files(draw):
    """(width, text, dirty): a CSV of plain rows, perhaps with one dirty line,
    with or without a final newline."""
    width = draw(st.integers(2, 5))
    rows = draw(st.lists(st.lists(PLAIN_CELLS, min_size=width, max_size=width), max_size=30))
    lines = [",".join(r) for r in [[f"h{i}" for i in range(width)], *rows]]
    dirt = draw(st.sampled_from([None, *DIRT])) if rows else None
    if dirt is not None:
        r = draw(st.integers(1, len(rows)))
        lines[r] = DIRT[dirt](lines[r])
    return width, "\n".join(lines) + draw(st.sampled_from(["", "\n"])), dirt is not None


@pytest.mark.parametrize("chunk_text", [1, 7, 64, fileio.CHUNK_TEXT])
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=plain_files())
def test_plain_blocks_split_as_csv_reader_does(scratch, chunk_text, case):
    width, text, dirty = case
    path = scratch / "plain.csv"
    path.write_text(text, encoding="utf-8", newline="")
    with open(path, encoding="utf-8", newline="") as f:
        records = list(csv.reader(f))  # the header is record 1
    rows, lines, wrong = [], [], None
    for line, r in enumerate(records[1:], 2):
        if r and len(r) != width:
            wrong = len(r)
            break
        if r:
            rows += r
            lines.append(line)
    split, refused = fileio._plain_cells, []  # refused: blocks left to csv.reader

    def plain_cells(block, width):
        cells = split(block, width)
        if cells is None:
            refused.append(block)
        return cells

    got, numbers, wrongs = [], [], []
    with (
        mock.patch.object(fileio, "CHUNK_CELLS", 5),
        mock.patch.object(fileio, "CHUNK_TEXT", chunk_text),
        mock.patch.object(fileio, "_plain_cells", plain_cells),
    ):
        for cells, chunk in fileio._read_chunks(str(path), len):
            got += cells
            numbers += map(chunk.line_of, range(len(cells) // width))
            wrongs.append(chunk.wrong)
    assert got == rows
    assert numbers == lines
    assert wrongs.count(None) == len(wrongs) - (wrong is not None)
    assert wrong is None or wrongs[-1] == wrong
    assert bool(refused) == dirty


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
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        dataset = read_dataset_csv(path)
        kept, peak = (size - base for size in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
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
