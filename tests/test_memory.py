"""Memory pins for the audit, scoring and writing paths, on generated inputs.

Each pin bounds a call's tracemalloc peak, over what was traced before the
call, by a multiple of a size that sets its scale: the columns a read
keeps, the score column an audit reads, the first hidden layer over all
rows (which the blocked forward never holds at once), the features a write
formats. The bounds sit between the peaks of the earlier code and of the
current one (noted at each bound), so a working set that grows back to the
earlier size fails the pin. The write's pin instead bounds the block of
rows it formats at a time, which earlier code did not have, and the float
parser's pin the block of cells it parses at a time.

One pin reads peak RSS instead, in a subprocess: memory that repeated
reads leave behind, such as heap holes that grow from read to read, is
not traced memory, so tracemalloc does not see it.
"""

import csv
import gc
import subprocess
import sys
import textwrap
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from test_float_cells import cell_words

from fin_equity import (
    AttributeSet,
    Dataset,
    Predictions,
    ValidationError,
    fileio,
    full_report,
    read_predictions_csv,
)
from fin_equity.fileio import FLOAT_CELL, write_dataset_csv, write_predictions_csv
from fin_equity.net import forward, init_mlp
from fin_equity.norms import NormKind

RECORDS = 100_000
SHARES = (0.3, 0.2, 0.15, 0.12, 0.1, 0.07, 0.04, 0.02)  # eight unequal groups


def traced(call):
    """(result, kept bytes, peak bytes) of call, over what was traced before it.

    The readers keep each chunk's columns in anonymous memory maps
    (fileio._mapped), which tracemalloc does not see; here they are numpy
    arrays, so that every read is measured with its columns.
    """
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        with mock.patch.object(fileio, "_mapped", np.empty):
            result = call()
        kept, peak = (size - base for size in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    return result, kept, peak


@pytest.fixture(scope="module")
def predictions_csv(tmp_path_factory):
    """An audit cohort: 5% of scores rounded to 2 decimals, one group all positive."""
    rng = np.random.default_rng(5)
    sizes = [round(s * RECORDS) for s in SHARES]
    attrs = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
    labels = (rng.random(RECORDS) < 0.4).astype(int)
    labels[attrs == len(sizes) - 1] = 1
    scores = 1.0 / (1.0 + np.exp(-(2 * labels - 1) - rng.normal(size=RECORDS)))
    rounded = rng.random(RECORDS) < 0.05
    scores[rounded] = np.round(scores[rounded], 2)
    path = tmp_path_factory.mktemp("memory") / "preds.csv"
    with open(path, "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["id", "score", "label", "attr"])
        w.writerows(
            (f"p{i:06d}", format(s, ".16e"), y, a)
            for i, (s, y, a) in enumerate(zip(scores, labels, attrs))
        )
    return str(path)


def test_predictions_read_peak_is_under_twice_what_it_keeps(predictions_csv):
    (predictions, _), kept, peak = traced(lambda: read_predictions_csv(predictions_csv))
    assert len(predictions) == RECORDS
    # 2.1x while the duplicate-id set outlived the read, 1.7x since
    assert peak <= 1.9 * kept, (peak, kept)


def test_predictions_read_error_peak_is_near_a_clean_reads(tmp_path):
    records = 60_000
    rows = [f"p{i:06d},{i % 97 / 96!r},{i % 2},{i % 4}" for i in range(records)]
    clean, bad = tmp_path / "clean.csv", tmp_path / "bad.csv"
    clean.write_text("\n".join(["id,score,label,attr", *rows]) + "\n")
    rows[-1] = f"p{records - 1:06d},0.5,7,0"  # the last row's label is bad
    bad.write_text("\n".join(["id,score,label,attr", *rows]) + "\n")
    _, _, clean_peak = traced(lambda: read_predictions_csv(str(clean)))

    def refused():
        with pytest.raises(ValidationError) as exc:
            read_predictions_csv(str(bad))
        return str(exc.value)

    message, _, peak = traced(refused)
    assert message == (
        f"line {records + 1}: record 'p059999': label must be 0 or 1, got 7"
    )
    # 1.00x (4.3 MB) with the error found by column checks, 1.00x (4.1 MB)
    # with it named by a row loop, 2.2x with a set of every earlier id
    assert peak <= 1.25 * clean_peak, (peak, clean_peak)


def test_predictions_read_drains_past_an_early_error_in_one_chunk(tmp_path):
    records = 60_000
    rows = [f"p{i:06d},{i % 97 / 96!r},{i % 2},{i % 4}" for i in range(records)]
    clean, bad = tmp_path / "clean.csv", tmp_path / "bad.csv"
    clean.write_text("\n".join(["id,score,label,attr", *rows]) + "\n")
    rows[0] = "p000000,0.5,7,0"  # the first row's label is bad
    bad.write_text("\n".join(["id,score,label,attr", *rows]) + "\n")
    _, _, clean_peak = traced(lambda: read_predictions_csv(str(clean)))

    def refused():
        with pytest.raises(ValidationError) as exc:
            read_predictions_csv(str(bad))
        return str(exc.value)

    message, _, peak = traced(refused)
    assert message == "line 2: record 'p000000': label must be 0 or 1, got 7"
    # 0.36x (1.5 MB) both with a private drain loop in the chunk generator
    # and with the chunks pulled unconverted; 0.59x with a drained chunk's
    # cells alive while the next is read, 1.05x with later chunks converted
    assert peak <= 0.45 * clean_peak, (peak, clean_peak)


def test_report_peak_is_a_few_score_columns(predictions_csv):
    predictions, attribute_set = read_predictions_csv(predictions_csv)
    report, _, peak = traced(lambda: full_report(predictions, attribute_set))
    assert report.per_group[len(SHARES) - 1]["auc"] is None  # single-class group
    # 10 score columns with a per-record rank array per AUC, 4.4 without
    assert peak <= 7 * predictions.scores.nbytes, (peak, predictions.scores.nbytes)


@pytest.mark.parametrize("kind", list(NormKind), ids=lambda k: k.value)
def test_inference_forward_peak_is_under_three_quarters_of_a_hidden_layer(kind):
    rng = np.random.default_rng(0)
    model = init_mlp((20, 32, 16), kind, 3, rng)
    rows = 20_000
    x = rng.standard_normal((rows, 20))
    attrs = np.arange(rows) % 3
    (logits, _), _, peak = traced(lambda: forward(model, x, attrs, mode="inference"))
    assert logits.shape == (rows, 2)
    hidden = rows * 32 * 8  # the first layer's float64 output
    # 1.51-2.01 hidden layers with every layer's output over all rows,
    # 0.58-0.61 with the backbone and normalizer in blocks of rows
    assert peak <= 0.75 * hidden, (peak, hidden)


def test_predictions_read_keeps_under_48_bytes_per_record(predictions_csv):
    (predictions, _), kept, _ = traced(lambda: read_predictions_csv(predictions_csv))
    assert len(predictions) == RECORDS
    # about 84 with a str per id in a tuple, 40 with a StringDType id column
    assert kept <= 48 * RECORDS, kept / RECORDS


def test_dataset_write_peak_is_under_half_its_features(tmp_path):
    rng = np.random.default_rng(1)
    rows = 20_000
    dataset = Dataset(
        AttributeSet.default(3),
        rng.standard_normal((rows, 20)),
        rng.integers(0, 2, rows),
        rng.integers(0, 3, rows),
        [f"s{i:06d}" for i in range(rows)],
    )
    path = tmp_path / "data.csv"
    _, _, peak = traced(lambda: write_dataset_csv(dataset, str(path)))
    assert path.stat().st_size > rows * 20 * 24
    # 0.15x formatting one value at a time, about 0.2x in blocks of 128
    # rows, 0.7x in blocks of 1024 and 2.5x in blocks of 4096
    assert peak <= 0.5 * dataset.x.nbytes, (peak, dataset.x.nbytes)


def test_predictions_write_peak_is_under_its_scores(tmp_path):
    rng = np.random.default_rng(6)
    rows = 100_000
    predictions = Predictions(
        [f"p{i:06d}" for i in range(rows)],
        rng.random(rows),
        rng.integers(0, 2, rows),
        rng.integers(0, 8, rows),
    )
    path = tmp_path / "preds.csv"
    _, _, peak = traced(lambda: write_predictions_csv(predictions, str(path)))
    assert path.stat().st_size > rows * 30
    # 6.4x with a "%.16e" % score per record into csv.writer, 0.7x with
    # the lines built as bytes in blocks of 1024 records
    assert peak <= 1.0 * predictions.scores.nbytes, (peak, predictions.scores.nbytes)


def test_float_parse_peak_is_a_few_blocks_not_a_chunk():
    rng = np.random.default_rng(2)
    rows, d = 1424, 20  # one dataset chunk of CHUNK_CELLS cells at d = 20
    table = np.array(
        [FLOAT_CELL % v for v in rng.standard_normal(rows * d).tolist()], dtype=object
    ).reshape(rows, d)
    words = cell_words(table)  # as the byte path gives them; not traced
    x, kept, peak = traced(lambda: fileio._writer_floats(words))
    assert x is not None and kept >= x.nbytes
    # 0.68 MB over the result in blocks of 4096 cells, 1.39 MB in blocks of
    # 8192 and 4.82 MB for the chunk at once
    assert peak - x.nbytes <= 1 << 20, (peak, x.nbytes)


RSS_SCRIPT = textwrap.dedent(
    """
    import resource, sys
    import numpy as np
    from fin_equity import AttributeSet, Dataset
    from fin_equity.fileio import read_dataset_csv, write_dataset_csv

    rng = np.random.default_rng(3)
    rows = 20_000
    dataset = Dataset(
        AttributeSet.default(3),
        rng.standard_normal((rows, 20)),
        rng.integers(0, 2, rows),
        rng.integers(0, 3, rows),
        [f"s{i:06d}" for i in range(rows)],
    )
    write_dataset_csv(dataset, sys.argv[1])
    for read in range(1, 13):
        read_dataset_csv(sys.argv[1])
        if read in (3, 12):
            print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    """
)


def test_repeated_dataset_reads_do_not_grow_peak_rss(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", RSS_SCRIPT, str(tmp_path / "data.csv")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    third, twelfth = map(int, proc.stdout.split())  # KB on Linux
    # 24-44 KB before the float parser, 4-32 KB with it (6 runs each), and
    # 63 MB for a parser that kept a 512 KB buffer per call. (With each
    # read's dataset kept alive during the next, growth moved by up to
    # 3 MB from one batch of runs to the next, before and after.)
    assert twelfth - third <= 1024, (third, twelfth)
