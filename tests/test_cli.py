"""End-to-end checks of the command-line interface via subprocesses."""

import csv
import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from fin_equity import Predictions, write_predictions_csv
from fin_equity.cli import run
from reference_fixtures import reconciliation_records

TRAIN_CONFIG = {
    "layer_dims": [4, 6, 5],
    "norm_kind": "fair_identity",
    "fin_momentum": 0.3,
    "epochs": 2,
    "batch_size": 8,
    "optimizer": {"lr": 1e-3},
    "threshold": 0.5,
}

SYNTH_CONFIG = {
    "d": 4,
    "seed": 0,
    "groups": [
        {"name": "g0", "n_train": 24, "n_eval": 12, "prevalence": 0.5,
         "separation": 2.0, "offset": 1.0},
        {"name": "g1", "n_train": 24, "n_eval": 12, "prevalence": 0.5,
         "separation": 1.2, "offset": -1.0},
    ],
}


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "fin_equity", *args],
        capture_output=True,
        text=True,
        env=env,
    )


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One synth -> train pipeline shared by the read-only CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    (root / "synth.json").write_text(json.dumps(SYNTH_CONFIG))
    (root / "train.json").write_text(json.dumps(TRAIN_CONFIG))
    r = run_cli(
        "synth",
        "--config", str(root / "synth.json"),
        "--out-train", str(root / "train.csv"),
        "--out-eval", str(root / "eval.csv"),
    )
    assert r.returncode == 0, r.stderr
    r = run_cli(
        "train",
        "--config", str(root / "train.json"),
        "--train", str(root / "train.csv"),
        "--eval", str(root / "eval.csv"),
        "--seeds", "1,2",
        "--out-prefix", str(root / "run_"),
    )
    assert r.returncode == 0, r.stderr
    return root


def test_synth_output(workdir):
    lines = (workdir / "train.csv").read_text().splitlines()
    assert lines[0] == "id,attr,label,f0,f1,f2,f3"
    assert len(lines) == 1 + 48
    eval_lines = (workdir / "eval.csv").read_text().splitlines()
    assert len(eval_lines) == 1 + 24


def test_synth_is_deterministic(tmp_path, workdir):
    r = run_cli(
        "synth",
        "--config", str(workdir / "synth.json"),
        "--out-train", str(tmp_path / "t.csv"),
        "--out-eval", str(tmp_path / "e.csv"),
    )
    assert r.returncode == 0
    assert (tmp_path / "t.csv").read_bytes() == (workdir / "train.csv").read_bytes()
    assert "g0: 24 train / 12 eval" in r.stdout


def test_synth_seed_override_changes_the_data(tmp_path, workdir):
    r = run_cli(
        "synth",
        "--config", str(workdir / "synth.json"),
        "--seed", "123",
        "--out-train", str(tmp_path / "t.csv"),
        "--out-eval", str(tmp_path / "e.csv"),
    )
    assert r.returncode == 0
    assert (tmp_path / "t.csv").read_bytes() != (workdir / "train.csv").read_bytes()


def test_train_outputs(workdir):
    for seed in (1, 2):
        assert (workdir / f"run_checkpoint_seed{seed}.json").exists()
        history = json.loads((workdir / f"run_history_seed{seed}.json").read_text())
        assert history["seed"] == seed
        assert len(history["loss"]) == 2
        assert len(history["reports"]) == 2
    agg = json.loads((workdir / "run_aggregate.json").read_text())
    assert agg["seeds"] == [1, 2]
    assert "es_auc" in agg["metrics"]
    assert len(agg["metrics"]["auc"]["per_seed"]) == 2
    assert "es_from_means" in agg


def test_train_prints_the_table(workdir):
    r = run_cli(
        "train",
        "--config", str(workdir / "train.json"),
        "--train", str(workdir / "train.csv"),
        "--eval", str(workdir / "eval.csv"),
        "--seeds", "1",
        "--out-prefix", str(workdir / "tbl_"),
    )
    assert r.returncode == 0
    # the CSVs carry no group names, so the default labels appear
    for label in ("ES-Acc", "ES-AUC", "DPD", "DEOdds", "AUC[group0]", "AUC[group1]"):
        assert label in r.stdout, r.stdout


def test_train_threads_env_gives_identical_results(workdir, tmp_path):
    # the variable of the removed thread pool is ignored, even a bad value
    r = run_cli(
        "train",
        "--config", str(workdir / "train.json"),
        "--train", str(workdir / "train.csv"),
        "--eval", str(workdir / "eval.csv"),
        "--seeds", "1,2",
        "--out-prefix", str(tmp_path / "par_"),
        env_extra={"FIN_EQUITY_THREADS": "many"},
    )
    assert r.returncode == 0, r.stderr
    assert (tmp_path / "par_aggregate.json").read_bytes() == (
        workdir / "run_aggregate.json"
    ).read_bytes()
    for seed in (1, 2):
        assert (tmp_path / f"par_checkpoint_seed{seed}.json").read_bytes() == (
            workdir / f"run_checkpoint_seed{seed}.json"
        ).read_bytes()


def test_evaluate_writes_report_and_predictions(workdir):
    r = run_cli(
        "evaluate",
        "--checkpoint", str(workdir / "run_checkpoint_seed1.json"),
        "--data", str(workdir / "eval.csv"),
        "--out", str(workdir / "report.json"),
        "--preds-out", str(workdir / "preds.csv"),
    )
    assert r.returncode == 0, r.stderr
    report = json.loads((workdir / "report.json").read_text())
    assert set(report) >= {
        "threshold", "overall", "per_group", "delta", "equity_scaled",
        "dpd", "deodds", "group_sizes", "undefined",
    }
    assert report["group_sizes"] == {"0": 12, "1": 12}
    preds = (workdir / "preds.csv").read_text().splitlines()
    assert preds[0] == "id,score,label,attr"
    assert len(preds) == 1 + 24
    assert "accuracy" in r.stdout and "auc" in r.stdout


def test_evaluate_threshold_flag(workdir, tmp_path):
    r = run_cli(
        "evaluate",
        "--checkpoint", str(workdir / "run_checkpoint_seed1.json"),
        "--data", str(workdir / "eval.csv"),
        "--threshold", "0.3",
        "--out", str(tmp_path / "r.json"),
    )
    assert r.returncode == 0
    assert json.loads((tmp_path / "r.json").read_text())["threshold"] == 0.3


def test_report_on_reconciliation_predictions(tmp_path):
    records, _ = reconciliation_records()
    write_predictions_csv(records, str(tmp_path / "preds.csv"))
    r = run_cli(
        "report",
        "--predictions", str(tmp_path / "preds.csv"),
        "--out", str(tmp_path / "report.json"),
        "--hist-out", str(tmp_path / "hist.csv"),
        "--bins", "10",
    )
    assert r.returncode == 0, r.stderr
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["overall"]["auc"] == 0.8695
    assert report["per_group"]["0"]["auc"] == 0.8929
    assert report["per_group"]["1"]["auc"] == 0.8166
    assert report["per_group"]["2"]["auc"] == 0.8936
    assert report["equity_scaled"]["auc"] == 0.790167
    assert report["dpd"] == 0.495
    assert report["deodds"] == 0.7
    hist = (tmp_path / "hist.csv").read_text().splitlines()
    assert hist[0] == "bin_lo,bin_hi,tp,fp,tn,fn"
    assert len(hist) == 1 + 10


def test_report_percent_display(tmp_path):
    records, _ = reconciliation_records()
    write_predictions_csv(records, str(tmp_path / "preds.csv"))
    r = run_cli(
        "report",
        "--predictions", str(tmp_path / "preds.csv"),
        "--out", str(tmp_path / "report.json"),
        "--percent",
    )
    assert r.returncode == 0
    assert "86.95" in r.stdout  # percentages on screen
    # but the file stays in fractions
    assert json.loads((tmp_path / "report.json").read_text())["overall"]["auc"] == 0.8695


def test_sweep_momentum_cli(workdir, tmp_path):
    r = run_cli(
        "sweep-momentum",
        "--config", str(workdir / "train.json"),
        "--train", str(workdir / "train.csv"),
        "--eval", str(workdir / "eval.csv"),
        "--grid", "0:1:0.5",
        "--seeds", "1",
        "--out", str(tmp_path / "sweep.json"),
    )
    assert r.returncode == 0, r.stderr
    payload = json.loads((tmp_path / "sweep.json").read_text())
    assert payload["m"] == [0.0, 0.5, 1.0]
    assert payload["seeds"] == [1]
    for key in ("auc", "es_auc", "dpd", "deodds"):
        assert len(payload[key]["mean"]) == 3
        assert len(payload[key]["std"]) == 3


def test_missing_file_is_exit_2(tmp_path):
    r = run_cli(
        "evaluate",
        "--checkpoint", str(tmp_path / "nope.json"),
        "--data", str(tmp_path / "nope.csv"),
        "--out", str(tmp_path / "r.json"),
    )
    assert r.returncode == 2
    assert "error:" in r.stderr


def test_malformed_csv_is_exit_2(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("id,score,label,attr\nrow,2.5,1,0\n")
    r = run_cli(
        "report",
        "--predictions", str(bad),
        "--out", str(tmp_path / "r.json"),
    )
    assert r.returncode == 2
    assert "line 2" in r.stderr


def test_bad_flags_are_exit_2():
    assert run_cli("train").returncode == 2  # missing required flags
    assert run_cli("no-such-command").returncode == 2
    assert run_cli().returncode == 2


def test_bad_grid_is_exit_2(workdir, tmp_path):
    r = run_cli(
        "sweep-momentum",
        "--config", str(workdir / "train.json"),
        "--train", str(workdir / "train.csv"),
        "--eval", str(workdir / "eval.csv"),
        "--grid", "0-1-0.5",
        "--seeds", "1",
        "--out", str(tmp_path / "s.json"),
    )
    assert r.returncode == 2
    assert "--grid" in r.stderr


def error_lines(stderr):
    return [line for line in stderr.splitlines() if line.startswith("error:")]


def test_uncoercible_train_config_value_is_exit_2(workdir, tmp_path):
    config = tmp_path / "train.json"
    config.write_text(json.dumps({**TRAIN_CONFIG, "epochs": "abc"}))
    r = run_cli(
        "train",
        "--config", str(config),
        "--train", str(workdir / "train.csv"),
        "--eval", str(workdir / "eval.csv"),
        "--seeds", "1",
        "--out-prefix", str(tmp_path / "x_"),
    )
    assert r.returncode == 2, r.stderr
    assert error_lines(r.stderr), r.stderr
    assert "Traceback" not in r.stderr


def test_uncoercible_synth_config_value_is_exit_2(tmp_path):
    config = tmp_path / "synth.json"
    config.write_text(json.dumps({**SYNTH_CONFIG, "d": "x"}))
    r = run_cli(
        "synth",
        "--config", str(config),
        "--out-train", str(tmp_path / "train.csv"),
        "--out-eval", str(tmp_path / "eval.csv"),
    )
    assert r.returncode == 2, r.stderr
    assert error_lines(r.stderr), r.stderr
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize(
    "config, message",
    [
        ([TRAIN_CONFIG], "train config must be a JSON object"),
        ({**TRAIN_CONFIG, "optimizer": "adamw"}, "optimizer must be a JSON object"),
        (
            {**TRAIN_CONFIG, "fin_momentm": 0.5},
            "unknown key 'fin_momentm' in train config; closest valid key is 'fin_momentum'",
        ),
        ({**TRAIN_CONFIG, "shuffle": "false"}, "'shuffle' must be a boolean, got 'false'"),
    ],
)
def test_malformed_train_config_is_exit_2(workdir, tmp_path, config, message):
    path = tmp_path / "train.json"
    path.write_text(json.dumps(config))
    r = run_cli(
        "train",
        "--config", str(path),
        "--train", str(workdir / "train.csv"),
        "--eval", str(workdir / "eval.csv"),
        "--seeds", "1",
        "--out-prefix", str(tmp_path / "x_"),
    )
    assert r.returncode == 2, r.stderr
    assert message in r.stderr
    assert "Traceback" not in r.stderr


def test_diverged_training_is_exit_2(workdir, tmp_path):
    # a finite but absurd learning rate overflows the loss in the first steps
    config = tmp_path / "train.json"
    config.write_text(json.dumps({**TRAIN_CONFIG, "optimizer": {"lr": 1e300}}))
    r = run_cli(
        "train",
        "--config", str(config),
        "--train", str(workdir / "train.csv"),
        "--eval", str(workdir / "eval.csv"),
        "--seeds", "1",
        "--out-prefix", str(tmp_path / "run_"),
    )
    assert r.returncode == 2, r.stderr
    assert error_lines(r.stderr) == ["error: non-finite loss for seed 1 at epoch 0, batch 1"]
    assert "Traceback" not in r.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["train.json"]


def test_unknown_synth_group_key_is_exit_2(tmp_path):
    groups = [{**SYNTH_CONFIG["groups"][0], "ofset": 1.0}]
    config = tmp_path / "synth.json"
    config.write_text(json.dumps({**SYNTH_CONFIG, "groups": groups}))
    r = run_cli(
        "synth",
        "--config", str(config),
        "--out-train", str(tmp_path / "train.csv"),
        "--out-eval", str(tmp_path / "eval.csv"),
    )
    assert r.returncode == 2, r.stderr
    assert "unknown key 'ofset' in synth config group 0; closest valid key is 'offset'" in r.stderr


def test_non_finite_checkpoint_is_exit_2(workdir, tmp_path):
    data = json.loads((workdir / "run_checkpoint_seed1.json").read_text())
    data["head"]["w"][0][0] = float("nan")
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(data))
    r = run_cli(
        "evaluate",
        "--checkpoint", str(path),
        "--data", str(workdir / "eval.csv"),
        "--out", str(tmp_path / "r.json"),
    )
    assert r.returncode == 2, r.stderr
    assert "head.w: non-finite value" in r.stderr


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("epoch", "abc", "'epoch' must be an integer, got 'abc'"),
        ("kind", "bogus", "norm.kind 'bogus' does not match config.norm_kind"),
    ],
)
def test_bad_checkpoint_scalar_or_kind_is_exit_2(workdir, tmp_path, key, value, message):
    data = json.loads((workdir / "run_checkpoint_seed1.json").read_text())
    (data if key == "epoch" else data["norm"])[key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    r = run_cli(
        "evaluate",
        "--checkpoint", str(path),
        "--data", str(workdir / "eval.csv"),
        "--out", str(tmp_path / "r.json"),
    )
    assert r.returncode == 2, r.stderr
    assert message in r.stderr


def test_sweep_momentum_table_labels_each_blend_value(workdir, tmp_path):
    r = run_cli(
        "sweep-momentum",
        "--config", str(workdir / "train.json"),
        "--train", str(workdir / "train.csv"),
        "--eval", str(workdir / "eval.csv"),
        "--grid", "0:1:0.25",
        "--seeds", "1",
        "--out", str(tmp_path / "sweep.json"),
    )
    assert r.returncode == 0, r.stderr
    table = r.stdout.splitlines()[1:]
    assert table[0].split()[:2] == ["m", "AUC"]
    labels = [line.split()[0] for line in table[1:]]
    assert labels == ["0.0", "0.25", "0.5", "0.75", "1.0"]
    ends = {line.index(line.split()[0]) + len(line.split()[0]) for line in table}
    assert len(ends) == 1  # the m column is right-aligned under its header


UNDECODABLE = b"\xff\xfe not utf-8"


@pytest.mark.parametrize("target", ["train.csv", "train.json", "groups.json"])
def test_undecodable_train_input_is_exit_2(workdir, tmp_path, target):
    for name in ("train.csv", "train.json"):
        (tmp_path / name).write_bytes((workdir / name).read_bytes())
    (tmp_path / "groups.json").write_text('{"groups": ["g0", "g1"]}')
    good = (tmp_path / target).read_bytes()
    (tmp_path / target).write_bytes(good[:10] + UNDECODABLE + good[10:])
    r = run_cli(
        "train",
        "--config", str(tmp_path / "train.json"),
        "--train", str(tmp_path / "train.csv"),
        "--eval", str(workdir / "eval.csv"),
        "--seeds", "1",
        "--out-prefix", str(tmp_path / "x_"),
        "--groups", str(tmp_path / "groups.json"),
    )
    assert r.returncode == 2, r.stderr
    assert f"{target}' is not valid UTF-8" in r.stderr
    assert "Traceback" not in r.stderr


def test_undecodable_synth_config_is_exit_2(tmp_path):
    config = tmp_path / "synth.json"
    config.write_bytes(json.dumps(SYNTH_CONFIG).encode()[:20] + UNDECODABLE)
    r = run_cli(
        "synth",
        "--config", str(config),
        "--out-train", str(tmp_path / "train.csv"),
        "--out-eval", str(tmp_path / "eval.csv"),
    )
    assert r.returncode == 2, r.stderr
    assert "synth config" in r.stderr and "not valid UTF-8" in r.stderr
    assert "Traceback" not in r.stderr


def test_undecodable_checkpoint_is_exit_2(workdir, tmp_path):
    path = tmp_path / "ck.json"
    path.write_bytes((workdir / "run_checkpoint_seed1.json").read_bytes() + UNDECODABLE)
    r = run_cli(
        "evaluate",
        "--checkpoint", str(path),
        "--data", str(workdir / "eval.csv"),
        "--out", str(tmp_path / "r.json"),
    )
    assert r.returncode == 2, r.stderr
    assert "checkpoint" in r.stderr and "not valid UTF-8" in r.stderr
    assert "Traceback" not in r.stderr


def test_undecodable_predictions_csv_is_exit_2(tmp_path):
    bad = tmp_path / "preds.csv"
    bad.write_bytes(b"id,score,label,attr\nrow,0.5,1,0\nr\xff,0.5,1,0\n")
    r = run_cli("report", "--predictions", str(bad), "--out", str(tmp_path / "r.json"))
    assert r.returncode == 2, r.stderr
    assert "preds.csv' is not valid UTF-8" in r.stderr
    assert "Traceback" not in r.stderr


def test_oversized_csv_field_is_exit_2(tmp_path):
    bad = tmp_path / "preds.csv"
    bad.write_text("id,score,label,attr\nrow,0.5,1,0\n" + "x" * 200_000 + ",0.5,1,0\n")
    r = run_cli("report", "--predictions", str(bad), "--out", str(tmp_path / "r.json"))
    assert r.returncode == 2, r.stderr
    assert "preds.csv' line 3: field larger than field limit" in r.stderr
    assert "Traceback" not in r.stderr


def test_group_id_beyond_the_record_count_is_exit_2(tmp_path):
    # without --groups the default names would run group0..group2000000
    preds = tmp_path / "preds.csv"
    preds.write_text("id,score,label,attr\na,0.5,1,0\nb,0.25,0,2000000\n")
    out = tmp_path / "r.json"
    r = run_cli("report", "--predictions", str(preds), "--out", str(out))
    assert r.returncode == 2, r.stderr
    assert "attribute id 2000000 is not below the record count 2" in r.stderr
    assert "--groups" in r.stderr
    assert "Traceback" not in r.stderr
    assert not out.exists()


@pytest.mark.parametrize(
    "grid, message",
    [
        ("0:1:nan", "finite"),
        ("nan:1:0.5", "finite"),
        ("0:inf:1", "finite"),
        ("0:1:1e-8", "more than 10000 points"),
        ("0:1e308:1e-300", "more than 10000 points"),  # the count overflows
    ],
)
def test_unbounded_grid_is_exit_2(workdir, tmp_path, grid, message):
    r = run_cli(
        "sweep-momentum",
        "--config", str(workdir / "train.json"),
        "--train", str(workdir / "train.csv"),
        "--eval", str(workdir / "eval.csv"),
        "--grid", grid,
        "--seeds", "1",
        "--out", str(tmp_path / "s.json"),
    )
    assert r.returncode == 2, r.stderr
    assert error_lines(r.stderr) == [line for line in r.stderr.splitlines() if line]
    assert message in r.stderr and "Traceback" not in r.stderr


@pytest.mark.parametrize(
    "bins, message",
    [("0", "bins must be >= 1, got 0"),
     ("1000000000000", "bins must be <= 100000, got 1000000000000")],
)
def test_bins_out_of_range_is_exit_2_before_the_read(tmp_path, bins, message):
    # the file is not even there: the bin count is refused first
    r = run_cli(
        "report",
        "--predictions", str(tmp_path / "absent.csv"),
        "--bins", bins,
        "--out", str(tmp_path / "r.json"),
    )
    assert r.returncode == 2, r.stderr
    assert error_lines(r.stderr) == [f"error: {message}"]


@pytest.fixture(scope="module")
def three_group_run(tmp_path_factory):
    """A fair_identity checkpoint trained on a 3-group cohort, and its eval CSV."""
    root = tmp_path_factory.mktemp("three")
    config = dict(SYNTH_CONFIG)
    config["groups"] = SYNTH_CONFIG["groups"] + [
        {"name": "g2", "n_train": 24, "n_eval": 12, "prevalence": 0.5,
         "separation": 1.5, "offset": 0.0},
    ]
    (root / "synth.json").write_text(json.dumps(config))
    (root / "train.json").write_text(json.dumps({**TRAIN_CONFIG, "epochs": 1}))
    for args in (
        ["synth", "--config", str(root / "synth.json"),
         "--out-train", str(root / "train.csv"), "--out-eval", str(root / "eval.csv")],
        ["train", "--config", str(root / "train.json"), "--train", str(root / "train.csv"),
         "--eval", str(root / "eval.csv"), "--seeds", "1", "--out-prefix", str(root / "run_")],
    ):
        r = run_cli(*args)
        assert r.returncode == 0, r.stderr
    return root


def slice_of_group(root, gid, rows):
    lines = (root / "eval.csv").read_text().splitlines()
    picked = [line for line in lines[1:] if line.split(",")[1] == str(gid)][:rows]
    path = root / f"slice{gid}.csv"
    path.write_text("\n".join([lines[0]] + picked) + "\n")
    return path


def test_evaluate_bounds_group_ids_by_the_fin_checkpoint(three_group_run):
    root = three_group_run
    out = root / "slice_report.json"
    r = run_cli(
        "evaluate",
        "--checkpoint", str(root / "run_checkpoint_seed1.json"),
        "--data", str(slice_of_group(root, 2, 2)),
        "--out", str(out),
    )
    assert r.returncode == 0, r.stderr
    report = json.loads(out.read_text())
    assert report["group_sizes"] == {"0": 0, "1": 0, "2": 2}
    for gid in ("0", "1"):
        assert report["per_group"][gid] == {"accuracy": None, "auc": None}
        assert f"group {gid} empty: accuracy and auc undefined" in report["undefined"]
    # an id at the checkpoint's group count is refused, naming the count
    bad = root / "bad.csv"
    bad.write_text(slice_of_group(root, 2, 2).read_text().replace(",2,", ",3,", 1))
    r = run_cli(
        "evaluate",
        "--checkpoint", str(root / "run_checkpoint_seed1.json"),
        "--data", str(bad),
        "--out", str(root / "bad.json"),
    )
    assert r.returncode == 2, r.stderr
    assert error_lines(r.stderr) == [
        f"error: {str(bad)!r}: attribute id 3 is not below the model's group count 3"
    ]


def _audit_predictions(n=800, seed=12):
    """n records in groups 0..7 of 9 names; group 5 all positive, 5% tied."""
    rng = np.random.default_rng(seed)
    attrs = rng.choice(8, size=n, p=[0.3, 0.2, 0.15, 0.1, 0.1, 0.05, 0.05, 0.05])
    labels = rng.integers(0, 2, size=n)
    labels[attrs == 5] = 1  # a single-class group
    scores = np.clip(0.35 * labels + 0.65 * rng.random(n), 0.0, 1.0)
    tied = rng.random(n) < 0.05
    scores[tied] = rng.choice([0.25, 0.5, 0.75], size=int(tied.sum()))
    ids = tuple(f"r{i}" for i in range(n))
    return Predictions(ids, scores, labels, attrs)


# SHA-256 of the report JSON, the histogram CSV and the stdout of
# `report --hist-out` on _audit_predictions(), with a sidecar naming a ninth,
# empty group: any change to the audit that moves one byte fails here.
PINNED_REPORT_SHA256 = (
    "334ba8dda82baf830452a85860b1e7d5a2a1a3a94b1217978bf7ed72ac48b63b",
    "4a751ffda0c021c3bdcb90e5c6e1daa85bbe16ed33618bb1954412c3af6437cc",
    "015b14855dbaca11bd598ee4f7e507ff77afef9788e12cbdee1922641d204eb0",
)


def test_report_bytes_are_pinned(tmp_path, monkeypatch, capsys):
    write_predictions_csv(_audit_predictions(), str(tmp_path / "preds.csv"))
    names = [f"g{i}" for i in range(9)]  # g8 has no records
    (tmp_path / "groups.json").write_text(json.dumps({"groups": names}))
    monkeypatch.chdir(tmp_path)
    code = run([
        "report",
        "--predictions", "preds.csv",
        "--groups", "groups.json",
        "--out", "report.json",
        "--hist-out", "hist.csv",
        "--bins", "17",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "note: group 8 empty" in out and "auc undefined for group 5" in out
    digests = tuple(
        hashlib.sha256(data).hexdigest()
        for data in (
            (tmp_path / "report.json").read_bytes(),
            (tmp_path / "hist.csv").read_bytes(),
            out.encode(),
        )
    )
    assert digests == PINNED_REPORT_SHA256


def test_repeated_seed_is_exit_2(workdir, tmp_path):
    r = run_cli(
        "train",
        "--config", str(workdir / "train.json"),
        "--train", str(workdir / "train.csv"),
        "--eval", str(workdir / "eval.csv"),
        "--seeds", "1,1",
        "--out-prefix", str(tmp_path / "run_"),
    )
    assert r.returncode == 2, r.stderr
    assert error_lines(r.stderr) == ["error: seed 1 is given more than once"]
    assert list(tmp_path.iterdir()) == []


def test_grid_that_rounds_to_repeated_values_is_exit_2(workdir, tmp_path):
    # eleven points 1e-13 apart, each rounded to 10 decimals: all 0.0
    r = run_cli(
        "sweep-momentum",
        "--config", str(workdir / "train.json"),
        "--train", str(workdir / "train.csv"),
        "--eval", str(workdir / "eval.csv"),
        "--grid", "0:1e-12:1e-13",
        "--seeds", "1",
        "--out", str(tmp_path / "s.json"),
    )
    assert r.returncode == 2, r.stderr
    assert error_lines(r.stderr) == [
        "error: momentum grid value 0.0 is given more than once"
    ]
    assert not (tmp_path / "s.json").exists()


def test_negative_seeds_are_exit_2(workdir, tmp_path, capsys):
    config = tmp_path / "train.json"
    config.write_text(json.dumps({**TRAIN_CONFIG, "seed": -2}))
    data = ["--train", str(workdir / "train.csv"), "--eval", str(workdir / "eval.csv")]
    cases = [
        (["train", "--config", str(workdir / "train.json"), *data, "--seeds", "-1",
          "--out-prefix", str(tmp_path / "run_")], "seed must be >= 0, got -1"),
        (["synth", "--seed", "-3", "--out-train", str(tmp_path / "tr.csv"),
          "--out-eval", str(tmp_path / "ev.csv")], "seed must be >= 0, got -3"),
        (["train", "--config", str(config), *data, "--seeds", "1",
          "--out-prefix", str(tmp_path / "run_")], "seed must be >= 0, got -2"),
    ]
    for argv, message in cases:
        assert run(argv) == 2
        assert error_lines(capsys.readouterr().err) == [f"error: {message}"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["train.json"]


def test_empty_id_round_trips_through_evaluate_and_report(workdir, tmp_path, capsys):
    # row 0 has the empty id and row 1 the id "r0"; both stay as they are
    with open(workdir / "eval.csv", encoding="utf-8", newline="") as f:
        rows = list(csv.reader(f))
    rows[1][0], rows[2][0] = "", "r0"
    with open(tmp_path / "eval.csv", "w", encoding="utf-8", newline="") as f:
        csv.writer(f, lineterminator="\n").writerows(rows)
    code = run([
        "evaluate",
        "--checkpoint", str(workdir / "run_checkpoint_seed1.json"),
        "--data", str(tmp_path / "eval.csv"),
        "--out", str(tmp_path / "evaluated.json"),
        "--preds-out", str(tmp_path / "preds.csv"),
    ])
    assert code == 0, capsys.readouterr().err
    with open(tmp_path / "preds.csv", encoding="utf-8", newline="") as f:
        ids = [row[0] for row in csv.reader(f)]
    assert ids[1:] == [row[0] for row in rows[1:]]
    code = run([
        "report",
        "--predictions", str(tmp_path / "preds.csv"),
        "--out", str(tmp_path / "reported.json"),
    ])
    assert code == 0, capsys.readouterr().err
    assert (tmp_path / "reported.json").read_bytes() == (tmp_path / "evaluated.json").read_bytes()
