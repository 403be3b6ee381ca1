"""The benchmark's workloads: input set-up, command lines and output checks.

Inputs are made from the workload seed and handed to the program only as
files. The two dataset workloads make theirs through the package's own
``synth`` and ``train`` commands; the audit workload writes its predictions
CSV in the package's file format with the csv module, so that set-up does
not depend on the in-memory record type.

Each workload reads its outputs back into values that must repeat exactly
(numbers, and SHA-256 digests of float arrays for bitwise checks) and a
list of broken invariants. Values are compared rather than file bytes, so
added fields in a report or checkpoint are not failures.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

from fin_equity import cli
from fin_equity.synth import default_benchmark, synth_config_to_dict
from fin_equity.train import checkpoint_to_dict, load_checkpoint

NORM_KINDS = ("none", "batch", "learnable_shared", "fair_identity")


def run_cli(argv: list[str]) -> None:
    """Set-up step through the CLI; any non-zero exit stops the benchmark."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(out):
        code = cli.run(argv)
    if code != 0:
        raise RuntimeError(f"set-up command {argv[0]} exited {code}:\n{out.getvalue()}")


def digest(values) -> str:
    """Shape and SHA-256 of the float64 bytes: equal iff bitwise equal."""
    arr = np.ascontiguousarray(values, dtype=np.float64)
    return f"{arr.shape}:{hashlib.sha256(arr.tobytes()).hexdigest()}"


def _train_config(norm_kind: str, epochs: int) -> dict:
    return {
        "layer_dims": [20, 32, 16],
        "norm_kind": norm_kind,
        "epochs": epochs,
        "batch_size": 6,
    }


def _write_json(obj, path: Path) -> None:
    path.write_text(json.dumps(obj, indent=2) + "\n", encoding="utf-8")


def _load(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _report_values(report: dict) -> dict:
    """Every number in a report; the free-text notes are checked separately."""
    return {k: v for k, v in report.items() if k != "undefined"}


def _es_violations(report: dict, what: str) -> list[str]:
    """es == overall / (1 + delta), within the report's 6-decimal rounding."""
    out = []
    for m, es in report["equity_scaled"].items():
        overall, delta = report["overall"][m], report["delta"][m]
        if None in (es, overall, delta):
            continue
        if abs(es - overall / (1.0 + delta)) > 2e-6:
            out.append(f"{what}: es[{m}]={es} != {overall} / (1 + {delta})")
    return out


def _checkpoint_values(path: Path) -> dict:
    """Parameter arrays of a checkpoint loaded through the package."""

    def leaves(o):
        if isinstance(o, dict):
            return {k: leaves(v) for k, v in o.items()}
        if isinstance(o, (list, tuple, np.ndarray)):
            if isinstance(o, (list, tuple)) and o and isinstance(o[0], dict):
                return [leaves(v) for v in o]
            return digest(o)
        return o

    data = checkpoint_to_dict(load_checkpoint(str(path)))
    return {k: leaves(data[k]) for k in ("backbone", "norm", "head")}


class TrainCli:
    """``train`` on the stock benchmark CSVs, cycling through the four kinds."""

    name = "train_cli"
    cycle = len(NORM_KINDS)
    seeds = (1, 2)
    epochs = 3

    def __init__(self, workdir: Path, seed: int):
        self.dir = workdir
        self.seed = seed
        self.train_csv = workdir / "train.csv"
        self.eval_csv = workdir / "eval.csv"
        self.out = workdir / "out"
        self.rows_per_command = 0

    def setup(self) -> None:
        run_cli(["synth", "--out-train", str(self.train_csv),
                 "--out-eval", str(self.eval_csv), "--seed", str(self.seed)])
        for kind in NORM_KINDS:
            _write_json(_train_config(kind, self.epochs), self.dir / f"{kind}.json")
        self.out.mkdir(exist_ok=True)
        with open(self.train_csv, encoding="utf-8") as f:
            n_train = sum(1 for _ in f) - 1
        self.rows_per_command = n_train * self.epochs * len(self.seeds)

    def key(self, i: int) -> str:
        return NORM_KINDS[i % self.cycle]

    def argv(self, i: int) -> list[str]:
        return ["train", "--config", str(self.dir / f"{self.key(i)}.json"),
                "--train", str(self.train_csv), "--eval", str(self.eval_csv),
                "--seeds", ",".join(map(str, self.seeds)),
                "--out-prefix", str(self.out / "run_")]

    def outputs(self, i: int) -> tuple[dict, list[str]]:
        agg = _load(self.out / "run_aggregate.json")
        values = {
            "checkpoints": {
                str(s): _checkpoint_values(self.out / f"run_checkpoint_seed{s}.json")
                for s in self.seeds
            },
            "aggregate": agg,
        }
        if agg.get("seeds") != list(self.seeds):
            return values, [f"aggregate seeds {agg.get('seeds')} != {list(self.seeds)}"]
        return values, []


# Audit cohort: group shares of the records (30% down to 2%) and the
# prevalence of each; the 0.0 group is single-class, so its AUC is
# undefined and must come back null with a note.
AUDIT_SHARES = (0.30, 0.20, 0.15, 0.12, 0.09, 0.07, 0.05, 0.02)
AUDIT_PREVALENCE = (0.50, 0.40, 0.60, 0.30, 0.55, 0.45, 0.0, 0.35)
AUDIT_RECORDS = 200_000
AUDIT_ROUNDED = 0.05  # share of scores rounded to 2 decimals (AUC ties)
THRESHOLD = 0.5


class AuditReport:
    """``report`` with a histogram on 200,000 scored records in 8 groups."""

    name = "audit_report"
    cycle = 1
    rows_per_command = AUDIT_RECORDS

    def __init__(self, workdir: Path, seed: int):
        self.dir = workdir
        self.seed = seed
        self.preds = workdir / "preds.csv"
        self.report = workdir / "report.json"
        self.hist = workdir / "hist.csv"

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        sizes = [int(round(s * AUDIT_RECORDS)) for s in AUDIT_SHARES]
        attrs = np.repeat(np.arange(len(sizes)), sizes)
        labels = np.concatenate([
            (rng.random(n) < p).astype(np.int64)
            for n, p in zip(sizes, AUDIT_PREVALENCE)
        ])
        separation = np.linspace(0.6, 2.0, len(sizes))[attrs]
        logit = separation * (2 * labels - 1) + rng.normal(0.0, 1.0, attrs.size)
        scores = 1.0 / (1.0 + np.exp(-logit))
        rounded = rng.random(attrs.size) < AUDIT_ROUNDED
        scores[rounded] = np.round(scores[rounded], 2)
        order = rng.permutation(attrs.size)
        attrs, labels, scores = attrs[order], labels[order], scores[order]
        with open(self.preds, "w", encoding="utf-8", newline="") as f:
            w = csv.writer(f, lineterminator="\n")
            w.writerow(["id", "score", "label", "attr"])
            w.writerows(
                (f"p{i:06d}", format(s, ".16e"), int(y), int(a))
                for i, (s, y, a) in enumerate(zip(scores, labels, attrs))
            )
        decision = scores >= THRESHOLD
        positive = labels == 1
        self.expected_totals = {
            "tp": int(np.sum(decision & positive)),
            "fp": int(np.sum(decision & ~positive)),
            "tn": int(np.sum(~decision & ~positive)),
            "fn": int(np.sum(~decision & positive)),
        }
        self.expected_sizes = {str(g): n for g, n in enumerate(sizes)}
        self.single_class = [
            str(g) for g, p in enumerate(AUDIT_PREVALENCE) if p in (0.0, 1.0)
        ]

    def key(self, i: int) -> str:
        return "report"

    def argv(self, i: int) -> list[str]:
        return ["report", "--predictions", str(self.preds), "--out", str(self.report),
                "--hist-out", str(self.hist), "--bins", "20"]

    def outputs(self, i: int) -> tuple[dict, list[str]]:
        report = _load(self.report)
        with open(self.hist, encoding="utf-8", newline="") as f:
            hist = [[float(lo), float(hi)] + [int(c) for c in counts]
                    for lo, hi, *counts in list(csv.reader(f))[1:]]
        out = _es_violations(report, "report")
        totals = {k: sum(row[2 + j] for row in hist)
                  for j, k in enumerate(("tp", "fp", "tn", "fn"))}
        if totals != self.expected_totals:
            out.append(f"histogram totals {totals} != confusion {self.expected_totals}")
        if report["group_sizes"] != self.expected_sizes:
            out.append(f"group sizes {report['group_sizes']} != {self.expected_sizes}")
        for g in self.single_class:
            if report["per_group"][g]["auc"] is not None:
                out.append(f"single-class group {g} has auc {report['per_group'][g]['auc']}")
            if not any(f"group {g}" in note for note in report["undefined"]):
                out.append(f"single-class group {g} has no note")
        return {"report": _report_values(report), "histogram": hist}, out


class ScoreEval:
    """``evaluate --preds-out`` with a FIN checkpoint on 60,000 rows."""

    name = "score_eval"
    cycle = 1
    per_group_eval = 20_000

    def __init__(self, workdir: Path, seed: int):
        self.dir = workdir
        self.seed = seed
        self.train_csv = workdir / "train.csv"
        self.data = workdir / "eval.csv"
        self.checkpoint = workdir / "ck_checkpoint_seed1.json"
        self.report = workdir / "report.json"
        self.preds = workdir / "preds.csv"
        self.rows_per_command = 0

    def setup(self) -> None:
        config = synth_config_to_dict(default_benchmark(self.seed))
        for g in config["groups"]:
            g["n_eval"] = self.per_group_eval
        _write_json(config, self.dir / "synth.json")
        _write_json(_train_config("fair_identity", 1), self.dir / "fin.json")
        run_cli(["synth", "--config", str(self.dir / "synth.json"),
                 "--out-train", str(self.train_csv), "--out-eval", str(self.data)])
        run_cli(["train", "--config", str(self.dir / "fin.json"),
                 "--train", str(self.train_csv), "--eval", str(self.train_csv),
                 "--seeds", "1", "--out-prefix", str(self.dir / "ck_")])
        self.rows_per_command = self.per_group_eval * len(config["groups"])

    def key(self, i: int) -> str:
        return "evaluate"

    def argv(self, i: int) -> list[str]:
        return ["evaluate", "--checkpoint", str(self.checkpoint), "--data",
                str(self.data), "--out", str(self.report),
                "--preds-out", str(self.preds)]

    def outputs(self, i: int) -> tuple[dict, list[str]]:
        report = _load(self.report)
        with open(self.preds, encoding="utf-8", newline="") as f:
            rows = list(csv.reader(f))[1:]
        others = "\n".join(f"{r[0]},{r[2]},{r[3]}" for r in rows)
        values = {
            "scores": digest([float(r[1]) for r in rows]),
            "ids_labels_groups": hashlib.sha256(others.encode()).hexdigest(),
            "report": _report_values(report),
        }
        out = _es_violations(report, "report")
        if len(rows) != self.rows_per_command:
            out.append(f"{len(rows)} predictions != {self.rows_per_command} rows")
        if sum(report["group_sizes"].values()) != self.rows_per_command:
            out.append(f"group sizes {report['group_sizes']} do not cover the rows")
        return values, out


WORKLOADS = {w.name: w for w in (TrainCli, AuditReport, ScoreEval)}


def mismatches(ref, got, path: str = "") -> list[str]:
    """Every leaf of ref must be present in got with the same value.

    Keys that got adds are ignored; lists must keep their length.
    """
    if isinstance(ref, dict):
        if not isinstance(got, dict):
            return [f"{path}: expected an object"]
        out = []
        for k, v in ref.items():
            if k not in got:
                out.append(f"{path}/{k}: missing")
            else:
                out.extend(mismatches(v, got[k], f"{path}/{k}"))
        return out
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return [f"{path}: expected a list of {len(ref)}"]
        return [m for i, (r, g) in enumerate(zip(ref, got))
                for m in mismatches(r, g, f"{path}/{i}")]
    if ref != got:
        return [f"{path}: {got!r} != reference {ref!r}"]
    return []
