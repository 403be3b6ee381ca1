"""Command-line interface: synth, train, evaluate, sweep-momentum, report.

Exit codes: 0 success, 2 user/input error (bad flags, malformed files,
invalid data, a run that diverges), 1 internal error. An input error prints
one `error:` line: numpy's floating-point warnings are off in a command.
`train` and `sweep-momentum` train all their seeds in lockstep in one
process; each seed's outputs are the bytes a run of that seed alone would
write.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import traceback
from dataclasses import asdict, replace
from functools import partial

import numpy as np

from .errors import (
    CheckpointError,
    NonFiniteError,
    UndefinedMetricError,
    ValidationError,
)
from .fileio import (
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
from .metrics import check_bins, full_report, prediction_histogram
from .norms import NormKind
from .synth import default_benchmark, generate, synth_config_from_dict
from .train import (
    evaluate_model,
    load_checkpoint,
    run_seeds,
    save_checkpoint,
    sweep_momentum,
    train_config_from_dict,
)

MAX_GRID_POINTS = 10_000  # blend values one sweep may train


def _parse_seeds(raw: str) -> tuple[int, ...]:
    try:
        seeds = tuple(int(s) for s in raw.split(",") if s.strip() != "")
    except ValueError as exc:
        raise ValidationError(f"bad --seeds {raw!r}: {exc}") from exc
    if not seeds:
        raise ValidationError("--seeds must name at least one seed")
    return seeds


def _parse_grid(raw: str) -> list[float]:
    """start:stop:step, inclusive of both ends (within rounding)."""
    parts = raw.split(":")
    if len(parts) != 3:
        raise ValidationError(f"--grid must look like start:stop:step, got {raw!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError as exc:
        raise ValidationError(f"bad --grid {raw!r}: {exc}") from exc
    if not all(map(math.isfinite, (start, stop, step))):
        raise ValidationError(f"--grid needs finite start, stop and step, got {raw!r}")
    if step <= 0 or stop < start:
        raise ValidationError(f"--grid needs step > 0 and stop >= start, got {raw!r}")
    steps = (stop - start) / step  # may overflow to inf
    if not steps < MAX_GRID_POINTS or round(steps) >= MAX_GRID_POINTS:
        raise ValidationError(
            f"--grid {raw!r} has more than {MAX_GRID_POINTS} points"
        )
    count = round(steps) + 1
    values = [round(start + i * step, 10) for i in range(count)]
    return [v for v in values if v <= stop + 1e-9]


def _fmt(value, std=None, percent: bool = True) -> str:
    """A fraction x100 to 2 decimals, or as it is to 4; None is "undefined"."""
    if value is None:
        return "undefined"
    scale, digits = (100.0, 2) if percent else (1.0, 4)
    s = f"{scale * value:.{digits}f}"
    if std is not None:
        s += f" ± {scale * std:.{digits}f}"
    return s


def _groups_arg(args) -> tuple[str, ...] | None:
    return read_groups_sidecar(args.groups) if args.groups else None


def _training_inputs(args):
    """The train config, both datasets and the seeds of train or sweep-momentum."""
    config = train_config_from_dict(load_json(args.config, what="train config"))
    names = _groups_arg(args)
    train_set = read_dataset_csv(args.train, group_names=names)
    eval_set = read_dataset_csv(args.eval, group_names=names)
    return config, train_set, eval_set, _parse_seeds(args.seeds)


def _cmd_synth(args) -> int:
    if args.config:
        config = synth_config_from_dict(load_json(args.config, what="synth config"))
    else:
        config = default_benchmark()
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    train_set, eval_set = generate(config)
    write_dataset_csv(train_set, args.out_train)
    write_dataset_csv(eval_set, args.out_eval)
    print(f"wrote {len(train_set)} train rows to {args.out_train}")
    print(f"wrote {len(eval_set)} eval rows to {args.out_eval}")
    for gid, name in enumerate(train_set.attribute_set.names):
        n_tr = int((train_set.attrs == gid).sum())
        n_ev = int((eval_set.attrs == gid).sum())
        print(f"  {name}: {n_tr} train / {n_ev} eval")
    return 0


_TRAIN_TABLE = (
    ("es_acc", "ES-Acc"),
    ("acc", "Acc"),
    ("es_auc", "ES-AUC"),
    ("auc", "AUC"),
    ("dpd", "DPD"),
    ("deodds", "DEOdds"),
)


def _print_aggregate_table(agg, names, es_of_means: bool) -> None:
    rows = list(_TRAIN_TABLE)
    for g, name in enumerate(names):
        rows.append((f"auc_group{g}", f"AUC[{name}]"))
    width = max(len(label) for _, label in rows) + 2
    print(f"{'metric'.ljust(width)}mean ± std (x100)")
    for key, label in rows:
        summary = agg.metrics[key]
        if es_of_means and key in ("es_acc", "es_auc"):
            cell = _fmt(agg.es_from_means[key]) + " (of means)"
        else:
            cell = _fmt(summary.mean, summary.std)
        print(f"{label.ljust(width)}{cell}")


def _aggregate_to_dict(agg) -> dict:
    return {
        "seeds": list(agg.seeds),
        "metrics": {name: asdict(s) for name, s in agg.metrics.items()},
        "es_from_means": dict(agg.es_from_means),
    }


def _cmd_train(args) -> int:
    config, train_set, eval_set, seeds = _training_inputs(args)
    agg = run_seeds(train_set, eval_set, config, seeds)
    prefix = args.out_prefix
    parent = os.path.dirname(prefix)
    if parent:  # only now: a run that fails leaves no directory behind
        os.makedirs(parent, exist_ok=True)
    for seed, ck, history in zip(agg.seeds, agg.checkpoints, agg.histories):
        save_checkpoint(ck, f"{prefix}checkpoint_seed{seed}.json")
        write_pretty_json(
            {
                "seed": seed,
                "loss": history.losses,
                "reports": [metric_report_to_dict(r) for r in history.reports],
            },
            f"{prefix}history_seed{seed}.json",
        )
    write_pretty_json(_aggregate_to_dict(agg), f"{prefix}aggregate.json")
    print(f"trained {len(seeds)} seed(s); outputs under prefix {prefix!r}")
    _print_aggregate_table(
        agg, eval_set.attribute_set.names, es_of_means=args.es_of_means
    )
    return 0


def _print_report(report, names, percent: bool) -> None:
    fmt = partial(_fmt, percent=percent)
    print(f"threshold  {report.threshold}")
    for name in ("accuracy", "auc"):
        print(
            f"{name:<10} overall {fmt(report.overall[name])}  "
            f"delta {fmt(report.delta[name])}  "
            f"es {fmt(report.equity_scaled[name])}"
        )
    for gid, row in sorted(report.per_group.items()):
        print(
            f"  {names[gid]:<12} n={report.group_sizes[gid]:<6} "
            f"acc {fmt(row['accuracy'])}  auc {fmt(row['auc'])}"
        )
    print(f"dpd        {fmt(report.dpd)}")
    print(f"deodds     {fmt(report.deodds)}")
    for flag in report.undefined:
        print(f"note: {flag}")


def _cmd_evaluate(args) -> int:
    ck = load_checkpoint(args.checkpoint)
    names = _groups_arg(args)
    # a fair_identity model has one mu row per group it was trained on
    fin = ck.config.norm_kind is NormKind.FAIR_IDENTITY
    dataset = read_dataset_csv(
        args.data,
        group_names=names,
        group_count=ck.model.norm.group_count if fin else None,
    )
    predictions, report = evaluate_model(ck, dataset, threshold=args.threshold)
    write_pretty_json(metric_report_to_dict(report), args.out)
    if args.preds_out:
        write_predictions_csv(predictions, args.preds_out)
        print(f"wrote {len(predictions)} predictions to {args.preds_out}")
    print(f"wrote report to {args.out}")
    _print_report(report, dataset.attribute_set.names, percent=args.percent)
    return 0


def _cmd_sweep(args) -> int:
    config, train_set, eval_set, seeds = _training_inputs(args)
    grid = _parse_grid(args.grid)
    results = sweep_momentum(train_set, eval_set, config, grid, seeds)
    payload: dict = {"m": [m for m, _ in results], "seeds": list(seeds)}
    for key in ("auc", "es_auc", "dpd", "deodds"):
        payload[key] = {
            "mean": [agg.metrics[key].mean for _, agg in results],
            "std": [agg.metrics[key].std for _, agg in results],
        }
    write_pretty_json(payload, args.out)
    print(f"wrote sweep over {len(results)} blend values to {args.out}")
    # each blend value in its shortest exact form, so grid points stay distinct
    labels = [repr(m) for m, _ in results]
    width = max(len(label) for label in labels)
    print(f"{'m':>{width}}  {'AUC':>16}  {'ES-AUC':>16}  {'DPD':>16}  {'DEOdds':>16}")
    for label, (_, agg) in zip(labels, results):
        cells = [
            _fmt(agg.metrics[k].mean, agg.metrics[k].std)
            for k in ("auc", "es_auc", "dpd", "deodds")
        ]
        print(f"{label:>{width}}  " + "  ".join(c.rjust(16) for c in cells))
    return 0


def _cmd_report(args) -> int:
    check_bins(args.bins)
    names = _groups_arg(args)
    predictions, attribute_set = read_predictions_csv(
        args.predictions, group_names=names
    )
    report = full_report(predictions, attribute_set, threshold=args.threshold)
    hist = prediction_histogram(predictions, threshold=args.threshold, bins=args.bins)
    write_pretty_json(metric_report_to_dict(report), args.out)
    print(f"wrote report to {args.out}")
    if args.hist_out:
        write_histogram_csv(hist, args.hist_out)
        print(f"wrote {hist.bins}-bin histogram to {args.hist_out}")
    _print_report(report, attribute_set.names, percent=args.percent)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fin-equity",
        description=(
            "Train and audit small classifiers with identity-aware "
            "normalization and equity-scaled metrics."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic cohort as CSVs")
    p.add_argument("--config", help="synth config JSON (defaults to the benchmark)")
    p.add_argument("--out-train", required=True)
    p.add_argument("--out-eval", required=True)
    p.add_argument("--seed", type=int, help="override the config seed")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("train", help="train one model per seed and aggregate")
    p.add_argument("--config", required=True, help="train config JSON")
    p.add_argument("--train", required=True, help="train dataset CSV")
    p.add_argument("--eval", required=True, help="eval dataset CSV")
    p.add_argument("--seeds", required=True, help="comma-separated seeds")
    p.add_argument("--out-prefix", required=True, help="prefix for output files")
    p.add_argument("--groups", help="sidecar JSON with group names")
    p.add_argument(
        "--es-of-means",
        action="store_true",
        help="display ES of seed-averaged metrics instead of averaged per-seed ES",
    )
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("evaluate", help="score a dataset with a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True, help="dataset CSV")
    p.add_argument("--threshold", type=float, help="default: the checkpoint's")
    p.add_argument("--out", required=True, help="report JSON path")
    p.add_argument("--preds-out", help="optional predictions CSV path")
    p.add_argument("--groups", help="sidecar JSON with group names")
    p.add_argument("--percent", action="store_true", help="display as percentages")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("sweep-momentum", help="ablate the blend weight m")
    p.add_argument("--config", required=True, help="train config JSON")
    p.add_argument("--train", required=True)
    p.add_argument("--eval", required=True)
    p.add_argument("--grid", default="0:1:0.1", help="start:stop:step, default 0:1:0.1")
    p.add_argument("--seeds", required=True, help="comma-separated seeds")
    p.add_argument("--out", required=True, help="sweep JSON path")
    p.add_argument("--groups", help="sidecar JSON with group names")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("report", help="audit an existing predictions CSV")
    p.add_argument("--predictions", required=True, help="predictions CSV")
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--bins", type=int, default=20)
    p.add_argument("--out", required=True, help="report JSON path")
    p.add_argument("--hist-out", help="optional histogram CSV path")
    p.add_argument("--groups", help="sidecar JSON with group names")
    p.add_argument("--percent", action="store_true", help="display as percentages")
    p.set_defaults(func=_cmd_report)
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with np.errstate(all="ignore"):
            return args.func(args)
    except (
        ValidationError, UndefinedMetricError, CheckpointError, NonFiniteError, OSError
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
