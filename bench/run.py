"""Closed-loop benchmark of the fin-equity command line.

Run from the root of a checkout:

    python3 bench/run.py --workload train_cli --seed 0 --seconds 25 --trace 0

One client drives the real commands in-process through
``fin_equity.cli.run(argv)``: the next command starts when the previous one
returns. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. See README.md in
this directory.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
REFERENCE = BENCH / "reference.json"
DEFAULT_SEED = 0
SETUP_REPEATS = 3
# ROADMAP re-anchor figures for one FIN step, in microseconds per call.
ROADMAP_US = {"optim.adamw_step": 107.0, "net.cross_entropy": 52.0}
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("train_cli", "audit_report", "score_eval"))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--pin-reference", action="store_true",
                   help=f"store this run's output values as the seed-{DEFAULT_SEED} "
                        "reference for the workload")
    return p.parse_args(argv)


def fix_environment() -> int:
    """Sequential runs and BLAS capped at the CPUs this process may use."""
    os.environ.pop("FIN_EQUITY_THREADS", None)
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(nproc)
    return nproc


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(nproc: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in (ROOT / "src").rglob("*.py")
    )
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": nproc,
        "blas_threads": nproc,
        "FIN_EQUITY_THREADS": "unset",
        "commit": git_commit(),
        "src_lines": src_lines,
    }


class Checker:
    """Compares each command's outputs with the pinned and first-seen values."""

    def __init__(self, pinned: dict):
        self.pinned = pinned
        self.seen: dict = {}

    def check(self, workload, i: int) -> list[str]:
        from workloads import mismatches

        key = workload.key(i)
        try:
            got, problems = workload.outputs(i)
            # a JSON round trip makes in-run and pinned references compare alike
            got = json.loads(json.dumps(got))
        except Exception as exc:  # unreadable output fails this command only
            return [f"{key}: outputs unreadable: {exc!r}"]
        if key in self.pinned:
            problems += mismatches(self.pinned[key], got, f"pinned {key}")
        problems += mismatches(self.seen.setdefault(key, got), got, f"repeat {key}")
        return problems


def execute(run, argv: list[str]) -> tuple[bool, float, str]:
    """One command, its printed output captured; returns (ok, seconds, output).

    Garbage from earlier commands is collected first, untimed, so each
    command starts from a heap like a fresh process's.
    """
    gc.collect()
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(out):
        start = time.perf_counter()
        try:
            code = run(argv)
        except SystemExit as exc:  # argparse rejected the command line
            code = exc.code
        seconds = time.perf_counter() - start
    return code == 0, seconds, out.getvalue()


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "fin_equity" / "__init__.py").is_file():
        print(f"error: no package at {ROOT / 'src' / 'fin_equity'}; run the "
              "benchmark from a checkout of the repository", file=sys.stderr)
        return 2
    nproc = fix_environment()
    sys.path.insert(0, str(ROOT / "src"))
    import fin_equity
    from fin_equity import cli

    from workloads import WORKLOADS

    import_s = time.perf_counter() - PROCESS_START
    if not Path(fin_equity.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported fin_equity from {fin_equity.__file__}", file=sys.stderr)
        return 2
    env = environment(nproc)

    workdir = WORK / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    io_dir = workdir / "io"
    io_dir.mkdir(parents=True)

    pinned = {}
    if args.seed == DEFAULT_SEED and REFERENCE.is_file():
        pinned = json.loads(REFERENCE.read_text())["workloads"].get(args.workload, {})
    checker = Checker(pinned)
    tracer = spans.Tracer() if args.trace else None
    run_traced = tracer.wrap(spans.ROOT_SPAN, cli.run) if tracer else None
    problems: list[str] = []

    def run_checked(workload, i, traced) -> tuple[bool, float]:
        ok, seconds, output = execute(run_traced if traced else cli.run, workload.argv(i))
        found = checker.check(workload, i) if ok else [f"command failed:\n{output}"]
        problems.extend(f"command {i}: {p}" for p in found)
        return not found, seconds

    # Set-up: input generation and one warm-up command, repeated; a traced
    # run sets up once, with only synth.generate reported from it.
    setup_s: list[float] = []
    setup_ids: list[str] = []
    warm_ok = True
    for rep in range(1 if tracer else SETUP_REPEATS):
        start = time.perf_counter()
        workload = WORKLOADS[args.workload](io_dir, args.seed)
        if tracer:
            tracer.command = f"setup{rep}"
            setup_ids.append(tracer.command)
            tracer.install()
        try:
            workload.setup()
        finally:
            if tracer:
                tracer.uninstall()
        ok, seconds, output = execute(cli.run, workload.argv(0))
        setup_s.append(time.perf_counter() - start)
        found = checker.check(workload, 0) if ok else [f"failed:\n{output}"]
        problems.extend(f"warm-up {rep}: {p}" for p in found)
        warm_ok = warm_ok and not found

    setup_rss_mb = _peak_rss_mb()

    # Timed closed loop, in whole cycles. A traced run alternates untraced
    # and traced cycles, so the difference between them is the overhead.
    times = {False: [], True: []}
    kinds = {False: [], True: []}  # workload key of each timed command
    traced_keys: dict[str, str] = {}  # traced command id -> workload key
    attempted = failed = i = blocks = 0
    loop_start = time.perf_counter()
    while (blocks == 0 or time.perf_counter() - loop_start < args.seconds
           or (tracer and blocks < 2)):
        traced = tracer is not None and blocks % 2 == 1
        if traced:
            tracer.install()
        try:
            for _ in range(workload.cycle):
                if traced:
                    tracer.command = f"cmd{i}"
                    traced_keys[tracer.command] = workload.key(i)
                ok, seconds = run_checked(workload, i, traced)
                attempted += 1
                failed += not ok
                times[traced].append(seconds)
                kinds[traced].append(workload.key(i))
                i += 1
        finally:
            if traced:
                tracer.uninstall()
        blocks += 1

    def op_s(traced):
        """Median seconds of each kind of command, averaged over the kinds.

        A median over single commands sits at the host's usual speed, where
        a mean is pulled by its bursts of faster and slower seconds; taking
        it per kind keeps train_cli's four norm kinds of different cost
        from making it jump.
        """
        by_kind: dict[str, list[float]] = {}
        for key, seconds in zip(kinds[traced], times[traced]):
            by_kind.setdefault(key, []).append(seconds)
        return statistics.fmean(statistics.median(v) for v in by_kind.values())

    if tracer:
        metrics = tracer.layer_metrics(list(traced_keys), setup_ids)
        metrics["trace.overhead_frac"] = 1.0 - op_s(False) / op_s(True)
        units = {name: _layer_unit(name) for name in metrics}
        tracer.write(workdir / "spans.tsv")
    else:
        metrics = {
            "setup_s": import_s + statistics.median(setup_s),
            "op_s_p50": op_s(False),
            "rows_per_s": workload.rows_per_command / op_s(False),
            "peak_rss_mb": _peak_rss_mb(),
        }
        units = {"setup_s": "s", "op_s_p50": "s", "rows_per_s": "1/s",
                 "peak_rss_mb": "MB"}

    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    if args.pin_reference:
        if args.seed != DEFAULT_SEED or problems:
            print("error: pin only a clean run on the default seed", file=sys.stderr)
            return 2
        data = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {
            "seed": DEFAULT_SEED, "workloads": {}}
        data["workloads"][args.workload] = checker.seen
        REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")

    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"workload {args.workload} seed {args.seed}: {attempted} commands, "
          f"{failed} failed, fail_frac {failed / attempted:.4f} (frac); "
          f"pinned reference {'compared' if pinned else 'not compared'}")
    if tracer:
        _print_layers(metrics, tracer, traced_keys, times)
    else:
        print(f"  set-up repeats (s): {', '.join(f'{s:.3f}' for s in setup_s)}; "
              f"import {import_s:.3f} s; peak RSS after set-up {setup_rss_mb:.1f} MB")
        print(f"  op_s_p50 over n={len(times[False])} commands of "
              f"{len(set(kinds[False]))} kind(s); command seconds: "
              + " ".join(f"{t:.3f}" for t in times[False]))
    for name, value in metrics.items():
        if not tracer or not name.endswith((".calls", ".self_s", ".us_per_call")):
            print(f"  {name} = {value:.6g} {units[name]}")
    result = {
        "correct": warm_ok and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }
    (workdir / "result.json").write_text(json.dumps({"env": env, **result}, indent=1))
    shutil.rmtree(io_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _layer_unit(name: str) -> str:
    if name.endswith(".self_s"):
        return "s"
    if name.endswith(".us_per_call"):
        return "us"
    if name == "trace.overhead_frac":
        return "frac"
    return "count"


def _print_layers(metrics, tracer, traced_keys, times) -> None:
    print(f"  traced {len(traced_keys)} of {len(times[False]) + len(times[True])} "
          "commands; per command: calls, self seconds; inclusive us per call")
    rows = sorted(spans.SPAN_NAMES, key=lambda s: -metrics[f"{s}.self_s"])
    for span in rows:
        if metrics[f"{span}.calls"]:
            print(f"  {span:<30} {metrics[f'{span}.calls']:>10.1f} "
                  f"{metrics[f'{span}.self_s']:>10.4f} "
                  f"{metrics[f'{span}.us_per_call']:>12.1f}")
    if tracer.absent:
        print("  absent wrap targets: " + ", ".join(tracer.absent))
    fin_ids = [c for c, key in traced_keys.items() if key == "fair_identity"]
    if fin_ids:
        fin = tracer.layer_metrics(fin_ids, [])
        for span, roadmap in ROADMAP_US.items():
            us = fin[f"{span}.us_per_call"]
            print(f"  ROADMAP cross-check {span}: {us:.1f} us/call on FIN commands "
                  f"vs {roadmap:.0f} us re-anchor ({us / roadmap - 1:+.0%}, "
                  "report only)")


if __name__ == "__main__":
    sys.exit(main())
