"""Outside-in tracing for the benchmark's traced runs.

Wrappers are installed by rebinding a name in the namespace of the module
that calls it (for example ``fin_equity.train.forward``), so the package
itself carries no timers. Spans are kept in memory as
``(name, start_ns, end_ns, parent, command)`` tuples and written out when
the run ends. A span's self time is its duration minus the time its child
spans cover; calls are strictly nested, so that is the sum of the
children's durations.

Per-row objects are counted by wrapping the ``__post_init__`` of their
classes. A wrap target that no longer exists is reported as absent and
skipped.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter


def _forward_span(args, kwargs) -> str:
    mode = kwargs.get("mode", args[3] if len(args) > 3 else "training")
    return "net.forward_infer" if mode == "inference" else "net.forward_train"


# (span name, module whose namespace is rebound, attribute). A name given
# as a callable picks the span name from the call's arguments.
SPAN_SITES = (
    (_forward_span, "fin_equity.train", "forward"),
    ("net.backward", "fin_equity.train", "backward"),
    ("net.cross_entropy", "fin_equity.train", "cross_entropy"),
    ("net.named_gradients", "fin_equity.train", "named_gradients"),
    ("optim.adamw_step", "fin_equity.train", "adamw_step"),
    ("norms.fin_forward", "fin_equity.net", "fin_forward"),
    ("norms.fin_forward", "fin_equity.norms", "fin_forward"),
    ("norms.fin_backward", "fin_equity.net", "fin_backward"),
    ("norms.fin_backward", "fin_equity.norms", "fin_backward"),
    ("norms.lbn_forward", "fin_equity.net", "lbn_forward"),
    ("norms.lbn_backward", "fin_equity.net", "lbn_backward"),
    ("norms.bn_forward", "fin_equity.net", "bn_forward"),
    ("norms.bn_backward", "fin_equity.net", "bn_backward"),
    ("train.train", "fin_equity.train", "train"),
    ("train.evaluate_model", "fin_equity.cli", "evaluate_model"),
    ("train.save_checkpoint", "fin_equity.cli", "save_checkpoint"),
    ("train.load_checkpoint", "fin_equity.cli", "load_checkpoint"),
    ("fileio.read_dataset_csv", "fin_equity.cli", "read_dataset_csv"),
    ("fileio.read_predictions_csv", "fin_equity.cli", "read_predictions_csv"),
    ("fileio.write_predictions_csv", "fin_equity.cli", "write_predictions_csv"),
    ("fileio.write_histogram_csv", "fin_equity.cli", "write_histogram_csv"),
    ("fileio.write_pretty_json", "fin_equity.cli", "write_pretty_json"),
    ("fileio.dumps_canonical", "fin_equity.train", "dumps_canonical"),
    ("metrics.full_report", "fin_equity.cli", "full_report"),
    ("metrics.full_report", "fin_equity.train", "full_report"),
    ("metrics.prediction_histogram", "fin_equity.cli", "prediction_histogram"),
    ("metrics.auc", "fin_equity.metrics", "auc"),
    ("core.partition_by_attribute", "fin_equity.metrics", "partition_by_attribute"),
    ("core.require_valid", "fin_equity.train", "require_valid"),
    ("core.require_valid", "fin_equity.fileio", "require_valid"),
    ("synth.generate", "fin_equity.cli", "generate"),
)

# cli.run is not rebound: the benchmark opens that root span itself.
ROOT_SPAN = "cli.run"
# Spans recorded while inputs are set up; reported per set-up, not per command.
SETUP_SPANS = ("synth.generate",)

SPAN_NAMES = (ROOT_SPAN,) + tuple(
    dict.fromkeys(
        n
        for name, _, _ in SPAN_SITES
        for n in (
            ("net.forward_train", "net.forward_infer") if callable(name) else (name,)
        )
    )
)

# (counter, class in fin_equity.core whose __post_init__ is counted)
OBJECT_COUNTERS = (
    ("core.records_built", "PredictionRecord"),
    ("core.samples_built", "LabeledSample"),
)


class Tracer:
    """Records spans and per-object counts while installed."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.command = "setup"
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    def wrap(self, name, fn):
        """fn, recording a span per call; a callable name picks it per call."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        pick = name if callable(name) else None

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (
                    pick(args, kwargs) if pick else name, start, end, parent,
                    self.command,
                )

        return traced

    def _counter(self, counter: str, fn):
        counts = self.counts

        def post_init(obj):
            counts[counter, self.command] += 1
            fn(obj)

        return post_init

    def install(self) -> None:
        """Rebind every wrap target that exists; record the ones that do not."""
        self.absent = []
        for name, module_name, attr in SPAN_SITES:
            target = _resolve(module_name, attr)
            if target is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            module, fn = target
            self._undo.append((module, attr, fn))
            setattr(module, attr, self.wrap(name, fn))
        for counter, cls_name in OBJECT_COUNTERS:
            target = _resolve("fin_equity.core", cls_name)
            post_init = getattr(target[1], "__post_init__", None) if target else None
            if post_init is None:
                self.absent.append(f"fin_equity.core.{cls_name}.__post_init__")
                continue
            cls = target[1]
            self._undo.append((cls, "__post_init__", post_init))
            cls.__post_init__ = self._counter(counter, post_init)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo = []

    def layer_metrics(self, commands: list[str], setups: list[str]) -> dict:
        """Per-command (or per-set-up) calls, self time and time per call."""
        per_command = set(commands)
        per_setup = set(setups)
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls: Counter = Counter()
        total_ns: Counter = Counter()
        self_ns: Counter = Counter()
        for i, (name, start, end, _, command) in enumerate(self.spans):
            if command not in (per_setup if name in SETUP_SPANS else per_command):
                continue
            calls[name] += 1
            total_ns[name] += end - start
            self_ns[name] += end - start - child_ns[i]
        n_command = max(len(per_command), 1)
        n_setup = max(len(per_setup), 1)
        out: dict[str, float] = {}
        for name in SPAN_NAMES:
            n = n_setup if name in SETUP_SPANS else n_command
            out[f"{name}.calls"] = calls[name] / n
            out[f"{name}.self_s"] = self_ns[name] / 1e9 / n
            out[f"{name}.us_per_call"] = (
                total_ns[name] / 1e3 / calls[name] if calls[name] else 0.0
            )
        for counter, _ in OBJECT_COUNTERS:
            out[counter] = sum(self.counts[counter, c] for c in per_command) / n_command
        out["train.steps"] = calls["optim.adamw_step"] / n_command
        return out

    def write(self, path) -> None:
        """Spans as tab-separated lines: name, start_ns, end_ns, parent, command."""
        with open(path, "w", encoding="utf-8") as f:
            f.write("name\tstart_ns\tend_ns\tparent\tcommand\n")
            for span in self.spans:
                f.write("\t".join(map(str, span)) + "\n")


def _resolve(module_name: str, attr: str):
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None
    fn = getattr(module, attr, None)
    return None if fn is None else (module, fn)
