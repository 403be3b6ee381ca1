"""Deterministic training loop, checkpoints, and multi-seed aggregation.

Given a seed, training is bit-reproducible: parameter init and per-epoch
shuffling use two generators spawned from one SeedSequence, batches are
contiguous slices of the shuffled order, and the optimizer is plain numpy.
The final short batch is kept, except that a batch of size 1 is dropped
when the model uses batch normalization (its training mode needs >= 2).

All seeds of a run train in lockstep: one loop over a stack of models
(`net.stack_models`), where step i runs batch i of every seed through one
forward, cross-entropy, backward and AdamW step. Each seed keeps its own
init and shuffle generators, and every stacked op gives each model exactly
the bits it would get alone, so a seed's checkpoint is byte-identical
whether it trains alone (`train` is the same loop with one seed) or among
any other seeds.

The loop checks once per run, not once per step. `_train_seeds` checks
the feature width at entry (a Dataset checks its own rows), then calls the
ops' kernels (`net._forward`, `net._cross_entropy`, `net._backward`,
`optim._adamw_update`), which trust their inputs; the public entry points
check and then call the same kernels. The AdamW kernel updates the flat
buffer that `stack_models` lays the parameters out in, where the public
`adamw_step` stages a copy. Once per epoch the loop gathers the
shuffled features, the one-hot label mask and the normalizer's rows (from
its `rows` method), so each step takes slices of them. Every step still
checks each seed's loss and gradients for non-finite values.

Checkpoints serialize to canonical JSON with 17-significant-digit floats,
so save -> load -> save is byte-identical and a loaded model reproduces
the saved model's inference outputs exactly. The loader checks every
value's type and range, as configs are checked; the normalizer object
reads its own block, whose kind must be the config's `norm_kind`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .core import (
    Dataset,
    Predictions,
    check_config_keys,
    config_value,
    type_config_fields,
)
from .errors import (
    CheckpointError,
    CheckpointFormatError,
    CheckpointShapeError,
    CheckpointVersionError,
    NonFiniteError,
    TrainingDivergedError,
    ValidationError,
)
from .fileio import dumps_canonical, load_json
from .metrics import MetricReport, es_over_groups, full_report
from .net import (
    AffineLayer,
    MlpModel,
    _backward,
    _cross_entropy,
    _forward,
    forward,
    init_mlp,
    model_slice,
    named_parameters,
    one_hot,
    softmax,
    stack_models,
)
from .norms import NormKind, _as_array, _as_scalar, norm_class
from .optim import AdamWConfig, AdamWState, _adamw_update, decay_shrink

CHECKPOINT_VERSION = 1
MAX_PARAMETERS = 10_000_000  # backbone and head weights and biases, 80 MB of float64


@dataclass(frozen=True)
class TrainConfig:
    layer_dims: tuple[int, ...] = (20, 32, 16)
    norm_kind: NormKind = NormKind.NONE
    fin_momentum: float = 0.3
    epochs: int = 10
    batch_size: int = 6
    optimizer: AdamWConfig = field(default_factory=AdamWConfig)
    seed: int = 0
    threshold: float = 0.5
    shuffle: bool = True

    def __post_init__(self):
        dims = tuple(
            config_value(d, int, "layer_dims", "train config") for d in self.layer_dims
        )
        object.__setattr__(self, "layer_dims", dims)
        object.__setattr__(self, "norm_kind", NormKind(self.norm_kind))
        type_config_fields(self, "train config")
        if not isinstance(self.optimizer, AdamWConfig):
            raise ValidationError(
                f"optimizer must be an AdamWConfig, got {type(self.optimizer).__name__}"
            )
        if len(self.layer_dims) < 2:
            raise ValidationError("layer_dims needs at least input and feature dims")
        if min(self.layer_dims) < 1:
            raise ValidationError(
                f"layer_dims entries must be >= 1, got {list(self.layer_dims)}"
            )
        # backbone and head affine layers: (fan_in + 1) * fan_out each
        widths = self.layer_dims + (2,)
        count = sum((a + 1) * b for a, b in zip(widths, widths[1:]))
        if count > MAX_PARAMETERS:
            raise ValidationError(
                f"layer_dims {list(self.layer_dims)} give {count} backbone and "
                f"head parameters, more than MAX_PARAMETERS = {MAX_PARAMETERS}"
            )
        if self.epochs < 1:
            raise ValidationError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValidationError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        if self.norm_kind is NormKind.BATCH and self.batch_size < 2:
            raise ValidationError("batch_size must be >= 2 with batch normalization")
        if not 0.0 <= self.fin_momentum <= 1.0:
            raise ValidationError(
                f"fin_momentum must lie in [0, 1], got {self.fin_momentum}"
            )
        if not 0.0 <= self.threshold <= 1.0:
            raise ValidationError(f"threshold must lie in [0, 1], got {self.threshold}")


@dataclass
class Checkpoint:
    version: int
    config: TrainConfig
    model: MlpModel
    epoch: int


@dataclass
class RunHistory:
    losses: list[float]            # mean batch loss per epoch
    reports: list[MetricReport]    # evaluation report per epoch


def _evaluate(
    model: MlpModel, dataset: Dataset, threshold: float
) -> list[tuple[Predictions, MetricReport]]:
    """Score a dataset with a model, or a stack of models; one result per model.

    A stack runs one forward over the dataset, which is broadcast to every
    model rather than copied.
    """
    logits, _ = forward(model, dataset.x, dataset.attrs, mode="inference")
    scores = softmax(logits)[..., 1].reshape(-1, len(dataset))
    out = []
    for model_scores in scores:
        predictions = Predictions(
            dataset.ids, model_scores, dataset.labels, dataset.attrs
        )
        report = full_report(predictions, dataset.attribute_set, threshold)
        out.append((predictions, report))
    return out


def evaluate_model(
    checkpoint: Checkpoint, dataset: Dataset, threshold: float | None = None
) -> tuple[Predictions, MetricReport]:
    """Score a dataset with a checkpointed model and audit the predictions."""
    if dataset.d != checkpoint.model.input_dim:
        raise ValidationError(
            f"dataset feature dim {dataset.d} != model input dim "
            f"{checkpoint.model.input_dim}"
        )
    if threshold is None:
        threshold = checkpoint.config.threshold
    return _evaluate(checkpoint.model, dataset, threshold)[0]


def train(
    train_set: Dataset, eval_set: Dataset, config: TrainConfig
) -> tuple[Checkpoint, RunHistory]:
    """Train from scratch; returns the final checkpoint and per-epoch history."""
    return _train_seeds(train_set, eval_set, config, (config.seed,))[0]


def _train_seeds(
    train_set: Dataset, eval_set: Dataset, config: TrainConfig, seeds: tuple[int, ...]
) -> list[tuple[Checkpoint, RunHistory]]:
    """Train one model per seed, all in lockstep; one result per seed.

    A non-finite loss or gradient raises for the first seed (in seeds
    order) that hits it, at the step where it happens.
    """
    if train_set.d != config.layer_dims[0]:
        raise ValidationError(
            f"train set feature dim {train_set.d} != layer_dims[0] "
            f"{config.layer_dims[0]}"
        )
    if eval_set.d != train_set.d:
        raise ValidationError("train and eval feature dimensions differ")

    models, shuffle_rngs = [], []
    for seed in seeds:
        init_ss, shuffle_ss = np.random.SeedSequence(seed).spawn(2)
        models.append(
            init_mlp(
                config.layer_dims,
                config.norm_kind,
                train_set.attribute_set.group_count,
                np.random.default_rng(init_ss),
                fin_momentum=config.fin_momentum,
            )
        )
        shuffle_rngs.append(np.random.default_rng(shuffle_ss))
    model = stack_models(models)
    params = named_parameters(model)
    state = AdamWState.create(params)
    flat = params["head.b"].base  # the one buffer stack_models lays them out in
    shrink = decay_shrink(state, config.optimizer)

    x, y, a = train_set.x, train_set.labels, train_set.attrs
    n = len(train_set)
    kind = config.norm_kind
    losses: list[list[float]] = [[] for _ in seeds]
    reports: list[list[MetricReport]] = [[] for _ in seeds]
    for epoch in range(config.epochs):
        if config.shuffle:
            order = np.stack([rng.permutation(n) for rng in shuffle_rngs])
        else:
            order = np.broadcast_to(np.arange(n), (len(seeds), n))
        # gathered once per epoch, so each step takes (seeds, batch) slices
        xs = x[order]
        onehot = one_hot(y[order])
        rows = None if model.norm is None else model.norm.rows(a[order], n, True)
        batch_losses: list[np.ndarray] = []
        for start in range(0, n, config.batch_size):
            if n - start == 1 and kind is NormKind.BATCH:
                continue  # training-mode batch norm cannot take a singleton
            batch = slice(start, start + config.batch_size)
            batch_rows = None if rows is None else rows[..., batch]
            logits, saved = _forward(model, xs[:, batch], batch_rows, True)
            loss, grad_logits = _cross_entropy(logits, onehot[:, batch])
            if not np.isfinite(loss).all():
                bad = int(np.flatnonzero(~np.isfinite(loss))[0])
                raise TrainingDivergedError(
                    f"non-finite loss for seed {seeds[bad]} at epoch {epoch}, "
                    f"batch {start // config.batch_size}"
                )
            _backward(model, saved, grad_logits, state.grad)
            if not np.isfinite(state.grad_flat).all():
                seed, name = next(
                    (seed, name)
                    for i, seed in enumerate(seeds)
                    for name, g in state.grad.items()
                    if not np.isfinite(g[i]).all()
                )
                raise NonFiniteError(
                    f"non-finite gradient in parameter block {name!r} for seed {seed}"
                )
            _adamw_update(flat, state, config.optimizer, shrink)
            batch_losses.append(loss)
        for i, seed_losses in enumerate(losses):
            seed_losses.append(float(np.mean([loss[i] for loss in batch_losses])))
        evaluated = _evaluate(model, eval_set, config.threshold)
        for seed_reports, (_, report) in zip(reports, evaluated):
            seed_reports.append(report)
    return [
        (
            Checkpoint(
                version=CHECKPOINT_VERSION,
                config=replace(config, seed=seed),
                model=model_slice(model, i),
                epoch=config.epochs,
            ),
            RunHistory(losses=losses[i], reports=reports[i]),
        )
        for i, seed in enumerate(seeds)
    ]


# ---------------------------------------------------------------------------
# multi-seed protocol


@dataclass(frozen=True)
class MetricSummary:
    mean: float | None
    std: float | None
    per_seed: tuple[float | None, ...]


@dataclass
class SeedAggregate:
    seeds: tuple[int, ...]
    metrics: dict[str, MetricSummary]
    es_from_means: dict[str, float | None]  # alternative aggregation, for comparison
    reports: tuple[MetricReport, ...]
    checkpoints: tuple[Checkpoint, ...]
    histories: tuple[RunHistory, ...]


def _summarize(values: list[float | None]) -> MetricSummary:
    """Mean and sample std (ddof 1; 0 when n == 1), None-propagating.

    Values are sorted before reduction so the result is bit-identical
    under any permutation of the seed list.
    """
    if any(v is None for v in values):
        return MetricSummary(mean=None, std=None, per_seed=tuple(values))
    arr = np.sort(np.asarray(values, dtype=np.float64))
    std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return MetricSummary(mean=float(arr.mean()), std=std, per_seed=tuple(values))


def _scalar_metrics(report: MetricReport) -> dict[str, float | None]:
    out: dict[str, float | None] = {
        "acc": report.overall["accuracy"],
        "auc": report.overall["auc"],
        "es_acc": report.equity_scaled["accuracy"],
        "es_auc": report.equity_scaled["auc"],
        "dpd": report.dpd,
        "deodds": report.deodds,
    }
    for g, row in report.per_group.items():
        out[f"acc_group{g}"] = row["accuracy"]
        out[f"auc_group{g}"] = row["auc"]
    return out


def _es_from_means(
    metrics: dict[str, MetricSummary], group_count: int
) -> dict[str, float | None]:
    """ES of the seed-averaged metrics (instead of the mean of per-seed ES)."""
    out: dict[str, float | None] = {}
    for name, prefix in (("acc", "acc_group"), ("auc", "auc_group")):
        groups = {g: metrics[f"{prefix}{g}"].mean for g in range(group_count)}
        out[f"es_{name}"] = es_over_groups(metrics[name].mean, groups)[1]
    return out


def run_seeds(
    train_set: Dataset, eval_set: Dataset, config: TrainConfig, seeds
) -> SeedAggregate:
    """Train once per seed and aggregate the final evaluation reports.

    The seeds train in lockstep as one stack of models, and each seed's
    checkpoint, losses and reports are byte-identical to a solo
    `train(..., replace(config, seed=seed))`. Equity-scaled metrics are
    computed per seed and then averaged; the alternative (ES of the
    seed-averaged metrics) is reported alongside in es_from_means.
    """
    seeds = tuple(int(s) for s in seeds)
    if not seeds:
        raise ValidationError("need at least one seed")
    repeated = [s for s, k in Counter(seeds).items() if k > 1]
    if repeated:
        raise ValidationError(f"seed {repeated[0]} is given more than once")
    for seed in seeds:
        replace(config, seed=seed)  # the config's rules hold for every seed
    runs = _train_seeds(train_set, eval_set, config, seeds)
    checkpoints = tuple(r[0] for r in runs)
    histories = tuple(r[1] for r in runs)
    reports = tuple(h.reports[-1] for h in histories)
    group_count = eval_set.attribute_set.group_count
    per_seed = [_scalar_metrics(rep) for rep in reports]
    names = per_seed[0].keys()
    metrics = {name: _summarize([row[name] for row in per_seed]) for name in names}
    return SeedAggregate(
        seeds=seeds,
        metrics=metrics,
        es_from_means=_es_from_means(metrics, group_count),
        reports=reports,
        checkpoints=checkpoints,
        histories=histories,
    )


def sweep_momentum(
    train_set: Dataset,
    eval_set: Dataset,
    config: TrainConfig,
    grid,
    seeds,
) -> list[tuple[float, SeedAggregate]]:
    """run_seeds at every blend value in the grid, identical seeds throughout.

    Each grid point is one lockstep run of all the seeds.

    The model kind is forced to the group-aware normalizer (the blend has
    no effect on the other kinds). Results come back sorted by m ascending.
    """
    grid = sorted(float(m) for m in grid)
    if not grid:
        raise ValidationError("momentum grid is empty")
    for m in grid:
        if not 0.0 <= m <= 1.0:
            raise ValidationError(f"momentum grid values must lie in [0, 1], got {m}")
    for m, after in zip(grid, grid[1:]):
        if m == after:
            raise ValidationError(f"momentum grid value {m} is given more than once")
    out: list[tuple[float, SeedAggregate]] = []
    for m in grid:
        cfg = replace(config, norm_kind=NormKind.FAIR_IDENTITY, fin_momentum=m)
        out.append((m, run_seeds(train_set, eval_set, cfg, seeds)))
    return out


# ---------------------------------------------------------------------------
# checkpoint serialization


def train_config_to_dict(config: TrainConfig) -> dict:
    """The config's fields in declaration order, the optimizer's nested in its own."""
    return {
        **asdict(config),
        "layer_dims": list(config.layer_dims),
        "norm_kind": config.norm_kind.value,
    }


def train_config_from_dict(data: dict) -> TrainConfig:
    """A TrainConfig from its dict; a key left out takes the dataclass default.

    layer_dims, norm_kind, epochs and batch_size are required.
    """
    check_config_keys(data, tuple(f.name for f in fields(TrainConfig)), "train config")
    opt = data.get("optimizer", {})
    check_config_keys(opt, tuple(f.name for f in fields(AdamWConfig)), "optimizer")
    try:
        read = {  # in this order, so the first missing or bad key is the one named
            "layer_dims": data["layer_dims"],
            "norm_kind": NormKind.from_string(data["norm_kind"]),
            "epochs": data["epochs"],
            "batch_size": data["batch_size"],
            "optimizer": AdamWConfig(**opt),
        }
        return TrainConfig(**{**data, **read})
    except ValidationError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"bad train config: {exc!r}") from exc


def checkpoint_to_dict(ck: Checkpoint) -> dict:
    model = ck.model
    norm = None
    if model.norm is not None:
        norm = {"kind": model.norm_kind.value, **model.norm.to_dict()}
    return {
        "version": ck.version,
        "config": train_config_to_dict(ck.config),
        "backbone": [{"w": layer.w, "b": layer.b} for layer in model.backbone],
        "norm": norm,
        "head": {"w": model.head.w, "b": model.head.b},
        "epoch": ck.epoch,
    }


def save_checkpoint(ck: Checkpoint, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(dumps_canonical(checkpoint_to_dict(ck)))
        f.write("\n")


def checkpoint_from_dict(data: dict) -> Checkpoint:
    if not isinstance(data, dict):
        raise CheckpointFormatError("checkpoint must be a JSON object")
    try:
        version = _as_scalar(data["version"], int, "version")
        config_data = data["config"]
        backbone_data = data["backbone"]
        norm_data = data["norm"]
        head_data = data["head"]
        epoch = _as_scalar(data["epoch"], int, "epoch")
    except (KeyError, TypeError) as exc:
        raise CheckpointFormatError(f"checkpoint missing key: {exc!r}") from exc
    if epoch < 0:
        raise CheckpointFormatError(f"epoch must be >= 0, got {epoch}")
    if version != CHECKPOINT_VERSION:
        raise CheckpointVersionError(
            f"unsupported checkpoint version {version!r}; this build reads "
            f"version {CHECKPOINT_VERSION}"
        )
    config = train_config_from_dict(config_data)
    dims = config.layer_dims
    if not isinstance(backbone_data, list) or len(backbone_data) != len(dims) - 1:
        raise CheckpointShapeError(
            f"backbone: expected {len(dims) - 1} layers, "
            f"got {len(backbone_data) if isinstance(backbone_data, list) else '?'}"
        )
    try:
        backbone = [
            AffineLayer(
                w=_as_array(layer["w"], (dims[i], dims[i + 1]), f"backbone.{i}.w"),
                b=_as_array(layer["b"], (dims[i + 1],), f"backbone.{i}.b"),
            )
            for i, layer in enumerate(backbone_data)
        ]
        feature_dim = dims[-1]
        head = AffineLayer(
            w=_as_array(head_data["w"], (feature_dim, 2), "head.w"),
            b=_as_array(head_data["b"], (2,), "head.b"),
        )
        cls = norm_class(config.norm_kind)
        if cls is None:
            if norm_data is not None:
                raise CheckpointShapeError("norm must be null for the identity kind")
            norm = None
        else:
            kind = norm_data.get("kind") if isinstance(norm_data, dict) else None
            if kind != config.norm_kind.value:
                raise CheckpointFormatError(
                    f"norm.kind {kind!r} does not match config.norm_kind "
                    f"{config.norm_kind.value!r}"
                )
            norm = cls.from_dict(norm_data, feature_dim)
    except CheckpointError:
        raise
    except (KeyError, TypeError) as exc:
        raise CheckpointFormatError(f"checkpoint missing key: {exc!r}") from exc
    except ValueError as exc:
        raise CheckpointFormatError(f"checkpoint has a bad value: {exc}") from exc
    model = MlpModel(
        backbone=backbone, norm_kind=config.norm_kind, norm=norm, head=head
    )
    return Checkpoint(version=version, config=config, model=model, epoch=epoch)


def load_checkpoint(path: str) -> Checkpoint:
    try:
        data = load_json(path, what="checkpoint")
    except ValidationError as exc:
        raise CheckpointFormatError(str(exc)) from exc
    return checkpoint_from_dict(data)
