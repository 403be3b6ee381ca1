"""A small double-precision MLP classifier with a normalizer before the head.

Architecture: affine backbone layers with a ramp activation between them
(none after the last), then one of the normalizers from `norms`, then a
linear head producing 2 logits. Forward and backward are written by hand;
no autodiff. The ramp's subgradient at 0 is taken to be 0.

A model's arrays may carry a leading model axis: `stack_models` packs S
models into one whose parameters are (S, ...) views of one flat buffer,
and forward, cross_entropy and backward then serve all S models in one
call, with a batch of shape (S, batch, ...). Products use a stacked matmul
that transposes the last two axes only and reductions run over the batch
axis, so each model's slice of every result is bit for bit what the op
gives that model alone.

forward, cross_entropy and backward check their inputs, then call a private
kernel (_forward, _cross_entropy, _backward) that holds the only copy of
the op's arithmetic and trusts its inputs: checked shapes, the rows that
the normalizer object's `rows` gives, a one_hot label mask. These checks
are the normalizer's too: forward checks the mode and the feature shape
and reaches the group-id checks through `rows`, and backward checks the
saved values' state and the gradient's shape. The training loop checks its
data once per run and calls the kernels directly. No op branches on the
normalizer kind: each calls the object (None for the identity). backward
returns a dict keyed like named_parameters, and stops at the weight and
bias gradients of the first backbone layer; the input gradient is never
formed.

Inference scores in blocks of rows. The backbone and the normalizer are
row-wise, so `_forward` runs them over INFER_ROWS rows at a time into one
(..., batch, feature_dim) matrix, and only one block's hidden layers are
alive at once. The head then runs once over that whole matrix, because
its product does not keep its bits in blocks: OpenBLAS picks a gemm kernel
by the product's size, and for a product 2 wide the kernels differ in the
last bit (54,873 of 60,000 rows of a 16x2 product differ from the same
product in 256-row blocks). A backbone product keeps its bits in blocks of
2 or more rows when its width is a multiple of BLOCK_WIDTH; a model with
a layer of another width scores in one block, as does a batch of one row.
The training forward runs the same backbone and normalizer code
(`_features`) over the whole batch.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import CacheError, ValidationError
from .norms import BatchNormState, FinParams, NormKind, norm_class
from .optim import flat_views

# Rows per block of the inference forward. At this size a 20x32 block
# product stays under OpenBLAS's threading threshold, so no block wakes the
# BLAS threads; 4096-row blocks made `evaluate` on 60k rows 0.2-0.4 s slower.
INFER_ROWS = 256
# A backbone whose every width is a multiple of this scores in row blocks.
BLOCK_WIDTH = 8


@dataclass
class AffineLayer:
    w: np.ndarray  # (fan_in, fan_out)
    b: np.ndarray  # (fan_out,)


@dataclass
class MlpModel:
    backbone: list[AffineLayer]
    norm_kind: NormKind
    norm: FinParams | BatchNormState | None
    head: AffineLayer

    @property
    def input_dim(self) -> int:
        return self.backbone[0].w.shape[-2]

    @property
    def feature_dim(self) -> int:
        return self.head.w.shape[-2]

    @property
    def models(self) -> tuple[int, ...]:
        """(S,) for a stack of S models, () for a single model."""
        return self.head.w.shape[:-2]


def init_mlp(
    layer_dims,
    norm_kind: NormKind,
    group_count: int,
    rng: np.random.Generator,
    fin_momentum: float = 0.3,
) -> MlpModel:
    """Build a model with scaled-uniform fan-in weight init and zero biases.

    Weights are drawn from U(-1/sqrt(fan_in), 1/sqrt(fan_in)), giving
    variance 1/(3 * fan_in). Backbone and head weights are drawn before any
    normalizer parameters, so two models that differ only in norm_kind get
    identical backbone/head draws from the same generator state.
    """
    dims = tuple(int(d) for d in layer_dims)
    if len(dims) < 2 or any(d < 1 for d in dims):
        raise ValidationError(
            f"layer_dims needs >= 2 positive entries (input..feature), got {dims}"
        )

    def draw(fan_in: int, fan_out: int) -> AffineLayer:
        limit = 1.0 / np.sqrt(fan_in)
        w = rng.uniform(-limit, limit, size=(fan_in, fan_out))
        return AffineLayer(w=w, b=np.zeros(fan_out))

    backbone = [draw(dims[i], dims[i + 1]) for i in range(len(dims) - 1)]
    head = draw(dims[-1], 2)

    cls = norm_class(norm_kind)
    norm = None if cls is None else cls.init(group_count, dims[-1], rng, fin_momentum)
    return MlpModel(backbone=backbone, norm_kind=norm_kind, norm=norm, head=head)


@dataclass
class ForwardCaches:
    mode: str
    saved: tuple  # what _forward saved for _backward; () from inference
    consumed: bool = False


def forward(
    model: MlpModel, x, attrs=None, mode: str = "training"
) -> tuple[np.ndarray, ForwardCaches]:
    """Run the model; returns (logits, caches).

    x is (batch, input_dim); a stacked model also takes one batch per
    model, (S, batch, input_dim), and broadcasts a 2-D x to every model
    without copying it. attrs is required only for the group-aware
    normalizer, which errors on any out-of-range group id instead of
    falling back. Inference mode never mutates model state (batch-norm
    running statistics stay frozen) and saves nothing for backward, so its
    caches hold no arrays.
    """
    if mode not in ("training", "inference"):
        raise ValidationError(f"mode must be 'training' or 'inference', got {mode!r}")
    x = np.asarray(x, dtype=np.float64)
    lead = x.shape[:-2]
    if x.ndim < 2 or lead not in ((), model.models) or x.shape[-1] != model.input_dim:
        raise ValidationError(
            f"input must be (batch, {model.input_dim}), got {x.shape}"
        )
    training = mode == "training"
    rows = None if model.norm is None else model.norm.rows(attrs, x.shape[-2], training)
    logits, saved = _forward(model, x, rows, training)
    return logits, ForwardCaches(mode=mode, saved=saved)


def _forward(model: MlpModel, x: np.ndarray, rows, training: bool):
    """Kernel of forward: x is checked float64, rows the normalizer's group rows.

    Returns the logits and, in training, what `_backward` needs: each
    backbone layer's (input, activation), the normalizer's saved values and
    the head input. Inference saves nothing, so no intermediate outlives
    the call: it runs the backbone and normalizer over blocks of
    INFER_ROWS rows into one (..., batch, feature_dim) matrix, so only one
    block's hidden layers are alive at a time, and then the head over that
    whole matrix. A batch of one block skips the matrix.
    """
    if training:
        z, layers, norm_saved = _features(model, x, rows, True)
        saved = (layers, norm_saved, z)
    else:
        n = x.shape[-2]
        blocks = _row_blocks(model, n)
        if len(blocks) == 1:
            z = _features(model, x, rows, False)[0]
        else:
            z = np.empty(model.models + (n, model.feature_dim))
            for block in blocks:
                block_rows = None if rows is None else rows[..., block]
                z[..., block, :] = _features(model, x[..., block, :], block_rows, False)[0]
        saved = ()
    logits = z @ model.head.w
    logits += model.head.b[..., None, :]
    return logits, saved


def _row_blocks(model: MlpModel, n: int) -> list[slice]:
    """Slices of INFER_ROWS rows covering range(n), or one slice.

    A 1-row tail joins the block before it: numpy takes a 1-row product
    down the matrix-vector path, whose bits differ. A backbone with a layer
    whose width is not a multiple of BLOCK_WIDTH gets one slice, as its
    products take other bits in blocks (see the module docstring).
    """
    if any(layer.w.shape[-1] % BLOCK_WIDTH for layer in model.backbone):
        return [slice(0, n)]
    starts = list(range(0, n, INFER_ROWS))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [n])]


def _features(model: MlpModel, x: np.ndarray, rows, training: bool):
    """The backbone and normalizer over the rows of x: (z, layers, norm_saved).

    Every step is row-wise, so inference can run it over blocks of rows
    (`_row_blocks`). The ramp runs in place, so a hidden layer's saved
    activation is the next layer's input; it is positive exactly where the
    pre-activation is.
    """
    h = x
    layers: list[tuple[np.ndarray, np.ndarray | None]] = []
    last = len(model.backbone) - 1
    for i, layer in enumerate(model.backbone):
        pre = h @ layer.w
        pre += layer.b[..., None, :]
        if i < last:
            np.maximum(pre, 0.0, out=pre)
        if training:
            layers.append((h, pre if i < last else None))
        h = pre
    z, norm_saved = h, None
    if model.norm is not None:
        z, norm_saved = model.norm.forward(h, rows, training)
    return z, layers, norm_saved


def softmax(logits) -> np.ndarray:
    """Row-wise softmax, stabilized by subtracting the row max."""
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


_CLASSES = np.arange(2)


def one_hot(labels: np.ndarray) -> np.ndarray:
    """Boolean (..., 2) mask of each label's class; a row not 0/1 is all False."""
    return labels[..., None] == _CLASSES


def cross_entropy(logits, labels) -> tuple[float | np.ndarray, np.ndarray]:
    """Mean cross-entropy over the batch and its gradient w.r.t. logits.

    Uses the log-sum-exp form so large logits cannot overflow. The gradient
    is (softmax - onehot) / batch. Stacked (S, batch, 2) logits with
    (S, batch) labels give an (S,) array of per-model losses.
    """
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels)
    if logits.ndim not in (2, 3) or logits.shape[-1] != 2:
        raise ValidationError(f"logits must be (batch, 2), got {logits.shape}")
    if labels.shape != logits.shape[:-1]:
        raise ValidationError("labels must be a 1-D array of 0/1 matching the batch")
    onehot = one_hot(labels)  # no row can match both classes
    if np.count_nonzero(onehot) != labels.size:
        raise ValidationError("labels must be a 1-D array of 0/1 matching the batch")
    loss, grad = _cross_entropy(logits, onehot)
    return (float(loss) if loss.ndim == 0 else loss), grad


def _cross_entropy(logits: np.ndarray, onehot: np.ndarray):
    """Kernel of cross_entropy: onehot is a valid one_hot mask of the labels."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    loss = -log_probs[onehot].reshape(onehot.shape[:-1]).mean(axis=-1)
    grad = np.exp(log_probs)
    grad -= onehot  # 1.0 off each row's label entry, 0.0 (exact) off the other
    grad /= logits.shape[-2]
    return loss, grad


def backward(
    model: MlpModel, caches: ForwardCaches, grad_logits, out=None
) -> dict[str, np.ndarray]:
    """Backpropagate grad_logits through head, normalizer, and backbone.

    Returns the gradients keyed and ordered like named_parameters. out, if
    given, maps every such name to a C-contiguous array of that
    parameter's shape; each gradient is written there and out is returned.
    """
    if caches.mode != "training":
        raise CacheError("backward requires caches from a training-mode forward")
    if caches.consumed:
        raise CacheError("forward caches already consumed by a backward pass")
    caches.consumed = True
    g = np.asarray(grad_logits, dtype=np.float64)
    head_input = caches.saved[2]
    if g.shape != head_input.shape[:-1] + (2,):
        raise CacheError(
            f"grad_logits shape {g.shape} does not match batch "
            f"{head_input.shape[:-1] + (2,)}"
        )
    if out is None:
        out = {name: np.empty(p.shape) for name, p in named_parameters(model).items()}
    _backward(model, caches.saved, g, out)
    return out


def _backward(model: MlpModel, saved, g: np.ndarray, out) -> None:
    """Kernel of backward: writes every parameter gradient into out[name].

    The gradient w.r.t. the model input is never formed: backbone layer 0
    stops at its own weight and bias gradients.
    """
    layers, norm_saved, head_input = saved
    np.matmul(head_input.swapaxes(-1, -2), g, out=out["head.w"])
    g.sum(axis=-2, out=out["head.b"])
    gz = g @ model.head.w.swapaxes(-1, -2)

    if model.norm is not None:
        gz = model.norm.backward(gz, norm_saved, out)

    for i in range(len(layers) - 1, -1, -1):
        inp, act = layers[i]
        gpre = gz if act is None else gz * (act > 0)  # ramp subgradient at 0 is 0
        np.matmul(inp.swapaxes(-1, -2), gpre, out=out[f"backbone.{i}.w"])
        gpre.sum(axis=-2, out=out[f"backbone.{i}.b"])
        if i:
            gz = gpre @ model.backbone[i].w.swapaxes(-1, -2)


def named_parameters(model: MlpModel) -> dict[str, np.ndarray]:
    """Flat name -> array view of every trainable parameter.

    Batch-norm running statistics are state, not parameters, and are
    excluded. Iteration order is fixed: backbone, normalizer, head.
    """
    out: dict[str, np.ndarray] = {}
    for i, layer in enumerate(model.backbone):
        out[f"backbone.{i}.w"] = layer.w
        out[f"backbone.{i}.b"] = layer.b
    for name in () if model.norm is None else model.norm.names:
        out[f"norm.{name}"] = getattr(model.norm, name)
    out["head.w"] = model.head.w
    out["head.b"] = model.head.b
    return out


def _map_arrays(objs, fn):
    """objs[0] with each field, an array, replaced by fn(that field of every obj)."""
    mapped = {f.name: fn(*(getattr(o, f.name) for o in objs)) for f in fields(objs[0])}
    return replace(objs[0], **mapped)


def _map_model(models, fn) -> MlpModel:
    first = models[0]
    return MlpModel(
        backbone=[_map_arrays(ls, fn) for ls in zip(*(m.backbone for m in models))],
        norm_kind=first.norm_kind,
        norm=None if first.norm is None else _map_arrays([m.norm for m in models], fn),
        head=_map_arrays([m.head for m in models], fn),
    )


def stack_models(models) -> MlpModel:
    """One model serving all of models, each array stacked on a leading axis.

    The models must share their architecture and normalizer kind. Every
    array is stacked, the normalizer's settings too, so each model keeps
    its own m, eps and bn_momentum. The stacked trainable parameters are
    views of one flat float64 buffer, block after block in named_parameters
    order; the other arrays are stacked into arrays of their own.
    """
    models = list(models)
    for model in models[1:]:
        if model.norm_kind is not models[0].norm_kind:
            raise ValidationError(
                f"cannot stack models with different norm kinds: "
                f"{models[0].norm_kind.value} and {model.norm_kind.value}"
            )
    first = named_parameters(models[0])
    _, views = flat_views({name: (len(models),) + p.shape for name, p in first.items()})
    slot = {id(p): views[name] for name, p in first.items()}
    return _map_model(
        models, lambda *arrays: np.stack(arrays, out=slot.get(id(arrays[0])))
    )


def model_slice(model: MlpModel, index: int) -> MlpModel:
    """A copy of model `index` of a stack, owning its arrays."""
    return _map_model([model], lambda a: a[index].copy())
