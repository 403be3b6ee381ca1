"""AdamW with decoupled weight decay, updating numpy arrays in place.

The decay is applied as a separate multiplicative shrink, never through the
gradient moments:

    theta <- theta * (1 - lr * wd)          (affine weights only)
    theta <- theta - lr * mhat / (sqrt(vhat) + eps)

Only affine weights decay (`default_decay_mask`); biases and normalizer
parameters are excluded.

The gradients and moments of all parameter blocks live in one flat float64
buffer each, block after block in parameter order, and the per-name arrays
are views into them. A caller that writes its gradients straight into the
state's gradient views (as `net.backward(..., out=state.grad)` does) hands
them over without a copy; any other gradient block is copied in.

`adamw_step` checks names, shapes and the finiteness of the gradients,
copies the parameters into one flat buffer laid out like the state's, calls
the kernel `_adamw_update` on it and copies them back out. The kernel
trusts its inputs and makes one flat pass over the moments, the update and
the parameters: the decay is one multiply by a per-element shrink vector
(`decay_shrink`: 1.0 outside the decay mask, and no multiply at all when
weight_decay is 0), then the update is subtracted. The training loop calls
the kernel on the buffer that `net.stack_models` lays the parameters out
in, so it copies nothing. Every element sees the same operations in the
same order as a per-block loop would apply (a multiply by 1.0 is exact, and
so is the copy), so results are bitwise unchanged by the fusion. A block
with a leading model axis (a stack of models) is just a bigger block:
every model is updated in the same pass, each as if alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import type_config_fields
from .errors import NonFiniteError, ValidationError


def default_decay_mask(name: str) -> bool:
    """Decay affine weights only: no biases, no normalizer parameters."""
    return name.endswith(".w") and not name.startswith("norm.")


@dataclass(frozen=True)
class AdamWConfig:
    lr: float = 5e-5
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0

    def __post_init__(self):
        type_config_fields(self, "optimizer config")
        if self.lr <= 0:
            raise ValidationError(f"lr must be > 0, got {self.lr}")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValidationError(
                f"betas must lie in [0, 1), got ({self.beta1}, {self.beta2})"
            )
        if self.eps <= 0:
            raise ValidationError(f"eps must be > 0, got {self.eps}")
        if self.weight_decay < 0:
            raise ValidationError(f"weight_decay must be >= 0, got {self.weight_decay}")


def flat_views(
    shapes: dict[str, tuple[int, ...]],
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """A zeroed float64 buffer and one C-contiguous view into it per block, in order."""
    sizes = {name: math.prod(shape) for name, shape in shapes.items()}
    flat = np.zeros(sum(sizes.values()))
    views: dict[str, np.ndarray] = {}
    start = 0
    for name, shape in shapes.items():
        views[name] = flat[start : start + sizes[name]].reshape(shape)
        start += sizes[name]
    return flat, views


@dataclass
class AdamWState:
    """Step count, moments, and the buffers each step reads and writes.

    m[name], v[name] and grad[name] are views into m_flat, v_flat and
    grad_flat; update_flat holds the last step's update.
    """

    step: int
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    m_flat: np.ndarray = field(repr=False)
    v_flat: np.ndarray = field(repr=False)
    grad_flat: np.ndarray = field(repr=False)
    grad: dict[str, np.ndarray] = field(repr=False)
    update_flat: np.ndarray = field(repr=False)

    @classmethod
    def create(cls, params: dict[str, np.ndarray]) -> "AdamWState":
        shapes = {name: p.shape for name, p in params.items()}
        m_flat, m = flat_views(shapes)
        v_flat, v = flat_views(shapes)
        grad_flat, grad = flat_views(shapes)
        return cls(
            step=0,
            m=m,
            v=v,
            m_flat=m_flat,
            v_flat=v_flat,
            grad_flat=grad_flat,
            grad=grad,
            update_flat=np.zeros(m_flat.size),
        )


def adamw_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamWState,
    config: AdamWConfig,
) -> tuple[dict[str, np.ndarray], AdamWState]:
    """One update over every named parameter; arrays are mutated in place.

    Fails fast on any non-finite gradient, naming the first bad parameter
    block; nothing is updated when a check fails. The parameters are
    copied into one flat buffer laid out like the state's for the update,
    and back out of it.
    """
    if params.keys() != grads.keys():
        raise ValidationError(
            f"parameter/gradient name mismatch: {sorted(set(params) ^ set(grads))}"
        )
    if params.keys() != state.m.keys():
        raise ValidationError(
            f"parameter/optimizer-state name mismatch: "
            f"{sorted(set(params) ^ set(state.m))}"
        )
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ValidationError(
                f"gradient shape {g.shape} != parameter shape {p.shape} for {name}"
            )
        if p.shape != state.m[name].shape:
            raise ValidationError(
                f"parameter shape {p.shape} != optimizer-state shape "
                f"{state.m[name].shape} for {name}"
            )
        if g is not state.grad[name]:
            state.grad[name][...] = g
    if not np.isfinite(state.grad_flat).all():
        bad = next(n for n in state.m if not np.isfinite(state.grad[n]).all())
        raise NonFiniteError(f"non-finite gradient in parameter block {bad!r}")

    flat, staged = flat_views({name: m.shape for name, m in state.m.items()})
    for name, block in staged.items():
        block[...] = params[name]
    _adamw_update(flat, state, config, decay_shrink(state, config))
    for name, block in staged.items():
        params[name][...] = block
    return params, state


def decay_shrink(state: AdamWState, config: AdamWConfig) -> np.ndarray | None:
    """The per-element weight-decay factor over the flat buffers.

    1 - lr * weight_decay on each element of a block that decays and 1.0
    elsewhere; None when weight_decay is 0, so no multiply is made.
    """
    if not config.weight_decay:
        return None
    factor = 1.0 - config.lr * config.weight_decay
    shrink, blocks = flat_views({name: m.shape for name, m in state.m.items()})
    for name, block in blocks.items():
        block[...] = factor if default_decay_mask(name) else 1.0
    return shrink


def _adamw_update(
    flat: np.ndarray,
    state: AdamWState,
    config: AdamWConfig,
    shrink: np.ndarray | None,
) -> None:
    """Kernel of adamw_step: one pass over the flat buffers.

    flat holds the parameters in state order; the gradients are in
    state.grad_flat, all finite; shrink is decay_shrink(state, config).
    """
    g = state.grad_flat
    state.step += 1
    t = state.step
    bc1 = 1.0 - config.beta1 ** t
    bc2 = 1.0 - config.beta2 ** t
    m = state.m_flat
    v = state.v_flat
    m *= config.beta1
    m += (1.0 - config.beta1) * g
    v *= config.beta2
    v += (1.0 - config.beta2) * (g * g)
    np.divide(
        config.lr * (m / bc1), np.sqrt(v / bc2) + config.eps, out=state.update_flat
    )
    if shrink is not None:
        flat *= shrink
    flat -= state.update_flat
