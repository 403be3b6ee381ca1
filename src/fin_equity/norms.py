"""Normalizers that sit between the backbone features and the linear head.

Four kinds, each one object of the class `norm_class` picks:

* NONE: identity, the object None.
* BATCH: `BatchNormState`, batch normalization with running statistics.
* FAIR_IDENTITY: `FinParams`, one learnable (mu, sigma) pair per group.
* LEARNABLE_SHARED: `SharedParams`, FIN with one group that holds every
  row whatever its attribute id, so both take the same path bit for bit.

An object owns its decisions: its trainable fields in parameter order
(`names`), its draw (`init`), one batch's checks and rows (`rows`), the
only copy of its arithmetic (`forward`, `backward`), and its checked
checkpoint form (`to_dict`, `from_dict`).

The group-aware normalization of a feature row z with group a is

    zhat = (z - mu[a]) / sigma[a],      sigma = log(1 + exp(tau))
    out  = (1 - m) * zhat + m * z

The softplus reparameterization keeps sigma strictly positive under
unconstrained updates to tau, and the momentum blend m in [0, 1] mixes the
raw features back in; m = 1 collapses to the identity exactly (same bits),
because the blend multiplies zhat by zero and z by one.

The gradients are computed analytically. For row i in group A:

    d loss / d z_i  = g_i * ((1 - m) / sigma_A + m)
    d loss / d mu_A = sum_i -g_i * (1 - m) / sigma_A
    d loss / d tau_A = (sum_i -g_i * (1 - m) * (z_i - mu_A) / sigma_A^2)
                       * sigmoid(tau_A)

where g is the incoming gradient. Groups absent from the batch get exact
zeros.

Every op also takes a leading model axis: parameters of shape (S, groups,
dim) or (S, dim) and settings of shape (S,) serve S independent models
whose features come as (S, batch, dim). Reductions run over the batch axis
(-2), and the group-aware ops gather and scatter through the flattened row
s * groups + a, so each model only ever touches its own rows, in batch
order. Each model's slice of the result is bit for bit what the op gives
that model alone; a single model's settings are 0-d.

The objects are the layer's only entry point. `rows` checks one batch
(its group ids, or batch norm's size) and raises the errors callers see;
`forward` and `backward` trust their inputs. The model checks the rest:
`net.forward` the mode and the feature shape, `net.backward` the saved
values' state and the gradient shape. No normalizer writes its input z,
in either mode.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields
from typing import ClassVar

import numpy as np

from .core import config_value
from .errors import CheckpointFormatError, CheckpointShapeError, ValidationError


class NormKind(enum.Enum):
    NONE = "none"
    BATCH = "batch"
    LEARNABLE_SHARED = "learnable_shared"
    FAIR_IDENTITY = "fair_identity"

    @classmethod
    def from_string(cls, s: str) -> "NormKind":
        for kind in cls:
            if kind.value == s:
                return kind
        raise ValidationError(
            f"unknown normalizer kind {s!r}; expected one of "
            f"{[k.value for k in cls]}"
        )


def softplus(t):
    """log(1 + exp(t)), overflow-safe (equals t + log1p(exp(-t)) for large t).

    Strictly positive for any tau representable above roughly -745, where
    exp underflows to zero; unconstrained training never gets near that.
    """
    return np.logaddexp(0.0, t)


def softplus_grad(t):
    """Derivative of softplus: the logistic sigmoid, computed without overflow."""
    t = np.asarray(t, dtype=np.float64)
    e = np.exp(-np.abs(t))
    return np.where(t >= 0, 1.0, e) / (1.0 + e)


def _as_array(
    obj, shape: tuple[int, ...], what: str, positive: bool = False
) -> np.ndarray:
    """A loaded checkpoint array: float64 of the given shape, finite."""
    arr = np.asarray(obj, dtype=np.float64)
    if arr.shape != shape:
        raise CheckpointShapeError(f"{what}: expected shape {shape}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise CheckpointFormatError(f"{what}: non-finite value")
    if positive and not (arr > 0.0).all():
        raise CheckpointFormatError(f"{what}: must be > 0")
    return arr


def _setting(value, models: tuple[int, ...], name: str, unit: bool) -> np.ndarray:
    """A setting per model: 0-d alone, (S,) in a stack, where a scalar broadcasts.

    Each value must lie in [0, 1] if unit, else be > 0 (NaN is neither).
    """
    arr = np.asarray(value, dtype=np.float64)
    if arr.shape not in ((), models):
        raise ValidationError(f"{name} must be 0-d or of shape {models}, got {arr.shape}")
    for v in arr.flat:
        if unit and not 0.0 <= v <= 1.0:
            raise ValidationError(f"{name} must lie in [0, 1], got {float(v)}")
        if not unit and not v > 0.0:
            raise ValidationError(f"{name} must be > 0, got {float(v)}")
    return np.full(models, arr)


def _as_scalar(value, kind: type, what: str):
    """A loaded checkpoint scalar, typed as `core.config_value` types configs."""
    try:
        return config_value(value, kind, what, "value in checkpoint")
    except ValidationError as exc:
        raise CheckpointFormatError(str(exc)) from None


@dataclass
class FinParams:
    """Per-group normalization parameters: mu and tau, shape (groups, dim).

    A stack of models has shape (models, groups, dim). sigma is never
    stored; it is always softplus(tau). momentum is the raw blend weight m
    in [0, 1], one per model: 0-d alone, (models,) in a stack.
    """

    mu: np.ndarray
    tau: np.ndarray
    momentum: np.ndarray | float = 0.3

    names: ClassVar[tuple[str, ...]] = ("mu", "tau")  # trainable, in order
    fixed_groups: ClassVar[int | None] = None  # None: one group per identity

    def __post_init__(self):
        self.mu = np.asarray(self.mu, dtype=np.float64)
        self.tau = np.asarray(self.tau, dtype=np.float64)
        if self.mu.ndim not in (2, 3) or self.mu.shape != self.tau.shape:
            raise ValidationError(
                f"mu and tau must be 2-D (or 3-D stacked) with equal shape, got "
                f"{self.mu.shape} vs {self.tau.shape}"
            )
        self.momentum = _setting(self.momentum, self.mu.shape[:-2], "momentum", True)

    @property
    def group_count(self) -> int:
        return self.mu.shape[-2]

    @property
    def dim(self) -> int:
        return self.mu.shape[-1]

    def sigma(self) -> np.ndarray:
        return softplus(self.tau)

    @classmethod
    def init(cls, group_count: int, dim: int, rng, momentum: float = 0.3):
        """Draw mu, then tau, entries independently from the standard normal."""
        group_count = cls.fixed_groups or group_count
        if group_count < 1 or dim < 1:
            raise ValidationError(
                f"group_count and dim must be >= 1, got {group_count}, {dim}"
            )
        shape = (group_count, dim)
        return cls(rng.standard_normal(shape), rng.standard_normal(shape), momentum)

    def rows(self, attrs, batch: int, training: bool) -> np.ndarray:
        """Check one batch's group ids and offset them into the flattened stack.

        attrs is (batch,), shared by every model, or one row of ids per
        model. Every id must be a valid group id of an integer dtype; there
        is no fallback for unseen groups, by design. The ids are checked
        before they are offset, so a bad id can never reach another model's
        parameters.
        """
        if attrs is None:
            raise ValidationError(
                "group-aware normalizer needs an attribute id per row"
            )
        attrs = np.asarray(attrs)
        models = self.mu.shape[:-2]
        if attrs.shape not in (models + (batch,), (batch,)):
            raise ValidationError(
                f"attrs must be 1-D of length {batch}, got shape {attrs.shape}"
            )
        if attrs.dtype.kind not in "iu":
            raise ValidationError(
                f"attribute ids must be integers, got dtype {attrs.dtype}"
            )
        attrs = attrs.astype(np.intp)
        groups = self.group_count
        bad = np.flatnonzero((attrs < 0) | (attrs >= groups))
        if bad.size:
            first = int(bad[0])
            raise ValidationError(
                f"batch position {first % batch}: attribute id "
                f"{int(attrs.flat[first])} out of range for {groups} groups"
            )
        if math.prod(models) > 1:  # each model's ids index its own block of rows
            attrs = attrs + groups * np.arange(models[0])[:, None]
        return attrs

    def forward(self, z: np.ndarray, rows: np.ndarray, training: bool):
        """Normalize each row by its group's (mu, sigma), then blend with m.

        z is (batch, dim), or (models, batch, dim) for stacked params, and
        rows come from `rows`. Returns the output and, in training, what
        `backward` needs: (m, rows, sigma, sigmoid(tau), z - mu). Both modes
        run the same ops, so they give the same bits; inference builds the
        output in its own z - mu array instead of a new one.
        """
        m = self.momentum[..., None, None]
        sigma = softplus(self.tau).reshape(-1, self.dim)
        centered = z - self.mu.reshape(-1, self.dim)[rows]
        out = np.divide(centered, sigma[rows], out=None if training else centered)
        out *= 1.0 - m
        out += m * z
        saved = (m, rows, sigma, softplus_grad(self.tau), centered) if training else None
        return out, saved

    def backward(self, grad: np.ndarray, saved, grads) -> np.ndarray:
        """Writes grads["norm.mu"] and grads["norm.tau"]; returns grad_z.

        Each group sum is one `bincount` over the flattened (row, feature)
        bins. It adds the weights into zeroed bins in batch order, as
        `np.add.at` into zeros does, so absent groups get exact zeros and
        the bits match.
        """
        m, rows, sigma, sig_grad, centered = saved
        grad_mu, grad_tau = grads["norm.mu"], grads["norm.tau"]
        one_m = 1.0 - m
        sig_rows = sigma[rows]
        scale = one_m / sig_rows
        neg = -grad
        grad_z = grad * (scale + m)
        per_mu = neg * scale
        per_sigma = neg * one_m * centered / (sig_rows * sig_rows)
        shape, dim = sig_grad.shape, sig_grad.shape[-1]
        bins = (rows[..., None] * dim + np.arange(dim)).ravel()
        grad_mu[...] = np.bincount(bins, per_mu.ravel(), grad_mu.size).reshape(shape)
        grad_sigma = np.bincount(bins, per_sigma.ravel(), grad_mu.size).reshape(shape)
        np.multiply(grad_sigma, sig_grad, out=grad_tau)
        return grad_z

    def to_dict(self) -> dict:
        return {"mu": self.mu, "tau": self.tau, "m": float(self.momentum)}

    @classmethod
    def from_dict(cls, data: dict, dim: int) -> "FinParams":
        mu = np.asarray(data["mu"], dtype=np.float64)
        groups = f"{cls.fixed_groups} group" if cls.fixed_groups else "groups"
        if mu.shape[1:] != (dim,) or cls.fixed_groups not in (None, mu.shape[0]):
            raise CheckpointShapeError(
                f"norm.mu: expected ({groups}, {dim}), got {mu.shape}"
            )
        mu = _as_array(mu, mu.shape, "norm.mu")
        tau = _as_array(data["tau"], mu.shape, "norm.tau")
        if not (softplus(tau) > 0.0).all():
            raise CheckpointFormatError("norm.tau: sigma = softplus(tau) must be > 0")
        return cls(mu, tau, _as_scalar(data["m"], float, "norm.m"))


class SharedParams(FinParams):
    """The shared learnable normalizer: FIN with one group, holding every row."""

    fixed_groups = 1

    def rows(self, attrs, batch: int, training: bool) -> np.ndarray:
        return super().rows(np.zeros(batch, dtype=np.intp), batch, training)


def _over_batch(v: np.ndarray) -> np.ndarray:
    """A per-feature (..., dim) array broadcast over the batch axis."""
    return v[..., None, :]


@dataclass
class BatchNormState:
    """Standard batch normalization state for one feature width.

    Training mode normalizes with batch statistics (biased variance) and
    updates the running statistics; inference mode normalizes with the
    running statistics and mutates nothing. The running variance is
    updated with the unbiased batch estimate, the usual convention. A stack
    of models keeps (models, dim) arrays and (models,) settings eps and
    bn_momentum; a single model's settings are 0-d.
    """

    gamma: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray
    eps: np.ndarray | float = 1e-5
    bn_momentum: np.ndarray | float = 0.1

    names: ClassVar[tuple[str, ...]] = ("gamma", "beta")  # trainable, in order

    def __post_init__(self):
        models = np.shape(self.gamma)[:-1]
        self.eps = _setting(self.eps, models, "eps", False)
        self.bn_momentum = _setting(self.bn_momentum, models, "bn_momentum", True)

    @classmethod
    def create(cls, dim: int) -> "BatchNormState":
        if dim < 1:
            raise ValidationError(f"dim must be >= 1, got {dim}")
        return cls(np.ones(dim), np.zeros(dim), np.zeros(dim), np.ones(dim))

    @classmethod
    def init(cls, group_count: int, dim: int, rng, momentum: float) -> "BatchNormState":
        """The fresh state of `create`; it draws nothing and has no groups."""
        return cls.create(dim)

    def rows(self, attrs, batch: int, training: bool) -> None:
        """Batch norm takes no group rows; a training batch needs two rows."""
        if training and batch < 2:
            raise ValidationError(
                f"batch normalization needs batch size >= 2 in training mode, "
                f"got {batch}"
            )

    def forward(self, z: np.ndarray, rows: None, training: bool):
        """z is (batch, dim), or (models, batch, dim) for a stacked state.

        Returns the output and (xhat, inv_std, gamma) for `backward`.
        """
        if training:
            n = z.shape[-2]
            # z.mean and z.var's steps, in numpy's order, with the mean taken once
            mean = z.sum(axis=-2, keepdims=True) / n
            centered = z - mean
            var = (centered * centered).sum(axis=-2) / n  # biased, for normalization
            inv_std = 1.0 / np.sqrt(var + self.eps[..., None])
            xhat = centered * _over_batch(inv_std)
            r = self.bn_momentum[..., None]
            self.running_mean = (1.0 - r) * self.running_mean + r * mean[..., 0, :]
            self.running_var = (1.0 - r) * self.running_var + r * (var * n / (n - 1))
        else:
            inv_std = 1.0 / np.sqrt(self.running_var + self.eps[..., None])
            xhat = (z - _over_batch(self.running_mean)) * _over_batch(inv_std)
        out = _over_batch(self.gamma) * xhat + _over_batch(self.beta)
        return out, (xhat, inv_std, self.gamma)

    def backward(self, grad: np.ndarray, saved, grads) -> np.ndarray:
        """Writes grads["norm.gamma"] and grads["norm.beta"]; returns grad_z."""
        xhat, inv_std, gamma = saved
        n = grad.shape[-2]
        grad.sum(axis=-2, out=grads["norm.beta"])
        (grad * xhat).sum(axis=-2, out=grads["norm.gamma"])
        gx = grad * _over_batch(gamma)
        return _over_batch(inv_std / n) * (
            n * gx
            - gx.sum(axis=-2, keepdims=True)
            - xhat * (gx * xhat).sum(axis=-2, keepdims=True)
        )

    def to_dict(self) -> dict:
        arrays = {f.name: getattr(self, f.name) for f in fields(self)}
        return arrays | {"eps": float(self.eps), "bn_momentum": float(self.bn_momentum)}

    @classmethod
    def from_dict(cls, data: dict, dim: int) -> "BatchNormState":
        arrays = [
            _as_array(data[key], (dim,), f"norm.{key}", positive=key == "running_var")
            for key in ("gamma", "beta", "running_mean", "running_var")
        ]
        eps = _as_scalar(data["eps"], float, "norm.eps")
        eps = _as_array(eps, (), "norm.eps", positive=True)
        momentum = _as_scalar(data["bn_momentum"], float, "norm.bn_momentum")
        return cls(*arrays, eps, momentum)


def norm_class(kind: NormKind):
    """The normalizer class of a kind; None for the identity."""
    return {
        NormKind.BATCH: BatchNormState,
        NormKind.LEARNABLE_SHARED: SharedParams,
        NormKind.FAIR_IDENTITY: FinParams,
    }.get(kind)

