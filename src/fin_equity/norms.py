"""Normalizers that sit between the backbone features and the linear head.

Four kinds:

* NONE: identity.
* BATCH: standard batch normalization with running statistics.
* LEARNABLE_SHARED: one learnable (mu, sigma) pair shared by everyone;
  implemented by delegating to the group-aware ops with a single group, so
  the two take the same arithmetic path bit for bit.
* FAIR_IDENTITY: one learnable (mu, sigma) pair per identity group.

The group-aware normalization of a feature row z with group a is

    zhat = (z - mu[a]) / sigma[a],      sigma = log(1 + exp(tau))
    out  = (1 - m) * zhat + m * z

The softplus reparameterization keeps sigma strictly positive under
unconstrained updates to tau, and the momentum blend m in [0, 1] mixes the
raw features back in; m = 1 collapses to the identity exactly (same bits),
because the blend multiplies zhat by zero and z by one.

Gradients are computed analytically. For row i in group A:

    d loss / d z_i  = g_i * ((1 - m) / sigma_A + m)
    d loss / d mu_A = sum_i -g_i * (1 - m) / sigma_A
    d loss / d tau_A = (sum_i -g_i * (1 - m) * (z_i - mu_A) / sigma_A^2)
                       * sigmoid(tau_A)

where g is the incoming gradient. Groups absent from the batch get exact
zeros.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import CacheError, ValidationError


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
    return np.where(t >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


@dataclass
class FinParams:
    """Per-group normalization parameters: mu and tau, shape (groups, dim).

    sigma is never stored; it is always softplus(tau). momentum is the raw
    blend weight m in [0, 1].
    """

    mu: np.ndarray
    tau: np.ndarray
    momentum: float = 0.3

    def __post_init__(self):
        self.mu = np.asarray(self.mu, dtype=np.float64)
        self.tau = np.asarray(self.tau, dtype=np.float64)
        if self.mu.ndim != 2 or self.mu.shape != self.tau.shape:
            raise ValidationError(
                f"mu and tau must be 2-D with equal shape, got "
                f"{self.mu.shape} vs {self.tau.shape}"
            )
        if not 0.0 <= self.momentum <= 1.0:
            raise ValidationError(f"momentum must lie in [0, 1], got {self.momentum}")

    @property
    def group_count(self) -> int:
        return self.mu.shape[0]

    @property
    def dim(self) -> int:
        return self.mu.shape[1]

    def sigma(self) -> np.ndarray:
        return softplus(self.tau)


def init_fin(
    group_count: int,
    dim: int,
    rng: np.random.Generator,
    momentum: float = 0.3,
) -> FinParams:
    """Draw mu and tau entries independently from the standard normal."""
    if group_count < 1 or dim < 1:
        raise ValidationError(
            f"group_count and dim must be >= 1, got {group_count}, {dim}"
        )
    mu = rng.standard_normal((group_count, dim))
    tau = rng.standard_normal((group_count, dim))
    return FinParams(mu=mu, tau=tau, momentum=momentum)


@dataclass
class NormCache:
    """Values saved by a group-aware forward pass for its one backward pass."""

    momentum: float
    attrs: np.ndarray
    sigma: np.ndarray      # (groups, dim), softplus(tau) at forward time
    sig_grad: np.ndarray   # (groups, dim), sigmoid(tau) at forward time
    centered: np.ndarray   # (batch, dim), z - mu[attrs]
    group_count: int
    consumed: bool = False


def fin_forward(z, attrs, params: FinParams) -> tuple[np.ndarray, NormCache]:
    """Normalize each row by its group's (mu, sigma), then blend with m.

    Every attrs entry must be a valid group id of an integer dtype; there is
    no fallback for unseen groups, by design.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2 or z.shape[1] != params.dim:
        raise ValidationError(
            f"features must be (batch, {params.dim}), got {z.shape}"
        )
    attrs = np.asarray(attrs)
    if attrs.shape != (z.shape[0],):
        raise ValidationError(
            f"attrs must be 1-D of length {z.shape[0]}, got shape {attrs.shape}"
        )
    if attrs.dtype.kind not in "iu":
        raise ValidationError(
            f"attribute ids must be integers, got dtype {attrs.dtype}"
        )
    attrs = attrs.astype(np.intp)
    bad = np.flatnonzero((attrs < 0) | (attrs >= params.group_count))
    if bad.size:
        raise ValidationError(
            f"batch position {int(bad[0])}: attribute id {int(attrs[bad[0]])} "
            f"out of range for {params.group_count} groups"
        )
    m = float(params.momentum)
    sigma = softplus(params.tau)
    centered = z - params.mu[attrs]
    zhat = centered / sigma[attrs]
    out = (1.0 - m) * zhat + m * z
    cache = NormCache(
        momentum=m,
        attrs=attrs,
        sigma=sigma,
        sig_grad=softplus_grad(params.tau),
        centered=centered,
        group_count=params.group_count,
    )
    return out, cache


def fin_backward(
    grad_out, cache: NormCache
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Analytic backward for fin_forward.

    Returns (grad_z, grad_mu, grad_tau). The cache is single-use; reusing
    it or passing a mismatched gradient shape is an internal error.
    """
    if cache.consumed:
        raise CacheError("normalizer cache already consumed by a backward pass")
    grad_out = np.asarray(grad_out, dtype=np.float64)
    if grad_out.shape != cache.centered.shape:
        raise CacheError(
            f"grad shape {grad_out.shape} does not match forward shape "
            f"{cache.centered.shape}"
        )
    cache.consumed = True
    m = cache.momentum
    one_m = 1.0 - m
    sig_rows = cache.sigma[cache.attrs]
    grad_z = grad_out * (one_m / sig_rows + m)
    per_mu = -grad_out * (one_m / sig_rows)
    per_sigma = -grad_out * one_m * cache.centered / (sig_rows * sig_rows)
    grad_mu = np.zeros((cache.group_count, cache.centered.shape[1]))
    grad_sigma = np.zeros_like(grad_mu)
    np.add.at(grad_mu, cache.attrs, per_mu)
    np.add.at(grad_sigma, cache.attrs, per_sigma)
    grad_tau = grad_sigma * cache.sig_grad
    return grad_z, grad_mu, grad_tau


def lbn_forward(z, params: FinParams) -> tuple[np.ndarray, NormCache]:
    """Shared learnable normalizer: the group-aware op with one group."""
    if params.group_count != 1:
        raise ValidationError(
            f"shared normalizer needs group_count 1, got {params.group_count}"
        )
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2:
        raise ValidationError(f"features must be 2-D, got shape {z.shape}")
    return fin_forward(z, np.zeros(z.shape[0], dtype=np.intp), params)


def lbn_backward(grad_out, cache: NormCache):
    """Backward for lbn_forward; identical to the group-aware backward."""
    return fin_backward(grad_out, cache)


@dataclass
class BatchNormState:
    """Standard batch normalization state for one feature width.

    Training mode normalizes with batch statistics (biased variance) and
    updates the running statistics; inference mode normalizes with the
    running statistics and mutates nothing. The running variance is
    updated with the unbiased batch estimate, the usual convention.
    """

    gamma: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray
    eps: float = 1e-5
    bn_momentum: float = 0.1
    mode: str = "training"

    @classmethod
    def create(cls, dim: int) -> "BatchNormState":
        if dim < 1:
            raise ValidationError(f"dim must be >= 1, got {dim}")
        return cls(
            gamma=np.ones(dim),
            beta=np.zeros(dim),
            running_mean=np.zeros(dim),
            running_var=np.ones(dim),
        )

    @property
    def dim(self) -> int:
        return self.gamma.shape[0]


@dataclass
class BnCache:
    xhat: np.ndarray
    inv_std: np.ndarray
    gamma: np.ndarray
    training: bool
    consumed: bool = False


def bn_forward(
    z, state: BatchNormState, mode: str | None = None
) -> tuple[np.ndarray, BnCache]:
    """Batch normalization forward; mode defaults to state.mode."""
    mode = state.mode if mode is None else mode
    if mode not in ("training", "inference"):
        raise ValidationError(f"mode must be 'training' or 'inference', got {mode!r}")
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2 or z.shape[1] != state.dim:
        raise ValidationError(f"features must be (batch, {state.dim}), got {z.shape}")
    if mode == "training":
        n = z.shape[0]
        if n < 2:
            raise ValidationError(
                f"batch normalization needs batch size >= 2 in training mode, got {n}"
            )
        mean = z.mean(axis=0)
        var = z.var(axis=0)  # biased, used for normalization
        inv_std = 1.0 / np.sqrt(var + state.eps)
        xhat = (z - mean) * inv_std
        r = state.bn_momentum
        state.running_mean = (1.0 - r) * state.running_mean + r * mean
        state.running_var = (1.0 - r) * state.running_var + r * (var * n / (n - 1))
    else:
        inv_std = 1.0 / np.sqrt(state.running_var + state.eps)
        xhat = (z - state.running_mean) * inv_std
    out = state.gamma * xhat + state.beta
    return out, BnCache(
        xhat=xhat, inv_std=inv_std, gamma=state.gamma, training=(mode == "training")
    )


def bn_backward(grad_out, cache: BnCache) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Backward through a training-mode batch normalization forward.

    Returns (grad_z, grad_gamma, grad_beta).
    """
    if cache.consumed:
        raise CacheError("batch-norm cache already consumed by a backward pass")
    if not cache.training:
        raise CacheError("backward requires a training-mode forward cache")
    grad_out = np.asarray(grad_out, dtype=np.float64)
    if grad_out.shape != cache.xhat.shape:
        raise CacheError(
            f"grad shape {grad_out.shape} does not match forward shape "
            f"{cache.xhat.shape}"
        )
    cache.consumed = True
    n = grad_out.shape[0]
    grad_beta = grad_out.sum(axis=0)
    grad_gamma = (grad_out * cache.xhat).sum(axis=0)
    gx = grad_out * cache.gamma
    grad_z = (cache.inv_std / n) * (
        n * gx - gx.sum(axis=0) - cache.xhat * (gx * cache.xhat).sum(axis=0)
    )
    return grad_z, grad_gamma, grad_beta
