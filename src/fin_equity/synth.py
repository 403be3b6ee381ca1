"""Synthetic identity-attributed cohorts with a known Bayes-optimal score.

Each group draws features as

    x = label * separation * e0 + offset + noise,   noise ~ N(0, noise_std^2) iid

where e0 is the first coordinate axis. Only the first coordinate carries
class signal; the offset shifts every coordinate of the group, which is
what makes pooled training leak group information. Along e0 the two class
conditionals are Gaussians separation apart, so the optimal per-group AUC
is Phi(separation / (noise_std * sqrt(2))).

Class counts are exact rounded counts per split, not Bernoulli draws.
"""

from __future__ import annotations

from dataclasses import MISSING, asdict, dataclass, fields

import numpy as np

from .core import AttributeSet, Dataset, check_config_keys, type_config_fields
from .errors import ValidationError

MAX_CELLS = 10**8  # feature values over both splits, 800 MB of float64


@dataclass(frozen=True)
class GroupSpec:
    name: str
    n_train: int
    n_eval: int
    prevalence: float
    separation: float
    offset: float
    noise_std: float = 1.0

    def __post_init__(self):
        type_config_fields(self, "synth config")
        if self.n_train < 1 or self.n_eval < 1:
            raise ValidationError(
                f"group {self.name!r}: n_train and n_eval must be >= 1"
            )
        if not 0.0 < self.prevalence < 1.0:
            raise ValidationError(
                f"group {self.name!r}: prevalence must lie in (0, 1), "
                f"got {self.prevalence}"
            )
        if self.separation < 0.0:
            raise ValidationError(
                f"group {self.name!r}: separation must be >= 0, got {self.separation}"
            )
        if self.noise_std <= 0.0:
            raise ValidationError(
                f"group {self.name!r}: noise_std must be > 0, got {self.noise_std}"
            )


@dataclass(frozen=True)
class SynthConfig:
    d: int
    groups: tuple[GroupSpec, ...]
    seed: int = 0

    def __post_init__(self):
        type_config_fields(self, "synth config")
        object.__setattr__(self, "groups", tuple(self.groups))
        if self.d < 2:
            raise ValidationError(f"d must be >= 2, got {self.d}")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        if not self.groups:
            raise ValidationError("need at least one group")
        names = [g.name for g in self.groups]
        if len(set(names)) != len(names):
            raise ValidationError(f"group names must be unique, got {names}")
        cells = self.d * sum(g.n_train + g.n_eval for g in self.groups)
        if cells > MAX_CELLS:
            raise ValidationError(
                f"d = {self.d} over every group's rows gives {cells} feature "
                f"values, more than MAX_CELLS = {MAX_CELLS}"
            )


def _positive_count(prevalence: float, n: int) -> int:
    # half-up rounding so x.5 does not depend on integer parity
    return int(np.floor(prevalence * n + 0.5))


def _build_split(
    config: SynthConfig, split: str, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[str, ...]]:
    """(x, labels, attrs, ids) of one split, shuffled by one permutation."""
    xs, labels, attrs, ids = [], [], [], []
    for gid, spec in enumerate(config.groups):
        n = spec.n_train if split == "tr" else spec.n_eval
        n_pos = _positive_count(spec.prevalence, n)
        y = np.concatenate(
            [np.zeros(n - n_pos, dtype=np.int64), np.ones(n_pos, dtype=np.int64)]
        )
        x = spec.offset + spec.noise_std * rng.standard_normal((n, config.d))
        x[:, 0] += y * spec.separation
        xs.append(x)
        labels.append(y)
        attrs.append(np.full(n, gid, dtype=np.intp))
        ids.extend(f"{split}-g{gid}-{i:04d}" for i in range(n))
    perm = rng.permutation(len(ids))
    return (
        np.concatenate(xs)[perm],
        np.concatenate(labels)[perm],
        np.concatenate(attrs)[perm],
        tuple(ids[i] for i in perm),
    )


def generate(config: SynthConfig) -> tuple[Dataset, Dataset]:
    """Deterministically generate (train, eval) datasets from the config.

    Rows are built in canonical group/class order and then shuffled once
    per split with the seeded generator.
    """
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    attribute_set = AttributeSet(tuple(g.name for g in config.groups))
    train = Dataset(attribute_set, *_build_split(config, "tr", rng))
    evaluation = Dataset(attribute_set, *_build_split(config, "ev", rng))
    return train, evaluation


def bayes_scores(dataset: Dataset, config: SynthConfig) -> np.ndarray:
    """The oracle discriminant: first coordinate minus the group offset.

    Within each group this is exactly the Bayes-optimal ranking statistic,
    useful for checking empirical AUC against the closed form.
    """
    offsets = np.array([g.offset for g in config.groups])
    return dataset.x[:, 0] - offsets[dataset.attrs]


def default_benchmark(seed: int = 42) -> SynthConfig:
    """Three groups with unequal difficulty and confounding offsets.

    20 features; 1000 train / 300 eval per group; prevalences 0.474, 0.614,
    0.484; separations 2.0, 1.2, 1.8; offsets +1, -1, 0 on every coordinate;
    unit noise. The middle group is the hardest (smallest separation).
    """
    return SynthConfig(
        d=20,
        seed=seed,
        groups=(
            GroupSpec(
                name="group0", n_train=1000, n_eval=300,
                prevalence=0.474, separation=2.0, offset=1.0,
            ),
            GroupSpec(
                name="group1", n_train=1000, n_eval=300,
                prevalence=0.614, separation=1.2, offset=-1.0,
            ),
            GroupSpec(
                name="group2", n_train=1000, n_eval=300,
                prevalence=0.484, separation=1.8, offset=0.0,
            ),
        ),
    )


def synth_config_to_dict(config: SynthConfig) -> dict:
    """d, seed, then each group's fields in declaration order."""
    groups = [asdict(g) for g in config.groups]
    return {"d": config.d, "seed": config.seed, "groups": groups}


_CONFIG_KEYS = tuple(f.name for f in fields(SynthConfig))
_GROUP_KEYS = tuple(f.name for f in fields(GroupSpec))
_REQUIRED_GROUP_KEYS = tuple(f.name for f in fields(GroupSpec) if f.default is MISSING)


def synth_config_from_dict(data: dict) -> SynthConfig:
    check_config_keys(data, _CONFIG_KEYS, "synth config")
    try:
        for i, g in enumerate(data["groups"]):
            check_config_keys(g, _GROUP_KEYS, f"synth config group {i}")
        groups = tuple(  # required keys are read first, so a missing one is a KeyError
            GroupSpec(**{**{key: g[key] for key in _REQUIRED_GROUP_KEYS}, **g})
            for g in data["groups"]
        )
        return SynthConfig(**{**data, "d": data["d"], "groups": groups})
    except ValidationError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"bad synth config: {exc!r}") from exc
