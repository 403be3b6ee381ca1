"""Data model for identity-attributed samples and scored predictions.

Everything downstream (metrics, training, file formats) speaks in terms of
these types. Both containers are columnar: a Dataset holds a feature
matrix with label, group-id and sample-id columns, and Predictions hold
score, label, group-id and id columns. Record ids are one numpy
StringDType column, wrapped by IdColumn, a read-only sequence of str.
Group ids are digitized group memberships: non-negative integers indexing
an ordered set of group names. No grouping type lives here: an audit
counts each group's records itself (metrics.group_counts). All containers
are immutable after construction; arrays are copied and marked read-only.
Validation lives here too: each container's constructor checks every row
and names the first bad record, so no Dataset or Predictions can hold a
non-finite feature or score, and the CSV writers do not check again. The
key and field checks that the config readers share live here as well.
"""

from __future__ import annotations

import difflib
import math
import numbers
import operator
from collections.abc import Sequence
from dataclasses import dataclass, fields

import numpy as np
from numpy.dtypes import StringDType

from .errors import ValidationError


@dataclass(frozen=True)
class AttributeSet:
    """Ordered, unique, non-empty names of the identity groups."""

    names: tuple[str, ...]

    def __post_init__(self):
        names = tuple(self.names)
        if not names:
            raise ValidationError("attribute set needs at least one group name")
        if any(not isinstance(n, str) or not n for n in names):
            raise ValidationError("group names must be non-empty strings")
        if len(set(names)) != len(names):
            raise ValidationError(f"group names must be unique, got {names}")
        object.__setattr__(self, "names", names)

    @property
    def group_count(self) -> int:
        return len(self.names)

    @classmethod
    def default(cls, group_count: int) -> "AttributeSet":
        """group0..group{k-1} placeholder names."""
        if group_count < 1:
            raise ValidationError("group_count must be >= 1")
        return cls(tuple(f"group{i}" for i in range(group_count)))


class IdColumn(Sequence):
    """Record ids as one read-only numpy StringDType column.

    It acts as a tuple of str: len, iteration and int indexing give str, a
    slice gives an IdColumn, and == against any sequence of str compares
    element by element and gives one bool. np.asarray gives the column,
    which stores an id of up to 15 UTF-8 bytes inline in 16 bytes.
    Comparisons run on Python str, because numpy's string comparisons can
    disagree with str's when an id holds a NUL character.
    """

    __slots__ = ("_column",)

    def __init__(self, ids=()):
        if isinstance(ids, IdColumn):
            column = ids._column  # read-only, so shared
        else:
            try:
                # a str is a sequence of its characters, as for tuple()
                column = np.array(
                    ids if isinstance(ids, np.ndarray) else list(ids), StringDType()
                )
            except UnicodeEncodeError as exc:
                raise ValidationError(
                    f"id {exc.object!r} is not valid text ({exc.reason})"
                ) from exc
            if column.ndim != 1:
                raise ValidationError(
                    f"ids must be a flat sequence of strings, got shape {column.shape}"
                )
            column.flags.writeable = False
        self._column = column

    @classmethod
    def from_chunks(cls, chunks: list[np.ndarray]) -> "IdColumn":
        """One column, without a copy, from StringDType chunks it empties."""
        ids = cls.__new__(cls)
        ids._column = join_chunks(chunks, StringDType())
        ids._column.flags.writeable = False
        return ids

    def __len__(self) -> int:
        return len(self._column)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return IdColumn(self._column[index])
        return self._column[operator.index(index)]

    def __iter__(self):
        return iter(self._column)

    def __eq__(self, other):
        if isinstance(other, str) or not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    def __array__(self, dtype=None, copy=None):
        if dtype is None and not copy:
            return self._column
        return np.array(self._column, dtype=dtype, copy=True)

    def __repr__(self) -> str:
        return f"IdColumn({list(self)!r})"


def join_chunks(chunks: list[np.ndarray], dtype) -> np.ndarray:
    """One column, or table, from consecutive chunks, which it empties.

    Each chunk is freed once copied, so the column costs one chunk more
    than itself, not twice itself.
    """
    rows = sum(map(len, chunks))
    out = np.empty((rows, *chunks[0].shape[1:]) if chunks else rows, dtype)
    chunks.reverse()
    end = 0
    while chunks:
        chunk = chunks.pop()
        out[end : end + len(chunk)] = chunk
        end += len(chunk)
    return out


def _column(values, n: int, what: str, dtype) -> np.ndarray:
    """A read-only length-n copy; integer columns refuse other dtypes, bool too."""
    arr = np.asarray(values)
    if dtype is not np.float64 and arr.size and arr.dtype.kind not in "iu":
        raise ValidationError(f"{what} must be integers, got dtype {arr.dtype}")
    if arr.shape != (n,):
        raise ValidationError(f"{what} must have shape ({n},), got {arr.shape}")
    arr = arr.astype(dtype)
    arr.flags.writeable = False
    return arr


def _attr_column(values, n: int) -> np.ndarray:
    attrs = _column(values, n, "attribute ids", np.intp)
    if n and attrs.min() < 0:
        raise ValidationError(f"attribute ids must be non-negative, got {attrs.min()}")
    return attrs


@dataclass(frozen=True, eq=False)
class Dataset:
    """One split as columns: features x (n, d), labels, group ids, sample ids.

    Validated once on construction: d >= 1, at least one row, then row by
    row finite features, a 0/1 label and a group id below the attribute
    set's group count; an error names the first bad record. Sample ids are
    opaque strings; uniqueness is enforced at ingestion (CSV readers), not
    here.
    """

    attribute_set: AttributeSet
    x: np.ndarray
    labels: np.ndarray
    attrs: np.ndarray
    ids: IdColumn

    def __post_init__(self):
        x = np.array(self.x, dtype=np.float64)  # copy, own it
        if x.ndim != 2:
            raise ValidationError(f"features must be a 2-D (n, d) array, got {x.shape}")
        x.flags.writeable = False
        n, ids = len(x), IdColumn(self.ids)
        if len(ids) != n:
            raise ValidationError(f"ids must have length {n}, got {len(ids)}")
        labels = _column(self.labels, n, "labels", np.int64)
        attrs = _attr_column(self.attrs, n)
        if x.shape[1] < 1:
            raise ValidationError(f"feature dimension must be >= 1, got {x.shape[1]}")
        if not n:
            raise ValidationError("dataset has no samples")
        g = self.attribute_set.group_count
        # min and max carry any NaN, so a valid dataset allocates no mask
        if not (
            np.isfinite([x.min(), x.max()]).all()
            and labels.min() >= 0
            and labels.max() <= 1
            and attrs.max() < g
        ):
            nonfinite = ~np.isfinite(x).all(axis=1)
            bad_label = (labels != 0) & (labels != 1)
            i = int(np.argmax(nonfinite | bad_label | (attrs >= g)))
            if nonfinite[i]:
                problem = "non-finite feature value"
            elif bad_label[i]:
                problem = f"label must be 0 or 1, got {int(labels[i])!r}"
            else:
                problem = f"attribute id {int(attrs[i])} out of range for {g} groups"
            raise ValidationError(f"record {ids[i]!r}: {problem}")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "attrs", attrs)
        object.__setattr__(self, "ids", ids)

    @property
    def d(self) -> int:
        return self.x.shape[1]

    def __len__(self) -> int:
        return len(self.x)


@dataclass(frozen=True, eq=False)
class Predictions:
    """Scored predictions as columns: ids, scores in [0, 1], 0/1 labels, groups.

    Validated once on construction; an error names the first bad record.
    """

    ids: IdColumn
    scores: np.ndarray
    labels: np.ndarray
    attrs: np.ndarray

    def __post_init__(self):
        ids = IdColumn(self.ids)
        scores = _column(self.scores, len(ids), "scores", np.float64)
        labels = _column(self.labels, len(ids), "labels", np.int64)
        bad_score = ~((scores >= 0.0) & (scores <= 1.0))  # NaN fails both
        bad = np.flatnonzero(bad_score | ((labels != 0) & (labels != 1)))
        if bad.size:
            i = bad[0]
            if bad_score[i]:
                problem = f"score must lie in [0, 1], got {float(scores[i])!r}"
            else:
                problem = f"label must be 0 or 1, got {int(labels[i])!r}"
            raise ValidationError(f"record {ids[i]!r}: {problem}")
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "attrs", _attr_column(self.attrs, len(ids)))

    def __len__(self) -> int:
        return len(self.ids)


def check_config_keys(data, allowed: tuple[str, ...], what: str) -> None:
    """Require a JSON object whose keys are all in allowed.

    An unknown key is an error naming the closest valid key.
    """
    if not isinstance(data, dict):
        raise ValidationError(f"{what} must be a JSON object, got {type(data).__name__}")
    for key in data:
        if key not in allowed:
            closest = difflib.get_close_matches(key, allowed, n=1, cutoff=0.0)
            raise ValidationError(
                f"unknown key {key!r} in {what}; closest valid key is {closest[0]!r}"
            )


_KIND_NAMES = {bool: "a boolean", int: "an integer", float: "a number"}


def config_value(value, kind: type, key: str, what: str):
    """A config value as kind (bool, int or float), refusing the wrong JSON type.

    A bool field takes only a boolean, an int field only an integer (not a
    boolean, not 2.7) and a float field any number but a boolean, so that
    "false", 2.7 or true can never turn silently into True, 2 or 1.
    """
    is_bool = isinstance(value, (bool, np.bool_))
    if kind is bool:
        ok = is_bool
    elif kind is int:
        ok = isinstance(value, numbers.Integral) and not is_bool
    else:
        ok = isinstance(value, numbers.Real) and not is_bool
    if not ok:
        raise ValidationError(
            f"bad {what}: {key!r} must be {_KIND_NAMES[kind]}, got {value!r}"
        )
    return kind(value)


# a field's kind is its annotation: the type, or its name as a module under
# `from __future__ import annotations` leaves it
_FIELD_KINDS = {key: kind for kind in _KIND_NAMES for key in (kind, kind.__name__)}


def type_config_fields(config, what: str) -> None:
    """Check each bool, int or float field of a config dataclass; store it as its kind.

    A float field must also be finite, since json.load reads NaN and
    Infinity. Fields are typed in declaration order, so the first bad one is
    named; fields with any other annotation are left to the class. Frozen
    dataclasses call this from __post_init__, so every way of building a
    config (JSON or Python) gets the same checks.
    """
    for f in fields(config):
        kind = _FIELD_KINDS.get(f.type)
        if kind is not None:
            value = config_value(getattr(config, f.name), kind, f.name, what)
            if kind is float and not math.isfinite(value):
                raise ValidationError(
                    f"bad {what}: {f.name!r} must be finite, got {value!r}"
                )
            object.__setattr__(config, f.name, value)
