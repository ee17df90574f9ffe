"""Domain data model: label spaces, feature groups, multi-view datasets,
stratified splitting, and per-column standardization.

Every sample is described by several aligned feature groups (views). Row i of
every group belongs to ``sample_ids[i]``. Each type checks its invariants
when it is built, so a ``MultiViewDataset`` that exists is valid: its groups
are aligned and finite, its ids unique, and its integer labels cover every
class. All types are immutable after construction and therefore safe to
share across workers.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    BadSpec,
    DimensionMismatch,
    EmptyClass,
    InsufficientClassPopulation,
    InvalidProbabilities,
    MisalignedGroup,
    NonFiniteFeature,
    UnknownLabel,
)

PROB_SUM_TOL = 1e-9
DEGENERATE_STD = 1e-12


def integer(value, what: str, least: int, below: Optional[int] = None) -> int:
    """``value`` as an int in [least, below), or >= ``least`` when ``below``
    is None: a numbers.Integral other than a bool. BadSpec naming ``what``
    otherwise."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise BadSpec(f"{what} must be an integer, got {value!r}")
    if value < least:
        raise BadSpec(f"{what} must be >= {least}, got {value!r}")
    if below is not None and value >= below:
        raise BadSpec(f"{what} must be < {below}, got {value!r}")
    return operator.index(value)


def real(value, what: str, above: Optional[float] = None) -> float:
    """``value`` as a finite float, and > ``above`` when that is given: a
    numbers.Real other than a bool, within the float range. BadSpec naming
    ``what`` otherwise."""
    try:
        number = isinstance(value, numbers.Real) and not isinstance(value, bool)
        x = float(value) if number else math.nan
    except OverflowError:  # an int beyond the float range
        x = math.nan
    if not math.isfinite(x):
        raise BadSpec(f"{what} must be a finite number, got {value!r}")
    if above is not None and x <= above:
        raise BadSpec(f"{what} must be > {above:g}, got {value!r}")
    return x


def _frozen_array(values, dtype=np.float64) -> np.ndarray:
    a = np.ascontiguousarray(values, dtype=dtype)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class LabelSpace:
    """Ordered set of class names; the index in ``class_names`` is the
    canonical class encoding used everywhere downstream."""

    class_names: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.class_names)) != len(self.class_names):
            raise BadSpec(f"class_names must be unique, got {self.class_names!r}")
        if len(self.class_names) < 2:
            raise BadSpec(f"class_names needs at least 2 classes, got {self.class_names!r}")
        object.__setattr__(self, "class_names", tuple(self.class_names))

    @property
    def m(self) -> int:
        return len(self.class_names)

    def index(self, name: str) -> int:
        try:
            return self.class_names.index(name)
        except ValueError:
            raise UnknownLabel(f"unknown class name {name!r}") from None

    @classmethod
    def from_names(cls, names) -> "LabelSpace":
        # canonical encoding: lexicographic order, reproducible across runs
        return cls(tuple(sorted(set(names))))


@dataclass(frozen=True)
class GroupView:
    """One feature group: an n x d_g dense matrix plus its name."""

    name: str
    features: np.ndarray

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=np.float64)
        if feats.ndim != 2 or feats.shape[1] < 1:
            raise DimensionMismatch(
                f"group {self.name!r} must be a 2-D matrix with >= 1 column"
            )
        object.__setattr__(self, "features", _frozen_array(feats))

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class MultiViewDataset:
    """Labels plus G aligned feature groups for n samples.

    Building one checks every invariant: MisalignedGroup, NonFiniteFeature
    (with group/row/col address), UnknownLabel (also for labels that are not
    integers) or EmptyClass otherwise.
    """

    label_space: LabelSpace
    labels: np.ndarray
    groups: tuple[GroupView, ...]
    sample_ids: tuple[str, ...]

    def __post_init__(self):
        labels = np.asarray(self.labels)
        if labels.size and labels.dtype.kind not in "iu":
            raise UnknownLabel(f"labels must be integer class indices, got {labels.dtype}")
        object.__setattr__(self, "labels", _frozen_array(labels, dtype=np.int64))
        object.__setattr__(self, "groups", tuple(self.groups))
        object.__setattr__(self, "sample_ids", tuple(self.sample_ids))
        n = self.n
        if len(self.groups) < 1:
            raise MisalignedGroup("dataset has no feature groups")
        if self.labels.shape != (n,):
            raise MisalignedGroup(
                f"labels have length {self.labels.shape[0]}, expected {n}"
            )
        if len(set(self.sample_ids)) != n:
            raise MisalignedGroup("sample_ids contain duplicates")
        names = self.group_names
        for i, g in enumerate(self.groups):
            if g.name in names[:i]:
                raise MisalignedGroup(f"group name {g.name!r} is used twice")
            if g.n != n:
                raise MisalignedGroup(
                    f"group {g.name!r} has {g.n} rows, expected {n}"
                )
            if not np.all(np.isfinite(g.features)):
                row, col = np.argwhere(~np.isfinite(g.features))[0]
                raise NonFiniteFeature(
                    f"non-finite feature in group {g.name!r} at row {row}, col {col}"
                )
        m = self.label_space.m
        if n > 0 and (self.labels.min() < 0 or self.labels.max() >= m):
            bad = self.labels[(self.labels < 0) | (self.labels >= m)][0]
            raise UnknownLabel(f"label index {bad} outside [0, {m})")
        counts = np.bincount(self.labels, minlength=m)
        for i, c in enumerate(counts):
            if c == 0:
                raise EmptyClass(f"class {self.label_space.class_names[i]!r} has no samples")

    @property
    def n(self) -> int:
        return len(self.sample_ids)

    @property
    def group_names(self) -> tuple[str, ...]:
        return tuple(g.name for g in self.groups)

    def group(self, name: str) -> GroupView:
        for g in self.groups:
            if g.name == name:
                return g
        raise MisalignedGroup(f"dataset has no group named {name!r}")

    def subset_groups(self, names) -> "MultiViewDataset":
        """Same samples, restricted to the named groups (in the given order)."""
        return MultiViewDataset(
            label_space=self.label_space,
            labels=self.labels,
            groups=tuple(self.group(n) for n in names),
            sample_ids=self.sample_ids,
        )

    def take(self, indices: np.ndarray) -> "MultiViewDataset":
        """Row subset by index, preserving group alignment."""
        idx = np.asarray(indices, dtype=np.int64)
        return MultiViewDataset(
            label_space=self.label_space,
            labels=self.labels[idx],
            groups=tuple(GroupView(g.name, g.features[idx]) for g in self.groups),
            sample_ids=tuple(self.sample_ids[i] for i in idx),
        )


@dataclass(frozen=True)
class SplitSpec:
    """Fixed-count stratified split: draw the same number of train and test
    samples from every class, without replacement."""

    train_per_class: int
    test_per_class: int
    seed: int

    def __post_init__(self):
        for name, least in (("train_per_class", 1), ("test_per_class", 1), ("seed", 0)):
            object.__setattr__(self, name, integer(getattr(self, name), name, least))


def stratified_split(
    d: MultiViewDataset, spec: SplitSpec
) -> tuple[MultiViewDataset, MultiViewDataset]:
    """Deterministic per-class split into disjoint train and test sets."""
    rng = np.random.default_rng(spec.seed)
    need = spec.train_per_class + spec.test_per_class
    train_idx, test_idx = [], []
    for c in range(d.label_space.m):
        members = np.flatnonzero(d.labels == c)
        if len(members) < need:
            raise InsufficientClassPopulation(
                f"class {d.label_space.class_names[c]!r} has {len(members)} "
                f"samples, split needs {need}"
            )
        picked = members[rng.permutation(len(members))]
        train_idx.append(picked[: spec.train_per_class])
        test_idx.append(picked[spec.train_per_class : need])
    train = np.sort(np.concatenate(train_idx))
    test = np.sort(np.concatenate(test_idx))
    return d.take(train), d.take(test)


def fold_assignments(y: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Stratified fold per sample: each class in label order is shuffled by
    ``rng`` and dealt round-robin into folds 0..k-1."""
    assignments = np.empty(len(y), dtype=np.int64)
    for c in np.unique(y):
        members = np.flatnonzero(y == c)
        assignments[members[rng.permutation(len(members))]] = np.arange(len(members)) % k
    return assignments


@dataclass(frozen=True)
class Standardizer:
    """Per-column z-score statistics learned from training data.

    Columns whose training stddev is below DEGENERATE_STD map to all zeros so
    constant features cannot blow up downstream classifiers.
    """

    mean: np.ndarray
    scale: np.ndarray  # 1/std for live columns, 0 for degenerate ones

    def __post_init__(self):
        object.__setattr__(self, "mean", _frozen_array(self.mean))
        object.__setattr__(self, "scale", _frozen_array(self.scale))

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


def standardize_fit(train_features: np.ndarray) -> Standardizer:
    X = np.asarray(train_features, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 2:
        raise BadSpec("train_features must be a 2-D matrix with >= 2 rows")
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    scale = np.where(std < DEGENERATE_STD, 0.0, 1.0 / np.where(std == 0, 1.0, std))
    return Standardizer(mean=mean, scale=scale)


def standardize_apply(s: Standardizer, features: np.ndarray) -> np.ndarray:
    X = np.asarray(features, dtype=np.float64)
    one_row = X.ndim == 1
    if one_row:
        X = X[None, :]
    if X.shape[1] != s.dim:
        raise DimensionMismatch(
            f"standardizer expects {s.dim} columns, got {X.shape[1]}"
        )
    out = (X - s.mean) * s.scale
    return out[0] if one_row else out


def probability_vector(p) -> np.ndarray:
    """Validate a per-class confidence vector, or each row of an (n, m)
    matrix: nonnegative entries summing to 1 within PROB_SUM_TOL.
    InvalidProbabilities, naming the first bad row of a matrix, otherwise.
    Returns a read-only float64 array."""
    v = np.asarray(p, dtype=np.float64)
    if v.ndim not in (1, 2):
        raise InvalidProbabilities("probabilities must be a vector or an (n, m) matrix")
    rows = np.atleast_2d(v)
    finite = np.isfinite(rows).all(axis=1)
    totals = rows.sum(axis=1)
    bad = ~finite | (rows < 0).any(axis=1) | (np.abs(totals - 1.0) > PROB_SUM_TOL)
    if bad.any():
        i = int(np.argmax(bad))
        where = f"row {i}: " if v.ndim == 2 else ""
        if not finite[i]:
            raise InvalidProbabilities(f"{where}probability vector has non-finite entries")
        if np.any(rows[i] < 0):
            raise InvalidProbabilities(f"{where}negative probability {rows[i].min()}")
        raise InvalidProbabilities(f"{where}probabilities sum to {totals[i]}, expected 1")
    return _frozen_array(v)
