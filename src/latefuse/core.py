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
from typing import Optional, Sequence

import numpy as np

from .errors import (
    BadSpec,
    DimensionMismatch,
    EmptyClass,
    InvalidProbabilities,
    MisalignedGroup,
    NonFiniteFeature,
    TooFewSamplesPerClass,
    UnknownLabel,
)

PROB_SUM_TOL = 1e-9
INDEX_LIMIT = 2**63  # class indices are int64
DEGENERATE_SHARE = 2.0**-40  # of a column's largest |value|; see Standardizer


def integer(value, what: str, least: int) -> int:
    """``value`` as an int >= ``least``: a numbers.Integral other than a
    bool. BadSpec naming ``what`` otherwise."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise BadSpec(f"{what} must be an integer, got {value!r}")
    if value < least:
        raise BadSpec(f"{what} must be >= {least}, got {value!r}")
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


def json_object(value, what: str, required: Sequence[str], optional: Sequence[str]) -> dict:
    """``value``, a JSON object holding every ``required`` key and no key
    outside ``required`` and ``optional``. BadSpec naming ``what`` otherwise."""
    if not isinstance(value, dict):
        raise BadSpec(f"{what} must be a JSON object, got {value!r}")
    unknown = sorted(set(value) - {*required, *optional}, key=str)
    if unknown:
        raise BadSpec(f"{what} has unknown fields {unknown}")
    for key in required:
        if key not in value:
            raise BadSpec(f"{what} is missing the required field {key!r}")
    return value


def frozen_array(values, dtype=np.float64) -> np.ndarray:
    """``values`` as a read-only contiguous ``dtype`` array: how datasets, fold
    plans and fitted models hold arrays. A read-only array of that kind is
    shared; a writeable one is copied, so the caller's array stays writeable."""
    a = np.asarray(values, dtype=dtype, order="C")
    if a is values and a.flags.writeable:
        a = a.copy()
    a.setflags(write=False)
    return a


def persisted_array(state: dict, key: str, shape: Optional[tuple], integral=False) -> np.ndarray:
    """``state[key]``, JSON numbers read from a file, as a read-only array of
    ``shape`` (any flat list when None): plain ints for an int64 array when
    ``integral``, else finite ints and floats for a float64 one. BadSpec
    naming ``key`` otherwise, such as for a bool, a string or a ragged list."""
    a = np.array(state[key], dtype=object)
    if a.shape != shape and not (shape is None and a.ndim == 1):
        raise BadSpec(f"{key} has shape {a.shape}, expected {shape or 'a flat list'}")
    dtype, kinds = (np.int64, {int}) if integral else (np.float64, {int, float})
    if not set(map(type, a.flat)) <= kinds:
        kind = "an integer" if integral else "a number"
        raise BadSpec(f"{key} holds a value that is not {kind}")
    try:
        a = a.astype(dtype)
    except OverflowError:
        raise BadSpec(f"{key} holds a number beyond the {dtype.__name__} range") from None
    if not np.all(np.isfinite(a)):
        raise BadSpec(f"{key} has non-finite entries")
    return frozen_array(a, dtype)


def feature_matrix(values, what: str, width: Optional[int] = None) -> np.ndarray:
    """``values`` as a float64 (n, d) matrix with d >= 1, or d == ``width``
    when that is given. DimensionMismatch otherwise, and NonFiniteFeature
    naming ``what`` and the row and column of the first NaN or infinity."""
    X = np.asarray(values, dtype=np.float64)
    if not (X.ndim == 2 and X.shape[1] >= 1 and width in (None, X.shape[1])):
        columns = ">= 1 column" if width is None else f"{width} columns"
        raise DimensionMismatch(
            f"{what} must be a 2-D matrix with {columns}, got shape {X.shape}"
        )
    finite = np.isfinite(X)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        raise NonFiniteFeature(f"non-finite feature in {what} at row {row}, col {col}")
    return X


def class_indices(values, what: str, m: Optional[int] = None) -> np.ndarray:
    """``values`` as int64 class indices, each in [0, ``m``), or any int64
    index >= 0 when ``m`` is None. UnknownLabel naming ``what`` (such as
    "label" or "true class") unless they are a rectangular array of integers
    with no bool or float entry, inside a list too (numpy reads ``[True, 1]``
    as int64)."""
    try:
        a = np.asarray(values)
    except ValueError:  # ragged nesting, such as [[0], [1, 1]]
        raise UnknownLabel(f"{what} indices must be a rectangular array") from None
    if a.size == 0:
        return a.astype(np.int64)
    if a.dtype.kind not in "iu":
        raise UnknownLabel(f"{what} indices must be integers, got {a.dtype} entry {a.flat[0]}")
    if not isinstance(values, np.ndarray):
        types = set(map(type, np.asarray(values, dtype=object).flat))
        if any(issubclass(t, (bool, np.bool_)) for t in types):
            raise UnknownLabel(f"{what} indices must be integers, got a bool")
    upper = INDEX_LIMIT if m is None else m
    if a.min() < 0 or a.max() >= upper:
        flat = a.ravel()
        bad = flat[(flat < 0) | (flat >= upper)][0]
        raise UnknownLabel(f"{what} index {bad} outside [0, {upper})")
    return a.astype(np.int64)


def shuffled_classes(y: np.ndarray, rng: np.random.Generator) -> list[np.ndarray]:
    """The indices of each class in ``y``, in label order, each shuffled by one
    ``rng.permutation`` (which draws nothing for a single index)."""
    return [rng.permutation(np.flatnonzero(y == c)) for c in np.unique(y)]


@dataclass(frozen=True)
class LabelSpace:
    """Ordered set of class names; the index in ``class_names`` is the
    canonical class encoding used everywhere downstream."""

    class_names: tuple[str, ...]

    def __post_init__(self):
        for name in self.class_names:
            if not isinstance(name, str):
                raise BadSpec(f"class name {name!r} is not a string")
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
    """One feature group: a finite n x d_g dense matrix plus its name;
    DimensionMismatch or NonFiniteFeature (naming the group, row and column)
    otherwise."""

    name: str
    features: np.ndarray

    def __post_init__(self):
        feats = feature_matrix(self.features, f"group {self.name!r}")
        object.__setattr__(self, "features", frozen_array(feats))

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class MultiViewDataset:
    """Labels plus G aligned feature groups for n samples.

    Building one checks every invariant: BadSpec (for a sample id that is not
    a str), MisalignedGroup, UnknownLabel (for labels that are not class
    indices in [0, m)) or EmptyClass otherwise. Its groups are finite, as
    every GroupView is.
    """

    label_space: LabelSpace
    labels: np.ndarray
    groups: tuple[GroupView, ...]
    sample_ids: tuple[str, ...]

    def __post_init__(self):
        m = self.label_space.m
        labels = class_indices(self.labels, "label", m)
        object.__setattr__(self, "labels", frozen_array(labels, np.int64))
        object.__setattr__(self, "groups", tuple(self.groups))
        object.__setattr__(self, "sample_ids", tuple(self.sample_ids))
        for sid in self.sample_ids:
            if not isinstance(sid, str):
                raise BadSpec(f"sample_ids holds {sid!r}, which is not a string")
        n = self.n
        if len(self.groups) < 1:
            raise MisalignedGroup("dataset has no feature groups")
        if self.labels.shape != (n,):
            raise MisalignedGroup(f"labels have shape {self.labels.shape}, expected ({n},)")
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

    def take(self, indices) -> "MultiViewDataset":
        """Row subset by index, preserving group alignment: integers in
        [0, n) (UnknownLabel naming the first that is not) in a flat list
        (DimensionMismatch otherwise)."""
        idx = class_indices(indices, "row", self.n)
        if idx.ndim != 1:
            raise DimensionMismatch(f"row indices must be a flat list, got shape {idx.shape}")
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
    # every class of a dataset has a sample, so class c is entry c
    for name, picked in zip(d.label_space.class_names, shuffled_classes(d.labels, rng)):
        if len(picked) < need:
            raise TooFewSamplesPerClass(
                f"class {name!r} has {len(picked)} samples, split needs {need}"
            )
        train_idx.append(picked[: spec.train_per_class])
        test_idx.append(picked[spec.train_per_class : need])
    train = np.sort(np.concatenate(train_idx))
    test = np.sort(np.concatenate(test_idx))
    return d.take(train), d.take(test)


def fold_assignments(y: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Stratified fold per sample: each class in label order is shuffled by
    ``rng`` and dealt round-robin into folds 0..k-1."""
    assignments = np.empty(len(y), dtype=np.int64)
    for picked in shuffled_classes(y, rng):
        assignments[picked] = np.arange(len(picked)) % k
    return assignments


@dataclass(frozen=True)
class Standardizer:
    """Per-column z-score statistics learned from training data.

    A column whose training stddev is at most DEGENERATE_SHARE of its largest
    |value| (rounding noise, or none) maps to all zeros, so constant features
    cannot blow up downstream classifiers, at any scale of the features.
    ``mean`` and ``scale`` are finite 1-D arrays of one length; BadSpec
    naming the field otherwise.
    """

    mean: np.ndarray
    scale: np.ndarray  # 1/std for live columns, 0 for degenerate ones

    def __post_init__(self):
        mean, scale = frozen_array(self.mean), frozen_array(self.scale)
        if mean.ndim != 1:
            raise BadSpec(f"mean has shape {mean.shape}, expected a flat array")
        if scale.shape != mean.shape:
            raise BadSpec(f"scale has shape {scale.shape}, expected {mean.shape} as mean has")
        for name, a in (("mean", mean), ("scale", scale)):
            if not np.all(np.isfinite(a)):
                raise BadSpec(f"{name} has non-finite entries")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "scale", scale)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


def standardize_fit(train_features: np.ndarray, what: str = "train_features") -> Standardizer:
    """Statistics of ``train_features``, checked by ``feature_matrix`` as
    any features are; BadSpec unless it has >= 2 rows, and NonFiniteFeature
    for a column whose finite values have a mean or variance beyond the
    float range. Messages name the input ``what``, such as "group 'color'"."""
    X = feature_matrix(train_features, what)
    if X.shape[0] < 2:
        raise BadSpec(f"{what} must be a 2-D matrix with >= 2 rows")
    with np.errstate(over="ignore"):  # reported below
        mean = X.mean(axis=0)
        std = X.std(axis=0)
    for stat, values in (("mean", mean), ("variance", std)):
        if not np.all(np.isfinite(values)):
            col = int(np.argmin(np.isfinite(values)))
            raise NonFiniteFeature(f"{what} column {col} has a {stat} beyond the float range")
    degenerate = std <= DEGENERATE_SHARE * np.abs(X).max(axis=0)
    scale = np.where(degenerate, 0.0, 1.0 / np.where(degenerate, 1.0, std))
    return Standardizer(mean=mean, scale=scale)


def standardize_apply(s: Standardizer, features: np.ndarray) -> np.ndarray:
    """``features``, an (n, d) matrix of the standardizer's width d, in
    z-scores; DimensionMismatch for any other shape."""
    X = np.asarray(features, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != s.dim:
        raise DimensionMismatch(f"standardizer expects an (n, {s.dim}) matrix, got {X.shape}")
    return (X - s.mean) * s.scale


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
    return frozen_array(v)
