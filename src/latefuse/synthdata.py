"""Deterministic synthetic multi-view benchmark data.

Each view draws one Gaussian class mean per class, then emits samples as
informativeness * class_mean + unit noise, all multiplied by the view's
scale. Informativeness 0 makes a view carry no class signal at all;
``separation`` scales the distance between class means. Everything is a pure
function of the spec's seed, so identical specs regenerate identical
matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    GroupView,
    LabelSpace,
    MultiViewDataset,
    SplitSpec,
    integer,
    real,
    stratified_split,
)
from .errors import BadSpec

DEFAULT_SEPARATION = 1.0


@dataclass(frozen=True)
class ViewSpec:
    name: str
    dim: int
    informativeness: float
    scale: float = 1.0

    def __post_init__(self):
        if not isinstance(self.name, str) or not self.name:
            raise BadSpec(f"name must be a non-empty string, got {self.name!r}")
        object.__setattr__(self, "dim", integer(self.dim, "dim", 1))
        if not 0.0 <= real(self.informativeness, "informativeness") <= 1.0:
            raise BadSpec(f"informativeness must be in [0, 1], got {self.informativeness!r}")
        real(self.scale, "scale", above=0.0)


@dataclass(frozen=True)
class SynthSpec:
    m: int
    n_per_class: int
    views: tuple[ViewSpec, ...]
    separation: float = DEFAULT_SEPARATION
    seed: int = 0

    def __post_init__(self):
        for name, least in (("m", 2), ("n_per_class", 1), ("seed", 0)):
            object.__setattr__(self, name, integer(getattr(self, name), name, least))
        views = self.views
        if not isinstance(views, (tuple, list)) or not views or not all(
            isinstance(v, ViewSpec) for v in views
        ):
            raise BadSpec(f"views must be a non-empty sequence of ViewSpec, got {views!r}")
        if len({v.name for v in views}) != len(views):
            raise BadSpec("views must have unique names")
        if real(self.separation, "separation") < 0:
            raise BadSpec(f"separation must be >= 0, got {self.separation!r}")
        object.__setattr__(self, "views", tuple(views))


def generate(spec: SynthSpec) -> MultiViewDataset:
    """Sample a dataset; class c occupies rows [c*n_per_class, (c+1)*n_per_class)."""
    rng = np.random.default_rng(spec.seed)
    n = spec.m * spec.n_per_class
    labels = np.repeat(np.arange(spec.m), spec.n_per_class)
    groups = []
    for view in spec.views:
        with np.errstate(over="ignore", invalid="ignore"):
            means = spec.separation * rng.standard_normal((spec.m, view.dim))
            noise = rng.standard_normal((n, view.dim))
            feats = view.scale * (view.informativeness * means[labels] + noise)
        if not np.all(np.isfinite(feats)):
            raise BadSpec(f"view {view.name!r}: scale and separation overflow the features")
        groups.append(GroupView(view.name, feats))
    label_space = LabelSpace(tuple(f"class_{i:02d}" for i in range(spec.m)))
    ids = tuple(f"s{i:05d}" for i in range(n))
    return MultiViewDataset(
        label_space=label_space, labels=labels, groups=tuple(groups), sample_ids=ids
    )


def default_benchmark(seed: int) -> tuple[MultiViewDataset, MultiViewDataset]:
    """The fixed 6-class, 4-view recipe behind the qualitative benchmarks.

    Two strongly informative views, one weak view, and one pure-noise view
    whose scale is 100x the others to stress naive feature concatenation.
    60 train and 20 test samples per class, split stratified.
    """
    spec = SynthSpec(
        m=6,
        n_per_class=80,
        views=(
            ViewSpec("informative_a", 20, 0.9),
            ViewSpec("informative_b", 20, 0.9),
            ViewSpec("weak", 20, 0.4),
            ViewSpec("noise", 20, 0.0, scale=100.0),
        ),
        separation=DEFAULT_SEPARATION,
        seed=seed,
    )
    full = generate(spec)
    return stratified_split(full, SplitSpec(train_per_class=60, test_per_class=20, seed=seed))
