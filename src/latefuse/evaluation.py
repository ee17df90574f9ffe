"""Metrics plus the strategy / classifier / group-count comparison harness."""

from __future__ import annotations

import hashlib
import pickle
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import classifiers, ensemble, pipeline
from .core import MultiViewDataset, class_indices, integer
from .dataio import csv_field
# Not called here; kept as module attributes because the traced benchmark
# (perfbench/spans.py) wraps them by name.
from .core import standardize_apply, standardize_fit  # noqa: F401
from .errors import BadSpec, DimensionMismatch, UnknownGroupName


@dataclass(frozen=True)
class EvaluationReport:
    """Top-1 accuracy with the full confusion matrix (rows = true class,
    columns = predicted class) and per-class accuracies."""

    accuracy: float
    confusion: np.ndarray
    per_class_accuracy: np.ndarray
    n_test: int

    def lines(self, class_names: Optional[Sequence[str]] = None) -> list[str]:
        out = [f"accuracy {self.accuracy:.4f}"]
        names = class_names or [str(i) for i in range(len(self.per_class_accuracy))]
        for name, acc in zip(names, self.per_class_accuracy):
            out.append(f"class {name} accuracy {acc:.4f}")
        out.append("confusion rows=true cols=predicted")
        for row in self.confusion:
            out.append(",".join(str(int(v)) for v in row))
        return out


def evaluate(preds, truth, m: Optional[int] = None) -> EvaluationReport:
    """Score predictions (a ``PredictionBatch``, read by its ``decided``
    column, or class indices) against true class indices, each an integer in
    [0, m); UnknownLabel otherwise, naming the first index outside that
    range. Without ``m``, the classes are 0 to the largest index given."""
    if m is not None:
        m = integer(m, "m", 0)
    if isinstance(preds, pipeline.PredictionBatch):
        preds = preds.decided
    decided = class_indices(preds, "predicted class", m)
    truth = class_indices(truth, "true class", m)
    if truth.ndim != 1 or decided.shape != truth.shape:
        raise DimensionMismatch(
            f"predictions of shape {decided.shape} for ground truth of shape {truth.shape}"
        )
    if m is None:
        m = int(max(decided.max(), truth.max())) + 1 if len(truth) else 0
    confusion = np.zeros((m, m), dtype=np.int64)
    np.add.at(confusion, (truth, decided), 1)
    n = len(truth)
    accuracy = float(np.trace(confusion) / n) if n else 0.0
    # a class with no true rows has a 0 diagonal, so it reads 0.0
    per_class = np.diag(confusion) / np.maximum(confusion.sum(axis=1), 1)
    return EvaluationReport(
        accuracy=accuracy,
        confusion=confusion,
        per_class_accuracy=per_class,
        n_test=n,
    )


def evaluate_ensemble(
    e: pipeline.TrainedEnsemble, test: MultiViewDataset
) -> EvaluationReport:
    preds = pipeline.predict(e, test)
    return evaluate(preds, test.labels, m=e.label_space.m)


def five_strategies(meta_spec: classifiers.ClassifierSpec) -> list[ensemble.EnsembleStrategy]:
    """The standard comparison set: both sums with and without weighting,
    plus naive stacking."""
    return [
        ensemble.EnsembleStrategy("confidence_sum", weighted=False),
        ensemble.EnsembleStrategy("confidence_sum", weighted=True),
        ensemble.EnsembleStrategy("rank_sum", weighted=False),
        ensemble.EnsembleStrategy("rank_sum", weighted=True),
        ensemble.EnsembleStrategy(
            "stacking", stacking_mode="naive", stacking_meta_spec=meta_spec
        ),
    ]


# The key and the GroupFits of the last _group_fits call: one entry, so that
# compare_strategies then ablate on one training set fit its groups once.
_last_fits: Optional[tuple[bytes, tuple[pipeline.GroupFit, ...]]] = None


def _group_fits(
    train: MultiViewDataset, spec: classifiers.ClassifierSpec, k: int, seed: int
) -> tuple[pipeline.GroupFit, ...]:
    """``pipeline.fit_groups(train, spec, k, seed)``, or the previous call's
    fits when its arguments pickled equal: the same values of the same types
    (so ``seed=True`` misses ``seed=1``), sample ids included. ``fit_groups``
    is deterministic in them and its fits are read-only, so sharing them
    changes no result. Arguments that do not pickle are not remembered."""
    global _last_fits
    try:
        key = hashlib.sha256(pickle.dumps((train, spec, k, seed))).digest()
    except (pickle.PicklingError, TypeError, AttributeError):  # a lambda for k, say
        return tuple(pipeline.fit_groups(train, spec, k, seed))
    if _last_fits is not None and _last_fits[0] == key:
        return _last_fits[1]
    fits = tuple(pipeline.fit_groups(train, spec, k, seed))
    _last_fits = (key, fits)
    return fits


def _score(fits, strategies, train, test) -> list[tuple[str, float]]:
    """The label and ``test`` accuracy of each strategy, assembled over the
    ``pipeline.GroupFit``s that ``fit_groups`` made from ``train``."""
    return [
        (s.label, evaluate_ensemble(pipeline.assemble(fits, s, train), test).accuracy)
        for s in strategies
    ]


def compare_strategies(
    train: MultiViewDataset,
    test: MultiViewDataset,
    spec: classifiers.ClassifierSpec,
    k: int = 5,
    seed: int = 0,
) -> list[tuple[str, float]]:
    """Accuracy of all five strategies sharing one set of per-group
    classifiers and priorities; naive stacking's meta model is of ``spec``
    too. The group fits are those of the previous ``compare_strategies`` or
    ``ablate`` call when its ``train``, spec, k and seed pickled equal (see
    ``_group_fits``); otherwise each group's classifier is fit k+1 times."""
    return _score(_group_fits(train, spec, k, seed), five_strategies(spec), train, test)


def compare_classifiers(
    train: MultiViewDataset,
    test: MultiViewDataset,
    strategy: ensemble.EnsembleStrategy,
    k: int = 5,
    seed: int = 0,
    specs: Optional[Sequence[classifiers.ClassifierSpec]] = None,
) -> list[tuple[str, float]]:
    """One row per classifier kind under a fixed ensemble strategy."""
    if specs is None:
        specs = [classifiers.ClassifierSpec(kind, seed=seed) for kind in classifiers.KINDS]
    rows = []
    for spec in specs:
        [(_, accuracy)] = _score(pipeline.fit_groups(train, spec, k, seed), [strategy], train, test)
        rows.append((spec.kind, accuracy))
    return rows


@dataclass(frozen=True)
class AblationReport:
    """Accuracy per (group subset, strategy); the full-group subset is
    always present."""

    entries: tuple[tuple[tuple[str, ...], str, float], ...]
    all_groups: tuple[str, ...]

    def __post_init__(self):
        full = tuple(self.all_groups)
        if not any(tuple(subset) == full for subset, _, _ in self.entries):
            raise BadSpec("entries must include the full group subset")


def nested_subsets(ordered_names: Sequence[str]) -> list[tuple[str, ...]]:
    """Prefix subsets of sizes 1..G of the given ordering."""
    return [tuple(ordered_names[: i + 1]) for i in range(len(ordered_names))]


def ablate(
    train: MultiViewDataset,
    test: MultiViewDataset,
    spec: classifiers.ClassifierSpec,
    strategies: Sequence[ensemble.EnsembleStrategy],
    subset_plan: Optional[Sequence[Sequence[str]]] = None,
    k: int = 5,
    seed: int = 0,
) -> AblationReport:
    """Train and evaluate one ensemble per (group subset, strategy).

    Without an explicit plan, subsets are nested prefixes of the groups
    ordered by their priority on the full training set (most informative
    first), and the full set is always evaluated.

    Training is deterministic and groups train independently, so a group's
    fitted classifier, priority and out-of-fold rows are identical in every
    subset containing it; they are computed once and reused. They are also
    those of the previous ``compare_strategies`` or ``ablate`` call when its
    ``train``, spec, k and seed pickled equal (see ``_group_fits``).
    """
    names = train.group_names
    for subset in subset_plan or []:
        if len(subset) == 0:
            raise UnknownGroupName("empty group subset")
        for i, g in enumerate(subset):
            if g not in names:
                raise UnknownGroupName(f"unknown group {g!r} in subset plan")
            if g in subset[:i]:
                raise UnknownGroupName(f"group {g!r} named twice in one subset")
    fits = dict(zip(names, _group_fits(train, spec, k, seed)))
    if subset_plan is None:
        subset_plan = nested_subsets(
            sorted(names, key=lambda n: (-fits[n].model.priority, n))
        )
    plan = [tuple(subset) for subset in subset_plan]
    full = sorted(names)
    if not any(sorted(s) == full for s in plan):
        plan.append(names)
    entries = []
    for subset in plan:
        rows = _score([fits[n] for n in subset], strategies, train, test.subset_groups(subset))
        # the subset of every group is recorded in the dataset's group order
        subset = names if sorted(subset) == full else subset
        entries += [(subset, label, acc) for label, acc in rows]
    return AblationReport(entries=tuple(entries), all_groups=names)


def format_rows(rows: Sequence[tuple], header: Sequence[str]) -> list[str]:
    """Serialize comparison/ablation rows: one CSV record per row, its cells
    quoted as csv.writer quotes them, accuracy to 4 decimals."""
    out = [",".join(map(csv_field, header))]
    for row in rows:
        *keys, acc = row
        cells = ["+".join(k) if isinstance(k, tuple) else str(k) for k in keys]
        out.append(",".join(map(csv_field, cells + [f"{acc:.4f}"])))
    return out
