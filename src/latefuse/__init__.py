"""latefuse: late-fusion multi-view classification.

Train one probabilistic classifier per feature group, weight each group by
its cross-validated accuracy, and fuse the per-group class confidences with
configurable combination rules (confidence summation, rank summation, or a
stacked meta-classifier) to reach a final decision.
"""

from .classifiers import ClassifierSpec, train
from .core import (
    GroupView,
    LabelSpace,
    MultiViewDataset,
    SplitSpec,
    probability_vector,
    standardize_apply,
    standardize_fit,
)
from .crossval import group_priority, make_folds
from .ensemble import EnsembleStrategy, assign_ranks, confidence_sum, decide, rank_sum
from .evaluation import ablate, compare_strategies, evaluate, evaluate_ensemble
from .pipeline import (
    Prediction,
    PredictionBatch,
    TrainedEnsemble,
    load_ensemble,
    predict,
    save_ensemble,
    train_concat_baseline,
    train_ensemble,
)
from .synthdata import SynthSpec, ViewSpec, default_benchmark

__version__ = "0.1.0"

__all__ = [
    "ClassifierSpec",
    "train",
    "GroupView",
    "LabelSpace",
    "MultiViewDataset",
    "SplitSpec",
    "probability_vector",
    "standardize_apply",
    "standardize_fit",
    "group_priority",
    "make_folds",
    "EnsembleStrategy",
    "assign_ranks",
    "confidence_sum",
    "decide",
    "rank_sum",
    "ablate",
    "compare_strategies",
    "evaluate",
    "evaluate_ensemble",
    "Prediction",
    "PredictionBatch",
    "TrainedEnsemble",
    "load_ensemble",
    "predict",
    "save_ensemble",
    "train_concat_baseline",
    "train_ensemble",
    "SynthSpec",
    "ViewSpec",
    "default_benchmark",
]
