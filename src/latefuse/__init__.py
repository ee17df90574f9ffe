"""latefuse: late-fusion multi-view classification.

Train one probabilistic classifier per feature group, weight each group by
its cross-validated accuracy, and fuse the per-group class confidences with
configurable combination rules (confidence summation, rank summation, or a
stacked meta-classifier) to reach a final decision.
"""

from .classifiers import ClassifierSpec, FittedClassifier, train
from .core import (
    GroupView,
    LabelSpace,
    MultiViewDataset,
    SplitSpec,
    Standardizer,
    probability_vector,
    standardize_apply,
    standardize_fit,
    stratified_split,
    validate_dataset,
)
from .crossval import FoldPlan, group_priority, make_folds
from .ensemble import (
    EnsembleStrategy,
    assign_ranks,
    confidence_sum,
    decide,
    rank_sum,
    train_stacking,
)
from .evaluation import (
    AblationReport,
    EvaluationReport,
    ablate,
    compare_classifiers,
    compare_strategies,
    evaluate,
    evaluate_ensemble,
)
from .pipeline import (
    ConcatBaseline,
    Prediction,
    TrainedEnsemble,
    load_ensemble,
    predict,
    save_ensemble,
    train_concat_baseline,
    train_ensemble,
)
from .synthdata import SynthSpec, ViewSpec, default_benchmark, generate

__version__ = "0.1.0"

__all__ = [
    "ClassifierSpec",
    "FittedClassifier",
    "train",
    "GroupView",
    "LabelSpace",
    "MultiViewDataset",
    "SplitSpec",
    "Standardizer",
    "probability_vector",
    "standardize_apply",
    "standardize_fit",
    "stratified_split",
    "validate_dataset",
    "FoldPlan",
    "group_priority",
    "make_folds",
    "EnsembleStrategy",
    "assign_ranks",
    "confidence_sum",
    "decide",
    "rank_sum",
    "train_stacking",
    "AblationReport",
    "EvaluationReport",
    "ablate",
    "compare_classifiers",
    "compare_strategies",
    "evaluate",
    "evaluate_ensemble",
    "ConcatBaseline",
    "Prediction",
    "TrainedEnsemble",
    "load_ensemble",
    "predict",
    "save_ensemble",
    "train_concat_baseline",
    "train_ensemble",
    "SynthSpec",
    "ViewSpec",
    "default_benchmark",
    "generate",
]
