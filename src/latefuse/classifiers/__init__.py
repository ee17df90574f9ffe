"""Probabilistic multiclass classifiers sharing one train/predict contract."""

from ..core import LabelSpace
from ..errors import BadSpec
from .adaboost import AdaBoostModel, round_weight, train_adaboost
from .base import KINDS, ClassifierSpec, FittedClassifier, check_training_data
from .forest import RandomForestModel, train_random_forest
from .logreg import LogisticModel, logreg_loss_grad, softmax, train_logreg
from .stumps import DecisionStump, stump_weighted_error, train_stump
from .svm import LinearSvmOvrModel, svm_objective, train_binary_svm, train_linear_svm_ovr

# per kind: its trainer and the class of the model that trainer fits
_KINDS = {
    "logreg": (train_logreg, LogisticModel),
    "linear_svm_ovr": (train_linear_svm_ovr, LinearSvmOvrModel),
    "adaboost_stumps": (train_adaboost, AdaBoostModel),
    "random_forest": (train_random_forest, RandomForestModel),
}


def train(spec: ClassifierSpec, X, y, labels: LabelSpace) -> FittedClassifier:
    """Train a classifier of ``spec.kind``; deterministic given (spec, data)."""
    trainer, _ = _KINDS[spec.kind]
    return trainer(spec, X, y, labels)


def model_from_state(spec: ClassifierSpec, labels: LabelSpace, input_dim: int, state: dict):
    """Rebuild a fitted model from its persisted state; BadSpec for any
    malformed one, such as a missing key or a stump of the wrong length."""
    _, model_class = _KINDS[spec.kind]
    try:
        return model_class.from_state(spec, labels, input_dim, state)
    except BadSpec:
        raise
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise BadSpec(f"state of the {spec.kind} model is malformed: {exc!r}") from exc


__all__ = [
    "KINDS",
    "ClassifierSpec",
    "FittedClassifier",
    "DecisionStump",
    "LogisticModel",
    "LinearSvmOvrModel",
    "AdaBoostModel",
    "RandomForestModel",
    "train",
    "train_logreg",
    "train_linear_svm_ovr",
    "train_adaboost",
    "train_random_forest",
    "train_stump",
    "train_binary_svm",
    "stump_weighted_error",
    "svm_objective",
    "round_weight",
    "softmax",
    "logreg_loss_grad",
    "check_training_data",
    "model_from_state",
]
