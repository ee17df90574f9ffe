"""Probabilistic multiclass classifiers sharing one train/predict contract."""

from ..core import LabelSpace
from ..errors import BadSpec
from .adaboost import AdaBoostModel, train_adaboost
from .base import KINDS, ClassifierSpec, FittedClassifier, LinearModel, check_training_data
from .forest import RandomForestModel, train_random_forest
from .logreg import logreg_loss_grad, train_logreg
from .stumps import train_stump
from .svm import train_linear_svm_ovr

# per kind: its trainer and the class of the model that trainer fits
_KINDS = {
    "logreg": (train_logreg, LinearModel),
    "linear_svm_ovr": (train_linear_svm_ovr, LinearModel),
    "adaboost_stumps": (train_adaboost, AdaBoostModel),
    "random_forest": (train_random_forest, RandomForestModel),
}


def train(spec: ClassifierSpec, X, y, labels: LabelSpace) -> FittedClassifier:
    """Train a classifier of ``spec.kind`` on data that ``check_training_data``
    accepts; deterministic given (spec, data)."""
    trainer, _ = _KINDS[spec.kind]
    return trainer(spec, *check_training_data(X, y, labels), labels)


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
    "LinearModel",
    "AdaBoostModel",
    "RandomForestModel",
    "train",
    "model_from_state",
    "train_stump",
    "logreg_loss_grad",
]
