import csv
import warnings

import numpy as np
import pytest
from hypothesis import settings

from latefuse.classifiers.base import MAX_HALVINGS, MAX_STEPS
from latefuse.classifiers.logreg import _loss_and_gradient
from latefuse.core import GroupView, LabelSpace, MultiViewDataset

# property tests draw the same examples on every run, so CI cannot flake
settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
DETERMINISTIC = settings.get_profile("deterministic")

# When a property test fails, the hypothesis pytest plugin imports libcst to
# suggest a patch. That import raises a DeprecationWarning, which the warning
# filters turn into an error that aborts the run before the falsifying example
# is printed; importing it here first, with the warning ignored, prevents that.
try:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        import libcst  # noqa: F401
except ImportError:  # the plugin then skips the patch
    pass


def gaussian_blobs(rng, n_per_class, centers):
    """Stacked samples around the given class centers, unit noise."""
    centers = np.asarray(centers, dtype=np.float64)
    m, d = centers.shape
    X = np.vstack([c + rng.standard_normal((n_per_class, d)) for c in centers])
    y = np.repeat(np.arange(m), n_per_class)
    return X, y


def cross_val_accuracy(train_fn, X, y, plan):
    """Oracle priority: unweighted mean over the folds of ``plan`` of held-out
    top-1 accuracy. ``train_fn(X_train, y_train)`` returns a callable mapping
    a feature matrix to predicted class indices."""
    accuracies = []
    for f in range(plan.k):
        held = plan.assignments == f
        predict = train_fn(X[~held], y[~held])
        accuracies.append(float((np.asarray(predict(X[held])) == y[held]).mean()))
    return float(np.mean(accuracies))


def reference_predictions(preds, class_names, path):
    """The predictions file that csv.writer prints for ``preds``, one
    ``Prediction`` at a time, each score in format ".6g"."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["sample_id", "predicted"] + [f"score_{c}" for c in class_names])
        for p in preds:
            w.writerow([p.sample_id, class_names[p.decided]] + [format(v, ".6g") for v in p.scores])


def make_dataset(groups, labels, class_names=None):
    """Small helper assembling a MultiViewDataset from raw matrices."""
    labels = np.asarray(labels, dtype=np.int64)
    m = int(labels.max()) + 1
    names = class_names or [f"c{i}" for i in range(m)]
    return MultiViewDataset(
        label_space=LabelSpace(tuple(names)),
        labels=labels,
        groups=tuple(GroupView(name, feats) for name, feats in groups),
        sample_ids=tuple(f"s{i:04d}" for i in range(len(labels))),
    )


def falsy_meta_message(meta):
    """The error for a stacking_meta_spec of the falsy ``meta``, in a config or a model file."""
    if meta == {}:
        return "strategy.stacking_meta_spec is missing the required field 'kind'"
    return f"strategy.stacking_meta_spec must be a JSON object, got {meta!r}"


def drop_last_weight_column(group):
    """Model-file edit: one column fewer in a logreg group's weights."""
    for row in group["state"]["weights"]:
        row.pop()


def shorten_standardizer(group):
    """Model-file edit: a group standardizer one entry short."""
    group["standardizer"]["mean"].pop()
    group["standardizer"]["scale"].pop()


def inf_logreg_weight(group):
    """Model-file edit: an infinite logreg weight."""
    group["state"]["weights"][0][0] = float("inf")


def nan_adaboost_alpha(group):
    """Model-file edit: a NaN round weight in an adaboost group."""
    group["state"]["alphas"][0] = float("nan")


def nan_standardizer_mean(group):
    """Model-file edit: a NaN in a group standardizer's mean."""
    group["standardizer"]["mean"][0] = float("nan")


@pytest.fixture
def rng():
    return np.random.default_rng(42)


@pytest.fixture
def two_blob_dataset(rng):
    """Two groups, 2 classes, well separated in group A, noise in group B."""
    Xa, y = gaussian_blobs(rng, 30, [[0.0, 0.0], [6.0, 6.0]])
    Xb = rng.standard_normal((60, 3))
    return make_dataset([("a", Xa), ("b", Xb)], y)


def nested_tree(state, node):
    """The tree under ``node`` of a forest's node arrays (a random forest's
    model state), as nested dicts: ``{"leaf": c}`` or ``{"f", "t", "l", "r"}``."""
    if state["left"][node] == -1:
        return {"leaf": state["leaf"][node]}
    return {
        "f": state["feature"][node],
        "t": state["threshold"][node],
        "l": nested_tree(state, state["left"][node]),
        "r": nested_tree(state, state["right"][node]),
    }


# -- reference optimizer: plain gradient descent that evaluates the objective
# and the gradient separately at every point, with the loss it ran on. The
# fitted logistic regression and the SVM must reach a loss no worse than it.

REL_TOL = 1e-8  # two_call_descend stops on a relative decrease below this


def two_call_descend(objective, gradient, x, step):
    """Gradient descent from ``x``: each step starts from twice the last
    accepted step size and halves it until the value strictly decreases. Stops
    after MAX_STEPS accepted steps, on a relative decrease below REL_TOL, or
    when MAX_HALVINGS halvings find no decrease. ``gradient(x)`` recomputes
    from ``x``. Returns the final point and the value history."""
    value = objective(x)
    history = [value]
    for _ in range(MAX_STEPS):
        g = gradient(x)
        step *= 2.0
        for _ in range(MAX_HALVINGS):
            x_next = x - step * g
            value_next = objective(x_next)
            if value_next < value:
                break
            step *= 0.5
        else:
            break
        rel_change = (value - value_next) / max(abs(value), 1e-300)
        x, value = x_next, value_next
        history.append(value)
        if rel_change < REL_TOL:
            break
    return x, history


def reference_softmax(z):
    """Row-wise softmax shifted by the row max of the C-ordered rows."""
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def logreg_loss_grad(W, X, y, lam):
    """``(loss, gradient)`` at W of the objective ``train_logreg`` minimizes,
    mean cross-entropy of the logits X @ W plus (lam/2)*||W||^2."""
    evaluate, gradient = _loss_and_gradient(X, y, lam)
    loss, shifted = evaluate(W)
    return float(loss), gradient(W, shifted)


def reference_loss_only(W, X, y, lam):
    Z = X @ W
    Zs = Z - Z.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(Zs).sum(axis=1))
    ll = (Zs[np.arange(X.shape[0]), y] - log_norm).mean()
    return -ll + 0.5 * lam * float((W * W).sum())


def reference_logreg_gradient(W, X, y, lam):
    n = X.shape[0]
    Z = X @ W
    Zs = Z - Z.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(Zs).sum(axis=1))
    P = np.exp(Zs - log_norm[:, None])
    P[np.arange(n), y] -= 1.0
    return X.T @ P / n + lam * W

