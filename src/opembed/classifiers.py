"""From-scratch classifiers sharing one contract: multinomial logistic
regression, weighted kNN, random forest, linear one-vs-rest SVM, and a
majority-class dummy.

Every tie anywhere (vote, score, neighbor weight) resolves to the smallest
class id so runs are reproducible bit for bit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

KNN_EPS = 1e-9
MODELS = ("logreg", "knn", "rf", "svm", "dummy")


@dataclass(frozen=True)
class FeatProvenance:
    """Which featurization produced the rows a classifier was trained on."""

    kind: str                  # sparse | neural | pca | fa
    digest: str | None = None  # schema or reducer/encoder hash


@dataclass
class LabeledSet:
    X: np.ndarray              # (n, d)
    y: np.ndarray              # (n,) class ids
    classes: tuple[str, ...]
    provenance: FeatProvenance | None = None

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.intp)
        if self.X.ndim != 2 or len(self.X) != len(self.y):
            raise ValueError("X must be (n, d) aligned with y")
        if self.y.size and (self.y.min() < 0 or self.y.max() >= len(self.classes)):
            raise ValueError("class ids out of range")

    @property
    def dim(self) -> int:
        return self.X.shape[1]


def make_labeled_set(
    X: np.ndarray,
    labels,
    classes: tuple[str, ...] | None = None,
    provenance: FeatProvenance | None = None,
) -> LabeledSet:
    """Build a LabeledSet from string labels; class order is the given tuple
    or first appearance."""
    labels = list(labels)
    if classes is None:
        seen = {}
        for lab in labels:
            if lab not in seen:
                seen[lab] = len(seen)
        classes = tuple(seen)
    index = {c: i for i, c in enumerate(classes)}
    try:
        y = np.array([index[lab] for lab in labels], dtype=np.intp)
    except KeyError as exc:
        raise ValueError(f"label {exc.args[0]!r} not in classes {classes}") from exc
    return LabeledSet(np.asarray(X, dtype=np.float64), y, classes, provenance)


@dataclass
class Classifier:
    kind: str                      # logreg | knn | rf | linsvm | dummy
    classes: tuple[str, ...]
    dim: int
    params: dict
    provenance: FeatProvenance | None = None


def _check_training(s: LabeledSet) -> None:
    if len(s.X) == 0:
        raise ValueError("empty training set")
    if len(np.unique(s.y)) < 2:
        raise ValueError("training requires at least 2 distinct classes")


def _softmax_rows(Z: np.ndarray) -> np.ndarray:
    Z = Z - Z.max(axis=1, keepdims=True)
    e = np.exp(Z)
    return e / e.sum(axis=1, keepdims=True)


def train_logreg(
    s: LabeledSet,
    l2: float = 1e-4,
    lr: float = 0.1,
    epochs: int = 200,
    batch_size: int = 64,
    seed: int = 0,
) -> Classifier:
    """Multinomial softmax regression, mini-batch gradient descent on
    cross-entropy plus 0.5*l2*||W||^2 (bias unregularized). Zero init, so an
    untrained model predicts the uniform distribution."""
    _check_training(s)
    n, d = s.X.shape
    c = len(s.classes)
    W = np.zeros((c, d))
    b = np.zeros(c)
    onehot = np.eye(c)[s.y]
    rng = np.random.default_rng(seed)
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            Xb, Tb = s.X[idx], onehot[idx]
            P = _softmax_rows(Xb @ W.T + b)
            G = (P - Tb) / len(idx)
            W -= lr * (G.T @ Xb + l2 * W)
            b -= lr * G.sum(axis=0)
    return Classifier("logreg", s.classes, d, {"W": W, "b": b}, s.provenance)


def train_knn(s: LabeledSet, k: int = 6, seed: int = 0) -> Classifier:
    """Memorize the training set; prediction weights the k nearest Euclidean
    neighbors by 1/(distance + 1e-9)."""
    _check_training(s)
    if k < 1:
        raise ValueError("k must be >= 1")
    return Classifier(
        "knn",
        s.classes,
        s.dim,
        {"X": s.X.copy(), "y": s.y.copy(), "k": int(k)},
        s.provenance,
    )


def _gini_best_split(
    X: np.ndarray, y: np.ndarray, feature_ids: np.ndarray, n_classes: int
) -> tuple[int, float, float] | None:
    """Best (feature, threshold, impurity) over candidate features.

    Thresholds are midpoints between consecutive distinct sorted values;
    impurity is the size-weighted Gini of the two sides. Returns None when
    no candidate feature splits the rows.
    """
    n = len(y)
    best = None
    onehot = np.eye(n_classes)[y]
    for f in feature_ids:
        order = np.argsort(X[:, f], kind="stable")
        xs = X[order, f]
        distinct = np.nonzero(np.diff(xs) > 0)[0]  # split after position i
        if len(distinct) == 0:
            continue
        cum = np.cumsum(onehot[order], axis=0)  # class counts left of cut
        left = cum[distinct]
        total = cum[-1]
        right = total - left
        nl = distinct + 1.0
        nr = n - nl
        gini_l = 1.0 - np.square(left / nl[:, None]).sum(axis=1)
        gini_r = 1.0 - np.square(right / nr[:, None]).sum(axis=1)
        weighted = (nl * gini_l + nr * gini_r) / n
        j = int(np.argmin(weighted))
        score = float(weighted[j])
        if best is None or score < best[2]:
            cut = distinct[j]
            threshold = 0.5 * (xs[cut] + xs[cut + 1])
            best = (int(f), float(threshold), score)
    return best


def _grow_tree(
    X: np.ndarray,
    y: np.ndarray,
    rng: np.random.Generator,
    n_classes: int,
    feature_sample: str,
) -> dict:
    """Recursive dict tree: {"f", "t", "lo", "hi"} internal, {"leaf"} terminal."""
    counts = np.bincount(y, minlength=n_classes)
    majority = int(np.argmax(counts))
    if len(y) < 2 or counts.max() == len(y):
        return {"leaf": majority}
    d = X.shape[1]
    if feature_sample == "all":
        feats = np.arange(d)
    else:
        m = max(1, int(np.sqrt(d)))
        feats = np.sort(rng.choice(d, size=m, replace=False))
    best = _gini_best_split(X, y, feats, n_classes)
    if best is None:
        if feature_sample != "all":
            best = _gini_best_split(X, y, np.arange(d), n_classes)
        if best is None:
            return {"leaf": majority}
    f, t, _ = best
    mask = X[:, f] <= t
    return {
        "f": f,
        "t": t,
        "lo": _grow_tree(X[mask], y[mask], rng, n_classes, feature_sample),
        "hi": _grow_tree(X[~mask], y[~mask], rng, n_classes, feature_sample),
    }


def train_rf(
    s: LabeledSet,
    trees: int = 100,
    seed: int = 0,
    bootstrap: bool = True,
    feature_sample: str = "sqrt",
) -> Classifier:
    """Bagged Gini trees grown until pure or fewer than 2 rows; sqrt(D)
    candidate features per split. bootstrap=False and feature_sample="all"
    reduce the forest to deterministic plain trees for oracle checks."""
    _check_training(s)
    if feature_sample not in ("sqrt", "all"):
        raise ValueError("feature_sample must be 'sqrt' or 'all'")
    n = len(s.X)
    grown = []
    for t in range(trees):
        rng = np.random.default_rng([seed, t])
        if bootstrap:
            idx = rng.integers(0, n, n)
            Xb, yb = s.X[idx], s.y[idx]
        else:
            Xb, yb = s.X, s.y
        grown.append(_grow_tree(Xb, yb, rng, len(s.classes), feature_sample))
    return Classifier("rf", s.classes, s.dim, {"trees": grown}, s.provenance)


def train_linsvm(
    s: LabeledSet,
    c: float = 1.0,
    lr: float = 0.01,
    epochs: int = 200,
    batch_size: int = 64,
    seed: int = 0,
) -> Classifier:
    """One-vs-rest linear SVM by seeded mini-batch subgradient descent on
    0.5*||w||^2 + c * mean hinge. c = 0 keeps all weights at zero, so every
    prediction degenerates to the smallest class id."""
    _check_training(s)
    if c < 0:
        raise ValueError("c must be nonnegative")
    n, d = s.X.shape
    n_classes = len(s.classes)
    W = np.zeros((n_classes, d))
    b = np.zeros(n_classes)
    signs = np.where(np.eye(n_classes)[s.y].astype(bool), 1.0, -1.0)  # (n, C)
    rng = np.random.default_rng(seed)
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            Xb, Sb = s.X[idx], signs[idx]
            margins = Sb * (Xb @ W.T + b)
            viol = (margins < 1.0).astype(np.float64)
            coeff = -(Sb * viol) / len(idx)          # (m, C)
            W -= lr * (W + c * coeff.T @ Xb)
            b -= lr * (c * coeff.sum(axis=0))
    return Classifier("linsvm", s.classes, d, {"W": W, "b": b}, s.provenance)


def train_dummy(s: LabeledSet) -> Classifier:
    """Predict the training-majority class always (ties: smallest id)."""
    if len(s.X) == 0:
        raise ValueError("empty training set")
    majority = int(np.argmax(np.bincount(s.y, minlength=len(s.classes))))
    return Classifier("dummy", s.classes, s.dim, {"majority": majority}, s.provenance)


def train(model: str, s: LabeledSet, seed: int = 0) -> Classifier:
    """Train one model from MODELS with its default settings.

    The trainers are looked up as module globals at call time, so a wrapper
    set on this module's attributes sees every fit.
    """
    if model == "logreg":
        return train_logreg(s, seed=seed)
    if model == "knn":
        return train_knn(s)
    if model == "rf":
        return train_rf(s, seed=seed)
    if model == "svm":
        return train_linsvm(s, seed=seed)
    if model == "dummy":
        return train_dummy(s)
    raise ValueError(f"unknown model {model!r}; want one of {MODELS}")


def _check_rows(clf: Classifier, x: np.ndarray) -> np.ndarray:
    rows = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if rows.shape[1] != clf.dim:
        raise ValueError(
            f"feature dim {rows.shape[1]} does not match the classifier's {clf.dim}"
        )
    return rows


def _tree_route(tree: dict, row: np.ndarray) -> int:
    node = tree
    while "leaf" not in node:
        node = node["lo"] if row[node["f"]] <= node["t"] else node["hi"]
    return node["leaf"]


def _knn_scores(clf: Classifier, rows: np.ndarray) -> np.ndarray:
    Xt, yt, k = clf.params["X"], clf.params["y"], clf.params["k"]
    k = min(k, len(Xt))
    scores = np.zeros((len(rows), len(clf.classes)))
    d2 = np.square(rows[:, None, :] - Xt[None, :, :]).sum(axis=2)
    for i in range(len(rows)):
        nearest = np.argsort(d2[i], kind="stable")[:k]
        w = 1.0 / (np.sqrt(d2[i][nearest]) + KNN_EPS)
        np.add.at(scores[i], yt[nearest], w)
    return scores


def predict_scores(clf: Classifier, x: np.ndarray) -> np.ndarray:
    """Per-class scores (not necessarily normalized), one row per input."""
    rows = _check_rows(clf, x)
    if clf.kind in ("logreg", "linsvm"):
        return rows @ clf.params["W"].T + clf.params["b"]
    if clf.kind == "knn":
        return _knn_scores(clf, rows)
    if clf.kind == "rf":
        votes = np.zeros((len(rows), len(clf.classes)))
        for tree in clf.params["trees"]:
            for i, row in enumerate(rows):
                votes[i, _tree_route(tree, row)] += 1.0
        return votes
    if clf.kind == "dummy":
        scores = np.zeros((len(rows), len(clf.classes)))
        scores[:, clf.params["majority"]] = 1.0
        return scores
    raise ValueError(f"unknown classifier kind {clf.kind!r}")


def predict(clf: Classifier, x: np.ndarray):
    """Class label(s); ties go to the smallest class id."""
    single = np.asarray(x).ndim == 1
    ids = np.argmax(predict_scores(clf, x), axis=1)
    labels = [clf.classes[i] for i in ids]
    return labels[0] if single else labels


def predict_proba(clf: Classifier, x: np.ndarray) -> np.ndarray:
    """Class distribution; supported for logreg, knn, rf, dummy."""
    single = np.asarray(x).ndim == 1
    scores = predict_scores(clf, x)
    if clf.kind == "logreg":
        proba = _softmax_rows(scores)
    elif clf.kind in ("knn", "rf", "dummy"):
        totals = scores.sum(axis=1, keepdims=True)
        if np.any(totals <= 0):
            raise ValueError("degenerate scores, cannot normalize")
        proba = scores / totals
    else:
        raise ValueError(f"{clf.kind} does not support predict_proba")
    return proba[0] if single else proba


@dataclass
class InferenceStats:
    per_item_ms: np.ndarray
    mean_ms: float
    median_ms: float
    n: int


def measure_inference(clf: Classifier, xs: np.ndarray) -> InferenceStats:
    """Time predict() one item at a time, the way a runtime pipeline calls it."""
    rows = np.atleast_2d(np.asarray(xs, dtype=np.float64))
    times = np.empty(len(rows))
    for i, row in enumerate(rows):
        t0 = time.perf_counter()
        predict(clf, row)
        times[i] = (time.perf_counter() - t0) * 1e3
    return InferenceStats(times, float(times.mean()), float(np.median(times)), len(rows))
