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

from . import nn

KNN_EPS = 1e-9
# bytes of the test-row x training-row x dim difference tensor kNN builds at once
KNN_CHUNK_BYTES = 32 << 20
MODELS = ("logreg", "knn", "rf", "svm", "dummy")
# a random forest's parallel node arrays, as params and bundle array names
FOREST_ARRAYS = ("feature", "threshold", "left", "right", "leaf", "roots")


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


def _fit_linear(kind: str, s: LabeledSet, cfg: nn.SgdConfig, grads) -> Classifier:
    """Train a zero-initialized affine layer with nn.train.

    grads(Xb, yb, W, b) returns one batch's loss and the gradients of W and
    b; nn.train raises TrainingDivergedError on a non-finite loss.
    """
    n, d = s.X.shape
    c = len(s.classes)
    layer = nn.DenseLayer(np.zeros((c, d)), np.zeros(c))

    def step(idx):
        loss, dW, db = grads(s.X[idx], s.y[idx], layer.W, layer.b)
        return loss, [[nn.LayerGrads(dW, db)]]

    nn.train([nn.Network([layer])], cfg, n, step)
    return Classifier(kind, s.classes, d, {"W": layer.W, "b": layer.b}, s.provenance)


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

    def grads(Xb, yb, W, b):
        Z = Xb @ W.T + b
        Z -= Z.max(axis=1, keepdims=True)
        P = np.exp(Z)
        total = P.sum(axis=1, keepdims=True)
        at = np.arange(len(yb))
        loss = float((np.log(total[:, 0]) - Z[at, yb]).sum()) / len(yb)
        P /= total
        P[at, yb] -= 1.0
        G = P / len(yb)
        return loss, G.T @ Xb + l2 * W, G.sum(axis=0)

    return _fit_linear("logreg", s, nn.SgdConfig(lr, batch_size, epochs, seed), grads)


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


def _gini(counts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Gini impurity of class counts (..., C) over their row counts (...)."""
    p = counts / sizes[..., None]
    np.square(p, out=p)
    return 1.0 - p.sum(axis=-1)


def _gini_best_split(
    X: np.ndarray, y: np.ndarray, feature_ids: np.ndarray, n_classes: int
) -> tuple[int, float, float] | None:
    """Best (feature, threshold, impurity) over candidate features, scoring
    every cut of every candidate in one pass over n >= 2 rows.

    Thresholds are midpoints between consecutive distinct sorted values;
    impurity is the size-weighted Gini of the two sides. Ties go to the
    first candidate feature, then the first cut. Returns None when no
    candidate feature splits the rows.
    """
    n = len(y)
    cols = X[:, feature_ids]
    order = np.argsort(cols, axis=0, kind="stable")
    xs = cols[order, np.arange(cols.shape[1])]
    cum = np.cumsum(np.eye(n_classes)[y][order], axis=0)  # (n, m, C)
    left = cum[:-1]  # class counts left of a cut after position i
    nl = np.arange(1.0, n)[:, None]
    nr = n - nl
    weighted = (nl * _gini(left, nl) + nr * _gini(cum[-1] - left, nr)) / n
    weighted[~(np.diff(xs, axis=0) > 0)] = np.inf  # no cut inside a run of ties
    j, cut = divmod(int(np.argmin(weighted.T)), n - 1)
    score = float(weighted[cut, j])
    if score == np.inf:
        return None
    threshold = 0.5 * (xs[cut, j] + xs[cut + 1, j])
    return int(feature_ids[j]), float(threshold), score


def _grow_tree(
    X: np.ndarray,
    y: np.ndarray,
    rng: np.random.Generator,
    n_classes: int,
    feature_sample: str,
    nodes: dict[str, list],
) -> None:
    """Append one tree to a forest's node lists, in preorder.

    An explicit stack replaces recursion, so no depth limit applies. The hi
    child is pushed before the lo child, so the lo subtree is numbered, and
    draws its feature samples, first. Leaves have feature -1 and no
    children; internal nodes have leaf -1.
    """
    d = X.shape[1]
    stack = [(np.arange(len(y)), -1, "")]  # (rows, parent id, parent's child array)
    while stack:
        rows, parent, side = stack.pop()
        node = len(nodes["feature"])
        if parent >= 0:
            nodes[side][parent] = node
        ys = y[rows]
        counts = np.bincount(ys, minlength=n_classes)
        best = None
        if len(ys) >= 2 and counts.max() < len(ys):
            if feature_sample == "all":
                feats = np.arange(d)
            else:
                m = max(1, int(np.sqrt(d)))
                feats = np.sort(rng.choice(d, size=m, replace=False))
            Xn = X[rows]
            best = _gini_best_split(Xn, ys, feats, n_classes)
            if best is None and feature_sample != "all":
                best = _gini_best_split(Xn, ys, np.arange(d), n_classes)
        f, t, leaf = (-1, 0.0, int(np.argmax(counts))) if best is None else (*best[:2], -1)
        for name, value in zip(FOREST_ARRAYS, (f, t, -1, -1, leaf)):
            nodes[name].append(value)
        if best is not None:
            mask = X[rows, f] <= t
            stack.append((rows[~mask], node, "right"))
            stack.append((rows[mask], node, "left"))


def pack_forest(
    feature: np.ndarray,
    threshold: np.ndarray,
    left: np.ndarray,
    right: np.ndarray,
    leaf: np.ndarray,
    roots: np.ndarray,
) -> dict:
    """Random-forest params from parallel node arrays over all trees.

    Tree t holds ids roots[t] up to the next root, and child ids index the
    whole forest.
    """
    params = {
        "feature": np.asarray(feature, dtype=np.intp),
        "threshold": np.asarray(threshold, dtype=np.float64),
        "left": np.asarray(left, dtype=np.intp),
        "right": np.asarray(right, dtype=np.intp),
        "leaf": np.asarray(leaf, dtype=np.intp),
        "roots": np.asarray(roots, dtype=np.intp),
    }
    # Temporary compatibility shim, read by nothing in opembed: perfbench's
    # traced train_rf hook walks params["trees"] and stops at a dict holding
    # "leaf". Remove it with the benchmark change that counts nodes from the
    # arrays.
    starts = params["roots"].tolist()
    stops = starts[1:] + [len(params["feature"])]
    params["trees"] = [{"leaf": params["leaf"][a:b]} for a, b in zip(starts, stops)]
    return params


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
    nodes: dict[str, list] = {name: [] for name in FOREST_ARRAYS[:-1]}
    roots = []
    for t in range(trees):
        rng = np.random.default_rng([seed, t])
        if bootstrap:
            idx = rng.integers(0, n, n)
            Xb, yb = s.X[idx], s.y[idx]
        else:
            Xb, yb = s.X, s.y
        roots.append(len(nodes["feature"]))
        _grow_tree(Xb, yb, rng, len(s.classes), feature_sample, nodes)
    params = pack_forest(**nodes, roots=roots)
    return Classifier("rf", s.classes, s.dim, params, s.provenance)


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
    signs = np.where(np.eye(len(s.classes), dtype=bool), 1.0, -1.0)  # row y: +1 at y

    def grads(Xb, yb, W, b):
        Sb = signs[yb]
        margins = Sb * (Xb @ W.T + b)
        viol = (margins < 1.0).astype(np.float64)
        loss = 0.5 * float(np.vdot(W, W)) + c * float(np.vdot(1.0 - margins, viol)) / len(yb)
        coeff = -(Sb * viol) / len(yb)          # (m, C)
        return loss, W + c * coeff.T @ Xb, c * coeff.sum(axis=0)

    return _fit_linear("linsvm", s, nn.SgdConfig(lr, batch_size, epochs, seed), grads)


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


def _forest_votes(params: dict, rows: np.ndarray, n_classes: int) -> np.ndarray:
    """Route every (row, tree) pair down its tree at once, one level per
    step, and count each leaf's class as one vote."""
    feature, threshold, left, right, leaf, roots = (params[k] for k in FOREST_ARRAYS)
    n = len(rows)
    row = np.repeat(np.arange(n), len(roots))
    node = np.tile(roots, n)
    live = np.arange(len(node))  # pairs still at an internal node
    while live.size:
        at = node[live]
        f = feature[at]
        inner = f >= 0
        live, at, f = live[inner], at[inner], f[inner]
        go_lo = rows[row[live], f] <= threshold[at]
        node[live] = np.where(go_lo, left[at], right[at])
    votes = np.bincount(row * n_classes + leaf[node], minlength=n * n_classes)
    return votes.reshape(n, n_classes).astype(np.float64)


def _knn_scores(clf: Classifier, rows: np.ndarray) -> np.ndarray:
    """Inverse-distance votes of the k nearest training rows. Rows whose
    difference tensor would exceed KNN_CHUNK_BYTES are scored in chunks
    that fit it, one row at least."""
    Xt, yt = clf.params["X"], clf.params["y"]
    if len(rows) > 1 and len(rows) * Xt.nbytes > KNN_CHUNK_BYTES:
        step = max(1, KNN_CHUNK_BYTES // Xt.nbytes)
        return np.concatenate(
            [_knn_scores(clf, rows[start : start + step]) for start in range(0, len(rows), step)]
        )
    k = min(clf.params["k"], len(Xt))
    diff = rows[:, None, :] - Xt
    np.square(diff, out=diff)
    d2 = diff.sum(axis=2)
    # the method skips np.argsort's Python wrapper: about 1 us of a one-row call
    nearest = d2.argsort(axis=1, kind="stable")[:, :k]
    at = np.arange(len(rows))[:, None]
    w = 1.0 / (np.sqrt(d2[at, nearest]) + KNN_EPS)
    scores = np.zeros((len(rows), len(clf.classes)))
    np.add.at(scores, (at, yt[nearest]), w)
    return scores


def predict_scores(clf: Classifier, x: np.ndarray) -> np.ndarray:
    """Per-class scores (not necessarily normalized), one row per input."""
    rows = _check_rows(clf, x)
    if clf.kind in ("logreg", "linsvm"):
        return rows @ clf.params["W"].T + clf.params["b"]
    if clf.kind == "knn":
        return _knn_scores(clf, rows)
    if clf.kind == "rf":
        return _forest_votes(clf.params, rows, len(clf.classes))
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
