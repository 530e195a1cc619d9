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
# bytes of the node x feature x row x class counts one forest split batch holds
RF_SPLIT_BYTES = 1 << 18
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


# each kind's params: a scalar's type, or an array's dtype kind and axes,
# where "C" is len(classes), "dim" the input width, and any other axis name
# must agree across the kind's arrays
PARAMS = {
    "logreg": {"W": (np.floating, "C", "dim"), "b": (np.floating, "C")},
    "linsvm": {"W": (np.floating, "C", "dim"), "b": (np.floating, "C")},
    "knn": {"X": (np.floating, "n", "dim"), "y": (np.integer, "n"), "k": (int,)},
    "rf": {"feature": (np.integer, "nodes"), "threshold": (np.floating, "nodes"),
           "left": (np.integer, "nodes"), "right": (np.integer, "nodes"),
           "leaf": (np.integer, "nodes"), "roots": (np.integer, "trees")},
    "dummy": {"majority": (int,)},
}


@dataclass
class Classifier:
    """A model of one kind in PARAMS. Building one checks its params against
    the classes and dim and holds each in its dtype, so a classifier cannot
    index out of range or loop when it predicts."""

    kind: str
    classes: tuple[str, ...]
    dim: int
    params: dict
    provenance: FeatProvenance | None = None

    def __post_init__(self):
        spec = PARAMS.get(self.kind)
        if spec is None:
            raise ValueError(f"unknown classifier kind {self.kind!r}; want one of {tuple(PARAMS)}")
        what = "random forest" if self.kind == "rf" else self.kind

        def bad(reason: str) -> ValueError:
            return ValueError(f"malformed {what}: {reason}")

        missing = [name for name in spec if name not in self.params]
        if missing:
            retired = self.kind == "rf" and "trees" in self.params
            raise bad("its nested-dict format is retired; retrain it" if retired
                      else f"missing params {missing}")
        C = len(self.classes)
        sizes = {"C": C, "dim": self.dim}
        params = {}
        for name, (dtype, *axes) in spec.items():
            value = self.params[name]
            if dtype is int:
                if not isinstance(value, (int, np.integer)):
                    raise bad(f"{name} is {value!r}, want an int")
                params[name] = int(value)
                continue
            value = np.asarray(value)
            if not np.issubdtype(value.dtype, dtype):
                raise bad(f"{name} holds {value.dtype}, want {dtype.__name__}")
            for axis, n in zip(axes, value.shape):
                sizes.setdefault(axis, n)
            want = tuple(sizes.get(axis, axis) for axis in axes)
            if value.shape != want:
                raise bad(f"{name} has shape {value.shape}, want {want}".replace("'", ""))
            # ids are judged as routing will hold them, after any unsigned wrap
            params[name] = np.asarray(value, dtype=np.float64 if dtype is np.floating else np.intp)
        self.params = params
        if self.kind == "knn" and (sizes["n"] < 1 or params["k"] < 1):
            raise bad(f"X has {sizes['n']} rows and k is {params['k']}; want at least 1 of each")
        for name in ("y", "majority"):
            if name in params and np.any((params[name] < 0) | (params[name] >= C)):
                raise bad(f"{name} holds a class id outside [0, {C})")
        if self.kind == "rf":
            _check_forest(params, self.dim, C, bad)
            # compatibility shim read only by perfbench's traced train_rf hook;
            # remove it once the benchmark counts nodes from the arrays
            starts = params["roots"].tolist() + [len(params["leaf"])]
            params["trees"] = [{"leaf": params["leaf"][a:b]} for a, b in zip(starts, starts[1:])]


def _check_forest(params: dict, dim: int, n_classes: int, bad) -> None:
    """Refuse a forest whose routing could index out of range or loop: tree t
    holds ids roots[t] up to the next root, and every child id must exceed
    its parent's and stay inside its tree."""
    feature, _, left, right, leaf, roots = (params[name] for name in FOREST_ARRAYS)
    n = len(feature)
    if len(roots) == 0 or roots[0] != 0 or np.any(roots[1:] <= roots[:-1]) or roots[-1] >= n:
        raise bad("roots must start at 0 and increase inside the node arrays")
    ids = np.arange(n)
    stop = np.append(roots[1:], n)[np.searchsorted(roots, ids, side="right") - 1]
    inner = feature >= 0
    for child in (left, right):
        if np.any(inner & ((child <= ids) | (child >= stop))):
            raise bad("a child id is not after its parent inside the same tree")
    if np.any(feature < -1) or np.any(feature >= dim):
        raise bad(f"split feature outside [0, {dim})")
    if np.any(~inner & ((leaf < 0) | (leaf >= n_classes))):
        raise bad(f"leaf class outside [0, {n_classes})")


def _check_training(s: LabeledSet) -> None:
    if len(s.X) == 0:
        raise ValueError("empty training set")
    if len(np.unique(s.y)) < 2:
        raise ValueError("training requires at least 2 distinct classes")


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


def _best_splits(
    X: np.ndarray, y: np.ndarray, boot: np.ndarray, spans: np.ndarray, F: np.ndarray, n_classes: int
) -> tuple[np.ndarray, np.ndarray]:
    """Best (feature, threshold) of each node (tree, start, stop) in spans,
    whose rows X[boot[tree, start:stop]] (2 or more) are cut at midpoints
    between consecutive distinct values of its candidate features F, or of
    every feature when none of those splits them (feature -1 when none
    does). Impurity is the size-weighted Gini of the two sides; ties go to
    the first feature, then the first cut. Nodes are scored in batches,
    largest first, padded to the batch's largest (under twice any member's
    rows), whose count tensor fits RF_SPLIT_BYTES (one node at least).
    """
    sizes = spans[:, 2] - spans[:, 1]
    feature, threshold = np.full(len(spans), -1), np.zeros(len(spans))
    by_size = np.argsort(-sizes, kind="stable")
    desc = sizes[by_size]
    m = F.shape[1]
    i = 0
    while i < len(by_size):
        N = int(desc[i])
        fits = max(1, RF_SPLIT_BYTES // (N * m * n_classes * 8))
        end = min(i + fits, int(np.searchsorted(-desc, -(N // 2), side="left")))
        batch = by_size[i:max(end, i + 1)]
        i += len(batch)
        B, tree, start, size, Fb = len(batch), *spans[batch, :2].T, sizes[batch], F[batch]
        R = boot[tree[:, None], start[:, None] + np.minimum(np.arange(N), size[:, None] - 1)]
        pad = np.arange(N) >= size[:, None]
        cols = X.take(R[:, None, :] * X.shape[1] + Fb[:, :, None])  # (B, m, N)
        np.copyto(cols, np.nan, where=pad[:, None, :])  # padding sorts last, never a cut
        order = cols.argsort(axis=2, kind="stable")
        xs = cols.take(order + np.arange(0, B * m * N, N).reshape(B, m, 1))
        ys = y[R].take(order + np.arange(0, B * N, N).reshape(B, 1, 1))
        # running class counts over all B*m sorted rows, laid end to end
        running = np.zeros((B * m * N + 1, n_classes))
        np.cumsum(np.eye(n_classes).take(ys.ravel(), axis=0), axis=0, out=running[1:])
        at = np.flatnonzero(xs[:, :, 1:] > xs[:, :, :-1])  # only cuts between distinct values
        row, cut = np.divmod(at, N - 1)
        n = size.take(row // m)
        base = running.take(row * N, axis=0)
        left = running.take(row * N + cut + 1, axis=0) - base  # class counts left of the cut
        right = running.take(row * N + n, axis=0) - base - left
        nl = cut + 1.0
        nr = n - nl
        scores = np.full((B, m * (N - 1)), np.inf)
        scores.reshape(-1)[at] = (nl * _gini(left, nl) + nr * _gini(right, nr)) / n
        best = scores.argmin(axis=1)  # the first feature, then the first cut, among ties
        node = np.arange(B)
        j, cut = np.divmod(best, N - 1)
        found = scores[node, best] < np.inf
        feature[batch] = np.where(found, Fb[node, j], -1)
        threshold[batch] = 0.5 * (xs[node, j, cut] + xs[node, j, cut + 1])
    stuck = np.flatnonzero(feature < 0)
    if stuck.size and m < X.shape[1]:
        every = np.tile(np.arange(X.shape[1]), (stuck.size, 1))
        feature[stuck], threshold[stuck] = _best_splits(X, y, boot, spans[stuck], every, n_classes)
    return feature, threshold


def train_rf(
    s: LabeledSet,
    trees: int = 100,
    seed: int = 0,
    bootstrap: bool = True,
    feature_sample: str = "sqrt",
) -> Classifier:
    """Bagged Gini trees grown until pure or fewer than 2 rows; sqrt(D)
    candidate features per split, all D when none of those splits the rows.
    bootstrap=False and feature_sample="all" reduce the forest to
    deterministic plain trees for oracle checks.

    The trees grow in lockstep: each step takes the next preorder node of
    every tree still growing and searches their splits in one batch. Tree t
    draws its bootstrap, then one feature sample per splittable node in
    preorder, from default_rng([seed, t]). A node is a range of its tree's
    row of boot, partitioned in place by its split; each tree's stack pushes
    the hi child before the lo child. Leaves have feature -1, internal nodes leaf -1.
    """
    _check_training(s)
    if feature_sample not in ("sqrt", "all") or trees < 1:
        raise ValueError("feature_sample must be 'sqrt' or 'all', and trees at least 1")
    n, d = s.X.shape
    C = len(s.classes)
    m = d if feature_sample == "all" else max(1, int(np.sqrt(d)))
    rngs = [np.random.default_rng([seed, t]) for t in range(trees)]
    boot = np.stack([rng.integers(0, n, n) if bootstrap else np.arange(n) for rng in rngs])
    stacks = [[(0, n, -1, 0)] for _ in range(trees)]  # (start, stop, parent, parent's child slot)
    nodes = [[] for _ in range(trees)]  # per tree, [feature, threshold, left, right, leaf]
    growing = list(range(trees))
    while growing:
        tree = np.array(growing)
        start, stop, parent, slot = np.array([stacks[t].pop() for t in growing]).T
        size = stop - start
        node = np.repeat(np.arange(len(tree)), size)
        at = np.repeat(start - np.cumsum(size) + size, size) + np.arange(len(node))
        rows = boot[tree[node], at]
        counts = np.bincount(node * C + s.y[rows], minlength=len(tree) * C).reshape(-1, C)
        split = np.flatnonzero(counts.max(axis=1) < size)
        draws = [rngs[t].choice(d, m, replace=False) for t in tree[split].tolist()]
        F = np.sort(np.reshape(draws, (-1, m)), axis=1)
        feature, threshold = np.full(len(tree), -1), np.zeros(len(tree))
        spans = np.column_stack([tree, start, stop])[split]
        feature[split], threshold[split] = _best_splits(s.X, s.y, boot, spans, F, C)
        leaf = np.where(feature < 0, counts.argmax(axis=1), -1)
        # partition every range stably, lo rows first; a leaf's range is never read again
        go_lo = s.X[rows, feature[node]] <= threshold[node]
        boot[tree[node], at] = rows[np.argsort(2 * node + ~go_lo, kind="stable")]
        mid = start + np.bincount(node, weights=go_lo, minlength=len(tree)).astype(np.intp)
        for t, a, c, b, p, sl, f, th, lf in zip(growing, *(v.tolist() for v in (
            start, mid, stop, parent, slot, feature, threshold, leaf
        ))):
            grown = nodes[t]
            if p >= 0:
                grown[p][sl] = len(grown)
            if f >= 0:
                stacks[t] += [(c, b, len(grown), 3), (a, c, len(grown), 2)]
            grown.append([f, th if f >= 0 else 0.0, -1, -1, lf])
        growing = [t for t in growing if stacks[t]]
    sizes = [len(grown) for grown in nodes]
    roots = np.cumsum([0] + sizes[:-1])
    feature, threshold, left, right, leaf = map(np.array, zip(*(r for g in nodes for r in g)))
    shift = np.repeat(roots, sizes)  # tree-local child ids become forest-wide
    left, right = (np.where(ids >= 0, ids + shift, -1) for ids in (left, right))
    params = dict(zip(FOREST_ARRAYS, (feature, threshold, left, right, leaf, roots)))
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
    scores = np.zeros((len(rows), len(clf.classes)))  # dummy
    scores[:, clf.params["majority"]] = 1.0
    return scores


def predict(clf: Classifier, x: np.ndarray):
    """Class label(s); ties go to the smallest class id."""
    single = np.asarray(x).ndim == 1
    ids = np.argmax(predict_scores(clf, x), axis=1)
    labels = [clf.classes[i] for i in ids]
    return labels[0] if single else labels


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
