"""From-scratch classifiers sharing one contract: multinomial logistic
regression, weighted kNN, random forest, linear one-vs-rest SVM, and a
majority-class dummy.

Every tie anywhere (vote, score, neighbor weight) resolves to the smallest
class id so runs are reproducible bit for bit.
"""

from __future__ import annotations

import inspect
import time
from dataclasses import dataclass

import numpy as np

from . import nn

KNN_EPS = 1e-9
# bytes of the test-row x training-row x dim difference tensor kNN builds at once
KNN_CHUNK_BYTES = 32 << 20
# bytes of the node x feature x row x class counts one forest split batch
# holds; it bounds a fit's memory, never the trees it grows
RF_SPLIT_BYTES = 1 << 18
MODELS = ("logreg", "knn", "rf", "svm", "dummy")
# a random forest's parallel node arrays, as params and bundle array names
FOREST_ARRAYS = ("feature", "threshold", "left", "right", "leaf", "roots")


@dataclass(frozen=True)
class FeatProvenance:
    """Which featurization produced the rows a classifier was trained on."""

    kind: str                  # sparse | neural | pca | fa
    digest: str | None = None  # schema or reducer/encoder hash


def _check_finite(X: np.ndarray) -> None:
    """Refuse a NaN or infinite feature, naming the first row that holds one."""
    if not np.isfinite(X).all():
        row = int(np.flatnonzero(~np.isfinite(X).all(axis=1))[0])
        raise ValueError(f"feature row {row} holds a NaN or infinite value")


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
        _check_finite(self.X)

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
        classes = tuple(dict.fromkeys(labels))
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

        # classes and dim may come straight from a bundle header's JSON
        if (not isinstance(self.classes, (tuple, list))
                or any(type(c) is not str for c in self.classes)):
            raise TypeError(f"malformed {what}: classes {self.classes!r} are not a list of strings")
        if type(self.dim) is not int:
            raise TypeError(f"malformed {what}: dim {self.dim!r} is not an int")
        self.classes = tuple(self.classes)

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
            if dtype is np.floating and not np.isfinite(value).all():
                raise bad(f"{name} holds a non-finite value")
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


def _check_training(sets: list[LabeledSet]) -> None:
    for s in sets:
        if len(s.X) == 0:
            raise ValueError("empty training set")
        if len(np.unique(s.y)) < 2:
            raise ValueError("training requires at least 2 distinct classes")


def _one_set(fit, name: str):
    """fit's one-set case, name(s, ...) = fit([s], ...)[0], showing fit's
    settings and defaults in its signature."""
    def train(s, *args, **kwargs):
        return fit([s], *args, **kwargs)[0]

    sig = inspect.signature(fit)
    sets, *settings = sig.parameters.values()
    train.__signature__ = sig.replace(
        parameters=[sets.replace(name="s", annotation="LabeledSet"), *settings],
        return_annotation="Classifier")
    train.__name__ = train.__qualname__ = name
    train.__doc__ = fit.__doc__
    return train


def _fit_linear(kind: str, sets: list[LabeledSet], cfg: nn.SgdConfig, grads) -> list[Classifier]:
    """Train a zero-initialized affine layer per set with nn.train, one run
    per set, the runs stepped together; the sets share one width d and
    class count C.

    The runs' layers are one (R*C x d) layer whose (R, C, d) view holds run
    r's W at [r]. The sets' rows lie end to end, then one zero row pads each
    step's shorter batches to the longest, of B rows. grads(Z, yb, W, n,
    div, pad, flat) gets the (R, B, C) logits and labels, W, each run's
    batch row count (0 for a done run), those counts as (R, 1, 1) divisors
    (1 for a done run), the mask of padded rows (None when none is padded)
    and the flat index of each row's first logit. It returns each run's
    batch loss, summed over its own rows; the (R, B, C) factor M, -0.0 in
    padded rows, of the weight gradient M^T Xb + reg; reg; and the bias
    gradient, summed over rows. nn.train raises TrainingDivergedError on a
    non-finite loss.

    Each run's logits are its own unpadded product. Its padded rows add
    -0.0 * +0.0 to M^T Xb and -0.0 to the bias sums, and adding -0.0 is
    exact, so every run gets the bits a fit of its set alone gets.
    """
    R, d, C = len(sets), sets[0].dim, len(sets[0].classes)
    if R > 1 and d == 1:
        # a (C x B) @ (B x 1) product is a matrix-vector one, whose sums the
        # padding would regroup
        return [_fit_linear(kind, [s], cfg, grads)[0] for s in sets]
    X = np.concatenate([s.X for s in sets] + [np.zeros((1, d))])
    y = np.concatenate([s.y for s in sets] + [np.zeros(1, dtype=np.intp)])
    start = np.cumsum([0] + [len(s.y) for s in sets]).tolist()
    layer = nn.DenseLayer(np.zeros((R * C, d)), np.zeros(R * C))
    W, b = layer.W.reshape(R, C, d), layer.b.reshape(R, C)
    Wt, bb = W.transpose(0, 2, 1), b[:, None]
    layouts = {}  # per tuple of batch row counts: (div, pad, flat) as grads takes them

    def step(batches):
        n = tuple([0 if idx is None else len(idx) for idx in batches])
        if n not in layouts:
            B = max(n)
            pad = np.arange(B) >= np.array(n)[:, None]
            layouts[n] = (np.maximum(n, 1).reshape(R, 1, 1), pad if pad.any() else None,
                          np.arange(0, R * B * C, C).reshape(R, B))
        div, pad, flat = layouts[n]
        if R == 1:
            rows = batches[0][None]
        else:
            rows = np.full(flat.shape, -1)  # -1 is the zero row
            for r, idx in enumerate(batches):
                if n[r]:
                    np.add(idx, start[r], out=rows[r, :n[r]])
        Xb = X[rows]
        if pad is None:  # every product is (B x d) @ (d x C) as alone
            Z = np.matmul(Xb, Wt)
        else:
            Z = np.zeros(flat.shape + (C,))
            for r, m in enumerate(n):
                if m:
                    np.dot(Xb[r, :m], W[r].T, out=Z[r, :m])
        Z += bb
        losses, M, reg, db = grads(Z, y[rows], W, n, div, pad, flat)
        dW = np.matmul(M.transpose(0, 2, 1), Xb)
        dW += reg
        if 0 in n:  # a done run's parameters keep their bits
            done = np.equal(n, 0)
            dW[done] = 0.0
            db[done] = 0.0
        return losses, [[(dW.reshape(R * C, d), db.reshape(R * C))]]

    nn.train([nn.Network([layer])], cfg, [len(s.y) for s in sets], step)
    return [Classifier(kind, s.classes, d, {"W": W[r].copy(), "b": b[r].copy()}, s.provenance)
            for r, s in enumerate(sets)]


def _logreg(sets: list[LabeledSet], l2: float = 1e-4, lr: float = 0.1, epochs: int = 200,
            batch_size: int = 64, seed: int = 0) -> list[Classifier]:
    """Multinomial softmax regression on each set, mini-batch gradient
    descent on cross-entropy plus 0.5*l2*||W||^2 (bias unregularized). Zero
    init, so an untrained model predicts the uniform distribution. The sets
    fit together (_fit_linear)."""
    _check_training(sets)

    # the ufuncs' reduce is what ndarray.sum and .max call, without their
    # Python wrappers: a fit of a small set is about 200 steps of small arrays
    def grads(Z, yb, W, n, div, pad, flat):
        Z -= np.maximum.reduce(Z, 2, keepdims=True)
        P = np.exp(Z)
        total = np.add.reduce(P, 2, keepdims=True)
        at = yb + flat  # each row's label logit, flat
        per_row = np.log(total[..., 0]) - Z.take(at)
        losses = [float(np.add.reduce(per_row[r, :m])) / m if m else 0.0 for r, m in enumerate(n)]
        P /= total
        P.reshape(-1)[at] -= 1.0
        G = P / div
        if pad is not None:
            G[pad] = -0.0
        return losses, G, l2 * W, np.add.reduce(G, 1)

    return _fit_linear("logreg", sets, nn.SgdConfig(lr, batch_size, epochs, seed), grads)


train_logreg = _one_set(_logreg, "train_logreg")


def train_knn(s: LabeledSet, k: int = 6) -> Classifier:
    """Memorize the training set; prediction weights the k nearest Euclidean
    neighbors by 1/(distance + 1e-9)."""
    _check_training([s])
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
    every feature when none of those splits them (feature -1 and threshold
    0 when none does). Impurity is the size-weighted Gini of the two sides;
    ties go to the first feature, then the first cut. Nodes are scored in
    batches, largest first, each padded to its largest node and as many as
    fit RF_SPLIT_BYTES (one node at least). Each sorted feature row's class
    counts are exact integer cumsums, one per class.
    """
    sizes = spans[:, 2] - spans[:, 1]
    feature, threshold = np.full(len(spans), -1), np.zeros(len(spans))
    by_size = np.argsort(-sizes, kind="stable")
    m = F.shape[1]
    i = 0
    while i < len(by_size):
        N = int(sizes[by_size[i]])
        batch = by_size[i:i + max(1, RF_SPLIT_BYTES // (N * m * n_classes * 8))]
        i += len(batch)
        B, tree, start, size, Fb = len(batch), *spans[batch, :2].T, sizes[batch], F[batch]
        R = boot[tree[:, None], start[:, None] + np.minimum(np.arange(N), size[:, None] - 1)]
        pad = np.arange(N) >= size[:, None]
        cols = X.take(R[:, None, :] * X.shape[1] + Fb[:, :, None])  # (B, m, N)
        np.copyto(cols, np.nan, where=pad[:, None, :])  # padding sorts last, never a cut
        order = cols.argsort(axis=2, kind="stable")
        xs = cols.take(order + np.arange(0, B * m * N, N).reshape(B, m, 1))
        ys = y[R].take(order + np.arange(0, B * N, N).reshape(B, 1, 1))
        # running class counts over all B*m sorted rows laid end to end, exact
        # integer cumsums one class at a time
        running = np.zeros((B * m * N + 1, n_classes), dtype=np.intp)
        for c in range(n_classes):
            np.cumsum(ys.ravel() == c, out=running[1:, c])
        at = np.flatnonzero(xs[:, :, 1:] > xs[:, :, :-1])  # only cuts between distinct values
        row, cut = np.divmod(at, N - 1)
        n = size.take(row // m)
        base = running.take(row * N, axis=0)
        left = running.take(row * N + cut + 1, axis=0) - base  # class counts left of the cut
        right = running.take(row * N + n, axis=0) - base - left
        nl = cut + 1
        nr = n - nl
        scores = np.full((B, m * (N - 1)), np.inf)
        scores.reshape(-1)[at] = (nl * _gini(left, nl) + nr * _gini(right, nr)) / n
        best = scores.argmin(axis=1)  # the first feature, then the first cut, among ties
        node = np.arange(B)
        j, cut = np.divmod(best, N - 1)
        found = scores[node, best] < np.inf
        feature[batch] = np.where(found, Fb[node, j], -1)
        threshold[batch] = np.where(found, 0.5 * (xs[node, j, cut] + xs[node, j, cut + 1]), 0.0)
    stuck = np.flatnonzero(feature < 0)
    if stuck.size and m < X.shape[1]:
        every = np.tile(np.arange(X.shape[1]), (stuck.size, 1))
        feature[stuck], threshold[stuck] = _best_splits(X, y, boot, spans[stuck], every, n_classes)
    return feature, threshold


def _forests(sets: list[LabeledSet], trees: int = 100, seed: int = 0, bootstrap: bool = True,
             feature_sample: str = "sqrt") -> list[Classifier]:
    """Bagged Gini trees on each set, grown until pure or fewer than 2 rows;
    sqrt(D) candidate features per split, all D when none of those splits
    the rows. bootstrap=False and feature_sample="all" reduce a forest to
    deterministic plain trees for oracle checks.

    Tree t of a set draws its bootstrap, then one feature sample per
    splittable node in preorder, from default_rng([seed, t]). A node is a
    range of its tree's row of boot, partitioned in place by its split; each
    tree's stack pushes the hi child before the lo child, and pops in
    preorder. One bincount over the rows as the split routes them gives both
    children's class counts, so a pure or one-row child is pushed as a
    finished leaf and popped without a split search. The trees grow in
    lockstep: each step takes the next node to split of every tree still
    growing and searches their splits in one batch. The sets, of one width
    and class count, grow in the same lockstep: their rows lie end to end in
    one matrix, and set r's tree t is tree r * trees + t, its bootstrap rows
    offset to its set's. Leaves have feature -1, internal nodes leaf -1, and
    an internal node's lo child follows it.
    """
    _check_training(sets)
    if feature_sample not in ("sqrt", "all") or trees < 1:
        raise ValueError("feature_sample must be 'sqrt' or 'all', and trees at least 1")
    X, y = np.concatenate([s.X for s in sets]), np.concatenate([s.y for s in sets])
    d, C = sets[0].dim, len(sets[0].classes)
    m = d if feature_sample == "all" else max(1, int(np.sqrt(d)))
    sizes = [len(s.y) for s in sets]
    n = np.repeat(sizes, trees)  # each tree's row count
    first = np.repeat(np.cumsum([0] + sizes[:-1]), trees)  # and its set's first row in X
    rngs = [np.random.default_rng([seed, t]) for _ in sets for t in range(trees)]
    T = len(rngs)
    boot = np.zeros((T, max(sizes)), dtype=np.intp)  # a tree's row past its count is never read
    for g, (rng, k) in enumerate(zip(rngs, n.tolist())):
        boot[g, :k] = first[g] + (rng.integers(0, k, k) if bootstrap else np.arange(k))
    in_tree = np.arange(boot.shape[1]) < n[:, None]
    counts = np.bincount((np.arange(T)[:, None] * C + y[boot])[in_tree], minlength=T * C)
    counts = counts.reshape(T, C)
    pure = np.where(counts.max(axis=1) == n, counts.argmax(axis=1), -1).tolist()
    # per tree, preorder [feature, threshold, right, leaf]; a pure bootstrap is one leaf
    nodes = [[[-1, 0.0, -1, lf]] if lf >= 0 else [] for lf in pure]
    # (start, stop, the id whose right child this is or -1, leaf class or -1 to split)
    stacks = [[] if grown else [(0, k, -1, -1)] for grown, k in zip(nodes, n.tolist())]
    growing = [t for t in range(T) if stacks[t]]
    while growing:
        tree = np.array(growing)
        start, stop, parent = np.array([stacks[t].pop()[:3] for t in growing]).T
        size = stop - start
        node = np.repeat(np.arange(len(tree)), size)
        at = np.repeat(start - np.cumsum(size) + size, size) + np.arange(len(node))
        rows = boot[tree[node], at]
        F = np.sort([rngs[t].choice(d, m, replace=False) for t in growing], axis=1)
        spans = np.column_stack([tree, start, stop])
        feature, threshold = _best_splits(X, y, boot, spans, F, C)
        # partition every range stably, lo rows first; an unsplit range is never read again
        side = 2 * node + (X[rows, feature[node]] > threshold[node])
        boot[tree[node], at] = rows[np.argsort(side, kind="stable")]
        counts = np.bincount(side * C + y[rows], minlength=2 * len(tree) * C)
        counts = counts.reshape(len(tree), 2, C)
        sides = counts.sum(axis=2)
        # a node no feature splits is a leaf of its majority class
        leaf = np.where(feature < 0, counts.sum(axis=1).argmax(axis=1), -1)
        child_leaf = np.where(counts.max(axis=2) == sides, counts.argmax(axis=2), -1)
        for t, a, mid, b, p, f, th, lf, (lo, hi) in zip(growing, *(v.tolist() for v in (
            start, start + sides[:, 0], stop, parent, feature, threshold, leaf, child_leaf
        ))):
            grown, stack = nodes[t], stacks[t]
            if p >= 0:
                grown[p][2] = len(grown)
            if f >= 0:
                stack += [(mid, b, len(grown), hi), (a, mid, -1, lo)]
            grown.append([f, th, -1, lf])
            while stack and stack[-1][3] >= 0:  # finished leaves take their preorder ids
                p, lf = stack.pop()[2:]
                if p >= 0:
                    grown[p][2] = len(grown)
                grown.append([-1, 0.0, -1, lf])
        growing = [t for t in growing if stacks[t]]
    forests = []
    for r, s in enumerate(sets):
        grown = nodes[r * trees:(r + 1) * trees]
        tree_sizes = [len(g) for g in grown]
        roots = np.cumsum([0] + tree_sizes[:-1])
        feature, threshold, right, leaf = map(np.array, zip(*(row for g in grown for row in g)))
        inner = feature >= 0
        left = np.where(inner, np.arange(len(feature)) + 1, -1)
        # tree-local ids become forest-wide
        right = np.where(inner, right + np.repeat(roots, tree_sizes), -1)
        params = dict(zip(FOREST_ARRAYS, (feature, threshold, left, right, leaf, roots)))
        forests.append(Classifier("rf", s.classes, d, params, s.provenance))
    return forests


train_rf = _one_set(_forests, "train_rf")


def _linsvm(sets: list[LabeledSet], c: float = 1.0, lr: float = 0.01, epochs: int = 200,
            batch_size: int = 64, seed: int = 0) -> list[Classifier]:
    """One-vs-rest linear SVM on each set by seeded mini-batch subgradient
    descent on 0.5*||w||^2 + c * mean hinge. c = 0 keeps all weights at
    zero, so every prediction degenerates to the smallest class id. The
    sets fit together (_fit_linear)."""
    _check_training(sets)
    if c < 0:
        raise ValueError("c must be nonnegative")
    signs = np.where(np.eye(len(sets[0].classes), dtype=bool), 1.0, -1.0)  # row y: +1 at y

    def grads(Z, yb, W, n, div, pad, flat):
        Sb = signs[yb]
        margins = Sb * Z
        viol = (margins < 1.0).astype(np.float64)
        slack = 1.0 - margins
        losses = [0.5 * float(np.vdot(W[r], W[r])) + c * float(np.vdot(slack[r, :m], viol[r, :m])) / m
                  if m else 0.0 for r, m in enumerate(n)]
        coeff = -(Sb * viol) / div
        if pad is not None:
            coeff[pad] = -0.0
        return losses, c * coeff, W, c * np.add.reduce(coeff, 1)

    return _fit_linear("linsvm", sets, nn.SgdConfig(lr, batch_size, epochs, seed), grads)


train_linsvm = _one_set(_linsvm, "train_linsvm")


def train_dummy(s: LabeledSet) -> Classifier:
    """Predict the training-majority class always (ties: smallest id)."""
    if len(s.X) == 0:
        raise ValueError("empty training set")
    majority = int(np.argmax(np.bincount(s.y, minlength=len(s.classes))))
    return Classifier("dummy", s.classes, s.dim, {"majority": majority}, s.provenance)


def train_sets(model: str, sets: list[LabeledSet], seed: int = 0) -> list[Classifier]:
    """Train one model from MODELS with its default settings on each set;
    every classifier has the bytes training its set alone gives.

    logreg, svm and rf fit through _logreg, _linsvm and _forests, never the
    one-set train_logreg, train_linsvm or train_rf. Sets of one width and
    class count fit together, in one lockstep of their SGD runs or trees,
    which checks every set before it fits any; of several runs that
    diverge, the first set's TrainingDivergedError is raised. Sets of mixed
    shapes fit one at a time. knn and dummy go through train_knn and
    train_dummy, looked up as module globals at call time, so a wrapper set
    on them sees every fit.
    """
    if model == "knn":
        return [train_knn(s) for s in sets]
    if model == "dummy":
        return [train_dummy(s) for s in sets]
    fit = {"logreg": _logreg, "rf": _forests, "svm": _linsvm}.get(model)
    if fit is None:
        raise ValueError(f"unknown model {model!r}; want one of {MODELS}")
    if len({(s.dim, len(s.classes)) for s in sets}) != 1:
        return [fit([s], seed=seed)[0] for s in sets]
    return fit(sets, seed=seed)


def _check_rows(clf: Classifier, x: np.ndarray) -> np.ndarray:
    rows = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if rows.shape[1] != clf.dim:
        raise ValueError(
            f"feature dim {rows.shape[1]} does not match the classifier's {clf.dim}"
        )
    _check_finite(rows)
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
