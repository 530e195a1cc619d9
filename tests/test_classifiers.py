import inspect

import numpy as np
import pytest

from opembed import classifiers
from opembed.errors import TrainingDivergedError
from opembed.classifiers import (
    FOREST_ARRAYS,
    FeatProvenance,
    LabeledSet,
    make_labeled_set,
    measure_inference,
    predict,
    predict_scores,
    train_dummy,
    train_knn,
    train_linsvm,
    train_logreg,
    train_rf,
)


@pytest.fixture
def separable():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(40, 2)) * 0.4 + np.array([-2.0, 0.0])
    b = rng.normal(size=(40, 2)) * 0.4 + np.array([2.0, 0.0])
    X = np.vstack([a, b])
    y = ["lo"] * 40 + ["hi"] * 40
    return make_labeled_set(X, y)


def accuracy(clf, s):
    got = predict(clf, s.X)
    return np.mean([g == s.classes[t] for g, t in zip(got, s.y)])


def test_make_labeled_set_class_order_and_errors():
    X = np.zeros((3, 2))
    s = make_labeled_set(X, ["b", "a", "b"])
    assert s.classes == ("b", "a")
    assert s.y.tolist() == [0, 1, 0]
    with pytest.raises(ValueError, match="not in classes"):
        make_labeled_set(X, ["b", "a", "c"], classes=("a", "b"))
    with pytest.raises(ValueError, match="aligned"):
        LabeledSet(X, np.array([0, 1]), ("a", "b"))
    with pytest.raises(ValueError, match="range"):
        LabeledSet(X, np.array([0, 1, 2]), ("a", "b"))


def test_training_requires_two_classes():
    s = make_labeled_set(np.zeros((4, 2)), ["a"] * 4)
    for trainer in (train_logreg, train_knn, train_rf, train_linsvm):
        with pytest.raises(ValueError, match="classes"):
            trainer(s)


def test_logreg_separates_toy_set(separable):
    clf = train_logreg(separable, seed=0)
    assert accuracy(clf, separable) == 1.0


def test_logreg_zero_epochs_is_uniform(separable):
    clf = train_logreg(separable, epochs=0)
    # equal logits: the softmax is uniform
    scores = predict_scores(clf, np.array([3.0, -1.0]))
    assert np.all(scores == 0.0)
    assert predict(clf, np.array([3.0, -1.0])) == separable.classes[0]


def test_logreg_beats_prior_on_planted_signal():
    rng = np.random.default_rng(4)
    n = 300
    y = (rng.random(n) < 0.25).astype(int)
    X = rng.normal(size=(n, 8))
    X[:, 3] += 1.5 * y
    s = make_labeled_set(X, ["neg" if t == 0 else "pos" for t in y])
    clf = train_logreg(s, seed=1)
    prior = max(np.mean(y == 0), np.mean(y == 1))
    assert accuracy(clf, s) > prior


def test_knn_zero_distance_dominates():
    X = np.array([[0.0, 0.0], [1.0, 1.0], [1.1, 1.0], [1.0, 1.1]])
    s = make_labeled_set(X, ["a", "b", "b", "b"])
    clf = train_knn(s, k=4)
    assert predict(clf, np.array([0.0, 0.0])) == "a"


def test_knn_k1_matches_exhaustive_scan(rng):
    X = rng.normal(size=(80, 5))
    y = rng.integers(0, 3, 80)
    s = make_labeled_set(X, [f"c{t}" for t in y], classes=("c0", "c1", "c2"))
    clf = train_knn(s, k=1)
    queries = rng.normal(size=(40, 5))
    got = predict(clf, queries)
    for q, g in zip(queries, got):
        d = np.sqrt(((X - q) ** 2).sum(axis=1))
        assert g == f"c{y[np.argmin(d)]}"


def test_knn_default_k_is_six():
    assert inspect.signature(train_knn).parameters["k"].default == 6
    s = make_labeled_set(np.zeros((3, 1)), ["a", "b", "a"])
    assert train_knn(s).params["k"] == 6


def test_knn_inverse_distance_weighting():
    # one near "a" outweighs two farther "b"s inside the same neighborhood
    X = np.array([[1.0], [3.0], [3.5]])
    s = make_labeled_set(X, ["a", "b", "b"])
    clf = train_knn(s, k=3)
    scores = predict_scores(clf, np.array([[0.0]]))[0]
    assert np.isclose(scores[0], 1.0 / (1.0 + 1e-9))
    assert np.isclose(scores[1], 1.0 / (3.0 + 1e-9) + 1.0 / (3.5 + 1e-9))
    assert predict(clf, np.array([0.0])) == "a"


def test_knn_chunked_scores_equal_single_chunk(rng, monkeypatch):
    X = rng.normal(size=(120, 7))
    s = make_labeled_set(X, [("a", "b", "c")[i] for i in rng.integers(0, 3, 120)])
    clf = train_knn(s)
    queries = np.vstack([rng.normal(size=(45, 7)), X[:5]])
    whole = predict_scores(clf, queries)
    monkeypatch.setattr(classifiers, "KNN_CHUNK_BYTES", 1)  # one test row per chunk
    assert np.array_equal(predict_scores(clf, queries), whole)


def test_rf_learns_threshold_concept():
    rng = np.random.default_rng(2)
    X = rng.uniform(-1, 1, size=(200, 3))
    labels = ["hi" if v > 0.3 else "lo" for v in X[:, 0]]
    train = make_labeled_set(X[:140], labels[:140], classes=("lo", "hi"))
    clf = train_rf(train, trees=30, seed=0)
    held = make_labeled_set(X[140:], labels[140:], classes=("lo", "hi"))
    assert accuracy(clf, held) >= 0.95


def test_rf_single_tree_matches_hand_trace():
    # 8 rows designed so the Gini-best first split is x1 <= 0.5 (right side
    # pure), then the left child splits on x0 <= 2.5 into pure leaves
    X = np.array(
        [
            [0.0, 0.0],
            [1.0, 0.0],
            [2.0, 0.0],
            [3.0, 0.0],
            [0.0, 1.0],
            [1.0, 1.0],
            [2.0, 1.0],
            [3.0, 1.0],
        ]
    )
    s = make_labeled_set(X, ["z", "z", "z", "o", "o", "o", "o", "o"])
    clf = train_rf(s, trees=1, bootstrap=False, feature_sample="all")
    forest = clf.params
    # preorder: root, its lo child, that child's two leaves, the root's hi leaf
    assert forest["feature"].tolist() == [1, 0, -1, -1, -1]
    assert forest["threshold"][:2].tolist() == [0.5, 2.5]
    assert forest["left"][:2].tolist() == [1, 2]
    assert forest["right"][:2].tolist() == [4, 3]
    assert forest["leaf"][2:].tolist() == [0, 1, 1]
    assert forest["roots"].tolist() == [0]
    assert predict(clf, np.array([2.9, 0.0])) == "o"
    assert predict(clf, np.array([0.5, 0.2])) == "z"
    assert accuracy(clf, s) == 1.0


def _reference_split(X, y, feature_ids, n_classes):
    # the per-feature loop the vectorized split search must reproduce
    n = len(y)
    best = None
    onehot = np.eye(n_classes)[y]
    for f in feature_ids:
        order = np.argsort(X[:, f], kind="stable")
        xs = X[order, f]
        distinct = np.nonzero(np.diff(xs) > 0)[0]
        if len(distinct) == 0:
            continue
        cum = np.cumsum(onehot[order], axis=0)
        left = cum[distinct]
        right = cum[-1] - left
        nl = distinct + 1.0
        nr = n - nl
        gini_l = 1.0 - np.square(left / nl[:, None]).sum(axis=1)
        gini_r = 1.0 - np.square(right / nr[:, None]).sum(axis=1)
        weighted = (nl * gini_l + nr * gini_r) / n
        j = int(np.argmin(weighted))
        if best is None or weighted[j] < best[2]:
            cut = distinct[j]
            best = (int(f), float(0.5 * (xs[cut] + xs[cut + 1])), float(weighted[j]))
    return best


def _reference_tree(X, y, rng, n_classes, feature_sample, nodes, searched, fallbacks):
    # recursive grower appending one node per call, so ids come out in preorder;
    # searched collects the ids of nodes that drew a feature sample, fallbacks
    # those split only after trying all features
    node = len(nodes["feature"])
    for name, value in (("feature", -1), ("threshold", 0.0), ("left", -1), ("right", -1)):
        nodes[name].append(value)
    counts = np.bincount(y, minlength=n_classes)
    best = None
    if len(y) >= 2 and counts.max() < len(y):
        searched.append(node)
        d = X.shape[1]
        if feature_sample == "all":
            feats = np.arange(d)
        else:
            feats = np.sort(rng.choice(d, size=max(1, int(np.sqrt(d))), replace=False))
        best = _reference_split(X, y, feats, n_classes)
        if best is None and feature_sample != "all":
            best = _reference_split(X, y, np.arange(d), n_classes)
            if best is not None:
                fallbacks.append(node)
    if best is None:
        nodes["leaf"].append(int(np.argmax(counts)))
        return
    nodes["leaf"].append(-1)
    f, t, _ = best
    nodes["feature"][node], nodes["threshold"][node] = f, t
    mask = X[:, f] <= t
    nodes["left"][node] = len(nodes["feature"])
    _reference_tree(X[mask], y[mask], rng, n_classes, feature_sample, nodes, searched, fallbacks)
    nodes["right"][node] = len(nodes["feature"])
    _reference_tree(X[~mask], y[~mask], rng, n_classes, feature_sample, nodes, searched, fallbacks)


def _reference_forest(s, trees, seed, bootstrap):
    nodes = {name: [] for name in ("feature", "threshold", "left", "right", "leaf")}
    roots, searched, fallbacks = [], [], []
    for t in range(trees):
        rng = np.random.default_rng([seed, t])
        idx = rng.integers(0, len(s.X), len(s.X)) if bootstrap else np.arange(len(s.X))
        roots.append(len(nodes["feature"]))
        _reference_tree(s.X[idx], s.y[idx], rng, len(s.classes), "sqrt", nodes, searched, fallbacks)
    return nodes, roots, searched, fallbacks


def _sparse_set(seed, n_classes, dim, constant=0, label_p=None, rows=60):
    # half of each column zero; the last `constant` columns are all zero, and
    # label_p skews the class frequencies
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(rows, dim))
    X[rng.random(X.shape) < 0.5] = 0.0  # sparse columns with runs of ties
    X[:, dim - constant:] = 0.0
    y = rng.integers(0, n_classes, rows) if label_p is None else rng.choice(n_classes, rows, p=label_p)
    return LabeledSet(X, y, tuple(f"c{i}" for i in range(n_classes)))


@pytest.mark.parametrize(
    "seed, n_classes, dim, bootstrap, trees, constant, label_p, rows, shows",
    [
        pytest.param(11, 2, 6, True, 6, 0, None, 60, None, id="11-2-6-True"),
        pytest.param(12, 3, 9, False, 6, 0, None, 60, None, id="12-3-9-False"),
        pytest.param(13, 3, 16, True, 6, 0, None, 60, None, id="13-3-16-True"),
        # 22 of 25 columns constant: most 5-feature samples cannot split
        pytest.param(14, 3, 25, True, 6, 22, None, 60, "fallback", id="sqrt-fallback"),
        # mostly one class: trees stop growing at very different steps
        pytest.param(15, 3, 9, True, 40, 0, (0.85, 0.1, 0.05), 60, "uneven", id="40-trees-skewed"),
        # 8 rows, one of them the minority: some bootstraps hold one class
        pytest.param(19, 2, 4, True, 30, 0, (0.85, 0.15), 8, "leaf-root", id="pure-bootstrap-root"),
        pytest.param(18, 3, 3, True, 12, 0, None, 60, None, id="one-feature-sample"),
        pytest.param(19, 5, 16, True, 12, 0, None, 60, None, id="5-classes"),
        # the shape of a grid-card fold's sparse rows, most columns constant
        *(pytest.param(seed, 3, 83, True, 100, 60, None, 50, "fallback", id=f"grid-card-{seed}")
          for seed in (21, 22, 23)),
    ],
)
def test_rf_matches_recursive_reference_node_for_node(
    seed, n_classes, dim, bootstrap, trees, constant, label_p, rows, shows
):
    s = _sparse_set(seed, n_classes, dim, constant, label_p, rows)
    clf = train_rf(s, trees=trees, seed=seed, bootstrap=bootstrap)
    nodes, roots, _, fallbacks = _reference_forest(s, trees, seed, bootstrap)
    assert clf.params["roots"].tolist() == roots
    for name, want in nodes.items():
        assert clf.params[name].tolist() == want, name
    assert any(f >= 0 for f in nodes["feature"])
    # what the case is there to exercise
    sizes = np.diff(roots + [len(nodes["feature"])])
    if shows == "fallback":
        assert len(fallbacks) >= 3
    if shows == "uneven":
        assert sizes.max() >= 3 * sizes.min()
    if shows == "leaf-root":
        assert sizes.min() == 1


@pytest.mark.parametrize("budget", [pytest.param(1, id="one-byte"), pytest.param(1 << 40, id="1-TiB")])
def test_rf_split_budget_never_changes_the_forest(monkeypatch, budget):
    s = _sparse_set(16, 3, 16, constant=10, label_p=(0.6, 0.3, 0.1))
    whole = train_rf(s, trees=12, seed=16).params
    # one node per split batch, or every node of a step in one
    monkeypatch.setattr(classifiers, "RF_SPLIT_BYTES", budget)
    chunked = train_rf(s, trees=12, seed=16).params
    for name in FOREST_ARRAYS:
        assert np.array_equal(chunked[name], whole[name]), name


def _alternating_set():
    # alternating labels on one feature: every split peels off a single row,
    # so a plain tree is 1,199 levels deep
    X = np.arange(1200.0)[:, None]
    return make_labeled_set(X, ["even" if i % 2 == 0 else "odd" for i in range(1200)])


def test_rf_grows_a_deep_tree_without_recursion():
    s = _alternating_set()
    clf = train_rf(s, trees=1, bootstrap=False, feature_sample="all")
    assert len(clf.params["feature"]) == 2 * 1200 - 1
    assert predict(clf, s.X) == [s.classes[i] for i in s.y]


def _count_steps(monkeypatch):
    """Record each lockstep step's node count by wrapping the split search;
    its all-features retry runs inside a step and is not one."""
    search, steps, inside = classifiers._best_splits, [], []

    def counted(*args):
        if not inside:
            steps.append(len(args[3]))
        inside.append(True)
        try:
            return search(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(classifiers, "_best_splits", counted)
    return steps


def test_rf_steps_only_at_splittable_nodes(monkeypatch):
    steps = _count_steps(monkeypatch)
    clf = train_rf(_alternating_set(), trees=1, bootstrap=False, feature_sample="all")
    # one step per internal node; each of the 1,200 leaves is settled by its parent
    assert len(steps) == int((clf.params["feature"] >= 0).sum()) == 1199


def test_rf_lockstep_takes_as_many_steps_as_the_most_splittable_tree(monkeypatch):
    s = _sparse_set(24, 3, 36, constant=20)
    steps = _count_steps(monkeypatch)
    clf = train_rf(s, trees=20, seed=24)
    nodes, roots, searched, fallbacks = _reference_forest(s, 20, 24, True)
    assert clf.params["feature"].tolist() == nodes["feature"]
    per_tree = np.bincount(np.searchsorted(roots, searched, side="right") - 1, minlength=20)
    assert fallbacks and len(steps) == per_tree.max()
    assert sum(steps) == len(searched)  # every splittable node searched once, no leaf
    assert len(steps) < np.diff(roots + [len(nodes["feature"])]).max()


def test_one_set_trainers_show_their_multi_set_settings():
    for one, fit in ((train_logreg, classifiers._logreg), (train_linsvm, classifiers._linsvm),
                     (train_rf, classifiers._forests)):
        s, *settings = inspect.signature(one).parameters.values()
        assert s.name == "s" and settings == list(inspect.signature(fit).parameters.values())[1:]
    assert inspect.signature(train_rf).parameters["trees"].default == 100


def test_rf_needs_at_least_one_tree(separable):
    with pytest.raises(ValueError, match="trees at least 1"):
        train_rf(separable, trees=0)


def test_linsvm_separates_toy_set(separable):
    clf = train_linsvm(separable, seed=0)
    assert accuracy(clf, separable) == 1.0


def test_linsvm_zero_c_degenerates_to_first_class(separable):
    clf = train_linsvm(separable, c=0.0)
    assert np.array_equal(clf.params["W"], np.zeros_like(clf.params["W"]))
    got = predict(clf, separable.X)
    assert all(g == separable.classes[0] for g in got)
    with pytest.raises(ValueError):
        train_linsvm(separable, c=-1.0)


def test_linsvm_mirror_symmetry(separable, rng):
    clf = train_linsvm(separable, seed=3)
    mirrored = LabeledSet(-separable.X, separable.y, separable.classes)
    clf_m = train_linsvm(mirrored, seed=3)
    probe = rng.normal(size=(20, 2))
    assert predict(clf, probe) == predict(clf_m, -probe)


def _reference_logreg(s, l2, lr, epochs, batch_size, seed):
    """Softmax regression as its own inline mini-batch loop: an oracle for
    train_logreg, which trains through nn.train."""
    n, d = s.X.shape
    c = len(s.classes)
    W, b = np.zeros((c, d)), np.zeros(c)
    onehot = np.eye(c)[s.y]
    rng = np.random.default_rng(seed)
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            Xb = s.X[idx]
            Z = Xb @ W.T + b
            Z = Z - Z.max(axis=1, keepdims=True)
            e = np.exp(Z)
            G = (e / e.sum(axis=1, keepdims=True) - onehot[idx]) / len(idx)
            W -= lr * (G.T @ Xb + l2 * W)
            b -= lr * G.sum(axis=0)
    return W, b


def _reference_linsvm(s, c, lr, epochs, batch_size, seed):
    """One-vs-rest hinge subgradient descent as its own inline loop: an
    oracle for train_linsvm."""
    n, d = s.X.shape
    k = len(s.classes)
    W, b = np.zeros((k, d)), np.zeros(k)
    signs = np.where(np.eye(k)[s.y].astype(bool), 1.0, -1.0)
    rng = np.random.default_rng(seed)
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            Xb, Sb = s.X[idx], signs[idx]
            viol = (Sb * (Xb @ W.T + b) < 1.0).astype(np.float64)
            coeff = -(Sb * viol) / len(idx)
            W -= lr * (W + c * coeff.T @ Xb)
            b -= lr * (c * coeff.sum(axis=0))
    return W, b


@pytest.mark.parametrize("n_classes", [2, 3])
@pytest.mark.parametrize("batch_size", [8, 7])  # 8 divides the 40 rows, 7 does not
def test_linear_trainers_match_inline_reference_bitwise(n_classes, batch_size):
    rng = np.random.default_rng(n_classes * 10 + batch_size)
    X = rng.normal(size=(40, 5))
    y = np.arange(40) % n_classes
    X[:, 0] += y
    s = LabeledSet(X, y, tuple("abc"[:n_classes]))
    clf = train_logreg(s, l2=1e-3, lr=0.2, epochs=30, batch_size=batch_size, seed=4)
    W, b = _reference_logreg(s, 1e-3, 0.2, 30, batch_size, 4)
    assert np.array_equal(clf.params["W"], W) and np.array_equal(clf.params["b"], b)
    clf = train_linsvm(s, c=2.0, lr=0.05, epochs=30, batch_size=batch_size, seed=4)
    W, b = _reference_linsvm(s, 2.0, 0.05, 30, batch_size, 4)
    assert np.array_equal(clf.params["W"], W) and np.array_equal(clf.params["b"], b)
    assert np.any(W != 0.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_linear_trainers_raise_on_divergence():
    s = make_labeled_set(np.array([[0.0, 1.0], [1.0, 0.0], [2.0, 1.0], [3.0, 0.0]]),
                         ["a", "b", "a", "b"])
    for trainer in (train_logreg, train_linsvm):
        with pytest.raises(TrainingDivergedError):
            trainer(s, lr=1e300)


def _linear_sets(n_classes, sizes=(63, 64, 65, 129), dims=None):
    # one provenance per set, so each classifier must carry its own set's
    rng = np.random.default_rng(n_classes)
    sets = []
    for i, (n, d) in enumerate(zip(sizes, dims or [5] * len(sizes))):
        y = np.arange(n) % n_classes
        X = rng.normal(size=(n, d))
        X[:, 0] += y
        sets.append(LabeledSet(X, y, tuple("abc"[:n_classes]), FeatProvenance("pca", f"fold{i}")))
    return sets


def _assert_same_bytes(got, want):
    assert (got.kind, got.classes, got.dim, got.provenance) == (
        want.kind, want.classes, want.dim, want.provenance)
    for name in classifiers.PARAMS[got.kind]:
        a, b = np.asarray(got.params[name]), np.asarray(want.params[name])
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name


@pytest.mark.parametrize("n_classes", [2, 3])
@pytest.mark.parametrize("model, settings", [
    # 64-row batches: the sets of 63, 64, 65 and 129 rows take 1, 1, 2 and 3
    # batches an epoch, the last ones padded to 64 rows
    ("logreg", {}),
    ("svm", {}),
    ("svm", {"c": 0.0}),
    # 16-row batches: 4, 4, 5 and 9 batches an epoch
    ("logreg", {"batch_size": 16, "epochs": 20}),
])
def test_linear_sets_fit_together_as_each_set_alone(model, settings, n_classes):
    # train_sets fits with the default settings; its trainers take others
    alone, fit = {"logreg": (train_logreg, classifiers._logreg),
                  "svm": (train_linsvm, classifiers._linsvm)}[model]
    sets = _linear_sets(n_classes)
    together = (fit(sets, seed=3, **settings) if settings
                else classifiers.train_sets(model, sets, seed=3))
    for got, s in zip(together, sets):
        _assert_same_bytes(got, alone(s, seed=3, **settings))
    if settings.get("c") == 0.0:
        assert not together[0].params["W"].any()


@pytest.mark.parametrize("sets, settings", [
    # 8 to 12 rows, one or two of them the minority: some bootstraps hold one class
    pytest.param([_sparse_set(19, 2, 4, label_p=(0.85, 0.15), rows=r) for r in (8, 9, 12)],
                 {"trees": 30}, id="pure-bootstrap"),
    # 22 of 25 columns constant: most samples cannot split, so nodes retry every feature
    pytest.param([_sparse_set(14 + i, 3, 25, constant=22, rows=r) for i, r in enumerate((60, 45, 70))],
                 {"trees": 12}, id="constant-features"),
    pytest.param([_sparse_set(12 + i, 3, 9, rows=r) for i, r in enumerate((60, 30, 41))],
                 {"trees": 3, "bootstrap": False, "feature_sample": "all"}, id="plain-trees"),
])
def test_forests_grow_together_as_each_set_alone(sets, settings):
    together = classifiers._forests(sets, seed=7, **settings)
    for got, s in zip(together, sets):
        _assert_same_bytes(got, train_rf(s, seed=7, **settings))
        sizes = np.diff(np.append(got.params["roots"], len(got.params["leaf"])))
        # every set of the pure-bootstrap case has trees that are one leaf
        assert settings["trees"] != 30 or sizes.min() == 1


@pytest.mark.parametrize("dims", [pytest.param(None, id="one-shape"),
                                  pytest.param([4, 6, 4], id="mixed-widths")])
@pytest.mark.parametrize("model", classifiers.MODELS)
def test_train_sets_gives_each_set_what_train_gives_it(model, dims):
    alone = {"logreg": train_logreg, "knn": train_knn, "rf": train_rf, "svm": train_linsvm,
             "dummy": train_dummy}[model]
    seeded = {"seed": 5} if "seed" in inspect.signature(alone).parameters else {}
    sets = _linear_sets(3, sizes=(40, 47, 52), dims=dims)
    for got, s in zip(classifiers.train_sets(model, sets, seed=5), sets):
        _assert_same_bytes(got, alone(s, **seeded))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_linear_sets_raise_the_first_diverging_sets_error():
    # with lr 10 the weights grow tenfold a step until the loss overflows:
    # the sooner, the larger the features
    def labeled(rows, scale, seed):
        rng = np.random.default_rng(seed)
        y = np.arange(rows) % 2
        return LabeledSet((rng.normal(size=(rows, 3)) + y[:, None]) * scale, y, ("a", "b"))

    sets = [labeled(40, 1.0, 0), labeled(50, 1.0, 1), labeled(70, 1e100, 2),
            labeled(45, 1.0, 3), labeled(30, 1e140, 4)]
    settings = {"lr": 10.0, "epochs": 100}
    for s in sets[:2]:
        train_linsvm(s, **settings)
    with pytest.raises(TrainingDivergedError) as third:
        train_linsvm(sets[2], **settings)
    with pytest.raises(TrainingDivergedError) as fifth:
        train_linsvm(sets[4], **settings)
    # the fifth set diverges first in the lockstep; the third set's error must win
    assert (fifth.value.epoch, fifth.value.batch) < (third.value.epoch, third.value.batch)
    with pytest.raises(TrainingDivergedError) as together:
        classifiers._linsvm(sets, **settings)
    assert (together.value.epoch, together.value.batch) == (third.value.epoch, third.value.batch)
    assert third.value.batch == 1  # 70 rows: its error is in the second batch of an epoch


def test_dummy_predicts_majority_with_smallest_id_ties():
    s = make_labeled_set(np.zeros((4, 2)), ["b", "a", "b", "a"], classes=("a", "b"))
    clf = train_dummy(s)
    assert predict(clf, np.ones(2)) == "a"
    skew = make_labeled_set(np.zeros((3, 2)), ["b", "b", "a"], classes=("a", "b"))
    assert predict(train_dummy(skew), np.ones(2)) == "b"


def test_predictions_stay_in_vocabulary(separable, rng):
    probe = rng.normal(size=(30, 2)) * 5
    for trainer in (train_logreg, train_knn, train_rf, train_linsvm, train_dummy):
        clf = trainer(separable)
        got = predict(clf, probe)
        assert set(got) <= set(separable.classes)


def test_trainers_are_deterministic_under_seed(separable, rng):
    probe = rng.normal(size=(25, 2)) * 3
    for trainer, kwargs in (
        (train_logreg, {"seed": 5}),
        (train_knn, {}),
        (train_rf, {"trees": 10, "seed": 5}),
        (train_linsvm, {"seed": 5}),
    ):
        a = trainer(separable, **kwargs)
        b = trainer(separable, **kwargs)
        assert np.array_equal(predict_scores(a, probe), predict_scores(b, probe))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_features_are_refused(separable, bad):
    X = separable.X.copy()
    X[7, 1] = bad
    with pytest.raises(ValueError, match="row 7 holds a NaN or infinite value"):
        LabeledSet(X, separable.y, separable.classes)
    probe = np.zeros((3, 2))
    probe[2, 0] = bad
    for trainer in (train_logreg, train_knn, train_rf):
        clf = trainer(separable)
        with pytest.raises(ValueError, match="row 2 holds a NaN or infinite value"):
            predict(clf, probe)
        with pytest.raises(ValueError, match="row 0 holds"):
            predict(clf, probe[2])


def test_predict_rejects_wrong_dim(separable):
    clf = train_logreg(separable, epochs=1)
    with pytest.raises(ValueError, match="dim"):
        predict(clf, np.zeros(3))


def test_provenance_travels_with_classifier(separable):
    prov = FeatProvenance("neural", "abc123")
    tagged = LabeledSet(separable.X, separable.y, separable.classes, prov)
    clf = train_logreg(tagged, epochs=1)
    assert clf.provenance == prov


def test_measure_inference_mean_is_total_over_n(separable, rng):
    clf = train_logreg(separable, epochs=1)
    stats = measure_inference(clf, rng.normal(size=(50, 2)))
    assert stats.n == 50
    assert np.isclose(stats.mean_ms, stats.per_item_ms.sum() / 50)
    assert np.isclose(stats.median_ms, np.median(stats.per_item_ms))


def test_knn_latency_grows_with_training_size_logreg_does_not(rng):
    d = 16
    queries = rng.normal(size=(60, d))

    def sets(n):
        X = rng.normal(size=(n, d))
        y = ["a" if v > 0 else "b" for v in X[:, 0]]
        return make_labeled_set(X, y, classes=("a", "b"))

    small, large = sets(250), sets(4000)
    knn_small = measure_inference(train_knn(small), queries)
    knn_large = measure_inference(train_knn(large), queries)
    assert knn_large.median_ms > 1.5 * knn_small.median_ms
    lr_small = measure_inference(train_logreg(small, epochs=3), queries)
    lr_large = measure_inference(train_logreg(large, epochs=3), queries)
    assert lr_large.median_ms < 3.0 * lr_small.median_ms
