"""Release gate: one test per acceptance criterion.

Each criterion gets exactly one test named test_cNN_*; the terminal summary
hook in conftest.py prints a PASS/FAIL line per criterion at the end of the
run. Thresholds here are pinned, not tuned: loosening one to make a failing
run green defeats the point of the gate.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from opembed import nn
from opembed.classifiers import (
    make_labeled_set,
    measure_inference,
    predict,
    train_knn,
    train_logreg,
)
from opembed.evaluate import evaluate
from opembed.featurize import build_schema, encode, encode_corpus, schema_hash
from opembed.hourglass import (
    HourglassSpec,
    build,
    cut_off,
    predict_children,
    train_embedding,
)
from opembed.plans import save_corpus, walk_operators
from opembed.reducers import fit_fa, fit_pca
from opembed.store import (
    save_classifier_bundle,
    save_encoder_bundle,
    save_pca_bundle,
    save_schema_bundle,
)
from opembed.synth import SynthConfig, context_probe_config, generate, planted_card_config
from opembed.tasks import TaskSpec, assert_leak_free, label_card, make_folds


@pytest.fixture(scope="module")
def context_run():
    """Corpus with pass-through wrappers plus a fully trained network, so the
    only way to predict a MergeJoin's children is the planted Sort context."""
    corpus = generate(context_probe_config(seed=0))
    schema = build_schema(corpus)
    table = encode_corpus(schema, corpus)
    enet = build(HourglassSpec(), schema)
    train_embedding(enet, table.X, table.children, nn.SgdConfig())
    return corpus, schema, enet


@pytest.fixture(scope="module")
def planted_corpus():
    return generate(planted_card_config())


@pytest.fixture(scope="module")
def planted_report(planted_corpus):
    """One cross-validated grid over the planted cardinality rule; the schema
    and encoders are fit on the full unlabeled log, classifiers per fold."""
    plan = make_folds(planted_corpus, "random", seed=0)
    t0 = time.perf_counter()
    report = evaluate(
        planted_corpus,
        TaskSpec("card"),
        ["neural-32", "pca-32", "neural-8"],
        ["logreg"],
        plan,
        embedding_from_full_log=True,
        seed=0,
    )
    return report, time.perf_counter() - t0


# -- criterion 1: analytic gradients ---------------------------------------

def _random_probe_net(seed):
    """A small random bottleneck net with a loss spec drawn from four shapes:
    pure mse, pure softmax (with one all-absent target row), pure bce, and a
    mixed softmax+mse+bce output."""
    rng = np.random.default_rng([seed, 77])
    din = int(rng.integers(4, 13))
    mid = int(rng.integers(4, 9))
    bottleneck = int(rng.integers(2, min(mid, 5)))
    kind = seed % 4
    if kind == 0:
        dout = int(rng.integers(2, 7))
        spec = nn.LossSpec((("mse", 0, dout),))
    elif kind == 1:
        dout = int(rng.integers(2, 7))
        spec = nn.LossSpec((("softmax", 0, dout),))
    elif kind == 2:
        dout = int(rng.integers(1, 5))
        spec = nn.LossSpec((("bce", 0, dout),))
    else:
        c = int(rng.integers(2, 5))
        m = int(rng.integers(1, 4))
        b = int(rng.integers(1, 3))
        spec = nn.LossSpec(
            (("softmax", 0, c), ("mse", c, c + m), ("bce", c + m, c + m + b))
        )
        dout = c + m + b
    net = nn.Network(
        [
            nn.dense_layer(np.random.default_rng([seed, 1]), din, mid,
                           layer_norm=True, relu=True),
            nn.dense_layer(np.random.default_rng([seed, 2]), mid, bottleneck,
                           layer_norm=True, relu=True),
            nn.dense_layer(np.random.default_rng([seed, 3]), bottleneck, dout),
        ]
    )
    x = rng.normal(size=(3, din))
    t = np.zeros((3, dout))
    for k, a, b2 in spec.segments:
        if k == "mse":
            t[:, a:b2] = rng.normal(size=(3, b2 - a))
        elif k == "bce":
            t[:, a:b2] = rng.integers(0, 2, size=(3, b2 - a))
        else:
            for r in range(3):
                if not (r == 2 and kind == 1):
                    t[r, a + int(rng.integers(0, b2 - a))] = 1.0
    return net, spec, x, t


def test_c01_gradients_match_finite_differences():
    for seed in range(24):
        net, spec, x, t = _random_probe_net(seed)
        report = nn.grad_check(net, spec, x, t, h=1e-5, tol=1e-4)
        assert report.n_params > 0
        assert report.passed, (
            f"net {seed}: rel err {report.max_rel_err:.3e} at {report.worst}"
        )
        assert report.max_rel_err < 1e-4


# -- criterion 2: cutting off the heads changes nothing --------------------

def test_c02_encoder_output_is_bitwise_trunk_output(context_run):
    _, schema, enet = context_run
    encoder = cut_off(enet)
    rng = np.random.default_rng(2)
    X = rng.normal(size=(1000, schema.total_dim))
    want = nn.predict(enet.trunk, X)
    got = encoder(X)
    assert got.shape == (1000, enet.spec.embedding_dim)
    assert got.tobytes() == want.tobytes()


# -- criterion 3: heads recover the planted child context ------------------

def test_c03_merge_join_heads_put_sort_first(context_run):
    corpus, schema, enet = context_run
    ops = [item.node for item in walk_operators(corpus)]
    assert len(ops) >= 2000
    merge_joins = [n for n in ops if n.node_type == "MergeJoin"]
    assert len(merge_joins) >= 100
    X = np.stack([encode(schema, n) for n in merge_joins])
    start, stop = schema.groups["node_type"]
    sort_pos = schema.vocab["node_type"]["Sort"] - start
    for probs in predict_children(enet, X):
        top = np.argmax(probs[:, start:stop], axis=1)
        assert np.mean(top == sort_pos) >= 0.95


# -- criteria 4 and 5: the planted rule is easier in embedding space -------

def test_c04_planted_rule_beats_prior_and_pca(planted_report):
    report, elapsed = planted_report
    med = {(r["featurization"], r["model"]): r for r in report.median_rows()}
    assert all(r["folds"] == 5 for r in med.values())
    neural = med[("neural-32", "logreg")]
    assert neural["accuracy"] >= neural["prior"] + 0.10
    assert neural["accuracy"] >= med[("pca-32", "logreg")]["accuracy"] + 0.05
    assert elapsed < 300.0


def test_c05_wider_embedding_not_worse_than_narrow(planted_report):
    report, _ = planted_report
    med = {r["featurization"]: r["accuracy"] for r in report.median_rows()}
    assert med["neural-32"] >= med["neural-8"]


# -- criterion 6: baselines agree with brute-force oracles -----------------

def _eig_oracle(X, k):
    """Reference PCA: eigh on the sample covariance, descending eigenvalues,
    largest-magnitude coordinate of each component made positive."""
    X = np.asarray(X, dtype=np.float64)
    mean = X.mean(axis=0)
    centered = X - mean
    cov = centered.T @ centered / (len(X) - 1)
    vals, vecs = np.linalg.eigh(cov)
    order = np.argsort(vals)[::-1][:k]
    comps = vecs[:, order].T.copy()
    for row in comps:
        if row[np.argmax(np.abs(row))] < 0:
            row *= -1
    return comps, np.maximum(vals[order], 0.0)


def _greedy_replay(X, k):
    """Reference agglomeration: recompute every pairwise |Pearson| of
    cluster-mean columns each round, merge the best, lowest pair on ties."""
    X = np.asarray(X, dtype=np.float64)
    clusters = [[j] for j in range(X.shape[1])]

    def corr(a, b):
        a = a - a.mean()
        b = b - b.mean()
        sa, sb = np.sqrt(a @ a), np.sqrt(b @ b)
        if sa == 0 or sb == 0:
            return 0.0
        return abs(float(a @ b) / (sa * sb))

    while len(clusters) > k:
        best, pair = -1.0, None
        for i in range(len(clusters)):
            ri = X[:, clusters[i]].mean(axis=1)
            for j in range(i + 1, len(clusters)):
                c = corr(ri, X[:, clusters[j]].mean(axis=1))
                if c > best:
                    best, pair = c, (i, j)
        i, j = pair
        clusters[i] = sorted(clusters[i] + clusters[j])
        del clusters[j]
    return tuple(tuple(c) for c in clusters)


def test_c06_reducer_and_knn_oracles_agree():
    for t in range(10):
        rng = np.random.default_rng([600, t])
        d = 2 + t % 7
        X = rng.normal(size=(24 + 6 * t, d)) * np.linspace(2.0, 0.5, d)
        model = fit_pca(X, d)
        comps, vars_ = _eig_oracle(X, d)
        assert np.abs(model.components - comps).max() < 1e-6
        assert np.abs(model.explained_variance - vars_).max() < 1e-6

    rng = np.random.default_rng([601])
    Xt = rng.normal(size=(300, 8))
    classes = ("a", "b", "c", "d")
    labels = [classes[i] for i in rng.integers(0, 4, size=300)]
    s = make_labeled_set(Xt, labels, classes)
    clf = train_knn(s)
    queries = rng.normal(size=(500, 8))
    got = predict(clf, queries)
    for qi, q in enumerate(queries):
        dist = np.sqrt(((Xt - q) ** 2).sum(axis=1))
        nearest = np.argsort(dist, kind="stable")[: clf.params["k"]]
        scores = np.zeros(len(classes))
        for idx in nearest:
            scores[s.y[idx]] += 1.0 / (dist[idx] + 1e-9)
        assert got[qi] == classes[int(np.argmax(scores))]

    for seed in range(3):
        rng = np.random.default_rng([610, seed])
        X = rng.random((30, 9))
        assert fit_fa(X, 4).clusters == _greedy_replay(X, 4)


# -- criterion 7: closed-form loss values ----------------------------------

def test_c07_loss_identities_hold():
    for c in (2, 3, 5, 11):
        spec = nn.LossSpec((("softmax", 0, c),))
        target = np.zeros(c)
        target[c // 2] = 1.0
        # any constant logit vector is the uniform distribution after softmax
        got = nn.loss(spec, np.full(c, 0.25), target)
        assert abs(got - math.log(c)) < 1e-9
    rng = np.random.default_rng(7)
    for d in (1, 4, 9):
        spec = nn.LossSpec((("mse", 0, d),))
        x = rng.normal(size=d)
        assert nn.loss(spec, x, x.copy()) == 0.0


# -- criterion 8: evaluation protocol invariants ----------------------------

def test_c08_folds_never_leak_and_dummy_scores_prior(corpus60):
    strategies = ("random", "temporal", "by_group")
    for i in range(100):
        strategy = strategies[i % 3]
        n_folds = 5 if strategy == "by_group" else 2 + (i // 3) % 9
        plan = make_folds(corpus60, strategy, seed=i, n_folds=n_folds)
        assert_leak_free(plan, corpus60)

    plan = make_folds(corpus60, "random", seed=1)
    assert len(plan) == 5
    report = evaluate(corpus60, TaskSpec("admission"), ["sparse"], ["dummy"], plan)
    assert len(report.cells) == 5
    for cell in report.cells:
        assert cell.accuracy == cell.prior
    (row,) = report.median_rows()
    assert row["folds"] == 5
    assert row["accuracy"] == float(np.median([c.accuracy for c in report.cells]))


# -- criterion 9: latency follows representation size, not training size ----

def test_c09_inference_latency_ordering(planted_corpus):
    schema = build_schema(planted_corpus)
    rows = np.stack(
        [encode(schema, item.node) for item in walk_operators(planted_corpus)]
    )
    labels = label_card(planted_corpus)
    assert schema.total_dim > 32

    enet = build(HourglassSpec((64, 48), 32, seed=0), schema)
    table = encode_corpus(schema, planted_corpus)
    train_embedding(enet, table.X, table.children, nn.SgdConfig(epochs=2, seed=0))
    emb = cut_off(enet)(rows)

    n_train = 2500
    knn_sparse = train_knn(make_labeled_set(rows[:n_train], labels[:n_train]))
    knn_emb = train_knn(make_labeled_set(emb[:n_train], labels[:n_train]))
    measure_inference(knn_sparse, rows[-100:])
    measure_inference(knn_emb, emb[-100:])
    sparse_ms = measure_inference(knn_sparse, rows[-500:]).mean_ms
    emb_ms = measure_inference(knn_emb, emb[-500:]).mean_ms
    assert sparse_ms > emb_ms, f"sparse {sparse_ms:.4f} ms <= embedded {emb_ms:.4f} ms"

    rng = np.random.default_rng([902])
    X = rng.normal(size=(4000, 32))
    labels3 = [("x", "y", "z")[i] for i in rng.integers(0, 3, size=4000)]
    sizes = (1000, 2000, 4000)
    clfs = {
        n: train_logreg(make_labeled_set(X[:n], labels3[:n], ("x", "y", "z")),
                        epochs=20, seed=0)
        for n in sizes
    }
    probes = rng.normal(size=(400, 32))
    for clf in clfs.values():
        measure_inference(clf, probes)
    # interleave measurement order so machine drift cannot masquerade as a
    # training-set-size effect
    observations = []
    order_rng = np.random.default_rng([903])
    for _ in range(6):
        for j in order_rng.permutation(len(sizes)):
            n = sizes[j]
            observations.append((n, measure_inference(clfs[n], probes).median_ms))
    xs = np.array([n for n, _ in observations], dtype=np.float64)
    ys = np.array([ms for _, ms in observations])
    xc = xs - xs.mean()
    slope = float(xc @ ys / (xc @ xc))
    resid = ys - ys.mean() - slope * xc
    stderr = float(np.sqrt(resid @ resid / (len(observations) - 2) / (xc @ xc)))
    tstat = slope / stderr
    assert abs(tstat) < 4.0, f"latency-vs-size slope t={tstat:.2f}"
    pooled = [float(np.mean(ys[xs == n])) for n in sizes]
    assert max(pooled) / min(pooled) < 1.5


# -- criterion 10: same seed, same bytes ------------------------------------

def test_c10_same_seed_runs_are_byte_identical(tmp_path):
    def run(tag):
        root = tmp_path / tag
        root.mkdir()
        corpus = generate(replace(SynthConfig(), n_queries=40, seed=6))
        save_corpus(corpus, root / "corpus.json")
        schema = build_schema(corpus)
        save_schema_bundle(root / "schema.opeb", schema)
        enet = build(HourglassSpec((48, 40), 16, seed=0), schema)
        table = encode_corpus(schema, corpus)
        train_embedding(enet, table.X, table.children, nn.SgdConfig(epochs=2, seed=0))
        encoder = cut_off(enet)
        save_encoder_bundle(root / "encoder.opeb", encoder, schema=schema)
        rows = np.stack(
            [encode(schema, item.node) for item in walk_operators(corpus)]
        )
        save_pca_bundle(root / "pca.opeb", fit_pca(rows, 8), schema_hash(schema))
        clf = train_logreg(make_labeled_set(encoder(rows), label_card(corpus)), seed=0)
        save_classifier_bundle(root / "classifier.opeb", clf)
        plan = make_folds(corpus, "random", seed=0)
        report = evaluate(
            corpus, TaskSpec("admission"), ["sparse"], ["dummy", "logreg"], plan
        )
        report.to_csv(root / "cells.csv")
        report.medians_to_csv(root / "medians.csv")
        return {p.name: p.read_bytes() for p in sorted(root.iterdir())}

    first = run("first")
    second = run("second")
    assert list(first) == list(second)
    for name in first:
        assert first[name] == second[name], f"{name} differs between same-seed runs"
