import warnings
from dataclasses import replace

import numpy as np
import pytest

from opembed import nn
from opembed.errors import SchemaError, TrainingDivergedError
from opembed.featurize import build_schema, corpus_operators, encode, encode_corpus, fit_encode
from opembed.featurizer import Featurizer
from opembed.hourglass import (
    DEFAULT_HIDDEN,
    Encoder,
    HourglassSpec,
    build,
    cut_off,
    predict_children,
    train_embedding,
)
from opembed.plans import Corpus, walk_operators
from opembed.reducers import project_2d
from opembed.synth import SynthConfig, generate, planted_card_config


@pytest.fixture(scope="module")
def sorted_corpus():
    """Every join is a MergeJoin and every MergeJoin child is Sort-wrapped,
    with wrappers passing numerics through so structure is the only signal."""
    cfg = replace(
        SynthConfig(),
        n_queries=150,
        seed=11,
        join_kind_weights=(1.0, 0.0, 0.0),
        merge_join_sort_prob=1.0,
        wrapper_pass_through=True,
    )
    return generate(cfg)


@pytest.fixture(scope="module")
def sorted_run(sorted_corpus):
    schema, table = fit_encode(sorted_corpus)
    enet = build(HourglassSpec(hidden_dims=(64, 32), embedding_dim=16, seed=0), schema)
    enet, trace = train_embedding(
        enet, table.X, table.children, nn.SgdConfig(epochs=80, seed=0)
    )
    return schema, enet, trace


def test_build_layer_dims_follow_spec(schema60):
    d = schema60.total_dim
    enet = build(HourglassSpec(), schema60)
    dims = [d, *DEFAULT_HIDDEN, 32]
    assert [l.W.shape for l in enet.trunk.layers] == [
        (dout, din) for din, dout in zip(dims, dims[1:])
    ]
    for layer in enet.trunk.layers:
        assert layer.apply_layer_norm and layer.apply_relu
    for head in (enet.head1, enet.head2):
        assert len(head.layers) == 1
        assert head.layers[0].W.shape == (d, 32)
        assert not head.layers[0].apply_layer_norm
        assert not head.layers[0].apply_relu


def test_build_small_embedding_dim(schema60):
    spec = HourglassSpec(hidden_dims=(64, 32), embedding_dim=8)
    enet = build(spec, schema60)
    x = np.zeros(schema60.total_dim)
    assert nn.predict(enet.trunk, x).shape == (8,)


def test_build_rejects_embedding_wider_than_trunk():
    with pytest.raises(ValueError):
        HourglassSpec(embedding_dim=64)
    with pytest.raises(ValueError):
        HourglassSpec(embedding_dim=100)


def test_training_recovers_sort_context(sorted_corpus, sorted_run):
    schema, enet, _ = sorted_run
    type_slots = {
        s.name.split("=", 1)[1]: i
        for i, s in enumerate(schema.slots)
        if s.name.startswith("node_type=")
    }
    assert "Sort" in type_slots
    mj = np.stack(
        [
            encode(schema, item.node)
            for item in walk_operators(sorted_corpus)
            if item.node.node_type == "MergeJoin"
        ]
    )
    assert len(mj) > 100
    for probs in predict_children(enet, mj):
        mass = {t: probs[:, i].mean() for t, i in type_slots.items()}
        others = [v for t, v in mass.items() if t != "Sort"]
        assert mass["Sort"] > max(others)


def test_training_halves_initial_loss():
    corpus = generate(SynthConfig(n_queries=420, seed=5))
    schema, table = fit_encode(corpus)
    children = table.children[:2000]
    assert len(children) == 2000
    enet = build(HourglassSpec(hidden_dims=(64, 32), embedding_dim=16, seed=0), schema)
    # full-batch descent so the epoch-1 entry is the pre-update loss
    cfg = nn.SgdConfig(
        epochs=100, seed=0, learning_rate=0.1, batch_size=2000
    )
    _, trace = train_embedding(enet, table.X, children, cfg)
    assert len(trace) == 100
    assert trace[-1] < 0.5 * trace[0]


def test_zero_epochs_leaves_network_at_init(schema60, corpus60):
    table = encode_corpus(schema60, corpus60)
    spec = HourglassSpec(hidden_dims=(48, 40), embedding_dim=8)
    fresh = build(spec, schema60)
    trained, trace = train_embedding(
        build(spec, schema60), table.X, table.children, nn.SgdConfig(epochs=0)
    )
    assert trace == []
    for a, b in zip(fresh.trunk.layers, trained.trunk.layers):
        assert np.array_equal(a.W, b.W) and np.array_equal(a.b, b.b)
    assert np.array_equal(fresh.head1.layers[0].W, trained.head1.layers[0].W)
    assert np.array_equal(fresh.head2.layers[0].W, trained.head2.layers[0].W)


def _params(enet):
    return [p for net in (enet.trunk, enet.head1, enet.head2) for l in net.layers
            for p in (l.W, l.b, l.gain, l.beta) if p is not None]


def test_masked_loss_equals_plain_loss_when_every_child_is_present(schema60, corpus60):
    table = encode_corpus(schema60, corpus60)
    children = np.random.default_rng(5).integers(0, len(table.X), size=(120, 2))
    spec = HourglassSpec(hidden_dims=(48, 40), embedding_dim=8)
    cfg = nn.SgdConfig(epochs=3, seed=2, batch_size=32)
    plain, plain_trace = train_embedding(build(spec, schema60), table.X, children, cfg)
    masked, masked_trace = train_embedding(
        build(spec, schema60), table.X, children, cfg, masked=True
    )
    assert masked_trace == plain_trace
    assert all(np.array_equal(a, b) for a, b in zip(_params(plain), _params(masked)))
    fresh = build(spec, schema60)
    assert not np.array_equal(plain.head1.layers[0].W, fresh.head1.layers[0].W)


def test_masked_loss_without_children_leaves_heads_at_init(schema60, corpus60):
    table = encode_corpus(schema60, corpus60)
    children = np.full((120, 2), -1)
    spec = HourglassSpec(hidden_dims=(48, 40), embedding_dim=8)
    cfg = nn.SgdConfig(epochs=3, seed=2, batch_size=32)
    fresh = build(spec, schema60)
    trained, trace = train_embedding(
        build(spec, schema60), table.X, children, cfg, masked=True
    )
    assert trace == [0.0, 0.0, 0.0]
    for a, b in zip((fresh.head1, fresh.head2), (trained.head1, trained.head2)):
        assert np.array_equal(a.layers[0].W, b.layers[0].W)
        assert np.array_equal(a.layers[0].b, b.layers[0].b)


def _reference_training(enet, X, children, cfg, masked):
    """The step as two per-head passes: each head's own nn.loss and
    nn.output_grad, the trunk's input gradient computed and dropped, and
    w -= lr * g; returns the per-epoch losses and the number of batches
    whose rows are all leaves."""
    Xz = np.vstack([X, np.zeros((1, X.shape[1]))])
    present = children >= 0
    spec = enet.loss_spec

    def head_pass(head, E, C, pres):
        n = len(E)
        trace = nn.forward(head, E)
        pred = trace.activations[-1]
        if masked:
            m = int(pres.sum())
            if m == 0:
                return (0.0, [(np.zeros_like(l.W), np.zeros_like(l.b)) for l in head.layers],
                        np.zeros_like(E))
            head_loss = nn.loss(spec, pred[pres], C[pres]) * (m / n)
            dout = np.zeros_like(pred)
            dout[pres] = nn.output_grad(spec, pred[pres], C[pres]) * (m / n)
        else:
            head_loss = nn.loss(spec, pred, C)
            dout = nn.output_grad(spec, pred, C)
        grads, dE = nn.backprop_layers(head, trace, dout)
        return head_loss, grads, dE

    nets = [enet.trunk, enet.head1, enet.head2]
    rng, losses, leaf_batches = np.random.default_rng(cfg.seed), [], 0
    for _ in range(cfg.epochs):
        batch_losses = []
        for idx in nn.iter_batches(len(children), cfg, rng):
            leaf_batches += not present[idx].any()
            trunk_trace = nn.forward(enet.trunk, X[idx])
            E = trunk_trace.activations[-1]
            l1, g1, dE1 = head_pass(enet.head1, E, Xz[children[idx, 0]], present[idx, 0])
            l2, g2, dE2 = head_pass(enet.head2, E, Xz[children[idx, 1]], present[idx, 1])
            gt, _ = nn.backprop_layers(enet.trunk, trunk_trace, dE1 + dE2)
            for net, grads in zip(nets, (gt, g1, g2)):
                for layer, g in zip(net.layers, grads):
                    layer.W -= cfg.learning_rate * g[0]
                    layer.b -= cfg.learning_rate * g[1]
                    if layer.apply_layer_norm:
                        layer.gain -= cfg.learning_rate * g[2]
                        layer.beta -= cfg.learning_rate * g[3]
            batch_losses.append(l1 + l2)
        losses.append(float(np.mean(batch_losses)))
    return losses, leaf_batches


@pytest.mark.parametrize("masked", [False, True])
def test_training_matches_two_pass_reference_step(masked):
    corpus = generate(SynthConfig(n_queries=12, seed=5))
    schema, table = fit_encode(corpus)
    # 3-row batches, the last one partial: some batch holds only leaves, so
    # masked mode takes its m == 0 branch for both heads at once
    assert len(table.children) % 3
    spec = HourglassSpec(seed=3)
    cfg = nn.SgdConfig(learning_rate=0.05, batch_size=3, epochs=2, seed=6)
    trained, trace = train_embedding(build(spec, schema), table.X, table.children, cfg, masked)
    ref = build(spec, schema)
    ref_trace, leaf_batches = _reference_training(ref, table.X, table.children, cfg, masked)
    assert trace == ref_trace
    assert all(np.array_equal(a, b) for a, b in zip(_params(trained), _params(ref), strict=True))
    assert leaf_batches > 0


def test_diverging_training_raises_without_numpy_warnings():
    corpus = generate(replace(planted_card_config(), n_queries=60, seed=0))
    schema, table = fit_encode(corpus)
    spec = HourglassSpec(hidden_dims=(48, 40), embedding_dim=8)
    for masked in (False, True):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(TrainingDivergedError):
                train_embedding(build(spec, schema), table.X, table.children,
                                nn.SgdConfig(learning_rate=1e6, epochs=10), masked)


def test_train_rejects_empty_and_mismatched_triples(
    schema60, corpus60, sorted_run
):
    spec = HourglassSpec(hidden_dims=(48, 40), embedding_dim=8)
    enet = build(spec, schema60)
    with pytest.raises(ValueError, match="triples"):
        train_embedding(
            enet, np.empty((0, schema60.total_dim)), np.empty((0, 2), dtype=np.intp),
            nn.SgdConfig(epochs=1),
        )
    other_schema, other_net, _ = sorted_run
    assert other_schema.total_dim != schema60.total_dim
    table = encode_corpus(schema60, corpus60)
    with pytest.raises(ValueError, match="dim"):
        train_embedding(other_net, table.X, table.children, nn.SgdConfig(epochs=1))


def test_cut_off_reproduces_trunk_activation(sorted_run, rng):
    schema, enet, _ = sorted_run
    encoder = cut_off(enet)
    X = rng.normal(size=(40, schema.total_dim))
    direct = nn.predict(enet.trunk, X)
    assert np.array_equal(encoder(X), direct)
    again = cut_off(enet)
    assert np.array_equal(again(X), direct)


def test_cut_off_default_embedding_dim(schema60):
    enet = build(HourglassSpec(), schema60)
    encoder = cut_off(enet)
    assert encoder.embedding_dim == 32
    assert encoder(np.zeros(schema60.total_dim)).shape == (32,)


def test_cut_off_detaches_from_later_training(schema60, corpus60, rng):
    spec = HourglassSpec(hidden_dims=(48, 40), embedding_dim=8)
    enet = build(spec, schema60)
    encoder = cut_off(enet)
    X = rng.normal(size=(5, schema60.total_dim))
    before = encoder(X).copy()
    table = encode_corpus(schema60, corpus60)
    train_embedding(enet, table.X, table.children[:200], nn.SgdConfig(epochs=1, seed=7))
    assert np.array_equal(encoder(X), before)


def test_cut_off_pre_activation_strips_final_norm(sorted_run, rng):
    schema, enet, _ = sorted_run
    post = cut_off(enet)
    pre = cut_off(enet, pre_activation=True)
    X = rng.normal(size=(60, schema.total_dim))
    post_out = post(X)
    pre_out = pre(X)
    assert (post_out >= 0).all()
    assert (pre_out < 0).any()
    last = enet.trunk.layers[-1]
    manual = nn.predict(nn.Network(enet.trunk.layers[:-1]), X) @ last.W.T + last.b
    assert np.allclose(pre_out, manual, atol=1e-12)


def test_embed_zero_vector_is_finite(sorted_run):
    schema, enet, _ = sorted_run
    encoder = cut_off(enet)
    e = encoder(np.zeros(schema.total_dim))
    assert e.shape == (encoder.embedding_dim,)
    assert np.isfinite(e).all()


def _embed(encoder, schema, corpus):
    """Operator ids and embeddings in walk order, read as CLI embed reads them."""
    nodes, ids, _ = corpus_operators(corpus)
    return ids, Featurizer(schema, encoder).features(nodes)


def test_embed_is_pure(sorted_corpus, sorted_run):
    schema, enet, _ = sorted_run
    encoder = cut_off(enet)
    first = Corpus(sorted_corpus.records[:1])
    ids, E = _embed(encoder, schema, first)
    again_ids, again = _embed(encoder, schema, first)
    assert np.array_equal(E, again) and ids == again_ids


def test_embed_rejects_foreign_schema(sorted_run, corpus60):
    schema, enet, _ = sorted_run
    encoder = cut_off(enet)
    other = build_schema(corpus60)
    with pytest.raises(SchemaError, match="schema"):
        _embed(encoder, other, corpus60)


def test_embed_corpus_rows_and_ids(sorted_corpus, sorted_run):
    schema, enet, _ = sorted_run
    encoder = cut_off(enet)
    ids, E = _embed(encoder, schema, sorted_corpus)
    n_ops = sum(1 for _ in walk_operators(sorted_corpus))
    assert len(ids) == n_ops
    assert E.shape == (n_ops, encoder.embedding_dim)
    first = sorted_corpus.records[0]
    n_first = sum(1 for it in walk_operators(sorted_corpus) if it.record is first)
    assert ids[:n_first] == [f"{first.query_id}#{k}" for k in range(n_first)]
    assert ids[n_first].endswith("#0")


def _mean_dist(P, Q):
    return np.sqrt(((P[:, None, :] - Q[None, :, :]) ** 2).sum(-1)).mean()


def test_embeddings_cluster_by_node_type(sorted_corpus, sorted_run):
    schema, enet, _ = sorted_run
    encoder = cut_off(enet)
    _, E = _embed(encoder, schema, sorted_corpus)
    lab = np.array([it.node.node_type for it in walk_operators(sorted_corpus)])
    a = E[lab == "SeqScan"][:150]
    b = E[lab == "MergeJoin"][:150]
    assert len(a) > 20 and len(b) > 20
    intra = 0.5 * (_mean_dist(a, a) + _mean_dist(b, b))
    inter = _mean_dist(a, b)
    assert intra < inter


def test_logreg_on_embeddings_tracks_head_accuracy(sorted_corpus, sorted_run):
    """Retraining just the last layer: a logistic regression on encoder
    outputs should reach within 2 points of the head's own accuracy on the
    first-child node-type target."""
    from opembed.classifiers import make_labeled_set, predict as clf_predict, train_logreg

    schema, enet, _ = sorted_run
    slot_list = sorted(
        (
            (i, s.name.split("=", 1)[1])
            for i, s in enumerate(schema.slots)
            if s.name.startswith("node_type=")
        )
    )
    idxs = [i for i, _ in slot_list]
    names = [t for _, t in slot_list]
    items = [it for it in walk_operators(sorted_corpus) if it.node.children]
    X = np.stack([encode(schema, it.node) for it in items])
    truth = [it.node.children[0].node_type for it in items]
    p1, _ = predict_children(enet, X)
    head_pred = [names[int(np.argmax(p1[r, idxs]))] for r in range(len(items))]
    head_acc = np.mean([a == b for a, b in zip(head_pred, truth)])
    E = cut_off(enet)(X)
    clf = train_logreg(make_labeled_set(E, truth), seed=0)
    lr_acc = np.mean([a == b for a, b in zip(clf_predict(clf, E), truth)])
    assert lr_acc >= head_acc - 0.02


def test_project_2d_shape(sorted_corpus, sorted_run):
    schema, enet, _ = sorted_run
    ids, E = _embed(cut_off(enet), schema, sorted_corpus)
    P = project_2d(E)
    assert P.shape == (len(ids), 2)


def test_project_2d_preserves_distances_of_planar_data(rng):
    X = rng.normal(size=(50, 2)) @ np.array([[2.0, 0.3], [0.1, 1.5]])
    P = project_2d(X)
    dx = np.sqrt(((X[:, None] - X[None, :]) ** 2).sum(-1))
    dp = np.sqrt(((P[:, None] - P[None, :]) ** 2).sum(-1))
    assert np.allclose(dx, dp, atol=1e-6)


def test_project_2d_keeps_planted_clusters(rng):
    a = rng.normal(size=(60, 16)) * 0.3
    b = rng.normal(size=(60, 16)) * 0.3 + 2.0
    P = project_2d(np.vstack([a, b]))
    pa, pb = P[:60], P[60:]
    intra = 0.5 * (_mean_dist(pa, pa) + _mean_dist(pb, pb))
    inter = _mean_dist(pa, pb)
    assert intra < inter
