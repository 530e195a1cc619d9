import numpy as np
import pytest

from opembed.classifiers import (
    FeatProvenance,
    make_labeled_set,
    predict,
    train_dummy,
    train_logreg,
)
from opembed.errors import BundleError, CoverageError
from opembed.featurize import build_schema, encode, fit_encode, schema_hash
from opembed.hourglass import HourglassSpec, build, cut_off
from opembed.plans import Corpus, PlanNode, QueryRecord, walk_operators
from opembed.reducers import fit_fa, fit_pca, transform_fa, transform_pca
from opembed.synth import SynthConfig, generate, ground_truth
from opembed.tasks import (
    ADMISSION_CLASSES,
    CARD_CLASSES,
    FoldPlan,
    TaskSpec,
    assert_leak_free,
    flag_query,
    label_admission,
    label_card,
    label_user,
    make_folds,
    nearest_rank_percentile,
)


def one_op_query(i, latency, user="u0", rows_est=100.0, rows_act=None):
    node = PlanNode(
        node_type="SeqScan",
        plan_rows=rows_est,
        total_cost=1.0,
        actual_latency_ms=latency,
        actual_rows=rows_act,
    )
    return QueryRecord(query_id=f"q{i:03d}", user_label=user, root=node)


def test_taskspec_validation():
    TaskSpec("admission")
    with pytest.raises(ValueError, match="task"):
        TaskSpec("latency")
    with pytest.raises(ValueError, match="percentile"):
        TaskSpec("admission", percentile=100)
    with pytest.raises(ValueError, match="factor"):
        TaskSpec("card", factor=1.0)


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert nearest_rank_percentile(values, 95) == 95
    assert nearest_rank_percentile(values, 50) == 50
    assert nearest_rank_percentile([7.0], 95) == 7.0
    assert nearest_rank_percentile([3.0, 9.0], 1) == 3.0
    with pytest.raises(ValueError):
        nearest_rank_percentile([], 95)


def test_admission_percentile_95_of_1_to_100():
    corpus = Corpus([one_op_query(i, float(i)) for i in range(1, 101)])
    labels, threshold = label_admission(corpus, 95.0)
    assert threshold == 95.0
    assert labels.count("slow") == 5
    assert set(labels) <= set(ADMISSION_CLASSES)


def test_admission_constant_latency_has_no_positives():
    corpus = Corpus([one_op_query(i, 5.0) for i in range(20)])
    labels, threshold = label_admission(corpus, 95.0)
    assert threshold == 5.0
    assert labels.count("slow") == 0


def test_admission_external_threshold_does_not_recompute():
    corpus = Corpus([one_op_query(i, float(i)) for i in range(1, 11)])
    labels, threshold = label_admission(corpus, 95.0, threshold=3.0)
    assert threshold == 3.0
    assert labels.count("slow") == 7


def test_admission_requires_latency_coverage():
    bad = Corpus([one_op_query(0, 5.0), one_op_query(1, None)])
    with pytest.raises(CoverageError, match="latency"):
        label_admission(bad, 95.0)


def test_admission_prior_75_when_quarter_of_queries_slow():
    # one slow operator in 25 of 100 single-op queries -> 75% "ok" prior
    lat = [100.0 if i < 25 else 1.0 for i in range(100)]
    corpus = Corpus([one_op_query(i, lat[i]) for i in range(100)])
    labels, _ = label_admission(corpus, 75.0)
    assert labels.count("ok") / len(labels) == 0.75


def test_card_label_rules():
    rows = [
        (100.0, 40.0, "over"),
        (100.0, 90.0, "correct"),
        (10.0, 25.0, "under"),
        (100.0, 50.0, "over"),      # exactly 2x -> over
        (50.0, 100.0, "under"),     # exactly 1/2 -> under
        (0.0, 0.0, "correct"),      # both zero: smoothing -> 1 vs 1
        (5.0, 0.0, "over"),         # smoothing: 6 vs 1
    ]
    corpus = Corpus(
        [
            one_op_query(i, 1.0, rows_est=est, rows_act=act)
            for i, (est, act, _) in enumerate(rows)
        ]
    )
    assert label_card(corpus, 2.0) == [want for _, _, want in rows]
    assert set(label_card(corpus, 2.0)) <= set(CARD_CLASSES)


def test_card_requires_actual_rows():
    bad = Corpus([one_op_query(0, 1.0, rows_act=None)])
    with pytest.raises(CoverageError, match="actual_rows"):
        label_card(bad)


def test_label_user_repeats_per_operator():
    root = PlanNode(
        node_type="Sort",
        plan_rows=5.0,
        total_cost=1.0,
        children=[PlanNode(node_type="SeqScan", plan_rows=5.0, total_cost=0.5)],
    )
    corpus = Corpus(
        [
            QueryRecord("q0", "alice", root),
            one_op_query(1, 2.0, user="bob"),
        ]
    )
    assert label_user(corpus) == ["alice", "alice", "bob"]


def test_label_user_requires_every_query_to_have_a_user():
    corpus = Corpus([one_op_query(0, 1.0), one_op_query(1, 1.0, user=None)])
    with pytest.raises(CoverageError, match="1 queries lack a user"):
        label_user(corpus)


def test_flag_query_any_positive_flags():
    corpus = Corpus([one_op_query(i, float(i + 1)) for i in range(30)])
    schema = build_schema(corpus)
    X = np.stack([encode(schema, it.node) for it in walk_operators(corpus)])
    always_ok = train_dummy(
        make_labeled_set(X, ["ok"] * 29 + ["slow"], classes=ADMISSION_CLASSES)
    )
    assert flag_query(always_ok, schema, corpus.records[0]) == "admit"
    always_slow = train_dummy(
        make_labeled_set(X, ["slow"] * 29 + ["ok"], classes=ADMISSION_CLASSES)
    )
    assert flag_query(always_slow, schema, corpus.records[0]) == "flag"


def ramp_corpus(n=10):
    """One-operator queries whose row estimates rise with their latency."""
    return Corpus([one_op_query(i, float(i + 1), rows_est=float(10 * i + 1)) for i in range(n)])


def test_flag_query_transform_applies():
    corpus = ramp_corpus()
    schema, table = fit_encode(corpus)
    X = table.X
    labels = ["ok"] * 5 + ["slow"] * 5
    for kind, model, transform in (("pca", fit_pca(X, 2), transform_pca),
                                   ("fa", fit_fa(X, 2), transform_fa)):
        F = transform(model, X)
        prov = FeatProvenance(kind, schema_hash(schema))
        clf = train_logreg(make_labeled_set(F, labels, ADMISSION_CLASSES, prov), epochs=1)
        verdicts = [flag_query(clf, schema, rec, transform=model) for rec in corpus.records]
        assert verdicts == ["flag" if p == "slow" else "admit" for p in predict(clf, F)]
    bare = train_logreg(make_labeled_set(F, labels, ADMISSION_CLASSES), epochs=1)
    with pytest.raises(ValueError, match="dim"):
        flag_query(bare, schema, corpus.records[0])


def test_flag_query_refuses_a_classifier_of_another_featurization():
    # a 2-dim encoder on the same schema feeds rows as wide as pca-2, so
    # only the provenance tells the two featurizations apart
    corpus = ramp_corpus()
    schema, table = fit_encode(corpus)
    X = table.X
    pca = fit_pca(X, 2)
    prov = FeatProvenance("pca", schema_hash(schema))
    clf = train_logreg(make_labeled_set(
        transform_pca(pca, X), ["ok"] * 5 + ["slow"] * 5, ADMISSION_CLASSES, prov), epochs=1)
    record = corpus.records[0]
    encoder = cut_off(build(HourglassSpec((8,), 2), schema))
    with pytest.raises(ValueError, match="trained on pca features, not neural"):
        flag_query(clf, schema, record, transform=encoder)
    assert flag_query(clf, schema, record, transform=pca) in ("admit", "flag")
    other = build_schema(Corpus(corpus.records[:5]))  # same slots, other z-score stats
    assert other.total_dim == schema.total_dim
    with pytest.raises(BundleError, match="schema hash mismatch"):
        flag_query(clf, other, record, transform=pca)
    with pytest.raises(TypeError, match="featurize"):
        flag_query(clf, schema, record, transform=lambda M: transform_pca(pca, M))


def test_flag_query_beats_operator_prior_on_planted_corpus():
    from opembed.plans import iter_nodes

    cfg = SynthConfig(n_queries=120, seed=21)
    corpus = generate(cfg)
    schema = build_schema(corpus)
    labels, threshold = label_admission(corpus, 75.0)
    X = np.stack([encode(schema, it.node) for it in walk_operators(corpus)])
    s = make_labeled_set(X, labels, classes=ADMISSION_CLASSES)
    clf = train_logreg(s, seed=0)
    truth = ground_truth(cfg)
    operator_prior = labels.count("ok") / len(labels)
    correct = 0
    for rec in corpus.records:
        has_slow = any(
            n.actual_latency_ms > threshold for n in iter_nodes(rec.root)
        )
        verdict = flag_query(clf, schema, rec)
        if (verdict == "flag") == has_slow:
            correct += 1
    assert correct / len(corpus) >= operator_prior
    assert truth.slow_queries  # the planted rule actually fired


@pytest.fixture(scope="module")
def folds_corpus():
    return generate(SynthConfig(n_queries=80, seed=13))


def test_random_folds_partition_and_determinism(folds_corpus):
    plan = make_folds(folds_corpus, "random", seed=5)
    assert len(plan) == 5
    assert_leak_free(plan, folds_corpus)
    for train, test in plan.folds:
        assert len(train) + len(test) == len(folds_corpus)
        # train side is the one-fifth
        assert len(train) == len(folds_corpus) // 5
    train_union = np.sort(np.concatenate([t for t, _ in plan.folds]))
    assert np.array_equal(train_union, np.arange(len(folds_corpus)))
    again = make_folds(folds_corpus, "random", seed=5)
    for (a, b), (c, d) in zip(plan.folds, again.folds):
        assert np.array_equal(a, c) and np.array_equal(b, d)
    other = make_folds(folds_corpus, "random", seed=6)
    assert any(
        not np.array_equal(a, c) for (a, _), (c, _) in zip(plan.folds, other.folds)
    )


def test_temporal_folds_order(folds_corpus):
    plan = make_folds(folds_corpus, "temporal", seed=0)
    assert_leak_free(plan, folds_corpus)
    for train, test in plan.folds:
        assert train.max() < test.min()
        assert len(train) == len(folds_corpus) // 5
        assert len(test) > 0


def test_by_group_folds_keep_groups_together(folds_corpus):
    plan = make_folds(folds_corpus, "by_group", seed=2)
    assert_leak_free(plan, folds_corpus)
    for train, test in plan.folds:
        tr = {folds_corpus.records[i].user_label for i in train}
        te = {folds_corpus.records[i].user_label for i in test}
        assert not tr & te


def test_make_folds_validation(folds_corpus):
    with pytest.raises(ValueError, match="strategy"):
        make_folds(folds_corpus, "stratified")
    tiny = Corpus([one_op_query(i, 1.0) for i in range(3)])
    with pytest.raises(ValueError, match="queries"):
        make_folds(tiny, "random")
    single_group = Corpus([one_op_query(i, 1.0, user="same") for i in range(10)])
    with pytest.raises(ValueError, match="group"):
        make_folds(single_group, "by_group")


@pytest.mark.parametrize("strategy", ["random", "temporal", "by_group"])
def test_make_folds_refuses_fewer_than_two_folds(folds_corpus, strategy):
    for n_folds in (1, 0):
        with pytest.raises(ValueError, match=f"need at least 2 folds, got {n_folds}"):
            make_folds(folds_corpus, strategy, n_folds=n_folds)


def test_assert_leak_free_catches_overlap(folds_corpus):
    plan = make_folds(folds_corpus, "random", seed=0)
    train0, test0 = plan.folds[0]
    bad = FoldPlan("random", 0, [(train0, np.concatenate([test0, train0[:1]]))])
    with pytest.raises(AssertionError, match="shares"):
        assert_leak_free(bad, folds_corpus)
