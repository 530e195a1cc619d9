import numpy as np
import pytest

from opembed.plans import corpus_to_dict, iter_nodes, walk_operators
from opembed.synth import (
    SynthConfig,
    context_probe_config,
    describe,
    generate,
    ground_truth,
    planted_card_config,
    tpcds_like_config,
)


def test_same_seed_identical_corpora():
    cfg = SynthConfig(n_queries=50, seed=11)
    assert corpus_to_dict(generate(cfg)) == corpus_to_dict(generate(cfg))


def test_declared_query_count(corpus60):
    assert len(corpus60.records) == 60


def test_merge_join_sort_fraction_near_configured():
    # all joins forced to MergeJoin so the sample is large enough
    cfg = SynthConfig(n_queries=1000, seed=5, join_kind_weights=(1.0, 0.0, 0.0))
    corpus = generate(cfg)
    truth = ground_truth(cfg)
    assert truth.merge_joins >= 2000
    wrapped = 0
    total = 0
    for item in walk_operators(corpus):
        if item.node.node_type != "MergeJoin":
            continue
        total += 1
        kids = item.node.children
        wrapped += len(kids) >= 2 and kids[0].node_type == "Sort" and kids[1].node_type == "Sort"
    assert total == truth.merge_joins
    assert wrapped == truth.merge_joins_with_sorts
    assert abs(wrapped / total - 0.9) <= 0.03


def test_planted_card_rule_recoverable_from_corpus():
    cfg = planted_card_config(seed=2)
    corpus = generate(cfg)
    truth = ground_truth(cfg)
    assert truth.planted_under and truth.planted_over
    items_by_query = {}
    for qidx, record in enumerate(corpus.records):
        items_by_query[qidx] = list(iter_nodes(record.root))
    for qidx, op_idx in truth.planted_under:
        node = items_by_query[qidx][op_idx]
        ratio = node.actual_rows / node.plan_rows
        assert 4.0 <= ratio <= 10.0
    for qidx, op_idx in truth.planted_over:
        node = items_by_query[qidx][op_idx]
        ratio = node.actual_rows / node.plan_rows
        assert 0.1 <= ratio <= 0.25


def test_slow_template_raises_latency():
    cfg = SynthConfig(n_queries=300, seed=4)
    corpus = generate(cfg)
    truth = ground_truth(cfg)
    slow = set(truth.slow_queries)
    assert slow
    per_query = []
    for qidx, record in enumerate(corpus.records):
        worst = max(n.actual_latency_ms for n in iter_nodes(record.root))
        per_query.append((qidx in slow, worst))
    slow_median = np.median([v for is_slow, v in per_query if is_slow])
    rest_median = np.median([v for is_slow, v in per_query if not is_slow])
    assert slow_median > rest_median


def test_every_operator_valid_round_trip(tmp_path, corpus60):
    from opembed.plans import load_corpus, save_corpus

    path = tmp_path / "v.json"
    save_corpus(corpus60, path)
    load_corpus(path)


def test_wrapper_pass_through_copies_child_numerics():
    corpus = generate(context_probe_config(seed=1))
    checked = 0
    for item in walk_operators(corpus):
        if item.node.node_type in ("Sort", "Hash"):
            child = item.node.children[0]
            assert item.node.total_cost == child.total_cost
            assert item.node.plan_buffers == child.plan_buffers
            assert item.node.estimated_ios == child.estimated_ios
            checked += 1
    assert checked > 100


def test_default_wrappers_change_cost():
    corpus = generate(SynthConfig(n_queries=40, seed=1))
    sorts = [
        item.node
        for item in walk_operators(corpus)
        if item.node.node_type == "Sort"
    ]
    assert sorts
    assert all(n.total_cost > n.children[0].total_cost for n in sorts)


def test_describe_mentions_planted_rules():
    text = describe(planted_card_config())
    assert "0.9" in text
    assert "under" in text and "over" in text


def test_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(n_templates=2, n_users=5)
    with pytest.raises(ValueError):
        SynthConfig(merge_join_sort_prob=1.5)
    with pytest.raises(ValueError, match="n_relations"):
        SynthConfig(n_relations=1)


def test_tpcds_like_preset_is_wide():
    cfg = tpcds_like_config()
    assert cfg.n_relations > 20
    assert cfg.n_queries >= 400


def test_user_template_affinity():
    cfg = SynthConfig(n_queries=200, seed=9)
    truth = ground_truth(cfg)
    for user, template in zip(truth.query_users, truth.query_templates):
        assert template % cfg.n_users == int(user.split("_")[1])
