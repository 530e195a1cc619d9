import json
import re
from collections import Counter

import pytest

from opembed.errors import PlanFormatError
from opembed.plans import (
    Corpus,
    PlanNode,
    QueryRecord,
    corpus_to_dict,
    iter_nodes,
    load_corpus,
    save_corpus,
    subcorpus,
    walk_operators,
)
from opembed.synth import SynthConfig, generate, ground_truth


def scan(rows=100.0, **kw):
    return PlanNode(node_type="SeqScan", plan_rows=rows, total_cost=rows * 0.01, **kw)


def test_load_counts_preserved(tmp_path):
    doc = {
        "queries": [
            {
                "query_id": "a",
                "plan": {
                    "node_type": "MergeJoin",
                    "plan_rows": 10,
                    "children": [
                        {"node_type": "SeqScan", "plan_rows": 5},
                        {"node_type": "SeqScan", "plan_rows": 7},
                    ],
                },
            },
            {
                "query_id": "b",
                "plan": {
                    "node_type": "Sort",
                    "plan_rows": 3,
                    "children": [{"node_type": "SeqScan", "plan_rows": 3}],
                },
            },
        ]
    }
    path = tmp_path / "two.json"
    path.write_text(json.dumps(doc))
    corpus = load_corpus(path)
    assert len(corpus) == 2
    assert len(list(walk_operators(corpus))) == 5


def test_load_empty_is_fine(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"queries": []}))
    corpus = load_corpus(path)
    assert len(corpus) == 0
    assert list(walk_operators(corpus)) == []


def test_negative_cost_names_offending_node(tmp_path):
    doc = {
        "queries": [
            {
                "query_id": "a",
                "plan": {
                    "node_type": "Sort",
                    "children": [{"node_type": "SeqScan", "total_cost": -1}],
                },
            }
        ]
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(PlanFormatError) as err:
        load_corpus(path)
    assert "children[0]" in str(err.value)
    assert "total_cost" in str(err.value)


def _load_text(tmp_path, text):
    path = tmp_path / "plans.json"
    path.write_text(text)
    return load_corpus(path)


@pytest.mark.parametrize(
    "queries, where",
    [
        ("[7]", "queries[0]: must be an object"),
        ('["q1"]', "queries[0]: must be an object"),
        ('{"a": {"query_id": "a", "plan": {"node_type": "Sort"}}}', "queries: must be a list"),
        ('"abc"', "queries: must be a list"),
    ],
    ids=["int-entry", "str-entry", "dict-queries", "str-queries"],
)
def test_malformed_queries_name_their_path(tmp_path, queries, where):
    with pytest.raises(PlanFormatError, match=re.escape(where)):
        _load_text(tmp_path, '{"queries": %s}' % queries)


@pytest.mark.parametrize(
    "attr, where",
    [('[1, "x"]', "'attr_mins[1]' is not a number"),
     ("[NaN]", "'attr_mins[0]' must be finite"),
     ("[2, Infinity]", "'attr_mins[1]' must be finite"),
     ("[null]", "'attr_mins[0]' is not a number")],
    ids=["str", "nan", "inf", "null"],
)
def test_bad_attr_stat_entry_names_node_and_index(tmp_path, attr, where):
    text = ('{"queries": [{"query_id": "a", "plan": {"node_type": "Sort", "children": '
            '[{"node_type": "SeqScan", "attr_mins": %s}]}}]}' % attr)
    with pytest.raises(PlanFormatError) as err:
        _load_text(tmp_path, text)
    assert str(err.value).startswith("queries[0].plan.children[0]: ")
    assert where in str(err.value)


def test_attr_stats_may_be_negative(tmp_path):
    text = ('{"queries": [{"query_id": "a", "plan": {"node_type": "SeqScan", '
            '"attr_mins": [-3.5, 0], "attr_maxs": [-1, 2]}}]}')
    node = _load_text(tmp_path, text).records[0].root
    assert node.attr_mins == (-3.5, 0.0)
    assert node.attr_maxs == (-1.0, 2.0)


def test_plan_nested_too_deep_for_the_decoder_is_a_format_error(tmp_path):
    depth = 600
    sort = '{"node_type": "Sort", "children": ['
    plan = sort * depth + '{"node_type": "SeqScan"}' + "]}" * depth
    path = tmp_path / "deep.json"
    path.write_text('{"queries": [{"query_id": "q", "plan": %s}]}' % plan)
    with pytest.raises(PlanFormatError, match="too deep") as err:
        load_corpus(path)
    assert str(path) in str(err.value)


def test_save_corpus_writes_what_load_reads_or_no_file(tmp_path):
    root = scan()
    for _ in range(520):
        root = PlanNode(node_type="Sort", children=[root])
    corpus = Corpus([QueryRecord("flat", None, scan()), QueryRecord("deep", None, root)])
    path = tmp_path / "deep.json"
    try:
        save_corpus(corpus, path)
    except PlanFormatError as err:
        assert "'deep'" in str(err)
        assert list(tmp_path.iterdir()) == []
    else:
        assert [r.query_id for r in load_corpus(path).records] == ["flat", "deep"]


def test_walk_leaf_has_no_children():
    rec = QueryRecord("q", None, scan())
    (item,) = walk_operators(Corpus([rec]))
    assert item.node.node_type == "SeqScan"


def test_walk_truncates_to_first_two_children():
    node = PlanNode(node_type="Append", children=[scan(1), scan(2), scan(3)])
    items = list(walk_operators(Corpus([QueryRecord("q", None, node)])))
    assert len(items) == 4


def test_walk_preorder_binary_join():
    join = PlanNode(node_type="HashJoin", children=[scan(1), scan(2)])
    items = list(walk_operators(Corpus([QueryRecord("q", None, join)])))
    assert [it.node.node_type for it in items] == ["HashJoin", "SeqScan", "SeqScan"]


def test_ground_truth_counts_match_the_corpus():
    cfg = SynthConfig(n_queries=80, seed=7)
    corpus = generate(cfg)
    truth = ground_truth(cfg)
    op_counts = Counter(item.node.node_type for item in walk_operators(corpus))
    assert len(corpus) == truth.n_queries == 80
    assert sum(op_counts.values()) == truth.n_operators
    assert op_counts == truth.op_type_counts


def test_save_load_round_trip(tmp_path, corpus60):
    path = tmp_path / "c.json"
    save_corpus(corpus60, path)
    again = load_corpus(path)
    assert corpus_to_dict(again) == corpus_to_dict(corpus60)


def test_subcorpus_selects_in_given_order(corpus60):
    sub = subcorpus(corpus60, [5, 2, 9])
    assert [r.query_id for r in sub.records] == [
        corpus60.records[i].query_id for i in (5, 2, 9)
    ]


def test_iter_nodes_is_preorder():
    join = PlanNode(node_type="HashJoin", children=[scan(1), scan(2)])
    root = PlanNode(node_type="Aggregate", children=[join])
    types = [n.node_type for n in iter_nodes(root)]
    assert types == ["Aggregate", "HashJoin", "SeqScan", "SeqScan"]
