import ast
import dataclasses
import errno
import gc
import inspect
import json
import logging
import re
import sys
from collections import Counter

import pytest
from click.testing import CliRunner

from opembed import plans
from opembed.cli import main
from opembed.errors import PlanFormatError
from opembed.plans import (
    MAX_PLAN_DEPTH,
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
from opembed.synth import PRESETS, SynthConfig, generate, ground_truth


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


def _child_with(fields):
    """A one-query list whose plan's first child holds the given JSON members."""
    return ('[{"query_id": "a", "plan": {"node_type": "Sort", "children": '
            '[{"node_type": "SeqScan", %s}]}}]' % fields)


@pytest.mark.parametrize(
    "queries, where",
    [
        ("[7]", "queries[0]: must be an object"),
        ('["q1"]', "queries[0]: must be an object"),
        ('{"a": {"query_id": "a", "plan": {"node_type": "Sort"}}}', "queries: must be a list"),
        ('"abc"', "queries: must be a list"),
        (_child_with('"scan_direction": "false"'),
         "queries[0].plan.children[0]: field 'scan_direction' must be true or false"),
        (_child_with('"partial_mode": 1'),
         "queries[0].plan.children[0]: field 'partial_mode' must be true or false"),
        (_child_with('"relation_name": {"x": 1}'),
         "queries[0].plan.children[0]: field 'relation_name' must be a string"),
        (_child_with('"sort_key": 3'),
         "queries[0].plan.children[0]: field 'sort_key' must be a string"),
        ('[{"query_id": "a", "plan": {"node_type": 7}}]',
         "queries[0].plan: field 'node_type' must be a string"),
        ('[{"query_id": "a", "plan": {"node_type": null}}]',
         "queries[0].plan: field 'node_type' must be a string"),
        (_child_with('"plan_rows": "12"'),
         "queries[0].plan.children[0]: field 'plan_rows' is not a number: '12'"),
        (_child_with('"total_cost": true'),
         "queries[0].plan.children[0]: field 'total_cost' is not a number: True"),
        (_child_with('"actual_rows": "3.5"'),
         "queries[0].plan.children[0]: field 'actual_rows' is not a number: '3.5'"),
        (_child_with('"plan_rows": 1%s' % ("0" * 400)),
         "queries[0].plan.children[0]: field 'plan_rows' must be finite and >= 0, got inf"),
        ('[{"query_id": {"a": 1}, "plan": {"node_type": "Sort"}}]',
         "queries[0]: want a string 'query_id'"),
        ('[{"query_id": "5", "plan": {"node_type": "Sort"}}, '
         '{"query_id": 5, "plan": {"node_type": "Sort"}}]',
         "queries[1]: want a string 'query_id'"),
        ('[{"query_id": "a", "user": true, "plan": {"node_type": "Sort"}}]',
         "queries[0]: want a string 'query_id' and a string or null 'user'"),
        ('[{"query_id": "a", "user": 3, "plan": {"node_type": "Sort"}}]',
         "queries[0]: want a string 'query_id' and a string or null 'user'"),
        (_child_with('"children": 5'),
         "queries[0].plan.children[0]: field 'children' must be a list or null, got int"),
        (_child_with('"children": true'),
         "queries[0].plan.children[0]: field 'children' must be a list or null, got bool"),
        (_child_with('"children": {"a": 1}'),
         "queries[0].plan.children[0]: field 'children' must be a list or null, got dict"),
        (_child_with('"children": {}'),
         "queries[0].plan.children[0]: field 'children' must be a list or null, got dict"),
        ('[{"query_id": "a", "plan": {"node_type": "Sort", "children": 0}}]',
         "queries[0].plan: field 'children' must be a list or null, got int"),
        ('[{"query_id": "a", "plan": {"node_type": "Sort", "children": ""}}]',
         "queries[0].plan: field 'children' must be a list or null, got str"),
    ],
    ids=["int-entry", "str-entry", "dict-queries", "str-queries", "bool-string", "bool-number",
         "categorical-object", "categorical-number", "node-type-number", "node-type-null",
         "numeric-string", "numeric-bool", "optional-numeric-string", "int-past-float-range",
         "query-id-object", "query-id-int", "user-bool", "user-number", "children-int",
         "children-bool", "children-object", "children-empty-object", "children-zero",
         "children-empty-string"],
)
def test_malformed_queries_name_their_path(tmp_path, queries, where):
    with pytest.raises(PlanFormatError, match=re.escape(where)):
        _load_text(tmp_path, '{"queries": %s}' % queries)


@pytest.mark.parametrize(
    "attr, where",
    [('[1, "x"]', "'attr_mins[1]' is not a number"),
     ("[NaN]", "'attr_mins[0]' must be finite"),
     ("[2, Infinity]", "'attr_mins[1]' must be finite"),
     ("[null]", "'attr_mins[0]' is not a number"),
     ('["1.5", false]', "'attr_mins[0]' is not a number: '1.5'"),
     ("[1.5, false]", "'attr_mins[1]' is not a number: False"),
     ("[2, 1%s]" % ("0" * 400), "'attr_mins[1]' must be finite, got inf")],
    ids=["str", "nan", "inf", "null", "numeric-string", "bool", "int-past-float-range"],
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


def _chain(levels):
    """A plan of `levels` levels: Sorts over one scan."""
    root = scan()
    for _ in range(levels - 1):
        root = PlanNode(node_type="Sort", children=[root])
    return root


def test_save_corpus_writes_what_load_reads_or_no_file(tmp_path, monkeypatch):
    deepest = Corpus([QueryRecord("flat", None, scan()),
                      QueryRecord("deep", None, _chain(MAX_PLAN_DEPTH))])
    path = tmp_path / "deepest.json"
    save_corpus(deepest, path)
    assert corpus_to_dict(load_corpus(path)) == corpus_to_dict(deepest)

    over = tmp_path / "over"
    over.mkdir()
    too_deep = Corpus([QueryRecord("flat", None, scan()),
                       QueryRecord("deep", None, _chain(MAX_PLAN_DEPTH + 1))])
    with pytest.raises(PlanFormatError, match="query 'deep': plan nesting is deeper than"):
        save_corpus(too_deep, over / "deep.json")
    assert list(over.iterdir()) == []

    # a write that fails half way removes its temporary file
    real_open, files = open, []

    class DiskFull:
        """A file that takes its first chunk, then fails as a full disk does."""

        def __init__(self, *args, **kwargs):
            self.f, self.chunks = real_open(*args, **kwargs), 0
            files.append(self)

        def write(self, text):
            if self.chunks:
                raise OSError(errno.ENOSPC, "No space left on device")
            self.chunks += 1
            return self.f.write(text)

        def writelines(self, texts):
            for text in texts:
                self.write(text)

        def close(self):
            self.f.close()

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.f.close()

    monkeypatch.setattr(plans, "open", DiskFull, raising=False)
    with pytest.raises(OSError, match="No space left"):
        save_corpus(deepest, over / "full.json")
    assert [f.chunks for f in files] == [1]
    assert list(over.iterdir()) == []


def _bad(**fields):
    """A Sort over one scan that carries the given fields."""
    return PlanNode(node_type="Sort", children=[dataclasses.replace(scan(), **fields)])


@pytest.mark.parametrize(
    "record, where",
    [(QueryRecord("odd", None, _bad(plan_rows=float("nan"))),
      "query 'odd' at queries[1].plan.children[0]: field 'plan_rows' must be finite and >= 0, "
      "got nan"),
     (QueryRecord("odd", None, _bad(total_cost=-1.0)),
      "query 'odd' at queries[1].plan.children[0]: field 'total_cost' must be finite and >= 0"),
     (QueryRecord("odd", None, _bad(attr_mins=(1.0, float("inf")))),
      "query 'odd' at queries[1].plan.children[0]: field 'attr_mins[1]' must be finite, got inf"),
     (QueryRecord("odd", None, _bad(attr_maxs=7.0)),
      "query 'odd' at queries[1].plan.children[0]: field 'attr_maxs' must be a list of numbers"),
     (QueryRecord("odd", None, _bad(scan_direction=1)),
      "query 'odd' at queries[1].plan.children[0]: field 'scan_direction' must be true or false"),
     (QueryRecord("odd", None, _bad(join_type=5)),
      "query 'odd' at queries[1].plan.children[0]: field 'join_type' must be a string, got 5"),
     (QueryRecord("odd", None, _bad(relation_name=object())),
      "query 'odd' at queries[1].plan.children[0]: field 'relation_name' must be a string"),
     (QueryRecord("odd", None, _bad(actual_rows="3")),
      "query 'odd' at queries[1].plan.children[0]: field 'actual_rows' is not a number: '3'"),
     (QueryRecord("odd", None, PlanNode(node_type=None, children=[scan()])),
      "query 'odd' at queries[1].plan: field 'node_type' must be a string, got None"),
     (QueryRecord("odd", None, PlanNode(node_type="Sort", children=[{"node_type": "SeqScan"}])),
      "query 'odd' at queries[1].plan.children[0]: plan node must be a PlanNode, got dict"),
     (QueryRecord("odd", 3, scan()),
      "queries[1]: want a string 'query_id' and a string or null 'user'"),
     (QueryRecord(7, None, scan()),
      "queries[1]: want a string 'query_id' and a string or null 'user'"),
     (QueryRecord("flat", None, scan()), "queries[1]: duplicate query_id 'flat'")],
    ids=["nan-rows", "negative-cost", "inf-attr", "attr-not-a-list", "int-bool",
         "int-categorical", "object-categorical", "string-numeric", "null-node-type",
         "dict-child", "int-user", "int-query-id", "duplicate-query-id"],
)
def test_save_corpus_refuses_what_load_corpus_refuses(tmp_path, record, where):
    corpus = Corpus([QueryRecord("flat", None, scan()), record])
    with pytest.raises(PlanFormatError) as err:
        save_corpus(corpus, tmp_path / "odd.json")
    assert str(err.value).startswith(where), str(err.value)
    assert list(tmp_path.iterdir()) == []


def _assert_saved_as_json_dumps(tmp_path, corpus):
    path = tmp_path / "oracle.json"
    save_corpus(corpus, path)
    assert path.read_bytes() == (json.dumps(corpus_to_dict(corpus), indent=1) + "\n").encode()


@pytest.mark.parametrize("preset", sorted(PRESETS))
@pytest.mark.parametrize("seed", [0, 1])
def test_save_corpus_writes_json_dumps_bytes_for_every_preset(tmp_path, preset, seed):
    _assert_saved_as_json_dumps(
        tmp_path, generate(dataclasses.replace(PRESETS[preset](seed=seed), n_queries=80)))


@pytest.mark.parametrize(
    "records",
    [[],
     [QueryRecord("empty-stats", None, scan(attr_mins=(), attr_medians=(0.5,)))],
     [QueryRecord("ints", None, PlanNode(node_type="HashJoin", plan_rows=5, plan_width=0,
                                         hash_buckets=1024, attr_mins=(1, 2.5, -3),
                                         attr_maxs=(4, 5), children=[scan(rows=7)]))],
     [QueryRecord("no-user", None, scan()), QueryRecord("zoë", "zoë", scan()),
      QueryRecord("用户", "用户   \U0001f600", scan())],
     [QueryRecord('say "hi" \\ bye', None, scan(relation_name='rel "a" \\ b\n\t'))],
     [QueryRecord("flags", "u", PlanNode(node_type="Aggregate", partial_mode=False,
                                         children=[scan(scan_direction=True)]))],
     [QueryRecord("null-core", None, PlanNode(node_type="Result", plan_width=None))],
     [QueryRecord("three", None, PlanNode(node_type="Append",
                                          children=[scan(1), _chain(3), scan(3)]))],
     [QueryRecord("deepest", None, _chain(MAX_PLAN_DEPTH)), QueryRecord("after", None, scan())]],
    ids=["empty-corpus", "empty-stats", "int-numerics", "users", "quote-backslash",
         "booleans", "null-core-numeric", "three-children", "deepest-chain"],
)
def test_save_corpus_writes_json_dumps_bytes_for_hand_built_plans(tmp_path, records):
    _assert_saved_as_json_dumps(tmp_path, Corpus(records))


def _call_near_the_recursion_limit(fn, headroom=100):
    """Call fn with the stack within `headroom` frames of the recursion limit."""
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1

    def down(k):
        return fn() if k <= 0 else down(k - 1)

    return down(sys.getrecursionlimit() - headroom - depth - 1)


def test_save_and_dict_conversion_need_no_stack_per_plan_level(tmp_path):
    deepest = Corpus([QueryRecord("deep", None, _chain(MAX_PLAN_DEPTH))])
    path = tmp_path / "deep.json"
    _call_near_the_recursion_limit(lambda: save_corpus(deepest, path))
    as_dict = _call_near_the_recursion_limit(lambda: corpus_to_dict(deepest))
    assert json.loads(path.read_text()) == as_dict


def test_no_function_in_plans_calls_itself():
    tree = ast.parse(inspect.getsource(plans))
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            called = {node.func.id for node in ast.walk(fn)
                      if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
            assert fn.name not in called, f"plans.{fn.name} calls itself"


def test_unknown_keys_are_reported_in_walk_order(tmp_path, caplog):
    leaf = '{"node_type": "SeqScan", "%s": 1}'
    plan = ('{"node_type": "HashJoin", "x0": 1, "children": [{"node_type": "Hash", "x1": 1, '
            '"children": [%s]}, %s]}' % (leaf % "x2", leaf % "x3"))
    with caplog.at_level(logging.WARNING, logger="opembed.plans"):
        _load_text(tmp_path, '{"queries": [{"query_id": "a", "plan": %s}]}' % plan)
    assert [r.getMessage() for r in caplog.records] == [
        "queries[0].plan: ignoring unknown keys ['x0']",
        "queries[0].plan.children[0]: ignoring unknown keys ['x1']",
        "queries[0].plan.children[0].children[0]: ignoring unknown keys ['x2']",
        "queries[0].plan.children[1]: ignoring unknown keys ['x3']",
    ]


def test_hand_written_plan_past_the_depth_bound_is_refused_on_load(tmp_path):
    levels = MAX_PLAN_DEPTH + 1
    sort = '{"node_type": "Sort", "children": ['
    plan = sort * (levels - 1) + '{"node_type": "SeqScan"}' + "]}" * (levels - 1)
    path = tmp_path / "over.json"
    path.write_text('{"queries": [{"query_id": "q", "plan": %s}]}' % plan)
    where = "queries[0].plan" + ".children[0]" * (levels - 1)
    with pytest.raises(PlanFormatError) as err:
        load_corpus(path)
    assert str(err.value).startswith(f"{where}: plan nesting is deeper than {MAX_PLAN_DEPTH}")

    result = CliRunner().invoke(main, ["train-embedding", "--corpus", str(path),
                                       "--encoder-out", str(tmp_path / "enc.opeb")])
    assert result.exit_code == 1, result.output
    lines = result.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {where}: plan nesting"), lines


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


@pytest.mark.parametrize("enabled", [True, False])
def test_load_corpus_pauses_the_collector_and_restores_its_state(tmp_path, monkeypatch, enabled):
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    save_corpus(Corpus([QueryRecord("q", None, scan())]), good)
    bad.write_text('{"queries": [{"query_id": "q", "plan": {"plan_rows": 1}}]}')
    during = []
    parse = plans._parse_node
    monkeypatch.setattr(plans, "_parse_node",
                        lambda *args: during.append(gc.isenabled()) or parse(*args))
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        load_corpus(good)
        assert gc.isenabled() is enabled
        with pytest.raises(PlanFormatError, match="node_type"):
            load_corpus(bad)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert during == [False, False]
