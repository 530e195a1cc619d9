import dataclasses
import json
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from opembed.errors import SchemaError
from opembed.featurize import (
    BOOLEAN,
    MIN_BLOCKED_WIDTH,
    MIN_STDDEV,
    READ_BLOCK_ROWS,
    STDDEV_SENTINEL,
    build_schema,
    corpus_operators,
    encode,
    encode_corpus,
    encode_in_blocks,
    encode_rows,
    fit_encode,
    schema_from_json,
    schema_hash,
    schema_to_json,
)
from opembed.plans import (
    ATTR_STAT_FIELDS,
    CORE_NUMERIC_FIELDS,
    OPTIONAL_BOOLEAN_FIELDS,
    OPTIONAL_CATEGORICAL_FIELDS,
    Corpus,
    PlanNode,
    QueryRecord,
    iter_nodes,
    subcorpus,
    walk_operators,
)
from opembed.featurizer import Featurizer
from opembed.hourglass import HourglassSpec, build, cut_off
from opembed.reducers import fit_fa, fit_pca
from opembed.synth import PRESETS, SynthConfig, generate, tpcds_like_config


def _reference_encode(schema, node, tally=None):
    """The scalar per-node encoder, one slot at a time: the reference that
    batch encoding must match byte for byte."""
    vec = np.zeros(schema.total_dim, dtype=np.float64)

    def set_categorical(group, value):
        if value is None or group not in schema.vocab:
            return
        idx = schema.vocab[group].get(value)
        if idx is None:
            if tally is not None:
                tally[group] += 1
            return
        vec[idx] = 1.0

    set_categorical("node_type", node.node_type)
    for field in OPTIONAL_CATEGORICAL_FIELDS:
        set_categorical(field, getattr(node, field))
    raws = [(float(getattr(node, f)), schema.index[f]) for f in CORE_NUMERIC_FIELDS]
    if node.hash_buckets is not None and "hash_buckets" in schema.index:
        raws.append((float(node.hash_buckets), schema.index["hash_buckets"]))
    for field in ATTR_STAT_FIELDS:
        if f"{field}[0]" in schema.index:
            raws += [(float(raw), schema.index[f"{field}[{j}]"])
                     for j, raw in enumerate(getattr(node, field) or ())]
    for raw, idx in raws:
        mean, std = schema.stats[idx]
        vec[idx] = (raw - mean) / std
    for field in OPTIONAL_BOOLEAN_FIELDS:
        value = getattr(node, field)
        if value is not None and field in schema.index:
            vec[schema.index[field]] = 1.0 if value else 0.0
    return vec


def _assert_matches_reference(schema, corpus):
    nodes = [item.node for item in walk_operators(corpus)]
    want_tally, got_tally = Counter(), Counter()
    want = np.stack([_reference_encode(schema, node, want_tally) for node in nodes])
    assert encode_corpus(schema, corpus).X.tobytes() == want.tobytes()
    per_record = [encode_rows(schema, list(iter_nodes(r.root)), got_tally)
                  for r in corpus.records]
    assert np.concatenate(per_record).tobytes() == want.tobytes()
    assert got_tally == want_tally


def _assert_stats_match_reference(schema, corpus):
    """Each numeric slot's stats are, bit for bit, the mean and stddev (the
    sentinel below MIN_STDDEV) of the values present there, gathered one node
    and one field at a time in walk order; (0, sentinel) where none is."""
    present = {idx: [] for idx in schema.stats}
    for item in walk_operators(corpus):
        for field in CORE_NUMERIC_FIELDS + ("hash_buckets",):
            if getattr(item.node, field) is not None:
                present[schema.index[field]].append(float(getattr(item.node, field)))
        for field in ATTR_STAT_FIELDS:
            for j, raw in enumerate(getattr(item.node, field) or ()):
                present[schema.index[f"{field}[{j}]"]].append(float(raw))
    want = []
    for values in present.values():
        mean, std = (float(np.mean(values)), float(np.std(values))) if values else (0.0, 0.0)
        want.append((mean, std if std >= MIN_STDDEV else STDDEV_SENTINEL))
    assert list(schema.stats) == list(present)
    assert np.array(list(schema.stats.values())).tobytes() == np.array(want).tobytes()


def _assert_fit_encode_matches_build_then_encode(corpus):
    schema, table = fit_encode(corpus)
    want_schema = build_schema(corpus)
    want = encode_corpus(want_schema, corpus)
    assert schema_hash(schema) == schema_hash(want_schema)
    assert table.ids == want.ids
    for name in ("X", "children", "query_index"):
        got, expected = getattr(table, name), getattr(want, name)
        assert got.dtype == expected.dtype and got.shape == expected.shape, name
        assert got.tobytes() == expected.tobytes(), name


def mini_corpus():
    left = PlanNode(node_type="SeqScan", plan_rows=10.0, total_cost=1.0)
    right = PlanNode(node_type="SeqScan", plan_rows=30.0, total_cost=3.0)
    join = PlanNode(
        node_type="MergeJoin", plan_rows=20.0, total_cost=5.0,
        join_type="inner", children=[left, right],
    )
    return Corpus([QueryRecord("q0", "u0", join)])


def test_vocab_is_observed_set():
    schema = build_schema(mini_corpus())
    lo, hi = schema.groups["node_type"]
    assert hi - lo == 2
    lo, hi = schema.groups["join_type"]
    assert hi - lo == 1


def test_wide_corpus_dim_in_the_hundreds():
    corpus = generate(tpcds_like_config())
    schema = build_schema(corpus)
    assert 280 <= schema.total_dim <= 478


def test_constant_numeric_gets_sentinel_and_zero_encoding():
    corpus = mini_corpus()
    schema = build_schema(corpus)
    # every node shares plan_width 0.0, so the slot is degenerate
    idx = next(i for i, s in enumerate(schema.slots) if s.name == "plan_width")
    mean, std = schema.stats[idx]
    assert std == STDDEV_SENTINEL
    for item in walk_operators(corpus):
        vec = encode(schema, item.node)
        assert vec[idx] == 0.0


def test_mean_value_encodes_to_zero():
    corpus = mini_corpus()
    schema = build_schema(corpus)
    node = PlanNode(node_type="SeqScan", plan_rows=20.0, total_cost=3.0)
    vec = encode(schema, node)
    names = [s.name for s in schema.slots]
    assert vec[names.index("plan_rows")] == 0.0
    lo, hi = schema.groups["node_type"]
    assert vec[lo:hi].sum() == 1.0
    lo, hi = schema.groups["join_type"]
    assert not vec[lo:hi].any()


def test_unseen_categorical_encodes_all_zero_and_tallies(corpus60, schema60):
    node = PlanNode(
        node_type="IndexScan", plan_rows=5.0, total_cost=1.0,
        index_name="idx_never_seen", relation_name="rel_0",
    )
    tally: Counter = Counter()
    vec = encode(schema60, node, tally)
    lo, hi = schema60.groups["index_name"]
    assert not vec[lo:hi].any()
    assert tally["index_name"] == 1


def check_vector(schema, vec: np.ndarray) -> list[str]:
    """Invariant violations of an encoded vector (empty list = valid)."""
    problems = []
    if vec.shape != (schema.total_dim,):
        return [f"wrong shape {vec.shape}, want ({schema.total_dim},)"]
    if not np.all(np.isfinite(vec)):
        problems.append("non-finite entries")
    for group, (start, stop) in schema.groups.items():
        seg = vec[start:stop]
        if not np.all(np.isin(seg, (0.0, 1.0))):
            problems.append(f"group {group} has values outside {{0,1}}")
        if seg.sum() > 1.0:
            problems.append(f"group {group} has more than one active slot")
    for i, slot in enumerate(schema.slots):
        if slot.kind == BOOLEAN and vec[i] not in (0.0, 1.0):
            problems.append(f"boolean slot {slot.name} = {vec[i]!r}")
    return problems


def test_thousand_random_nodes_no_violations():
    corpus = generate(SynthConfig(n_queries=150, seed=21))
    schema = build_schema(corpus)
    checked = 0
    for item in walk_operators(corpus):
        vec = encode(schema, item.node)
        assert check_vector(schema, vec) == []
        checked += 1
        if checked >= 1000:
            break
    assert checked == 1000


def test_standardization_over_corpus(corpus60, schema60):
    X = np.stack([encode(schema60, it.node) for it in walk_operators(corpus60)])
    names = [s.name for s in schema60.slots]
    col = X[:, names.index("total_cost")]
    assert abs(col.mean()) < 1e-9
    assert abs(col.std() - 1.0) < 1e-9


def test_encode_corpus_sort_over_scan():
    leaf = PlanNode(node_type="SeqScan", plan_rows=4.0, total_cost=1.0)
    sort = PlanNode(node_type="Sort", plan_rows=4.0, total_cost=2.0, children=[leaf])
    corpus = Corpus([QueryRecord("q", None, sort)])
    schema = build_schema(corpus)
    table = encode_corpus(schema, corpus)
    assert table.ids == ["q#0", "q#1"]
    assert table.query_index.tolist() == [0, 0]
    assert table.children.tolist() == [[1, -1], [-1, -1]]
    assert np.array_equal(table.X[1], encode(schema, leaf))


def test_encode_corpus_keeps_first_two_children():
    kids = [
        PlanNode(node_type="SeqScan", plan_rows=float(i + 1), total_cost=1.0)
        for i in range(3)
    ]
    append = PlanNode(node_type="Append", plan_rows=6.0, total_cost=3.0, children=kids)
    corpus = Corpus([QueryRecord("q", None, append)])
    table = encode_corpus(build_schema(corpus), corpus)
    assert len(table) == 4
    assert table.children.tolist() == [[1, 2], [-1, -1], [-1, -1], [-1, -1]]


def test_encode_corpus_rows_and_children_match_encode(corpus60, schema60):
    table = encode_corpus(schema60, corpus60)
    items = list(walk_operators(corpus60))
    assert len(table.X) == len(items)
    for r, item in enumerate(items):
        assert np.array_equal(table.X[r], encode(schema60, item.node))
        kids = item.node.children[:2]
        for k, child in enumerate(kids + [None] * (2 - len(kids))):
            if child is None:
                assert table.children[r, k] == -1
            else:
                assert np.array_equal(table.X[table.children[r, k]], encode(schema60, child))


def test_schema_json_round_trip(schema60):
    text = schema_to_json(schema60)
    again = schema_from_json(text)
    assert schema_hash(again) == schema_hash(schema60)
    for name in ("total_dim", "vocab", "groups", "index", "stats"):
        assert getattr(again, name) == getattr(schema60, name), name


def _unhashed_payload(schema):
    payload = json.loads(schema_to_json(schema))
    del payload["hash"]
    return payload


def test_schema_json_slots_decide_where_values_encode():
    corpus = mini_corpus()
    payload = _unhashed_payload(build_schema(corpus))
    payload["vocab"]["node_type"].reverse()
    schema = schema_from_json(json.dumps(payload))
    for item in walk_operators(corpus):
        start, stop = schema.groups["node_type"]
        (hot,) = np.flatnonzero(encode(schema, item.node)[start:stop]) + start
        assert schema.slots[hot].name == f"node_type={item.node.node_type}"


def test_schema_json_rejects_split_group(schema60):
    payload = _unhashed_payload(schema60)
    slots = payload["slots"]
    start, _ = schema60.groups["node_type"]
    slots.insert(start + 1, slots.pop(schema60.index["plan_width"]))
    with pytest.raises(SchemaError, match="node_type.*not contiguous"):
        schema_from_json(json.dumps(payload))


def test_schema_json_rejects_tampering(schema60):
    text = schema_to_json(schema60)
    broken = text.replace('"plan_rows"', '"plan_rowz"', 1)
    with pytest.raises(SchemaError):
        schema_from_json(broken)


@pytest.mark.parametrize("edit, reason", [
    ({"kind": "bogus"}, "('plan_rows') has kind 'bogus', group None; fit_encode gives"),
    ({"kind": "boolean"}, "('plan_rows') has kind 'boolean', group None; fit_encode gives"),
    ({"kind": "categorical", "group": "plan_rows"}, "('plan_rows') has kind 'categorical'"),
    ({"name": "plan_rowz"}, "('plan_rowz') names no operator field"),
], ids=["bogus", "boolean", "categorical", "no-field"])
def test_schema_json_rejects_a_slot_its_field_does_not_give(schema60, edit, reason):
    # loaded, such a slot would take raw plan_rows values where the fit puts z-scores
    payload = _unhashed_payload(schema60)
    idx = schema60.index["plan_rows"]
    payload["slots"][idx].update(edit)
    del payload["stats"][str(idx)]
    with pytest.raises(SchemaError) as err:
        schema_from_json(json.dumps(payload))
    assert str(err.value).startswith(f"slot {idx} {reason}")


def test_export_csv_round_trip(tmp_path, corpus60, schema60):
    from opembed.cli import _read_feature_csv, _write_feature_csv

    table = encode_corpus(schema60, corpus60)
    ids, X = table.ids[:20], table.X[:20]
    path = tmp_path / "x.csv"
    _write_feature_csv(path, ids, [s.name for s in schema60.slots], X)
    header = path.read_text().splitlines()[0]
    assert header.split(",") == ["id"] + [s.name for s in schema60.slots]
    back_ids, back = _read_feature_csv(path)
    assert back_ids == ids
    assert np.array_equal(back, X)


def test_attr_overflow_rejected():
    node = PlanNode(
        node_type="SeqScan", plan_rows=1.0, total_cost=1.0,
        relation_name="r", attr_mins=(1.0, 2.0), attr_medians=(1.5, 2.5),
        attr_maxs=(2.0, 3.0),
    )
    corpus = Corpus([QueryRecord("q", None, node)])
    schema = build_schema(corpus)
    wide = PlanNode(
        node_type="SeqScan", plan_rows=1.0, total_cost=1.0,
        relation_name="r", attr_mins=(1.0, 2.0, 3.0),
    )
    with pytest.raises(SchemaError):
        encode(schema, wide)


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_batch_encoding_matches_reference_with_a_schema_fit_on_a_fifth(preset):
    corpus = generate(dataclasses.replace(PRESETS[preset](seed=11), n_queries=100))
    for fit in (subcorpus(corpus, range(20)), corpus):
        schema = build_schema(fit)
        _assert_stats_match_reference(schema, fit)
        _assert_matches_reference(schema, corpus)
        _assert_fit_encode_matches_build_then_encode(fit)


def test_batch_encoding_matches_reference_on_hand_built_nodes():
    def scan(**fields):
        return PlanNode(node_type="SeqScan", plan_rows=3.0, total_cost=2.0, **fields)

    full = scan(relation_name="r", attr_mins=(1.0, 2.0, 3.0), attr_medians=(2.0, 3.0, 4.0),
                attr_maxs=(3.0, 4.0, 5.0), scan_direction=True)
    short = scan(relation_name="s", attr_mins=(0.5,), attr_maxs=(7.0, 8.0), scan_direction=False)
    bare = scan()
    join = PlanNode(node_type="HashJoin", plan_rows=9.0, total_cost=11.0, join_type="inner",
                    hash_buckets=1024.0, hash_algorithm="murmur", children=[full, short, bare])
    agg = PlanNode(node_type="Aggregate", plan_rows=1.0, agg_strategy="hashed",
                   partial_mode=False, children=[join])
    corpus = Corpus([QueryRecord("q0", None, agg), QueryRecord("q1", "u", scan(attr_mins=()))])
    schema = build_schema(corpus)
    assert schema.attr_width == 3 and "hash_buckets" in schema.index
    _assert_stats_match_reference(schema, corpus)
    _assert_matches_reference(schema, corpus)
    _assert_fit_encode_matches_build_then_encode(corpus)
    unseen = PlanNode(node_type="Sort", sort_key="k", join_type="anti", relation_name="r",
                      index_name="i", attr_medians=(1.0,), children=[scan(hash_buckets=2.0)])
    _assert_matches_reference(schema, Corpus([QueryRecord("q2", None, unseen)]))
    # present zeros next to absent fields: a zero that is there counts in the stats
    zeros = PlanNode(node_type="HashJoin", plan_width=0.0, plan_rows=2.0, hash_buckets=0.0,
                     children=[scan(plan_width=8.0, attr_mins=(0.0, 0.0), attr_maxs=(0.0, 5.0),
                                    hash_buckets=6.0),
                               scan(plan_width=0.0, attr_mins=(4.0,))])
    mixed = Corpus([QueryRecord("q0", None, zeros), QueryRecord("q1", None, scan(plan_width=3.0))])
    schema = build_schema(mixed)
    _assert_stats_match_reference(schema, mixed)
    _assert_matches_reference(schema, mixed)
    _assert_fit_encode_matches_build_then_encode(mixed)


def test_an_empty_corpus_fits_no_schema():
    for fit in (build_schema, fit_encode):
        with pytest.raises(SchemaError, match="^cannot build a schema from an empty corpus$"):
            fit(Corpus([]))


@pytest.mark.parametrize("preset", ["planted-card", "tpcds-like"])
def test_encode_corpus_peak_memory_is_near_the_size_of_X(preset):
    corpus = generate(dataclasses.replace(PRESETS[preset](seed=2), n_queries=200))
    schema = build_schema(corpus)
    for encode_it in (lambda: encode_corpus(schema, corpus), lambda: fit_encode(corpus)[1]):
        tracemalloc.start()
        try:
            table = encode_it()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * table.X.nbytes, (peak, table.X.nbytes)


def test_schema_json_rejects_stats_off_the_numeric_slots(schema60):
    payload = _unhashed_payload(schema60)
    payload["stats"]["0"] = [0.0, 1.0]  # slot 0 is the first node_type one-hot
    with pytest.raises(SchemaError, match=r"stats for slot 0 \(not numeric\)"):
        schema_from_json(json.dumps(payload))


@pytest.fixture(scope="module")
def wide():
    """A tpcds-like corpus of about 1,300 operators on its wide schema, and a
    featurizer of each kind: untrained encoders (the default trunk, a small
    one, each also cut before the embedding's norm and ReLU, and two with a
    layer under MIN_BLOCKED_WIDTH wide), PCA, FA and sparse rows."""
    corpus = generate(dataclasses.replace(tpcds_like_config(seed=5), n_queries=170))
    schema = build_schema(corpus)
    nodes, _, _ = corpus_operators(corpus)
    X = encode_rows(schema, nodes)
    models = {"sparse": None, "pca": fit_pca(X, 16), "fa": fit_fa(X, 8),
              "pca-2": fit_pca(X, 2), "pca-4": fit_pca(X, 4)}
    for name, hidden, dim in (("default", (256, 256, 128, 128, 64, 64), 32),
                              ("small", (48, 24), 8), ("narrow-4", (64, 32), 4),
                              ("narrow-2", (4,), 2)):
        enet = build(HourglassSpec(hidden, dim, seed=1), schema)
        models[name] = cut_off(enet)
        models[f"{name}-pre"] = cut_off(enet, pre_activation=True)
    return schema, nodes, {k: Featurizer(schema, m) for k, m in models.items()}


@pytest.mark.parametrize("n", [1, 4, 5, 255, 256, 511, 512, None])  # None: every operator
@pytest.mark.parametrize("kind", ["default", "default-pre", "small", "small-pre", "narrow-4",
                                  "narrow-2-pre", "pca", "pca-2", "pca-4", "fa", "sparse"])
def test_encode_in_blocks_matches_one_transform_of_all_rows(wide, kind, n):
    schema, nodes, featurizers = wide
    nodes = nodes[:n]
    assert n is not None or len(nodes) > 5 * READ_BLOCK_ROWS
    feat = featurizers[kind]
    want = feat.transform(encode_rows(schema, nodes))
    got = encode_in_blocks(schema, nodes, feat.transform, feat.narrowest)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n, narrowest, sizes", [
    (1, 5, [1]), (511, 5, [511]), (512, 5, [256, 256]), (1031, 5, [258, 258, 258, 257]),
    (1031, 4, [1031]),
])
def test_encode_in_blocks_transforms_blocks_of_at_least_read_block_rows(wide, n, narrowest,
                                                                        sizes):
    schema, nodes, featurizers = wide
    assert MIN_BLOCKED_WIDTH == 5
    seen = []
    encode_in_blocks(schema, nodes[:n], lambda X: seen.append(len(X)) or X, narrowest)
    assert seen == sizes
    assert [featurizers[k].narrowest for k in ("default", "narrow-4", "pca-2", "fa", "sparse")] \
        == [32, 4, 2, 8, schema.total_dim]


def test_encode_in_blocks_refuses_no_operators(schema60):
    with pytest.raises(ValueError, match="no operators to encode"):
        encode_in_blocks(schema60, [], lambda X: X, schema60.total_dim)
    with pytest.raises(ValueError, match="no operators to encode"):
        corpus_operators(Corpus())
