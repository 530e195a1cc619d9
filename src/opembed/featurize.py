"""Corpus-derived sparse operator encoding.

The schema is rebuilt from whatever corpus it is given: categorical
vocabularies are the observed value sets (first-appearance order), numeric
slots are z-scored with stats from the operators where the field applies,
and anything inapplicable to a node encodes as zeros.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import operator
import sys
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import SchemaError
from .plans import (
    ATTR_STAT_FIELDS,
    CORE_NUMERIC_FIELDS,
    OPTIONAL_BOOLEAN_FIELDS,
    OPTIONAL_CATEGORICAL_FIELDS,
    Corpus,
    PlanNode,
    iter_nodes,
)

NUMERIC, BOOLEAN, CATEGORICAL = "numeric", "boolean", "categorical"

STDDEV_SENTINEL = 1.0
MIN_STDDEV = 1e-12  # a smaller stddev is degenerate; fit_encode stores the sentinel

# rows encoded at once: a block's entry lists take more memory than its rows
# of X, so only one block's lists exist at a time
ENCODE_BLOCK_ROWS = 64

# each operator field, in the order its slots take in the layout
_FIELDS = ("node_type", *CORE_NUMERIC_FIELDS, "join_type", "parent_relationship", "hash_buckets",
           "hash_algorithm", "sort_key", "sort_method", "relation_name", *ATTR_STAT_FIELDS,
           "index_name", "scan_direction", "agg_strategy", "partial_mode", "agg_operator")
_field_values = operator.attrgetter(*_FIELDS)
# the kind of every slot fit_encode gives a field
_SLOT_KINDS = {f: CATEGORICAL if f in ("node_type",) + OPTIONAL_CATEGORICAL_FIELDS
               else BOOLEAN if f in OPTIONAL_BOOLEAN_FIELDS else NUMERIC for f in _FIELDS}


@dataclass(frozen=True)
class SlotSpec:
    name: str
    kind: str
    group: str | None = None  # categorical group, if any


@dataclass(frozen=True)
class FeatureSchema:
    """The sparse layout. Only the slots, the z-score stats and the attribute
    width are stored; every index map below is derived from the slots. A
    slot has the kind and group fit_encode gives the field it names, and the
    stats hold a finite (mean, stddev >= MIN_STDDEV) pair per numeric slot."""

    slots: tuple[SlotSpec, ...]
    stats: dict[int, tuple[float, float]]  # numeric slot -> (mean, stddev)
    attr_width: int
    total_dim: int = dataclasses.field(init=False)
    vocab: dict[str, dict[str, int]] = dataclasses.field(init=False)  # group -> value -> slot
    groups: dict[str, tuple[int, int]] = dataclasses.field(init=False)  # group -> (start, stop)
    index: dict[str, int] = dataclasses.field(init=False)  # slot name -> slot
    # (2, total_dim): each slot's z-score mean and stddev, 0 and 1 off numeric slots
    z: np.ndarray = dataclasses.field(init=False, repr=False, compare=False)
    # set by the first schema_hash call; declared so the attribute exists from
    # construction: adding one later (as functools.cached_property does) takes
    # the schema off CPython's fast attribute path, which encoding reads it by
    _digest: str | None = dataclasses.field(init=False, default=None, repr=False, compare=False)

    def __post_init__(self):
        vocab: dict[str, dict[str, int]] = {}
        for i, slot in enumerate(self.slots):
            field = slot.name.partition("=")[0].partition("[")[0]
            kind = _SLOT_KINDS.get(field)
            if kind is None:
                raise SchemaError(f"slot {i} ({slot.name!r}) names no operator field")
            group = field if kind == CATEGORICAL else None
            if (slot.kind, slot.group) != (kind, group):
                raise SchemaError(f"slot {i} ({slot.name!r}) has kind {slot.kind!r}, group "
                                  f"{slot.group!r}; fit_encode gives {field} {kind!r}, {group!r}")
            if slot.kind == CATEGORICAL:
                # a categorical slot is named "<group>=<value>"
                vocab.setdefault(slot.group, {})[slot.name[len(slot.group) + 1:]] = i
        groups = {}
        for group, index in vocab.items():
            start = min(index.values())
            if max(index.values()) - start + 1 != len(index):
                raise SchemaError(f"categorical group {group!r} is not contiguous")
            groups[group] = (start, start + len(index))
        numeric = {i: slot.name for i, slot in enumerate(self.slots) if slot.kind == NUMERIC}
        z = np.array([np.zeros(len(self.slots)), np.ones(len(self.slots))])
        for idx in sorted(numeric.keys() | self.stats.keys()):
            pair = self.stats.get(idx)
            # abs(v) <= max is False for inf, NaN and an int past the float range
            if not (idx in numeric and type(pair) in (tuple, list) and len(pair) == 2
                    and all(type(v) in (int, float) and abs(v) <= sys.float_info.max
                            for v in pair) and pair[1] >= MIN_STDDEV):
                raise SchemaError(f"stats for slot {idx} ({numeric.get(idx, 'not numeric')}) must "
                                  f"be a finite [mean, stddev >= {MIN_STDDEV}]; got {pair!r}")
            z[:, idx] = pair
        derive = functools.partial(object.__setattr__, self)  # the dataclass is frozen
        derive("stats", {idx: tuple(self.stats[idx]) for idx in sorted(numeric)})
        derive("total_dim", len(self.slots))
        derive("vocab", vocab)
        derive("groups", groups)
        derive("index", {slot.name: i for i, slot in enumerate(self.slots)})
        derive("z", z)

    def segments(self) -> tuple[tuple[str, int, int], ...]:
        """Partition of [0, total_dim) into loss segments.

        Contiguous numeric slots merge into one mse segment; each boolean
        slot is a bce segment; each categorical group is a softmax segment.
        """
        segs: list[tuple[str, int, int]] = []
        i = 0
        while i < self.total_dim:
            slot = self.slots[i]
            if slot.kind == CATEGORICAL:
                start, stop = self.groups[slot.group]
                segs.append(("softmax", start, stop))
                i = stop
            elif slot.kind == BOOLEAN:
                segs.append(("bce", i, i + 1))
                i += 1
            else:
                j = i
                while j < self.total_dim and self.slots[j].kind == NUMERIC:
                    j += 1
                segs.append(("mse", i, j))
                i = j
        return tuple(segs)


def build_schema(corpus: Corpus) -> FeatureSchema:
    """The schema fit_encode fits on a corpus, without the encoded rows."""
    return fit_encode(corpus)[0]


def _blocks(nodes: list[PlanNode]):
    """(first row, {field: its values in row order}) of each block of nodes."""
    for start in range(0, len(nodes), ENCODE_BLOCK_ROWS):
        rows = map(_field_values, nodes[start:start + ENCODE_BLOCK_ROWS])
        yield start, dict(zip(_FIELDS, zip(*rows)))


def _entries(schema: FeatureSchema, cols: dict, tally: Counter | None = None):
    """(rows, slots, raw values) lists of what a block places, each slot's in
    row order: one-hots as 1.0, numerics and booleans as read. An unseen
    categorical value places nothing and bumps ``tally[group]`` if tally is given."""
    rows, slots, raws = [], [], []
    for group, lookup in schema.vocab.items():
        found = [lookup.get(v) for v in cols[group]]  # None where absent or unseen
        hit = [r for r, idx in enumerate(found) if idx is not None]
        unseen = len(found) - cols[group].count(None) - len(hit)
        if unseen and tally is not None:
            tally[group] += unseen
        rows += hit
        slots += [found[r] for r in hit]
        raws += [1.0] * len(hit)
    for field in CORE_NUMERIC_FIELDS + ("hash_buckets",) + OPTIONAL_BOOLEAN_FIELDS:
        if field in schema.index:
            hit = [r for r, v in enumerate(cols[field]) if v is not None]
            rows += hit
            slots += [schema.index[field]] * len(hit)
            raws += [v for v in cols[field] if v is not None]
    for field in ATTR_STAT_FIELDS:
        base = schema.index.get(f"{field}[0]")
        for r, values in enumerate(cols[field] if base is not None else ()):
            if values:
                if len(values) > schema.attr_width:
                    raise SchemaError(f"{field} has {len(values)} entries; schema fixes "
                                      f"width at {schema.attr_width}")
                rows += [r] * len(values)
                slots += range(base, base + len(values))
                raws += values
    return rows, slots, raws


def encode_rows(schema: FeatureSchema, nodes: list[PlanNode],
                tally: Counter | None = None) -> np.ndarray:
    """Encode a batch of operators as the rows of one matrix in schema layout.
    Every placed value is z-scored: a one-hot or boolean slot's stats are 0
    and 1, so it keeps its 1.0 or 0.0. Unknown categorical values leave their
    group all-zero and bump ``tally[group]`` when a tally is supplied."""
    X = np.zeros((len(nodes), schema.total_dim), dtype=np.float64)
    for start, cols in _blocks(nodes):
        rows, slots, raws = _entries(schema, cols, tally)
        slots = np.array(slots, dtype=np.intp)
        X[np.add(rows, start), slots] = (
            (np.array(raws, dtype=np.float64) - schema.z[0, slots]) / schema.z[1, slots])
    return X


def encode(schema: FeatureSchema, node: PlanNode, tally: Counter | None = None) -> np.ndarray:
    """Encode one operator: a one-row encode_rows."""
    return encode_rows(schema, [node], tally)[0]


@dataclass(frozen=True)
class OperatorTable:
    """Every operator of a corpus encoded once, in walk order."""

    ids: list[str]             # "<query_id>#<pre-order index>", walk order
    query_index: np.ndarray    # (n,) index into corpus.records, non-decreasing
    X: np.ndarray              # (n, total_dim) encodings
    children: np.ndarray       # (n, 2) rows of the first two children, -1 if absent

    def __len__(self) -> int:
        return len(self.ids)


def corpus_operators(corpus: Corpus) -> tuple[list[PlanNode], list[str], np.ndarray]:
    """Every operator of a corpus in walk order, its id ("<query_id>#<pre-order index>")
    and the index of its record in corpus.records (an OperatorTable's query_index)."""
    nodes, ids, sizes = [], [], []
    for record in corpus.records:
        first = len(nodes)
        nodes += iter_nodes(record.root)
        sizes.append(len(nodes) - first)
        ids += (f"{record.query_id}#{k}" for k in range(sizes[-1]))
    if not nodes:
        raise ValueError("corpus has no operators to encode")
    return nodes, ids, np.repeat(np.arange(len(sizes), dtype=np.intp), sizes)


def _table_walk(corpus: Corpus):
    """corpus_operators plus an OperatorTable's children, freeing its id map before X exists."""
    nodes, ids, query_index = corpus_operators(corpus)
    row_of = {id(node): r for r, node in enumerate(nodes)}
    children = np.full((len(nodes), 2), -1, dtype=np.intp)
    for r, node in enumerate(nodes):
        for k, child in enumerate(node.children[:2]):
            children[r, k] = row_of[id(child)]
    return nodes, ids, query_index, children


def encode_corpus(schema: FeatureSchema, corpus: Corpus) -> OperatorTable:
    """Encode each operator once and index its first two children as rows
    of the same matrix; children beyond the second are dropped."""
    nodes, ids, query_index, children = _table_walk(corpus)
    return OperatorTable(ids, query_index, encode_rows(schema, nodes), children)


def fit_encode(corpus: Corpus) -> tuple[FeatureSchema, OperatorTable]:
    """Derive the sparse layout, vocabularies and z-score stats from a corpus
    and encode it: build_schema then encode_corpus, bit for bit. Each value is
    placed once; a numeric slot's stats are those of the values placed in it."""
    if len(corpus) == 0:
        raise SchemaError("cannot build a schema from an empty corpus")
    nodes, ids, query_index, children = _table_walk(corpus)
    # each group's observed values as dict keys, in first-appearance order
    vocab_values: dict[str, dict] = {g: {} for g in _FIELDS if _SLOT_KINDS[g] == CATEGORICAL}
    attr_width, observed = 0, set()  # observed: the fields some operator carries
    for _, cols in _blocks(nodes):
        for group, values in vocab_values.items():
            values.update(dict.fromkeys(cols[group]))
        observed.update(f for f, col in cols.items() if col.count(None) < len(col))
        attr_width = max([attr_width] + [len(v) for f in ATTR_STAT_FIELDS for v in cols[f] if v])

    slots: list[SlotSpec] = []
    for field in _FIELDS:
        if field in vocab_values:
            slots += (SlotSpec(f"{field}={v}", CATEGORICAL, field)
                      for v in vocab_values[field] if v is not None)
        elif field in ATTR_STAT_FIELDS:
            slots += (SlotSpec(f"{field}[{j}]", NUMERIC) for j in range(attr_width))
        elif field in observed:
            slots.append(SlotSpec(field, _SLOT_KINDS[field]))
    # a slot no operator fills keeps (0, sentinel)
    stats = {i: (0.0, STDDEV_SENTINEL) for i, slot in enumerate(slots) if slot.kind == NUMERIC}
    layout = FeatureSchema(tuple(slots), stats, attr_width)
    X = np.zeros((len(nodes), layout.total_dim), dtype=np.float64)
    placed = np.zeros(X.shape, dtype=bool)  # kept out of encode_rows, whose peak it would raise
    for start, cols in _blocks(nodes):
        rows, slots_of, raws = _entries(layout, cols)
        at = (np.add(rows, start), np.array(slots_of, dtype=np.intp))
        X[at] = raws
        placed[at] = True
    for idx in stats:
        hit = placed[:, idx]
        values = X[hit, idx]  # the slot's placed values in walk order
        if values.size:
            std = float(values.std())
            stats[idx] = (float(values.mean()), std if std >= MIN_STDDEV else STDDEV_SENTINEL)
            X[hit, idx] = (values - stats[idx][0]) / stats[idx][1]  # as encode_rows z-scores
    return dataclasses.replace(layout, stats=stats), OperatorTable(ids, query_index, X, children)


def _schema_payload(schema: FeatureSchema) -> dict:
    return {
        "slots": [
            {"name": s.name, "kind": s.kind, "group": s.group} for s in schema.slots
        ],
        "vocab": {g: list(v.keys()) for g, v in schema.vocab.items()},
        "stats": {
            str(idx): [schema.stats[idx][0], schema.stats[idx][1]]
            for idx in sorted(schema.stats)
        },
        "attr_width": schema.attr_width,
        "total_dim": schema.total_dim,
    }


def schema_hash(schema: FeatureSchema) -> str:
    """sha256 of the canonical schema JSON. Computed once per schema:
    nothing mutates one (fit_encode adds the stats by replace)."""
    if schema._digest is None:
        payload = json.dumps(_schema_payload(schema), sort_keys=True, separators=(",", ":"))
        object.__setattr__(schema, "_digest", hashlib.sha256(payload.encode("utf-8")).hexdigest())
    return schema._digest


def schema_to_json(schema: FeatureSchema) -> str:
    payload = _schema_payload(schema)
    payload["hash"] = schema_hash(schema)
    return json.dumps(payload, indent=1)


def schema_from_json(text: str) -> FeatureSchema:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"schema JSON is invalid: {exc}") from exc
    try:
        slots = tuple(
            SlotSpec(d["name"], d["kind"], d.get("group")) for d in payload["slots"]
        )
        stats = {int(k): v for k, v in payload["stats"].items()}
        schema = FeatureSchema(slots, stats, int(payload["attr_width"]))
        total_dim = int(payload["total_dim"])
    except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
        raise SchemaError(f"schema JSON is missing fields: {exc}") from exc
    if "hash" in payload and payload["hash"] != schema_hash(schema):
        raise SchemaError(
            f"schema hash mismatch: stored {payload['hash'][:12]}..., "
            f"recomputed {schema_hash(schema)[:12]}..."
        )
    if total_dim != schema.total_dim:
        raise SchemaError("total_dim disagrees with slot count")
    return schema

