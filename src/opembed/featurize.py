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
    walk_operators,
)

NUMERIC, BOOLEAN, CATEGORICAL = "numeric", "boolean", "categorical"

STDDEV_SENTINEL = 1.0


@dataclass(frozen=True)
class SlotSpec:
    name: str
    kind: str
    group: str | None = None  # categorical group, if any


@dataclass(frozen=True)
class FeatureSchema:
    """The sparse layout. Only the slots, the z-score stats and the attribute
    width are stored; every index map below is derived from the slots."""

    slots: tuple[SlotSpec, ...]
    stats: dict[int, tuple[float, float]]  # numeric slot -> (mean, stddev)
    attr_width: int
    total_dim: int = dataclasses.field(init=False)
    vocab: dict[str, dict[str, int]] = dataclasses.field(init=False)  # group -> value -> slot
    groups: dict[str, tuple[int, int]] = dataclasses.field(init=False)  # group -> (start, stop)
    core_base: int = dataclasses.field(init=False)  # slot index of plan_width
    hb_slot: int | None = dataclasses.field(init=False)  # hash_buckets slot, if observed
    attr_base: int | None = dataclasses.field(init=False)  # first attr_mins slot, if any
    bool_slots: dict[str, int] = dataclasses.field(init=False)
    # set by the first schema_hash call; declared so the attribute exists from
    # construction: adding one later (as functools.cached_property does) takes
    # the schema off CPython's fast attribute path, which encode reads it by
    _digest: str | None = dataclasses.field(init=False, default=None, repr=False, compare=False)

    def __post_init__(self):
        vocab: dict[str, dict[str, int]] = {}
        for i, slot in enumerate(self.slots):
            if slot.kind == CATEGORICAL:
                # a categorical slot is named "<group>=<value>"
                vocab.setdefault(slot.group, {})[slot.name[len(slot.group) + 1:]] = i
        groups = {}
        for group, index in vocab.items():
            start = min(index.values())
            if max(index.values()) - start + 1 != len(index):
                raise SchemaError(f"categorical group {group!r} is not contiguous")
            groups[group] = (start, start + len(index))
        by_name = {slot.name: i for i, slot in enumerate(self.slots)}
        derive = functools.partial(object.__setattr__, self)  # the dataclass is frozen
        derive("total_dim", len(self.slots))
        derive("vocab", vocab)
        derive("groups", groups)
        derive("core_base", by_name[CORE_NUMERIC_FIELDS[0]])
        derive("hb_slot", by_name.get("hash_buckets"))
        derive("attr_base", by_name.get(f"{ATTR_STAT_FIELDS[0]}[0]"))
        derive("bool_slots", {s.name: i for i, s in enumerate(self.slots) if s.kind == BOOLEAN})

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
    """Derive the sparse layout, vocabularies and z-score stats from a corpus."""
    if len(corpus) == 0:
        raise SchemaError("cannot build a schema from an empty corpus")

    nodes = [item.node for item in walk_operators(corpus)]

    # each group's observed values as dict keys, in first-appearance order
    vocab_values = {g: {} for g in ("node_type",) + OPTIONAL_CATEGORICAL_FIELDS}
    attr_width = 0
    has_hash_buckets = False
    observed_bools = {f: False for f in OPTIONAL_BOOLEAN_FIELDS}
    for node in nodes:
        vocab_values["node_type"].setdefault(node.node_type)
        for field in OPTIONAL_CATEGORICAL_FIELDS:
            value = getattr(node, field)
            if value is not None:
                vocab_values[field].setdefault(value)
        if node.hash_buckets is not None:
            has_hash_buckets = True
        for field in ATTR_STAT_FIELDS:
            values = getattr(node, field)
            if values is not None:
                attr_width = max(attr_width, len(values))
        for field in OPTIONAL_BOOLEAN_FIELDS:
            if getattr(node, field) is not None:
                observed_bools[field] = True

    slots: list[SlotSpec] = []

    def add_group(group: str) -> None:
        slots.extend(SlotSpec(f"{group}={v}", CATEGORICAL, group) for v in vocab_values[group])

    add_group("node_type")
    slots.extend(SlotSpec(name, NUMERIC) for name in CORE_NUMERIC_FIELDS)
    add_group("join_type")
    add_group("parent_relationship")
    if has_hash_buckets:
        slots.append(SlotSpec("hash_buckets", NUMERIC))
    add_group("hash_algorithm")
    add_group("sort_key")
    add_group("sort_method")
    add_group("relation_name")
    for field in ATTR_STAT_FIELDS:
        slots.extend(SlotSpec(f"{field}[{j}]", NUMERIC) for j in range(attr_width))
    add_group("index_name")
    if observed_bools["scan_direction"]:
        slots.append(SlotSpec("scan_direction", BOOLEAN))
    add_group("agg_strategy")
    if observed_bools["partial_mode"]:
        slots.append(SlotSpec("partial_mode", BOOLEAN))
    add_group("agg_operator")
    schema = FeatureSchema(tuple(slots), {}, attr_width)

    # z-score stats over the operators where each numeric field applies
    stats: dict[int, tuple[float, float]] = {}
    collected: dict[int, list[float]] = {
        i: [] for i, s in enumerate(schema.slots) if s.kind == NUMERIC
    }
    for node in nodes:
        for raw, idx in _numeric_raws(schema, node):
            collected[idx].append(raw)
    for idx, values in collected.items():
        if not values:
            stats[idx] = (0.0, STDDEV_SENTINEL)
            continue
        arr = np.asarray(values, dtype=np.float64)
        mean = float(arr.mean())
        std = float(arr.std())
        if std < 1e-12:
            std = STDDEV_SENTINEL
        stats[idx] = (mean, std)
    return dataclasses.replace(schema, stats=stats)


def _numeric_raws(schema: FeatureSchema, node: PlanNode):
    """Yield (raw value, slot index) for every numeric field applicable to node."""
    for k, field in enumerate(CORE_NUMERIC_FIELDS):
        yield float(getattr(node, field)), schema.core_base + k
    if node.hash_buckets is not None and schema.hb_slot is not None:
        yield float(node.hash_buckets), schema.hb_slot
    if schema.attr_base is not None:
        for f, field in enumerate(ATTR_STAT_FIELDS):
            values = getattr(node, field)
            if values is None:
                continue
            if len(values) > schema.attr_width:
                raise SchemaError(
                    f"{field} has {len(values)} entries; schema fixes width "
                    f"at {schema.attr_width}"
                )
            for j, raw in enumerate(values):
                yield float(raw), schema.attr_base + f * schema.attr_width + j


def encode(
    schema: FeatureSchema, node: PlanNode, tally: Counter | None = None
) -> np.ndarray:
    """Encode one operator as a dense float vector in schema layout.

    Unknown categorical values leave their group all-zero and bump
    ``tally[group]`` when a tally is supplied.
    """
    vec = np.zeros(schema.total_dim, dtype=np.float64)

    def set_categorical(group: str, value: str | None) -> None:
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
    for raw, idx in _numeric_raws(schema, node):
        mean, std = schema.stats[idx]
        vec[idx] = (raw - mean) / std
    for field, idx in schema.bool_slots.items():
        value = getattr(node, field)
        if value is not None:
            vec[idx] = 1.0 if value else 0.0
    return vec


@dataclass(frozen=True)
class OperatorTable:
    """Every operator of a corpus encoded once, in walk order."""

    ids: list[str]             # "<query_id>#<pre-order index>"
    query_index: np.ndarray    # (n,) index into corpus.records, non-decreasing
    X: np.ndarray              # (n, total_dim) encodings
    children: np.ndarray       # (n, 2) rows of the first two children, -1 if absent

    def __len__(self) -> int:
        return len(self.ids)


def encode_corpus(schema: FeatureSchema, corpus: Corpus) -> OperatorTable:
    """Encode each operator once and index its first two children as rows
    of the same matrix; children beyond the second are dropped."""
    ids, query_index, rows, kids = [], [], [], []
    row_of: dict[int, int] = {}
    for qi, record in enumerate(corpus.records):
        for k, node in enumerate(iter_nodes(record.root)):
            row_of[id(node)] = len(rows)
            ids.append(f"{record.query_id}#{k}")
            query_index.append(qi)
            rows.append(encode(schema, node))
            kids.append(node.children[:2])
    if not rows:
        raise ValueError("corpus has no operators to encode")
    children = np.full((len(rows), 2), -1, dtype=np.intp)
    for r, pair in enumerate(kids):
        for k, child in enumerate(pair):
            children[r, k] = row_of[id(child)]
    return OperatorTable(ids, np.array(query_index, dtype=np.intp), np.stack(rows), children)


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
    nothing mutates one (build_schema adds the stats by replace)."""
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
        stats = {int(k): (v[0], v[1]) for k, v in payload["stats"].items()}
        schema = FeatureSchema(slots, stats, int(payload["attr_width"]))
        total_dim = int(payload["total_dim"])
    except (KeyError, IndexError, TypeError) as exc:
        raise SchemaError(f"schema JSON is missing fields: {exc}") from exc
    if "hash" in payload and payload["hash"] != schema_hash(schema):
        raise SchemaError(
            f"schema hash mismatch: stored {payload['hash'][:12]}..., "
            f"recomputed {schema_hash(schema)[:12]}..."
        )
    if total_dim != schema.total_dim:
        raise SchemaError("total_dim disagrees with slot count")
    return schema

