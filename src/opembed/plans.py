"""Canonical query-plan tree model and corpus file ingestion.

The canonical plan file is a UTF-8 JSON document::

    {"queries": [{"query_id": "...", "user": "..." | null, "plan": <node>}, ...]}

where each ``<node>`` carries the operator fields by snake_case name plus a
``"children"`` list.  Costs are in optimizer units, latency in milliseconds,
rows in tuples.  Unknown keys are ignored with a warning.
"""

from __future__ import annotations

import json
import logging
import math
import os
from dataclasses import dataclass, field
from typing import Iterator, Optional

from .errors import PlanFormatError

log = logging.getLogger(__name__)

# Scalar fields every operator carries (optimizer estimates).
CORE_NUMERIC_FIELDS = (
    "plan_width",
    "plan_rows",
    "plan_buffers",
    "estimated_ios",
    "total_cost",
)

# Optional fields, by kind.  Absent means "does not apply to this operator";
# zero-filling happens in the featurizer, never here.
OPTIONAL_NUMERIC_FIELDS = ("hash_buckets", "actual_rows", "actual_latency_ms")
OPTIONAL_CATEGORICAL_FIELDS = (
    "join_type",
    "parent_relationship",
    "hash_algorithm",
    "sort_key",
    "sort_method",
    "relation_name",
    "index_name",
    "agg_strategy",
    "agg_operator",
)
OPTIONAL_BOOLEAN_FIELDS = ("scan_direction", "partial_mode")
ATTR_STAT_FIELDS = ("attr_mins", "attr_medians", "attr_maxs")

_KNOWN_NODE_KEYS = (
    {"node_type", "children"}
    | set(CORE_NUMERIC_FIELDS)
    | set(OPTIONAL_NUMERIC_FIELDS)
    | set(OPTIONAL_CATEGORICAL_FIELDS)
    | set(OPTIONAL_BOOLEAN_FIELDS)
    | set(ATTR_STAT_FIELDS)
)


@dataclass
class PlanNode:
    """One operator in a query plan, with optional runtime ground truth."""

    node_type: str
    plan_width: float = 0.0
    plan_rows: float = 0.0
    plan_buffers: float = 0.0
    estimated_ios: float = 0.0
    total_cost: float = 0.0
    join_type: Optional[str] = None
    parent_relationship: Optional[str] = None
    hash_buckets: Optional[float] = None
    hash_algorithm: Optional[str] = None
    sort_key: Optional[str] = None
    sort_method: Optional[str] = None
    relation_name: Optional[str] = None
    index_name: Optional[str] = None
    scan_direction: Optional[bool] = None
    attr_mins: Optional[tuple[float, ...]] = None
    attr_medians: Optional[tuple[float, ...]] = None
    attr_maxs: Optional[tuple[float, ...]] = None
    agg_strategy: Optional[str] = None
    partial_mode: Optional[bool] = None
    agg_operator: Optional[str] = None
    actual_rows: Optional[float] = None
    actual_latency_ms: Optional[float] = None
    children: list["PlanNode"] = field(default_factory=list)


@dataclass
class QueryRecord:
    """A single executed query: id, optional submitting user, plan tree."""

    query_id: str
    user_label: Optional[str]
    root: PlanNode


@dataclass
class Corpus:
    """An ordered workload of query records; list order is arrival order."""

    records: list[QueryRecord] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)


@dataclass(frozen=True)
class WalkItem:
    """One operator and the query it belongs to."""

    record: QueryRecord
    node: PlanNode


def _check_scalar(value, name: str, path: str, nonnegative: bool = True) -> float:
    try:
        v = float(value)
    except (TypeError, ValueError):
        raise PlanFormatError(f"{path}: field {name!r} is not a number: {value!r}")
    if not math.isfinite(v) or (nonnegative and v < 0):
        bound = " and >= 0" if nonnegative else ""
        raise PlanFormatError(f"{path}: field {name!r} must be finite{bound}, got {v}")
    return v


def _check_stats(seq, name: str, path: str) -> tuple[float, ...]:
    """A list of finite numbers. Attribute statistics may be negative (a
    column's minimum), unlike the scalar fields."""
    try:
        values = tuple(map(float, seq))
    except (TypeError, ValueError):
        values = None
    if values is None or not all(map(math.isfinite, values)):
        # only reached for a bad entry: name the first one, which raises
        for j, v in enumerate(seq):
            _check_scalar(v, f"{name}[{j}]", path, nonnegative=False)
    return values


def _parse_node(obj, path: str) -> PlanNode:
    if not isinstance(obj, dict):
        raise PlanFormatError(f"{path}: plan node must be an object")
    if "node_type" not in obj:
        raise PlanFormatError(f"{path}: missing required field 'node_type'")

    unknown = set(obj) - _KNOWN_NODE_KEYS
    if unknown:
        log.warning("%s: ignoring unknown keys %s", path, sorted(unknown))

    node = PlanNode(node_type=str(obj["node_type"]))
    for name in CORE_NUMERIC_FIELDS:
        if name in obj and obj[name] is not None:
            setattr(node, name, _check_scalar(obj[name], name, path))
    for name in OPTIONAL_NUMERIC_FIELDS:
        if obj.get(name) is not None:
            setattr(node, name, _check_scalar(obj[name], name, path))
    for name in OPTIONAL_CATEGORICAL_FIELDS:
        if obj.get(name) is not None:
            setattr(node, name, str(obj[name]))
    for name in OPTIONAL_BOOLEAN_FIELDS:
        if obj.get(name) is not None:
            setattr(node, name, bool(obj[name]))
    for name in ATTR_STAT_FIELDS:
        if obj.get(name) is not None:
            seq = obj[name]
            if not isinstance(seq, list):
                raise PlanFormatError(f"{path}: field {name!r} must be a list of numbers")
            setattr(node, name, _check_stats(seq, name, path))

    for i, child in enumerate(obj.get("children") or []):
        node.children.append(_parse_node(child, f"{path}.children[{i}]"))
    return node


def load_corpus(path) -> Corpus:
    """Load a canonical plan file, preserving document order as arrival order.

    Raises :class:`PlanFormatError` with node-path context on parse errors or
    invariant violations (non-objects, negative/non-finite numerics, missing
    node_type).
    """
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except json.JSONDecodeError as e:
        raise PlanFormatError(f"{path}: line {e.lineno} col {e.colno}: {e.msg}") from e
    except RecursionError as e:
        raise PlanFormatError(f"{path}: plan nesting is too deep to parse") from e

    if not isinstance(doc, dict) or "queries" not in doc:
        raise PlanFormatError(f"{path}: top level must be an object with a 'queries' list")

    queries = doc["queries"]
    if not isinstance(queries, list):
        raise PlanFormatError(f"queries: must be a list, got {type(queries).__name__}")
    corpus = Corpus()
    seen_ids: set[str] = set()
    for i, q in enumerate(queries):
        qpath = f"queries[{i}]"
        if not isinstance(q, dict):
            raise PlanFormatError(f"{qpath}: must be an object, got {type(q).__name__}")
        if "query_id" not in q or "plan" not in q:
            raise PlanFormatError(f"{qpath}: needs 'query_id' and 'plan'")
        qid = str(q["query_id"])
        if qid in seen_ids:
            raise PlanFormatError(f"{qpath}: duplicate query_id {qid!r}")
        seen_ids.add(qid)
        user = q.get("user")
        root = _parse_node(q["plan"], f"{qpath}.plan")
        corpus.records.append(QueryRecord(qid, None if user is None else str(user), root))
    return corpus


def _node_to_dict(node: PlanNode) -> dict:
    d: dict = {"node_type": node.node_type}
    for name in CORE_NUMERIC_FIELDS:
        d[name] = getattr(node, name)
    for name in OPTIONAL_NUMERIC_FIELDS + OPTIONAL_CATEGORICAL_FIELDS + OPTIONAL_BOOLEAN_FIELDS:
        v = getattr(node, name)
        if v is not None:
            d[name] = v
    for name in ATTR_STAT_FIELDS:
        v = getattr(node, name)
        if v is not None:
            d[name] = list(v)
    d["children"] = [_node_to_dict(c) for c in node.children]
    return d


def corpus_to_dict(corpus: Corpus) -> dict:
    return {
        "queries": [
            {"query_id": r.query_id, "user": r.user_label, "plan": _node_to_dict(r.root)}
            for r in corpus.records
        ]
    }


def _depth(root: PlanNode) -> int:
    level, depth = [root], 0
    while level:
        level, depth = [c for node in level for c in node.children], depth + 1
    return depth


def save_corpus(corpus: Corpus, path) -> None:
    """Write a corpus back to the canonical plan-file format, atomically: a
    plan too deep to encode leaves no file behind."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as f:
            json.dump(corpus_to_dict(corpus), f, indent=1)
            f.write("\n")
    except RecursionError:
        os.remove(tmp)
        q = max(corpus.records, key=lambda r: _depth(r.root))
        raise PlanFormatError(f"query {q.query_id!r}: plan nesting is too deep to save") from None
    os.replace(tmp, path)


def iter_nodes(root: PlanNode) -> Iterator[PlanNode]:
    """Depth-first pre-order traversal of one plan tree."""
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children))


def walk_operators(corpus: Corpus) -> Iterator[WalkItem]:
    """Yield one item per operator, pre-order per query in arrival order."""
    for record in corpus.records:
        for node in iter_nodes(record.root):
            yield WalkItem(record, node)


def subcorpus(corpus: Corpus, query_indices) -> Corpus:
    """A new corpus holding the selected records, in the given order."""
    return Corpus(records=[corpus.records[i] for i in query_indices])
