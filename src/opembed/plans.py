"""Canonical query-plan tree model and corpus file ingestion.

The canonical plan file is a UTF-8 JSON document::

    {"queries": [{"query_id": "...", "user": "..." | null, "plan": <node>}, ...]}

where each ``<node>`` carries the operator fields by snake_case name plus a
``"children"`` list.  Costs are in optimizer units, latency in milliseconds,
rows in tuples.  Unknown keys are ignored with a warning.
"""

from __future__ import annotations

import gc
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

# Deepest plan, in levels (a lone scan is one), that save_corpus writes and
# load_corpus reads. This module walks plans with explicit stacks; only
# json.load still recurses, about two frames per level, and meets the default
# recursion limit (1000) near 495 levels. At 400 a caller may sit about 185
# frames deep and still load a plan at the bound; saving needs a few frames.
MAX_PLAN_DEPTH = 400

# Largest magnitude of a plan numeric or attribute statistic that save_corpus
# writes and load_corpus reads. Each square downstream stays below float64's
# 1.8e308: a schema slot's sum of squared deviations over n operators is at
# most 4e200 * n; a stddev under featurize.MIN_STDDEV (1e-12) becomes 1, so
# |z| <= 2e100 / 1e-12 = 2e112; and the first layer's LayerNorm, with at most
# 1e6 inputs and outputs and weights of magnitude at most 1e6, squares outputs
# of at most 2e124 and sums to at most 1.6e255.
MAX_PLAN_MAGNITUDE = 1e100

_NUMERIC_FIELDS = CORE_NUMERIC_FIELDS + OPTIONAL_NUMERIC_FIELDS
# a node's fields in file order, children aside: the first group is written
# even when None, the second only when set
_ALWAYS_WRITTEN = ("node_type",) + CORE_NUMERIC_FIELDS
_WRITTEN_WHEN_SET = (OPTIONAL_NUMERIC_FIELDS + OPTIONAL_CATEGORICAL_FIELDS
                     + OPTIONAL_BOOLEAN_FIELDS + ATTR_STAT_FIELDS)
_KNOWN_NODE_KEYS = {"children", *_ALWAYS_WRITTEN, *_WRITTEN_WHEN_SET}


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
    # json decodes a JSON number to int or float; bool subclasses int but is not one
    kind = type(value)
    if kind is not float and kind is not int:
        raise PlanFormatError(f"{path}: field {name!r} is not a number: {value!r}")
    try:
        v = float(value)
    except OverflowError:  # an integer literal past the float range
        v = math.inf
    if not math.isfinite(v) or (nonnegative and v < 0):
        bound = " and >= 0" if nonnegative else ""
        raise PlanFormatError(f"{path}: field {name!r} must be finite{bound}, got {v}")
    if abs(v) > MAX_PLAN_MAGNITUDE:
        raise PlanFormatError(f"{path}: field {name!r} must be at most {MAX_PLAN_MAGNITUDE:g} "
                              f"in magnitude, got {v}")
    return v


def _check_stats(seq, name: str, path: str) -> tuple[float, ...]:
    """A list of numbers within MAX_PLAN_MAGNITUDE. Attribute statistics may
    be negative (a column's minimum), unlike the scalar fields."""
    # the sum of the magnitudes bounds each one, and is NaN or inf if any is
    if {float}.issuperset(map(type, seq)) and sum(map(abs, seq)) <= MAX_PLAN_MAGNITUDE:
        return tuple(seq)
    # an int or a bad entry: check each in turn, which names the first bad one
    return tuple(_check_scalar(v, f"{name}[{j}]", path, nonnegative=False)
                 for j, v in enumerate(seq))


def _check_node(obj, path: str) -> tuple[dict, list]:
    """Check one plan node as load_corpus reads it, from a mapping in which an
    absent field and a None one are alike: a decoded JSON object, or a
    PlanNode's vars. Returns the PlanNode fields it sets, children aside, and
    its children."""
    if "node_type" not in obj:
        raise PlanFormatError(f"{path}: missing required field 'node_type'")
    if not _KNOWN_NODE_KEYS.issuperset(obj):
        log.warning("%s: ignoring unknown keys %s", path, sorted(set(obj) - _KNOWN_NODE_KEYS))

    node_type = obj["node_type"]
    if type(node_type) is not str:
        raise PlanFormatError(f"{path}: field 'node_type' must be a string, got {node_type!r}")
    fields = {"node_type": node_type}
    get = obj.get
    for name in _NUMERIC_FIELDS:
        value = get(name)
        if value is not None:
            # a non-negative float within the bound is the common case; the
            # rest go through _check_scalar, which converts or names what is wrong
            ok = type(value) is float and 0.0 <= value <= MAX_PLAN_MAGNITUDE
            fields[name] = value if ok else _check_scalar(value, name, path)
    for name in OPTIONAL_CATEGORICAL_FIELDS:
        value = get(name)
        if value is not None:
            if type(value) is not str:
                raise PlanFormatError(f"{path}: field {name!r} must be a string, got {value!r}")
            fields[name] = value
    for name in OPTIONAL_BOOLEAN_FIELDS:
        value = get(name)
        if value is not None:
            if type(value) is not bool:
                raise PlanFormatError(f"{path}: field {name!r} must be true or false, got {value!r}")
            fields[name] = value
    for name in ATTR_STAT_FIELDS:
        seq = get(name)
        if seq is not None:
            if not isinstance(seq, (list, tuple)):
                raise PlanFormatError(f"{path}: field {name!r} must be a list of numbers")
            fields[name] = _check_stats(seq, name, path)

    children = get("children")
    if not isinstance(children, (list, type(None))):
        raise PlanFormatError(f"{path}: field 'children' must be a list or null, "
                              f"got {type(children).__name__}")
    return fields, children or []


def _check_ids(qid, user, qpath: str, seen: set) -> None:
    if type(qid) is not str or not (user is None or type(user) is str):
        raise PlanFormatError(f"{qpath}: want a string 'query_id' and a string or null 'user'")
    if qid in seen:
        raise PlanFormatError(f"{qpath}: duplicate query_id {qid!r}")
    seen.add(qid)


def _parse_node(obj, path: str) -> PlanNode:
    """Build one plan tree from its decoded JSON, pre-order from an explicit
    stack. Each entry holds a node's object, path, level (the root is 1) and
    the list the node joins."""
    top: list[PlanNode] = []
    stack = [(obj, path, 1, top)]
    while stack:
        obj, path, level, siblings = stack.pop()
        if not isinstance(obj, dict):
            raise PlanFormatError(f"{path}: plan node must be an object")
        fields, children = _check_node(obj, path)
        node = PlanNode(**fields)
        siblings.append(node)
        if children and level >= MAX_PLAN_DEPTH:
            raise PlanFormatError(
                f"{path}.children[0]: plan nesting is deeper than {MAX_PLAN_DEPTH} levels")
        for i in range(len(children) - 1, -1, -1):
            stack.append((children[i], f"{path}.children[{i}]", level + 1, node.children))
    return top[0]


def load_corpus(path) -> Corpus:
    """Load a canonical plan file, preserving document order as arrival order.

    Raises :class:`PlanFormatError` with node-path context on parse errors or
    invariant violations (non-objects, negative or non-finite numerics,
    numerics past MAX_PLAN_MAGNITUDE, missing node_type).

    The cyclic collector is paused while the file is decoded and the corpus
    built: both only allocate, and each object they keep would otherwise be
    scanned again at every collection. The caller's setting is restored.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _load_corpus(path)
    finally:
        if enabled:
            gc.enable()


def _load_corpus(path) -> Corpus:
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
        qid, user = q["query_id"], q.get("user")
        _check_ids(qid, user, qpath, seen_ids)
        corpus.records.append(QueryRecord(qid, user, _parse_node(q["plan"], f"{qpath}.plan")))
    return corpus


def _node_fields(node: PlanNode) -> list[tuple[str, object]]:
    """A node's fields in file order, children aside: node_type and the core
    numerics always, every other field when it is set."""
    d = vars(node)
    fields = [(name, d[name]) for name in _ALWAYS_WRITTEN]
    fields += [(name, v) for name in _WRITTEN_WHEN_SET if (v := d[name]) is not None]
    return fields


def corpus_to_dict(corpus: Corpus) -> dict:
    queries = []
    for r in corpus.records:
        plan: dict = {}
        queries.append({"query_id": r.query_id, "user": r.user_label, "plan": plan})
        # each node's dict exists before the node is visited, so the visit
        # order does not matter
        stack = [(r.root, plan)]
        while stack:
            node, d = stack.pop()
            d.update(_node_fields(node))
            for name in ATTR_STAT_FIELDS:
                if name in d:
                    d[name] = list(d[name])
            d["children"] = kids = [{} for _ in node.children]
            stack.extend(zip(node.children, kids))
    return {"queries": queries}


# the JSON text json.dumps writes for each scalar a checked node may hold
_SCALAR_JSON = {
    float: float.__repr__,  # finite only, which _check_node ensures first
    int: int.__repr__,
    str: json.encoder.encode_basestring_ascii,
    bool: lambda v: "true" if v else "false",
    type(None): lambda v: "null",
}
_KEY_JSON = {name: f'"{name}": ' for name in _ALWAYS_WRITTEN + _WRITTEN_WHEN_SET}


def _stats_json(values, indent: str) -> str:
    """An attribute-statistics list as json.dumps(..., indent=1) writes it
    after a key at the given indent: one entry per line, one level deeper."""
    if not values:
        return "[]"
    inner = indent + " "
    try:
        text = ("," + inner).join(map(float.__repr__, values))
    except TypeError:  # an int among the floats
        text = ("," + inner).join([_SCALAR_JSON[type(v)](v) for v in values])
    return "[" + inner + text + indent + "]"


def _plan_json(r: QueryRecord, qpath: str) -> Iterator[str]:
    """The text json.dumps(..., indent=1) writes for a record's plan, whose
    object opens at indent level 3, from an explicit stack of nodes (with
    their path, depth, indent level and the text before them) and closing
    brackets. Each node is refused as load_corpus would refuse it of the
    saved file, naming the query and the node path, before it is written."""
    stack: list = [(r.root, f"query {r.query_id!r} at {qpath}.plan", 1, 3, "")]
    while stack:
        item = stack.pop()
        if type(item) is str:
            yield item
            continue
        node, path, depth, level, before = item
        if not isinstance(node, PlanNode):
            raise PlanFormatError(f"{path}: plan node must be a PlanNode, "
                                  f"got {type(node).__name__}")
        _, children = _check_node(vars(node), path)
        indent = "\n" + " " * (level + 1)
        parts = [_KEY_JSON[name] + (_stats_json(value, indent) if name in ATTR_STAT_FIELDS
                                    else _SCALAR_JSON[type(value)](value))
                 for name, value in _node_fields(node)]
        parts.append('"children": [')
        head = before + "{" + indent + ("," + indent).join(parts)
        close = "\n" + " " * level + "}"
        if not children:
            yield head + "]" + close
            continue
        if depth >= MAX_PLAN_DEPTH:
            raise PlanFormatError(
                f"query {r.query_id!r}: plan nesting is deeper than {MAX_PLAN_DEPTH} levels")
        yield head
        stack.append(indent + "]" + close)
        inner = "\n" + " " * (level + 2)
        for i in range(len(children) - 1, -1, -1):
            stack.append((children[i], f"{path}.children[{i}]", depth + 1, level + 2,
                          ("," if i else "") + inner))


def _corpus_json(corpus: Corpus) -> Iterator[str]:
    """json.dumps(corpus_to_dict(corpus), indent=1) + "\\n", one record per
    chunk, each checked as it is written."""
    yield '{\n "queries": ['
    before = "\n  "
    seen_ids: set[str] = set()
    for i, r in enumerate(corpus.records):
        _check_ids(r.query_id, r.user_label, f"queries[{i}]", seen_ids)
        qid = _SCALAR_JSON[str](r.query_id)
        user = _SCALAR_JSON[type(r.user_label)](r.user_label)
        head = f'{before}{{\n   "query_id": {qid},\n   "user": {user},\n   "plan": '
        yield "".join([head, *_plan_json(r, f"queries[{i}]"), "\n  }"])
        before = ",\n  "
    yield "\n ]\n}\n" if corpus.records else "]\n}\n"


def save_corpus(corpus: Corpus, path) -> None:
    """Write a corpus in the canonical plan-file format, byte for byte what
    json.dumps(corpus_to_dict(corpus), indent=1) gives plus a newline, one
    record at a time. What load_corpus would refuse is refused as it is
    reached; the write is atomic, so a refused or failed one leaves no file
    behind."""
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as f:
        try:
            f.writelines(_corpus_json(corpus))
        except BaseException:
            f.close()
            os.remove(tmp)
            raise
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
