"""Deterministic synthetic plan-corpus generator with planted structure.

Every planted rule is recorded at generation time in a :class:`GroundTruth`
sidecar so tests can check recovery against independent bookkeeping rather
than re-deriving labels from the emitted corpus.

Planted rules:

* context: a MergeJoin's two children are both Sort wrappers with probability
  ``merge_join_sort_prob``; a HashJoin's build side is a Hash wrapper with
  probability ``HASH_JOIN_HASH_PROB``.
* cardinality: unary operators (Sort/Hash) sitting directly on a scan of the
  designated under/over relation carry a row estimate that is off by a
  fixed factor range.  Scan estimates themselves stay correct; the
  planted story is broken estimate propagation, which keeps the signal in
  context-bearing features (sort keys, hash bucket counts).
* latency: per-operator latency is ``LATENCY_COST_COEFF`` times the
  operator's exclusive (self) cost, with multiplicative noise; queries from
  the designated slow template get a heavy-tailed query-wide multiplier.
* users: users own disjoint template subsets and submit only their own.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from .plans import Corpus, PlanNode, QueryRecord, iter_nodes

JOIN_KINDS = ("MergeJoin", "HashJoin", "NestedLoop")
SCAN_KINDS = ("SeqScan", "IndexScan")
SORT_METHODS = ("quicksort", "top-N heapsort", "external merge")
HASH_ALGORITHMS = ("linear", "extendible")
AGG_STRATEGIES = ("plain", "sorted", "hashed")
AGG_OPERATORS = ("max", "min", "avg", "sum", "count")
JOIN_TYPES = ("inner", "semi", "anti", "full")
JOIN_TYPE_WEIGHTS = (0.85, 0.05, 0.05, 0.05)

# planted rules and generation constants no preset varies
HASH_JOIN_HASH_PROB = 0.9
PRESORT_PROB = 0.5
MAX_JOINS = 3
AGG_PROB = 0.35
# wrappers directly over these relations' scans get mis-estimated rows
UNDER_RELATION = 0
OVER_RELATION = 1
UNDER_FACTOR = (4.0, 10.0)
OVER_FACTOR = (0.1, 0.25)
LATENCY_COST_COEFF = 0.05
LATENCY_NOISE = 0.15
SLOW_TEMPLATE = 0
SLOW_SCALE = 8.0


@dataclass(frozen=True)
class SynthConfig:
    n_queries: int = 400
    n_users: int = 6
    n_relations: int = 5
    n_templates: int = 12
    seed: int = 0

    # context rules
    merge_join_sort_prob: float = 0.9
    join_kind_weights: tuple[float, float, float] = (0.45, 0.45, 0.10)

    # featurization surface
    attr_stat_width: int = 12
    keys_per_relation: int = 1
    # when True, Sort/Hash wrappers copy the child's buffers, ios, and cost
    # unchanged, so a parent's numerics never reveal whether its inputs were
    # wrapped; the default perturbs them the way a real planner would
    wrapper_pass_through: bool = False

    def __post_init__(self):
        if self.n_templates < self.n_users:
            raise ValueError("n_templates must be >= n_users")
        if not 0 <= self.merge_join_sort_prob <= 1:
            raise ValueError("merge_join_sort_prob must be in [0,1]")
        if self.n_relations <= max(UNDER_RELATION, OVER_RELATION):
            raise ValueError("n_relations must hold the planted under/over relations "
                             f"rel_{UNDER_RELATION} and rel_{OVER_RELATION}")


@dataclass
class GroundTruth:
    """Generator bookkeeping, recorded while the corpus is built."""

    n_queries: int
    n_operators: int = 0
    op_type_counts: Counter = field(default_factory=Counter)
    card_labels: list[str] = field(default_factory=list)  # walk order (pre-order per query)
    query_users: list[str] = field(default_factory=list)
    query_templates: list[int] = field(default_factory=list)
    slow_queries: list[int] = field(default_factory=list)
    merge_joins: int = 0
    merge_joins_with_sorts: int = 0
    hash_joins: int = 0
    hash_joins_with_hash: int = 0
    planted_under: list[tuple[int, int]] = field(default_factory=list)  # (query, pre-order index)
    planted_over: list[tuple[int, int]] = field(default_factory=list)


@dataclass(frozen=True)
class _Template:
    joins: tuple[str, ...]
    has_agg: bool


@dataclass
class _Bases:
    rows: np.ndarray
    widths: np.ndarray
    buckets: np.ndarray
    attr_min: np.ndarray
    attr_med: np.ndarray
    attr_max: np.ndarray


def _make_bases(cfg: SynthConfig) -> _Bases:
    rng = np.random.default_rng([cfg.seed, 11])
    # rows/widths share one base across relations so numeric features carry
    # no relation identity; per-node jitter supplies all their variance
    rows = np.full(cfg.n_relations, 4e4)
    widths = np.full(cfg.n_relations, 48.0)
    # log-spaced bucket counts so the build-side relation is recoverable
    buckets = 1024.0 * (4.0 ** (np.arange(cfg.n_relations) % 8))
    w = cfg.attr_stat_width
    attr_min = rng.uniform(-100.0, 0.0, w)
    attr_med = attr_min + rng.uniform(10.0, 100.0, w)
    attr_max = attr_med + rng.uniform(10.0, 100.0, w)
    return _Bases(rows, widths, buckets, attr_min, attr_med, attr_max)


def _make_templates(cfg: SynthConfig) -> list[_Template]:
    templates = []
    for t in range(cfg.n_templates):
        rng = np.random.default_rng([cfg.seed, 13, t])
        n_joins = int(rng.integers(1, MAX_JOINS + 1))
        weights = np.asarray(cfg.join_kind_weights) / sum(cfg.join_kind_weights)
        joins = tuple(JOIN_KINDS[rng.choice(3, p=weights)] for _ in range(n_joins))
        has_agg = bool(rng.random() < AGG_PROB)
        templates.append(_Template(joins, has_agg))
    return templates


class _QueryBuilder:
    """Builds one query plan; records planted intents as it goes."""

    def __init__(self, cfg: SynthConfig, bases: _Bases, rng: np.random.Generator):
        self.cfg = cfg
        self.bases = bases
        self.rng = rng
        self.card_intent: dict[int, str] = {}
        self.mj_total = 0
        self.mj_with_sorts = 0
        self.hj_total = 0
        self.hj_with_hash = 0

    def _jit(self, sigma: float) -> float:
        return float(np.exp(self.rng.normal(0.0, sigma)))

    def _actual(self, node: PlanNode, intent: str) -> None:
        lo, hi = {
            "correct": (0.75, 1.3),
            "under": UNDER_FACTOR,
            "over": OVER_FACTOR,
        }[intent]
        node.actual_rows = node.plan_rows * float(self.rng.uniform(lo, hi))
        self.card_intent[id(node)] = intent

    def scan(self, relation: int, kind: str) -> PlanNode:
        cfg, rng = self.cfg, self.rng
        rows = float(self.bases.rows[relation]) * self._jit(0.6)
        width = float(self.bases.widths[relation]) * self._jit(0.2)
        node = PlanNode(
            node_type=kind,
            plan_rows=rows,
            plan_width=width,
            plan_buffers=rows * width / 8192.0 * self._jit(0.3),
            relation_name=f"rel_{relation}",
        )
        w = cfg.attr_stat_width
        node.attr_mins = tuple(map(float, self.bases.attr_min + rng.normal(0.0, 8.0, w)))
        node.attr_medians = tuple(map(float, self.bases.attr_med + rng.normal(0.0, 8.0, w)))
        node.attr_maxs = tuple(map(float, self.bases.attr_max + rng.normal(0.0, 8.0, w)))
        if kind == "IndexScan":
            key = int(rng.integers(0, cfg.keys_per_relation))
            node.index_name = f"idx_{relation}_{key}"
            node.scan_direction = bool(rng.random() < 0.8)
            node.estimated_ios = rows / 1000.0 * self._jit(0.3)
            node.total_cost = 0.004 * rows * self._jit(0.2) + 2.0
        else:
            node.estimated_ios = rows / 100.0 * self._jit(0.3)
            node.total_cost = 0.01 * rows * self._jit(0.2) + 1.0
        self._actual(node, "correct")
        return node

    def _wrapper_intent(self, relation: int) -> str:
        # the wrapper's stream relation decides, whether the direct child is
        # the scan itself or a join subtree driven by that relation
        if relation == UNDER_RELATION:
            return "under"
        if relation == OVER_RELATION:
            return "over"
        return "correct"

    def sort_over(self, child: PlanNode, relation: int) -> PlanNode:
        cfg, rng = self.cfg, self.rng
        key = int(rng.integers(0, cfg.keys_per_relation))
        rows = child.plan_rows
        if cfg.wrapper_pass_through:
            buffers, ios, cost = child.plan_buffers, child.estimated_ios, child.total_cost
        else:
            buffers = child.plan_buffers * 1.1
            ios = child.estimated_ios * 0.1
            cost = child.total_cost + 0.002 * rows * math.log2(rows + 2.0)
        node = PlanNode(
            node_type="Sort",
            plan_rows=rows,
            plan_width=child.plan_width,
            plan_buffers=buffers,
            estimated_ios=ios,
            total_cost=cost,
            sort_key=f"key_{relation}_{key}",
            sort_method=SORT_METHODS[int(rng.integers(0, 3))],
            children=[child],
        )
        self._actual(node, self._wrapper_intent(relation))
        return node

    def hash_over(self, child: PlanNode, relation: int) -> PlanNode:
        cfg, rng = self.cfg, self.rng
        rows = child.plan_rows
        if cfg.wrapper_pass_through:
            buffers, ios, cost = child.plan_buffers, child.estimated_ios, child.total_cost
        else:
            buffers = child.plan_buffers * 1.3
            ios = child.estimated_ios * 0.05
            cost = child.total_cost + 0.0015 * rows
        node = PlanNode(
            node_type="Hash",
            plan_rows=rows,
            plan_width=child.plan_width,
            plan_buffers=buffers,
            estimated_ios=ios,
            total_cost=cost,
            hash_buckets=float(self.bases.buckets[relation]) * float(rng.uniform(0.9, 1.1)),
            hash_algorithm=HASH_ALGORITHMS[int(rng.integers(0, 2))],
            children=[child],
        )
        self._actual(node, self._wrapper_intent(relation))
        return node

    def join(self, kind: str, left: PlanNode, right: PlanNode) -> PlanNode:
        rng = self.rng
        r1, r2 = left.plan_rows, right.plan_rows
        rows = max(1.0, 0.3 * max(r1, r2) * self._jit(0.7))
        if kind == "MergeJoin":
            self_cost = 0.004 * (r1 + r2)
        elif kind == "HashJoin":
            self_cost = 0.003 * (r1 + r2)
        else:
            self_cost = min(5e-5 * r1 * r2, 1e6) * self._jit(0.3)
        node = PlanNode(
            node_type=kind,
            plan_rows=rows,
            plan_width=left.plan_width + right.plan_width,
            plan_buffers=(left.plan_buffers + right.plan_buffers) * 0.5,
            estimated_ios=(left.estimated_ios + right.estimated_ios) * 0.1,
            total_cost=left.total_cost + right.total_cost + self_cost,
            join_type=str(rng.choice(JOIN_TYPES, p=JOIN_TYPE_WEIGHTS)),
            children=[left, right],
        )
        for pos, child in enumerate(node.children):
            if rng.random() < 0.04:
                child.parent_relationship = "subquery"
            else:
                child.parent_relationship = "outer" if pos == 0 else "inner"
        self._actual(node, "correct")
        return node

    def aggregate_over(self, child: PlanNode) -> PlanNode:
        rng = self.rng
        rows = max(1.0, child.plan_rows * 0.05 * self._jit(0.5))
        node = PlanNode(
            node_type="Aggregate",
            plan_rows=rows,
            plan_width=child.plan_width * 0.5,
            plan_buffers=child.plan_buffers * 0.2,
            estimated_ios=child.estimated_ios * 0.05,
            total_cost=child.total_cost + 0.002 * child.plan_rows,
            agg_strategy=AGG_STRATEGIES[int(rng.integers(0, 3))],
            partial_mode=bool(rng.random() < 0.25),
            agg_operator=AGG_OPERATORS[int(rng.integers(0, 5))],
            children=[child],
        )
        self._actual(node, "correct")
        return node

    def build(self, template: _Template) -> PlanNode:
        cfg, rng = self.cfg, self.rng
        # relations and scan kinds vary per query; the template fixes structure
        relations = [int(rng.integers(0, cfg.n_relations)) for _ in range(len(template.joins) + 1)]
        kinds = [SCAN_KINDS[int(rng.random() < 0.45)] for _ in relations]
        leaves = [self.scan(rel, kind) for rel, kind in zip(relations, kinds)]
        leftmost_rel = relations[0]
        current = leaves[0]
        current_is_scan = True
        for k, jkind in enumerate(template.joins):
            right = leaves[k + 1]
            right_rel = relations[k + 1]
            if jkind == "MergeJoin":
                self.mj_total += 1
                if rng.random() < cfg.merge_join_sort_prob:
                    self.mj_with_sorts += 1
                    current = self.sort_over(current, leftmost_rel)
                    right = self.sort_over(right, right_rel)
            elif jkind == "HashJoin":
                self.hj_total += 1
                if current_is_scan and rng.random() < PRESORT_PROB:
                    current = self.sort_over(current, leftmost_rel)
                if rng.random() < HASH_JOIN_HASH_PROB:
                    self.hj_with_hash += 1
                    right = self.hash_over(right, right_rel)
            else:
                if current_is_scan and rng.random() < PRESORT_PROB:
                    current = self.sort_over(current, leftmost_rel)
                if rng.random() < PRESORT_PROB:
                    right = self.sort_over(right, right_rel)
            current = self.join(jkind, current, right)
            current_is_scan = False
        if template.has_agg:
            current = self.aggregate_over(current)
        return current

    def assign_latency(self, root: PlanNode, slow_mult: float) -> None:
        for node in iter_nodes(root):
            self_cost = node.total_cost - sum(c.total_cost for c in node.children)
            self_cost = max(self_cost, 0.0)
            noise = 1.0 + float(self.rng.uniform(-LATENCY_NOISE, LATENCY_NOISE))
            node.actual_latency_ms = LATENCY_COST_COEFF * self_cost * noise * slow_mult


def _generate(cfg: SynthConfig) -> tuple[Corpus, GroundTruth]:
    bases = _make_bases(cfg)
    templates = _make_templates(cfg)
    user_templates = {
        u: [t for t in range(cfg.n_templates) if t % cfg.n_users == u]
        for u in range(cfg.n_users)
    }

    corpus = Corpus()
    truth = GroundTruth(cfg.n_queries)

    for q in range(cfg.n_queries):
        rng = np.random.default_rng([cfg.seed, 17, q])
        user = int(rng.integers(0, cfg.n_users))
        template_id = user_templates[user][int(rng.integers(0, len(user_templates[user])))]
        template = templates[template_id]

        builder = _QueryBuilder(cfg, bases, rng)
        root = builder.build(template)
        slow = template_id == SLOW_TEMPLATE
        slow_mult = float(np.exp(rng.normal(math.log(SLOW_SCALE), 0.5))) if slow else 1.0
        builder.assign_latency(root, slow_mult)

        record = QueryRecord(f"q{q:05d}", f"user_{user}", root)
        corpus.records.append(record)
        truth.query_users.append(record.user_label)
        truth.query_templates.append(template_id)
        if slow:
            truth.slow_queries.append(q)
        truth.merge_joins += builder.mj_total
        truth.merge_joins_with_sorts += builder.mj_with_sorts
        truth.hash_joins += builder.hj_total
        truth.hash_joins_with_hash += builder.hj_with_hash

        for i, node in enumerate(iter_nodes(root)):
            truth.n_operators += 1
            truth.op_type_counts[node.node_type] += 1
            intent = builder.card_intent[id(node)]
            truth.card_labels.append(intent)
            if intent == "under":
                truth.planted_under.append((q, i))
            elif intent == "over":
                truth.planted_over.append((q, i))

    return corpus, truth


def generate(config: SynthConfig) -> Corpus:
    """Generate a corpus; identical bits under identical config."""
    return _generate(config)[0]


def ground_truth(config: SynthConfig) -> GroundTruth:
    """Oracle tables for the planted rules (regenerates deterministically)."""
    return _generate(config)[1]


def describe(config: SynthConfig) -> str:
    """Human-readable manifest of the planted rules."""
    lines = [
        "synthetic plan corpus",
        f"  queries: {config.n_queries}  users: {config.n_users}  "
        f"relations: {config.n_relations}  templates: {config.n_templates}  seed: {config.seed}",
        f"  context: P(MergeJoin children are Sorts) = {config.merge_join_sort_prob}, "
        f"P(HashJoin build side is Hash) = {HASH_JOIN_HASH_PROB}",
        f"  cardinality: wrappers directly over rel_{UNDER_RELATION} scans are "
        f"under-estimated (actual = est x U{UNDER_FACTOR}); wrappers over "
        f"rel_{OVER_RELATION} scans are over-estimated (actual = est x U{OVER_FACTOR})",
        f"  latency: {LATENCY_COST_COEFF} x self-cost x (1 +/- {LATENCY_NOISE}); "
        f"template {SLOW_TEMPLATE} queries get a heavy-tail multiplier "
        f"(lognormal around {SLOW_SCALE}x)",
        "  users: each user owns a disjoint template subset (template mod n_users)",
        f"  attr-stat width: {config.attr_stat_width}",
    ]
    return "\n".join(lines) + "\n"


def tpcds_like_config(seed: int = 0) -> SynthConfig:
    """A wide-vocabulary preset whose sparse dimension lands in the hundreds."""
    return SynthConfig(
        n_queries=800,
        n_users=10,
        n_relations=60,
        n_templates=70,
        seed=seed,
        attr_stat_width=16,
        keys_per_relation=2,
    )


def planted_card_config(seed: int = 0, n_queries: int = 400) -> SynthConfig:
    """The corpus used by the planted cardinality-rule separation checks."""
    return replace(SynthConfig(), seed=seed, n_queries=n_queries, n_relations=4)


def context_probe_config(seed: int = 0) -> SynthConfig:
    """A corpus for checking that child prediction recovers plan context.

    Wrappers pass their numerics through, so the only way to predict a
    MergeJoin's children is the planted 0.9 Sort-wrapping rate itself.
    """
    return replace(SynthConfig(), seed=seed, wrapper_pass_through=True)


# the CLI's --preset names, each with the config factory it starts from
PRESETS = {
    "default": SynthConfig,
    "planted-card": planted_card_config,
    "tpcds-like": tpcds_like_config,
    "context-probe": context_probe_config,
}
