"""Task label derivation and cross-validation fold plans.

Tasks label individual operators: admission (above/below a latency
percentile), cardinality estimate quality (under/correct/over by a factor
threshold), and which user submitted the query. Folds are built over query
indices with a one-fifth train side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classifiers import predict
from .errors import CoverageError
from .featurize import FeatureSchema
from .featurizer import Featurizer
from .plans import Corpus, QueryRecord, iter_nodes

ADMISSION_CLASSES = ("ok", "slow")
CARD_CLASSES = ("correct", "over", "under")
TASKS = ("admission", "card", "user")


@dataclass(frozen=True)
class TaskSpec:
    task: str
    percentile: float = 95.0
    factor: float = 2.0

    def __post_init__(self):
        if self.task not in TASKS:
            raise ValueError(f"task must be one of {TASKS}, got {self.task!r}")
        if not 0 < self.percentile < 100:
            raise ValueError("percentile must be in (0, 100)")
        if self.factor <= 1:
            raise ValueError("factor must be > 1")


def nearest_rank_percentile(values, p: float) -> float:
    """p-th percentile by the nearest-rank method: value at rank
    ceil(p/100 * n) of the ascending sort."""
    arr = np.sort(np.asarray(values, dtype=np.float64))
    if arr.size == 0:
        raise ValueError("no values")
    rank = math.ceil(p / 100.0 * arr.size)
    return float(arr[max(rank, 1) - 1])


def _field(corpus: Corpus, name: str, task: str) -> list:
    """One field of every operator, in walk order. A corpus where any
    operator lacks it gets no labels at all."""
    values = [getattr(node, name) for record in corpus.records for node in iter_nodes(record.root)]
    missing = values.count(None)
    if missing:
        raise CoverageError(f"{missing} operators lack {name}; {task} labels need full coverage")
    return values


def label_admission(
    corpus: Corpus, p: float = 95.0, threshold: float | None = None
) -> tuple[list[str], float]:
    """Operator labels ("ok" | "slow") + the threshold used.

    With threshold=None the threshold is the nearest-rank p-th percentile
    of this corpus's operator latencies; pass a train-side threshold to
    label a test corpus without leaking.
    """
    latencies = _field(corpus, "actual_latency_ms", "admission")
    if threshold is None:
        threshold = nearest_rank_percentile(latencies, p)
    return ["slow" if lat > threshold else "ok" for lat in latencies], threshold


def label_card(corpus: Corpus, f: float = 2.0) -> list[str]:
    """Operator labels: "over" if plan_rows >= f*actual, "under" if
    actual >= f*plan_rows, else "correct". Zero counts on either side get
    +1 smoothing on both before the ratio test."""
    actuals = _field(corpus, "actual_rows", "cardinality")
    labels = []
    for plan, actual in zip(_field(corpus, "plan_rows", "cardinality"), actuals):
        if min(plan, actual) == 0:
            plan, actual = plan + 1.0, actual + 1.0
        labels.append("over" if plan >= f * actual else "under" if actual >= f * plan
                      else "correct")
    return labels


def label_user(corpus: Corpus) -> list[str]:
    """Each operator labeled with its query's user_label, walk order."""
    missing = sum(record.user_label is None for record in corpus.records)
    if missing:
        raise CoverageError(f"{missing} queries lack a user; user labels need full coverage")
    return [record.user_label for record in corpus.records for _ in iter_nodes(record.root)]


def task_labels(
    spec: TaskSpec, corpus: Corpus, threshold: float | None = None
) -> tuple[list[str], tuple[str, ...], float | None]:
    """Operator labels for spec's task, the class tuple, and the admission
    threshold used (None for the other tasks).

    Pass a train-side threshold to label a test corpus without leaking.
    User classes are the labels in first-appearance order.
    """
    if spec.task == "admission":
        labels, threshold = label_admission(corpus, spec.percentile, threshold)
        return labels, ADMISSION_CLASSES, threshold
    if spec.task == "card":
        return label_card(corpus, spec.factor), CARD_CLASSES, None
    labels = label_user(corpus)
    return labels, tuple(dict.fromkeys(labels)), None


def flag_query(classifier, schema: FeatureSchema, record: QueryRecord, transform=None) -> str:
    """"flag" if the classifier marks any operator of the query "slow",
    else "admit". transform is the model that maps encoded rows to the
    classifier's feature space: an Encoder, PcaModel or FaModel, or None for
    raw sparse rows. As in CLI predict, Featurizer.features reads the rows
    and a classifier of another featurization kind, schema or width is refused."""
    feat = Featurizer(schema, transform)
    feat.accept(classifier)
    return _verdict(predict(classifier, feat.features(list(iter_nodes(record.root)))))


def _verdict(preds) -> str:
    """A query's verdict from its operators' labels, for CLI predict too."""
    return "flag" if ADMISSION_CLASSES[1] in preds else "admit"


@dataclass
class FoldPlan:
    """Per-fold (train, test) query-index arrays; train is the one-fifth."""

    strategy: str
    seed: int
    folds: list[tuple[np.ndarray, np.ndarray]]

    def __len__(self) -> int:
        return len(self.folds)


def make_folds(
    corpus: Corpus, strategy: str, seed: int = 0, n_folds: int = 5
) -> FoldPlan:
    """Build the cross-validation plan over query indices.

    random: seeded permutation split into fifths, each fifth trains once.
    temporal: sliding one-fifth train windows; every train query precedes
      every test query in arrival order.
    by_group: whole user_label groups are shuffled and greedy-balanced into
      n_folds buckets; each bucket trains once, so no group ever appears on
      both sides.
    """
    n = len(corpus)
    if n_folds < 2:
        raise ValueError(f"need at least 2 folds, got {n_folds}")
    if n < n_folds:
        raise ValueError(f"need at least {n_folds} queries, corpus has {n}")
    if strategy == "temporal":
        fifth = n // n_folds
        starts = [i * (n - fifth) // n_folds for i in range(n_folds)]
        return FoldPlan(strategy, seed, [(np.arange(start, start + fifth),
                                          np.arange(start + fifth, n)) for start in starts])
    if strategy == "random":
        rng = np.random.default_rng([seed, 31])
        parts = np.array_split(rng.permutation(n), n_folds)
    elif strategy == "by_group":
        groups: dict[str, list[int]] = {}
        for i, rec in enumerate(corpus.records):
            groups.setdefault(rec.user_label, []).append(i)
        keys = list(groups)
        if len(keys) < n_folds:
            raise ValueError(
                f"by_group needs at least {n_folds} distinct user_label groups, "
                f"corpus has {len(keys)}"
            )
        rng = np.random.default_rng([seed, 37])
        order = [keys[j] for j in rng.permutation(len(keys))]
        buckets: list[list[int]] = [[] for _ in range(n_folds)]
        for key in order:
            smallest = min(range(n_folds), key=lambda b: (len(buckets[b]), b))
            buckets[smallest].extend(groups[key])
        parts = [np.array(bucket, dtype=np.intp) for bucket in buckets]
    else:
        raise ValueError(f"unknown fold strategy {strategy!r}")
    # part i trains; the other parts, in order, are its test side
    folds = [(np.sort(part), np.sort(np.concatenate(parts[:i] + parts[i + 1:])))
             for i, part in enumerate(parts)]
    return FoldPlan(strategy, seed, folds)


def assert_leak_free(plan: FoldPlan, corpus: Corpus) -> None:
    """Raise AssertionError if any fold violates its separation contract."""
    for train, test in plan.folds:
        overlap = np.intersect1d(train, test)
        assert overlap.size == 0, f"fold shares queries {overlap[:5]}"
        if plan.strategy == "temporal":
            assert train.max() < test.min(), "temporal fold: train not before test"
        if plan.strategy == "by_group":
            train_groups = {corpus.records[i].user_label for i in train}
            test_groups = {corpus.records[i].user_label for i in test}
            shared = train_groups & test_groups
            assert not shared, f"groups on both sides: {sorted(shared)[:3]}"
