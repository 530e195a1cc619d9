"""Cross-validated evaluation over the (task x featurization x model) grid.

Per fold, everything fitted is fitted on the train fifth only: feature
schema, z-score stats, admission threshold, reducers, and the embedding
network. The embedding_from_full_log flag relaxes that for the schema and
encoder (they need no labels), mirroring how an unlabeled plan log would
be used in production.
"""

from __future__ import annotations

import csv
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import classifiers as clf_mod
from . import nn
from .featurize import FeatureSchema, OperatorTable, encode_rows, fit_encode
from .featurizer import fit_featurization, parse_featurization
from .hourglass import DEFAULT_HIDDEN
from .plans import Corpus, iter_nodes, subcorpus
from .tasks import FoldPlan, TaskSpec, task_labels

INFER_SAMPLE = 100  # test rows per cell for the one-row latency probe


def _write_csv(path, header: list[str], rows) -> None:
    """The one CSV writer: a header, then rows. csv writes a float as its
    repr, so every value reads back exactly."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


@dataclass
class CellResult:
    task: str
    featurization: str
    model: str
    fold: int
    accuracy: float
    prior: float
    recalls: dict[str, float]
    mean_infer_ms: float | None     # None when evaluated without timings
    # the cell's share of its model's one fit over every fold (that wall
    # time over the fold count); None when evaluated without timings
    train_seconds: float | None


@dataclass
class _Fold:
    """One fold's labels and train side, kept through evaluate's passes: the
    full-log schema, X and children and the fold's rows in query order
    (embedding_from_full_log), else the fold's own fit_encode schema, X and
    children, all of X (rows None). No ids and no test rows."""

    schema: FeatureSchema
    X: np.ndarray
    children: np.ndarray
    rows: np.ndarray | None
    test_q: np.ndarray
    y_train: list[str]
    classes: tuple[str, ...]
    y_test: np.ndarray
    prior: float                    # test-side share of the train-majority class


def _rows_for(table: OperatorTable, qs: np.ndarray) -> np.ndarray:
    """The table's rows of queries qs, query by query in qs's order."""
    starts = np.searchsorted(table.query_index, qs, side="left")
    stops = np.searchsorted(table.query_index, qs, side="right")
    return np.concatenate([np.arange(a, b) for a, b in zip(starts, stops)])


@dataclass
class EvalReport:
    spec: TaskSpec
    strategy: str
    classes: tuple[str, ...]
    cells: list[CellResult] = field(default_factory=list)

    @property
    def timed(self) -> bool:
        return all(None not in (c.mean_infer_ms, c.train_seconds) for c in self.cells)

    def median_rows(self) -> list[dict]:
        """One row per (featurization, model): median over the folds."""
        groups: dict[tuple[str, str], list[CellResult]] = {}
        for cell in self.cells:
            groups.setdefault((cell.featurization, cell.model), []).append(cell)
        timed = self.timed
        return [
            {
                "task": self.spec.task,
                "featurization": feat,
                "model": model,
                "folds": len(sub),
                "accuracy": float(np.median([c.accuracy for c in sub])),
                "prior": float(np.median([c.prior for c in sub])),
                "mean_infer_ms": float(np.median([c.mean_infer_ms for c in sub]))
                if timed else None,
            }
            for (feat, model), sub in groups.items()
        ]

    def to_csv(self, path) -> None:
        """Long-form per-fold cells, one recall column per class, plus the
        wall-clock columns when the report is timed; an untimed report's
        file is byte-identical across runs of one seed."""
        timing = ["mean_infer_ms", "train_seconds"] if self.timed else []
        _write_csv(
            path,
            ["task", "strategy", "featurization", "model", "fold", "accuracy", "prior"]
            + timing + [f"recall_{c}" for c in self.classes],
            ([self.spec.task, self.strategy, c.featurization, c.model, c.fold, c.accuracy,
              c.prior] + [getattr(c, col) for col in timing]
             + [c.recalls.get(cls, float("nan")) for cls in self.classes]
             for c in self.cells),
        )

    def medians_to_csv(self, path) -> None:
        cols = ["task", "featurization", "model", "folds", "accuracy", "prior"]
        cols += ["mean_infer_ms"] if self.timed else []
        _write_csv(path, cols, ([r[col] for col in cols] for r in self.median_rows()))

    def format_table(self) -> str:
        rows = self.median_rows()
        timed = self.timed
        lines = [
            f"task={self.spec.task} strategy={self.strategy} "
            f"(median over {len(set(c.fold for c in self.cells))} folds)",
            f"{'featurization':<14} {'model':<8} {'accuracy':>9} {'prior':>9}"
            + (f" {'infer ms':>10}" if timed else ""),
        ]
        for r in rows:
            lines.append(
                f"{r['featurization']:<14} {r['model']:<8} "
                f"{r['accuracy']:>9.4f} {r['prior']:>9.4f}"
                + (f" {r['mean_infer_ms']:>10.4f}" if timed else "")
            )
        return "\n".join(lines) + "\n"


def evaluate(
    corpus: Corpus,
    spec: TaskSpec,
    featurizations: list[str],
    models: list[str],
    plan: FoldPlan,
    sgd: nn.SgdConfig | None = None,
    hidden_dims: tuple[int, ...] = DEFAULT_HIDDEN,
    embedding_from_full_log: bool = False,
    timings: bool = False,
    seed: int = 0,
) -> EvalReport:
    """Train on each fold's train fifth, test on its test side, and record
    accuracy, per-class recall and the test-side prior of the train-majority
    class. With timings, each cell also gets its share of its model's
    training wall time and its mean one-row predict latency over up to
    INFER_SAMPLE test rows (else None).

    Three passes: label each fold and keep its train side; per featurization,
    train each model once on every fold's train side (train_sets), a cell's
    share being that time over the fold count; per fold, build the test side,
    score it and drop it. Cells come out in (fold, featurization, model) order.

    With embedding_from_full_log the schema and the embedding are fit once on
    the whole (unlabeled) corpus and shared by every fold; classifiers and the
    pca/fa reductions still see only the fold's train fifth.
    """
    if (not plan.folds or not featurizations or not models
            or len(set(featurizations)) < len(featurizations) or len(set(models)) < len(models)):
        raise ValueError("evaluate needs a fold, at least one featurization and one model, "
                         "each named once")
    for name in featurizations:
        parse_featurization(name)
    for model in models:
        if model not in clf_mod.MODELS:
            raise ValueError(f"unknown model {model!r}; want one of {clf_mod.MODELS}")

    full = fit_encode(corpus) if embedding_from_full_log else None
    # per fold: the labels and the train side
    folds = []
    for train_q, test_q in plan.folds:
        sub_train = subcorpus(corpus, train_q)
        y_train, classes, threshold = task_labels(spec, sub_train)
        y_test = np.array(task_labels(spec, subcorpus(corpus, test_q), threshold)[0])
        # the train side's most common class; ties go to the first in classes
        majority_label = max(classes, key=Counter(y_train).__getitem__)
        schema, table = full or fit_encode(sub_train)
        folds.append(_Fold(schema, table.X, table.children,
                           _rows_for(table, train_q) if full else None, test_q,
                           y_train, classes, y_test, float(np.mean(y_test == majority_label))))
        del table  # else the last fold's ids would live through the passes below

    # per featurization: fit each fold's featurizer, then train each model once over the folds
    fitted = {}
    for feat_name in featurizations:
        shared = None  # a neural featurization's one full-log fit, which every fold shares
        if full and parse_featurization(feat_name)[0] == "neural":
            shared = fit_featurization(feat_name, full[0], full[1].X, full[1].children, sgd,
                                       hidden_dims, seed)
        fits, train_sets = [], []
        for fold in folds:
            X_train, children = (fold.X[fold.rows], None) if full else (fold.X, fold.children)
            fits.append(shared or fit_featurization(
                feat_name, fold.schema, X_train, children, sgd, hidden_dims, seed))
            train_sets.append(clf_mod.make_labeled_set(
                fits[-1].transform(X_train), fold.y_train, fold.classes, fits[-1].provenance))
        trained = {}
        for model in models:
            t0 = time.perf_counter() if timings else None
            clfs = clf_mod.train_sets(model, train_sets, seed)
            trained[model] = clfs, (time.perf_counter() - t0) / len(folds) if timings else None
        fitted[feat_name] = fits, trained
    del train_sets, X_train  # before any test side is built

    # every fold's classes, in first appearance over the folds, name the recall columns
    report = EvalReport(spec, plan.strategy, tuple(dict.fromkeys(
        cls for fold in folds for cls in fold.classes)))
    # per fold: build the test side once, score it with every featurization and model, drop it
    for k, fold in enumerate(folds):
        X_test = (full[1].X[_rows_for(full[1], fold.test_q)] if full else encode_rows(
            fold.schema, [node for q in fold.test_q for node in iter_nodes(corpus.records[q].root)]))
        # the classes the test side holds, each with its rows
        masks = {cls: mask for cls in fold.classes if (mask := fold.y_test == cls).any()}
        for feat_name, (fits, trained) in fitted.items():
            F_test = fits[k].transform(X_test)
            for model, (clfs, train_seconds) in trained.items():
                preds = np.array(clf_mod.predict(clfs[k], F_test))
                accuracy = float(np.mean(preds == fold.y_test))
                recalls = {cls: float(np.mean(preds[m] == cls)) for cls, m in masks.items()}
                infer_ms = (clf_mod.measure_inference(clfs[k], F_test[:INFER_SAMPLE]).mean_ms
                            if timings else None)
                report.cells.append(CellResult(spec.task, feat_name, model, k, accuracy,
                                               fold.prior, recalls, infer_ms, train_seconds))
        del X_test, F_test  # before the next fold's test side is built
    return report
