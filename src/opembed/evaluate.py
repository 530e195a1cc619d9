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
from .featurize import encode_corpus, fit_encode
from .featurizer import Featurizer, fit_featurization, parse_featurization
from .hourglass import DEFAULT_HIDDEN
from .plans import Corpus, subcorpus
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
    train_seconds: float | None


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
    class. With timings, each cell also gets its training wall time and mean
    one-row predict latency over up to INFER_SAMPLE test rows (else None).

    With embedding_from_full_log the schema and the embedding are fit once on
    the whole (unlabeled) corpus and shared by every fold; classifiers and the
    pca/fa reductions still see only the fold's train fifth.
    """
    if (not featurizations or not models or len(set(featurizations)) < len(featurizations)
            or len(set(models)) < len(models)):
        raise ValueError("evaluate needs at least one featurization and one model, each named once")
    for name in featurizations:
        parse_featurization(name)
    for model in models:
        if model not in clf_mod.MODELS:
            raise ValueError(f"unknown model {model!r}; want one of {clf_mod.MODELS}")

    full = None
    shared_fits: dict[str, Featurizer] = {}
    if embedding_from_full_log:
        full_schema, full = fit_encode(corpus)
        for name in featurizations:
            if parse_featurization(name)[0] == "neural":
                shared_fits[name] = fit_featurization(
                    name, full_schema, full.X, full.children, sgd, hidden_dims, seed
                )

    def rows_for(qs: np.ndarray) -> np.ndarray:
        starts = np.searchsorted(full.query_index, qs, side="left")
        stops = np.searchsorted(full.query_index, qs, side="right")
        return np.concatenate([np.arange(a, b) for a, b in zip(starts, stops)])

    report = None
    for fold_idx, (train_q, test_q) in enumerate(plan.folds):
        sub_train = subcorpus(corpus, train_q)
        sub_test = subcorpus(corpus, test_q)

        y_train, classes, threshold = task_labels(spec, sub_train)
        y_test, _, _ = task_labels(spec, sub_test, threshold)
        if report is None:
            report = EvalReport(spec, plan.strategy, classes)

        children = None
        if embedding_from_full_log:
            schema = full_schema
            X_train = full.X[rows_for(train_q)]
            X_test = full.X[rows_for(test_q)]
        else:
            schema, train_table = fit_encode(sub_train)
            X_train, children = train_table.X, train_table.children
            X_test = encode_corpus(schema, sub_test).X

        # the train side's most common class; ties go to the first in classes
        majority_label = max(classes, key=Counter(y_train).__getitem__)
        y_test_arr = np.array(y_test)
        prior = float(np.mean(y_test_arr == majority_label))
        # the classes the test side holds, each with its rows
        masks = {cls: mask for cls in classes if (mask := y_test_arr == cls).any()}

        for feat_name in featurizations:
            if feat_name in shared_fits:
                fitted = shared_fits[feat_name]
            else:
                fitted = fit_featurization(
                    feat_name, schema, X_train, children, sgd, hidden_dims, seed
                )
            F_train = fitted.transform(X_train)
            F_test = fitted.transform(X_test)
            train_set = clf_mod.make_labeled_set(F_train, y_train, classes, fitted.provenance)
            for model in models:
                t0 = time.perf_counter() if timings else None
                clf = clf_mod.train(model, train_set, seed)
                train_seconds = time.perf_counter() - t0 if timings else None
                preds = np.array(clf_mod.predict(clf, F_test))
                accuracy = float(np.mean(preds == y_test_arr))
                recalls = {cls: float(np.mean(preds[m] == cls)) for cls, m in masks.items()}
                infer_ms = (clf_mod.measure_inference(clf, F_test[:INFER_SAMPLE]).mean_ms
                            if timings else None)
                report.cells.append(CellResult(spec.task, feat_name, model, fold_idx, accuracy,
                                               prior, recalls, infer_ms, train_seconds))
    return report
