"""Command-line pipeline: synthesize a workload, train an embedding,
featurize operators, train task classifiers, predict, and evaluate.

Every command exits 0 on success and nonzero with a single
"error: <reason>" line on stderr when a contract is violated.
"""

from __future__ import annotations

import csv
import functools
import math
import sys
from dataclasses import replace
from pathlib import Path

import click
import numpy as np

from . import store
from .classifiers import (
    MODELS,
    FeatProvenance,
    make_labeled_set,
    predict as clf_predict,
    train_sets,
)
from .errors import OpembedError
from .evaluate import _write_csv, evaluate as run_evaluate
from .featurize import corpus_operators, encode_corpus, encode_in_blocks, fit_encode
from .featurizer import fit_featurization
from .hourglass import (
    HourglassSpec,
    build,
    cut_off,
    embed_corpus,
    project_2d,
    train_embedding,
)
from .nn import SgdConfig
from .plans import load_corpus, save_corpus
from .synth import PRESETS, describe, generate
from .tasks import ADMISSION_CLASSES, TASKS, TaskSpec, make_folds, task_labels

def guarded(fn):
    """Convert contract violations into one-line nonzero exits."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (OpembedError, ValueError, OSError) as exc:
            text = str(exc).splitlines()[0] if str(exc) else type(exc).__name__
            click.echo(f"error: {text}", err=True)
            sys.exit(1)

    return wrapper


def _parse_hidden(text: str) -> tuple[int, ...]:
    try:
        dims = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise ValueError(f"bad --hidden {text!r}; want comma-separated ints")
    if not dims:
        raise ValueError("--hidden needs at least one layer width")
    return dims


def _parse_list(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def _write_feature_csv(path, ids: list[str], columns: list[str], rows: np.ndarray) -> None:
    # a row at a time, so no Python list of the whole matrix is held
    _write_csv(path, ["id"] + columns, ([rid] + row.tolist() for rid, row in zip(ids, rows)))


def _read_feature_csv(path) -> tuple[list[str], np.ndarray]:
    """Ids and finite feature rows; a row with a missing, extra, unparsable or
    non-finite cell is refused by its file and line."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[0] != "id":
            raise ValueError(f"{path} is not a feature CSV (first column must be 'id')")
        ids, rows = [], []
        for line in reader:
            try:
                if len(line) != len(header):
                    raise ValueError(f"{len(line)} cells, but the header has {len(header)}")
                row = [float(v) for v in line[1:]]
                if not all(map(math.isfinite, row)):
                    raise ValueError("a non-finite value")
            except ValueError as exc:
                raise ValueError(f"{path} line {reader.line_num}: {exc}") from None
            ids.append(line[0])
            rows.append(row)
    if not rows:
        raise ValueError(f"{path} has no feature rows")
    return ids, np.asarray(rows)


@click.group()
def main() -> None:
    """Operator-embedding toolkit for query-plan workloads."""


@main.command()
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--queries", default=None, type=int, help="Override the preset's query count.")
@click.option("--preset", default="default", show_default=True, type=click.Choice(list(PRESETS)))
@click.option("--out", required=True, type=click.Path(dir_okay=False))
@guarded
def synth(seed: int, queries: int | None, preset: str, out: str) -> None:
    """Generate a synthetic plan corpus plus a manifest sidecar."""
    cfg = PRESETS[preset](seed=seed)
    if queries is not None:
        cfg = replace(cfg, n_queries=queries)
    corpus = generate(cfg)
    save_corpus(corpus, out)
    Path(f"{out}.manifest.txt").write_text(describe(cfg))
    click.echo(f"wrote {len(corpus.records)} queries to {out}")


@main.command("train-embedding")
@click.option("--corpus", "corpus_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--embedding-dim", default=32, show_default=True, type=int)
@click.option("--hidden", default="256,256,128,128,64,64", show_default=True)
@click.option("--epochs", default=100, show_default=True, type=int)
@click.option("--lr", default=0.01, show_default=True, type=float)
@click.option("--batch", default=64, show_default=True, type=int)
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--masked-loss", is_flag=True,
              help="Skip missing-child slots in the loss instead of scoring zeros.")
@click.option("--pre-activation", is_flag=True,
              help="Cut the encoder before the embedding layer's norm and ReLU.")
@click.option("--encoder-out", required=True, type=click.Path(dir_okay=False))
@click.option("--schema-out", default=None, type=click.Path(dir_okay=False),
              help="Also write the schema as its own bundle.")
@guarded
def train_embedding_cmd(corpus_path, embedding_dim, hidden, epochs, lr, batch, seed,
                        masked_loss, pre_activation, encoder_out, schema_out) -> None:
    """Fit the sparse schema and train the child-prediction network."""
    corpus = load_corpus(corpus_path)
    schema, table = fit_encode(corpus)
    hidden_dims = _parse_hidden(hidden)
    net = build(HourglassSpec(hidden_dims, embedding_dim, seed), schema)
    sgd = SgdConfig(learning_rate=lr, batch_size=batch, epochs=epochs, seed=seed)
    net, trace = train_embedding(net, table.X, table.children, sgd, masked=masked_loss)
    encoder = cut_off(net, pre_activation=pre_activation)
    meta = {
        "seed": seed, "epochs": epochs, "learning_rate": lr, "batch_size": batch,
        "hidden_dims": list(hidden_dims), "embedding_dim": embedding_dim,
        "masked_loss": masked_loss, "pre_activation": pre_activation,
        "queries": len(corpus.records), "operators": len(table),
        "final_loss": trace[-1],
    }
    store.save_encoder_bundle(encoder_out, encoder, schema, meta)
    if schema_out:
        store.save_schema_bundle(schema_out, schema, meta={"queries": len(corpus.records)})
    click.echo(
        f"trained {embedding_dim}-dim encoder on {len(table)} operators, "
        f"loss {trace[0]:.4f} -> {trace[-1]:.4f}, wrote {encoder_out}"
    )


@main.command()
@click.option("--corpus", "corpus_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--encoder", "encoder_path", required=True, type=click.Path(dir_okay=False))
@click.option("--out", required=True, type=click.Path(dir_okay=False))
@guarded
def embed(corpus_path, encoder_path, out) -> None:
    """Embed every operator; writes id + one column per embedding dim."""
    corpus = load_corpus(corpus_path)
    feat = store.load_featurizer(encoder=encoder_path)
    ids, E = embed_corpus(feat.model, feat.schema, corpus)
    cols = [f"e{j}" for j in range(E.shape[1])]
    _write_feature_csv(out, ids, cols, E)
    click.echo(f"embedded {len(ids)} operators at dim {len(cols)} -> {out}")


@main.command()
@click.option("--corpus", "corpus_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--schema", "schema_path", required=True, type=click.Path(dir_okay=False))
@click.option("--method", required=True, type=click.Choice(["pca", "fa", "sparse"]))
@click.option("--dim", default=32, show_default=True, type=int)
@click.option("--out", required=True, type=click.Path(dir_okay=False))
@click.option("--model-out", default=None, type=click.Path(dir_okay=False),
              help="Also save the fitted reducer as a bundle (pca/fa only).")
@guarded
def reduce(corpus_path, schema_path, method, dim, out, model_out) -> None:
    """Project sparse vectors with pca/fa, or pass them through unchanged."""
    if method == "sparse" and model_out:
        raise ValueError("--model-out applies to pca/fa, not sparse")
    corpus = load_corpus(corpus_path)
    schema, _ = store.load_schema_bundle(schema_path)
    table = encode_corpus(schema, corpus)
    feat = fit_featurization(method if method == "sparse" else f"{method}-{dim}", schema, table.X)
    rows = feat.transform(table.X)
    if method == "sparse":
        cols = [slot.name for slot in schema.slots]
    else:
        cols = [f"{method[0]}{j}" for j in range(dim)]  # p0.. for pca, f0.. for fa
    if model_out:
        save = store.save_pca_bundle if method == "pca" else store.save_fa_bundle
        save(model_out, feat.model, feat.provenance.digest, meta={"dim": dim})
    _write_feature_csv(out, table.ids, cols, rows)
    click.echo(f"wrote {rows.shape[0]}x{rows.shape[1]} {method} features -> {out}")


_MODEL_CHOICES = tuple(m for m in MODELS if m != "dummy")


@main.command("train-task")
@click.option("--corpus", "corpus_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--features", "features_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--task", required=True, type=click.Choice(TASKS))
@click.option("--model", required=True, type=click.Choice(_MODEL_CHOICES))
@click.option("--percentile", default=95.0, show_default=True, type=float)
@click.option("--factor", default=2.0, show_default=True, type=float)
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--provenance", "provenance_path", default=None, type=click.Path(dir_okay=False),
              help="Bundle whose schema hash the classifier is chained to.")
@click.option("--out", required=True, type=click.Path(dir_okay=False))
@guarded
def train_task(corpus_path, features_path, task, model, percentile, factor, seed,
               provenance_path, out) -> None:
    """Label the corpus operators and train one classifier on the features."""
    corpus = load_corpus(corpus_path)
    ids, X = _read_feature_csv(features_path)
    labels, classes, threshold = task_labels(TaskSpec(task, percentile, factor), corpus)
    if len(labels) != len(X):
        raise ValueError(
            f"{features_path} has {len(X)} rows but the corpus has {len(labels)} operators"
        )
    # row i is labelled as the corpus's i-th operator in walk order
    _, want, _ = corpus_operators(corpus)
    for line, (got, expected) in enumerate(zip(ids, want), start=2):
        if got != expected:
            raise ValueError(f"{features_path} line {line} has id {got!r}, "
                             f"but the corpus's operator there is {expected!r}")
    prov = store.bundle_provenance(provenance_path) if provenance_path else FeatProvenance("csv")
    clf = train_sets(model, [make_labeled_set(X, labels, classes, prov)], seed)[0]
    meta = {"task": task, "seed": seed}
    if task == "admission":
        meta["percentile"] = percentile
        meta["threshold_ms"] = threshold
    if task == "card":
        meta["factor"] = factor
    store.save_classifier_bundle(out, clf, meta)
    click.echo(f"trained {model} on {len(X)} operators ({len(classes)} classes) -> {out}")


@main.command()
@click.option("--plans", "plans_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--classifier", "classifier_path", required=True, type=click.Path(dir_okay=False))
@click.option("--encoder", "encoder_path", default=None, type=click.Path(dir_okay=False))
@click.option("--reducer", "reducer_path", default=None, type=click.Path(dir_okay=False))
@click.option("--schema", "schema_path", default=None, type=click.Path(dir_okay=False))
@click.option("--out", required=True, type=click.Path(dir_okay=False))
@guarded
def predict(plans_path, classifier_path, encoder_path, reducer_path, schema_path, out) -> None:
    """Predict per operator; admission classifiers also emit query verdicts.

    Featurize with exactly one of: --encoder, --reducer plus --schema, or
    --schema alone for raw sparse vectors.
    """
    corpus = load_corpus(plans_path)
    clf, _ = store.load_classifier_bundle(classifier_path)
    feat = store.load_featurizer(encoder=encoder_path, reducer=reducer_path, schema=schema_path)
    feat.accept(clf)
    nodes, ids, query_index = corpus_operators(corpus)
    # one predict over all the features, so no score depends on the blocks
    preds = clf_predict(clf, encode_in_blocks(feat.schema, nodes, feat.transform, feat.narrowest))
    _write_csv(out, ["id", "node_type", "prediction"],
               zip(ids, (node.node_type for node in nodes), preds))

    flagged = ""
    slow = ADMISSION_CLASSES[1]
    if slow in clf.classes:
        # verdict per query: flag when any of its operators predicts "slow"
        hit = np.zeros(len(corpus.records), dtype=bool)
        hit[query_index[np.array(preds) == slow]] = True
        verdicts = ("flag" if flag else "admit" for flag in hit)
        _write_csv(f"{out}.verdicts.csv", ["query_id", "verdict"],
                   zip((r.query_id for r in corpus.records), verdicts))
        flagged = f"; {int(hit.sum())}/{len(hit)} queries flagged"
    click.echo(f"predicted {len(preds)} operators{flagged} -> {out}")


@main.command("evaluate")
@click.option("--corpus", "corpus_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--task", default="card", show_default=True, type=click.Choice(TASKS))
@click.option("--featurizations", default="sparse,neural-32,pca-32,fa-32", show_default=True)
@click.option("--models", default="logreg,knn,rf,svm,dummy", show_default=True)
@click.option("--strategy", default="random", show_default=True,
              type=click.Choice(["random", "temporal", "by_group"]))
@click.option("--percentile", default=95.0, show_default=True, type=float)
@click.option("--factor", default=2.0, show_default=True, type=float)
@click.option("--epochs", default=100, show_default=True, type=int)
@click.option("--lr", default=0.01, show_default=True, type=float)
@click.option("--batch", default=64, show_default=True, type=int)
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--embedding-from-full-log", is_flag=True,
              help="Fit schema and encoder on the whole unlabeled corpus instead of each train fold.")
@click.option("--timings", is_flag=True,
              help="Add wall-clock columns and run the one-row latency probe (breaks byte-identical "
                   "output). A cell's train_seconds is its share of its model's one fit over all folds.")
@click.option("--out", required=True, type=click.Path(dir_okay=False))
@click.option("--medians-out", default=None, type=click.Path(dir_okay=False))
@guarded
def evaluate_cmd(corpus_path, task, featurizations, models, strategy, percentile, factor,
                 epochs, lr, batch, seed, embedding_from_full_log, timings, out,
                 medians_out) -> None:
    """Run the 5-fold train-on-a-fifth grid and write the report CSV."""
    corpus = load_corpus(corpus_path)
    spec = TaskSpec(task, percentile=percentile, factor=factor)
    plan = make_folds(corpus, strategy, seed=seed)
    sgd = SgdConfig(learning_rate=lr, batch_size=batch, epochs=epochs, seed=seed)
    report = run_evaluate(
        corpus, spec, _parse_list(featurizations), _parse_list(models), plan,
        sgd=sgd, embedding_from_full_log=embedding_from_full_log, seed=seed, timings=timings,
    )
    report.to_csv(out)
    if medians_out:
        report.medians_to_csv(medians_out)
    click.echo(report.format_table(), nl=False)


@main.command()
@click.option("--features", "features_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--out", required=True, type=click.Path(dir_okay=False))
@guarded
def project2d(features_path, out) -> None:
    """Project a feature CSV to two principal columns for plotting."""
    _, X = _read_feature_csv(features_path)
    XY = project_2d(X)
    _write_csv(out, ["x", "y"], XY.tolist())
    click.echo(f"projected {len(XY)} rows -> {out}")


if __name__ == "__main__":
    main()
