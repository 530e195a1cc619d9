"""Command-line pipeline: synthesize a workload, train an embedding,
featurize operators, train task classifiers, predict, and evaluate.

Every command exits 0 on success and nonzero with a single
"error: <reason>" line on stderr when a contract is violated.
"""

from __future__ import annotations

import csv
import functools
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
    train as train_classifier,
)
from .errors import OpembedError
from .evaluate import evaluate as run_evaluate
from .featurize import build_schema, encode_corpus, schema_hash
from .hourglass import (
    HourglassSpec,
    build,
    cut_off,
    embed_corpus,
    project_2d,
    train_embedding,
)
from .nn import SgdConfig
from .plans import load_corpus, save_corpus, walk_operators
from .reducers import fit_fa, fit_pca, transform_fa, transform_pca
from .synth import (
    SynthConfig,
    context_probe_config,
    describe,
    generate,
    planted_card_config,
    tpcds_like_config,
)
from .tasks import TaskSpec, make_folds, task_labels

PRESETS = ("default", "planted-card", "tpcds-like", "context-probe")


def _preset_config(preset: str) -> SynthConfig:
    if preset == "planted-card":
        return planted_card_config()
    if preset == "tpcds-like":
        return tpcds_like_config()
    if preset == "context-probe":
        return context_probe_config()
    return SynthConfig()


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
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id"] + columns)
        for rid, row in zip(ids, rows):
            writer.writerow([rid] + [repr(float(v)) for v in row])


def _read_feature_csv(path) -> tuple[list[str], np.ndarray]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[0] != "id":
            raise ValueError(f"{path} is not a feature CSV (first column must be 'id')")
        ids, rows = [], []
        for line in reader:
            ids.append(line[0])
            rows.append([float(v) for v in line[1:]])
    if not rows:
        raise ValueError(f"{path} has no feature rows")
    return ids, np.asarray(rows)


@click.group()
def main() -> None:
    """Operator-embedding toolkit for query-plan workloads."""


@main.command()
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--queries", default=None, type=int, help="Override the preset's query count.")
@click.option("--preset", default="default", show_default=True, type=click.Choice(PRESETS))
@click.option("--out", required=True, type=click.Path(dir_okay=False))
@guarded
def synth(seed: int, queries: int | None, preset: str, out: str) -> None:
    """Generate a synthetic plan corpus plus a manifest sidecar."""
    cfg = replace(_preset_config(preset), seed=seed)
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
    schema = build_schema(corpus)
    table = encode_corpus(schema, corpus)
    hidden_dims = _parse_hidden(hidden)
    net = build(HourglassSpec(schema.total_dim, hidden_dims, embedding_dim, seed), schema)
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
    encoder, header = store.load_encoder_bundle(encoder_path)
    schema = store.bundle_schema(header)
    if schema is None:
        raise ValueError(
            f"{encoder_path} carries no schema; re-create it with train-embedding"
        )
    ds = embed_corpus(encoder, schema, corpus)
    cols = [f"e{j}" for j in range(ds.embeddings.shape[1])]
    _write_feature_csv(out, ds.ids, cols, ds.embeddings)
    click.echo(f"embedded {len(ds.ids)} operators at dim {len(cols)} -> {out}")


@main.command()
@click.option("--corpus", "corpus_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--schema", "schema_path", required=True, type=click.Path(dir_okay=False))
@click.option("--method", required=True, type=click.Choice(["pca", "fa", "sparse"]))
@click.option("--dim", default=32, show_default=True, type=int)
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--out", required=True, type=click.Path(dir_okay=False))
@click.option("--model-out", default=None, type=click.Path(dir_okay=False),
              help="Also save the fitted reducer as a bundle (pca/fa only).")
@guarded
def reduce(corpus_path, schema_path, method, dim, seed, out, model_out) -> None:
    """Project sparse vectors with pca/fa, or pass them through unchanged."""
    corpus = load_corpus(corpus_path)
    schema, _ = store.load_schema_bundle(schema_path)
    digest = schema_hash(schema)
    table = encode_corpus(schema, corpus)
    X = table.X
    if method == "pca":
        model = fit_pca(X, dim, seed=seed)
        rows = transform_pca(model, X)
        cols = [f"p{j}" for j in range(dim)]
        if model_out:
            store.save_pca_bundle(model_out, model, digest, meta={"dim": dim, "seed": seed})
    elif method == "fa":
        model = fit_fa(X, dim)
        rows = transform_fa(model, X)
        cols = [f"f{j}" for j in range(dim)]
        if model_out:
            store.save_fa_bundle(model_out, model, digest, meta={"dim": dim})
    else:
        if model_out:
            raise ValueError("--model-out applies to pca/fa, not sparse")
        rows = X
        cols = [slot.name for slot in schema.slots]
    _write_feature_csv(out, table.ids, cols, rows)
    click.echo(f"wrote {rows.shape[0]}x{rows.shape[1]} {method} features -> {out}")


_TASK_CHOICES = ("admission", "card", "user")
_MODEL_CHOICES = tuple(m for m in MODELS if m != "dummy")


def _provenance_from_bundle(path) -> FeatProvenance:
    header, _ = store.load_bundle(path)
    kind = {"encoder": "neural", "pca": "pca", "fa": "fa", "schema": "sparse"}.get(header["kind"])
    if kind is None:
        raise ValueError(f"{path} is a {header['kind']} bundle; cannot stamp provenance from it")
    return FeatProvenance(kind, header["schema_hash"])


@main.command("train-task")
@click.option("--corpus", "corpus_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--features", "features_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--task", required=True, type=click.Choice(_TASK_CHOICES))
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
    prov = _provenance_from_bundle(provenance_path) if provenance_path else FeatProvenance("csv")
    clf = train_classifier(model, make_labeled_set(X, labels, classes, prov), seed)
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
@click.option("--positive", default="slow", show_default=True,
              help="Class that flags a query when any of its operators predicts it.")
@click.option("--out", required=True, type=click.Path(dir_okay=False))
@guarded
def predict(plans_path, classifier_path, encoder_path, reducer_path, schema_path,
            positive, out) -> None:
    """Predict per operator; admission classifiers also emit query verdicts.

    Featurize with exactly one of: --encoder, --reducer plus --schema, or
    --schema alone for raw sparse vectors.
    """
    corpus = load_corpus(plans_path)
    clf, _ = store.load_classifier_bundle(classifier_path)

    if encoder_path and reducer_path:
        raise ValueError("pass either --encoder or --reducer, not both")
    if encoder_path:
        encoder, header = store.load_encoder_bundle(encoder_path)
        schema = store.bundle_schema(header)
        if schema is None:
            raise ValueError(f"{encoder_path} carries no schema")
        feat_hash = encoder.schema_digest
        table = encode_corpus(schema, corpus)
        F = encoder(table.X)
    elif reducer_path:
        if not schema_path:
            raise ValueError("--reducer needs --schema to build sparse vectors")
        schema, _ = store.load_schema_bundle(schema_path)
        header, _ = store.load_bundle(reducer_path)
        feat_hash = header["schema_hash"]
        store.check_schema_hash(feat_hash, schema_hash(schema), "reducer vs schema")
        table = encode_corpus(schema, corpus)
        if header["kind"] == "pca":
            model, _ = store.load_pca_bundle(reducer_path)
            F = transform_pca(model, table.X)
        elif header["kind"] == "fa":
            model, _ = store.load_fa_bundle(reducer_path)
            F = transform_fa(model, table.X)
        else:
            raise ValueError(f"{reducer_path} is a {header['kind']} bundle, not a reducer")
    elif schema_path:
        schema, _ = store.load_schema_bundle(schema_path)
        feat_hash = schema_hash(schema)
        table = encode_corpus(schema, corpus)
        F = table.X
    else:
        raise ValueError("pass one of --encoder, --reducer + --schema, or --schema")

    if clf.provenance is not None and clf.provenance.digest:
        store.check_schema_hash(clf.provenance.digest, feat_hash, "classifier provenance")
    if F.shape[1] != clf.dim:
        raise ValueError(f"features have dim {F.shape[1]} but classifier wants {clf.dim}")

    node_types = [item.node.node_type for item in walk_operators(corpus)]
    preds = clf_predict(clf, F)
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "node_type", "prediction"])
        writer.writerows(zip(table.ids, node_types, preds))

    flagged = ""
    if positive in clf.classes:
        # verdict per query: flag when any of its operators predicts the positive class
        hit = np.zeros(len(corpus.records), dtype=bool)
        hit[table.query_index[np.array(preds) == positive]] = True
        with open(f"{out}.verdicts.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["query_id", "verdict"])
            for record, flag in zip(corpus.records, hit):
                writer.writerow([record.query_id, "flag" if flag else "admit"])
        flagged = f"; {int(hit.sum())}/{len(hit)} queries flagged"
    click.echo(f"predicted {len(preds)} operators{flagged} -> {out}")


@main.command("evaluate")
@click.option("--corpus", "corpus_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--task", default="card", show_default=True, type=click.Choice(_TASK_CHOICES))
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
              help="Include wall-clock columns (breaks byte-identical reports).")
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
        sgd=sgd, embedding_from_full_log=embedding_from_full_log, seed=seed,
    )
    report.to_csv(out, timings=timings)
    if medians_out:
        report.medians_to_csv(medians_out, timings=timings)
    click.echo(report.format_table(), nl=False)


@main.command()
@click.option("--features", "features_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--out", required=True, type=click.Path(dir_okay=False))
@guarded
def project2d(features_path, out) -> None:
    """Project a feature CSV to two principal columns for plotting."""
    _, X = _read_feature_csv(features_path)
    XY = project_2d(X)
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y"])
        for x, y in XY:
            writer.writerow([repr(float(x)), repr(float(y))])
    click.echo(f"projected {len(XY)} rows -> {out}")


if __name__ == "__main__":
    main()
