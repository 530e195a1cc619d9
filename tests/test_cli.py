import numpy as np
import pytest
from click.testing import CliRunner

from opembed import store
from opembed.cli import main


@pytest.fixture
def runner():
    return CliRunner()


def run_ok(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    return result


def run_err(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code != 0
    err = getattr(result, "stderr", "") or result.output
    assert err.startswith("error: "), err
    assert len(err.strip().splitlines()) == 1
    return err.strip()


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One small synth corpus plus a trained encoder bundle, shared read-only."""
    root = tmp_path_factory.mktemp("cli")
    runner = CliRunner()
    corpus = root / "corpus.json"
    encoder = root / "encoder.opeb"
    schema = root / "schema.opeb"
    res = runner.invoke(
        main, ["synth", "--seed", "4", "--queries", "50", "--out", str(corpus)]
    )
    assert res.exit_code == 0, res.output
    res = runner.invoke(
        main,
        [
            "train-embedding", "--corpus", str(corpus),
            "--embedding-dim", "8", "--hidden", "32,16",
            "--epochs", "2", "--seed", "4",
            "--encoder-out", str(encoder), "--schema-out", str(schema),
        ],
    )
    assert res.exit_code == 0, res.output
    return root, corpus, encoder, schema


def test_synth_writes_corpus_and_manifest(runner, tmp_path):
    out = tmp_path / "c.json"
    result = run_ok(
        runner, ["synth", "--seed", "7", "--queries", "20", "--out", str(out)]
    )
    assert "20 queries" in result.output
    assert out.exists()
    manifest = (tmp_path / "c.json.manifest.txt").read_text()
    assert "seed" in manifest or "latency" in manifest


def test_synth_is_deterministic(runner, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run_ok(runner, ["synth", "--seed", "9", "--queries", "15", "--out", str(a)])
    run_ok(runner, ["synth", "--seed", "9", "--queries", "15", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_synth_presets(runner, tmp_path):
    for preset in ("planted-card", "tpcds-like", "context-probe"):
        out = tmp_path / f"{preset}.json"
        run_ok(
            runner,
            ["synth", "--preset", preset, "--queries", "10", "--out", str(out)],
        )
        assert out.exists()


def test_train_embedding_bundle_is_deterministic(runner, tmp_path, pipeline):
    _, corpus, encoder, _ = pipeline
    again = tmp_path / "enc2.opeb"
    run_ok(
        runner,
        [
            "train-embedding", "--corpus", str(corpus),
            "--embedding-dim", "8", "--hidden", "32,16",
            "--epochs", "2", "--seed", "4",
            "--encoder-out", str(again),
        ],
    )
    assert again.read_bytes() == encoder.read_bytes()


def test_train_embedding_rejects_bad_hidden(runner, tmp_path, pipeline):
    _, corpus, _, _ = pipeline
    err = run_err(
        runner,
        [
            "train-embedding", "--corpus", str(corpus),
            "--hidden", "64,banana",
            "--encoder-out", str(tmp_path / "x.opeb"),
        ],
    )
    assert "--hidden" in err


def test_embed_emits_one_column_per_dim(runner, tmp_path, pipeline):
    _, corpus, encoder, _ = pipeline
    out = tmp_path / "emb.csv"
    result = run_ok(
        runner,
        ["embed", "--corpus", str(corpus), "--encoder", str(encoder), "--out", str(out)],
    )
    assert "dim 8" in result.output
    lines = out.read_text().splitlines()
    assert lines[0] == "id,e0,e1,e2,e3,e4,e5,e6,e7"
    assert lines[1].split(",")[0].startswith("q")
    assert "#" in lines[1].split(",")[0]


def test_reduce_methods(runner, tmp_path, pipeline):
    _, corpus, _, schema = pipeline
    pca_out = tmp_path / "pca.csv"
    model_out = tmp_path / "pca.opeb"
    run_ok(
        runner,
        [
            "reduce", "--corpus", str(corpus), "--schema", str(schema),
            "--method", "pca", "--dim", "4",
            "--out", str(pca_out), "--model-out", str(model_out),
        ],
    )
    assert pca_out.read_text().splitlines()[0] == "id,p0,p1,p2,p3"
    model, header = store.load_pca_bundle(model_out)
    assert model.components.shape[0] == 4

    fa_out = tmp_path / "fa.csv"
    run_ok(
        runner,
        [
            "reduce", "--corpus", str(corpus), "--schema", str(schema),
            "--method", "fa", "--dim", "4", "--out", str(fa_out),
        ],
    )
    assert fa_out.read_text().splitlines()[0] == "id,f0,f1,f2,f3"

    sparse_out = tmp_path / "sparse.csv"
    run_ok(
        runner,
        [
            "reduce", "--corpus", str(corpus), "--schema", str(schema),
            "--method", "sparse", "--out", str(sparse_out),
        ],
    )
    header_cols = sparse_out.read_text().splitlines()[0].split(",")
    assert header_cols[0] == "id"
    assert "node_type=SeqScan" in header_cols[1:]

    err = run_err(
        runner,
        [
            "reduce", "--corpus", str(corpus), "--schema", str(schema),
            "--method", "sparse", "--out", str(tmp_path / "s2.csv"),
            "--model-out", str(tmp_path / "s2.opeb"),
        ],
    )
    assert "--model-out" in err


def test_train_task_and_predict_round_trip(runner, tmp_path, pipeline):
    _, corpus, encoder, _ = pipeline
    emb = tmp_path / "emb.csv"
    run_ok(
        runner,
        ["embed", "--corpus", str(corpus), "--encoder", str(encoder), "--out", str(emb)],
    )
    clf = tmp_path / "clf.opeb"
    result = run_ok(
        runner,
        [
            "train-task", "--corpus", str(corpus), "--features", str(emb),
            "--task", "admission", "--model", "logreg",
            "--provenance", str(encoder), "--out", str(clf),
        ],
    )
    assert "trained logreg" in result.output

    preds = tmp_path / "preds.csv"
    result = run_ok(
        runner,
        [
            "predict", "--plans", str(corpus), "--classifier", str(clf),
            "--encoder", str(encoder), "--out", str(preds),
        ],
    )
    assert "queries flagged" in result.output
    assert "latency" not in result.output
    lines = preds.read_text().splitlines()
    assert lines[0] == "id,node_type,prediction"
    assert all(line.split(",")[2] in ("ok", "slow") for line in lines[1:])
    verdicts = (tmp_path / "preds.csv.verdicts.csv").read_text().splitlines()
    assert verdicts[0] == "query_id,verdict"
    assert len(verdicts) == 51
    assert all(line.split(",")[1] in ("admit", "flag") for line in verdicts[1:])


def test_predict_verdicts_match_flag_query(runner, tmp_path, pipeline):
    from opembed.plans import load_corpus
    from opembed.tasks import flag_query

    _, corpus, encoder, _ = pipeline
    emb = tmp_path / "emb.csv"
    run_ok(
        runner,
        ["embed", "--corpus", str(corpus), "--encoder", str(encoder), "--out", str(emb)],
    )
    # kNN recalls its own training labels, so scoring the training log flags
    # exactly the queries holding a slow operator: both verdicts occur
    clf_path = tmp_path / "clf.opeb"
    run_ok(
        runner,
        [
            "train-task", "--corpus", str(corpus), "--features", str(emb),
            "--task", "admission", "--model", "knn", "--out", str(clf_path),
        ],
    )
    preds = tmp_path / "preds.csv"
    run_ok(
        runner,
        [
            "predict", "--plans", str(corpus), "--classifier", str(clf_path),
            "--encoder", str(encoder), "--out", str(preds),
        ],
    )
    rows = (tmp_path / "preds.csv.verdicts.csv").read_text().splitlines()[1:]
    got = [tuple(line.split(",")) for line in rows]
    clf, _ = store.load_classifier_bundle(clf_path)
    enc, header = store.load_encoder_bundle(encoder)
    schema = store.bundle_schema(header)
    want = [
        (rec.query_id, flag_query(clf, schema, rec, transform=enc))
        for rec in load_corpus(corpus).records
    ]
    assert got == want
    assert {v for _, v in want} == {"admit", "flag"}


def test_predict_refuses_mismatched_provenance(runner, tmp_path, pipeline):
    _, corpus, encoder, _ = pipeline
    emb = tmp_path / "emb.csv"
    run_ok(
        runner,
        ["embed", "--corpus", str(corpus), "--encoder", str(encoder), "--out", str(emb)],
    )
    clf = tmp_path / "clf.opeb"
    run_ok(
        runner,
        [
            "train-task", "--corpus", str(corpus), "--features", str(emb),
            "--task", "admission", "--model", "logreg",
            "--provenance", str(encoder), "--out", str(clf),
        ],
    )
    other_corpus = tmp_path / "other.json"
    other_encoder = tmp_path / "other_enc.opeb"
    run_ok(runner, ["synth", "--seed", "77", "--queries", "30", "--out", str(other_corpus)])
    run_ok(
        runner,
        [
            "train-embedding", "--corpus", str(other_corpus),
            "--embedding-dim", "8", "--hidden", "32,16", "--epochs", "1",
            "--encoder-out", str(other_encoder),
        ],
    )
    err = run_err(
        runner,
        [
            "predict", "--plans", str(corpus), "--classifier", str(clf),
            "--encoder", str(other_encoder), "--out", str(tmp_path / "p.csv"),
        ],
    )
    assert "schema hash mismatch" in err


def test_predict_requires_exactly_one_featurization(runner, tmp_path, pipeline):
    _, corpus, encoder, schema = pipeline
    emb = tmp_path / "emb.csv"
    run_ok(
        runner,
        ["embed", "--corpus", str(corpus), "--encoder", str(encoder), "--out", str(emb)],
    )
    clf = tmp_path / "clf.opeb"
    run_ok(
        runner,
        [
            "train-task", "--corpus", str(corpus), "--features", str(emb),
            "--task", "admission", "--model", "logreg", "--out", str(clf),
        ],
    )
    err = run_err(
        runner,
        ["predict", "--plans", str(corpus), "--classifier", str(clf),
         "--out", str(tmp_path / "p.csv")],
    )
    assert "--encoder" in err or "--schema" in err
    err = run_err(
        runner,
        ["predict", "--plans", str(corpus), "--classifier", str(clf),
         "--encoder", str(encoder), "--reducer", str(tmp_path / "r.opeb"),
         "--out", str(tmp_path / "p.csv")],
    )
    assert "not both" in err


def test_train_task_row_mismatch(runner, tmp_path, pipeline):
    _, corpus, encoder, _ = pipeline
    emb = tmp_path / "emb.csv"
    run_ok(
        runner,
        ["embed", "--corpus", str(corpus), "--encoder", str(encoder), "--out", str(emb)],
    )
    rows = emb.read_text().splitlines()
    short = tmp_path / "short.csv"
    short.write_text("\n".join(rows[:-5]) + "\n")
    err = run_err(
        runner,
        [
            "train-task", "--corpus", str(corpus), "--features", str(short),
            "--task", "admission", "--model", "logreg",
            "--out", str(tmp_path / "clf.opeb"),
        ],
    )
    assert "rows" in err and "operators" in err


def test_evaluate_writes_reports(runner, tmp_path, pipeline):
    _, corpus, _, _ = pipeline
    out = tmp_path / "cells.csv"
    medians = tmp_path / "medians.csv"
    result = run_ok(
        runner,
        [
            "evaluate", "--corpus", str(corpus), "--task", "card",
            "--featurizations", "sparse,pca-8", "--models", "dummy,logreg",
            "--out", str(out), "--medians-out", str(medians),
        ],
    )
    assert "task=card" in result.output
    header = out.read_text().splitlines()[0]
    assert header.startswith("task,strategy,featurization,model,fold,accuracy,prior")
    assert "mean_infer_ms" not in header
    med_lines = medians.read_text().splitlines()
    assert med_lines[0] == "task,featurization,model,folds,accuracy,prior"
    assert len(med_lines) == 1 + 4  # 2 featurizations x 2 models

    again = tmp_path / "cells2.csv"
    run_ok(
        runner,
        [
            "evaluate", "--corpus", str(corpus), "--task", "card",
            "--featurizations", "sparse,pca-8", "--models", "dummy,logreg",
            "--out", str(again),
        ],
    )
    assert again.read_bytes() == out.read_bytes()


def test_evaluate_timings_flag_adds_columns(runner, tmp_path, pipeline):
    _, corpus, _, _ = pipeline
    out = tmp_path / "timed.csv"
    run_ok(
        runner,
        [
            "evaluate", "--corpus", str(corpus), "--task", "card",
            "--featurizations", "sparse", "--models", "dummy",
            "--timings", "--out", str(out),
        ],
    )
    header = out.read_text().splitlines()[0]
    assert "mean_infer_ms" in header and "train_seconds" in header


def test_project2d_static_header(runner, tmp_path, pipeline):
    _, corpus, encoder, _ = pipeline
    emb = tmp_path / "emb.csv"
    run_ok(
        runner,
        ["embed", "--corpus", str(corpus), "--encoder", str(encoder), "--out", str(emb)],
    )
    out = tmp_path / "xy.csv"
    run_ok(runner, ["project2d", "--features", str(emb), "--out", str(out)])
    lines = out.read_text().splitlines()
    assert lines[0] == "x,y"
    assert len(lines) == len(emb.read_text().splitlines())
    xy = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert xy.shape[1] == 2


def test_project2d_rejects_non_feature_csv(runner, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n")
    err = run_err(
        runner, ["project2d", "--features", str(bad), "--out", str(tmp_path / "o.csv")]
    )
    assert "id" in err


def test_missing_bundle_is_one_line_error(runner, tmp_path, pipeline):
    _, corpus, _, _ = pipeline
    err = run_err(
        runner,
        ["embed", "--corpus", str(corpus), "--encoder", str(tmp_path / "nope.opeb"),
         "--out", str(tmp_path / "e.csv")],
    )
    assert "cannot read" in err


@pytest.mark.parametrize(
    "doc, where",
    [('{"queries": [7]}', "queries[0]: "),
     ('{"queries": [{"query_id": "a", "plan": {"node_type": "Scan", "attr_mins": [1, "x"]}}]}',
      "queries[0].plan: ")],
    ids=["int-query", "str-attr-entry"],
)
def test_malformed_plan_file_is_one_line_error(runner, tmp_path, doc, where):
    bad = tmp_path / "bad.json"
    bad.write_text(doc)
    err = run_err(
        runner,
        ["train-embedding", "--corpus", str(bad), "--epochs", "1",
         "--encoder-out", str(tmp_path / "e.opeb"), "--schema-out", str(tmp_path / "s.opeb")],
    )
    assert err.startswith(f"error: {where}")


@pytest.mark.parametrize("method", ["pca", "fa"])
def test_predict_reducer_matches_classifier_on_reduce_rows(runner, tmp_path, pipeline, method):
    from opembed.classifiers import predict as clf_predict
    from opembed.cli import _read_feature_csv

    _, corpus, _, schema = pipeline
    feats, reducer, clf = (tmp_path / n for n in ("f.csv", "r.opeb", "clf.opeb"))
    run_ok(runner, ["reduce", "--corpus", str(corpus), "--schema", str(schema),
                    "--method", method, "--dim", "6", "--model-out", str(reducer),
                    "--out", str(feats)])
    run_ok(runner, ["train-task", "--corpus", str(corpus), "--features", str(feats),
                    "--task", "admission", "--percentile", "50", "--model", "logreg",
                    "--provenance", str(reducer), "--out", str(clf)])
    preds = tmp_path / "p.csv"
    run_ok(runner, ["predict", "--plans", str(corpus), "--classifier", str(clf),
                    "--reducer", str(reducer), "--schema", str(schema), "--out", str(preds)])
    ids, X = _read_feature_csv(feats)
    rows = [line.split(",") for line in preds.read_text().splitlines()[1:]]
    assert [r[0] for r in rows] == ids
    assert [r[2] for r in rows] == clf_predict(store.load_classifier_bundle(clf)[0], X)
    assert len(set(r[2] for r in rows)) == 2
