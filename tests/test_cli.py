import hashlib
import json

import numpy as np
import pytest
from click.testing import CliRunner

from opembed import evaluate as evaluate_mod, store
from opembed.classifiers import make_labeled_set, train_dummy
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


@pytest.mark.parametrize("featurization", ["encoder", "pca", "fa", "sparse"])
def test_predict_verdicts_match_flag_query(runner, tmp_path, pipeline, featurization):
    from opembed.plans import load_corpus
    from opembed.tasks import flag_query

    _, corpus, encoder, schema = pipeline
    feats, bundle = tmp_path / "feats.csv", tmp_path / "reducer.opeb"
    reduce = ["reduce", "--corpus", str(corpus), "--schema", str(schema), "--out", str(feats)]
    if featurization == "encoder":
        run_ok(runner, ["embed", "--corpus", str(corpus), "--encoder", str(encoder),
                        "--out", str(feats)])
        paths, provenance = {"encoder": encoder}, encoder
    elif featurization == "sparse":
        run_ok(runner, [*reduce, "--method", "sparse"])
        paths, provenance = {"schema": schema}, schema
    else:
        run_ok(runner, [*reduce, "--method", featurization, "--dim", "8",
                        "--model-out", str(bundle)])
        paths, provenance = {"reducer": bundle, "schema": schema}, bundle
    # kNN recalls its own training labels, so scoring the training log flags
    # exactly the queries holding a slow operator: both verdicts occur
    clf_path = tmp_path / "clf.opeb"
    run_ok(
        runner,
        [
            "train-task", "--corpus", str(corpus), "--features", str(feats),
            "--task", "admission", "--model", "knn", "--out", str(clf_path),
            "--provenance", str(provenance),
        ],
    )
    preds = tmp_path / "preds.csv"
    run_ok(
        runner,
        [
            "predict", "--plans", str(corpus), "--classifier", str(clf_path),
            *(arg for name, path in paths.items() for arg in (f"--{name}", str(path))),
            "--out", str(preds),
        ],
    )
    rows = (tmp_path / "preds.csv.verdicts.csv").read_text().splitlines()[1:]
    got = [tuple(line.split(",")) for line in rows]
    clf, _ = store.load_classifier_bundle(clf_path)
    feat = store.load_featurizer(**paths)
    want = [
        (rec.query_id, flag_query(clf, feat.schema, rec, transform=feat.model))
        for rec in load_corpus(corpus).records
    ]
    assert got == want
    assert {v for _, v in want} == {"admit", "flag"}


def test_predict_over_several_read_blocks_matches_one_shot_scores(runner, tmp_path, pipeline):
    from opembed.classifiers import predict as clf_predict
    from opembed.featurize import encode_corpus
    from opembed.featurizer import READ_BLOCK_ROWS
    from opembed.plans import load_corpus, walk_operators

    _, corpus, encoder, _ = pipeline
    emb, clf_path = tmp_path / "emb.csv", tmp_path / "clf.opeb"
    run_ok(runner, ["embed", "--corpus", str(corpus), "--encoder", str(encoder),
                    "--out", str(emb)])
    run_ok(runner, ["train-task", "--corpus", str(corpus), "--features", str(emb),
                    "--task", "admission", "--percentile", "70", "--model", "knn",
                    "--out", str(clf_path)])
    # a log of another seed, read through the pipeline's encoder
    log, preds = tmp_path / "log.json", tmp_path / "preds.csv"
    run_ok(runner, ["synth", "--seed", "5", "--queries", "150", "--out", str(log)])
    run_ok(runner, ["predict", "--plans", str(log), "--classifier", str(clf_path),
                    "--encoder", str(encoder), "--out", str(preds)])

    plans = load_corpus(log)
    table = encode_corpus(store.load_featurizer(encoder=encoder).schema, plans)
    assert len(table) >= 3 * READ_BLOCK_ROWS
    clf, _ = store.load_classifier_bundle(clf_path)
    labels = clf_predict(clf, store.load_encoder_bundle(encoder)[0](table.X))
    node_types = [item.node.node_type for item in walk_operators(plans)]
    want = ["id,node_type,prediction"] + [
        f"{oid},{nt},{label}" for oid, nt, label in zip(table.ids, node_types, labels)]
    assert preds.read_text().splitlines() == want
    slow = {table.query_index[r] for r, label in enumerate(labels) if label == "slow"}
    want = ["query_id,verdict"] + [f"{rec.query_id},{'flag' if q in slow else 'admit'}"
                                   for q, rec in enumerate(plans.records)]
    assert (tmp_path / "preds.csv.verdicts.csv").read_text().splitlines() == want
    assert 0 < len(slow) < len(plans.records)


def _plans_with(path, value):
    """The planted-card seed-0 log of 60 queries with the first root's
    plan_rows set to value and the first scan's attr_mins[0] to -value,
    written as plan-file text (save_corpus refuses a value past the bound)."""
    from opembed.plans import corpus_to_dict, iter_nodes
    from opembed.synth import PRESETS, generate

    corpus = generate(PRESETS["planted-card"](seed=0))
    del corpus.records[60:]
    corpus.records[0].root.plan_rows = value
    scan = next(node for node in iter_nodes(corpus.records[0].root) if node.attr_mins)
    scan.attr_mins = (-value, *scan.attr_mins[1:])
    path.write_text(json.dumps(corpus_to_dict(corpus), indent=1))
    return path


def test_plan_numerics_past_the_bound_end_in_one_error_line(runner, tmp_path, pipeline):
    from opembed.plans import MAX_PLAN_MAGNITUDE

    _, _, encoder, _ = pipeline
    plans = _plans_with(tmp_path / "past.json", MAX_PLAN_MAGNITUDE * 1.01)
    clf = tmp_path / "clf.opeb"
    store.save_classifier_bundle(clf, train_dummy(make_labeled_set(
        np.zeros((2, 8)), ["ok", "slow"], ("ok", "slow"))))
    where = "queries[0].plan: field 'plan_rows' must be at most 1e+100 in magnitude"
    for args in (["train-embedding", "--encoder-out", str(tmp_path / "e.opeb")],
                 ["embed", "--encoder", str(encoder), "--out", str(tmp_path / "e.csv")],
                 ["predict", "--classifier", str(clf), "--encoder", str(encoder),
                  "--out", str(tmp_path / "p.csv")]):
        flag = "--plans" if args[0] == "predict" else "--corpus"
        assert run_err(runner, [*args, flag, str(plans)]).startswith(f"error: {where}")


@pytest.mark.filterwarnings("error")
def test_plan_numerics_at_the_bound_train_and_embed_to_finite_rows(runner, tmp_path, pipeline):
    from opembed.plans import MAX_PLAN_MAGNITUDE, load_corpus, walk_operators

    _, _, clean, _ = pipeline
    plans = _plans_with(tmp_path / "edge.json", MAX_PLAN_MAGNITUDE)
    operators = sum(1 for _ in walk_operators(load_corpus(plans)))
    encoder = tmp_path / "encoder.opeb"
    run_ok(runner, ["train-embedding", "--corpus", str(plans), "--epochs", "2",
                    "--encoder-out", str(encoder)])
    # its own encoder z-scores the extremes with their stats; the pipeline's,
    # fit on another log, gives them z-scores near 1e100
    for bundle in (encoder, clean):
        out = tmp_path / "rows.csv"
        run_ok(runner, ["embed", "--corpus", str(plans), "--encoder", str(bundle),
                        "--out", str(out)])
        rows = np.array([line.split(",")[1:] for line in out.read_text().splitlines()[1:]],
                        dtype=float)
        assert rows.shape[0] == operators and np.isfinite(rows).all()


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


def test_predict_refuses_classifier_of_another_featurization(runner, tmp_path, pipeline):
    # the pipeline encoder is 8-dim and shares the schema, so only the
    # provenance kind tells the pca-8 classifier apart from an encoder one
    _, corpus, encoder, schema = pipeline
    feats, pca, clf = (tmp_path / n for n in ("pca.csv", "pca.opeb", "clf.opeb"))
    run_ok(runner, ["reduce", "--corpus", str(corpus), "--schema", str(schema),
                    "--method", "pca", "--dim", "8", "--model-out", str(pca),
                    "--out", str(feats)])
    run_ok(runner, ["train-task", "--corpus", str(corpus), "--features", str(feats),
                    "--task", "admission", "--model", "logreg",
                    "--provenance", str(pca), "--out", str(clf)])
    err = run_err(runner, ["predict", "--plans", str(corpus), "--classifier", str(clf),
                           "--encoder", str(encoder), "--out", str(tmp_path / "p.csv")])
    assert "pca" in err and "neural" in err


def test_reducer_bundle_without_schema_hash_is_one_line_error(runner, tmp_path, pipeline):
    _, corpus, _, schema = pipeline
    feats, pca, clf = (tmp_path / n for n in ("pca.csv", "pca.opeb", "clf.opeb"))
    run_ok(runner, ["reduce", "--corpus", str(corpus), "--schema", str(schema),
                    "--method", "pca", "--dim", "4", "--model-out", str(pca),
                    "--out", str(feats)])
    run_ok(runner, ["train-task", "--corpus", str(corpus), "--features", str(feats),
                    "--task", "admission", "--model", "logreg", "--out", str(clf)])
    header, arrays = store.load_bundle(pca)
    del header["schema_hash"]
    store.save_bundle(pca, "pca", header, arrays)
    err = run_err(runner, ["train-task", "--corpus", str(corpus), "--features", str(feats),
                           "--task", "admission", "--model", "logreg",
                           "--provenance", str(pca), "--out", str(clf)])
    assert "without a schema hash" in err
    err = run_err(runner, ["predict", "--plans", str(corpus), "--classifier", str(clf),
                           "--reducer", str(pca), "--schema", str(schema),
                           "--out", str(tmp_path / "p.csv")])
    assert "without a schema hash" in err


@pytest.mark.parametrize("field, value", [("digest", 5), ("kind", ["neural"])],
                         ids=["int-digest", "list-kind"])
def test_predict_with_non_string_provenance_is_one_line_error(
    runner, tmp_path, pipeline, field, value
):
    _, corpus, encoder, _ = pipeline
    emb, clf = tmp_path / "emb.csv", tmp_path / "clf.opeb"
    run_ok(runner, ["embed", "--corpus", str(corpus), "--encoder", str(encoder),
                    "--out", str(emb)])
    run_ok(runner, ["train-task", "--corpus", str(corpus), "--features", str(emb),
                    "--task", "admission", "--model", "logreg",
                    "--provenance", str(encoder), "--out", str(clf)])
    header, arrays = store.load_bundle(clf)
    header["provenance"][field] = value
    store.save_bundle(clf, "classifier", header, arrays)
    err = run_err(runner, ["predict", "--plans", str(corpus), "--classifier", str(clf),
                           "--encoder", str(encoder), "--out", str(tmp_path / "p.csv")])
    assert str(clf) in err and "provenance" in err


def test_tampered_schema_hash_error_names_the_bundle(runner, tmp_path, pipeline):
    _, corpus, encoder, schema = pipeline
    feats, pca = tmp_path / "pca.csv", tmp_path / "pca.opeb"
    run_ok(runner, ["reduce", "--corpus", str(corpus), "--schema", str(schema),
                    "--method", "pca", "--dim", "4", "--model-out", str(pca),
                    "--out", str(feats)])
    clf = tmp_path / "clf.opeb"
    run_ok(runner, ["train-task", "--corpus", str(corpus), "--features", str(feats),
                    "--task", "admission", "--model", "logreg", "--out", str(clf)])
    for src, kind in ((schema, "schema"), (encoder, "encoder")):
        header, arrays = store.load_bundle(src)
        header["schema"]["hash"] = "0" * 64
        store.save_bundle(tmp_path / f"bad_{kind}.opeb", kind, header, arrays)
    bad_schema, bad_encoder = tmp_path / "bad_schema.opeb", tmp_path / "bad_encoder.opeb"
    err = run_err(runner, ["predict", "--plans", str(corpus), "--classifier", str(clf),
                           "--reducer", str(pca), "--schema", str(bad_schema),
                           "--out", str(tmp_path / "p.csv")])
    assert str(bad_schema) in err and "schema hash mismatch" in err
    err = run_err(runner, ["embed", "--corpus", str(corpus), "--encoder", str(bad_encoder),
                           "--out", str(tmp_path / "e.csv")])
    assert str(bad_encoder) in err and "schema hash mismatch" in err


@pytest.mark.parametrize("edit", [
    lambda stats, key: stats.pop(key),
    lambda stats, key: stats[key].__setitem__(1, 0.0),
    lambda stats, key: stats[key].__setitem__(1, float("nan")),
    lambda stats, key: stats[key].__setitem__(0, float("inf")),
    lambda stats, key: stats[key].__setitem__(0, True),
    lambda stats, key: stats[key].append(1.0),
], ids=["missing", "std-zero", "std-nan", "mean-inf", "mean-bool", "three-values"])
def test_reduce_refuses_schema_with_bad_stats(runner, tmp_path, pipeline, edit):
    """Each edit leaves the schema's own hash consistent, so the stats check
    alone must refuse it, naming the bundle and the slot."""
    _, corpus, _, schema = pipeline
    header, arrays = store.load_bundle(schema)
    payload = header["schema"]
    key = min(payload["stats"], key=int)  # the first numeric slot
    edit(payload["stats"], key)
    del payload["hash"]
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    payload["hash"] = header["schema_hash"] = hashlib.sha256(canonical.encode()).hexdigest()
    bad, out = tmp_path / "bad.opeb", tmp_path / "sparse.csv"
    store.save_bundle(bad, "schema", header, arrays)
    err = run_err(runner, ["reduce", "--corpus", str(corpus), "--schema", str(bad),
                           "--method", "sparse", "--out", str(out)])
    assert str(bad) in err and f"stats for slot {key} (plan_width)" in err
    assert not out.exists()


def test_predict_refuses_schema_slot_of_another_kind(runner, tmp_path, pipeline):
    _, corpus, _, schema = pipeline
    header, arrays = store.load_bundle(schema)
    payload = header["schema"]
    idx = [slot["name"] for slot in payload["slots"]].index("plan_rows")
    payload["slots"][idx]["kind"] = "boolean"
    del payload["stats"][str(idx)], payload["hash"]
    bad, clf, out = tmp_path / "bad.opeb", tmp_path / "clf.opeb", tmp_path / "p.csv"
    store.save_bundle(bad, "schema", header, arrays)
    # predict loads its classifier before the schema; any classifier will do
    store.save_classifier_bundle(clf, train_dummy(make_labeled_set(np.zeros((2, 1)), "ab")))
    err = run_err(runner, ["predict", "--plans", str(corpus), "--classifier", str(clf),
                           "--schema", str(bad), "--out", str(out)])
    assert str(bad) in err and f"slot {idx} ('plan_rows') has kind 'boolean'" in err
    assert not out.exists()


def test_predict_refuses_encoder_whose_header_hash_disagrees_with_its_schema(
    runner, tmp_path, pipeline
):
    _, corpus, encoder, _ = pipeline
    emb, clf = tmp_path / "emb.csv", tmp_path / "clf.opeb"
    run_ok(runner, ["embed", "--corpus", str(corpus), "--encoder", str(encoder),
                    "--out", str(emb)])
    run_ok(runner, ["train-task", "--corpus", str(corpus), "--features", str(emb),
                    "--task", "admission", "--model", "logreg", "--out", str(clf)])
    header, arrays = store.load_bundle(encoder)
    header["schema_hash"] = "f" * 64
    bad = tmp_path / "bad_encoder.opeb"
    store.save_bundle(bad, "encoder", header, arrays)
    for cmd in (["predict", "--plans", str(corpus), "--classifier", str(clf)],
                ["embed", "--corpus", str(corpus)]):
        err = run_err(runner, cmd + ["--encoder", str(bad), "--out", str(tmp_path / "o.csv")])
        assert str(bad) in err and "trained against schema ffffffffffff" in err


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


def test_train_task_refuses_rows_out_of_walk_order(runner, tmp_path, pipeline):
    _, corpus, encoder, _ = pipeline
    emb = tmp_path / "emb.csv"
    run_ok(
        runner,
        ["embed", "--corpus", str(corpus), "--encoder", str(encoder), "--out", str(emb)],
    )
    header, *rows = emb.read_text().splitlines()
    reversed_csv = tmp_path / "reversed.csv"
    reversed_csv.write_text("\n".join([header] + rows[::-1]) + "\n")
    err = run_err(
        runner,
        [
            "train-task", "--corpus", str(corpus), "--features", str(reversed_csv),
            "--task", "card", "--model", "logreg", "--out", str(tmp_path / "clf.opeb"),
        ],
    )
    first, last = rows[0].split(",")[0], rows[-1].split(",")[0]
    assert f"{reversed_csv} line 2 has id {last!r}" in err and repr(first) in err
    assert not (tmp_path / "clf.opeb").exists()


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


def test_evaluate_table_is_deterministic_without_timings(runner, tmp_path, pipeline):
    _, corpus, _, _ = pipeline
    args = [
        "evaluate", "--corpus", str(corpus), "--task", "card",
        "--featurizations", "sparse,pca-8", "--models", "dummy,knn,rf",
        "--out", str(tmp_path / "cells.csv"),
    ]
    first = run_ok(runner, args).output
    assert "infer ms" not in first and "accuracy" in first
    assert run_ok(runner, args).output == first
    assert "infer ms" in run_ok(runner, args + ["--timings"]).output


@pytest.mark.parametrize("grid, reason", [
    (["--models", ""], "at least one featurization and one model"),
    (["--featurizations", ","], "at least one featurization and one model"),
    (["--models", "logreg,nosuch"], "unknown model 'nosuch'"),
    (["--featurizations", "sparse,sparse"], "each named once"),
    (["--models", "dummy,logreg,dummy"], "each named once"),
])
def test_evaluate_refuses_a_bad_grid_before_any_fold_work(
    runner, tmp_path, pipeline, monkeypatch, grid, reason
):
    schemas = []
    real = evaluate_mod.fit_encode
    monkeypatch.setattr(evaluate_mod, "fit_encode", lambda c: schemas.append(c) or real(c))
    _, corpus, _, _ = pipeline
    out = tmp_path / "cells.csv"
    err = run_err(runner, ["evaluate", "--corpus", str(corpus), *grid, "--out", str(out)])
    assert reason in err
    assert schemas == [] and not out.exists()


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


@pytest.mark.parametrize(
    "text, where, reason",
    [("a,b\n1,2\n", "", "first column must be 'id'"),
     ("id,e0,e1\nq#0,1,2\nq#1,3\n", " line 3", "2 cells, but the header has 3"),
     ("id,e0\nq#0,1\n\nq#1,2\n", " line 3", "0 cells, but the header has 2"),
     ("id,e0,e1\nq#0,1,abc\n", " line 2", "could not convert string to float: 'abc'"),
     ("id,e0,e1\nq#0,1,2\nq#1,nan,2\n", " line 3", "non-finite"),
     ("id,e0,e1\nq#0,-inf,2\n", " line 2", "non-finite")],
    ids=["no-id", "missing-cell", "blank-line", "abc", "nan", "inf"],
)
def test_project2d_rejects_non_feature_csv(runner, tmp_path, text, where, reason):
    bad = tmp_path / "bad.csv"
    bad.write_text(text)
    err = run_err(
        runner, ["project2d", "--features", str(bad), "--out", str(tmp_path / "o.csv")]
    )
    assert f"{bad}{where}" in err and reason in err


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
