import numpy as np
import pytest

from opembed import nn
from opembed.classifiers import MODELS
from opembed.errors import CoverageError
from opembed.evaluate import (
    EvalReport,
    evaluate,
    fit_featurization,
    parse_featurization,
)
from opembed.plans import Corpus, PlanNode, QueryRecord
from opembed.synth import SynthConfig, generate
from opembed.tasks import FoldPlan, TaskSpec, make_folds


@pytest.fixture(scope="module")
def eval_corpus():
    return generate(SynthConfig(n_queries=60, seed=17))


@pytest.fixture(scope="module")
def eval_plan(eval_corpus):
    return make_folds(eval_corpus, "random", seed=0)


def test_parse_featurization_forms():
    assert parse_featurization("sparse") == ("sparse", None)
    assert parse_featurization("neural-32") == ("neural", 32)
    assert parse_featurization("pca-8") == ("pca", 8)
    assert parse_featurization("fa-16") == ("fa", 16)
    for bad in ("neural", "pca-0", "fa--3", "dense-32", "neural-32.5", ""):
        with pytest.raises(ValueError, match="featurization"):
            parse_featurization(bad)


def test_fit_featurization_needs_triples_for_neural(eval_corpus):
    from opembed.featurize import fit_encode

    schema, table = fit_encode(eval_corpus)
    X = table.X
    with pytest.raises(ValueError, match="triples"):
        fit_featurization("neural-8", schema, X)
    fitted = fit_featurization("pca-8", schema, X)
    assert fitted.transform(X).shape == (len(X), 8)
    sparse = fit_featurization("sparse", schema, X)
    assert np.array_equal(sparse.transform(X), X)


def test_fit_featurization_seeds_the_default_batch_order():
    """Without an sgd config, seed seeds the batch order as well as the
    initialization: the fit is the one with SgdConfig(seed=seed)."""
    from opembed.featurize import fit_encode

    schema, table = fit_encode(generate(SynthConfig(n_queries=30, seed=17)))

    def embeddings(**sgd):
        feat = fit_featurization("neural-4", schema, table.X, table.children,
                                 hidden_dims=(8,), seed=3, **sgd)
        return feat.transform(table.X).tobytes()

    assert embeddings() == embeddings(sgd=nn.SgdConfig(seed=3))
    assert embeddings() != embeddings(sgd=nn.SgdConfig(seed=0))


def test_dummy_accuracy_equals_prior_exactly(eval_corpus, eval_plan):
    report = evaluate(
        eval_corpus, TaskSpec("admission"), ["sparse"], ["dummy"], eval_plan
    )
    assert len(report.cells) == 5
    for cell in report.cells:
        assert cell.accuracy == cell.prior
        assert 0.0 <= cell.accuracy <= 1.0


def test_median_rows_aggregate_folds(eval_corpus, eval_plan):
    report = evaluate(
        eval_corpus, TaskSpec("card"), ["sparse"], ["dummy", "logreg"], eval_plan
    )
    rows = report.median_rows()
    assert len(rows) == 2
    for row in rows:
        sub = [
            c.accuracy
            for c in report.cells
            if (c.featurization, c.model) == (row["featurization"], row["model"])
        ]
        assert row["folds"] == 5
        assert row["accuracy"] == float(np.median(sub))


def test_report_csvs_and_timings_toggle(eval_corpus, eval_plan, tmp_path):
    args = (eval_corpus, TaskSpec("admission"), ["sparse"], ["dummy"], eval_plan)
    timed = tmp_path / "cells_timed.csv"
    bare = tmp_path / "cells.csv"
    evaluate(*args, timings=True).to_csv(timed)
    report = evaluate(*args)
    report.to_csv(bare)
    head_timed = timed.read_text().splitlines()[0]
    head_bare = bare.read_text().splitlines()[0]
    assert "mean_infer_ms" in head_timed and "train_seconds" in head_timed
    assert "mean_infer_ms" not in head_bare and "train_seconds" not in head_bare
    assert "recall_ok" in head_bare and "recall_slow" in head_bare

    second = tmp_path / "cells2.csv"
    evaluate(*args).to_csv(second)
    assert second.read_bytes() == bare.read_bytes()

    med = tmp_path / "medians.csv"
    report.medians_to_csv(med)
    assert med.read_text().splitlines()[0] == "task,featurization,model,folds,accuracy,prior"


def test_format_table_lists_grid(eval_corpus, eval_plan):
    report = evaluate(
        eval_corpus, TaskSpec("user"), ["sparse"], ["dummy"], eval_plan
    )
    table = report.format_table()
    assert "task=user" in table
    assert "sparse" in table and "dummy" in table
    assert "accuracy" in table


def test_neural_featurization_smoke(eval_corpus, eval_plan):
    report = evaluate(
        eval_corpus,
        TaskSpec("admission"),
        ["neural-8"],
        ["logreg"],
        eval_plan,
        sgd=nn.SgdConfig(epochs=3, seed=0),
        hidden_dims=(32, 16),
        timings=True,
    )
    assert len(report.cells) == 5
    for cell in report.cells:
        assert 0.0 <= cell.accuracy <= 1.0
        assert cell.mean_infer_ms > 0.0
        assert set(cell.recalls) <= {"ok", "slow"}


def test_full_log_embedding_is_deterministic(eval_corpus, eval_plan):
    kwargs = dict(
        sgd=nn.SgdConfig(epochs=3, seed=0),
        hidden_dims=(32, 16),
        embedding_from_full_log=True,
    )
    a = evaluate(
        eval_corpus, TaskSpec("admission"), ["neural-8", "sparse"], ["logreg"],
        eval_plan, **kwargs,
    )
    b = evaluate(
        eval_corpus, TaskSpec("admission"), ["neural-8", "sparse"], ["logreg"],
        eval_plan, **kwargs,
    )
    assert [c.accuracy for c in a.cells] == [c.accuracy for c in b.cells]
    assert [c.prior for c in a.cells] == [c.prior for c in b.cells]


def test_strategy_and_classes_recorded(eval_corpus):
    plan = make_folds(eval_corpus, "temporal", seed=0)
    report = evaluate(eval_corpus, TaskSpec("user"), ["sparse"], ["dummy"], plan)
    assert report.strategy == "temporal"
    assert all(lab.startswith("user_") for lab in report.classes)


def test_unknown_model_and_featurization_rejected(eval_corpus, eval_plan):
    with pytest.raises(ValueError, match="featurization"):
        evaluate(eval_corpus, TaskSpec("card"), ["dense-4"], ["dummy"], eval_plan)
    with pytest.raises(ValueError, match="model"):
        evaluate(eval_corpus, TaskSpec("card"), ["sparse"], ["xgboost"], eval_plan)
    with pytest.raises(ValueError, match="needs a fold"):
        evaluate(eval_corpus, TaskSpec("card"), ["sparse"], ["dummy"], FoldPlan("random", 0, []))
    assert MODELS == ("logreg", "knn", "rf", "svm", "dummy")


def test_coverage_errors_propagate():
    records = [
        QueryRecord(
            f"q{i}",
            f"user_{i % 5}",
            PlanNode(node_type="SeqScan", plan_rows=10.0, total_cost=1.0),
        )
        for i in range(10)
    ]
    corpus = Corpus(records)
    plan = make_folds(corpus, "random", seed=0)
    with pytest.raises(CoverageError, match="latency"):
        evaluate(corpus, TaskSpec("admission"), ["sparse"], ["dummy"], plan)


def test_prior_uses_train_majority_on_test_side():
    # single-op queries: latency 100 for the first 6, 1.0 otherwise; one
    # hand-built fold whose train side is 4 slow + 2 ok so majority = slow,
    # and whose test side has 2 slow + 8 ok -> prior must be 0.2
    def rec(i, lat):
        return QueryRecord(
            f"q{i}",
            "u0",
            PlanNode(
                node_type="SeqScan",
                plan_rows=10.0,
                total_cost=1.0,
                actual_latency_ms=lat,
            ),
        )

    corpus = Corpus(
        [rec(i, 100.0 if i < 6 else 1.0) for i in range(16)]
    )
    train = np.array([0, 1, 2, 3, 6, 7])
    test = np.array([4, 5, 8, 9, 10, 11, 12, 13, 14, 15])
    plan = FoldPlan("random", 0, [(train, test)])
    report = evaluate(
        corpus,
        TaskSpec("admission", percentile=30.0),
        ["sparse"],
        ["dummy"],
        plan,
    )
    (cell,) = report.cells
    # train side: threshold = 30th pct of {100x4, 1x2} = 1.0; slow = latency > 1
    assert cell.prior == pytest.approx(0.2)
    assert cell.accuracy == cell.prior


def test_untimed_evaluate_skips_the_latency_probe(eval_corpus, eval_plan, tmp_path, monkeypatch):
    import time

    from opembed import classifiers

    args = (eval_corpus, TaskSpec("admission"), ["sparse", "pca-8"], ["dummy", "knn"], eval_plan)
    timed = evaluate(*args, timings=True)

    def boom(*a, **k):
        raise AssertionError("untimed evaluate must not time anything")

    monkeypatch.setattr(classifiers, "measure_inference", boom)
    monkeypatch.setattr(time, "perf_counter", boom)
    bare = evaluate(*args)
    monkeypatch.undo()

    assert timed.timed and not bare.timed
    assert len(bare.cells) == len(timed.cells) == 20
    assert all(c.mean_infer_ms is None and c.train_seconds is None for c in bare.cells)
    assert all(r["mean_infer_ms"] is None for r in bare.median_rows())
    for write in ("to_csv", "medians_to_csv"):
        a, b = tmp_path / f"timed-{write}.csv", tmp_path / f"bare-{write}.csv"
        getattr(timed, write)(a)
        getattr(bare, write)(b)
        assert "mean_infer_ms" in a.read_text().splitlines()[0]
        assert "mean_infer_ms" not in b.read_text().splitlines()[0]
    assert "infer ms" in timed.format_table()
    assert "infer ms" not in bare.format_table()
    assert bare.format_table() == evaluate(*args).format_table()


@pytest.mark.parametrize("full_log", [False, True])
def test_each_model_trains_once_over_the_folds(eval_corpus, eval_plan, tmp_path, monkeypatch,
                                               full_log):
    from opembed import classifiers

    args = (eval_corpus, TaskSpec("card"), ["sparse", "pca-8"], ["logreg", "knn", "rf", "svm"],
            eval_plan)
    fit_one_set = classifiers.train_sets
    calls = []

    def one_set_at_a_time(model, sets, seed=0):
        calls.append(len(sets))
        return [fit_one_set(model, [s], seed)[0] for s in sets]

    timed = evaluate(*args, embedding_from_full_log=full_log, timings=True)
    # a cell's train_seconds is its share of its model's one fit over the folds
    assert all(c.train_seconds > 0 for c in timed.cells)
    for feat in ("sparse", "pca-8"):
        for model in args[3]:
            shares = {c.train_seconds for c in timed.cells
                      if (c.featurization, c.model) == (feat, model)}
            assert len(shares) == 1
    together = tmp_path / "together.csv"
    evaluate(*args, embedding_from_full_log=full_log).to_csv(together)
    monkeypatch.setattr(classifiers, "train_sets", one_set_at_a_time)
    alone = tmp_path / "alone.csv"
    evaluate(*args, embedding_from_full_log=full_log).to_csv(alone)
    assert calls == [len(eval_plan)] * 8
    assert together.read_bytes() == alone.read_bytes()


def test_recall_columns_name_every_folds_classes(tmp_path):
    # at 40 queries, user_1 and user_4 never reach fold 0's train fifth; their
    # recalls in the folds that trained on them still get columns
    corpus = generate(SynthConfig(n_queries=40, seed=0))
    plan = make_folds(corpus, "random", seed=0)
    report = evaluate(corpus, TaskSpec("user"), ["sparse"], ["dummy"], plan)
    trained = [tuple(dict.fromkeys(corpus.records[q].user_label for q in train))
               for train, _ in plan.folds]
    assert {"user_1", "user_4"}.isdisjoint(trained[0])
    assert set(report.classes) == {r.user_label for r in corpus.records}
    assert report.classes == tuple(dict.fromkeys(u for users in trained for u in users))
    report.to_csv(tmp_path / "cells.csv")
    header = (tmp_path / "cells.csv").read_text().splitlines()[0].split(",")
    assert header[7:] == [f"recall_{c}" for c in report.classes]
    assert all(set(cell.recalls) <= set(trained[cell.fold]) for cell in report.cells)
    assert any("user_1" in cell.recalls for cell in report.cells)


@pytest.mark.parametrize("strategy,full_log", [("random", False), ("temporal", True)])
def test_each_folds_cells_equal_its_one_fold_evaluation(eval_corpus, strategy, full_log):
    # the passes keep each fold's featurizer, classifiers and test rows together
    plan = make_folds(eval_corpus, strategy, seed=0)
    args = (TaskSpec("card"), ["sparse", "neural-8", "pca-4"], list(MODELS))
    kwargs = dict(sgd=nn.SgdConfig(epochs=2, seed=0), hidden_dims=(16,),
                  embedding_from_full_log=full_log)
    grid = evaluate(eval_corpus, *args, plan, **kwargs)
    per_fold = len(args[1]) * len(args[2])
    for k, fold in enumerate(plan.folds):
        alone = evaluate(eval_corpus, *args, FoldPlan(strategy, 0, [fold]), **kwargs)
        cells = grid.cells[k * per_fold:(k + 1) * per_fold]
        assert [(c.fold, c.featurization, c.model) for c in cells] == [
            (k, feat, model) for feat in args[1] for model in args[2]]
        assert [(c.accuracy, c.prior, c.recalls) for c in cells] == [
            (c.accuracy, c.prior, c.recalls) for c in alone.cells]
