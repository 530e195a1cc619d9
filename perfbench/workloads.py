"""The three benchmark workloads.

Each workload makes its inputs from the seed in ``setup``, runs one timed
repetition in ``unit`` and checks that repetition's outputs in ``check``,
outside the timed region. Operations and failures are counted per workload:
CLI commands for embed-train, grid cells for grid-card, queries scored for
admit-wide. A failed check counts as a failed operation.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import statistics
import time
from collections import Counter
from pathlib import Path

from click.testing import CliRunner

from opembed import plans, store, tasks
from opembed.cli import main as opembed_main
from opembed.featurize import encode, schema_hash


class SetupError(RuntimeError):
    """A set-up step failed, so nothing can be measured."""


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class Workload:
    """Shared bookkeeping: the CLI runner, op counts and check failures."""

    name = ""

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed
        self.corpus = work / "setup0" / "corpus.json"
        self.out = work / "unit"
        self.out.mkdir(parents=True, exist_ok=True)
        self.runner = CliRunner()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first_digest: dict[str, str] = {}
        self.counts: dict[str, float] = {}      # exact per-layer counts
        self.detail: dict[str, tuple[float, str]] = {}

    def cli(self, *args) -> tuple[bool, str]:
        """Invoke one opembed command in-process through its click entry point."""
        result = self.runner.invoke(opembed_main, [str(a) for a in args])
        return result.exit_code == 0, result.output

    def timed_cli(self, parts: dict[str, float], part: str, *args) -> tuple[bool, str]:
        """cli(), with its wall time recorded under parts[part]."""
        t0 = time.perf_counter()
        result = self.cli(*args)
        parts[part] = time.perf_counter() - t0
        return result

    def fail(self, ops: int, message: str) -> None:
        self.failed += ops
        if len(self.problems) < 20:
            self.problems.append(message)

    def same_as_first(self, key: str, digest: str) -> bool:
        """Record the first digest under key; later ones must equal it."""
        return self.first_digest.setdefault(key, digest) == digest

    def setup_dir(self, k: int) -> Path:
        """setup0 feeds the units; later set-ups share setup1 and are only
        compared with it."""
        d = self.work / f"setup{min(k, 1)}"
        d.mkdir(parents=True, exist_ok=True)
        return d

    def run_setup_cli(self, *args) -> str:
        ok, out = self.cli(*args)
        if not ok:
            raise SetupError(f"opembed {args[0]} failed: {out.strip()[-300:]}")
        return out

    def queries_for(self, preset: str, seed: int, operators: int, probe_queries: int) -> int:
        """How many queries of a seeded log stay within a fixed operator
        count. Synth is prefix-stable, so the first n queries of a long
        probe log are the log that ``--queries n`` generates; fixing the
        operator count keeps the input size from varying with the seed."""
        probe = self.work / "probe.json"
        self.run_setup_cli("synth", "--preset", preset, "--queries", probe_queries,
                           "--seed", seed, "--out", probe)
        sizes = [count_nodes(q["plan"]) for q in json.loads(probe.read_text())["queries"]]
        total, queries = 0, 0
        for size in sizes:
            if total + size > operators:
                return queries
            total, queries = total + size, queries + 1
        raise SetupError(f"{probe_queries} {preset} queries hold fewer than {operators} operators")

    def check_setup_digests(self, k: int, paths: dict[str, Path]) -> None:
        for key, path in paths.items():
            if not self.same_as_first(f"setup.{key}", sha256(path)):
                self.problems.append(f"set-up {k}: {key} differs from set-up 0 for the same seed")

    def prepare(self) -> None:
        """Untimed input sizing, once per run before the set-ups."""

    def setup(self, k: int) -> None:
        raise NotImplementedError

    def unit(self, i: int) -> dict[str, float]:
        """One timed repetition; returns the seconds each of its parts took."""
        raise NotImplementedError

    def check(self, i: int, traced: bool) -> None:
        raise NotImplementedError

    def finish(self) -> None:
        """Compute the workload's own end-to-end figures after the last unit."""


class EmbedTrain(Workload):
    """CLI train-embedding (default trunk) then embed, on planted-card."""

    name = "embed-train"
    PRESET = "planted-card"
    OPERATORS = 2800
    EPOCHS = 8

    def prepare(self) -> None:
        self.queries = self.queries_for(self.PRESET, self.seed, self.OPERATORS, 600)

    def setup(self, k: int) -> None:
        d = self.setup_dir(k)
        self.run_setup_cli("synth", "--preset", self.PRESET, "--queries", self.queries,
                           "--seed", self.seed, "--out", d / "corpus.json")
        self.check_setup_digests(k, {"corpus": d / "corpus.json"})

    def unit(self, i: int) -> dict[str, float]:
        o, parts = self.out, {}
        self.ok_train, self.train_out = self.timed_cli(
            parts, "train-embedding",
            "train-embedding", "--corpus", self.corpus, "--epochs", self.EPOCHS,
            "--seed", self.seed, "--encoder-out", o / "encoder.opeb",
            "--schema-out", o / "schema.opeb")
        self.ok_embed, _ = self.timed_cli(
            parts, "embed",
            "embed", "--corpus", self.corpus, "--encoder", o / "encoder.opeb",
            "--out", o / "embeddings.csv")
        return parts

    def check(self, i: int, traced: bool) -> None:
        self.attempted += 2
        o = self.out
        if not self.ok_train:
            self.fail(2, f"unit {i}: train-embedding failed: {self.train_out.strip()[-200:]}")
            return
        header, _ = store.load_bundle(o / "encoder.opeb", "encoder")
        self.meta = meta = header["meta"]
        first_loss = float(self.train_out.split("loss ")[1].split(" ->")[0])
        if not (math.isfinite(meta["final_loss"]) and meta["final_loss"] < first_loss):
            self.fail(1, f"unit {i}: loss did not fall ({first_loss} -> {meta['final_loss']})")
        elif not self.same_as_first("encoder", sha256(o / "encoder.opeb")):
            self.fail(1, f"unit {i}: encoder bundle differs from unit 0 for the same seed")
        if not self.ok_embed:
            self.fail(1, f"unit {i}: embed failed")
            return
        rows = read_rows(o / "embeddings.csv")
        if len(rows) != meta["operators"]:
            self.fail(1, f"unit {i}: {len(rows)} embeddings for {meta['operators']} operators")
        elif not self.same_as_first("embeddings", sha256(o / "embeddings.csv")):
            self.fail(1, f"unit {i}: embeddings CSV differs from unit 0 for the same seed")

    def finish(self) -> None:
        schema, _ = store.load_schema_bundle(self.out / "schema.opeb")
        corpus = plans.load_corpus(self.corpus)
        self.counts.update(
            queries=self.meta["queries"], operators=self.meta["operators"],
            sparse_dim=schema.total_dim, unknown_values=unknown_values(schema, corpus))
        self.detail["final_loss"] = (self.meta["final_loss"], "loss")


class GridCard(Workload):
    """The card-task grid through CLI evaluate, one command per featurization
    (each with every model and fold), with a short neural training."""

    name = "grid-card"
    PRESET = "planted-card"
    OPERATORS = 250
    EPOCHS = 2
    FEATURIZATIONS = ("sparse", "neural-32", "pca-32", "fa-32")
    MODELS = ("logreg", "knn", "rf", "svm", "dummy")
    FOLDS = 5
    REPORTED = (("sparse", "rf"), ("neural-32", "knn"), ("neural-32", "rf"),
                ("pca-32", "knn"), ("fa-32", "rf"))

    def prepare(self) -> None:
        self.queries = self.queries_for(self.PRESET, self.seed, self.OPERATORS, 60)

    def setup(self, k: int) -> None:
        d = self.setup_dir(k)
        self.run_setup_cli("synth", "--preset", self.PRESET, "--queries", self.queries,
                           "--seed", self.seed, "--out", d / "corpus.json")
        self.check_setup_digests(k, {"corpus": d / "corpus.json"})

    def unit(self, i: int) -> dict[str, float]:
        parts: dict[str, float] = {}
        self.results = {
            feat: self.timed_cli(
                parts, feat,
                "evaluate", "--corpus", self.corpus, "--task", "card",
                "--featurizations", feat, "--models", ",".join(self.MODELS),
                "--embedding-from-full-log", "--epochs", self.EPOCHS, "--seed", self.seed,
                "--out", self.out / f"report-{feat}.csv",
                "--medians-out", self.out / f"medians-{feat}.csv")
            for feat in self.FEATURIZATIONS}
        return parts

    def check(self, i: int, traced: bool) -> None:
        cells = len(self.MODELS) * self.FOLDS
        for feat, (ok, output) in self.results.items():
            self.attempted += cells
            if not ok:
                self.fail(cells, f"unit {i}: evaluate {feat} failed: {output.strip()[-200:]}")
                continue
            report = self.out / f"report-{feat}.csv"
            rows = read_rows(report)
            bad = [r for r in rows
                   if not 0.0 <= float(r["accuracy"]) <= 1.0
                   or (r["model"] == "dummy" and float(r["accuracy"]) != float(r["prior"]))]
            missing = cells - len(rows)
            if bad or missing:
                self.fail(len(bad) + max(missing, 0),
                          f"unit {i}: {feat}: {len(bad)} cells out of range or dummy != prior, "
                          f"{missing} cells missing")
            elif not self.same_as_first(f"report-{feat}", sha256(report)):
                self.fail(cells, f"unit {i}: {feat} report CSV differs from unit 0 for the same seed")

    def finish(self) -> None:
        for feat, model in self.REPORTED:
            medians = {r["model"]: float(r["accuracy"])
                       for r in read_rows(self.out / f"medians-{feat}.csv")}
            self.detail[f"acc.{feat}.{model}"] = (medians[model], "ratio")
        queries = json.loads(self.corpus.read_text())["queries"]
        self.counts.update(queries=len(queries),
                           operators=sum(count_nodes(q["plan"]) for q in queries))


class AdmitWide(Workload):
    """Score a fresh tpcds-like log with saved encoder + admission bundles:
    a one-client closed loop over tasks.flag_query, then one CLI predict."""

    name = "admit-wide"
    PRESET = "tpcds-like"
    TRAIN_OPERATORS = 3000
    FRESH_OPERATORS = 6000
    EPOCHS = 8
    PERCENTILE = 70
    CLIENTS = 1

    def __init__(self, work: Path, seed: int):
        super().__init__(work, seed)
        self.bundles = work / "setup0"
        self.latencies_ms: list[float] = []     # untraced units only
        self.loop_s: list[float] = []
        self.predict_s: list[float] = []

    def prepare(self) -> None:
        self.train_queries = self.queries_for(self.PRESET, 2 * self.seed, self.TRAIN_OPERATORS, 500)
        self.fresh_queries = self.queries_for(self.PRESET, 2 * self.seed + 1,
                                              self.FRESH_OPERATORS, 1000)

    def setup(self, k: int) -> None:
        d = self.setup_dir(k)
        train, fresh = d / "train.json", d / "fresh.json"
        self.run_setup_cli("synth", "--preset", self.PRESET, "--queries", self.train_queries,
                           "--seed", 2 * self.seed, "--out", train)
        self.run_setup_cli("synth", "--preset", self.PRESET, "--queries", self.fresh_queries,
                           "--seed", 2 * self.seed + 1, "--out", fresh)
        self.run_setup_cli("train-embedding", "--corpus", train, "--epochs", self.EPOCHS,
                           "--seed", self.seed, "--encoder-out", d / "encoder.opeb",
                           "--schema-out", d / "schema.opeb")
        self.run_setup_cli("embed", "--corpus", train, "--encoder", d / "encoder.opeb",
                           "--out", d / "embeddings.csv")
        self.run_setup_cli("train-task", "--corpus", train, "--features", d / "embeddings.csv",
                           "--task", "admission", "--model", "logreg",
                           "--percentile", self.PERCENTILE, "--seed", self.seed,
                           "--provenance", d / "encoder.opeb", "--out", d / "classifier.opeb")
        self.check_setup_digests(k, {
            name: d / name for name in
            ("train.json", "fresh.json", "encoder.opeb", "schema.opeb",
             "embeddings.csv", "classifier.opeb")})

    def unit(self, i: int) -> dict[str, float]:
        b = self.bundles
        t_load = time.perf_counter()
        encoder, _ = store.load_encoder_bundle(b / "encoder.opeb")
        self.schema, _ = store.load_schema_bundle(b / "schema.opeb")
        self.clf, self.clf_header = store.load_classifier_bundle(b / "classifier.opeb")
        self.fresh = plans.load_corpus(b / "fresh.json")
        self.encoder_digest = encoder.schema_digest
        self.verdicts: list[tuple[str, str]] = []
        self.unit_latencies: list[float] = []
        self.loop_errors = 0
        loop_start = time.perf_counter()
        for record in self.fresh.records:
            t0 = time.perf_counter()
            try:
                verdict = tasks.flag_query(self.clf, self.schema, record, transform=encoder)
            except Exception as exc:  # counted as a failed query, the loop goes on
                verdict = f"error: {exc!r}"
                self.loop_errors += 1
            self.unit_latencies.append((time.perf_counter() - t0) * 1e3)
            self.verdicts.append((record.query_id, verdict))
        t1 = time.perf_counter()
        self.unit_loop_s = t1 - loop_start
        parts = {"load-and-flag": t1 - t_load}
        self.ok, self.output = self.timed_cli(
            parts, "predict",
            "predict", "--plans", b / "fresh.json", "--classifier", b / "classifier.opeb",
            "--encoder", b / "encoder.opeb", "--out", self.out / "predictions.csv")
        self.unit_predict_s = parts["predict"]
        return parts

    def check(self, i: int, traced: bool) -> None:
        n = len(self.fresh.records)
        self.attempted += 2 * n
        if self.loop_errors:
            first = next(v for _, v in self.verdicts if v.startswith("error: "))
            self.fail(self.loop_errors,
                      f"unit {i}: {self.loop_errors} flag_query calls raised, first {first}")
        if schema_hash(self.schema) != self.encoder_digest:
            self.fail(n, f"unit {i}: schema bundle does not match the encoder's schema hash")
        if not self.ok:
            self.fail(n, f"unit {i}: predict failed: {self.output.strip()[-200:]}")
            return
        verdict_path = self.out / "predictions.csv.verdicts.csv"
        cli_verdicts = [(r["query_id"], r["verdict"]) for r in read_rows(verdict_path)]
        mismatched = sum(a != b for a, b in zip(self.verdicts, cli_verdicts))
        mismatched += abs(len(self.verdicts) - len(cli_verdicts))
        if mismatched:
            self.fail(mismatched, f"unit {i}: {mismatched} flag_query verdicts differ from predict's")
        self.flagged = sum(v == "flag" for _, v in cli_verdicts)
        if self.flagged == 0:
            self.fail(n, f"unit {i}: the classifier flagged no query")
        self.predictions = [(r["id"], r["node_type"], r["prediction"])
                            for r in read_rows(self.out / "predictions.csv")]
        pred_digest = hashlib.sha256(repr(self.predictions).encode()).hexdigest()
        if not self.same_as_first("verdicts", sha256(verdict_path)):
            self.fail(n, f"unit {i}: verdicts CSV differs from unit 0 for the same seed")
        elif not self.same_as_first("predictions", pred_digest):
            self.fail(n, f"unit {i}: predictions (id, node_type, prediction) differ from unit 0")
        if not traced:
            self.latencies_ms += self.unit_latencies
            self.loop_s.append(self.unit_loop_s)
            self.predict_s.append(self.unit_predict_s)

    def finish(self) -> None:
        labels, _ = tasks.label_admission(
            self.fresh, threshold=self.clf_header["meta"]["threshold_ms"])
        correct = sum(lab == p[2] for lab, p in zip(labels, self.predictions))
        operators = len(self.predictions)
        self.counts.update(
            queries=len(self.fresh.records), operators=operators,
            sparse_dim=self.schema.total_dim, flagged=self.flagged,
            unknown_values=unknown_values(self.schema, self.fresh))
        if self.latencies_ms:
            q = statistics.quantiles(self.latencies_ms, n=100, method="inclusive")
            self.detail.update({
                "admit_qps": (len(self.latencies_ms) / sum(self.loop_s), "1/s"),
                "admit_p50_ms": (statistics.median(self.latencies_ms), "ms"),
                "admit_p99_ms": (q[98], "ms"),
                "admit_samples": (len(self.latencies_ms), "count"),
                "admit_clients": (self.CLIENTS, "count"),
                "predict_ops_per_s": (operators / statistics.median(self.predict_s), "1/s"),
            })
        self.detail["admit_acc"] = (correct / operators, "ratio")


def count_nodes(plan: dict) -> int:
    """Operators in one plan, counted without recursion."""
    count, stack = 0, [plan]
    while stack:
        node = stack.pop()
        count += 1
        stack += node.get("children", [])
    return count


def unknown_values(schema, corpus) -> int:
    """Categorical values in the corpus that the schema has never seen."""
    tally: Counter = Counter()
    for item in plans.walk_operators(corpus):
        encode(schema, item.node, tally)
    return sum(tally.values())


WORKLOADS = {w.name: w for w in (EmbedTrain, GridCard, AdmitWide)}
