"""Memory grows linearly with corpus size: at n and 2n queries, loading the
plan file, encoding the operators and one training epoch each peak at most
RATIO times as high (tracemalloc) on the larger corpus.

Both corpora are encoded with one schema fit on the larger, so the encoding
width is the same at n and 2n; a schema fit on each corpus would widen with
its vocabulary and grow the encoding faster than the row count.

Embedding a corpus holds the wide encodings of one block of operators at a
time, so its peak stays below the size of the whole corpus's encodings.

evaluate holds every fold's train side, one featurization's train sets and
one fold's test side at a time, so its peak stays within a few encoded
corpora in either mode.
"""

import dataclasses
import tracemalloc

import pytest

from opembed import nn
from opembed.evaluate import evaluate
from opembed.featurize import build_schema, encode_corpus, fit_encode
from opembed.hourglass import HourglassSpec, build, cut_off, embed_corpus, train_embedding
from opembed.plans import load_corpus, save_corpus
from opembed.synth import PRESETS, generate
from opembed.tasks import TaskSpec, make_folds

N = 100
RATIO = 2.3


def _peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("preset", ["planted-card", "tpcds-like"])
def test_peak_memory_grows_linearly_with_corpus_size(preset, tmp_path):
    paths = []
    for n in (N, 2 * N):
        paths.append(tmp_path / f"{n}.json")
        save_corpus(generate(dataclasses.replace(PRESETS[preset](seed=2), n_queries=n)),
                    paths[-1])
    corpora = [load_corpus(p) for p in paths]
    schema = build_schema(corpora[1])
    tables = [encode_corpus(schema, c) for c in corpora]

    def epoch(table):
        net = build(HourglassSpec(hidden_dims=(32, 16), embedding_dim=8), schema)
        return lambda: train_embedding(net, table.X, table.children, nn.SgdConfig(epochs=1))

    stages = {
        "load_corpus": [lambda p=p: load_corpus(p) for p in paths],
        "encode_corpus": [lambda c=c: encode_corpus(schema, c) for c in corpora],
        "epoch": [epoch(t) for t in tables],
    }
    for stage, (small, large) in stages.items():
        ratio = _peak(large) / _peak(small)
        assert ratio <= RATIO, (stage, ratio)


def test_embedding_a_corpus_peaks_below_its_encodings():
    corpus = generate(dataclasses.replace(PRESETS["tpcds-like"](seed=2), n_queries=250))
    schema = build_schema(corpus)
    encoder = cut_off(build(HourglassSpec(), schema))
    ids, _ = embed_corpus(encoder, schema, corpus)
    x_bytes = len(ids) * schema.total_dim * 8  # the float64 X encode_corpus would hold
    peak = _peak(lambda: embed_corpus(encoder, schema, corpus))
    assert peak < x_bytes, (peak, x_bytes)


@pytest.mark.parametrize("full_log", [False, True])
def test_evaluate_peaks_near_one_encoded_corpus(full_log):
    """At n and 2n queries, evaluate's peak grows at most RATIO times and
    stays within 3x the corpus's encoded X. A fold's train and test sides
    together are the whole corpus, so holding every fold's test side at once
    would pass 3x.

    The grid is sparse + dummy only: kNN's distance scratch (up to
    classifiers.KNN_CHUNK_BYTES, 32 MB) would dominate corpora this small,
    and a kNN model copies its train rows, so with kNN in the grid the
    models kept for scoring add about one train side per featurization.
    """
    peaks, x_bytes = [], []
    for n in (N, 2 * N):
        corpus = generate(dataclasses.replace(PRESETS["planted-card"](seed=2), n_queries=n))
        plan = make_folds(corpus, "random", seed=0)
        x_bytes.append(fit_encode(corpus)[1].X.nbytes)
        peaks.append(_peak(lambda: evaluate(corpus, TaskSpec("card"), ["sparse"], ["dummy"],
                                            plan, embedding_from_full_log=full_log)))
    assert peaks[1] / peaks[0] <= RATIO, peaks
    for peak, size in zip(peaks, x_bytes):
        assert peak <= 3 * size, (peak / size, size)
