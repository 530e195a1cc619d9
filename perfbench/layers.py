"""Per-layer metrics: what each traced span and counter says about one module.

Timings are medians over the calls a traced run made (set-ups and units),
except the ``layer_self_ms.*`` family, which is the self time each module
spent per traced unit. ``nn.forward_ms.*`` and ``nn.backward_ms.*`` come
from a microbenchmark that calls ``nn.forward`` and ``nn.backprop_layers``
on single-layer networks cut from the trained trunk and heads.
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path

import numpy as np

MODELS = {"logreg": "logreg", "knn": "knn", "rf": "rf", "svm": "linsvm", "dummy": "dummy"}
TRAIN_FN = {"logreg": "train_logreg", "knn": "train_knn", "rf": "train_rf",
            "svm": "train_linsvm", "dummy": "train_dummy"}
BUNDLES = ("encoder", "schema", "classifier")
COMMANDS = ("train-embedding", "embed", "train-task", "predict", "evaluate")
MODULES = ("plans", "featurize", "nn", "hourglass", "reducers", "classifiers",
           "tasks", "evaluate", "store", "synth", "cli")
TRUNK_LAYERS = 7          # the default 256-256-128-128-64-64 -> 32 trunk
MICRO_BATCH = 64
MICRO_REPS = 30


def _per_layer_names() -> list[tuple[str, str]]:
    out = []
    for kind in ("forward", "backward"):
        out += [(f"nn.{kind}_ms.L{i}", "ms") for i in range(TRUNK_LAYERS)]
        out.append((f"nn.{kind}_ms.head", "ms"))
    out += [("nn.train_flops", "count"), ("nn.train_gflops", "GFLOP/s"),
            ("nn.predict_us_per_query", "us"),
            ("hourglass.epoch_ms", "ms"), ("hourglass.op_epochs", "count"),
            ("hourglass.op_epochs_per_s", "1/s"), ("hourglass.embed_corpus_ms", "ms"),
            ("featurize.encode_us", "us"), ("featurize.encode_calls", "count"),
            ("featurize.build_schema_ms", "ms"), ("featurize.extract_triples_ms", "ms"),
            ("featurize.sparse_dim", "count"), ("featurize.unknown_values", "count"),
            ("plans.load_corpus_ms", "ms"), ("plans.queries", "count"),
            ("plans.operators", "count")]
    out += [(f"classifiers.fit_ms.{m}", "ms") for m in MODELS]
    out += [(f"classifiers.predict_ms.{m}", "ms") for m in MODELS]
    out += [(f"classifiers.infer_us.{m}", "us") for m in MODELS]
    out += [("classifiers.rf_nodes", "count"), ("classifiers.knn_distance_bytes", "B"),
            ("reducers.fit_pca_ms", "ms"), ("reducers.fit_fa_ms", "ms"),
            ("reducers.transform_ms", "ms"),
            ("tasks.make_folds_ms", "ms"), ("tasks.label_ms", "ms"), ("tasks.flagged", "count")]
    for kind in BUNDLES:
        out += [(f"store.save_ms.{kind}", "ms"), (f"store.load_ms.{kind}", "ms"),
                (f"store.bytes.{kind}", "B")]
    out += [("evaluate.cells", "count"), ("evaluate.self_ms", "ms")]
    for cmd in COMMANDS:
        out += [(f"cli.{cmd}_ms", "ms"), (f"cli.{cmd}.self_ms", "ms")]
    out.append(("synth.generate_ms", "ms"))
    out += [(f"layer_self_ms.{m}", "ms") for m in MODULES]
    out += [("layer_self_ms.outside", "ms"), ("trace.overhead_pct", "%"),
            ("trace.spans_per_unit", "count")]
    return out


PER_LAYER = _per_layer_names()


# -- span attributes recorded at call time ----------------------------------

def _count_nodes(tree: dict) -> int:
    count, stack = 0, [tree]
    while stack:
        node = stack.pop()
        count += 1
        if "leaf" not in node:
            stack += [node["lo"], node["hi"]]
    return count


def _train_attrs(args, kwargs, result):
    enet, losses = result
    triples = args[1] if len(args) > 1 else kwargs["triples"]
    weights = sum(layer.W.size for net in (enet.trunk, enet.head1, enet.head2)
                  for layer in net.layers)
    rows, epochs = len(triples), len(losses)
    # matmuls only: 2 flops per multiply-add forward, twice that backward
    # (weight and input gradients), over every row of every epoch
    return {"rows": rows, "epochs": epochs, "flops": 6 * rows * epochs * weights}


def _predict_attrs(args, kwargs, result):
    clf, x = args[0], np.asarray(args[1] if len(args) > 1 else kwargs["x"])
    rows = 1 if x.ndim == 1 else len(x)
    attrs = {"kind": clf.kind, "rows": rows}
    if clf.kind == "knn":
        n_train, dim = clf.params["X"].shape
        attrs["knn_bytes"] = rows * n_train * dim * 8
    return attrs


def _bytes_attrs(args, kwargs, result):
    return {"bytes": Path(result).stat().st_size}


SPAN_ATTRS = {
    "hourglass.train_embedding": _train_attrs,
    "classifiers.predict": _predict_attrs,
    "classifiers.train_rf": lambda a, k, r: {"nodes": sum(map(_count_nodes, r.params["trees"]))},
    "evaluate.evaluate": lambda a, k, r: {"cells": len(r.cells)},
    **{f"store.save_{kind}_bundle": _bytes_attrs for kind in BUNDLES},
}
KEEP = ("hourglass.train_embedding", "featurize.extract_triples")


# -- nn microbenchmark -------------------------------------------------------

def _median_ms(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def nn_layer_micro(nn, enet, X: np.ndarray, reps: int = MICRO_REPS) -> dict[str, float]:
    """Forward and backward ms per trunk layer and for one head, batch 64,
    each on a one-layer network fed the activations the trained trunk
    produces for a real batch of operators."""
    batch = X[:MICRO_BATCH]
    trunk_trace = nn.forward(enet.trunk, batch)
    inputs = [c.x for c in trunk_trace.caches] + [trunk_trace.activations[-1]]
    layers = list(enet.trunk.layers) + [enet.head1.layers[0]]
    names = [f"L{i}" for i in range(len(enet.trunk.layers))] + ["head"]
    rng = np.random.default_rng(0)
    out = {}
    for name, layer, x in zip(names, layers, inputs):
        single = nn.Network([layer])
        dout = rng.normal(size=(len(x), layer.out_dim))
        trace = nn.forward(single, x)
        out[f"nn.forward_ms.{name}"] = _median_ms(lambda: nn.forward(single, x), reps)
        out[f"nn.backward_ms.{name}"] = _median_ms(
            lambda: nn.backprop_layers(single, trace, dout), reps)
    return out


# -- aggregation -------------------------------------------------------------

def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def layer_metrics(tracer, unit_roots: list[int], counts: dict, micro: dict,
                  overhead_pct: float) -> dict[str, float]:
    """Every PER_LAYER metric from the spans, the workload's exact counts and
    the microbenchmark. A layer the workload never calls reads 0."""
    spans = tracer.spans
    self_ms = tracer.self_ms()
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)
    root = []
    for i, s in enumerate(spans):
        root.append(i if s.parent < 0 else root[s.parent])
    roots = set(unit_roots)
    units = max(len(unit_roots), 1)

    def ms(name):
        return [spans[i].ms for i in by_name.get(name, [])]

    def attrs(name):
        return [spans[i].attrs for i in by_name.get(name, []) if spans[i].attrs]

    def per_unit(name, value=lambda i: 1):
        return sum(value(i) for i in by_name.get(name, []) if root[i] in roots) / units

    m: dict[str, float] = dict(micro)
    train = [(spans[i].ms, spans[i].attrs) for i in by_name.get("hourglass.train_embedding", [])
             if spans[i].attrs]
    m["nn.train_flops"] = _median(a["flops"] for _, a in train)
    m["nn.train_gflops"] = _median(a["flops"] / t / 1e6 for t, a in train)
    encoder_in_loop = [spans[i].ms * 1e3 for i in by_name.get("hourglass.Encoder", [])
                       if spans[i].parent >= 0 and spans[spans[i].parent].name == "tasks.flag_query"]
    m["nn.predict_us_per_query"] = statistics.fmean(encoder_in_loop) if encoder_in_loop else 0.0

    m["hourglass.epoch_ms"] = _median(t / a["epochs"] for t, a in train)
    m["hourglass.op_epochs"] = _median(a["rows"] * a["epochs"] for _, a in train)
    m["hourglass.op_epochs_per_s"] = _median(a["rows"] * a["epochs"] / t * 1e3 for t, a in train)
    m["hourglass.embed_corpus_ms"] = _median(ms("hourglass.embed_corpus"))

    m["featurize.encode_us"] = _median(ms("featurize.encode")) * 1e3
    m["featurize.encode_calls"] = per_unit("featurize.encode")
    m["featurize.build_schema_ms"] = _median(ms("featurize.build_schema"))
    m["featurize.extract_triples_ms"] = _median(ms("featurize.extract_triples"))
    m["featurize.sparse_dim"] = counts.get("sparse_dim", 0)
    m["featurize.unknown_values"] = counts.get("unknown_values", 0)

    m["plans.load_corpus_ms"] = _median(ms("plans.load_corpus"))
    m["plans.queries"] = counts.get("queries", 0)
    m["plans.operators"] = counts.get("operators", 0)

    predicts = [(spans[i].ms, spans[i].attrs) for i in by_name.get("classifiers.predict", [])
                if spans[i].attrs]
    for model, kind in MODELS.items():
        m[f"classifiers.fit_ms.{model}"] = _median(ms(f"classifiers.{TRAIN_FN[model]}"))
        m[f"classifiers.predict_ms.{model}"] = _median(
            t for t, a in predicts if a["kind"] == kind and a["rows"] > 1)
        m[f"classifiers.infer_us.{model}"] = _median(
            t for t, a in predicts if a["kind"] == kind and a["rows"] == 1) * 1e3
    m["classifiers.rf_nodes"] = per_unit(
        "classifiers.train_rf", lambda i: (spans[i].attrs or {}).get("nodes", 0))
    m["classifiers.knn_distance_bytes"] = max(
        (a.get("knn_bytes", 0) for _, a in predicts), default=0)

    m["reducers.fit_pca_ms"] = _median(ms("reducers.fit_pca"))
    m["reducers.fit_fa_ms"] = _median(ms("reducers.fit_fa"))
    m["reducers.transform_ms"] = _median(ms("reducers.transform_pca") + ms("reducers.transform_fa"))

    m["tasks.make_folds_ms"] = _median(ms("tasks.make_folds"))
    m["tasks.label_ms"] = _median(
        ms("tasks.label_admission") + ms("tasks.label_card") + ms("tasks.label_user"))
    m["tasks.flagged"] = counts.get("flagged", 0)

    for kind in BUNDLES:
        m[f"store.save_ms.{kind}"] = _median(ms(f"store.save_{kind}_bundle"))
        m[f"store.load_ms.{kind}"] = _median(ms(f"store.load_{kind}_bundle"))
        m[f"store.bytes.{kind}"] = max(
            (a["bytes"] for a in attrs(f"store.save_{kind}_bundle")), default=0)

    m["evaluate.cells"] = _median(a["cells"] for a in attrs("evaluate.evaluate"))
    m["evaluate.self_ms"] = _median(self_ms[i] for i in by_name.get("evaluate.evaluate", []))
    for cmd in COMMANDS:
        m[f"cli.{cmd}_ms"] = _median(ms(f"cli.{cmd}"))
        m[f"cli.{cmd}.self_ms"] = _median(self_ms[i] for i in by_name.get(f"cli.{cmd}", []))
    m["synth.generate_ms"] = _median(ms("synth.generate"))

    module_self = dict.fromkeys(MODULES, 0.0)
    outside = 0.0
    for i, s in enumerate(spans):
        if root[i] not in roots:
            continue
        if i in roots:
            outside += self_ms[i]
        else:
            module_self[s.name.split(".", 1)[0]] += self_ms[i]
    for mod, total in module_self.items():
        m[f"layer_self_ms.{mod}"] = total / units
    m["layer_self_ms.outside"] = outside / units
    m["trace.overhead_pct"] = overhead_pct
    m["trace.spans_per_unit"] = sum(1 for i in range(len(spans)) if root[i] in roots) / units
    return m
