"""Seeded bundle mutations: each rewrites one array or header value of a valid
classifier, pca, fa or encoder bundle to an out-of-range id, a wrong shape, a
wrong dtype, a non-finite weight, a JSON value of the wrong type or a header
fact its arrays contradict. Loading must raise
OpembedError naming the bundle, and predict must end in exactly one "error:"
line that names it, never in a traceback or NaN features.
"""

import random

import numpy as np
import pytest
from click.testing import CliRunner

from opembed import nn, store
from opembed.classifiers import MODELS, FeatProvenance, make_labeled_set, train_logreg, train_sets
from opembed.cli import main
from opembed.errors import OpembedError
from opembed.featurize import fit_encode, schema_hash
from opembed.hourglass import HourglassSpec, build, cut_off, train_embedding
from opembed.plans import save_corpus
from opembed.reducers import fit_fa, fit_pca, transform_fa, transform_pca
from opembed.synth import SynthConfig, generate

CLASSES = ("ok", "slow")


@pytest.fixture(scope="module")
def bundles(tmp_path_factory):
    """A plan file, its schema bundle, one sparse classifier bundle per kind,
    pca-4 and fa-4 reducers and an 8-dim encoder, each with a logreg trained
    on its features."""
    root = tmp_path_factory.mktemp("mutations")
    corpus = generate(SynthConfig(n_queries=12, seed=5))
    save_corpus(corpus, root / "plans.json")
    schema, table = fit_encode(corpus)
    store.save_schema_bundle(root / "schema.opeb", schema)
    X = table.X
    labels = ["slow" if i % 3 == 0 else "ok" for i in range(len(X))]
    digest = schema_hash(schema)
    sparse = make_labeled_set(X, labels, CLASSES, FeatProvenance("sparse", digest))
    for model in MODELS:
        store.save_classifier_bundle(root / f"{model}.opeb", train_sets(model, [sparse])[0])
    for kind, model, transform in (("pca", fit_pca(X, 4), transform_pca),
                                   ("fa", fit_fa(X, 4), transform_fa)):
        getattr(store, f"save_{kind}_bundle")(root / f"{kind}.opeb", model, digest)
        reduced = make_labeled_set(transform(model, X), labels, CLASSES,
                                   FeatProvenance(kind, digest))
        store.save_classifier_bundle(root / f"{kind}_clf.opeb", train_logreg(reduced, epochs=5))
    enet = build(HourglassSpec(hidden_dims=(16, 12), embedding_dim=8), schema)
    train_embedding(enet, X, table.children, nn.SgdConfig(epochs=1))
    encoder = cut_off(enet)
    store.save_encoder_bundle(root / "encoder.opeb", encoder, schema)
    neural = make_labeled_set(encoder(X), labels, CLASSES, FeatProvenance("neural", digest))
    store.save_classifier_bundle(root / "encoder_clf.opeb", train_logreg(neural, epochs=5))
    return root


def _predict_args(root, name, path):
    """predict's arguments that read the bundle at path in place of `name`."""
    if name == "encoder":
        bundles = ["--classifier", root / "encoder_clf.opeb", "--encoder", path]
    elif name in ("pca", "fa"):
        bundles = ["--classifier", root / f"{name}_clf.opeb", "--reducer", path]
    else:
        bundles = ["--classifier", path]
    return ["predict", "--plans", root / "plans.json", "--schema", root / "schema.opeb",
            *bundles, "--out", path.with_suffix(".csv")]


def _load(root, name, path):
    if name == "encoder":
        return store.load_featurizer(encoder=path)
    if name in ("pca", "fa"):
        return store.load_featurizer(reducer=path, schema=root / "schema.opeb")
    return store.load_classifier_bundle(path)


def _pick(rng, mask):
    """A seeded choice among the positions where mask holds."""
    return rng.choice(np.flatnonzero(mask).tolist())


def _set_header(name, value):
    def mutate(header, arrays, rng):
        header[name] = value
    return mutate


def _float_dim(header, arrays, rng):
    header["dim"] += 0.9


def _set_layer_flag(name, value):
    def mutate(header, arrays, rng):
        header["layers"][0][name] = value
    return mutate


def _set_extra(name, value):
    def mutate(header, arrays, rng):
        header["extra"][name] = value
    return mutate


def _extra_class_row(header, arrays, rng):
    # scores for a third class that classes cannot name
    row = rng.randrange(len(arrays["b"]))
    arrays["W"] = np.vstack([arrays["W"], arrays["W"][row]])
    arrays["b"] = np.append(arrays["b"], arrays["b"][row] + 1.0)


def _extra_column(header, arrays, rng):
    arrays["W"] = np.hstack([arrays["W"], arrays["W"][:, :1]])


def _reshape(name, shape):
    def mutate(header, arrays, rng):
        arrays[name] = arrays[name].reshape(shape)
    return mutate


def _truncate(name, length):
    def mutate(header, arrays, rng):
        arrays[name] = arrays[name][:length]
    return mutate


def _narrow_trunk(header, arrays, rng):
    # consistent shapes, but one input column fewer than the schema encodes
    arrays["layer0_W"] = arrays["layer0_W"][:, :-1]


def _non_finite(name, value):
    def mutate(header, arrays, rng):
        a = arrays[name]
        a[tuple(rng.randrange(n) for n in a.shape)] = value
    return mutate


def _as_int(name):
    def mutate(header, arrays, rng):
        arrays[name] = arrays[name].astype(np.int64)
    return mutate


def _class_id(value):
    def mutate(header, arrays, rng):
        arrays["y"][rng.randrange(len(arrays["y"]))] = value
    return mutate


def _knn_float_y(header, arrays, rng):
    arrays["y"] = arrays["y"] + 0.5


def _knn_short_x(header, arrays, rng):
    arrays["X"] = np.delete(arrays["X"], rng.randrange(len(arrays["X"])), axis=0)


def _rf_leaf(header, arrays, rng):
    arrays["leaf"][_pick(rng, arrays["feature"] < 0)] = len(CLASSES) + rng.randrange(50)


def _rf_feature(header, arrays, rng):
    arrays["feature"][_pick(rng, arrays["feature"] >= 0)] = header["dim"] + rng.randrange(50)


def _rf_loop(header, arrays, rng):
    at = _pick(rng, arrays["feature"] >= 0)
    arrays["left"][at] = at


def _pca_short_mean(header, arrays, rng):
    arrays["mean"] = arrays["mean"][:-1]


def _pca_long_variance(header, arrays, rng):
    arrays["explained_variance"] = np.append(arrays["explained_variance"], 0.0)


def _pca_narrow(header, arrays, rng):
    # consistent shapes, but one input column fewer than the schema encodes
    arrays["mean"] = arrays["mean"][:-1]
    arrays["components"] = arrays["components"][:, :-1]


def _fa_member(value):
    def mutate(header, arrays, rng):
        cluster = rng.choice([c for c in header["clusters"] if len(c) > 1])
        cluster[rng.randrange(len(cluster))] = value
    return mutate


def _fa_empty_cluster(header, arrays, rng):
    clusters = header["clusters"]
    i = rng.randrange(len(clusters))
    clusters[i - 1] += clusters[i]
    clusters[i] = []


def _fa_float_ids(header, arrays, rng):
    # each id stays a slot number if truncated to an int
    header["clusters"] = [[i + 0.4 for i in c] for c in header["clusters"]]


def _fa_string_dim(header, arrays, rng):
    header["dim"] = str(header["dim"])


def _fa_wide(header, arrays, rng):
    # a partition of one slot more than the schema encodes
    header["clusters"][-1].append(header["dim"])
    header["dim"] += 1


MUTATIONS = {
    "logreg": {"W-b-extra-row": _extra_class_row, "b-int": _as_int("b"),
               "dim-float": _float_dim, "classes-string": _set_header("classes", "ab"),
               "W-inf": _non_finite("W", np.inf)},
    "svm": {"W-extra-column": _extra_column, "W-int": _as_int("W")},
    "knn": {"y-class-5": _class_id(5), "y-negative": _class_id(-1), "y-float": _knn_float_y,
            "X-short": _knn_short_x, "k-zero": _set_extra("k", 0),
            "k-float": _set_extra("k", 2.5), "X-nan": _non_finite("X", np.nan)},
    "rf": {"leaf-out-of-range": _rf_leaf, "feature-out-of-range": _rf_feature,
           "child-loop": _rf_loop, "threshold-int": _as_int("threshold")},
    "dummy": {"majority-7": _set_extra("majority", 7), "majority-negative":
              _set_extra("majority", -1), "majority-float": _set_extra("majority", 1.0)},
    "pca": {"short-mean": _pca_short_mean, "long-variance": _pca_long_variance,
            "narrow": _pca_narrow, "mean-nan": _non_finite("mean", np.nan)},
    "fa": {"cluster-9999": _fa_member(9999), "cluster-negative": _fa_member(-1),
           "empty-cluster": _fa_empty_cluster, "wide": _fa_wide,
           "cluster-ids-float": _fa_float_ids, "dim-string": _fa_string_dim},
    # the trunk is 16, 12 and 8 wide, and every layer applies layer norm and ReLU
    "encoder": {"embedding-dim-7": _set_header("embedding_dim", 7),
                "embedding-dim-negative": _set_header("embedding_dim", -3),
                "pre-activation-true": _set_header("pre_activation", True),
                "relu-zero": _set_layer_flag("relu", 0),
                "relu-string": _set_layer_flag("relu", "no"),
                "b-length-1": _truncate("layer0_b", 1),
                "gain-length-1": _truncate("layer1_gain", 1),
                "b-row": _reshape("layer0_b", (1, 16)),
                "W-int": _as_int("layer0_W"),
                "W-flat": _reshape("layer2_W", -1),
                "beta-short": _truncate("layer2_beta", 7),
                "W-narrow": _narrow_trunk,
                "W-nan": _non_finite("layer0_W", np.nan)},
}
CASES = [(name, case) for name, cases in MUTATIONS.items() for case in cases]


def test_unmutated_bundles_predict(bundles):
    runner = CliRunner()
    for name in MUTATIONS:
        path = bundles / f"{name}.opeb"
        _load(bundles, name, path)
        result = runner.invoke(main, [str(a) for a in _predict_args(bundles, name, path)])
        assert result.exit_code == 0, (name, result.output)


@pytest.mark.parametrize("name, case", CASES, ids=[f"{n}-{c}" for n, c in CASES])
def test_mutated_bundle_ends_in_one_error_line(bundles, tmp_path, name, case):
    rng = random.Random(f"{name}/{case}")
    header, arrays = store.load_bundle(bundles / f"{name}.opeb")
    MUTATIONS[name][case](header, arrays, rng)
    path = tmp_path / f"{name}-{case}.opeb"
    store.save_bundle(path, header["kind"], header, arrays)

    with pytest.raises(OpembedError) as err:
        _load(bundles, name, path)
    assert str(path) in str(err.value)

    result = CliRunner().invoke(main, [str(a) for a in _predict_args(bundles, name, path)])
    assert result.exit_code == 1, result.output
    lines = result.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and str(path) in lines[0], lines
