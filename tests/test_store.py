import json
import re
import struct
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from opembed import nn
from opembed.classifiers import (
    FOREST_ARRAYS,
    MODELS,
    FeatProvenance,
    make_labeled_set,
    predict_scores,
    train_dummy,
    train_knn,
    train_logreg,
    train_rf,
    train_sets,
)
from opembed.errors import BundleError
from opembed.featurize import build_schema, encode_corpus, schema_hash
from opembed.hourglass import HourglassSpec, build, cut_off
from opembed.reducers import fit_fa, fit_pca, transform_fa, transform_pca
from opembed.store import (
    MAGIC,
    check_schema_hash,
    bundle_schema,
    load_bundle,
    load_classifier_bundle,
    load_encoder_bundle,
    load_fa_bundle,
    load_featurizer,
    load_pca_bundle,
    load_schema_bundle,
    resolve_store_path,
    save_bundle,
    save_classifier_bundle,
    save_encoder_bundle,
    save_fa_bundle,
    save_pca_bundle,
    save_schema_bundle,
)


@pytest.fixture
def toy_set(rng):
    X = rng.normal(size=(30, 4))
    labels = ["a" if v > 0 else "b" for v in X[:, 0]]
    return make_labeled_set(X, labels, classes=("a", "b"))


def test_raw_bundle_round_trip(tmp_path, rng):
    path = tmp_path / "raw.opeb"
    arrays = {"m": rng.normal(size=(3, 4)), "v": np.arange(5)}
    save_bundle(path, "pca", {"meta": {"note": "x"}}, arrays)
    header, loaded = load_bundle(path)
    assert header["kind"] == "pca"
    assert header["meta"] == {"note": "x"}
    assert np.array_equal(loaded["m"], arrays["m"])
    assert np.array_equal(loaded["v"], arrays["v"])
    assert loaded["v"].dtype == np.dtype("<i8")


def test_save_is_byte_deterministic(tmp_path, rng):
    arrays = {"b": rng.normal(size=4), "a": rng.normal(size=(2, 2))}
    p1, p2 = tmp_path / "one.opeb", tmp_path / "two.opeb"
    save_bundle(p1, "pca", {"x": 1}, arrays)
    save_bundle(p2, "pca", {"x": 1}, dict(reversed(list(arrays.items()))))
    assert p1.read_bytes() == p2.read_bytes()


def test_save_rejects_bad_kind_and_dtype(tmp_path):
    with pytest.raises(BundleError, match="kind"):
        save_bundle(tmp_path / "x.opeb", "weights", {})
    with pytest.raises(BundleError, match="dtype"):
        save_bundle(
            tmp_path / "y.opeb", "pca", {}, {"c": np.array([1 + 2j, 3 + 4j])}
        )


def test_load_rejects_magic_version_kind_truncation(tmp_path, rng):
    path = tmp_path / "b.opeb"
    save_bundle(path, "pca", {"x": 1}, {"m": rng.normal(size=8)})
    raw = path.read_bytes()

    bad_magic = tmp_path / "bad_magic.opeb"
    bad_magic.write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(BundleError, match="not a model bundle"):
        load_bundle(bad_magic)

    bad_version = tmp_path / "bad_version.opeb"
    bad_version.write_bytes(MAGIC + struct.pack("<I", 9) + raw[8:])
    with pytest.raises(BundleError, match="version"):
        load_bundle(bad_version)

    with pytest.raises(BundleError, match="expected a fa bundle"):
        load_bundle(path, "fa")

    truncated = tmp_path / "trunc.opeb"
    truncated.write_bytes(raw[:-8])
    with pytest.raises(BundleError, match="truncated"):
        load_bundle(truncated)

    (header_len,) = struct.unpack_from("<Q", raw, 8)
    garbled = tmp_path / "garbled.opeb"
    garbled.write_bytes(raw[:16] + b"{" * header_len + raw[16 + header_len:])
    with pytest.raises(BundleError, match="corrupt"):
        load_bundle(garbled)

    with pytest.raises(BundleError, match="cannot read"):
        load_bundle(tmp_path / "missing.opeb")


def _edit_header(path, edit):
    raw = path.read_bytes()
    (n,) = struct.unpack_from("<Q", raw, 8)
    header = json.loads(raw[16:16 + n])
    edit(header)
    text = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    path.write_bytes(raw[:8] + struct.pack("<Q", len(text)) + text + raw[16 + n:])


def _set_w(key, value):
    # arrays are stored in sorted name order, so entry 0 is the weight matrix W
    def edit(header):
        assert header["arrays"][0]["name"] == "W"
        header["arrays"][0][key] = value
    return edit


@pytest.mark.parametrize(
    "edit, match",
    [
        (_set_w("offset", -8), "'offset': -8"),
        (_set_w("shape", [3, 5]), "'shape': [3, 5]"),
        (_set_w("shape", [2.0, 4]), "'shape': [2.0, 4]"),
        (_set_w("dtype", "|O"), "'dtype': '|O'"),
        (_set_w("name", 5), "'name': 5"),
        (lambda h: h.update(arrays={"W": h["arrays"][0]}), "arrays list"),
        (lambda h: h.pop("kind"), "unknown bundle kind None"),
        (lambda h: h.pop("dim"), "KeyError 'dim'"),
        (lambda h: h.update(classes=3), "TypeError"),
    ],
    ids=["negative-offset", "wrong-shape", "float-shape", "object-dtype",
         "int-name", "arrays-dict", "no-kind", "no-dim", "int-classes"],
)
def test_classifier_bundle_with_bad_header_is_refused(tmp_path, toy_set, edit, match):
    path = tmp_path / "clf.opeb"
    save_classifier_bundle(path, train_logreg(toy_set, seed=0))
    _edit_header(path, edit)
    with pytest.raises(BundleError, match=re.escape(match)) as info:
        load_classifier_bundle(path)
    assert str(path) in str(info.value)


def test_header_running_past_the_file_is_truncation(tmp_path, rng):
    path = tmp_path / "b.opeb"
    save_bundle(path, "pca", {"x": 1}, {"m": rng.normal(size=8)})
    raw = path.read_bytes()
    path.write_bytes(raw[:8] + struct.pack("<Q", len(raw)) + raw[16:])
    with pytest.raises(BundleError, match="truncated") as info:
        load_bundle(path)
    assert str(path) in str(info.value)


def test_check_schema_hash_message():
    check_schema_hash("abc", "abc", "anything")
    with pytest.raises(BundleError) as err:
        check_schema_hash("a" * 40, "b" * 40, "classifier provenance")
    msg = str(err.value)
    assert "classifier provenance" in msg
    assert "a" * 12 in msg and "b" * 12 in msg
    assert "a" * 13 not in msg


def test_resolve_store_path_env(tmp_path, monkeypatch):
    monkeypatch.delenv("OPEMBED_STORE", raising=False)
    assert resolve_store_path("models/enc.opeb") == resolve_store_path("models/enc.opeb")
    monkeypatch.setenv("OPEMBED_STORE", str(tmp_path / "store"))
    resolved = resolve_store_path("enc.opeb")
    assert resolved == tmp_path / "store" / "enc.opeb"
    absolute = tmp_path / "abs.opeb"
    assert resolve_store_path(absolute) == absolute


def test_store_env_round_trip(tmp_path, monkeypatch, corpus60, schema60):
    monkeypatch.setenv("OPEMBED_STORE", str(tmp_path / "store"))
    save_schema_bundle("schema.opeb", schema60)
    schema, header = load_schema_bundle("schema.opeb")
    assert (tmp_path / "store" / "schema.opeb").exists()
    assert schema_hash(schema) == schema_hash(schema60)
    assert header["schema_hash"] == schema_hash(schema60)


def test_schema_bundle_round_trip(tmp_path, schema60, corpus60, rng):
    from opembed.featurize import encode
    from opembed.plans import walk_operators

    path = tmp_path / "schema.opeb"
    save_schema_bundle(path, schema60, meta={"source": "test"})
    schema, header = load_schema_bundle(path)
    assert header["meta"] == {"source": "test"}
    node = next(walk_operators(corpus60)).node
    assert np.array_equal(encode(schema, node), encode(schema60, node))


def test_encoder_bundle_round_trip(tmp_path, schema60, rng):
    enet = build(
        HourglassSpec(hidden_dims=(32, 16), embedding_dim=8),
        schema60,
    )
    encoder = cut_off(enet)
    path = tmp_path / "enc.opeb"
    save_encoder_bundle(path, encoder, schema=schema60, meta={"epochs": 0})
    loaded, header = load_encoder_bundle(path)
    X = rng.normal(size=(20, schema60.total_dim))
    assert np.array_equal(loaded(X), encoder(X))
    assert loaded.embedding_dim == 8
    assert loaded.schema_digest == encoder.schema_digest
    assert schema_hash(bundle_schema(path, header)) == schema_hash(schema60)
    assert header["meta"] == {"epochs": 0}

    # an encoder bundle without its schema cannot featurize plans
    bare = tmp_path / "bare.opeb"
    bare.write_bytes(path.read_bytes())
    _edit_header(bare, lambda h: h.pop("schema"))
    _, bare_header = load_encoder_bundle(bare)
    with pytest.raises(BundleError, match="carries no schema"):
        bundle_schema(bare, bare_header)
    with pytest.raises(BundleError, match="carries no schema"):
        load_featurizer(encoder=bare)


def test_encoder_bundle_pre_activation_round_trip(tmp_path, schema60, rng):
    enet = build(
        HourglassSpec(hidden_dims=(32, 16), embedding_dim=8),
        schema60,
    )
    encoder = cut_off(enet, pre_activation=True)
    path = tmp_path / "pre.opeb"
    save_encoder_bundle(path, encoder, schema60)
    loaded, _ = load_encoder_bundle(path)
    assert loaded.pre_activation
    X = rng.normal(size=(10, schema60.total_dim))
    assert np.array_equal(loaded(X), encoder(X))


def test_encoder_bundle_rejects_wrong_schema(tmp_path, schema60):
    from opembed.synth import SynthConfig, generate

    other = build_schema(generate(SynthConfig(n_queries=25, seed=99)))
    enet = build(
        HourglassSpec(hidden_dims=(32, 16), embedding_dim=8),
        schema60,
    )
    encoder = cut_off(enet)
    with pytest.raises(BundleError, match="mismatch"):
        save_encoder_bundle(tmp_path / "bad.opeb", encoder, schema=other)


def test_pca_bundle_round_trip(tmp_path, rng):
    X = rng.normal(size=(40, 6))
    model = fit_pca(X, 3)
    path = tmp_path / "pca.opeb"
    save_pca_bundle(path, model, "deadbeef")
    loaded, header = load_pca_bundle(path)
    assert header["schema_hash"] == "deadbeef"
    probe = rng.normal(size=6)
    assert np.array_equal(transform_pca(loaded, probe), transform_pca(model, probe))
    assert np.array_equal(loaded.explained_variance, model.explained_variance)


def test_fa_bundle_round_trip(tmp_path, rng):
    X = rng.normal(size=(30, 7))
    model = fit_fa(X, 3)
    path = tmp_path / "fa.opeb"
    save_fa_bundle(path, model, "cafe")
    loaded, header = load_fa_bundle(path)
    assert loaded.clusters == model.clusters
    assert loaded.dim == model.dim
    probe = rng.normal(size=7)
    assert np.array_equal(transform_fa(loaded, probe), transform_fa(model, probe))


@pytest.mark.parametrize("kind", ["pca", "fa"])
def test_load_featurizer_reads_each_bundle_once(tmp_path, monkeypatch, corpus60, schema60, kind):
    X = encode_corpus(schema60, corpus60).X
    model = fit_pca(X, 4) if kind == "pca" else fit_fa(X, 4)
    save = save_pca_bundle if kind == "pca" else save_fa_bundle
    save(tmp_path / "reducer.opeb", model, schema_hash(schema60))
    save_schema_bundle(tmp_path / "schema.opeb", schema60)
    reads, read_bytes = Counter(), Path.read_bytes
    monkeypatch.setattr(Path, "read_bytes", lambda p: reads.update([p.name]) or read_bytes(p))
    feat = load_featurizer(reducer=tmp_path / "reducer.opeb", schema=tmp_path / "schema.opeb")
    assert reads == {"reducer.opeb": 1, "schema.opeb": 1}
    assert feat.kind == kind and feat.transform(X).tobytes() == (
        transform_pca(model, X) if kind == "pca" else transform_fa(model, X)).tobytes()


@pytest.mark.parametrize("case", ["schema", "encoder", "encoder-pre", "pca", "fa", *MODELS])
def test_every_bundle_kind_saves_the_bytes_it_loads(tmp_path, corpus60, schema60, toy_set, case):
    """save -> load -> save, the second save taking its context (an encoder's
    schema, a reducer's schema hash) from what the first one wrote."""
    X, digest = encode_corpus(schema60, corpus60).X, schema_hash(schema60)
    if case == "schema":
        save, load, obj, context = save_schema_bundle, load_schema_bundle, schema60, ()
    elif case.startswith("encoder"):
        enet = build(HourglassSpec(hidden_dims=(32, 16), embedding_dim=8), schema60)
        obj = cut_off(enet, pre_activation=case == "encoder-pre")
        save, load, context = save_encoder_bundle, load_encoder_bundle, (schema60,)
    elif case == "pca":
        save, load, obj, context = save_pca_bundle, load_pca_bundle, fit_pca(X, 4), (digest,)
    elif case == "fa":
        save, load, obj, context = save_fa_bundle, load_fa_bundle, fit_fa(X, 4), (digest,)
    else:
        tagged = make_labeled_set(toy_set.X, [toy_set.classes[i] for i in toy_set.y],
                                  toy_set.classes, FeatProvenance("neural", "f00d"))
        save, load, context = save_classifier_bundle, load_classifier_bundle, ()
        obj = train_sets(case, [tagged], seed=3)[0]
    first, second = tmp_path / "first.opeb", tmp_path / "second.opeb"
    save(first, obj, *context, meta={"case": case})
    loaded, header = load(first)
    if case.startswith("encoder"):
        context = (bundle_schema(first, header),)
    elif case in ("pca", "fa"):
        context = (header["schema_hash"],)
    save(second, loaded, *context, meta=header["meta"])
    assert second.read_bytes() == first.read_bytes()


def test_classifier_bundles_round_trip_all_kinds(tmp_path, toy_set, rng):
    probe = rng.normal(size=(12, 4))
    trainers = {
        "logreg": lambda: train_logreg(toy_set, epochs=5),
        "knn": lambda: train_knn(toy_set, k=3),
        "rf": lambda: train_rf(toy_set, trees=5, seed=1),
        "dummy": lambda: train_dummy(toy_set),
    }
    for name, trainer in trainers.items():
        clf = trainer()
        path = tmp_path / f"{name}.opeb"
        save_classifier_bundle(path, clf)
        loaded, header = load_classifier_bundle(path)
        assert header["model"] == clf.kind
        assert loaded.classes == clf.classes
        assert loaded.dim == clf.dim
        assert np.array_equal(predict_scores(loaded, probe), predict_scores(clf, probe))


def test_classifier_bundle_keeps_provenance(tmp_path, toy_set):
    tagged = make_labeled_set(
        toy_set.X,
        [toy_set.classes[i] for i in toy_set.y],
        toy_set.classes,
        FeatProvenance("neural", "f00d"),
    )
    clf = train_logreg(tagged, epochs=2)
    path = tmp_path / "prov.opeb"
    save_classifier_bundle(path, clf)
    loaded, header = load_classifier_bundle(path)
    assert loaded.provenance == FeatProvenance("neural", "f00d")
    assert header["provenance"] == {"kind": "neural", "digest": "f00d"}


def test_classifier_bundle_bytes_stable(tmp_path, toy_set):
    clf = train_logreg(toy_set, epochs=5, seed=2)
    p1, p2 = tmp_path / "c1.opeb", tmp_path / "c2.opeb"
    save_classifier_bundle(p1, clf)
    save_classifier_bundle(p2, clf)
    assert p1.read_bytes() == p2.read_bytes()
    # save -> load -> save is also byte-stable
    loaded, _ = load_classifier_bundle(p1)
    p3 = tmp_path / "c3.opeb"
    save_classifier_bundle(p3, loaded)
    assert p3.read_bytes() == p1.read_bytes()


def test_rf_bundle_stores_forest_arrays(tmp_path, toy_set):
    clf = train_rf(toy_set, trees=4, seed=2)
    path = tmp_path / "rf.opeb"
    save_classifier_bundle(path, clf)
    header, arrays = load_bundle(path)
    assert header["extra"] == {}
    assert sorted(arrays) == sorted(FOREST_ARRAYS)
    loaded, _ = load_classifier_bundle(path)
    for name in FOREST_ARRAYS:
        assert np.array_equal(loaded.params[name], clf.params[name])
    assert len(loaded.params["roots"]) == 4
    again = tmp_path / "rf2.opeb"
    save_classifier_bundle(again, loaded)
    assert again.read_bytes() == path.read_bytes()


def _resave_forest(tmp_path, toy_set, corrupt):
    path = tmp_path / "rf.opeb"
    save_classifier_bundle(path, train_rf(toy_set, trees=3, seed=1))
    header, arrays = load_bundle(path)
    corrupt(arrays)
    save_bundle(path, "classifier", header, arrays)
    return path


def _set(name, index, value):
    def corrupt(arrays):
        arrays[name][index] = value
    return corrupt


@pytest.mark.parametrize(
    "corrupt",
    [
        _set("left", 0, 0),        # root is its own child: routing would never end
        _set("right", 0, -1),
        _set("feature", 0, 4),     # toy_set has dim 4
        _set("feature", 0, -2),
        _set("leaf", -1, 2),       # two classes
        _set("roots", 1, 10**6),
        _set("roots", 0, 1),
        lambda arrays: arrays.update(threshold=arrays["threshold"][:-1]),
        lambda arrays: arrays.update(feature=arrays["feature"].astype(np.float64)),
        lambda arrays: arrays.pop("roots"),
    ],
    ids=["root-own-child", "negative-child", "feature-too-big", "feature-negative", "leaf-class",
         "root-out-of-range", "first-root", "short-threshold",
         "float-feature", "no-roots"],
)
def test_rf_bundle_rejects_malformed_forest(tmp_path, toy_set, corrupt):
    path = _resave_forest(tmp_path, toy_set, corrupt)
    with pytest.raises(BundleError, match="malformed random forest") as info:
        load_classifier_bundle(path)
    assert str(path) in str(info.value)


def test_rf_bundle_rejects_unsigned_roots_out_of_order(tmp_path, toy_set):
    # save_bundle writes signed ids, so relabel the roots entry as <u8 by
    # hand: an unsigned diff of [0, 10**6, 3] wraps and reads as increasing
    path = _resave_forest(tmp_path, toy_set, _set("roots", 1, 10**6))
    raw = path.read_bytes()
    entry = b'"dtype":"<i8","name":"roots"'
    assert raw.count(entry) == 1
    path.write_bytes(raw.replace(entry, entry.replace(b"<i8", b"<u8")))
    assert load_bundle(path)[1]["roots"].dtype == np.uint64
    with pytest.raises(BundleError, match="roots must start at 0") as info:
        load_classifier_bundle(path)
    assert str(path) in str(info.value)


def test_rf_bundle_rejects_child_in_next_tree(tmp_path, toy_set):
    def corrupt(arrays):
        inner = np.nonzero(arrays["feature"][: arrays["roots"][1]] >= 0)[0]
        arrays["right"][inner[-1]] = arrays["roots"][1]
    path = _resave_forest(tmp_path, toy_set, corrupt)
    with pytest.raises(BundleError, match="same tree"):
        load_classifier_bundle(path)


def test_rf_bundle_in_nested_dict_format_is_refused(tmp_path):
    path = tmp_path / "old.opeb"
    body = {
        "model": "rf", "classes": ["a", "b"], "dim": 1, "provenance": None, "meta": {},
        "extra": {"trees": [{"f": 0, "t": 0.5, "lo": {"leaf": 0}, "hi": {"leaf": 1}}]},
    }
    save_bundle(path, "classifier", body)
    with pytest.raises(BundleError, match="retrain") as info:
        load_classifier_bundle(path)
    assert str(path) in str(info.value)
