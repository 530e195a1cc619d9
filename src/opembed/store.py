"""Single-file model store for schemas, encoders, reducers, and classifiers.

Bundle layout: 4-byte magic, little-endian u32 format version, little-endian
u64 header length, canonical JSON header (UTF-8), then the arrays packed as
little-endian 64-bit values. Headers are serialized with sorted keys and no
whitespace and arrays are laid out in sorted name order, so saving the same
object twice produces identical bytes and save->load->save round-trips.

Each bundle kind is declared once, in BUNDLES; save_model and load_model,
and the per-kind save_*/load_*_bundle shorthands for them, go through it.

Relative bundle paths resolve against the OPEMBED_STORE directory when that
environment variable is set.
"""

from __future__ import annotations

import json
import math
import os
import struct
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import nn
from .classifiers import Classifier, FeatProvenance
from .errors import BundleError, SchemaError
from .featurize import FeatureSchema, schema_from_json, schema_hash, schema_to_json
from .featurizer import Featurizer, check_schema_hash
from .hourglass import Encoder
from .reducers import FaModel, PcaModel

MAGIC = b"OPEB"
VERSION = 1


def _jsonable(obj):
    """Coerce numpy scalars/arrays nested in JSON-bound structures."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    return obj


def resolve_store_path(path) -> Path:
    p = Path(path)
    root = os.environ.get("OPEMBED_STORE")
    if root and not p.is_absolute():
        return Path(root) / p
    return p


def _array_dtype(arr: np.ndarray) -> str:
    if np.issubdtype(arr.dtype, np.floating):
        return "<f8"
    if np.issubdtype(arr.dtype, np.integer):
        return "<i8"
    raise BundleError(f"unsupported array dtype {arr.dtype}")


def save_bundle(path, kind: str, body: dict, arrays: dict[str, np.ndarray] | None = None) -> Path:
    """Write one bundle atomically; returns the resolved target path."""
    if kind not in BUNDLES:
        raise BundleError(f"unknown bundle kind {kind!r}")
    arrays = arrays or {}
    manifest = []
    blobs = []
    offset = 0
    for name in sorted(arrays):
        dtype = _array_dtype(arrays[name])
        block = np.ascontiguousarray(arrays[name], dtype=dtype).tobytes()
        manifest.append(
            {"name": name, "dtype": dtype, "shape": list(arrays[name].shape),
             "offset": offset, "nbytes": len(block)}
        )
        blobs.append(block)
        offset += len(block)
    header = dict(_jsonable(body))
    header["kind"] = kind
    header["arrays"] = manifest
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()

    target = resolve_store_path(path)
    if target.parent != Path(""):
        target.parent.mkdir(parents=True, exist_ok=True)
    tmp = target.with_name(target.name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<Q", len(header_bytes)))
        fh.write(header_bytes)
        for block in blobs:
            fh.write(block)
    os.replace(tmp, target)
    return target


# 8-byte little-endian dtypes a manifest may name; save_bundle writes only the
# signed two, and a Classifier turns unsigned ids into signed ones
_DTYPES = ("<f8", "<i8", "<u8")


def _is_count(value) -> bool:
    return type(value) is int and value >= 0


def _read_array(raw: bytes, blob_start: int, entry, target) -> tuple[str, np.ndarray]:
    """Check one manifest entry against the file, then copy its array out."""
    name, dtype, shape, offset, nbytes = (
        entry.get(key) if isinstance(entry, dict) else None
        for key in ("name", "dtype", "shape", "offset", "nbytes")
    )
    if not (isinstance(name, str) and dtype in _DTYPES and isinstance(shape, list)
            and all(map(_is_count, shape)) and _is_count(offset)
            and nbytes == 8 * math.prod(shape)):
        raise BundleError(
            f"bad array entry in {target}: {entry!r}; want a string name, a dtype in "
            f"{_DTYPES}, non-negative int shape and offset, and nbytes = 8 x shape size"
        )
    start = blob_start + offset
    if start + nbytes > len(raw):
        raise BundleError(f"truncated bundle: {target}")
    return name, np.frombuffer(raw[start:start + nbytes], dtype=dtype).reshape(shape).copy()


def load_bundle(path, expected_kind: str | None = None) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a bundle, checking its header and array manifest against the file."""
    target = resolve_store_path(path)
    try:
        raw = target.read_bytes()
    except OSError as exc:
        raise BundleError(f"cannot read bundle {target}: {exc}") from exc
    if len(raw) < 16 or raw[:4] != MAGIC:
        raise BundleError(f"not a model bundle: {target}")
    (version,) = struct.unpack_from("<I", raw, 4)
    if version != VERSION:
        raise BundleError(f"unsupported bundle version {version} (expected {VERSION})")
    (header_len,) = struct.unpack_from("<Q", raw, 8)
    blob_start = 16 + header_len
    if blob_start > len(raw):
        raise BundleError(f"truncated bundle: {target}")
    try:
        header = json.loads(raw[16:blob_start].decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise BundleError(f"corrupt bundle header in {target}: {exc}") from exc
    if not isinstance(header, dict) or not isinstance(header.get("arrays", []), list):
        raise BundleError(f"corrupt bundle header in {target}: want an object with an arrays list")
    kind = header.get("kind")
    if not (isinstance(kind, str) and kind in BUNDLES):
        raise BundleError(f"{target} has unknown bundle kind {kind!r}")
    if expected_kind is not None and kind != expected_kind:
        raise BundleError(f"expected a {expected_kind} bundle, got {kind!r}")
    arrays = dict(_read_array(raw, blob_start, e, target) for e in header.get("arrays", []))
    return header, arrays


# -- bundle kinds -------------------------------------------------------

@contextmanager
def _reading(path):
    """Raise a header key, array or embedded schema that a bundle lacks, or
    holds in a form its model refuses, as one BundleError naming the file."""
    try:
        yield
    except (KeyError, TypeError, ValueError, SchemaError) as exc:
        raise BundleError(
            f"malformed bundle {resolve_store_path(path)}: {type(exc).__name__} {exc}"
        ) from exc


def _schema_fields(schema: FeatureSchema) -> dict:
    payload = json.loads(schema_to_json(schema))
    return {"schema": payload, "schema_hash": payload["hash"]}


def _encoder_fields(encoder: Encoder, schema: FeatureSchema) -> tuple[dict, dict]:
    """The trunk's layer flags and arrays, with its schema embedded so the
    bundle can featurize raw plans on its own."""
    layers = []
    arrays: dict[str, np.ndarray] = {}
    for i, layer in enumerate(encoder.trunk.layers):
        layers.append({"layer_norm": layer.apply_layer_norm, "relu": layer.apply_relu})
        arrays.update((f"layer{i}_{name}", p) for name, p in zip(nn.PARAM_NAMES, layer.params))
    fields = _schema_fields(schema)
    check_schema_hash(encoder.schema_digest, fields["schema_hash"], "embedded schema")
    fields.update(schema_hash=encoder.schema_digest, embedding_dim=encoder.embedding_dim,
                  pre_activation=encoder.pre_activation, layers=layers)
    return fields, arrays


def _encoder(header: dict, arrays: dict) -> Encoder:
    # a layer's arrays that the bundle lacks, or holds against its flags, are
    # refused by the layer itself
    layers = [nn.DenseLayer(apply_layer_norm=spec["layer_norm"], apply_relu=spec["relu"],
                            **{name: arrays.get(f"layer{i}_{name}") for name in nn.PARAM_NAMES})
              for i, spec in enumerate(header["layers"])]
    encoder = Encoder(trunk=nn.Network(layers), schema_digest=header["schema_hash"])
    for name in ("embedding_dim", "pre_activation"):
        if header[name] != getattr(encoder, name):
            raise ValueError(f"header {name} {header[name]!r} disagrees with the trunk's "
                             f"{getattr(encoder, name)!r}")
    return encoder


def _classifier_fields(clf: Classifier) -> tuple[dict, dict]:
    """Array params become bundle arrays, int params the header's "extra"."""
    prov = None if clf.provenance is None else {"kind": clf.provenance.kind,
                                                "digest": clf.provenance.digest}
    return ({"model": clf.kind, "classes": list(clf.classes), "dim": clf.dim, "provenance": prov,
             "extra": {name: v for name, v in clf.params.items() if isinstance(v, int)}},
            {name: v for name, v in clf.params.items() if isinstance(v, np.ndarray)})


def _classifier(header: dict, arrays: dict) -> Classifier:
    prov = None
    if header.get("provenance"):
        prov = FeatProvenance(header["provenance"]["kind"], header["provenance"].get("digest"))
        if not isinstance(prov.kind, str) or not isinstance(prov.digest, (str, type(None))):
            raise TypeError("provenance kind and digest must be strings")
    params = {**arrays, **header.get("extra", {})}
    return Classifier(header["model"], header["classes"], header["dim"], params, prov)


class BundleKind(NamedTuple):
    features: str | None  # the feature kind its bundles stand for; None for a classifier
    fields: Callable      # (object, *context) -> (header fields, arrays)
    build: Callable       # (header, arrays) -> object


# each bundle kind, declared once
BUNDLES = {
    "schema": BundleKind("sparse", lambda schema: (_schema_fields(schema), {}),
                         lambda h, a: schema_from_json(json.dumps(h["schema"]))),
    "encoder": BundleKind("neural", _encoder_fields, _encoder),
    "pca": BundleKind("pca", lambda m, digest: ({"schema_hash": digest}, {
                          "mean": m.mean, "components": m.components,
                          "explained_variance": m.explained_variance}),
                      lambda h, a: PcaModel(a["mean"], a["components"], a["explained_variance"])),
    "fa": BundleKind("fa", lambda m, digest: ({"schema_hash": digest, "dim": m.dim,
                                               "clusters": [list(c) for c in m.clusters]}, {}),
                     lambda h, a: FaModel(clusters=h["clusters"], dim=h["dim"])),
    "classifier": BundleKind(None, _classifier_fields, _classifier),
}


def save_model(kind: str, path, *obj, meta: dict | None = None) -> Path:
    """Save the object of a bundle kind, given with any context its fields
    need (an encoder's schema, a reducer's schema hash)."""
    fields, arrays = BUNDLES[kind].fields(*obj)
    return save_bundle(path, kind, {**fields, "meta": meta or {}}, arrays)


def load_model(kind: str, path) -> tuple:
    """The object a bundle of the given kind holds, and its header."""
    header, arrays = load_bundle(path, kind)
    with _reading(path):
        return BUNDLES[kind].build(header, arrays), header


def save_schema_bundle(path, schema: FeatureSchema, meta: dict | None = None) -> Path:
    return save_model("schema", path, schema, meta=meta)


def load_schema_bundle(path) -> tuple[FeatureSchema, dict]:
    return load_model("schema", path)


def save_encoder_bundle(path, encoder: Encoder, schema: FeatureSchema,
                        meta: dict | None = None) -> Path:
    return save_model("encoder", path, encoder, schema, meta=meta)


def load_encoder_bundle(path) -> tuple[Encoder, dict]:
    return load_model("encoder", path)


def save_pca_bundle(path, model: PcaModel, schema_hash: str, meta: dict | None = None) -> Path:
    return save_model("pca", path, model, schema_hash, meta=meta)


def load_pca_bundle(path) -> tuple[PcaModel, dict]:
    return load_model("pca", path)


def save_fa_bundle(path, model: FaModel, schema_hash: str, meta: dict | None = None) -> Path:
    return save_model("fa", path, model, schema_hash, meta=meta)


def load_fa_bundle(path) -> tuple[FaModel, dict]:
    return load_model("fa", path)


def save_classifier_bundle(path, clf: Classifier, meta: dict | None = None) -> Path:
    return save_model("classifier", path, clf, meta=meta)


def load_classifier_bundle(path) -> tuple[Classifier, dict]:
    return load_model("classifier", path)


# -- featurizers --------------------------------------------------------

def bundle_schema(path, header: dict) -> FeatureSchema:
    """Rebuild the schema embedded in the header of the encoder bundle at path."""
    if "schema" not in header:
        raise BundleError(f"{path} carries no schema; re-create it with train-embedding")
    with _reading(path):
        return BUNDLES["schema"].build(header, {})


def bundle_provenance(path, header: dict | None = None) -> FeatProvenance:
    """The feature kind and schema hash a schema, encoder or reducer bundle
    stands for, as a classifier trained on its features records them. The
    bundle is read unless its header is given."""
    header = header or load_bundle(path)[0]
    kind = BUNDLES[header["kind"]].features
    if kind is None or not isinstance(header.get("schema_hash"), str):
        raise BundleError(f"{path} is a {header['kind']} bundle without a schema hash; "
                          "it cannot stand for a featurization")
    return FeatProvenance(kind, header["schema_hash"])


def load_featurizer(encoder=None, reducer=None, schema=None) -> Featurizer:
    """The featurizer named by bundle paths: an encoder bundle with its
    embedded schema, a pca/fa reducer plus the schema bundle it was fit
    against, or a schema bundle alone for raw sparse rows."""
    if encoder and reducer:
        raise ValueError("pass either --encoder or --reducer, not both")
    if encoder:
        model, header = load_encoder_bundle(encoder)
        with _reading(encoder):
            return Featurizer(bundle_schema(encoder, header), model)
    if reducer and not schema:
        raise ValueError("--reducer needs --schema to build sparse vectors")
    if not schema:
        raise ValueError("pass one of --encoder, --reducer + --schema, or --schema")
    sparse, _ = load_schema_bundle(schema)
    if not reducer:
        return Featurizer(sparse)
    header, arrays = load_bundle(reducer)  # read once: its kind picks the model
    prov = bundle_provenance(reducer, header)
    if prov.kind not in ("pca", "fa"):
        raise BundleError(f"{reducer} holds {prov.kind} features, not a pca or fa reducer")
    check_schema_hash(prov.digest, schema_hash(sparse), "reducer vs schema")
    with _reading(reducer):
        return Featurizer(sparse, BUNDLES[header["kind"]].build(header, arrays))
