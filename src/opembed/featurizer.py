"""One featurization: the schema that encodes operators, plus the model, if
any, that maps the sparse rows into a classifier's feature space.

Evaluation fits featurizers and the store loads them from bundles; predict
and flag_query ask theirs to accept a classifier before feeding it rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .classifiers import Classifier, FeatProvenance
from .errors import BundleError, SchemaError
from .featurize import FeatureSchema, encode_rows, schema_hash
from .hourglass import DEFAULT_HIDDEN, Encoder, HourglassSpec, build, cut_off, train_embedding
from .plans import PlanNode
from .reducers import FaModel, PcaModel, fit_fa, fit_pca, transform_fa, transform_pca

# the feature kind each model type produces; no model means raw sparse rows
_KINDS = {type(None): "sparse", Encoder: "neural", PcaModel: "pca", FaModel: "fa"}

# rows Featurizer.features encodes and transforms at once: at least this many
READ_BLOCK_ROWS = 256
# the narrowest matrix product Featurizer.features splits into blocks.
# OpenBLAS 0.3.31 (Haswell kernels, 1 or 2 threads) computes an M x N product
# over 32 or more inputs with M * N <= 1200 by another kernel than a larger
# one, which changes the last bits of its rows; a block of READ_BLOCK_ROWS
# rows is past that size only when N >= 5
MIN_BLOCKED_WIDTH = 5


def check_schema_hash(expected: str, found: str, context: str) -> None:
    """Refuse mismatched schema lineages with both hash prefixes visible."""
    if expected != found:
        raise BundleError(
            f"schema hash mismatch for {context}: "
            f"expected {expected[:12]}, found {found[:12]}"
        )


@dataclass(frozen=True)
class Featurizer:
    """A schema and an Encoder, PcaModel, FaModel or None (sparse)."""

    schema: FeatureSchema
    model: Encoder | PcaModel | FaModel | None = None

    def __post_init__(self):
        if type(self.model) not in _KINDS:
            raise TypeError(
                f"cannot featurize with a {type(self.model).__name__}; "
                "want an Encoder, PcaModel, FaModel or None"
            )
        if isinstance(self.model, Encoder):
            digest, trained = schema_hash(self.schema), self.model.schema_digest
            if digest != trained:
                raise SchemaError(f"encoder was trained against schema {trained[:12]}..., "
                                  f"got {digest[:12]}...")
        if self.model is not None:
            width = (self.model.trunk.in_dim if isinstance(self.model, Encoder)
                     else len(self.model.mean) if isinstance(self.model, PcaModel)
                     else self.model.dim)
            if width != self.schema.total_dim:
                raise ValueError(f"{self.kind} model reads {width} columns but the schema "
                                 f"encodes {self.schema.total_dim}")

    @property
    def kind(self) -> str:
        return _KINDS[type(self.model)]

    @property
    def dim(self) -> int:
        if isinstance(self.model, Encoder):
            return self.model.embedding_dim
        if isinstance(self.model, PcaModel):
            return len(self.model.components)
        if isinstance(self.model, FaModel):
            return self.model.k
        return self.schema.total_dim

    @property
    def provenance(self) -> FeatProvenance:
        return FeatProvenance(self.kind, schema_hash(self.schema))

    def transform(self, X: np.ndarray) -> np.ndarray:
        """Map encoded rows (n, schema.total_dim) to features (n, dim)."""
        if isinstance(self.model, Encoder):
            return self.model(X)
        if isinstance(self.model, PcaModel):
            return transform_pca(self.model, X)
        if isinstance(self.model, FaModel):
            return transform_fa(self.model, X)
        return X

    def features(self, nodes: list[PlanNode]) -> np.ndarray:
        """The read path: ``transform(encode_rows(schema, nodes))`` bit for bit,
        holding the encodings of one block of at least READ_BLOCK_ROWS rows at
        a time; see MIN_BLOCKED_WIDTH for the models that take one block."""
        if not nodes:
            raise ValueError("corpus has no operators to encode")
        count = len(nodes) // READ_BLOCK_ROWS
        # the narrowest matrix product: a trunk's narrowest layer, else the output
        layers = self.model.trunk.layers if isinstance(self.model, Encoder) else ()
        if count < 2 or min((l.out_dim for l in layers), default=self.dim) < MIN_BLOCKED_WIDTH:
            return self.transform(encode_rows(self.schema, nodes))
        out = np.empty((len(nodes), self.dim))
        for rows in np.array_split(np.arange(len(nodes)), count):
            lo, hi = int(rows[0]), int(rows[-1]) + 1
            out[lo:hi] = self.transform(encode_rows(self.schema, nodes[lo:hi]))
        return out

    def accept(self, clf: Classifier) -> None:
        """Refuse a classifier trained on features of another kind, schema or
        width. One trained without a provenance digest is checked on width
        only."""
        prov = clf.provenance
        if prov is not None and prov.digest:
            if prov.kind != self.kind:
                raise ValueError(f"classifier was trained on {prov.kind} features, not {self.kind}")
            check_schema_hash(prov.digest, schema_hash(self.schema), "classifier provenance")
        if self.dim != clf.dim:
            raise ValueError(f"features have dim {self.dim} but classifier wants {clf.dim}")


def parse_featurization(name: str) -> tuple[str, int | None]:
    """"sparse" or "<kind>-<dim>" with kind in {neural, pca, fa}."""
    if name == "sparse":
        return "sparse", None
    if "-" in name:
        kind, _, dim = name.partition("-")
        if kind in ("neural", "pca", "fa") and dim.isdigit() and int(dim) > 0:
            return kind, int(dim)
    raise ValueError(
        f"bad featurization {name!r}; want sparse, neural-<k>, pca-<k>, or fa-<k>"
    )


def fit_featurization(
    name: str,
    schema: FeatureSchema,
    X_train: np.ndarray,
    children: np.ndarray | None = None,
    sgd: nn.SgdConfig | None = None,
    hidden_dims: tuple[int, ...] = DEFAULT_HIDDEN,
    seed: int = 0,
) -> Featurizer:
    """Fit one featurization on train-side data. neural-<k> needs the child
    rows of X_train (an OperatorTable's children) to train on."""
    kind, dim = parse_featurization(name)
    if kind == "sparse":
        return Featurizer(schema)
    if kind == "neural":
        if children is None:
            raise ValueError("neural featurization needs training triples")
        enet = build(HourglassSpec(hidden_dims, dim, seed), schema)
        train_embedding(enet, X_train, children, sgd or nn.SgdConfig())
        return Featurizer(schema, cut_off(enet))
    if kind == "pca":
        return Featurizer(schema, fit_pca(X_train, dim))
    return Featurizer(schema, fit_fa(X_train, dim))
