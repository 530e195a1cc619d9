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
from .errors import BundleError
from .featurize import FeatureSchema, schema_hash
from .hourglass import DEFAULT_HIDDEN, Encoder, HourglassSpec, build, cut_off, train_embedding
from .reducers import FaModel, PcaModel, fit_fa, fit_pca, transform_fa, transform_pca

# the feature kind each model type produces; no model means raw sparse rows
_KINDS = {type(None): "sparse", Encoder: "neural", PcaModel: "pca", FaModel: "fa"}


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
            self.model.check_schema(self.schema)
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
    def narrowest(self) -> int:
        """The fewest columns of any matrix product transform computes (or,
        with none, of its output): featurize.encode_in_blocks reads it."""
        return self.model.narrowest if isinstance(self.model, Encoder) else self.dim

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
