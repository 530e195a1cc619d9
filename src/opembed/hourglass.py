"""Hourglass embedding network: a trunk that narrows to the embedding layer
plus two single-affine prediction heads, one per child.

Training minimizes head1 loss against child 1 plus head2 loss against
child 2, with missing children as zero vectors (default) or skipped rows
(masked mode). After training the heads are cut off and the trunk is the
operator encoder; the published embedding is the post-LN/ReLU activation
of the embedding layer (a pre-activation variant is available).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import nn
from .errors import SchemaError
from .featurize import FeatureSchema, corpus_operators, encode_in_blocks, schema_hash
from .plans import Corpus

DEFAULT_HIDDEN = (256, 256, 128, 128, 64, 64)


@dataclass(frozen=True)
class HourglassSpec:
    hidden_dims: tuple[int, ...] = DEFAULT_HIDDEN
    embedding_dim: int = 32
    seed: int = 0

    def __post_init__(self):
        if self.embedding_dim <= 0:
            raise ValueError("dimensions must be positive")
        if any(d <= 0 for d in self.hidden_dims):
            raise ValueError("hidden dims must be positive")
        if self.hidden_dims and self.embedding_dim >= min(self.hidden_dims):
            raise ValueError(
                f"embedding_dim {self.embedding_dim} must be smaller than the "
                f"narrowest hidden layer ({min(self.hidden_dims)})"
            )


@dataclass
class EmbeddingNetwork:
    trunk: nn.Network       # input -> ... -> embedding, LN+ReLU throughout
    head1: nn.Network       # embedding -> schema width, plain affine
    head2: nn.Network
    loss_spec: nn.LossSpec
    schema_digest: str
    spec: HourglassSpec


def build(spec: HourglassSpec, schema: FeatureSchema) -> EmbeddingNetwork:
    """Assemble the trunk and both heads with seeded He initialization; the
    trunk reads, and each head predicts, schema.total_dim columns."""
    dims = [schema.total_dim, *spec.hidden_dims, spec.embedding_dim]
    layers = []
    for i, (din, dout) in enumerate(zip(dims, dims[1:])):
        rng = np.random.default_rng([spec.seed, 101, i])
        layers.append(nn.dense_layer(rng, din, dout, layer_norm=True, relu=True))
    heads = []
    for h in range(2):
        rng = np.random.default_rng([spec.seed, 202, h])
        heads.append(
            nn.Network([nn.dense_layer(rng, spec.embedding_dim, schema.total_dim)])
        )
    return EmbeddingNetwork(
        trunk=nn.Network(layers),
        head1=heads[0],
        head2=heads[1],
        loss_spec=nn.LossSpec(schema.segments()),
        schema_digest=schema_hash(schema),
        spec=spec,
    )


def train_embedding(
    enet: EmbeddingNetwork,
    X: np.ndarray,
    children: np.ndarray,
    cfg: nn.SgdConfig,
    masked: bool = False,
) -> tuple[EmbeddingNetwork, list[float]]:
    """Train trunk and heads jointly to predict both children; returns the
    network and the mean batch loss per epoch.

    Rows 0..len(children)-1 of X are trained; children[r, k] is the row of
    X holding operator r's k-th child, or -1 when it has none.
    """
    if len(children) == 0:
        raise ValueError("no training triples")
    if X.shape[1] != enet.trunk.in_dim:
        raise ValueError(f"triples have dim {X.shape[1]}, network wants {enet.trunk.in_dim}")
    # row -1 of Xz is the zero vector an absent child is scored against
    Xz = np.vstack([X, np.zeros((1, X.shape[1]))])
    present = children >= 0
    heads = (enet.head1, enet.head2)

    def step(batches):
        (idx,) = batches
        n = len(idx)
        trunk_trace = nn.forward(enet.trunk, X[idx])
        E = trunk_trace.activations[-1]
        traces = [nn.forward(head, E) for head in heads]
        # masked mode leaves a head's rows whose child is absent out of its
        # loss, which keeps whole-batch mean semantics
        keep = present[idx].T if masked else np.ones((2, n), dtype=bool)
        # both heads' rows in one loss-and-gradient pass: each row's values
        # do not depend on which rows share the pass
        per_row, grad = nn._segment_pass(
            enet.loss_spec,
            np.vstack([tr.activations[-1][k] for tr, k in zip(traces, keep)]),
            Xz[children[idx].T[keep]],
        )
        total, grads, dEs, lo = 0.0, [], [], 0
        for head, tr, k in zip(heads, traces, keep):
            m = int(k.sum())
            if m == 0:
                grads.append([tuple(map(np.zeros_like, l.params)) for l in head.layers])
                dEs.append(np.zeros_like(E))
                continue
            # m / n is exactly 1.0 unless masked mode dropped rows, which get
            # no gradient
            total += float(per_row[lo : lo + m].mean()) * (m / n)
            dout = np.zeros_like(tr.activations[-1])
            dout[k] = grad[lo : lo + m] / m * (m / n)
            lo += m
            g, dE = nn.backprop_layers(head, tr, dout)
            grads.append(g)
            dEs.append(dE)
        gt, _ = nn.backprop_layers(enet.trunk, trunk_trace, dEs[0] + dEs[1], input_grad=False)
        return [total], [gt, *grads]

    return enet, nn.train([enet.trunk, *heads], cfg, [len(children)], step)[0]


def predict_children(
    enet: EmbeddingNetwork, x: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Decoded head outputs (softmax groups normalized, booleans sigmoided)."""
    E = nn.predict(enet.trunk, x)
    y1 = nn.predict(enet.head1, E)
    y2 = nn.predict(enet.head2, E)
    return (
        nn.decode_probabilities(enet.loss_spec, y1),
        nn.decode_probabilities(enet.loss_spec, y2),
    )


@dataclass
class Encoder:
    """The trained trunk, detached from the prediction heads."""

    trunk: nn.Network
    schema_digest: str

    @property
    def embedding_dim(self) -> int:
        return self.trunk.out_dim

    @property
    def narrowest(self) -> int:
        """The fewest columns any trunk layer yields."""
        return min(layer.out_dim for layer in self.trunk.layers)

    @property
    def pre_activation(self) -> bool:
        """Whether the embedding is the raw affine output: the last layer
        applies neither layer norm nor ReLU."""
        last = self.trunk.layers[-1]
        return not (last.apply_layer_norm or last.apply_relu)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return nn.predict(self.trunk, x)

    def check_schema(self, schema: FeatureSchema) -> None:
        """Refuse a schema other than the one the trunk was trained against."""
        digest = schema_hash(schema)
        if digest != self.schema_digest:
            raise SchemaError(
                f"encoder was trained against schema {self.schema_digest[:12]}..., "
                f"got {digest[:12]}..."
            )


def cut_off(enet: EmbeddingNetwork, pre_activation: bool = False) -> Encoder:
    """Drop the heads; copy the trunk so later training cannot leak in.

    With pre_activation the embedding layer's LN and ReLU are stripped and
    the raw affine output is the embedding.
    """
    layers = [replace(l, **{name: p.copy() for name, p in zip(nn.PARAM_NAMES, l.params)})
              for l in enet.trunk.layers]
    if pre_activation:
        layers[-1] = nn.DenseLayer(layers[-1].W, layers[-1].b)
    return Encoder(trunk=nn.Network(layers), schema_digest=enet.schema_digest)


def embed_corpus(
    encoder: Encoder, schema: FeatureSchema, corpus: Corpus
) -> tuple[list[str], np.ndarray]:
    """Embed every operator in walk order; returns the operator ids and the
    (n, embedding_dim) embeddings, one row per id. Operators are encoded and
    embedded in blocks (featurize.encode_in_blocks), so the wide encodings
    of only one block are held at a time; the bytes equal those of
    embedding the whole encoded corpus at once."""
    encoder.check_schema(schema)
    nodes, ids, _ = corpus_operators(corpus)
    return ids, encode_in_blocks(schema, nodes, encoder, encoder.narrowest)


def project_2d(X: np.ndarray) -> np.ndarray:
    """PCA projection of a row matrix to 2 columns."""
    from .reducers import fit_pca, transform_pca

    X = np.asarray(X)
    return transform_pca(fit_pca(X, 2), X)
