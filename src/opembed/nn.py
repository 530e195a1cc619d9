"""Minimal dense feed-forward engine: affine layers with optional layer norm
and ReLU, mixed segment losses, mini-batch SGD, finite-difference checking.

All math is float64 numpy. Training is single-threaded and deterministic
for a fixed seed. Loss over a batch is the mean of per-row losses; per-row
loss is the weighted sum of segment losses:

* mse: half the sum of squared errors over the segment's slots
* bce: logistic loss per slot, computed from the logit (softplus form)
* softmax: cross-entropy of the exp-normalized group; an all-zero target
  contributes zero loss and zero gradient
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import TrainingDivergedError

LN_EPS = 1e-5


@dataclass
class DenseLayer:
    W: np.ndarray                 # out_dim x in_dim
    b: np.ndarray                 # out_dim
    apply_layer_norm: bool = False
    apply_relu: bool = False
    gain: np.ndarray | None = None
    beta: np.ndarray | None = None

    @property
    def in_dim(self) -> int:
        return self.W.shape[1]

    @property
    def out_dim(self) -> int:
        return self.W.shape[0]


def dense_layer(
    rng: np.random.Generator,
    in_dim: int,
    out_dim: int,
    layer_norm: bool = False,
    relu: bool = False,
) -> DenseLayer:
    """He-initialized layer: W ~ N(0, 2/in_dim), b = 0."""
    W = rng.normal(0.0, np.sqrt(2.0 / in_dim), (out_dim, in_dim))
    layer = DenseLayer(W, np.zeros(out_dim), layer_norm, relu)
    if layer_norm:
        layer.gain = np.ones(out_dim)
        layer.beta = np.zeros(out_dim)
    return layer


@dataclass
class Network:
    layers: list[DenseLayer]

    def __post_init__(self):
        for prev, nxt in zip(self.layers, self.layers[1:]):
            if prev.out_dim != nxt.in_dim:
                raise ValueError(
                    f"layer chain broken: {prev.out_dim} -> {nxt.in_dim}"
                )

    @property
    def in_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def out_dim(self) -> int:
        return self.layers[-1].out_dim


@dataclass
class _LayerCache:
    x: np.ndarray                      # layer input
    xhat: np.ndarray | None            # normalized pre-activation
    inv_std: np.ndarray | None         # 1/sqrt(var + eps), per row
    pre_relu: np.ndarray               # value entering ReLU (or the output)


@dataclass
class ForwardTrace:
    """Per-layer post-activation outputs plus what backward needs.

    Indexing and len() expose the activations, squeezed back to 1-D when
    the forward input was a single vector.
    """

    activations: list[np.ndarray]
    caches: list[_LayerCache]
    single: bool

    def __len__(self) -> int:
        return len(self.activations)

    def __getitem__(self, i):
        a = self.activations[i]
        return a[0] if self.single else a

    @property
    def output(self) -> np.ndarray:
        return self[len(self.activations) - 1]


def _as_batch(x: np.ndarray) -> tuple[np.ndarray, bool]:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        return x[None, :], True
    return x, False


def forward(net: Network, x: np.ndarray) -> ForwardTrace:
    """Run the network, retaining every activation for backprop."""
    a, single = _as_batch(x)
    if a.shape[1] != net.in_dim:
        raise ValueError(f"input dim {a.shape[1]}, network wants {net.in_dim}")
    activations, caches = [], []
    for layer in net.layers:
        z = a @ layer.W.T + layer.b
        xhat = inv_std = None
        if layer.apply_layer_norm:
            mu = z.mean(axis=1, keepdims=True)
            var = z.var(axis=1, keepdims=True)
            inv_std = 1.0 / np.sqrt(var + LN_EPS)
            xhat = (z - mu) * inv_std
            z = layer.gain * xhat + layer.beta
        pre_relu = z
        if layer.apply_relu:
            z = np.maximum(z, 0.0)
        caches.append(_LayerCache(a, xhat, inv_std, pre_relu))
        activations.append(z)
        a = z
    return ForwardTrace(activations, caches, single)


def predict(net: Network, x: np.ndarray) -> np.ndarray:
    """Forward pass without retaining activations."""
    a, single = _as_batch(x)
    for layer in net.layers:
        z = a @ layer.W.T + layer.b
        if layer.apply_layer_norm:
            mu = z.mean(axis=1, keepdims=True)
            inv = 1.0 / np.sqrt(z.var(axis=1, keepdims=True) + LN_EPS)
            z = layer.gain * ((z - mu) * inv) + layer.beta
        if layer.apply_relu:
            z = np.maximum(z, 0.0)
        a = z
    return a[0] if single else a


@dataclass(frozen=True)
class LossSpec:
    """Segments (kind, start, stop) covering [0, out_dim) exactly once."""

    segments: tuple[tuple[str, int, int], ...]
    weights: tuple[float, ...] | None = None

    def __post_init__(self):
        pos = None
        for kind, start, stop in self.segments:
            if kind not in ("mse", "bce", "softmax"):
                raise ValueError(f"unknown segment kind {kind!r}")
            if pos is not None and start != pos:
                raise ValueError("segments must tile the output contiguously")
            if stop <= start:
                raise ValueError("empty segment")
            pos = stop
        if self.weights is not None and len(self.weights) != len(self.segments):
            raise ValueError("one weight per segment required")

    @property
    def dim(self) -> int:
        return self.segments[-1][2]

    def weight(self, i: int) -> float:
        return 1.0 if self.weights is None else self.weights[i]


def _check_spec(spec: LossSpec, dim: int) -> None:
    if spec.segments[0][1] != 0 or spec.dim != dim:
        raise ValueError(f"loss segments cover [0, {spec.dim}), output is {dim}")


def _softplus(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def loss(spec: LossSpec, prediction: np.ndarray, target: np.ndarray) -> float:
    """Mean over rows of the summed, weighted segment losses."""
    p, _ = _as_batch(prediction)
    t, _ = _as_batch(target)
    _check_spec(spec, p.shape[1])
    if not (np.all(np.isfinite(p)) and np.all(np.isfinite(t))):
        raise ValueError("non-finite prediction or target")
    per_row = np.zeros(p.shape[0])
    for i, (kind, start, stop) in enumerate(spec.segments):
        ps, ts = p[:, start:stop], t[:, start:stop]
        if kind == "mse":
            seg = 0.5 * np.square(ps - ts).sum(axis=1)
        elif kind == "bce":
            seg = (_softplus(ps) - ps * ts).sum(axis=1)
        else:
            logp = ps - ps.max(axis=1, keepdims=True)
            logp = logp - np.log(np.exp(logp).sum(axis=1, keepdims=True))
            seg = -(ts * logp).sum(axis=1)
        per_row += spec.weight(i) * seg
    return float(per_row.mean())


def output_grad(spec: LossSpec, prediction: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Gradient of loss() w.r.t. the prediction (same shape as prediction)."""
    p, single = _as_batch(prediction)
    t, _ = _as_batch(target)
    _check_spec(spec, p.shape[1])
    grad = np.zeros_like(p)
    for i, (kind, start, stop) in enumerate(spec.segments):
        ps, ts = p[:, start:stop], t[:, start:stop]
        if kind == "mse":
            g = ps - ts
        elif kind == "bce":
            g = 1.0 / (1.0 + np.exp(-ps)) - ts
        else:
            # all-zero target rows get exactly zero gradient here
            g = _softmax(ps) * ts.sum(axis=1, keepdims=True) - ts
        grad[:, start:stop] = spec.weight(i) * g
    grad /= p.shape[0]
    return grad[0] if single else grad


def decode_probabilities(spec: LossSpec, prediction: np.ndarray) -> np.ndarray:
    """Map raw outputs to interpretable values: softmax groups normalized,
    bce slots sigmoided, mse slots passed through."""
    p, single = _as_batch(prediction)
    _check_spec(spec, p.shape[1])
    out = p.copy()
    for kind, start, stop in spec.segments:
        if kind == "softmax":
            out[:, start:stop] = _softmax(p[:, start:stop])
        elif kind == "bce":
            out[:, start:stop] = 1.0 / (1.0 + np.exp(-p[:, start:stop]))
    return out[0] if single else out


@dataclass
class LayerGrads:
    dW: np.ndarray
    db: np.ndarray
    dgain: np.ndarray | None = None
    dbeta: np.ndarray | None = None


def backprop_layers(
    net: Network, trace: ForwardTrace, dout: np.ndarray
) -> tuple[list[LayerGrads], np.ndarray]:
    """Push an output-side gradient through the network.

    Returns per-layer parameter gradients and the gradient w.r.t. the
    network input (needed when this network is a head over a trunk).
    """
    da = np.atleast_2d(np.asarray(dout, dtype=np.float64))
    grads: list[LayerGrads] = [None] * len(net.layers)
    for i in range(len(net.layers) - 1, -1, -1):
        layer, cache = net.layers[i], trace.caches[i]
        if layer.apply_relu:
            da = da * (cache.pre_relu > 0)
        if layer.apply_layer_norm:
            dgain = (da * cache.xhat).sum(axis=0)
            dbeta = da.sum(axis=0)
            dxhat = da * layer.gain
            m1 = dxhat.mean(axis=1, keepdims=True)
            m2 = (dxhat * cache.xhat).mean(axis=1, keepdims=True)
            dz = cache.inv_std * (dxhat - m1 - cache.xhat * m2)
        else:
            dgain = dbeta = None
            dz = da
        grads[i] = LayerGrads(dz.T @ cache.x, dz.sum(axis=0), dgain, dbeta)
        da = dz @ layer.W
    return grads, da


def backward(
    net: Network, spec: LossSpec, trace: ForwardTrace, target: np.ndarray
) -> list[LayerGrads]:
    """Exact gradients of loss(spec, forward output, target) per parameter."""
    dout = output_grad(spec, trace.activations[-1], np.atleast_2d(target))
    return backprop_layers(net, trace, dout)[0]


def sgd_step(
    net: Network,
    grads: list[LayerGrads],
    lr: float,
    momentum: float = 0.0,
    velocity: list[LayerGrads] | None = None,
) -> Network:
    """In-place w <- w - lr * grad, with optional classical momentum."""
    for i, (layer, g) in enumerate(zip(net.layers, grads)):
        if momentum > 0.0 and velocity is not None:
            v = velocity[i]
            v.dW = momentum * v.dW + g.dW
            v.db = momentum * v.db + g.db
            if layer.apply_layer_norm:
                v.dgain = momentum * v.dgain + g.dgain
                v.dbeta = momentum * v.dbeta + g.dbeta
            g = v
        layer.W -= lr * g.dW
        layer.b -= lr * g.db
        if layer.apply_layer_norm:
            layer.gain -= lr * g.dgain
            layer.beta -= lr * g.dbeta
    return net


def zero_velocity(net: Network) -> list[LayerGrads]:
    return [
        LayerGrads(
            np.zeros_like(l.W),
            np.zeros_like(l.b),
            np.zeros_like(l.gain) if l.apply_layer_norm else None,
            np.zeros_like(l.beta) if l.apply_layer_norm else None,
        )
        for l in net.layers
    ]


@dataclass(frozen=True)
class SgdConfig:
    learning_rate: float = 0.01
    batch_size: int = 64
    epochs: int = 100
    seed: int = 0
    momentum: float = 0.0

    def __post_init__(self):
        if self.learning_rate <= 0 or self.batch_size <= 0 or self.epochs < 0:
            raise ValueError("learning_rate and batch_size positive, epochs >= 0")


def iter_batches(n: int, cfg: SgdConfig, rng: np.random.Generator):
    """Yield index arrays for one epoch, seeded shuffle first."""
    order = rng.permutation(n)
    for start in range(0, n, cfg.batch_size):
        yield order[start : start + cfg.batch_size]


def train(
    nets: list[Network],
    cfg: SgdConfig,
    n_rows: int,
    step,
) -> list[float]:
    """Mini-batch SGD over rows 0..n_rows-1; returns the mean batch loss per
    epoch.

    step(idx) computes one batch: it returns the batch loss and one
    gradient list per network in nets, and must not update them.
    """
    if n_rows == 0:
        raise ValueError("empty training set")
    rng = np.random.default_rng(cfg.seed)
    velocity = [zero_velocity(net) if cfg.momentum > 0 else None for net in nets]
    trace_losses: list[float] = []
    for epoch in range(cfg.epochs):
        batch_losses = []
        for b, idx in enumerate(iter_batches(n_rows, cfg, rng)):
            batch_loss, grads = step(idx)
            if not np.isfinite(batch_loss):
                raise TrainingDivergedError(epoch, b)
            for net, g, v in zip(nets, grads, velocity):
                sgd_step(net, g, cfg.learning_rate, cfg.momentum, v)
            batch_losses.append(batch_loss)
        trace_losses.append(float(np.mean(batch_losses)))
    return trace_losses


@dataclass
class GradCheckReport:
    passed: bool
    max_rel_err: float
    n_params: int
    worst: str


def _param_views(net: Network):
    for i, layer in enumerate(net.layers):
        yield f"layer{i}.W", layer.W
        yield f"layer{i}.b", layer.b
        if layer.apply_layer_norm:
            yield f"layer{i}.gain", layer.gain
            yield f"layer{i}.beta", layer.beta


def grad_check(
    net: Network,
    spec: LossSpec,
    x: np.ndarray,
    target: np.ndarray,
    h: float = 1e-5,
    tol: float = 1e-4,
) -> GradCheckReport:
    """Compare analytic gradients to central finite differences, parameter
    by parameter; relative error |a - n| / max(1, |a|)."""
    trace = forward(net, x)
    grads = backward(net, spec, trace, target)
    analytic = {}
    for i, g in enumerate(grads):
        analytic[f"layer{i}.W"] = g.dW
        analytic[f"layer{i}.b"] = g.db
        if g.dgain is not None:
            analytic[f"layer{i}.gain"] = g.dgain
            analytic[f"layer{i}.beta"] = g.dbeta
    worst, worst_err, count = "", 0.0, 0
    for name, param in _param_views(net):
        grad = analytic[name]
        it = np.nditer(param, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            keep = param[idx]
            param[idx] = keep + h
            up = loss(spec, predict(net, x), target)
            param[idx] = keep - h
            down = loss(spec, predict(net, x), target)
            param[idx] = keep
            numeric = (up - down) / (2.0 * h)
            a = float(grad[idx])
            err = abs(a - numeric) / max(1.0, abs(a))
            count += 1
            if err > worst_err:
                worst_err, worst = err, f"{name}[{idx}]"
            it.iternext()
    return GradCheckReport(worst_err < tol, worst_err, count, worst)
