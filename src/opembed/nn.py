"""Minimal dense feed-forward engine: affine layers with optional layer norm
and ReLU, mixed segment losses, mini-batch SGD, finite-difference checking.

All math is float64 numpy, single-threaded and deterministic for a fixed
seed. The kernels repeat the reference formulas' operations in their order
(np.mean/np.var layer norm, Ba et al. 2016 backward, per-segment loss and
gradient; tests/test_nn.py keeps them), so the bits are the formulas'. Loss
over a batch is the mean of per-row losses; per-row loss is the sum of
segment losses:

* mse: half the sum of squared errors over the segment's slots
* bce: logistic loss per slot, computed from the logit (softplus form)
* softmax: cross-entropy of the exp-normalized group; an all-zero target
  contributes zero loss and zero gradient

loss() rejects non-finite input; the training path skips that scan, as
train() raises TrainingDivergedError on a non-finite batch loss.

train() is the one SGD loop. It steps one run (the hourglass, a classifier
fit on one set), or several independent runs at once, each with its own
seeded batch order: a linear classifier fit on every fold's train side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import TrainingDivergedError

LN_EPS = 1e-5
# a layer's arrays in the order its params and gradients list them; a layer
# without layer norm holds the first two
PARAM_NAMES = ("W", "b", "gain", "beta")


def _describe(value) -> str:
    if isinstance(value, np.ndarray):
        return f"{value.dtype} of shape {value.shape}"
    return type(value).__name__


@dataclass
class DenseLayer:
    W: np.ndarray                 # out_dim x in_dim
    b: np.ndarray                 # out_dim
    apply_layer_norm: bool = False
    apply_relu: bool = False
    gain: np.ndarray | None = None
    beta: np.ndarray | None = None

    def __post_init__(self):
        # bundle headers hold the flags as JSON values, where 0 or "no" is no flag
        if type(self.apply_layer_norm) is not bool or type(self.apply_relu) is not bool:
            raise TypeError(f"layer flags must be booleans, got layer_norm "
                            f"{self.apply_layer_norm!r} and relu {self.apply_relu!r}")
        # the arrays may come from a bundle: one that would broadcast, fail
        # mid-matmul or yield NaN embeddings is refused here
        if not (isinstance(self.W, np.ndarray) and self.W.ndim == 2):
            raise ValueError(f"layer W must be a 2-D array, got {_describe(self.W)}")
        for name in PARAM_NAMES[2:]:
            if (getattr(self, name) is not None) != self.apply_layer_norm:
                raise ValueError(f"layer {name} must be given exactly when layer norm is on")
        for name, value in zip(PARAM_NAMES, self.params):
            want = self.W.shape if name == "W" else self.W.shape[:1]
            if not (isinstance(value, np.ndarray) and value.shape == want
                    and np.issubdtype(value.dtype, np.floating)):
                raise ValueError(f"layer {name} must be a float array of shape {want}, "
                                 f"got {_describe(value)}")
            if not np.isfinite(value).all():
                raise ValueError(f"layer {name} holds a non-finite value")

    @property
    def params(self) -> tuple[np.ndarray, ...]:
        """The layer's arrays in PARAM_NAMES order."""
        if self.apply_layer_norm:
            return self.W, self.b, self.gain, self.beta
        return self.W, self.b

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
    norm = (np.ones(out_dim), np.zeros(out_dim)) if layer_norm else (None, None)
    return DenseLayer(W, np.zeros(out_dim), layer_norm, relu, *norm)


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


@dataclass
class ForwardTrace:
    """Per-layer post-activation outputs plus what backward needs; the
    post-ReLU output doubles as the ReLU mask (a > 0 exactly when z > 0)."""

    activations: list[np.ndarray]
    caches: list[_LayerCache]


def _as_batch(x: np.ndarray) -> tuple[np.ndarray, bool]:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        return x[None, :], True
    return x, False


def _layer(layer: DenseLayer, a: np.ndarray, caches: list | None = None) -> np.ndarray:
    """One layer's output, computed in place on the fresh matmul result.
    With caches given, also append what backward needs; without, xhat is
    overwritten, so no extra (rows x width) array stays alive."""
    z = a @ layer.W.T
    z += layer.b
    xhat = inv_std = None
    if layer.apply_layer_norm:
        n = z.shape[1]
        z -= np.add.reduce(z, 1, keepdims=True) / n
        inv_std = 1.0 / np.sqrt(np.add.reduce(z * z, 1, keepdims=True) / n + LN_EPS)
        z *= inv_std
        if caches is None:
            z *= layer.gain
        else:
            xhat, z = z, z * layer.gain
        z += layer.beta
    if caches is not None:
        caches.append(_LayerCache(a, xhat, inv_std))
    if layer.apply_relu:
        np.maximum(z, 0.0, out=z)
    return z


def forward(net: Network, x: np.ndarray) -> ForwardTrace:
    """Run the network, retaining every activation for backprop."""
    a = _as_batch(x)[0]
    if a.shape[1] != net.in_dim:
        raise ValueError(f"input dim {a.shape[1]}, network wants {net.in_dim}")
    activations, caches = [], []
    for layer in net.layers:
        a = _layer(layer, a, caches)
        activations.append(a)
    return ForwardTrace(activations, caches)


def predict(net: Network, x: np.ndarray) -> np.ndarray:
    """Forward pass without retaining activations."""
    a, single = _as_batch(x)
    for layer in net.layers:
        a = _layer(layer, a)
    return a[0] if single else a


@dataclass(frozen=True)
class LossSpec:
    """Segments (kind, start, stop) covering [0, out_dim) exactly once."""

    segments: tuple[tuple[str, int, int], ...]

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

    @property
    def dim(self) -> int:
        return self.segments[-1][2]


def _check_spec(spec: LossSpec, dim: int) -> None:
    if spec.segments[0][1] != 0 or spec.dim != dim:
        raise ValueError(f"loss segments cover [0, {spec.dim}), output is {dim}")


def _segment_pass(spec: LossSpec, p: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One pass over the segments of 2-D p and t: the per-row loss and the
    gradient of its sum (not yet divided by the row count). Each row's
    values depend on that row alone. No finite check."""
    per_row = np.zeros(p.shape[0])
    grad = np.empty_like(p)
    for kind, start, stop in spec.segments:
        ps, ts, g = p[:, start:stop], t[:, start:stop], grad[:, start:stop]
        if kind == "mse":
            seg = 0.5 * np.square(np.subtract(ps, ts, out=g)).sum(axis=1)
        elif kind == "bce":
            softplus = np.maximum(ps, 0.0) + np.log1p(np.exp(-np.abs(ps)))
            seg = (softplus - ps * ts).sum(axis=1)
            np.subtract(1.0 / (1.0 + np.exp(-ps)), ts, out=g)
        else:
            shifted = ps - ps.max(axis=1, keepdims=True)
            e = np.exp(shifted)
            total = e.sum(axis=1, keepdims=True)
            seg = -(ts * (shifted - np.log(total))).sum(axis=1)
            # all-zero target rows get exactly zero gradient here
            np.subtract(e / total * ts.sum(axis=1, keepdims=True), ts, out=g)
        per_row += seg
    return per_row, grad


def loss(spec: LossSpec, prediction: np.ndarray, target: np.ndarray) -> float:
    """Mean over rows of the summed segment losses."""
    p, t = _as_batch(prediction)[0], _as_batch(target)[0]
    _check_spec(spec, p.shape[1])
    if not (np.all(np.isfinite(p)) and np.all(np.isfinite(t))):
        raise ValueError("non-finite prediction or target")
    return float(_segment_pass(spec, p, t)[0].mean())


def output_grad(spec: LossSpec, prediction: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Gradient of loss() w.r.t. the prediction (same shape as prediction)."""
    p, single = _as_batch(prediction)
    t, _ = _as_batch(target)
    _check_spec(spec, p.shape[1])
    grad = _segment_pass(spec, p, t)[1]
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
            e = np.exp(p[:, start:stop] - p[:, start:stop].max(axis=1, keepdims=True))
            out[:, start:stop] = e / e.sum(axis=1, keepdims=True)
        elif kind == "bce":
            out[:, start:stop] = 1.0 / (1.0 + np.exp(-p[:, start:stop]))
    return out[0] if single else out


def backprop_layers(
    net: Network, trace: ForwardTrace, dout: np.ndarray, input_grad: bool = True
) -> tuple[list[tuple[np.ndarray, ...]], np.ndarray | None]:
    """Push an output-side gradient through the network.

    Returns per-layer parameter gradients, each a tuple in the order of the
    layer's params, and the gradient w.r.t. the network input (needed when
    this network is a head over a trunk); with input_grad false that last
    matmul is skipped and None returned.
    """
    # a copy, so the updates below run in place without touching dout
    da = np.array(dout, dtype=np.float64, ndmin=2)
    grads: list[tuple[np.ndarray, ...]] = [None] * len(net.layers)
    for i in range(len(net.layers) - 1, -1, -1):
        layer, cache = net.layers[i], trace.caches[i]
        if layer.apply_relu:
            da *= trace.activations[i] > 0
        norm_grads = ()
        if layer.apply_layer_norm:
            xhat, n = cache.xhat, da.shape[1]
            norm_grads = (np.add.reduce(da * xhat, 0), np.add.reduce(da, 0))
            da *= layer.gain                     # da is dxhat from here on
            m1 = np.add.reduce(da, 1, keepdims=True) / n
            m2 = np.add.reduce(da * xhat, 1, keepdims=True) / n
            da -= m1
            da -= xhat * m2
            da *= cache.inv_std                  # and dz from here on
        grads[i] = (da.T @ cache.x, np.add.reduce(da, 0), *norm_grads)
        da = da @ layer.W if i or input_grad else None
    return grads, da


def backward(
    net: Network, spec: LossSpec, trace: ForwardTrace, target: np.ndarray
) -> list[tuple[np.ndarray, ...]]:
    """Exact gradients of loss(spec, forward output, target) per parameter."""
    dout = output_grad(spec, trace.activations[-1], np.atleast_2d(target))
    return backprop_layers(net, trace, dout, input_grad=False)[0]


def sgd_step(net: Network, grads: list[tuple[np.ndarray, ...]], lr: float) -> Network:
    """In-place w <- w - lr * grad; the grads are scaled by lr in place."""
    for layer, g in zip(net.layers, grads):
        for w, dw in zip(layer.params, g, strict=True):
            dw *= lr
            w -= dw
    return net


@dataclass(frozen=True)
class SgdConfig:
    learning_rate: float = 0.01
    batch_size: int = 64
    epochs: int = 100
    seed: int = 0

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
    n_rows: int | list[int],
    step,
) -> list[float] | list[list[float]]:
    """Mini-batch SGD over rows 0..n_rows-1; returns the mean batch loss per
    epoch.

    step(idx) computes one batch: it returns the batch loss and one
    gradient list per network in nets, and must not update them.

    n_rows may instead be a list of R row counts, one per independent run;
    then every step advances every run that has batches left, and the
    result is one loss list per run. Each run draws its batches from its
    own default_rng(cfg.seed), as it would alone, so runs of different
    sizes take different batch counts per epoch. step(batches) gets one
    index array per run, or None for a run that is done, and returns one
    batch loss per run (a done run's is ignored) and the gradient lists,
    which must hold +0.0 for a done run's parameters so they keep their
    bits. A non-finite loss ends its run and every later one while the
    earlier ones go on; then the first run's TrainingDivergedError is
    raised, the one training the runs one at a time would raise.
    """
    multi = not isinstance(n_rows, (int, np.integer))
    sizes = list(n_rows) if multi else [n_rows]
    if 0 in sizes:
        raise ValueError("empty training set")
    R = len(sizes)
    rngs = [np.random.default_rng(cfg.seed) for _ in sizes]
    per_epoch = [-(-n // cfg.batch_size) for n in sizes]
    ends = [cfg.epochs * k for k in per_epoch]  # each run's step count
    plans = [None] * R  # each run's batches of its current epoch
    batch_losses: list[list[float]] = [[] for _ in sizes]
    live = [r for r in range(R) if ends[r]]
    failed = None  # (run, epoch, batch) of the first run's non-finite loss
    step_no = 0
    # overflow on the way to a non-finite loss is reported once, with its
    # location, as TrainingDivergedError rather than as numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        while live:
            batches = [None] * R
            for r in live:
                b = step_no % per_epoch[r]
                if b == 0:
                    plans[r] = list(iter_batches(sizes[r], cfg, rngs[r]))
                batches[r] = plans[r][b]
            if multi:
                losses, grads = step(batches)
            else:
                loss, grads = step(batches[0])
                losses = (loss,)
            for r in live:
                if not math.isfinite(losses[r]) and (failed is None or r < failed[0]):
                    failed = (r, *divmod(step_no, per_epoch[r]))
            if failed is not None:
                live = [r for r in live if r < failed[0]]
                if not live:
                    break
            for net, g in zip(nets, grads):
                sgd_step(net, g, cfg.learning_rate)
            step_no += 1
            for r in live:
                batch_losses[r].append(losses[r])
            if step_no in ends:
                live = [r for r in live if step_no < ends[r]]
    if failed is not None:
        raise TrainingDivergedError(*failed[1:])
    # each epoch's mean batch loss: np.mean's pairwise sum over the epoch's
    # row of batch losses, then one division, for every epoch at once
    traces = [(np.add.reduce(np.reshape(run_losses, (cfg.epochs, k)), 1) / k).tolist()
              for run_losses, k in zip(batch_losses, per_epoch)]
    return traces if multi else traces[0]


@dataclass
class GradCheckReport:
    passed: bool
    max_rel_err: float
    n_params: int
    worst: str


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
    grads = backward(net, spec, forward(net, x), target)
    views = [(f"layer{i}.{name}", param, grad)
             for i, (layer, g) in enumerate(zip(net.layers, grads))
             for name, param, grad in zip(PARAM_NAMES, layer.params, g)]
    worst, worst_err, count = "", 0.0, 0
    for name, param, grad in views:
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
