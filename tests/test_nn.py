import math
import re

import numpy as np
import pytest

from opembed.errors import TrainingDivergedError
from opembed import nn
from opembed.nn import (
    DenseLayer,
    LossSpec,
    Network,
    SgdConfig,
    backward,
    dense_layer,
    forward,
    grad_check,
    iter_batches,
    loss,
    output_grad,
    predict,
    sgd_step,
    train,
)


def fit(net, spec, cfg, X, Y):
    """Supervised regression of net(X) onto Y through the shared SGD loop."""

    def step(batches):
        (idx,) = batches
        fwd = forward(net, X[idx])
        return [loss(spec, fwd.activations[-1], Y[idx])], [backward(net, spec, fwd, Y[idx])]

    return net, train([net], cfg, [len(X)], step)[0]


def affine(W, b, ln=False, relu=False):
    W = np.asarray(W, dtype=float)
    gain = np.ones(W.shape[0]) if ln else None
    beta = np.zeros(W.shape[0]) if ln else None
    return DenseLayer(W, np.asarray(b, dtype=float), ln, relu, gain, beta)


def test_identity_layer():
    net = Network([affine(np.eye(3), np.zeros(3))])
    x = np.array([1.5, -2.0, 0.25])
    assert np.array_equal(predict(net, x), x)


@pytest.mark.parametrize(
    "arrays, flags, where",
    [((np.ones(3), np.zeros(3)), (False, False), "layer W must be a 2-D array, got float64"),
     ((np.ones((3, 2), dtype=int), np.zeros(3)), (False, False), "layer W must be a float array"),
     ((np.ones((3, 2)), np.zeros(1)), (False, False), "layer b must be a float array of shape (3,)"),
     ((np.ones((3, 2)), np.zeros((1, 3))), (False, False), "layer b must be a float array"),
     ((np.ones((3, 2)), [0.0, 0.0, 0.0]), (False, False), "layer b must be a float array"),
     ((np.ones((3, 2)), np.zeros(3), np.ones(3), np.zeros(3)), (False, True),
      "layer gain must be given exactly when layer norm is on"),
     ((np.ones((3, 2)), np.zeros(3)), (True, True), "layer gain must be given exactly"),
     ((np.ones((3, 2)), np.zeros(3), np.ones(3), np.zeros(2)), (True, True),
      "layer beta must be a float array of shape (3,)"),
     ((np.full((3, 2), np.inf), np.zeros(3)), (False, False), "layer W holds a non-finite value"),
     ((np.ones((3, 2)), np.zeros(3), np.array([1.0, np.nan, 1.0]), np.zeros(3)), (True, False),
      "layer gain holds a non-finite value")],
    ids=["W-1d", "W-int", "b-short", "b-row", "b-list", "gain-without-norm",
         "norm-without-gain", "beta-short", "W-inf", "gain-nan"],
)
def test_dense_layer_refuses_bad_arrays(arrays, flags, where):
    W, b, *norm = arrays
    with pytest.raises(ValueError, match=re.escape(where)):
        DenseLayer(W, b, *flags, *norm)


def test_params_follow_param_names(rng):
    for ln in (False, True):
        layer = dense_layer(rng, 3, 2, layer_norm=ln)
        want = [getattr(layer, name) for name in nn.PARAM_NAMES[:4 if ln else 2]]
        assert all(a is b for a, b in zip(layer.params, want, strict=True))


def test_relu_clips_negatives():
    net = Network([affine(np.eye(2), np.zeros(2), relu=True)])
    assert np.array_equal(predict(net, np.array([-1.0, 2.0])), np.array([0.0, 2.0]))


def test_forward_output_and_caches_match_predict(rng):
    net = Network([
        dense_layer(rng, 5, 4, layer_norm=True, relu=True),
        dense_layer(rng, 4, 3, layer_norm=True, relu=False),
        dense_layer(rng, 3, 2),
    ])
    x = rng.normal(size=(6, 5))
    trace = forward(net, x)
    assert np.array_equal(trace.activations[-1], predict(net, x))
    assert [c.x.shape for c in trace.caches] == [(6, 5), (6, 4), (6, 3)]
    assert np.array_equal(trace.caches[1].x, trace.activations[0])
    assert trace.caches[2].xhat is None and trace.caches[0].xhat.shape == (6, 4)


def test_layer_norm_centers_and_scales():
    # spread the input so the variance term dwarfs the 1e-5 stabilizer
    net = Network([affine(np.eye(4), np.zeros(4), ln=True)])
    out = predict(net, np.array([30.0, -15.0, 9.0, 126.0]))
    assert abs(out.mean()) < 1e-9
    assert abs(out.var() - 1.0) < 1e-6


def test_mse_zero_at_target():
    spec = LossSpec((("mse", 0, 3),))
    p = np.array([[0.5, -1.0, 2.0]])
    assert loss(spec, p, p.copy()) == 0.0


def test_softmax_ce_uniform_logits():
    spec = LossSpec((("softmax", 0, 4),))
    logits = np.zeros((1, 4))
    target = np.array([[0.0, 1.0, 0.0, 0.0]])
    assert abs(loss(spec, logits, target) - math.log(4)) < 1e-9


def test_mixed_loss_matches_hand_computation():
    spec = LossSpec((("mse", 0, 2), ("bce", 2, 3), ("softmax", 3, 5)))
    p = np.array([[0.5, -0.25, 0.8, 1.2, -0.4], [0.0, 1.0, -0.3, 0.2, 0.9]])
    t = np.array([[0.25, 0.0, 1.0, 0.0, 1.0], [0.5, 0.5, 0.0, 1.0, 0.0]])
    total = 0.0
    for row_p, row_t in zip(p, t):
        row = 0.5 * ((row_p[0:2] - row_t[0:2]) ** 2).sum()
        ell = row_p[2]
        row += math.log(1 + math.exp(-abs(ell))) + max(ell, 0.0) - ell * row_t[2]
        z = row_p[3:5]
        lse = math.log(math.exp(z[0]) + math.exp(z[1]))
        row += -(row_t[3] * (z[0] - lse) + row_t[4] * (z[1] - lse))
        total += row
    assert abs(loss(spec, p, t) - total / 2) < 1e-12


def test_zero_target_softmax_row_is_silent():
    spec = LossSpec((("softmax", 0, 3),))
    p = np.array([[0.3, -0.7, 1.1]])
    t = np.zeros((1, 3))
    assert loss(spec, p, t) == 0.0
    assert not output_grad(spec, p, t).any()


def test_grad_check_small_net(rng):
    layers = [
        dense_layer(rng, 3, 4, layer_norm=True, relu=True),
        dense_layer(rng, 4, 2, layer_norm=False, relu=False),
    ]
    net = Network(layers)
    spec = LossSpec((("mse", 0, 2),))
    x = rng.normal(size=(5, 3))
    t = rng.normal(size=(5, 2))
    report = grad_check(net, spec, x, t)
    assert report.passed, report.worst
    assert report.max_rel_err < 1e-4


def test_zero_loss_point_zero_grads(rng):
    net = Network([affine(np.eye(2), np.zeros(2))])
    spec = LossSpec((("mse", 0, 2),))
    x = rng.normal(size=(4, 2))
    grads = backward(net, spec, forward(net, x), x.copy())
    dW, db = grads[0]
    assert not dW.any()
    assert not db.any()


def test_sgd_zero_lr_is_identity(rng):
    layer = dense_layer(rng, 2, 2, layer_norm=False, relu=False)
    net = Network([layer])
    before = layer.W.copy()
    grads = [(np.ones_like(layer.W), np.ones_like(layer.b))]
    sgd_step(net, grads, lr=0.0)
    assert np.array_equal(layer.W, before)


def test_sgd_quadratic_closed_form():
    # loss w^2 at w=1 has gradient 2; lr 0.1 moves w to 0.8
    layer = affine(np.array([[1.0]]), np.zeros(1))
    net = Network([layer])
    grads = [(np.array([[2.0]]), np.zeros(1))]
    sgd_step(net, grads, lr=0.1)
    assert abs(layer.W[0, 0] - 0.8) < 1e-15


def test_training_decreases_separable_loss(rng):
    X = np.vstack([rng.normal(-2, 0.3, size=(40, 2)), rng.normal(2, 0.3, size=(40, 2))])
    T = np.zeros((80, 2))
    T[:40, 0] = 1.0
    T[40:, 1] = 1.0
    net = Network([dense_layer(np.random.default_rng(0), 2, 2, layer_norm=False, relu=False)])
    spec = LossSpec((("softmax", 0, 2),))
    net, trace = fit(net, spec, SgdConfig(epochs=20, seed=0), X, T)
    assert trace[-1] < trace[0]


def test_train_planted_linear_mapping():
    rng = np.random.default_rng(7)
    A = rng.normal(size=(3, 4))
    X = rng.normal(size=(500, 4))
    T = X @ A.T
    net = Network([dense_layer(np.random.default_rng(1), 4, 3, layer_norm=False, relu=False)])
    spec = LossSpec((("mse", 0, 3),))
    net, trace = fit(net, spec, SgdConfig(epochs=40, seed=1), X, T)
    assert trace[-1] < 0.1 * trace[0]


def test_train_zero_epochs_is_identity(rng):
    net = Network([dense_layer(np.random.default_rng(2), 3, 2, layer_norm=False, relu=False)])
    before = net.layers[0].W.copy()
    spec = LossSpec((("mse", 0, 2),))
    net, trace = fit(net, spec, SgdConfig(epochs=0),
                       rng.normal(size=(10, 3)), rng.normal(size=(10, 2)))
    assert trace == []
    assert np.array_equal(net.layers[0].W, before)


def test_train_same_seed_bitwise_identical(rng):
    X = rng.normal(size=(64, 3))
    T = rng.normal(size=(64, 2))
    spec = LossSpec((("mse", 0, 2),))
    runs = []
    for _ in range(2):
        net = Network([dense_layer(np.random.default_rng(5), 3, 2, layer_norm=False, relu=False)])
        net, trace = fit(net, spec, SgdConfig(epochs=5, seed=9), X, T)
        runs.append((net.layers[0].W.copy(), tuple(trace)))
    assert np.array_equal(runs[0][0], runs[1][0])
    assert runs[0][1] == runs[1][1]


def test_train_steps_runs_together_as_each_alone(rng):
    # 16-row batches: the runs take 1, 2, 4 and 5 batches an epoch
    sizes = [10, 25, 64, 65]
    data = [(rng.normal(size=(n, 3)), rng.normal(size=(n, 2))) for n in sizes]
    spec = LossSpec((("mse", 0, 2),))
    cfg = SgdConfig(learning_rate=0.05, batch_size=16, epochs=3, seed=4)

    def fresh():
        return Network([dense_layer(np.random.default_rng(1), 3, 2, layer_norm=True)])

    alone = [fit(fresh(), spec, cfg, X, Y) for X, Y in data]
    nets = [fresh() for _ in data]

    def step(batches):
        losses, grads = [], []
        for net, (X, Y), idx in zip(nets, data, batches):
            if idx is None:  # a done run: +0.0 gradients
                losses.append(0.0)
                grads.append([tuple(map(np.zeros_like, layer.params)) for layer in net.layers])
                continue
            fwd = forward(net, X[idx])
            losses.append(loss(spec, fwd.activations[-1], Y[idx]))
            grads.append(backward(net, spec, fwd, Y[idx]))
        return losses, grads

    traces = train(nets, cfg, sizes, step)
    for (net_alone, trace_alone), net, trace in zip(alone, nets, traces):
        assert trace == trace_alone
        for a, b in zip(net.layers[0].params, net_alone.layers[0].params):
            assert a.tobytes() == b.tobytes()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_divergence_raises_with_location(rng):
    X = rng.normal(size=(32, 3)) * 1e3
    T = rng.normal(size=(32, 3)) * 1e3
    net = Network([dense_layer(np.random.default_rng(3), 3, 3, layer_norm=False, relu=False)])
    spec = LossSpec((("mse", 0, 3),))
    with pytest.raises(TrainingDivergedError) as err:
        fit(net, spec, SgdConfig(epochs=50, learning_rate=1e6), X, T)
    assert "epoch" in str(err.value) and "batch" in str(err.value)


def test_iter_batches_partitions_everything():
    cfg = SgdConfig(batch_size=10, seed=3)
    seen = np.concatenate(list(iter_batches(25, cfg, np.random.default_rng(3))))
    assert sorted(seen.tolist()) == list(range(25))


# -- reference formulas: the kernels must reproduce them bit for bit --------

def _reference_forward(net, x):
    """Per layer: np.mean/np.var layer norm, a separate pre-ReLU array."""
    a, acts, caches = np.atleast_2d(x), [], []
    for layer in net.layers:
        z = a @ layer.W.T + layer.b
        xhat = inv_std = None
        if layer.apply_layer_norm:
            mu = z.mean(axis=1, keepdims=True)
            inv_std = 1.0 / np.sqrt(z.var(axis=1, keepdims=True) + nn.LN_EPS)
            xhat = (z - mu) * inv_std
            z = layer.gain * xhat + layer.beta
        caches.append((a, xhat, inv_std, z))
        a = np.maximum(z, 0.0) if layer.apply_relu else z
        acts.append(a)
    return acts, caches


def _reference_backprop(net, caches, dout):
    """Ba et al. 2016 layer-norm backward with .sum/.mean and the pre-ReLU
    mask; returns (dW, db, dgain, dbeta) per layer and the input gradient."""
    da, grads = np.atleast_2d(dout), []
    for layer, (x, xhat, inv_std, pre_relu) in reversed(list(zip(net.layers, caches))):
        if layer.apply_relu:
            da = da * (pre_relu > 0)
        dgain = dbeta = None
        dz = da
        if layer.apply_layer_norm:
            dgain = (da * xhat).sum(axis=0)
            dbeta = da.sum(axis=0)
            dxhat = da * layer.gain
            m1 = dxhat.mean(axis=1, keepdims=True)
            m2 = (dxhat * xhat).mean(axis=1, keepdims=True)
            dz = inv_std * (dxhat - m1 - xhat * m2)
        grads.insert(0, (dz.T @ x, dz.sum(axis=0), dgain, dbeta))
        da = dz @ layer.W
    return grads, da


def _reference_loss(spec, p, t):
    per_row = np.zeros(p.shape[0])
    for kind, start, stop in spec.segments:
        ps, ts = p[:, start:stop], t[:, start:stop]
        if kind == "mse":
            seg = 0.5 * np.square(ps - ts).sum(axis=1)
        elif kind == "bce":
            seg = (np.maximum(ps, 0.0) + np.log1p(np.exp(-np.abs(ps))) - ps * ts).sum(axis=1)
        else:
            logp = ps - ps.max(axis=1, keepdims=True)
            logp = logp - np.log(np.exp(logp).sum(axis=1, keepdims=True))
            seg = -(ts * logp).sum(axis=1)
        per_row += seg
    return float(per_row.mean())


def _reference_output_grad(spec, p, t):
    grad = np.zeros_like(p)
    for kind, start, stop in spec.segments:
        ps, ts = p[:, start:stop], t[:, start:stop]
        if kind == "mse":
            g = ps - ts
        elif kind == "bce":
            g = 1.0 / (1.0 + np.exp(-ps)) - ts
        else:
            e = np.exp(ps - ps.max(axis=1, keepdims=True))
            g = e / e.sum(axis=1, keepdims=True) * ts.sum(axis=1, keepdims=True) - ts
        grad[:, start:stop] = g
    return grad / p.shape[0]


def _assert_grads_equal(got, want):
    for g, (dW, db, dgain, dbeta) in zip(got, want, strict=True):
        ref = (dW, db) if dgain is None else (dW, db, dgain, dbeta)
        assert all(np.array_equal(a, b) for a, b in zip(g, ref, strict=True))


@pytest.mark.parametrize("rows", [1, 64])
def test_layer_kernels_match_reference_formulas_bitwise(rows):
    rng = np.random.default_rng(rows)
    net = Network([
        dense_layer(rng, 83, 256, layer_norm=True, relu=True),
        dense_layer(rng, 256, 40, layer_norm=True, relu=False),
        dense_layer(rng, 40, 24, relu=True),
        dense_layer(rng, 24, 17),
    ])
    for layer in net.layers:
        if layer.apply_layer_norm:   # off their init, so gain and beta count
            layer.gain += rng.normal(0.0, 0.3, layer.out_dim)
            layer.beta += rng.normal(0.0, 0.3, layer.out_dim)
    x = rng.normal(size=(rows, 83))
    dout = rng.normal(size=(rows, 17))
    acts, caches = _reference_forward(net, x)
    trace = forward(net, x)
    assert all(np.array_equal(a, b) for a, b in zip(trace.activations, acts, strict=True))
    assert np.array_equal(predict(net, x), acts[-1])
    for cache, (_, xhat, inv_std, _) in zip(trace.caches, caches):
        assert (cache.xhat is None) == (xhat is None)
        if xhat is not None:
            assert np.array_equal(cache.xhat, xhat) and np.array_equal(cache.inv_std, inv_std)
    want, want_dx = _reference_backprop(net, caches, dout)
    before = dout.copy()
    grads, dx = nn.backprop_layers(net, trace, dout)
    _assert_grads_equal(grads, want)
    assert np.array_equal(dx, want_dx)
    assert np.array_equal(dout, before)
    grads, dx = nn.backprop_layers(net, trace, dout, input_grad=False)
    _assert_grads_equal(grads, want)
    assert dx is None


SEGMENT_SPECS = {
    "mse": LossSpec((("mse", 0, 11),)),
    "bce": LossSpec((("bce", 0, 1), ("bce", 1, 2), ("bce", 2, 3))),
    "softmax": LossSpec((("softmax", 0, 3), ("softmax", 3, 12))),
    "mixed": LossSpec((("softmax", 0, 8), ("mse", 8, 13), ("bce", 13, 14),
                       ("softmax", 14, 17), ("mse", 17, 40), ("softmax", 40, 45))),
}


def _segment_case(spec, rows, seed):
    """Predictions and targets of the shape the heads train on: one-hot or
    all-zero softmax groups, 0/1 booleans, real numerics."""
    rng = np.random.default_rng(seed)
    p = rng.normal(0.0, 3.0, size=(rows, spec.dim))
    t = rng.normal(size=(rows, spec.dim))
    for kind, start, stop in spec.segments:
        if kind == "bce":
            t[:, start:stop] = rng.integers(0, 2, size=(rows, stop - start))
        elif kind == "softmax":
            t[:, start:stop] = 0.0
            hot = rng.integers(start, stop, size=rows)
            t[np.arange(rows), hot] = 1.0
            t[0, start:stop] = 0.0        # an all-zero target row
    return p, t


@pytest.mark.parametrize("kind", sorted(SEGMENT_SPECS))
@pytest.mark.parametrize("rows", [1, 64])
def test_segment_kernel_matches_reference_formulas_bitwise(kind, rows):
    spec = SEGMENT_SPECS[kind]
    p, t = _segment_case(spec, rows, seed=rows)
    assert loss(spec, p, t) == _reference_loss(spec, p, t)
    assert np.array_equal(output_grad(spec, p, t), _reference_output_grad(spec, p, t))


def test_segment_kernel_rows_do_not_depend_on_their_neighbours():
    """Both hourglass heads share one pass; each head's slice must carry
    the bits a pass of its own rows gives."""
    spec = SEGMENT_SPECS["mixed"]
    p, t = _segment_case(spec, 64, seed=3)
    per_row, grad = nn._segment_pass(spec, p, t)
    for lo, hi in ((0, 1), (0, 31), (31, 64), (5, 6)):
        alone_row, alone_grad = nn._segment_pass(spec, p[lo:hi], t[lo:hi])
        assert np.array_equal(per_row[lo:hi], alone_row)
        assert np.array_equal(grad[lo:hi], alone_grad)
    assert float(per_row[:31].mean()) == _reference_loss(spec, p[:31], t[:31])
    assert np.array_equal(grad[31:] / 33, _reference_output_grad(spec, p[31:], t[31:]))


def test_sgd_step_matches_reference_update():
    rng = np.random.default_rng(4)
    layer = dense_layer(rng, 6, 5, layer_norm=True, relu=True)
    g = tuple(rng.normal(size=s) for s in ((5, 6), 5, 5, 5))
    want = [w - 0.037 * dw for w, dw in zip((layer.W, layer.b, layer.gain, layer.beta), g)]
    sgd_step(Network([layer]), [g], 0.037)
    assert all(np.array_equal(a, b) for a, b in
               zip((layer.W, layer.b, layer.gain, layer.beta), want, strict=True))
