import math

import numpy as np
import pytest

from opembed.errors import TrainingDivergedError
from opembed.nn import (
    DenseLayer,
    LayerGrads,
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

    def step(idx):
        fwd = forward(net, X[idx])
        return loss(spec, fwd.activations[-1], Y[idx]), [backward(net, spec, fwd, Y[idx])]

    return net, train([net], cfg, len(X), step)


def affine(W, b, ln=False, relu=False):
    W = np.asarray(W, dtype=float)
    gain = np.ones(W.shape[0]) if ln else None
    beta = np.zeros(W.shape[0]) if ln else None
    return DenseLayer(W, np.asarray(b, dtype=float), ln, relu, gain, beta)


def test_identity_layer():
    net = Network([affine(np.eye(3), np.zeros(3))])
    x = np.array([1.5, -2.0, 0.25])
    assert np.array_equal(predict(net, x), x)


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
    assert not grads[0].dW.any()
    assert not grads[0].db.any()


def test_sgd_zero_lr_is_identity(rng):
    layer = dense_layer(rng, 2, 2, layer_norm=False, relu=False)
    net = Network([layer])
    before = layer.W.copy()
    grads = [LayerGrads(np.ones_like(layer.W), np.ones_like(layer.b), None, None)]
    sgd_step(net, grads, lr=0.0)
    assert np.array_equal(layer.W, before)


def test_sgd_quadratic_closed_form():
    # loss w^2 at w=1 has gradient 2; lr 0.1 moves w to 0.8
    layer = affine(np.array([[1.0]]), np.zeros(1))
    net = Network([layer])
    grads = [LayerGrads(np.array([[2.0]]), np.zeros(1), None, None)]
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


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
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
