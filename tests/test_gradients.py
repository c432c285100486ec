import numpy as np
import pytest

from helpers import fd_param_gradient, max_rel_error, random_convnet, random_mlp
from rewc.errors import StateError
from rewc.layers import Dense
from rewc.network import Network, backward, forward, softmax
from rewc.optim import AdamState, adam_step


def test_logit_layer_gradient_closed_form():
    net = Network([Dense(np.eye(3), np.zeros(3))], 3, 0, (3,))
    x = np.random.default_rng(0).normal(size=(5, 3))
    y = np.array([0, 2, 1, 1, 0])
    logits, cache = forward(net, x)
    _, gset = backward(net, cache, y)
    expect = softmax(logits)
    expect[np.arange(5), y] -= 1.0
    expect /= 5
    assert np.max(np.abs(gset.layer_output_grads[0] - expect)) < 1e-12


def test_zero_input_dense_grads():
    net = Network([Dense(np.ones((3, 4)), np.zeros(3))], 3, 0, (4,))
    x = np.zeros((6, 4))
    y = np.array([0, 1, 2, 0, 1, 2])
    logits, cache = forward(net, x)
    _, gset = backward(net, cache, y)
    assert np.all(gset.grads["0.W"] == 0.0)
    upstream = gset.layer_output_grads[0].sum(axis=0)
    assert np.array_equal(gset.grads["0.b"], upstream)


def test_loss_value_matches_oracle():
    net = Network([Dense(np.eye(2), np.zeros(2))], 2, 0, (2,))
    logits = np.array([[2.0, 0.0]])
    cache_logits, cache = forward(net, logits)
    loss, _ = backward(net, cache, np.array([0]))
    # -log softmax computed independently
    assert loss == pytest.approx(-np.log(np.exp(2.0) / (np.exp(2.0) + 1.0)), rel=1e-12)


def test_stale_cache_rejected():
    net = random_mlp(np.random.default_rng(1))
    other = random_convnet(np.random.default_rng(2))
    x = np.random.default_rng(3).normal(size=(4, net.input_shape[0]))
    _, cache = forward(net, x)
    with pytest.raises(StateError):
        backward(other, cache, np.array([0, 1, 0, 1]))
    with pytest.raises(StateError):
        backward(net, cache, np.array([0, 1]))  # wrong batch size
    with pytest.raises(StateError):
        backward(net, cache, np.full(4, net.head_classes))  # label out of range


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_mlp_finite_differences(seed):
    rng = np.random.default_rng(100 + seed)
    net = random_mlp(rng)
    x = rng.normal(size=(5, net.input_shape[0]))
    y = rng.integers(0, net.head_classes, 5)
    _, cache = forward(net, x)
    _, gset = backward(net, cache, y)
    for key, _, _ in net.trainable_keys():
        fd = fd_param_gradient(net, x, y, key)
        assert max_rel_error(gset.grads[key], fd) < 1e-4, key


@pytest.mark.parametrize("rotated", [False, True])
def test_conv_stack_finite_differences(rotated):
    rng = np.random.default_rng(7 if rotated else 8)
    net = random_convnet(rng, rotated=rotated)
    x = rng.normal(size=(3,) + net.input_shape)
    y = rng.integers(0, net.head_classes, 3)
    _, cache = forward(net, x)
    _, gset = backward(net, cache, y)
    for key, _, _ in net.trainable_keys():
        fd = fd_param_gradient(net, x, y, key)
        assert max_rel_error(gset.grads[key], fd) < 1e-4, key


def test_gradients_flow_through_fixed_dense():
    # The frozen dense maps are the rotation matrices inside a rotated layer.
    rng = np.random.default_rng(11)
    net = random_mlp(rng, rotated=True)
    x = rng.normal(size=(4, net.input_shape[0]))
    y = rng.integers(0, net.head_classes, 4)
    _, cache = forward(net, x)
    _, gset = backward(net, cache, y)
    first_key = net.trainable_keys()[0][0]
    fd = fd_param_gradient(net, x, y, first_key)
    assert max_rel_error(gset.grads[first_key], fd) < 1e-4


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_loss_decreases_on_separable_batch(seed):
    rng = np.random.default_rng(40 + seed)
    x = np.concatenate([rng.normal(-2.0, 0.3, (16, 4)), rng.normal(2.0, 0.3, (16, 4))])
    y = np.array([0] * 16 + [1] * 16)
    import rewc

    net = rewc.build_network("mlp-custom", input_shape=(4,), hidden=[8, 2], seed=seed)
    state = AdamState(net)
    _, cache = forward(net, x)
    first, _ = backward(net, cache, y)
    loss = first
    for _ in range(50):
        logits, cache = forward(net, x)
        loss, gset = backward(net, cache, y)
        adam_step(net, gset.grads, state, 1e-3)
    assert loss < first
