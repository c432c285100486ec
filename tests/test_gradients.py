import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    DRAWN_NETS,
    NO_SHRINK,
    fd_param_gradient,
    max_rel_error,
    random_convnet,
    random_mlp,
)
from rewc.errors import StateError
from rewc.layers import Dense
from rewc.network import Network, backward, forward, grow_head, label_gradient, softmax
from rewc.optim import AdamState, adam_step


def test_logit_layer_gradient_closed_form():
    net = Network([Dense(np.eye(3), np.zeros(3))], 0, (3,))
    x = np.random.default_rng(0).normal(size=(5, 3))
    y = np.array([0, 2, 1, 1, 0])
    logits, cache = forward(net, x)
    deltas = backward(net, cache, label_gradient(softmax(logits), y), record_only=True)
    expect = softmax(logits)
    expect[np.arange(5), y] -= 1.0
    expect /= 5
    assert np.max(np.abs(deltas[0] - expect)) < 1e-12


def test_zero_input_dense_grads():
    net = Network([Dense(np.ones((3, 4)), np.zeros(3))], 0, (4,))
    x = np.zeros((6, 4))
    y = np.array([0, 1, 2, 0, 1, 2])
    logits, cache = forward(net, x)
    _, grads = backward(net, cache, y)
    deltas = backward(net, cache, label_gradient(softmax(logits), y), record_only=True)
    assert np.all(grads["0.W"] == 0.0)
    upstream = deltas[0].sum(axis=0)
    assert np.array_equal(grads["0.b"], upstream)


def test_loss_value_matches_oracle():
    net = Network([Dense(np.eye(2), np.zeros(2))], 0, (2,))
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
    with pytest.raises(StateError):
        backward(net, cache, np.zeros((4, net.head_classes + 1)), record_only=True)


@pytest.mark.parametrize("name", sorted(DRAWN_NETS))
@pytest.mark.parametrize("rotated", [False, True], ids=["plain", "rotated"])
@settings(max_examples=8, phases=NO_SHRINK)
@given(grown=st.integers(0, 2), n=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
def test_finite_differences_match_backward(name, rotated, grown, n, seed):
    # A rotated net rotates every layer but its head, which may then grow.
    rng = np.random.default_rng(seed)
    net = DRAWN_NETS[name](rng, rotated=rotated)
    if grown:
        grow_head(net, grown)
    x = rng.normal(size=(n,) + net.input_shape)
    y = rng.integers(0, net.head_classes, n)
    _, cache = forward(net, x)
    _, grads = backward(net, cache, y)
    assert grads.keys() == net.params().keys()
    for key in net.params():
        fd = fd_param_gradient(net, x, y, key)
        assert max_rel_error(grads[key], fd) < 1e-4, key


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_loss_decreases_on_separable_batch(seed):
    rng = np.random.default_rng(40 + seed)
    x = np.concatenate([rng.normal(-2.0, 0.3, (16, 4)), rng.normal(2.0, 0.3, (16, 4))])
    y = np.array([0] * 16 + [1] * 16)
    import rewc

    net = rewc.build_network("mlp-custom", 2, (4,), [8], seed=seed)
    state = AdamState(net)
    _, cache = forward(net, x)
    first, _ = backward(net, cache, y)
    loss = first
    for _ in range(50):
        logits, cache = forward(net, x)
        loss, grads = backward(net, cache, y)
        adam_step(net, grads, state, 1e-3)
    assert loss < first
