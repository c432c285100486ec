import numpy as np
import pytest

from rewc.layers import Dense
from rewc.network import Network
from rewc.optim import AdamState, adam_step


def scalar_net(w0=0.0):
    return Network([Dense(np.array([[w0]]), np.zeros(1))], 0, (1,))


def test_zero_gradient_is_fixed_point():
    net = scalar_net(0.7)
    state = AdamState(net)
    adam_step(net, {"0.W": np.zeros((1, 1))}, state, 0.1)
    assert net.layers[0].W[0, 0] == 0.7


def test_first_step_magnitude_is_lr():
    for g in (0.5, -3.0, 1e-3):
        net = scalar_net(0.0)
        state = AdamState(net)
        adam_step(net, {"0.W": np.array([[g]])}, state, 0.01)
        step = net.layers[0].W[0, 0]
        assert step == pytest.approx(-np.sign(g) * 0.01, rel=1e-4)


def test_two_step_hand_recurrence():
    lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
    net = scalar_net(0.0)
    state = AdamState(net)
    # independent hand-rolled recurrence
    theta, m, v = 0.0, 0.0, 0.0
    for t in (1, 2):
        g = 1.0
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mhat = m / (1 - b1**t)
        vhat = v / (1 - b2**t)
        theta -= lr * mhat / (np.sqrt(vhat) + eps)
        adam_step(net, {"0.W": np.array([[1.0]])}, state, lr)
        assert net.layers[0].W[0, 0] == pytest.approx(theta, abs=1e-15)


def test_fixed_layers_untouched():
    import rewc

    net = rewc.build_network("mlp-custom", input_shape=(4,), hidden=[5, 2], seed=0)
    x = np.random.default_rng(0).normal(size=(10, 4))
    stats = rewc.accumulate_correlations(net, x, sample_budget=10, rng=np.random.default_rng(1),
                                         scope="all_no_last")
    rot = rewc.rotate_network(net, stats)
    # A rotated layer's frozen maps are its rotation matrices.
    u_before = [u.copy() for l in rot.layers if l.rotated for u in (l.U1, l.U2)]
    assert len(u_before) == 2
    state = AdamState(rot)
    grads = {k: np.ones_like(p) for k, p in rot.params().items()}
    adam_step(rot, grads, state, 0.1)
    u_after = [u for l in rot.layers if l.rotated for u in (l.U1, l.U2)]
    for b, a in zip(u_before, u_after):
        assert np.array_equal(b, a)


def test_lr_must_be_positive():
    net = scalar_net()
    with pytest.raises(ValueError):
        adam_step(net, {"0.W": np.ones((1, 1))}, AdamState(net), 0.0)
