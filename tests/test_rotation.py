import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    DRAWN_NETS,
    random_convnet,
    random_mlp,
    random_rotation,
    reference_accumulate_correlations,
)
from rewc.checkpoint import load_network, save_network
from rewc.errors import AlignmentError, DimensionError, StateError
from rewc.layers import Conv2D, Dense, Flatten, ReLU
from rewc.network import (
    Network,
    backward,
    build_network,
    forward,
    label_gradient,
    layout_signature,
    softmax,
)
from rewc.rotation import (
    SCOPES,
    CorrelationStats,
    accumulate_correlations,
    combine_network,
    rotate_network,
    scope_selects,
)


def identity_stats(net, scale=1.0):
    ids = scope_selects(net, "all_no_last")
    cx, cz = {}, {}
    for i in ids:
        layer = net.layers[i]
        d1 = layer.W.shape[1] if isinstance(layer, Dense) else layer.K.shape[2]
        d2 = layer.W.shape[0] if isinstance(layer, Dense) else layer.K.shape[3]
        cx[i] = np.eye(d1) * scale
        cz[i] = np.eye(d2) * scale
    return CorrelationStats(cx, cz, net_signature=layout_signature(net))


def test_whitened_inputs_give_identity_correlation():
    net = build_network("mlp-custom", input_shape=(6,), hidden=[4, 3], seed=0)
    x = np.random.default_rng(0).normal(size=(10_000, 6))
    stats = accumulate_correlations(net, x, sample_budget=10_000, rng=np.random.default_rng(1),
                                    scope="all_no_last")
    cx = stats.input_corr[0]
    assert np.max(np.abs(cx - np.eye(6))) < 0.05


def test_accumulators_symmetric():
    rng = np.random.default_rng(2)
    for maker in (random_mlp, random_convnet):
        net = maker(rng)
        x = rng.normal(size=(40,) + net.input_shape)
        stats = accumulate_correlations(net, x, sample_budget=40, rng=rng, scope="all_no_last")
        for c in list(stats.input_corr.values()) + list(stats.grad_corr.values()):
            assert np.max(np.abs(c - c.T)) < 1e-12


def test_conv_1x1_degenerate_matches_dense():
    rng = np.random.default_rng(3)
    d = 5
    w = rng.normal(size=(3, d))
    dense_net = Network([Dense(w.copy(), np.zeros(3)), Dense(np.eye(3), np.zeros(3))], 0, (d,))
    conv_net = Network(
        [Conv2D(w.T.reshape(1, 1, d, 3).copy(), np.zeros(3)), Flatten(),
         Dense(np.eye(3), np.zeros(3))],
        0, (1, 1, d),
    )
    x = rng.normal(size=(30, d))
    sd = accumulate_correlations(dense_net, x, sample_budget=30,
                                 rng=np.random.default_rng(9), labels=None, scope="all_no_last")
    sc = accumulate_correlations(conv_net, x.reshape(30, 1, 1, d), sample_budget=30,
                                 rng=np.random.default_rng(9), scope="all_no_last")
    assert np.max(np.abs(sd.input_corr[0] - sc.input_corr[0])) < 1e-10


def test_identity_correlations_leave_network_unchanged():
    net = build_network("mlp-custom", input_shape=(5,), hidden=[6, 3], seed=1)
    stats = identity_stats(net)
    rot = rotate_network(net, stats)
    x = np.random.default_rng(4).normal(size=(12, 5))
    l0, _ = forward(net, x)
    l1, _ = forward(rot, x)
    assert np.max(np.abs(l0 - l1)) == 0.0
    for layer in [l for l in rot.layers if l.rotated]:
        assert np.array_equal(layer.U1, np.eye(layer.U1.shape[0]))
        assert np.array_equal(layer.U2, np.eye(layer.U2.shape[0]))
    assert np.array_equal(rot.layers[0].W, net.layers[0].W)


def test_distinct_diagonal_correlations_give_signed_permutations():
    net = build_network("mlp-custom", input_shape=(4,), hidden=[3, 2], seed=2)
    ids = scope_selects(net, "all_no_last")
    cx, cz = {}, {}
    rng = np.random.default_rng(5)
    for i in ids:
        d1 = net.layers[i].W.shape[1]
        d2 = net.layers[i].W.shape[0]
        cx[i] = np.diag(rng.permutation(np.arange(1.0, d1 + 1.0)))
        cz[i] = np.diag(rng.permutation(np.arange(1.0, d2 + 1.0)))
    stats = CorrelationStats(cx, cz, layout_signature(net))
    rot = rotate_network(net, stats)
    for layer in rot.layers:
        if not layer.rotated:
            continue
        for u in (layer.U1, layer.U2):
            # exactly one unit entry per row/column
            assert np.allclose(np.abs(u) @ np.ones(u.shape[0]), 1.0, atol=1e-12)
            assert np.allclose(np.abs(u).T @ np.ones(u.shape[0]), 1.0, atol=1e-12)
    x = np.random.default_rng(6).normal(size=(9, 4))
    l0, _ = forward(net, x)
    l1, _ = forward(rot, x)
    assert np.max(np.abs(l0 - l1)) < 1e-12


SCOPE_NETS = {
    "convnet": lambda rng: random_convnet(rng, hidden_dense=True),
    "lenet": lambda rng: build_network("lenet", head_classes=3, input_shape=(16, 16, 1), seed=5),
    "mlp": lambda rng: random_mlp(rng),
}


@pytest.mark.parametrize("scope,expected_kinds", [
    ("conv_only", {"conv2d"}),
    ("fc_only", {"dense"}),
    ("all_no_last", {"conv2d", "dense"}),
])
@pytest.mark.parametrize("name", sorted(SCOPE_NETS))
def test_scope_selection(name, scope, expected_kinds):
    # Every layer of a selected kind is rotated, except the head; an MLP has
    # no conv layer, so conv_only leaves it as it is.
    rng = np.random.default_rng(7)
    net = SCOPE_NETS[name](rng)
    x = rng.normal(size=(25,) + net.input_shape)
    stats = accumulate_correlations(net, x, sample_budget=25, rng=rng, scope=scope)
    rot = rotate_network(net, stats)
    expected = [i for i, l in enumerate(net.layers)
                if l.kind in expected_kinds and i != net.head_index]
    assert list(stats.input_corr) == list(stats.grad_corr) == expected
    assert [i for i, l in enumerate(rot.layers) if l.rotated] == expected
    after = rot.params()
    for key, p in net.params().items():
        if int(key.split(".")[0]) not in expected:
            assert p.tobytes() == after[key].tobytes(), key
    assert (len(expected) == 0) == (name == "mlp" and scope == "conv_only")
    assert not rot.layers[rot.head_index].rotated
    l0, _ = forward(net, x[:5])
    l1, _ = forward(rot, x[:5])
    assert np.max(np.abs(l0 - l1)) < 1e-8


def test_unknown_scope_names_the_scopes():
    net = build_network("mlp-custom", input_shape=(5,), hidden=[6, 3], seed=1)
    message = re.escape(f"scope must be one of {SCOPES}, got 'bogus'")
    with pytest.raises(ValueError, match=message):
        scope_selects(net, "bogus")
    with pytest.raises(ValueError, match=message):
        accumulate_correlations(net, np.zeros((5, 5)), 5, np.random.default_rng(0),
                                scope="bogus")


def test_rotated_space_correlations_are_diagonal():
    rng = np.random.default_rng(8)
    net = build_network("mlp-custom", input_shape=(6,), hidden=[7, 5, 3], seed=3)
    x = rng.normal(size=(50, 6)) @ rng.normal(size=(6, 6))  # correlated inputs
    y = rng.integers(0, 3, 50)
    stats = accumulate_correlations(net, x, sample_budget=50, rng=rng,
                                    labels=y, use_true_labels=True, scope="all_no_last")
    rot = rotate_network(net, stats)
    # re-accumulate empirically inside the rotated network, same samples/labels
    _, cache = forward(rot, x)
    deltas = backward(rot, cache, label_gradient(softmax(cache.logits), y), record_only=True)
    for i, layer in enumerate(rot.layers):
        if not layer.rotated:
            continue
        xin = cache.inputs[i] @ layer.U1.T
        z = deltas[i] @ layer.U2 * x.shape[0]
        for c in (xin.T @ xin, z.T @ z):
            off = c - np.diag(np.diag(c))
            total = float(np.sum(c * c))
            assert np.sum(off * off) / total < 1e-8


def test_combine_inverts_rotation_exactly():
    rng = np.random.default_rng(9)
    for net in (random_mlp(rng), random_convnet(rng, hidden_dense=True)):
        x = rng.normal(size=(30,) + net.input_shape)
        stats = accumulate_correlations(net, x, sample_budget=30, rng=rng, scope="all_no_last")
        rot = rotate_network(net, stats)
        back = combine_network(rot)
        for la, lb in zip(net.layers, back.layers):
            assert la.kind == lb.kind
            for k, v in la.params().items():
                assert np.max(np.abs(v - lb.params()[k])) < 1e-10


def test_combine_without_pairs_is_identity():
    net = random_mlp(np.random.default_rng(10))
    out = combine_network(net)
    assert [l.kind for l in out.layers] == [l.kind for l in net.layers]
    for la, lb in zip(net.layers, out.layers):
        for k, v in la.params().items():
            assert np.array_equal(v, lb.params()[k])


def test_combine_after_training_preserves_function():
    import rewc

    rng = np.random.default_rng(11)
    net = build_network("mlp-custom", input_shape=(6,), hidden=[8, 4], seed=4)
    x = rng.normal(size=(40, 6))
    y = rng.integers(0, 4, 40)
    stats = accumulate_correlations(net, x, sample_budget=40, rng=rng, scope="all_no_last")
    rot = rotate_network(net, stats)
    state = rewc.AdamState(rot)
    for _ in range(25):
        _, cache = forward(rot, x)
        _, grads = backward(rot, cache, y)
        rewc.adam_step(rot, grads, state, 1e-2)
    fused = combine_network(rot)
    probe = rng.normal(size=(100, 6))
    l0, _ = forward(rot, probe)
    l1, _ = forward(fused, probe)
    assert np.max(np.abs(l0 - l1)) < 1e-8
    assert not fused.is_rotated()


def test_conv_rotate_contracts():
    rng = np.random.default_rng(12)
    # 1-channel degenerate case: U's collapse to +1 and the kernel is unchanged
    k1 = rng.normal(size=(3, 3, 1, 1))
    out = Conv2D.rotate(k1, np.array([[1.0]]), np.array([[1.0]]))
    assert np.array_equal(out, k1)
    # orthogonal invariance of per-slice Frobenius norm
    k = rng.normal(size=(3, 3, 4, 6))
    q1, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    q2, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    kr = Conv2D.rotate(k, q1, q2)
    for a in range(3):
        for b in range(3):
            assert np.linalg.norm(kr[a, b]) == pytest.approx(np.linalg.norm(k[a, b]), abs=1e-12)


def test_conv_sandwich_equals_plain_conv():
    rng = np.random.default_rng(13)
    k = rng.normal(size=(3, 3, 4, 6))
    x = rng.normal(size=(5, 8, 8, 4))
    q1, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    q2, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    u1, u2 = q1.T, q2  # layer matrices around the kernel
    b = rng.normal(size=6)
    plain = Conv2D(k, b).forward_cached(x)[0]
    kr = Conv2D.rotate(k, u1, u2)
    # the sandwich x -> U1 -> conv(kr) -> U2, then the bias, step by step ...
    h = Conv2D(kr, np.zeros(6)).forward_cached(x @ u1.T)[0] @ u2.T + b
    assert np.max(np.abs(h - plain)) < 1e-8
    # ... and as the rotated layer's one convolution
    assert np.max(np.abs(Conv2D(kr, b, u1, u2).forward_cached(x)[0] - plain)) < 1e-8


def test_trainable_parameter_count_preserved():
    rng = np.random.default_rng(14)
    net = random_convnet(rng)
    x = rng.normal(size=(20,) + net.input_shape)
    stats = accumulate_correlations(net, x, sample_budget=20, rng=rng, scope="all_no_last")
    rot = rotate_network(net, stats)
    count = sum(p.size for p in net.params().values())
    assert sum(p.size for p in rot.params().values()) == count


def test_rotated_layers_keep_their_places():
    rng = np.random.default_rng(15)
    net = random_convnet(rng, hidden_dense=True)
    x = rng.normal(size=(20,) + net.input_shape)
    stats = accumulate_correlations(net, x, sample_budget=20, rng=rng, scope="all_no_last")
    rot = rotate_network(net, stats)
    assert [l.kind for l in rot.layers] == [l.kind for l in net.layers]
    assert list(rot.params()) == list(net.params())
    for i, (la, lb) in enumerate(zip(net.layers, rot.layers)):
        assert lb.rotated == (isinstance(la, (Dense, Conv2D)) and i != net.head_index)
        if lb.rotated:
            assert np.array_equal(lb.b, la.b)  # the bias stays outside the rotation
    assert layout_signature(rot) != layout_signature(net)


def test_state_and_alignment_errors():
    rng = np.random.default_rng(16)
    net = random_mlp(rng)
    x = rng.normal(size=(15, net.input_shape[0]))
    stats = accumulate_correlations(net, x, sample_budget=15, rng=rng, scope="all_no_last")
    rot = rotate_network(net, stats)
    with pytest.raises(StateError):
        accumulate_correlations(rot, x, sample_budget=5, rng=rng, scope="all_no_last")
    with pytest.raises(StateError):
        rotate_network(rot, stats)
    other = random_mlp(np.random.default_rng(99))
    with pytest.raises(AlignmentError):
        rotate_network(other, stats)
    # A rotated head could not grow for a new task.
    head = net.layers[net.head_index]
    with_head = CorrelationStats({**stats.input_corr, net.head_index: np.eye(head.W.shape[1])},
                                 {**stats.grad_corr, net.head_index: np.eye(head.W.shape[0])},
                                 stats.net_signature)
    with pytest.raises(AlignmentError, match="hold the head"):
        rotate_network(net, with_head)


def test_rotation_pair_orthogonality_enforced():
    skew = np.array([[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(DimensionError, match="U1 is not orthogonal"):
        Dense(np.zeros((2, 2)), np.zeros(2), U1=skew, U2=np.eye(2))
    with pytest.raises(DimensionError, match="U2 is not orthogonal"):
        Conv2D(np.zeros((3, 3, 2, 2)), np.zeros(2), U1=np.eye(2), U2=skew)
    with pytest.raises(DimensionError, match="U2 must be 3x3"):
        Dense(np.zeros((3, 2)), np.zeros(3), U1=np.eye(2), U2=np.eye(2))
    with pytest.raises(DimensionError, match="both"):
        Dense(np.zeros((2, 2)), np.zeros(2), U1=np.eye(2))
    # NaN fails every comparison, so it once passed the orthogonality check,
    # and 1e200 overflowed in U^T U; neither may warn (warnings are errors).
    for bad in (np.inf, -np.inf, np.nan, 1.5, 1e200):
        u = np.eye(2)
        u[0, 1] = bad
        with pytest.raises(DimensionError, match="U1 is not orthogonal"):
            Dense(np.zeros((2, 2)), np.zeros(2), U1=u, U2=np.eye(2))
        with pytest.raises(DimensionError, match="U2 is not orthogonal"):
            Conv2D(np.zeros((3, 3, 2, 2)), np.zeros(2), U1=np.eye(2), U2=u)


@pytest.mark.parametrize("cls, shape", [(Dense, (3, 4)), (Conv2D, (3, 3, 4, 3))],
                         ids=["dense", "conv2d"])
def test_rotated_by_takes_only_a_plain_layer_and_a_rotation_of_its_size(cls, shape):
    rng = np.random.default_rng(23)
    plain = cls(rng.normal(size=shape), rng.normal(size=3))
    u1, u2 = random_rotation(rng, 4, 3)
    rot = plain.rotated_by(u1, u2)
    # Rotating again would drop the first rotation and change the function.
    with pytest.raises(StateError, match="already rotated"):
        rot.rotated_by(u1, u2)
    with pytest.raises(DimensionError, match="U2 must be 3x3"):
        plain.rotated_by(u1, u1)
    with pytest.raises(DimensionError, match="U1 must be 4x4"):
        plain.rotated_by(u2, u2)


@pytest.mark.parametrize("scope", SCOPES)
@pytest.mark.parametrize("name", sorted(SCOPE_NETS))
@pytest.mark.parametrize("labelled", ["none", "stratified", "true"])
def test_correlations_equal_reference_engine_bit_for_bit(name, labelled, scope):
    # 130 samples: two full chunks and a partial one.  The pass reduces only
    # the scope's layers, to the reference engine's sums over the budget.
    rng = np.random.default_rng(17)
    net = SCOPE_NETS[name](rng)
    x = rng.normal(size=(160,) + net.input_shape)
    labels = None if labelled == "none" else np.arange(160) % net.head_classes
    true = labelled == "true"
    rng_new, rng_ref = np.random.default_rng(3), np.random.default_rng(3)
    stats = accumulate_correlations(net, x, 130, rng_new, labels, scope=scope,
                                    use_true_labels=true)
    cx, cz = reference_accumulate_correlations(net, x, 130, rng_ref, labels, true)
    assert list(stats.input_corr) == list(stats.grad_corr) == scope_selects(net, scope)
    for i in stats.input_corr:
        assert stats.input_corr[i].tobytes() == (cx[i] / 130).tobytes()
        assert stats.grad_corr[i].tobytes() == (cz[i] / 130).tobytes()
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state


def test_true_labels_need_labels():
    net = random_mlp(np.random.default_rng(18))
    x = np.zeros((10, net.input_shape[0]))
    with pytest.raises(DimensionError, match="requires labels"):
        accumulate_correlations(net, x, 5, np.random.default_rng(0), scope="all_no_last",
                                use_true_labels=True)


def stacked_rectangular_convnet(seed):
    """Two convs back to back, with no pool between them: a 5x3 kernel on a
    non-square input, then a 1x1 kernel."""
    rng = np.random.default_rng(seed)
    layers = [
        Conv2D(rng.normal(0, 0.4, (5, 3, 2, 4)), rng.normal(0, 0.1, 4)),
        ReLU(),
        Conv2D(rng.normal(0, 0.4, (1, 1, 4, 5)), rng.normal(0, 0.1, 5)),
        ReLU(),
        Flatten(),
        Dense(rng.normal(0, 0.3, (3, 5 * 5 * 5)), rng.normal(0, 0.1, 3)),
    ]
    return Network(layers, seed, (9, 7, 2))


def assert_close_to_largest(actual, expected, what, rtol=1e-12):
    assert actual.shape == expected.shape, what
    assert np.max(np.abs(actual - expected)) <= rtol * np.max(np.abs(expected)), what


NETS = {
    "mlp": lambda rng: random_mlp(rng),
    "convnet": lambda rng: random_convnet(rng, hidden_dense=True),
    "lenet": lambda rng: build_network("lenet", head_classes=3, input_shape=(16, 16, 1), seed=5),
    "lenet-3-channels": lambda rng: build_network("lenet", head_classes=3,
                                                  input_shape=(16, 16, 3), seed=6),
    "convnet-unpooled": lambda rng: random_convnet(rng, size=7),
    "stacked-rectangular-convs": lambda rng: stacked_rectangular_convnet(7),
}


def with_rotated_head(net, rng):
    """``net`` with its head under a random rotation.  No scope selects the
    head, but a loaded checkpoint or a hand-built network can carry a
    rotated one."""
    i = net.head_index
    head = net.layers[i]
    layers = [l.clone() for l in net.layers]
    layers[i] = head.rotated_by(*random_rotation(rng, head.W.shape[1], head.W.shape[0]))
    return Network(layers, net.rng_seed, net.input_shape)


@pytest.mark.parametrize("head_rotated", [True, False], ids=["head-rotated", "head-plain"])
@pytest.mark.parametrize("scope", SCOPES)
@pytest.mark.parametrize("name", sorted(NETS))
def test_rotated_gradients_are_the_plain_gradients_mapped(name, scope, head_rotated):
    # A rotated layer's parameter is W' with W = U2 W' U1 (per kernel slice
    # for a conv), so by the chain rule its gradient is the plain network's
    # mapped: U2^T gW U1^T, Conv2D.rotate(gK, U1, U2); the bias, outside
    # U2, keeps its gradient.
    rng = np.random.default_rng(31)
    net = NETS[name](rng)
    x = rng.normal(size=(24,) + net.input_shape)
    y = np.arange(len(x)) % net.head_classes
    rot = rotate_network(net, accumulate_correlations(net, x, 24, rng, scope=scope))
    if head_rotated:
        rot = with_rotated_head(rot, rng)
    assert rot.layers[rot.head_index].rotated == head_rotated
    plain = combine_network(rot)
    l_rot, cache = forward(rot, x)
    l_plain, plain_cache = forward(plain, x)
    assert_close_to_largest(l_rot, l_plain, "logits")
    _, grads = backward(rot, cache, y)
    _, ref = backward(plain, plain_cache, y)
    assert grads.keys() == ref.keys()
    for key, g in ref.items():
        layer = rot.layers[int(key.split(".")[0])]
        if layer.rotated and key.endswith(".W"):
            g = layer.U2.T @ g @ layer.U1.T
        elif layer.rotated and key.endswith(".K"):
            g = Conv2D.rotate(g, layer.U1, layer.U2)
        assert_close_to_largest(grads[key], g, key)


@settings(max_examples=60)
@given(name=st.sampled_from(sorted(DRAWN_NETS)), scope=st.sampled_from(SCOPES),
       seed=st.integers(0, 2**32 - 1))
def test_rotation_folds_back_and_round_trips(name, scope, seed):
    rng = np.random.default_rng(seed)
    net = DRAWN_NETS[name](rng)
    x = rng.normal(size=(20,) + net.input_shape)
    rot = rotate_network(net, accumulate_correlations(net, x, sample_budget=20, rng=rng,
                                                      scope=scope))
    # Rotating, then folding, keeps the forward function.
    l0, _ = forward(net, x)
    l1, _ = forward(combine_network(rot), x)
    assert np.max(np.abs(l1 - l0)) <= 1e-12 * np.max(np.abs(l0))
    # Each rotated layer's rotation folds back into its plain weight.
    for plain, layer in zip(net.layers, rot.layers):
        if layer.rotated:
            back = plain.rotated_by(layer.U1, layer.U2).folded()
            assert not back.rotated
            err = np.max(np.abs(back.weight - plain.weight))
            assert err <= 1e-12 * np.max(np.abs(plain.weight))
    # The rotated network loads back and saves to the same bytes.
    with tempfile.TemporaryDirectory() as d:
        first, second = os.path.join(d, "first.rewc"), os.path.join(d, "second.rewc")
        save_network(rot, first)
        save_network(load_network(first), second)
        with open(first, "rb") as a, open(second, "rb") as b:
            assert a.read() == b.read()
