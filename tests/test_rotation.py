import numpy as np
import pytest

from helpers import random_convnet, random_mlp, reference_accumulate_correlations
from rewc.errors import AlignmentError, DimensionError, StateError
from rewc.layers import Conv2D, Dense, Flatten, ReLU
from rewc.network import Network, backward, build_network, forward, layout_signature
from rewc.rotation import (
    CorrelationStats,
    RotationScope,
    accumulate_correlations,
    combine_network,
    rotate_conv_kernel,
    rotate_network,
)


def identity_stats(net, scale=1.0):
    ids = [i for i, l in enumerate(net.layers) if isinstance(l, (Dense, Conv2D))]
    cx, cz = {}, {}
    for i in ids:
        layer = net.layers[i]
        d1 = layer.W.shape[1] if isinstance(layer, Dense) else layer.K.shape[2]
        d2 = layer.W.shape[0] if isinstance(layer, Dense) else layer.K.shape[3]
        cx[i] = np.eye(d1) * scale
        cz[i] = np.eye(d2) * scale
    return CorrelationStats(cx, cz, count=1, net_signature=layout_signature(net))


def test_whitened_inputs_give_identity_correlation():
    net = build_network("mlp-custom", input_shape=(6,), hidden=[4], seed=0)
    x = np.random.default_rng(0).normal(size=(10_000, 6))
    stats = accumulate_correlations(net, x, sample_budget=10_000, rng=np.random.default_rng(1))
    cx = stats.input_corr[0] / stats.count
    assert np.max(np.abs(cx - np.eye(6))) < 0.05


def test_accumulators_symmetric():
    rng = np.random.default_rng(2)
    for maker in (random_mlp, random_convnet):
        net = maker(rng)
        x = rng.normal(size=(40,) + net.input_shape)
        stats = accumulate_correlations(net, x, sample_budget=40, rng=rng)
        for c in list(stats.input_corr.values()) + list(stats.grad_corr.values()):
            assert np.max(np.abs(c - c.T)) < 1e-12


def test_conv_1x1_degenerate_matches_dense():
    rng = np.random.default_rng(3)
    d = 5
    w = rng.normal(size=(3, d))
    dense_net = Network([Dense(w.copy(), None)], 3, 0, (d,))
    conv_net = Network(
        [Conv2D(w.T.reshape(1, 1, d, 3).copy(), None), Flatten(), Dense(np.eye(3), None)],
        3, 0, (1, 1, d),
    )
    x = rng.normal(size=(30, d))
    sd = accumulate_correlations(dense_net, x, sample_budget=30,
                                 rng=np.random.default_rng(9), labels=None)
    sc = accumulate_correlations(conv_net, x.reshape(30, 1, 1, d), sample_budget=30,
                                 rng=np.random.default_rng(9))
    assert np.max(np.abs(sd.input_corr[0] - sc.input_corr[0])) < 1e-10


def test_identity_correlations_leave_network_unchanged():
    net = build_network("mlp-custom", input_shape=(5,), hidden=[6, 3], seed=1)
    stats = identity_stats(net)
    rot = rotate_network(net, stats, RotationScope.ALL_NO_LAST)
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
    ids = [i for i, l in enumerate(net.layers) if isinstance(l, Dense)]
    cx, cz = {}, {}
    rng = np.random.default_rng(5)
    for i in ids:
        d1 = net.layers[i].W.shape[1]
        d2 = net.layers[i].W.shape[0]
        cx[i] = np.diag(rng.permutation(np.arange(1.0, d1 + 1.0)))
        cz[i] = np.diag(rng.permutation(np.arange(1.0, d2 + 1.0)))
    stats = CorrelationStats(cx, cz, 1, layout_signature(net))
    rot = rotate_network(net, stats, RotationScope.ALL, rotate_head=True)
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


@pytest.mark.parametrize("scope,expected_kinds", [
    (RotationScope.CONV_ONLY, {"conv2d"}),
    (RotationScope.FC_ONLY, {"dense"}),
    (RotationScope.ALL, {"conv2d", "dense"}),
    (RotationScope.ALL_NO_LAST, {"conv2d", "dense"}),
])
def test_scope_selection(scope, expected_kinds):
    rng = np.random.default_rng(7)
    net = random_convnet(rng)
    x = rng.normal(size=(25,) + net.input_shape)
    stats = accumulate_correlations(net, x, sample_budget=25, rng=rng)
    rot = rotate_network(net, stats, scope, rotate_head=True)
    rotated_kinds = {l.kind for l in rot.layers if l.rotated}
    assert rotated_kinds <= expected_kinds
    if scope == RotationScope.ALL_NO_LAST:
        assert not rot.layers[rot.head_index].rotated
    if scope == RotationScope.ALL:
        assert rot.layers[rot.head_index].rotated
    l0, _ = forward(net, x[:5])
    l1, _ = forward(rot, x[:5])
    assert np.max(np.abs(l0 - l1)) < 1e-8


def test_rotated_space_correlations_are_diagonal():
    rng = np.random.default_rng(8)
    net = build_network("mlp-custom", input_shape=(6,), hidden=[7, 5, 3], seed=3)
    x = rng.normal(size=(50, 6)) @ rng.normal(size=(6, 6))  # correlated inputs
    y = rng.integers(0, 3, 50)
    stats = accumulate_correlations(net, x, sample_budget=50, rng=rng,
                                    labels=y, use_true_labels=True)
    rot = rotate_network(net, stats, RotationScope.ALL_NO_LAST)
    # re-accumulate empirically inside the rotated network, same samples/labels
    _, cache = forward(rot, x)
    _, gset = backward(rot, cache, y)
    for i, layer in enumerate(rot.layers):
        if not layer.rotated:
            continue
        xin = gset.layer_inputs[i] @ layer.U1.T
        z = gset.layer_output_grads[i] @ layer.U2 * x.shape[0]
        for c in (xin.T @ xin, z.T @ z):
            off = c - np.diag(np.diag(c))
            total = float(np.sum(c * c))
            assert np.sum(off * off) / total < 1e-8


def test_combine_inverts_rotation_exactly():
    rng = np.random.default_rng(9)
    for maker in (random_mlp, random_convnet):
        net = maker(rng)
        x = rng.normal(size=(30,) + net.input_shape)
        stats = accumulate_correlations(net, x, sample_budget=30, rng=rng)
        rot = rotate_network(net, stats, RotationScope.ALL, rotate_head=True)
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
    stats = accumulate_correlations(net, x, sample_budget=40, rng=rng)
    rot = rotate_network(net, stats, RotationScope.ALL_NO_LAST)
    state = rewc.AdamState(rot)
    for _ in range(25):
        _, cache = forward(rot, x)
        _, gset = backward(rot, cache, y)
        rewc.adam_step(rot, gset.grads, state, 1e-2)
    fused = combine_network(rot)
    probe = rng.normal(size=(100, 6))
    l0, _ = forward(rot, probe)
    l1, _ = forward(fused, probe)
    assert np.max(np.abs(l0 - l1)) < 1e-8
    assert not fused.is_rotated()


def test_rotate_conv_kernel_contracts():
    rng = np.random.default_rng(12)
    # 1-channel degenerate case: U's collapse to +1 and the kernel is unchanged
    k1 = rng.normal(size=(3, 3, 1, 1))
    out = rotate_conv_kernel(k1, np.array([[1.0]]), np.array([[1.0]]))
    assert np.array_equal(out, k1)
    # orthogonal invariance of per-slice Frobenius norm
    k = rng.normal(size=(3, 3, 4, 6))
    q1, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    q2, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    kr = rotate_conv_kernel(k, q1, q2)
    for a in range(3):
        for b in range(3):
            assert np.linalg.norm(kr[a, b]) == pytest.approx(np.linalg.norm(k[a, b]), abs=1e-12)
    with pytest.raises(DimensionError):
        rotate_conv_kernel(k, q2, q1)


def test_conv_sandwich_equals_plain_conv():
    rng = np.random.default_rng(13)
    k = rng.normal(size=(3, 3, 4, 6))
    x = rng.normal(size=(5, 8, 8, 4))
    q1, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    q2, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    u1, u2 = q1.T, q2  # layer matrices around the kernel
    plain = Conv2D(k, None).forward(x)
    kr = rotate_conv_kernel(k, u1, u2)
    # the sandwich x -> U1 -> conv(kr) -> U2, applied step by step ...
    h = Conv2D(kr, None).forward(x @ u1.T) @ u2.T
    assert np.max(np.abs(h - plain)) < 1e-8
    # ... and as the rotated layer's one convolution
    assert np.max(np.abs(Conv2D(kr, None, U1=u1, U2=u2).forward(x) - plain)) < 1e-8


def test_trainable_parameter_count_preserved():
    rng = np.random.default_rng(14)
    net = random_convnet(rng)
    x = rng.normal(size=(20,) + net.input_shape)
    stats = accumulate_correlations(net, x, sample_budget=20, rng=rng)
    rot = rotate_network(net, stats, RotationScope.ALL, rotate_head=True)
    count = sum(net.get_param(k).size for k, _, _ in net.trainable_keys())
    assert sum(rot.get_param(k).size for k, _, _ in rot.trainable_keys()) == count


def test_rotated_layers_keep_their_places():
    rng = np.random.default_rng(15)
    net = random_convnet(rng)
    x = rng.normal(size=(20,) + net.input_shape)
    stats = accumulate_correlations(net, x, sample_budget=20, rng=rng)
    rot = rotate_network(net, stats, RotationScope.ALL, rotate_head=True)
    assert [l.kind for l in rot.layers] == [l.kind for l in net.layers]
    assert [k for k, _, _ in rot.trainable_keys()] == [k for k, _, _ in net.trainable_keys()]
    for la, lb in zip(net.layers, rot.layers):
        assert lb.rotated == isinstance(la, (Dense, Conv2D))
        if lb.rotated:
            assert np.array_equal(lb.b, la.b)  # the bias stays outside the rotation
    assert layout_signature(rot) != layout_signature(net)


def test_state_and_alignment_errors():
    rng = np.random.default_rng(16)
    net = random_mlp(rng)
    x = rng.normal(size=(15, net.input_shape[0]))
    stats = accumulate_correlations(net, x, sample_budget=15, rng=rng)
    rot = rotate_network(net, stats, RotationScope.ALL, rotate_head=True)
    with pytest.raises(StateError):
        accumulate_correlations(rot, x, sample_budget=5, rng=rng)
    with pytest.raises(StateError):
        rotate_network(rot, stats, RotationScope.ALL)
    other = random_mlp(np.random.default_rng(99))
    with pytest.raises(AlignmentError):
        rotate_network(other, stats, RotationScope.ALL)


def test_rotation_pair_orthogonality_enforced():
    skew = np.array([[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(DimensionError, match="U1 is not orthogonal"):
        Dense(np.zeros((2, 2)), U1=skew, U2=np.eye(2))
    with pytest.raises(DimensionError, match="U2 is not orthogonal"):
        Conv2D(np.zeros((3, 3, 2, 2)), U1=np.eye(2), U2=skew)
    with pytest.raises(DimensionError, match="U2 must be 3x3"):
        Dense(np.zeros((3, 2)), U1=np.eye(2), U2=np.eye(2))
    with pytest.raises(DimensionError, match="both"):
        Dense(np.zeros((2, 2)), U1=np.eye(2))


@pytest.mark.parametrize("maker", [random_mlp, random_convnet])
@pytest.mark.parametrize("labelled", ["none", "stratified", "true"])
def test_correlations_equal_reference_engine_bit_for_bit(maker, labelled):
    # 130 samples: two full chunks and a partial one.
    rng = np.random.default_rng(17)
    net = maker(rng)
    x = rng.normal(size=(160,) + net.input_shape)
    labels = None if labelled == "none" else np.arange(160) % net.head_classes
    true = labelled == "true"
    rng_new, rng_ref = np.random.default_rng(3), np.random.default_rng(3)
    stats = accumulate_correlations(net, x, 130, rng_new, labels, use_true_labels=true)
    cx, cz = reference_accumulate_correlations(net, x, 130, rng_ref, labels, true)
    assert stats.count == 130
    assert sorted(stats.input_corr) == sorted(cx) == sorted(stats.grad_corr)
    for i in cx:
        assert stats.input_corr[i].tobytes() == cx[i].tobytes()
        assert stats.grad_corr[i].tobytes() == cz[i].tobytes()
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state


def test_true_labels_need_labels():
    net = random_mlp(np.random.default_rng(18))
    x = np.zeros((10, net.input_shape[0]))
    with pytest.raises(DimensionError, match="requires labels"):
        accumulate_correlations(net, x, 5, np.random.default_rng(0), use_true_labels=True)


def strided_convnet(seed, conv_bias=True):
    rng = np.random.default_rng(seed)
    layers = [
        Conv2D(rng.normal(0, 0.4, (3, 3, 2, 4)), rng.normal(0, 0.1, 4) if conv_bias else None,
               stride=2, padding=1),
        ReLU(),
        Conv2D(rng.normal(0, 0.4, (3, 3, 4, 5)), None, stride=1, padding=1),
        ReLU(),
        Flatten(),
        Dense(rng.normal(0, 0.3, (3, 4 * 4 * 5)), rng.normal(0, 0.1, 3)),
    ]
    return Network(layers, 3, seed, (8, 8, 2))


def assert_close_to_largest(actual, expected, what, rtol=1e-12):
    assert actual.shape == expected.shape, what
    assert np.max(np.abs(actual - expected)) <= rtol * np.max(np.abs(expected)), what


NETS = {
    "mlp": lambda rng: random_mlp(rng),
    "convnet": lambda rng: random_convnet(rng),
    "lenet": lambda rng: build_network("lenet", head_classes=3, input_shape=(16, 16, 1), seed=5),
    "lenet-3-channels": lambda rng: build_network("lenet", head_classes=3,
                                                  input_shape=(16, 16, 3), seed=6),
    "stride-2-padding-1": lambda rng: strided_convnet(7),
    "no-conv-bias": lambda rng: strided_convnet(8, conv_bias=False),
}


@pytest.mark.parametrize("rotate_head", [True, False], ids=["head-rotated", "head-plain"])
@pytest.mark.parametrize("scope", list(RotationScope), ids=lambda s: s.value)
@pytest.mark.parametrize("name", sorted(NETS))
def test_rotated_gradients_are_the_plain_gradients_mapped(name, scope, rotate_head):
    # A rotated layer's parameter is W' with W = U2 W' U1 (per kernel slice
    # for a conv), so by the chain rule its gradient is the plain network's
    # mapped: U2^T gW U1^T, rotate_conv_kernel(gK, U1, U2); the bias, outside
    # U2, keeps its gradient.
    rng = np.random.default_rng(31)
    net = NETS[name](rng)
    x = rng.normal(size=(24,) + net.input_shape)
    y = np.arange(len(x)) % net.head_classes
    stats = accumulate_correlations(net, x, 24, rng)
    rot = rotate_network(net, stats, scope, rotate_head=rotate_head)
    plain = combine_network(rot)
    l_rot, cache = forward(rot, x)
    l_plain, plain_cache = forward(plain, x)
    assert_close_to_largest(l_rot, l_plain, "logits")
    _, gset = backward(rot, cache, y)
    _, ref = backward(plain, plain_cache, y)
    assert gset.grads.keys() == ref.grads.keys()
    for key, g in ref.grads.items():
        layer = rot.layers[int(key.split(".")[0])]
        if layer.rotated and key.endswith(".W"):
            g = layer.U2.T @ g @ layer.U1.T
        elif layer.rotated and key.endswith(".K"):
            g = rotate_conv_kernel(g, layer.U1, layer.U2)
        assert_close_to_largest(gset.grads[key], g, key)
