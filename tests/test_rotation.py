import numpy as np
import pytest

from helpers import random_convnet, random_mlp, reference_accumulate_correlations
from rewc.errors import AlignmentError, DimensionError, StateError
from rewc.layers import Conv2D, Dense, FixedConv1x1, FixedDense
from rewc.network import Network, backward, build_network, forward, layout_signature
from rewc.rotation import (
    CorrelationStats,
    RotationPair,
    RotationScope,
    accumulate_correlations,
    combine_network,
    rotate_conv_kernel,
    rotate_network,
    rotated_layer_map,
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
        [Conv2D(w.T.reshape(1, 1, d, 3).copy(), None), __import__("rewc").layers.Flatten(),
         Dense(np.eye(3), None)],
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
    rot, pairs = rotate_network(net, stats, RotationScope.ALL_NO_LAST)
    x = np.random.default_rng(4).normal(size=(12, 5))
    l0, _ = forward(net, x)
    l1, _ = forward(rot, x)
    assert np.max(np.abs(l0 - l1)) == 0.0
    for p in pairs:
        assert np.array_equal(p.U1, np.eye(p.U1.shape[0]))
        assert np.array_equal(p.U2, np.eye(p.U2.shape[0]))
    mid = pairs[0].layer_index
    assert np.array_equal(rot.layers[mid].W, net.layers[0].W)


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
    rot, pairs = rotate_network(net, stats, RotationScope.ALL, rotate_head=True)
    for p in pairs:
        for u in (p.U1, p.U2):
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
    rot, pairs = rotate_network(net, stats, scope, rotate_head=True)
    rotated_kinds = {rot.layers[p.layer_index].kind for p in pairs}
    assert rotated_kinds <= expected_kinds
    head_mid = {p.layer_index for p in pairs} & {rot.head_index}
    if scope == RotationScope.ALL_NO_LAST:
        assert not head_mid
    if scope == RotationScope.ALL:
        assert rot.head_index in {p.layer_index for p in pairs}
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
    rot, pairs = rotate_network(net, stats, RotationScope.ALL_NO_LAST)
    # re-accumulate empirically inside the rotated network, same samples/labels
    _, cache = forward(rot, x)
    _, gset = backward(rot, cache, y)
    for p in pairs:
        xin = gset.layer_inputs[p.layer_index]
        z = gset.layer_output_grads[p.layer_index] * x.shape[0]
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
        rot, pairs = rotate_network(net, stats, RotationScope.ALL, rotate_head=True)
        back = combine_network(rot, pairs)
        for la, lb in zip(net.layers, back.layers):
            assert la.kind == lb.kind
            for k, v in la.params().items():
                assert np.max(np.abs(v - lb.params()[k])) < 1e-10


def test_combine_without_pairs_is_identity():
    net = random_mlp(np.random.default_rng(10))
    out = combine_network(net, [])
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
    rot, pairs = rotate_network(net, stats, RotationScope.ALL_NO_LAST)
    state = rewc.AdamState(rot)
    for _ in range(25):
        _, cache = forward(rot, x)
        _, gset = backward(rot, cache, y)
        rewc.adam_step(rot, gset.grads, state, 1e-2)
    fused = combine_network(rot, rot.rotation_pairs)
    probe = rng.normal(size=(100, 6))
    l0, _ = forward(rot, probe)
    l1, _ = forward(fused, probe)
    assert np.max(np.abs(l0 - l1)) < 1e-8
    assert not fused.has_fixed_layers()


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
    h = FixedConv1x1(u1).forward(x)
    h = Conv2D(kr, None).forward(h)
    h = FixedConv1x1(u2).forward(h)
    assert np.max(np.abs(h - plain)) < 1e-8


def test_trainable_parameter_count_preserved():
    rng = np.random.default_rng(14)
    net = random_convnet(rng)
    x = rng.normal(size=(20,) + net.input_shape)
    stats = accumulate_correlations(net, x, sample_budget=20, rng=rng)
    rot, _ = rotate_network(net, stats, RotationScope.ALL, rotate_head=True)
    assert rot.num_trainable_params() == net.num_trainable_params()


def test_rotated_layer_map_points_at_middles():
    rng = np.random.default_rng(15)
    net = random_convnet(rng)
    x = rng.normal(size=(20,) + net.input_shape)
    stats = accumulate_correlations(net, x, sample_budget=20, rng=rng)
    mapping = rotated_layer_map(net, RotationScope.ALL, rotate_head=True)
    rot, pairs = rotate_network(net, stats, RotationScope.ALL, rotate_head=True)
    mids = {p.layer_index for p in pairs}
    for i, layer in enumerate(net.layers):
        if isinstance(layer, (Dense, Conv2D)):
            assert mapping[i] in mids
            assert rot.layers[mapping[i]].kind == layer.kind


def test_state_and_alignment_errors():
    rng = np.random.default_rng(16)
    net = random_mlp(rng)
    x = rng.normal(size=(15, net.input_shape[0]))
    stats = accumulate_correlations(net, x, sample_budget=15, rng=rng)
    rot, pairs = rotate_network(net, stats, RotationScope.ALL, rotate_head=True)
    with pytest.raises(StateError):
        accumulate_correlations(rot, x, sample_budget=5, rng=rng)
    with pytest.raises(StateError):
        rotate_network(rot, stats, RotationScope.ALL)
    other = random_mlp(np.random.default_rng(99))
    with pytest.raises(AlignmentError):
        rotate_network(other, stats, RotationScope.ALL)
    # malformed sandwich: drop one fixed layer
    broken = rot.clone()
    del broken.layers[pairs[0].layer_index - 1]
    with pytest.raises((StateError, DimensionError)):
        combine_network(broken, pairs)


def test_rotation_pair_orthogonality_enforced():
    with pytest.raises(DimensionError):
        RotationPair(layer_index=1, U1=np.array([[1.0, 0.5], [0.0, 1.0]]), U2=np.eye(2))


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
