import os

import numpy as np
import pytest

from helpers import (
    conv_direct,
    random_convnet,
    random_mlp,
    reference_conv_backward,
    reference_fixed_backward,
    reference_fixed_forward,
    reference_meanpool_backward,
)
from rewc.checkpoint import load_network, save_network
from rewc.errors import DataFormatError, DimensionError, StateError
from rewc.layers import Bias, Conv2D, Dense, FixedConv1x1, FixedDense, Flatten, MeanPool2D, ReLU
from rewc.network import Network, build_network, forward, grow_head, parameter_digest


def test_identity_dense_forward():
    net = Network([Dense(np.eye(4), np.zeros(4))], 4, 0, (4,))
    x = np.random.default_rng(0).normal(size=(6, 4))
    logits, _ = forward(net, x)
    assert np.array_equal(logits, x)


def test_lenet_shape_contract():
    net = build_network("lenet", head_classes=5, input_shape=(32, 32, 1), seed=1)
    x = np.random.default_rng(1).random((3, 32, 32, 1))
    logits, cache = forward(net, x)
    assert logits.shape == (3, 5)
    assert len(cache.inputs) == len(net.layers)


def test_forward_shape_mismatch():
    net = build_network("mlp-custom", input_shape=(4,), hidden=[3, 2], seed=0)
    with pytest.raises(DimensionError):
        forward(net, np.zeros((2, 5)))


def test_construction_type_checks():
    with pytest.raises(DimensionError):
        Network([Dense(np.zeros((3, 4))), Dense(np.zeros((2, 5)))], 2, 0, (4,))
    with pytest.raises(DimensionError):
        Network([ReLU()], 1, 0, (3,))  # no dense head


def test_conv_matches_direct_summation():
    rng = np.random.default_rng(2)
    for stride, padding in ((1, 0), (1, 1), (2, 0), (2, 1)):
        x = rng.normal(size=(2, 7, 8, 3))
        k = rng.normal(size=(3, 3, 3, 4))
        b = rng.normal(size=4)
        layer = Conv2D(k, b, stride, padding)
        assert np.max(np.abs(layer.forward(x) - conv_direct(x, k, b, stride, padding))) < 1e-10


def test_meanpool_forward_backward():
    x = np.arange(2 * 4 * 4 * 3, dtype=np.float64).reshape(2, 4, 4, 3)
    pool = MeanPool2D(2)
    y = pool.forward(x)
    assert y.shape == (2, 2, 2, 3)
    assert y[0, 0, 0, 0] == pytest.approx((x[0, 0, 0, 0] + x[0, 0, 1, 0] + x[0, 1, 0, 0] + x[0, 1, 1, 0]) / 4)
    g, _ = pool.backward(x, np.ones_like(y))
    assert g.shape == x.shape
    assert np.allclose(g, 0.25)


CHANNELS = (1, 3, 6, 16)


def assert_close_to_largest(actual, expected, rtol=1e-12):
    """Equal within ``rtol`` of the reference array's largest entry."""
    assert actual.shape == expected.shape
    assert np.max(np.abs(actual - expected)) <= rtol * np.max(np.abs(expected))


@pytest.mark.parametrize("batch", (1, 7, 64))
def test_conv_backward_matches_reference_engine(batch):
    # d_out != d_in throughout, so a transpose dropped from either GEMM fails.
    rng = np.random.default_rng(batch)
    for d1, d2 in zip(CHANNELS, CHANNELS[1:] + CHANNELS[:1]):
        for k in (1, 3, 5):
            for stride in (1, 2):
                for padding in (0, 1):
                    layer = Conv2D(rng.normal(size=(k, k, d1, d2)), rng.normal(size=d2),
                                   stride, padding)
                    x = rng.normal(size=(batch, 9, 8, d1))
                    y, aux = layer.forward_cached(x)
                    g = rng.normal(size=y.shape)
                    ref_gx, ref = reference_conv_backward(layer, x, g)
                    gx, grads = layer.backward(x, g, aux)
                    assert_close_to_largest(gx, ref_gx)
                    assert_close_to_largest(grads["K"], ref["K"])
                    assert_close_to_largest(grads["b"], ref["b"])
                    none, grads = layer.backward(x, g, need_input_grad=False)
                    assert none is None
                    assert_close_to_largest(grads["K"], ref["K"])


def test_meanpool_backward_equals_reference_exactly():
    rng = np.random.default_rng(3)
    for size in (1, 2, 3):
        for batch in (1, 7, 64):
            for c in CHANNELS:
                x = rng.normal(size=(batch, 2 * size, 3 * size, c))
                pool = MeanPool2D(size)
                g = rng.normal(size=pool.forward(x).shape)
                assert np.array_equal(pool.backward(x, g)[0],
                                      reference_meanpool_backward(pool, x, g))


def test_fixed_matrix_passes_match_reference():
    rng = np.random.default_rng(4)
    for batch in (1, 7, 64):
        for d in CHANNELS:
            U = rng.normal(size=(d, d))
            for layer, x in ((FixedDense(U), rng.normal(size=(batch, d))),
                             (FixedConv1x1(U), rng.normal(size=(batch, 10, 8, d)))):
                g = rng.normal(size=x.shape)
                assert_close_to_largest(layer.forward(x), reference_fixed_forward(layer, x))
                assert_close_to_largest(layer.backward(x, g)[0],
                                        reference_fixed_backward(layer, x, g))


def test_parameter_digest_tracks_every_bit():
    net = build_network("lenet", head_classes=5, seed=2)
    digest = parameter_digest(net)
    assert len(digest) == 64 and digest == parameter_digest(net.clone())
    K = net.get_param("0.K").copy()
    K[0, 0, 0, 0] = np.nextafter(K[0, 0, 0, 0], np.inf)
    net.set_param("0.K", K)
    assert parameter_digest(net) != digest


def test_fixed_layers_have_no_params():
    q = np.eye(3)
    assert FixedDense(q).params() == {}
    assert FixedConv1x1(q).params() == {}
    assert not FixedDense(q).trainable


def test_build_mlp_784_widths():
    net = build_network("mlp-784-10-10-10", seed=0)
    dense = [l for l in net.layers if isinstance(l, Dense)]
    assert [d.W.shape for d in dense] == [(10, 784), (10, 10), (10, 10)]


def test_build_determinism():
    a = build_network("lenet", head_classes=5, input_shape=(32, 32, 1), seed=9)
    b = build_network("lenet", head_classes=5, input_shape=(32, 32, 1), seed=9)
    for la, lb in zip(a.layers, b.layers):
        for k, v in la.params().items():
            assert np.array_equal(v, lb.params()[k])


def test_custom_mlp_param_count():
    net = build_network("mlp-custom", input_shape=(4,), hidden=[3, 2], seed=0)
    assert net.num_trainable_params() == 4 * 3 + 3 + 3 * 2 + 2


def test_unknown_arch():
    with pytest.raises(DimensionError, match="mlp-custom"):
        build_network("resnet-50")


def test_forward_deterministic():
    net = random_mlp(np.random.default_rng(4))
    x = np.random.default_rng(5).normal(size=(8, net.input_shape[0]))
    l1, _ = forward(net, x)
    l2, _ = forward(net, x)
    assert np.array_equal(l1, l2)


def test_grow_head_preserves_old_logits():
    net = build_network("mlp-custom", input_shape=(6,), hidden=[8, 5], seed=3)
    x = np.random.default_rng(6).normal(size=(10, 6))
    before, _ = forward(net, x)
    grow_head(net, 5)
    after, _ = forward(net, x)
    assert net.head_classes == 10
    assert np.array_equal(before, after[:, :5])


def test_grow_head_new_row_scale():
    net = build_network("mlp-custom", input_shape=(512,), hidden=[512, 4], seed=3)
    grow_head(net, 1)
    new_row = net.layers[-1].W[-1]
    # chi concentration: |w| ~ 0.01 * sqrt(512) = 0.226, very tight
    assert abs(np.linalg.norm(new_row) - 0.01 * np.sqrt(512)) < 0.05
    assert net.layers[-1].b[-1] == 0.0


def test_grow_head_rejects_nonpositive():
    net = build_network("mlp-custom", input_shape=(4,), hidden=[3, 2], seed=0)
    with pytest.raises(DimensionError):
        grow_head(net, 0)
    with pytest.raises(DimensionError):
        grow_head(net, -2)


def test_grow_head_deterministic():
    nets = []
    for _ in range(2):
        net = build_network("mlp-custom", input_shape=(6,), hidden=[8, 5], seed=3)
        grow_head(net, 5)
        nets.append(net)
    assert np.array_equal(nets[0].layers[-1].W, nets[1].layers[-1].W)


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(8)
    for maker, with_fixed in ((random_mlp, False), (random_mlp, True), (random_convnet, True)):
        net = maker(rng, with_fixed=with_fixed)
        path = os.path.join(tmp_path, "net.rewc")
        save_network(net, path)
        back = load_network(path)
        assert back.head_classes == net.head_classes
        assert back.rng_seed == net.rng_seed
        assert back.input_shape == net.input_shape
        assert len(back.layers) == len(net.layers)
        for la, lb in zip(net.layers, back.layers):
            assert la.kind == lb.kind
            for k, v in la.params().items():
                assert np.array_equal(v, lb.params()[k])
            if isinstance(la, (FixedDense, FixedConv1x1)):
                assert np.array_equal(la.U, lb.U)


def test_checkpoint_preserves_rotation_pairs(tmp_path):
    import rewc

    net = build_network("mlp-custom", input_shape=(5,), hidden=[6, 3], seed=2)
    x = np.random.default_rng(3).normal(size=(20, 5))
    stats = rewc.accumulate_correlations(net, x, sample_budget=20, rng=np.random.default_rng(0))
    rot, pairs = rewc.rotate_network(net, stats, "all_no_last")
    path = os.path.join(tmp_path, "rot.rewc")
    save_network(rot, path)
    back = load_network(path)
    assert len(back.rotation_pairs) == len(pairs)
    for pa, pb in zip(pairs, back.rotation_pairs):
        assert pa.layer_index == pb.layer_index
        assert np.array_equal(pa.U1, pb.U1)
        assert np.array_equal(pa.U2, pb.U2)
    fused = rewc.combine_network(back, back.rotation_pairs)
    l0, _ = forward(net, x)
    l1, _ = forward(fused, x)
    assert np.max(np.abs(l0 - l1)) < 1e-10


def test_checkpoint_bad_magic(tmp_path):
    p = os.path.join(tmp_path, "bad.rewc")
    with open(p, "wb") as f:
        f.write(b"NOPE" + b"\x00" * 32)
    with pytest.raises(DataFormatError):
        load_network(p)


def test_grow_rotated_head_rejected():
    import rewc

    net = build_network("mlp-custom", input_shape=(5,), hidden=[6, 3], seed=2)
    x = np.random.default_rng(3).normal(size=(10, 5))
    stats = rewc.accumulate_correlations(net, x, sample_budget=10, rng=np.random.default_rng(0))
    rot, _ = rewc.rotate_network(net, stats, "all", rotate_head=True)
    with pytest.raises(StateError):
        grow_head(rot, 2)
