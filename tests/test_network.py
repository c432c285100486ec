import copy
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    conv_direct,
    random_convnet,
    random_mlp,
    random_rotation,
    reference_conv_backward,
    reference_dense_backward,
    reference_meanpool_backward,
)
from rewc.checkpoint import load_network, save_network
from rewc.errors import DataFormatError, DimensionError, StateError
from rewc.layers import Conv2D, Dense, Flatten, MeanPool2D, ReLU
from rewc.network import Network, build_network, forward, grow_head, parameter_digest


def test_identity_dense_forward():
    net = Network([Dense(np.eye(4), np.zeros(4))], 0, (4,))
    x = np.random.default_rng(0).normal(size=(6, 4))
    logits, _ = forward(net, x)
    assert np.array_equal(logits, x)


def test_lenet_shape_contract():
    net = build_network("lenet", 5, (32, 32, 1), seed=1)
    x = np.random.default_rng(1).random((3, 32, 32, 1))
    logits, cache = forward(net, x)
    assert logits.shape == (3, 5)
    assert len(cache.inputs) == len(net.layers)


def test_forward_shape_mismatch():
    net = build_network("mlp-custom", 2, (4,), [3], seed=0)
    with pytest.raises(DimensionError):
        forward(net, np.zeros((2, 5)))


def test_construction_type_checks():
    with pytest.raises(DimensionError):
        Network([Dense(np.zeros((3, 4)), np.zeros(3)), Dense(np.zeros((2, 5)), np.zeros(2))],
                0, (4,))
    with pytest.raises(DimensionError):
        Network([ReLU()], 0, (3,))  # no dense head
    with pytest.raises(DimensionError, match="bias length"):
        Dense(np.zeros((3, 4)), np.zeros(4))
    with pytest.raises(DimensionError, match="bias length"):
        Conv2D(np.zeros((3, 3, 1, 2)), np.zeros(1))
    with pytest.raises(DimensionError, match="does not divide"):
        MeanPool2D().out_shape((5, 4, 1))
    with pytest.raises(DimensionError, match=r"pooling expects \(H, W, C\) input"):
        Network([Flatten(), MeanPool2D(), Dense(np.zeros((2, 4)), np.zeros(2))], 0, (2, 2, 1))
    with pytest.raises(DimensionError, match="non-empty"):
        Dense(np.zeros((3, 0)), np.zeros(3))
    with pytest.raises(DimensionError, match="non-empty"):
        Conv2D(np.zeros((0, 0, 1, 2)), np.zeros(2))


def test_conv_matches_direct_summation():
    rng = np.random.default_rng(2)
    for kh, kw in ((3, 3), (1, 2)):
        x = rng.normal(size=(2, 7, 8, 3))
        k = rng.normal(size=(kh, kw, 3, 4))
        b = rng.normal(size=4)
        assert np.max(np.abs(Conv2D(k, b).forward_cached(x)[0] - conv_direct(x, k, b))) < 1e-10


def test_meanpool_forward_backward():
    x = np.arange(2 * 4 * 4 * 3, dtype=np.float64).reshape(2, 4, 4, 3)
    pool = MeanPool2D()
    y, _ = pool.forward_cached(x)
    assert y.shape == (2, 2, 2, 3)
    assert y[0, 0, 0, 0] == pytest.approx((x[0, 0, 0, 0] + x[0, 0, 1, 0] + x[0, 1, 0, 0] + x[0, 1, 1, 0]) / 4)
    g = pool.backward(x, np.ones_like(y))
    assert g.shape == x.shape
    assert np.allclose(g, 0.25)


CHANNELS = (1, 3, 6, 16)


def assert_close_to_largest(actual, expected, rtol=1e-12):
    """Equal within ``rtol`` of the reference array's largest entry."""
    assert actual.shape == expected.shape
    assert np.max(np.abs(actual - expected)) <= rtol * np.max(np.abs(expected))


@pytest.mark.parametrize("rotated", (False, True), ids=["plain", "rotated"])
@pytest.mark.parametrize("batch", (1, 7, 64))
def test_conv_backward_matches_reference_engine(batch, rotated):
    # d_out != d_in throughout, so a transpose dropped from either GEMM fails.
    rng = np.random.default_rng(batch)
    for d1, d2 in zip(CHANNELS, CHANNELS[1:] + CHANNELS[:1]):
        for k in (1, 3, 5):
            layer = Conv2D(rng.normal(size=(k, k, d1, d2)), rng.normal(size=d2),
                           *random_rotation(rng, d1, d2, rotated))
            x = rng.normal(size=(batch, 9, 8, d1))
            y, aux = layer.forward_cached(x)
            g = rng.normal(size=y.shape)
            ref_gx, ref = reference_conv_backward(layer, x, g)
            assert_close_to_largest(layer.backward(x, g, aux), ref_gx)
            assert layer.backward(x, g, aux, need_input_grad=False) is None
            grads = layer.param_grads(g, aux)
            assert grads.keys() == ref.keys()
            for name in ref:
                assert_close_to_largest(grads[name], ref[name])


def test_meanpool_backward_equals_reference_exactly():
    rng = np.random.default_rng(3)
    pool = MeanPool2D()
    for batch in (1, 7, 64):
        for c in CHANNELS:
            x = rng.normal(size=(batch, 4, 6, c))
            g = rng.normal(size=pool.forward_cached(x)[0].shape)
            assert np.array_equal(pool.backward(x, g), reference_meanpool_backward(pool, x, g))


def test_relu_backward_reads_the_forward_mask_and_the_cache_drops_its_input():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(7, 4, 3, 2))
    x[0, 0, 0] = 0.0  # the boundary: no gradient
    relu = ReLU()
    y, mask = relu.forward_cached(x)
    g = rng.normal(size=x.shape)
    assert np.array_equal(mask, x > 0.0)
    assert relu.backward(None, g, mask).tobytes() == (g * (x > 0.0)).tobytes()
    net = build_network("lenet", 5, (32, 32, 1), seed=2)
    _, cache = forward(net, rng.normal(size=(3, 32, 32, 1)))
    for layer, kept in zip(net.layers, cache.inputs):
        assert (kept is None) == isinstance(layer, ReLU)


def layer_case(kind, rotated, rng, n, dims):
    """A layer of ``kind`` and an input batch of ``n`` for it, sized by six
    draws ``dims`` from 1..4."""
    a, b, c, d, e, f = dims
    if kind == "dense":
        return Dense(rng.normal(size=(b, a)), rng.normal(size=b),
                     *random_rotation(rng, a, b, rotated)), rng.normal(size=(n, a))
    if kind == "conv2d":  # a kernel a x b from c to d channels over (a+e-1) x (b+f-1)
        layer = Conv2D(rng.normal(size=(a, b, c, d)), rng.normal(size=d),
                       *random_rotation(rng, c, d, rotated))
        return layer, rng.normal(size=(n, a + e - 1, b + f - 1, c))
    layer = {"relu": ReLU, "flatten": Flatten, "meanpool2d": MeanPool2D}[kind]()
    scale = 2 if kind == "meanpool2d" else 1
    return layer, rng.normal(size=(n, scale * a, scale * b, c))


REFERENCE_BACKWARD = {"dense": reference_dense_backward, "conv2d": reference_conv_backward}


def same_bits(a, b):
    if isinstance(a, tuple):
        return isinstance(b, tuple) and len(a) == len(b) and all(map(same_bits, a, b))
    if a is None or b is None:
        return a is b
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("kind, rotated", [
    ("dense", False), ("dense", True), ("conv2d", False), ("conv2d", True),
    ("relu", False), ("flatten", False), ("meanpool2d", False),
], ids=["dense", "dense-rotated", "conv2d", "conv2d-rotated", "relu", "flatten", "meanpool2d"])
@settings(max_examples=25)
@given(n=st.integers(1, 5), dims=st.tuples(*[st.integers(1, 4)] * 6),
       seed=st.integers(0, 2**32 - 1))
def test_layer_contract(kind, rotated, n, dims, seed):
    rng = np.random.default_rng(seed)
    layer, x = layer_case(kind, rotated, rng, n, dims)
    assert layer.rotated == rotated
    # The forward that training runs from a prepared batch is the forward.
    y, aux = layer.forward_cached(x)
    y2, aux2 = layer.forward_prepared(layer.prepare(x))
    assert same_bits(y, y2) and same_bits(aux, aux2)
    if kind == "dense":  # its aux is the input itself, or x U1^T when rotated
        assert same_bits(aux, x @ layer.U1.T) if rotated else aux is x
    g = rng.normal(size=y.shape)
    gx = layer.backward(x, g, aux)
    assert gx.shape == x.shape
    if not layer.trainable:
        return
    assert layer.backward(x, g, aux, need_input_grad=False) is None
    # The three reductions of the record (g, aux) leave it and the input as
    # they were, so the input gradient keeps its bits after them.
    record = copy.deepcopy((x, g, aux))
    grads = layer.param_grads(g, aux)
    ge = layer.example_grads(g, aux)
    terms = layer.fisher_terms(g, aux)
    assert same_bits((x, g, aux), record)
    assert same_bits(layer.backward(x, g, aux), gx)
    # The input and parameter gradients match the reference's.
    ref_gx, ref = REFERENCE_BACKWARD[kind](layer, x, g)
    assert_close_to_largest(gx, ref_gx)
    assert ge.keys() == terms.keys() == grads.keys() == ref.keys()
    # The Fisher's per-example gradients, in the weight's coordinates, sum to
    # the parameter gradient, and the sums of their squares are the Fisher
    # terms; within 1e-12 of the sum of their magnitudes.  A per-example
    # gradient is that of ``n`` times its row of ``g``.
    for name, want in grads.items():
        assert_close_to_largest(want, ref[name])
        tol = 1e-12 * np.max(np.abs(ge[name]).sum(axis=0))
        assert np.max(np.abs(ge[name].sum(axis=0) - n * want)) <= tol
        sq = (ge[name] ** 2).sum(axis=0)
        assert np.max(np.abs(terms[name] - sq)) <= 1e-12 * np.max(sq)


def test_parameter_digest_tracks_every_bit():
    net = build_network("lenet", 5, (32, 32, 1), seed=2)
    digest = parameter_digest(net)
    assert len(digest) == 64 and digest == parameter_digest(net.clone())
    K = net.params()["0.K"]
    K[0, 0, 0, 0] = np.nextafter(K[0, 0, 0, 0], np.inf)
    assert parameter_digest(net) != digest


def test_params_are_the_live_arrays_in_layer_order():
    net = build_network("lenet", 5, (32, 32, 1), seed=2)
    params = net.params()
    assert list(params) == ["0.K", "0.b", "3.K", "3.b", "7.W", "7.b", "9.W", "9.b",
                            "11.W", "11.b"]
    assert all(params[f"{i}.{name}"] is p for i, layer in enumerate(net.layers)
               for name, p in layer.params().items())
    x = np.random.default_rng(3).normal(size=(4,) + net.input_shape)
    logits, _ = forward(net, x)
    digest = parameter_digest(net)
    params["7.W"] *= 2.0
    assert not np.array_equal(forward(net, x)[0], logits)
    assert parameter_digest(net) != digest


def test_rotations_are_not_parameters():
    q = np.eye(3)[::-1]
    assert Dense(np.zeros((3, 3)), np.zeros(3), q, q).params().keys() == {"W", "b"}
    assert Conv2D(np.zeros((1, 1, 3, 3)), np.zeros(3), q, q).params().keys() == {"K", "b"}


def test_build_mlp_784_widths():
    net = build_network("mlp-784-10-10-10", 10, (28, 28, 1), seed=0)
    dense = [l for l in net.layers if isinstance(l, Dense)]
    assert [d.W.shape for d in dense] == [(10, 784), (10, 10), (10, 10)]


def test_build_determinism():
    a = build_network("lenet", 5, (32, 32, 1), seed=9)
    b = build_network("lenet", 5, (32, 32, 1), seed=9)
    for la, lb in zip(a.layers, b.layers):
        for k, v in la.params().items():
            assert np.array_equal(v, lb.params()[k])


def test_custom_mlp_param_count():
    net = build_network("mlp-custom", 2, (4,), [3], seed=0)
    count = sum(p.size for p in net.params().values())
    assert count == 4 * 3 + 3 + 3 * 2 + 2


def test_unknown_arch():
    with pytest.raises(DimensionError, match="mlp-custom"):
        build_network("resnet-50", 2, (4,))


@pytest.mark.parametrize("arch, head, shape, hidden, message", [
    ("mlp-custom", 2, (4,), [4, 0], r"hidden width 0 in \[4, 0\] is below 1"),
    ("mlp-custom", 2, (4,), [-3], r"hidden width -3 in \[-3\] is below 1"),
    ("mlp-custom", 0, (4,), [4], "head_classes 0 is below 1"),
    ("mlp-784-10-10-10", -1, (28, 28, 1), (), "head_classes -1 is below 1"),
    ("lenet", 0, (32, 32, 1), (), "head_classes 0 is below 1"),
    ("mlp-custom", 2, (0,), [4], r"input shape \(0,\) has a dimension below 1"),
    ("lenet", 2, (32, 32, 0), (), r"input shape \(32, 32, 0\) has a dimension below 1"),
    ("lenet", 2, (32, 32, 1), [8], "lenet has fixed widths; only mlp-custom takes hidden widths"),
    ("mlp-784-10-10-10", 2, (28, 28, 1), [8], "only mlp-custom takes hidden widths"),
])
def test_build_network_rejects_a_size_it_cannot_build(arch, head, shape, hidden, message):
    # A size below 1 once failed inside numpy, in Dense's generic check or,
    # for an input dimension, dividing by zero in the initial weights' scale.
    with pytest.raises(DimensionError, match=message):
        build_network(arch, head, shape, hidden)


def test_forward_deterministic():
    net = random_mlp(np.random.default_rng(4))
    x = np.random.default_rng(5).normal(size=(8, net.input_shape[0]))
    l1, _ = forward(net, x)
    l2, _ = forward(net, x)
    assert np.array_equal(l1, l2)


def test_grow_head_preserves_old_logits():
    net = build_network("mlp-custom", 5, (6,), [8], seed=3)
    x = np.random.default_rng(6).normal(size=(10, 6))
    before, _ = forward(net, x)
    grow_head(net, 5)
    after, _ = forward(net, x)
    assert net.head_classes == 10
    assert np.array_equal(before, after[:, :5])


def test_grow_head_new_row_scale():
    net = build_network("mlp-custom", 4, (512,), [512], seed=3)
    grow_head(net, 1)
    new_row = net.layers[-1].W[-1]
    # chi concentration: |w| ~ 0.01 * sqrt(512) = 0.226, very tight
    assert abs(np.linalg.norm(new_row) - 0.01 * np.sqrt(512)) < 0.05
    assert net.layers[-1].b[-1] == 0.0


def test_grow_head_rejects_nonpositive():
    net = build_network("mlp-custom", 2, (4,), [3], seed=0)
    with pytest.raises(DimensionError):
        grow_head(net, 0)
    with pytest.raises(DimensionError):
        grow_head(net, -2)


def test_grow_head_deterministic():
    nets = []
    for _ in range(2):
        net = build_network("mlp-custom", 5, (6,), [8], seed=3)
        grow_head(net, 5)
        nets.append(net)
    assert np.array_equal(nets[0].layers[-1].W, nets[1].layers[-1].W)


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(8)
    for maker, rotated in ((random_mlp, False), (random_mlp, True), (random_convnet, True)):
        net = maker(rng, rotated=rotated)
        path = os.path.join(tmp_path, "net.rewc")
        save_network(net, path)
        back = load_network(path)
        assert back.head_classes == net.head_classes
        assert back.rng_seed == net.rng_seed
        assert back.input_shape == net.input_shape
        assert len(back.layers) == len(net.layers)
        for la, lb in zip(net.layers, back.layers):
            assert la.kind == lb.kind
            assert la.rotated == lb.rotated
            for k, v in la.params().items():
                assert np.array_equal(v, lb.params()[k])
            if la.rotated:
                assert np.array_equal(la.U1, lb.U1) and np.array_equal(la.U2, lb.U2)


def test_checkpoint_preserves_rotation_pairs(tmp_path):
    import rewc

    net = build_network("mlp-custom", 3, (5,), [6], seed=2)
    x = np.random.default_rng(3).normal(size=(20, 5))
    stats = rewc.accumulate_correlations(net, x, sample_budget=20, rng=np.random.default_rng(0),
                                         scope="all_no_last")
    rot = rewc.rotate_network(net, stats)
    path = os.path.join(tmp_path, "rot.rewc")
    save_network(rot, path)
    back = load_network(path)
    assert [l.rotated for l in back.layers] == [l.rotated for l in rot.layers] \
        == [True, False, False]
    for la, lb in zip(rot.layers, back.layers):
        if la.rotated:
            assert np.array_equal(la.U1, lb.U1)
            assert np.array_equal(la.U2, lb.U2)
    fused = rewc.combine_network(back)
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
    # No scope rotates the head, but a hand-built network or a loaded
    # checkpoint can carry one.
    rng = np.random.default_rng(3)
    head = Dense(rng.normal(size=(3, 5)), rng.normal(size=3), *random_rotation(rng, 5, 3))
    net = Network([Dense(rng.normal(size=(5, 4)), np.zeros(5)), ReLU(), head], 2, (4,))
    with pytest.raises(StateError, match="rotated head"):
        grow_head(net, 2)
