import os

import numpy as np
import pytest

from helpers import (
    per_sample_diag_fim,
    per_sample_fim_terms,
    per_sample_full_fim,
    random_convnet,
    random_mlp,
)
from rewc.errors import AlignmentError, CapacityError, DimensionError
from rewc.fim import (
    FULL_FIM_PARAM_CAP,
    estimate_diag_fim,
    estimate_full_fim_layer,
    ewc_penalty,
    load_fim,
    make_anchor,
    save_fim,
)
from rewc.layers import Bias, Conv2D, Dense, FixedConv1x1, FixedDense
from rewc.linalg import jacobi_eigh
from rewc.network import Network, backward, build_network, forward, grow_head, log_softmax
from rewc.rotation import accumulate_correlations, rotate_conv_kernel, rotate_network
from rewc.util import rng_for

# 130 chosen inputs make two full chunks of 64 and a partial one of 2.
BUDGET = 130


def bernoulli_net():
    # logits (z, 0) with z = W[0,0] * x; at W = 0 the softmax is (1/2, 1/2)
    return Network([Dense(np.zeros((2, 1)), None)], 2, 0, (1,))


def test_expected_mode_matches_bernoulli_fisher():
    net = bernoulli_net()
    fim = estimate_diag_fim(net, np.array([[1.0]]), sample_budget=1, mode="expected")
    # closed form: p(1-p) at p = 1/2
    assert fim.values["0.W"][0, 0] == pytest.approx(0.25, abs=1e-12)
    assert fim.values["0.W"][1, 0] == pytest.approx(0.25, abs=1e-12)


def test_entries_nonnegative_everywhere():
    rng = np.random.default_rng(0)
    net = random_mlp(rng)
    x = rng.normal(size=(30, net.input_shape[0]))
    for mode in ("sampled", "expected"):
        fim = estimate_diag_fim(net, x, sample_budget=20, mode=mode, rng=np.random.default_rng(1))
        for v in fim.values.values():
            assert np.all(v >= 0.0)


def test_sampled_converges_to_expected():
    rng = np.random.default_rng(2)
    net = build_network("mlp-custom", input_shape=(2,), hidden=[3], seed=5)
    x0 = np.array([[0.7, -0.3]])
    expected = estimate_diag_fim(net, x0, sample_budget=1, mode="expected")
    tiled = np.repeat(x0, 10_000, axis=0)
    sampled = estimate_diag_fim(net, tiled, sample_budget=10_000, mode="sampled",
                                rng=np.random.default_rng(3))
    floor = 0.01 * max(v.max() for v in expected.values.values())
    for key, ev in expected.values.items():
        sv = sampled.values[key]
        mask = ev > floor
        if np.any(mask):
            rel = np.abs(sv[mask] - ev[mask]) / ev[mask]
            assert np.max(rel) < 0.05, key


def test_budget_exceeds_dataset():
    net = bernoulli_net()
    with pytest.raises(DimensionError):
        estimate_diag_fim(net, np.ones((3, 1)), sample_budget=4)
    with pytest.raises(DimensionError):
        estimate_diag_fim(net, np.ones((0, 1)), sample_budget=1)
    with pytest.raises(DimensionError, match="at least 1"):
        estimate_diag_fim(net, np.ones((3, 1)), sample_budget=0)


def test_full_block_diag_consistency():
    rng = np.random.default_rng(4)
    net = random_mlp(rng)
    x = rng.normal(size=(25, net.input_shape[0]))
    layer_idx = net.trainable_keys()[0][1]
    diag = estimate_diag_fim(net, x, sample_budget=15, rng=rng_for(9, "t"))
    block = estimate_full_fim_layer(net, x, layer_idx, sample_budget=15, rng=rng_for(9, "t"))
    assert np.max(np.abs(np.diag(block.matrix) - diag.values[f"{layer_idx}.W"].ravel())) < 1e-12


def test_single_sample_block_rank():
    net = build_network("mlp-custom", input_shape=(3,), hidden=[4, 3], seed=1)
    x = np.random.default_rng(5).normal(size=(1, 3))
    block = estimate_full_fim_layer(net, x, 2, sample_budget=1, mode="expected")
    assert np.linalg.matrix_rank(block.matrix, tol=1e-12) <= 3
    sampled = estimate_full_fim_layer(net, x, 2, sample_budget=1, mode="sampled",
                                      rng=np.random.default_rng(0))
    assert np.linalg.matrix_rank(sampled.matrix, tol=1e-12) <= 1


def test_block_is_psd_under_eigensolver():
    rng = np.random.default_rng(6)
    net = random_mlp(rng)
    x = rng.normal(size=(20, net.input_shape[0]))
    layer_idx = net.trainable_keys()[0][1]
    block = estimate_full_fim_layer(net, x, layer_idx, sample_budget=10, rng=rng)
    e = jacobi_eigh(block.matrix)
    assert np.all(e.S >= -1e-8)


def test_capacity_guard():
    net = build_network("mlp-custom", input_shape=(100,), hidden=[50, 3], seed=0)
    with pytest.raises(CapacityError):
        estimate_full_fim_layer(net, np.zeros((5, 100)), 0, sample_budget=2)


def test_penalty_zero_at_anchor():
    rng = np.random.default_rng(7)
    net = random_mlp(rng)
    x = rng.normal(size=(12, net.input_shape[0]))
    fim = estimate_diag_fim(net, x, sample_budget=8, rng=rng)
    anchor = make_anchor(net, fim, 100.0)
    pen, grads = ewc_penalty(net, anchor)
    assert pen == 0.0
    for g in grads.values():
        assert np.all(g == 0.0)


def test_penalty_direct_substitution():
    net = Network([Dense(np.array([[0.0]]), None)], 1, 0, (1,))
    from rewc.fim import FimDiagonal
    from rewc.network import layout_signature

    fim = FimDiagonal(values={"0.W": np.array([[0.01]])}, layout_hash=layout_signature(net))
    anchor = make_anchor(net, fim, 100.0)
    net.set_param("0.W", np.array([[0.5]]))
    pen, grads = ewc_penalty(net, anchor)
    assert pen == pytest.approx(0.125, abs=1e-15)
    assert grads["0.W"][0, 0] == pytest.approx(0.5, abs=1e-15)


def test_penalty_gradient_finite_differences():
    rng = np.random.default_rng(8)
    net = random_mlp(rng)
    x = rng.normal(size=(10, net.input_shape[0]))
    fim = estimate_diag_fim(net, x, sample_budget=10, rng=rng)
    anchor = make_anchor(net, fim, 37.0)
    for key, _, _ in net.trainable_keys():
        p = net.get_param(key)
        p += rng.normal(0, 0.1, p.shape)
    _, grads = ewc_penalty(net, anchor)
    h = 1e-5
    for key, _, _ in net.trainable_keys():
        p = net.get_param(key)
        flat = p.ravel()
        idx = int(rng.integers(flat.size))
        orig = flat[idx]
        flat[idx] = orig + h
        up, _ = ewc_penalty(net, anchor)
        flat[idx] = orig - h
        dn, _ = ewc_penalty(net, anchor)
        flat[idx] = orig
        fd = (up - dn) / (2 * h)
        g = grads[key].ravel()[idx]
        denom = max(abs(fd), abs(g), 1e-12)
        assert abs(g - fd) / denom < 1e-8, key


def test_lambda_fim_rescaling_invariance():
    rng = np.random.default_rng(9)
    net = random_mlp(rng)
    x = rng.normal(size=(10, net.input_shape[0]))
    fim = estimate_diag_fim(net, x, sample_budget=10, rng=rng)
    a1 = make_anchor(net, fim, 50.0)
    from rewc.fim import FimDiagonal

    scaled = FimDiagonal(values={k: v / 4.0 for k, v in fim.values.items()},
                         layout_hash=fim.layout_hash)
    a2 = make_anchor(net, scaled, 200.0)
    for key, _, _ in net.trainable_keys():
        p = net.get_param(key)
        p += rng.normal(0, 0.2, p.shape)
    p1, _ = ewc_penalty(net, a1)
    p2, _ = ewc_penalty(net, a2)
    assert p1 == pytest.approx(p2, rel=1e-12)


def test_lambda_zero_means_no_penalty():
    rng = np.random.default_rng(10)
    net = random_mlp(rng)
    x = rng.normal(size=(10, net.input_shape[0]))
    fim = estimate_diag_fim(net, x, sample_budget=10, rng=rng)
    anchor = make_anchor(net, fim, 0.0)
    net.get_param(net.trainable_keys()[0][0])[:] += 1.0
    pen, grads = ewc_penalty(net, anchor)
    assert pen == 0.0 and grads == {}


def test_alignment_error_on_foreign_network():
    rng = np.random.default_rng(11)
    net = random_mlp(rng)
    other = build_network("mlp-custom", input_shape=(4,), hidden=[3, 2], seed=0)
    x = rng.normal(size=(10, net.input_shape[0]))
    fim = estimate_diag_fim(net, x, sample_budget=10, rng=rng)
    anchor = make_anchor(net, fim, 10.0)
    with pytest.raises(AlignmentError):
        ewc_penalty(other, anchor)


def test_grown_head_rows_carry_no_penalty():
    net = build_network("mlp-custom", input_shape=(6,), hidden=[8, 4], seed=2)
    x = np.random.default_rng(12).normal(size=(15, 6))
    fim = estimate_diag_fim(net, x, sample_budget=10, rng=np.random.default_rng(1))
    anchor = make_anchor(net, fim, 25.0)
    grow_head(net, 3)
    head_key = f"{net.head_index}.W"
    net.get_param(head_key)[:] += 0.3  # move everything, incl. new rows
    pen, grads = ewc_penalty(net, anchor)
    assert pen > 0.0
    assert grads[head_key].shape == net.get_param(head_key).shape
    assert np.all(grads[head_key][4:] == 0.0)
    assert np.all(grads[f"{net.head_index}.b"][4:] == 0.0)


def test_fim_snapshot_roundtrip(tmp_path):
    rng = np.random.default_rng(13)
    net = random_mlp(rng)
    x = rng.normal(size=(10, net.input_shape[0]))
    fim = estimate_diag_fim(net, x, sample_budget=10, rng=rng)
    path = os.path.join(tmp_path, "snap.rfim")
    save_fim(fim, path)
    back = load_fim(path)
    assert back.layout_hash == fim.layout_hash
    assert set(back.values) == set(fim.values)
    for k in fim.values:
        assert np.array_equal(back.values[k], fim.values[k])


def rotated_convnet(seed):
    """A conv net rotated under scope ``all``: a frozen 1x1 conv first,
    bias-less sandwiched conv and dense layers, FixedDense, and conv- and
    flat-shaped Bias layers. Returns the plain net, the rotated net, its
    pairs and inputs."""
    rng = np.random.default_rng(seed)
    plain = random_convnet(rng)
    x = rng.normal(size=(160,) + plain.input_shape)
    stats = accumulate_correlations(plain, x, 120, np.random.default_rng(seed + 1))
    rotated, pairs = rotate_network(plain, stats, "all")
    assert isinstance(rotated.layers[0], FixedConv1x1)
    assert {Bias, FixedDense} <= {type(l) for l in rotated.layers}
    assert any(isinstance(l, Dense) and l.b is None for l in rotated.layers)
    return plain, rotated, pairs, x


def estimator_cases():
    rng = np.random.default_rng(20)
    mlp = random_mlp(rng)
    yield "mlp", mlp, rng.normal(size=(160, mlp.input_shape[0]))
    conv = random_convnet(rng)
    yield "conv", conv, rng.normal(size=(160,) + conv.input_shape)
    _, rotated, _, x = rotated_convnet(21)
    yield "rotated", rotated, x


def assert_rel_close(actual, expected, key, rtol=1e-12):
    scale = max(float(np.max(np.abs(expected))), 1e-300)
    assert float(np.max(np.abs(actual - expected))) <= rtol * scale, key


@pytest.mark.parametrize("mode", ["sampled", "expected"])
def test_batched_diag_matches_per_sample_reference(mode):
    for name, net, x in estimator_cases():
        labels = np.arange(len(x)) % 2
        got = estimate_diag_fim(net, x, BUDGET, mode, np.random.default_rng(5), labels)
        ref = per_sample_diag_fim(net, x, BUDGET, mode, np.random.default_rng(5), labels)
        assert set(got.values) == set(ref)
        for key in ref:
            assert_rel_close(got.values[key], ref[key], f"{name} {key}")


@pytest.mark.parametrize("mode", ["sampled", "expected"])
def test_batched_full_block_matches_per_sample_reference(mode):
    for name, net, x in estimator_cases():
        for i, layer in enumerate(net.layers):
            if not isinstance(layer, (Dense, Conv2D)):
                continue
            key = f"{i}.W" if isinstance(layer, Dense) else f"{i}.K"
            if net.get_param(key).size > FULL_FIM_PARAM_CAP:
                continue
            got = estimate_full_fim_layer(net, x, i, BUDGET, mode, np.random.default_rng(6))
            ref = per_sample_full_fim(net, x, key, BUDGET, mode, np.random.default_rng(6))
            assert_rel_close(got.matrix, ref, f"{name} {key}")


def test_rotated_diag_fim_is_plain_gradients_rotated():
    # EKFAC identity: the sandwiched layer's per-example gradient is the plain
    # one seen through the rotation, U2^T G U1^T for a dense weight and
    # U1 G U2 per slice for a kernel; the detached bias keeps its gradient.
    plain, rotated, pairs, x = rotated_convnet(22)
    got = estimate_diag_fim(rotated, x, BUDGET, "expected", np.random.default_rng(7))
    plain_index = [i for i, l in enumerate(plain.layers) if isinstance(l, (Dense, Conv2D))]
    oracle = {}
    for w, grads in per_sample_fim_terms(plain, x, BUDGET, "expected", np.random.default_rng(7)):
        for j, pair in zip(plain_index, pairs):
            mid = pair.layer_index
            if isinstance(plain.layers[j], Dense):
                key, g = f"{mid}.W", pair.U2.T @ grads[f"{j}.W"] @ pair.U1.T
            else:
                key, g = f"{mid}.K", rotate_conv_kernel(grads[f"{j}.K"], pair.U1, pair.U2)
            for k, v in ((key, g), (f"{mid + 2}.b", grads[f"{j}.b"])):
                oracle[k] = oracle.get(k, 0.0) + w * v * v
    assert set(oracle) == set(got.values)
    for key, v in oracle.items():
        assert_rel_close(got.values[key], v / BUDGET, key, rtol=1e-10)


def full_depth_grads(net, cache, labels):
    """Backpropagation down to the input, as before the cutoff."""
    n = len(labels)
    grad = np.exp(log_softmax(cache.logits))
    grad[np.arange(n), labels] -= 1.0
    grad /= n
    grads = {}
    for i in range(len(net.layers) - 1, -1, -1):
        grad, pgrads = net.layers[i].backward(cache.inputs[i], grad, aux=cache.aux[i])
        for name, g in (pgrads or {}).items():
            grads[f"{i}.{name}"] = g
    return grads


def test_backward_stops_at_lowest_trainable_layer():
    for name, net, x in estimator_cases():
        labels = np.arange(16) % net.head_classes
        _, cache = forward(net, x[:16])
        _, gset = backward(net, cache, labels)
        ref = full_depth_grads(net, cache, labels)
        assert set(gset.grads) == set(ref)
        for key in ref:
            assert np.array_equal(gset.grads[key], ref[key]), f"{name} {key}"

    _, rotated, _, x = rotated_convnet(21)

    def frozen_input_backward(*args, **kwargs):
        raise AssertionError("backward reached the frozen input rotation")

    rotated.layers[0].backward = frozen_input_backward
    _, cache = forward(rotated, x[:16])
    backward(rotated, cache, np.zeros(16, dtype=int))
