from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    DRAWN_NETS,
    NO_SHRINK,
    per_sample_diag_fim,
    per_sample_fim_terms,
    per_sample_full_fim,
    random_convnet,
    random_mlp,
)
from rewc.errors import AlignmentError, CapacityError, DimensionError
from rewc.fim import (
    FULL_FIM_PARAM_CAP,
    FimDiagonal,
    _sample_labels,
    _softmax_fisher_factor,
    estimate_diag_fim,
    estimate_full_fim_layer,
    ewc_penalty,
    make_anchor,
)
from rewc.layers import Conv2D, Dense
from rewc.linalg import jacobi_eigh
from rewc.network import (
    Network,
    backward,
    build_network,
    forward,
    grow_head,
    label_gradient,
    layout_signature,
    log_softmax,
    softmax,
)
from rewc.rotation import accumulate_correlations, combine_network, rotate_network
from rewc.util import rng_for

# 130 chosen inputs make two full chunks of 64 and a partial one of 2.
BUDGET = 130


def bernoulli_net():
    # logits (z, 0) with z = W[0,0] * x; at W = 0 the softmax is (1/2, 1/2)
    return Network([Dense(np.zeros((2, 1)), np.zeros(2))], 0, (1,))


def test_expected_mode_matches_bernoulli_fisher():
    net = bernoulli_net()
    fim = estimate_diag_fim(net, np.array([[1.0]]), sample_budget=1, mode="expected",
                            rng=np.random.default_rng(0))
    # closed form: p(1-p) at p = 1/2
    assert fim.values["0.W"][0, 0] == pytest.approx(0.25, abs=1e-12)
    assert fim.values["0.W"][1, 0] == pytest.approx(0.25, abs=1e-12)


def probability_rows():
    """Rows of class probabilities: near-uniform, peaked (entries within
    rounding of 1 and of 0), exactly one-hot, with entries underflowed to 0,
    and heads of one and two classes."""
    g = np.random.default_rng(31)
    yield "one class", np.ones((3, 1))
    for classes in (2, 3, 5, 10):
        yield f"near-uniform {classes}", softmax(g.normal(0, 0.01, (20, classes)))
        yield f"peaked {classes}", softmax(g.normal(0, 40, (20, classes)))
        yield f"one-hot {classes}", np.eye(classes)[g.integers(0, classes, 5)]
        z = g.normal(0, 1, (20, classes))
        z[:, ::2] -= 1000.0  # exp underflows to exactly 0
        yield f"underflowed {classes}", softmax(z)


def exact_output_fisher(row):
    """``diag(p) - p p^T`` in exact arithmetic for the distribution the row
    stands for: a row sums to 1 only within rounding, so ``p p^T`` is divided
    by the row's exact sum."""
    p = [Fraction(float(v)) for v in row]
    total = sum(p)
    return np.array([[float((pi if i == j else 0) - pi * pj / total)
                      for j, pj in enumerate(p)] for i, pi in enumerate(p)])


def test_softmax_fisher_factor_sums_to_the_output_fisher():
    for name, p in probability_rows():
        v = _softmax_fisher_factor(p)
        assert v.shape == (p.shape[1] - 1,) + p.shape, name
        assert np.all(np.isfinite(v)), name
        got = np.einsum("kri,krj->rij", v, v)
        for r, row in enumerate(p):
            want = exact_output_fisher(row)
            err = np.max(np.abs(got[r] - want))
            assert err <= 1e-15 * np.max(np.abs(want)), f"{name} row {r}: {err}"


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
    expected = estimate_diag_fim(net, x0, sample_budget=1, mode="expected", rng=rng)
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
    rng = np.random.default_rng(0)
    with pytest.raises(DimensionError):
        estimate_diag_fim(net, np.ones((3, 1)), sample_budget=4, mode="sampled", rng=rng)
    with pytest.raises(DimensionError):
        estimate_diag_fim(net, np.ones((0, 1)), sample_budget=1, mode="sampled", rng=rng)
    with pytest.raises(DimensionError, match="at least 1"):
        estimate_diag_fim(net, np.ones((3, 1)), sample_budget=0, mode="sampled", rng=rng)


def test_full_block_diag_consistency():
    rng = np.random.default_rng(4)
    net = random_mlp(rng)
    x = rng.normal(size=(25, net.input_shape[0]))
    layer_idx = next(i for i, layer in enumerate(net.layers) if layer.trainable)
    diag = estimate_diag_fim(net, x, sample_budget=15, mode="sampled", rng=rng_for(9, "t"))
    block = estimate_full_fim_layer(net, x, layer_idx, sample_budget=15, mode="sampled",
                                    rng=rng_for(9, "t"))
    assert np.max(np.abs(np.diag(block) - diag.values[f"{layer_idx}.W"].ravel())) < 1e-12


def test_single_sample_block_rank():
    net = build_network("mlp-custom", input_shape=(3,), hidden=[4, 3], seed=1)
    x = np.random.default_rng(5).normal(size=(1, 3))
    block = estimate_full_fim_layer(net, x, 2, sample_budget=1, mode="expected",
                                    rng=np.random.default_rng(0))
    assert np.linalg.matrix_rank(block, tol=1e-12) <= 3
    sampled = estimate_full_fim_layer(net, x, 2, sample_budget=1, mode="sampled",
                                      rng=np.random.default_rng(0))
    assert np.linalg.matrix_rank(sampled, tol=1e-12) <= 1


def test_block_is_psd_under_eigensolver():
    rng = np.random.default_rng(6)
    net = random_mlp(rng)
    x = rng.normal(size=(20, net.input_shape[0]))
    layer_idx = next(i for i, layer in enumerate(net.layers) if layer.trainable)
    block = estimate_full_fim_layer(net, x, layer_idx, sample_budget=10, mode="sampled", rng=rng)
    e = jacobi_eigh(block)
    assert np.all(e.S >= -1e-8)


def test_capacity_guard():
    net = build_network("mlp-custom", input_shape=(100,), hidden=[50, 3], seed=0)
    with pytest.raises(CapacityError):
        estimate_full_fim_layer(net, np.zeros((5, 100)), 0, sample_budget=2, mode="sampled",
                                rng=np.random.default_rng(0))


def test_estimators_take_only_the_fim_modes():
    # The true label source is the correlation pass's alone.
    net = bernoulli_net()
    x, labels, rng = np.ones((3, 1)), np.array([0, 1, 0]), np.random.default_rng(0)
    with pytest.raises(ValueError, match="unknown FIM mode 'true'"):
        estimate_diag_fim(net, x, 2, "true", rng, labels)
    with pytest.raises(ValueError, match="unknown FIM mode 'true'"):
        estimate_full_fim_layer(net, x, 0, 2, "true", rng, labels)


def test_penalty_zero_at_anchor():
    rng = np.random.default_rng(7)
    net = random_mlp(rng)
    x = rng.normal(size=(12, net.input_shape[0]))
    fim = estimate_diag_fim(net, x, sample_budget=8, mode="sampled", rng=rng)
    anchor = make_anchor(net, fim, 100.0)
    pen, grads = ewc_penalty(net, anchor)
    assert pen == 0.0
    for g in grads.values():
        assert np.all(g == 0.0)


def test_penalty_direct_substitution():
    net = Network([Dense(np.array([[0.0]]), np.zeros(1))], 0, (1,))
    fim = FimDiagonal(values={"0.W": np.array([[0.01]]), "0.b": np.array([0.01])},
                      layout_hash=layout_signature(net))
    anchor = make_anchor(net, fim, 100.0)
    net.layers[0].W = np.array([[0.5]])
    pen, grads = ewc_penalty(net, anchor)
    assert pen == pytest.approx(0.125, abs=1e-15)
    assert grads["0.W"][0, 0] == pytest.approx(0.5, abs=1e-15)


@pytest.mark.parametrize("name", sorted(DRAWN_NETS))
@pytest.mark.parametrize("rotated", [False, True], ids=["plain", "rotated"])
@settings(max_examples=10, phases=NO_SHRINK)
@given(grown=st.integers(0, 2), lam=st.floats(0.1, 100.0), seed=st.integers(0, 2**32 - 1))
def test_penalty_gradient_finite_differences(name, rotated, grown, lam, seed):
    # Central differences of a quadratic are exact up to roundoff, which
    # grows with the penalty; rows the head grew after the anchor carry none.
    rng = np.random.default_rng(seed)
    net = DRAWN_NETS[name](rng, rotated=rotated)
    fim = FimDiagonal({k: rng.random(p.shape) for k, p in net.params().items()},
                      layout_signature(net))
    anchor = make_anchor(net, fim, lam)
    rows = net.head_classes
    if grown:
        grow_head(net, grown)
    for p in net.params().values():
        p += rng.normal(0, 0.1, p.shape)
    penalty, grads = ewc_penalty(net, anchor)
    assert grads.keys() == net.params().keys()
    h = 1e-5
    tol = 1e-12 * penalty / h
    for key, p in net.params().items():
        flat = p.ravel()
        fd = np.empty(flat.size)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + h
            up, _ = ewc_penalty(net, anchor)
            flat[j] = orig - h
            dn, _ = ewc_penalty(net, anchor)
            flat[j] = orig
            fd[j] = (up - dn) / (2 * h)
        g = grads[key]
        assert g.shape == p.shape, key
        assert np.max(np.abs(g.ravel() - fd)) <= tol, key
        if key.startswith(f"{net.head_index}."):
            assert np.all(g[rows:] == 0.0), key


def test_lambda_fim_rescaling_invariance():
    rng = np.random.default_rng(9)
    net = random_mlp(rng)
    x = rng.normal(size=(10, net.input_shape[0]))
    fim = estimate_diag_fim(net, x, sample_budget=10, mode="sampled", rng=rng)
    a1 = make_anchor(net, fim, 50.0)
    scaled = FimDiagonal(values={k: v / 4.0 for k, v in fim.values.items()},
                         layout_hash=fim.layout_hash)
    a2 = make_anchor(net, scaled, 200.0)
    for p in net.params().values():
        p += rng.normal(0, 0.2, p.shape)
    p1, _ = ewc_penalty(net, a1)
    p2, _ = ewc_penalty(net, a2)
    assert p1 == pytest.approx(p2, rel=1e-12)


def test_lambda_zero_means_no_penalty():
    rng = np.random.default_rng(10)
    net = random_mlp(rng)
    x = rng.normal(size=(10, net.input_shape[0]))
    fim = estimate_diag_fim(net, x, sample_budget=10, mode="sampled", rng=rng)
    anchor = make_anchor(net, fim, 0.0)
    next(iter(net.params().values()))[:] += 1.0
    pen, grads = ewc_penalty(net, anchor)
    assert pen == 0.0 and grads == {}


def test_alignment_error_on_foreign_network():
    rng = np.random.default_rng(11)
    net = random_mlp(rng)
    other = build_network("mlp-custom", input_shape=(4,), hidden=[3, 2], seed=0)
    x = rng.normal(size=(10, net.input_shape[0]))
    fim = estimate_diag_fim(net, x, sample_budget=10, mode="sampled", rng=rng)
    anchor = make_anchor(net, fim, 10.0)
    with pytest.raises(AlignmentError):
        ewc_penalty(other, anchor)


def anchored_rotated_mlp(seed):
    """A random MLP rotated under scope ``all_no_last``, and an anchor on it."""
    rng = np.random.default_rng(seed)
    net = random_mlp(rng)
    x = rng.normal(size=(20, net.input_shape[0]))
    rot = rotate_network(net, accumulate_correlations(net, x, sample_budget=20, rng=rng,
                                                      scope="all_no_last"))
    fim = estimate_diag_fim(rot, x, sample_budget=20, mode="sampled", rng=rng)
    return rot, make_anchor(rot, fim, 10.0)


def test_anchor_rejects_the_folded_network():
    # Folding keeps every key, shape and the forward function, but not the
    # coordinates the anchor's parameters and Fisher are in.
    rot, anchor = anchored_rotated_mlp(21)
    assert rot.is_rotated()
    with pytest.raises(AlignmentError):
        ewc_penalty(combine_network(rot), anchor)
    with pytest.raises(AlignmentError):
        make_anchor(combine_network(rot), anchor.fim, 10.0)


def test_anchor_rejects_the_network_rotated_by_other_matrices():
    # Rotated from other correlations, the same network keeps its layout and
    # its function, but its weights are in other coordinates.
    rot, anchor = anchored_rotated_mlp(23)
    net = combine_network(rot)
    x = np.random.default_rng(24).normal(size=(20, net.input_shape[0]))
    other = rotate_network(net, accumulate_correlations(net, x, sample_budget=20,
                                                        rng=np.random.default_rng(25),
                                                        scope="all_no_last"))
    assert np.allclose(forward(other, x)[0], forward(rot, x)[0], rtol=0, atol=1e-10)
    assert not np.allclose(other.layers[0].U1, rot.layers[0].U1)
    with pytest.raises(AlignmentError):
        ewc_penalty(other, anchor)
    with pytest.raises(AlignmentError):
        make_anchor(other, anchor.fim, 10.0)
    pen, _ = ewc_penalty(rot.clone(), anchor)  # a copy keeps its rotation
    assert pen == 0.0


def test_anchor_on_a_rotated_network_follows_its_grown_head():
    rot, anchor = anchored_rotated_mlp(22)
    rows = rot.head_classes
    grow_head(rot, 2)
    pen, grads = ewc_penalty(rot, anchor)
    assert pen == 0.0 and all(np.all(g == 0.0) for g in grads.values())
    head_key = f"{rot.head_index}.W"
    rot.params()[head_key][:] += 0.3
    pen, grads = ewc_penalty(rot, anchor)
    assert pen > 0.0
    assert grads[head_key].shape == rot.params()[head_key].shape
    assert np.all(grads[head_key][rows:] == 0.0) and np.any(grads[head_key][:rows] != 0.0)


def test_grown_head_rows_carry_no_penalty():
    net = build_network("mlp-custom", input_shape=(6,), hidden=[8, 4], seed=2)
    x = np.random.default_rng(12).normal(size=(15, 6))
    fim = estimate_diag_fim(net, x, sample_budget=10, mode="sampled",
                            rng=np.random.default_rng(1))
    anchor = make_anchor(net, fim, 25.0)
    grow_head(net, 3)
    head_key = f"{net.head_index}.W"
    net.params()[head_key][:] += 0.3  # move everything, incl. new rows
    pen, grads = ewc_penalty(net, anchor)
    assert pen > 0.0
    assert grads[head_key].shape == net.params()[head_key].shape
    assert np.all(grads[head_key][4:] == 0.0)
    assert np.all(grads[f"{net.head_index}.b"][4:] == 0.0)


def rotated_convnet(seed):
    """A conv net rotated under scope ``all_no_last``: its convolutions and
    its hidden dense layer, each with a bias, rotated; the head plain.
    Returns the plain net, the rotated net and inputs."""
    rng = np.random.default_rng(seed)
    plain = random_convnet(rng, hidden_dense=True)
    x = rng.normal(size=(160,) + plain.input_shape)
    stats = accumulate_correlations(plain, x, 120, np.random.default_rng(seed + 1),
                                    scope="all_no_last")
    rotated = rotate_network(plain, stats)
    assert [l.kind for l in rotated.layers if l.rotated] == ["conv2d", "conv2d", "dense"]
    assert all(l.b is not None for l in rotated.layers if l.rotated)
    return plain, rotated, x


def estimator_cases():
    rng = np.random.default_rng(20)
    mlp = random_mlp(rng)
    yield "mlp", mlp, rng.normal(size=(160, mlp.input_shape[0]))
    conv = random_convnet(rng)
    yield "conv", conv, rng.normal(size=(160,) + conv.input_shape)
    _, rotated, x = rotated_convnet(21)
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
            if net.params()[key].size > FULL_FIM_PARAM_CAP:
                continue
            got = estimate_full_fim_layer(net, x, i, BUDGET, mode, np.random.default_rng(6))
            ref = per_sample_full_fim(net, x, key, BUDGET, mode, np.random.default_rng(6))
            assert_rel_close(got, ref, f"{name} {key}")


def rotated_example_grads(rotated, grads):
    """Per-example gradients of the plain network seen through each layer's
    rotation (EKFAC's identity): U2^T G U1^T for a dense weight, U1 G U2 per
    slice for a kernel; the bias, outside U2, and an unrotated layer keep
    their gradients."""
    out = {}
    for key, g in grads.items():
        layer = rotated.layers[int(key.split(".")[0])]
        if layer.rotated and key.endswith(".W"):
            g = layer.U2.T @ g @ layer.U1.T
        elif layer.rotated and key.endswith(".K"):
            g = Conv2D.rotate(g, layer.U1, layer.U2)
        out[key] = g
    return out


def test_rotated_diag_fim_is_plain_gradients_rotated():
    # Plain and rotated nets compute one function, so with one generator they
    # draw the same samples and labels.  Every rotated layer's diagonal and
    # full-block Fisher, and the logits, equal the plain net's seen through the
    # rotation within 1e-12 of each array's largest entry.
    plain, rotated, x = rotated_convnet(22)
    assert_rel_close(forward(rotated, x)[0], forward(plain, x)[0], "logits")
    for mode in ("sampled", "expected"):
        check_rotated_fim(plain, rotated, x, mode)


def check_rotated_fim(plain, rotated, x, mode):
    got = estimate_diag_fim(rotated, x, BUDGET, mode, np.random.default_rng(7))
    oracle = {}
    blocks = {}
    for w, grads in per_sample_fim_terms(plain, x, BUDGET, mode, np.random.default_rng(7)):
        for key, g in rotated_example_grads(rotated, grads).items():
            oracle[key] = oracle.get(key, 0.0) + w * g * g
            if not key.endswith(".b") and g.size <= FULL_FIM_PARAM_CAP:
                blocks[key] = blocks.get(key, 0.0) + w * np.outer(g, g)
    assert set(oracle) == set(got.values)
    for key, v in oracle.items():
        assert_rel_close(got.values[key], v / BUDGET, f"{mode} {key}")
    assert {"0.K", "3.K"} <= set(blocks)
    for key, v in blocks.items():
        block = estimate_full_fim_layer(rotated, x, int(key.split(".")[0]), BUDGET, mode,
                                        np.random.default_rng(7))
        assert_rel_close(block, v / BUDGET, f"{mode} {key} block")


def full_depth_pass(net, cache, labels):
    """Backpropagation down to the input, as before the cutoff: the
    parameter gradients and each trainable layer's output gradient."""
    n = len(labels)
    grad = np.exp(log_softmax(cache.logits))
    grad[np.arange(n), labels] -= 1.0
    grad /= n
    grads, deltas = {}, {}
    for i in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[i]
        if layer.trainable:
            deltas[i] = grad
            for name, g in layer.param_grads(grad, cache.aux[i]).items():
                grads[f"{i}.{name}"] = g
        grad = layer.backward(cache.inputs[i], grad, aux=cache.aux[i])
    return grads, deltas


def test_backward_stops_at_lowest_trainable_layer():
    for name, net, x in estimator_cases():
        labels = np.arange(16) % net.head_classes
        _, cache = forward(net, x[:16])
        _, grads = backward(net, cache, labels)
        ref, _ = full_depth_pass(net, cache, labels)
        assert set(grads) == set(ref)
        for key in ref:
            assert np.array_equal(grads[key], ref[key]), f"{name} {key}"

    # Below the lowest trainable layer nothing runs, not even under a rotation.
    _, rotated, x = rotated_convnet(21)
    original = rotated.layers[0].backward

    def lowest_backward(*args, **kwargs):
        assert kwargs["need_input_grad"] is False
        return original(*args, **kwargs)

    rotated.layers[0].backward = lowest_backward
    _, cache = forward(rotated, x[:16])
    backward(rotated, cache, np.zeros(16, dtype=int))


def test_record_only_backward_keeps_records_and_forms_no_parameter_gradient():
    for name, net, x in estimator_cases():
        labels = np.arange(16) % net.head_classes
        _, cache = forward(net, x[:16])
        _, ref = full_depth_pass(net, cache, labels)
        lowest = min(i for i, l in enumerate(net.layers) if l.trainable)
        reduced, called = [], []

        def spy(i, method, log, arg=None):
            def spied(*args, **kwargs):
                log.append(i if arg is None else (i, kwargs[arg]))
                return method(*args, **kwargs)
            return spied

        for i, layer in enumerate(net.layers):
            layer.backward = spy(i, layer.backward, called, "need_input_grad")
            if layer.trainable:
                layer.param_grads = spy(i, layer.param_grads, reduced)
        deltas = backward(net, cache, label_gradient(softmax(cache.logits), labels),
                          record_only=True)
        assert reduced == [], f"{name}: the curvature pass formed a parameter gradient"
        # Input gradients down to the lowest trainable layer, and none below.
        assert called == [(i, i > lowest) for i in range(len(net.layers) - 1, lowest - 1, -1)]
        # only output gradients, keyed by layer index
        assert set(deltas) == set(ref)
        for i in ref:
            assert np.array_equal(deltas[i], ref[i]), f"{name} {i}"
        # The training pass reduces each record once, top layer first.
        backward(net, cache, labels)
        assert reduced == sorted(ref, reverse=True)


@pytest.mark.parametrize("shape", ["flat", "peaked"])
def test_vectorized_sampler_draws_as_row_by_row_choice(shape):
    # Flat rows put CDF steps on exact ties; peaked rows have probabilities
    # that underflow to 0 and steps within rounding of 1.
    g = np.random.default_rng(19)
    for classes in (2, 5, 10, 100):
        if shape == "flat":
            p = np.full((130, classes), 1.0 / classes)
            p[::2] = softmax(g.normal(0, 0.1, (65, classes)))
        else:
            p = softmax(g.normal(0, 40, (130, classes)))
        rng_vec, rng_loop = np.random.default_rng(classes), np.random.default_rng(classes)
        got = _sample_labels(p, rng_vec.random(len(p)))
        want = [rng_loop.choice(classes, p=row) for row in p]
        assert got.tolist() == want
        assert rng_vec.bit_generator.state == rng_loop.bit_generator.state


def test_sampler_rejects_non_finite_probabilities():
    p = np.array([[0.5, 0.5], [np.nan, np.nan]])
    with pytest.raises(DimensionError, match="not finite"):
        _sample_labels(p, np.random.default_rng(0).random(len(p)))
