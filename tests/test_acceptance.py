"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -v tests/test_acceptance.py`` (add ``-s`` to see the
per-criterion lines).  The two MNIST-dependent criteria skip with an explicit
message when no MNIST IDX directory is available (see README: data/mnist or
$REWC_MNIST_DIR).
"""

import time

import numpy as np
import pytest

import rewc
from helpers import fd_param_gradient, locate_mnist, max_rel_error, random_convnet, random_mlp
from rewc.continual import Hyper, Method, run_sequence, train_task
from rewc.fim import estimate_diag_fim, estimate_full_fim_layer, ewc_penalty, make_anchor
from rewc.linalg import diag_energy_ratio, jacobi_eigh
from rewc.network import backward, build_network, forward, grow_head, label_gradient, softmax
from rewc.rotation import accumulate_correlations, combine_network, rotate_network
from rewc.util import rng_for


def random_convnet_with_hidden_dense(rng):
    return random_convnet(rng, hidden_dense=True)


# The (network, scope) pairs a config accepts: conv_only needs a convolution.
CASES = [(random_mlp, "fc_only"),
         (random_convnet_with_hidden_dense, "conv_only"),
         (random_mlp, "all_no_last"),
         (random_convnet_with_hidden_dense, "fc_only"),
         (random_convnet_with_hidden_dense, "all_no_last")]


def test_criterion_1_rotation_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1001)
    worst_logit = 0.0
    worst_param = 0.0
    for i in range(500):
        maker, scope = CASES[i % len(CASES)]
        net = maker(rng)
        x = rng.normal(size=(20,) + net.input_shape)
        stats = accumulate_correlations(net, x, sample_budget=20, rng=rng, scope=scope)
        rot = rotate_network(net, stats)
        assert rot.is_rotated(), (maker.__name__, scope)
        l0, _ = forward(net, x)
        l1, _ = forward(rot, x)
        worst_logit = max(worst_logit, float(np.max(np.abs(l0 - l1))))
        back = combine_network(rot)
        for la, lb in zip(net.layers, back.layers):
            for k, v in la.params().items():
                worst_param = max(worst_param, float(np.max(np.abs(v - lb.params()[k]))))
    elapsed = time.perf_counter() - t0
    assert worst_logit < 1e-8, worst_logit
    assert worst_param < 1e-10, worst_param
    assert elapsed < 120.0, elapsed
    print(f"\nACCEPTANCE 1 rotation-equivalence: PASS "
          f"(max logit dev {worst_logit:.2e}, max param dev {worst_param:.2e}, {elapsed:.0f}s)")


def test_criterion_2_gradient_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2002)
    worst = 0.0
    kinds_seen = set()
    for i in range(50):
        maker = random_mlp if i % 2 == 0 else random_convnet
        net = maker(rng, rotated=(i % 4) < 2)
        kinds_seen |= {l.kind + (" rotated" if l.rotated else "") for l in net.layers}
        x = rng.normal(size=(3,) + net.input_shape)
        y = rng.integers(0, net.head_classes, 3)
        _, cache = forward(net, x)
        _, grads = backward(net, cache, y)
        for key in net.params():
            fd = fd_param_gradient(net, x, y, key)
            worst = max(worst, max_rel_error(grads[key], fd))
        # penalty gradient against the same oracle
        fim = estimate_diag_fim(net, x, sample_budget=3, mode="sampled", rng=rng)
        anchor = make_anchor(net, fim, 13.0)
        for p in net.params().values():
            p += rng.normal(0, 0.05, p.shape)
        _, pgrads = ewc_penalty(net, anchor)
        h = 1e-5
        for key, p in net.params().items():
            flat = p.ravel()
            j = int(rng.integers(flat.size))
            orig = flat[j]
            flat[j] = orig + h
            up, _ = ewc_penalty(net, anchor)
            flat[j] = orig - h
            dn, _ = ewc_penalty(net, anchor)
            flat[j] = orig
            fd = (up - dn) / (2 * h)
            worst = max(worst, max_rel_error(np.array([pgrads[key].ravel()[j]]), np.array([fd])))
    elapsed = time.perf_counter() - t0
    expected_kinds = {"dense", "conv2d", "relu", "flatten", "meanpool2d",
                      "dense rotated", "conv2d rotated"}
    assert expected_kinds <= kinds_seen, kinds_seen
    assert worst < 1e-4, worst
    assert elapsed < 120.0, elapsed
    print(f"\nACCEPTANCE 2 gradient-correctness: PASS "
          f"(max rel err {worst:.2e}, kinds {sorted(kinds_seen)}, {elapsed:.0f}s)")


def test_criterion_3_eigensolver():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3003)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 129))
        m = rng.normal(size=(n, n))
        a = m @ m.T
        e = jacobi_eigh(a)
        rec = np.max(np.abs(e.U @ np.diag(e.S) @ e.U.T - a)) / np.max(np.abs(a))
        worst = max(worst, float(rec))
    e2 = jacobi_eigh(np.array([[2.0, 1.0], [1.0, 2.0]]))
    analytic_err = max(
        float(np.max(np.abs(e2.S - [3.0, 1.0]))),
        float(np.max(np.abs(e2.U[:, 0] - 1 / np.sqrt(2)))),
        float(np.max(np.abs(e2.U[:, 1] - np.array([1, -1]) / np.sqrt(2)))),
    )
    elapsed = time.perf_counter() - t0
    assert worst < 1e-9, worst
    assert analytic_err < 1e-12, analytic_err
    assert elapsed < 30.0, elapsed
    print(f"\nACCEPTANCE 3 eigensolver: PASS "
          f"(max recon {worst:.2e}, analytic {analytic_err:.2e}, {elapsed:.0f}s)")


def _spatial_corr(t):
    if t.ndim == 2:
        return t.T @ t
    hw = t.shape[1] * t.shape[2]
    return np.tensordot(t, t, axes=([0, 1, 2], [0, 1, 2])) / hw


def test_criterion_4_factored_fim_diagonalization():
    rng = np.random.default_rng(4004)
    worst = 0.0
    for i in range(6):
        net = random_mlp(rng) if i % 2 == 0 else random_convnet(rng, hidden_dense=True)
        mix = rng.normal(size=(net.input_shape[-1],) * 2) if len(net.input_shape) == 1 else None
        x = rng.normal(size=(40,) + net.input_shape)
        if mix is not None:
            x = x @ mix  # correlate the inputs
        y = rng.integers(0, net.head_classes, 40)
        stats = accumulate_correlations(net, x, sample_budget=40, rng=rng,
                                        labels=y, use_true_labels=True, scope="all_no_last")
        rot = rotate_network(net, stats)
        _, cache = forward(rot, x)
        deltas = backward(rot, cache, label_gradient(softmax(cache.logits), y), record_only=True)
        for i, layer in enumerate(rot.layers):
            if not layer.rotated:
                continue
            # the layer's input and output gradient in its rotated coordinates
            xin = cache.inputs[i] @ layer.U1.T
            z = deltas[i] @ layer.U2 * x.shape[0]
            for c in (_spatial_corr(xin), _spatial_corr(z)):
                off = c - np.diag(np.diag(c))
                frac = float(np.sum(off * off) / np.sum(c * c))
                worst = max(worst, frac)
    assert worst < 1e-8, worst
    print(f"\nACCEPTANCE 4 factored-fim-diagonalization: PASS (max off-diag fraction {worst:.2e})")


MNIST_SKIP = ("MNIST IDX files not found (set $REWC_MNIST_DIR or place the four "
              "canonical files under data/mnist); this environment has no network "
              "access to fetch them")


def test_criterion_5_diag_energy_improvement_mnist():
    mnist_dir = locate_mnist()
    if mnist_dir is None:
        print("\nACCEPTANCE 5 diag-energy-improvement (MNIST): SKIP - data unavailable")
        pytest.skip(MNIST_SKIP)
    t0 = time.perf_counter()
    raw = rewc.load_mnist(mnist_dir, pad_to_32=False)
    gains = []
    for seed in (0, 1, 2):
        order = rng_for(seed, "subset").permutation(raw.train_x.shape[0])[:10_000]
        x, y = raw.train_x[order], raw.train_y[order]
        net = build_network("mlp-784-10-10-10", head_classes=10, seed=seed)
        from rewc.data import TaskDataset

        task = TaskDataset(tuple(range(10)), x, y, raw.test_x, raw.test_y)
        train_task(net, task, Hyper(epochs=5, batch_size=64), 0, None)
        # layer 3 is the second dense layer (10x10 weights)
        before = estimate_full_fim_layer(net, x, 3, 200, "expected",
                                         rng_for(seed, "diag-before"), y)
        stats = accumulate_correlations(net, x, 200, rng_for(seed, "rot"), labels=y,
                                        scope="all_no_last")
        rot = rotate_network(net, stats)
        after = estimate_full_fim_layer(rot, x, 3, 200, "expected",
                                        rng_for(seed, "diag-after"), y)
        rb = diag_energy_ratio(before)
        ra = diag_energy_ratio(after)
        gains.append(ra - rb)
        print(f"  seed {seed}: diag energy {rb:.3f} -> {ra:.3f}")
    elapsed = time.perf_counter() - t0
    improved = sum(g >= 0.10 for g in gains)
    assert improved >= 2, gains
    assert elapsed < 600.0, elapsed
    print(f"\nACCEPTANCE 5 diag-energy-improvement (MNIST): PASS "
          f"(gains {[f'{g:+.3f}' for g in gains]}, {elapsed:.0f}s)")


def test_criterion_6_disjoint_mnist_t2():
    mnist_dir = locate_mnist()
    if mnist_dir is None:
        print("\nACCEPTANCE 6 disjoint-mnist-T2: SKIP - data unavailable")
        pytest.skip(MNIST_SKIP)
    t0 = time.perf_counter()
    raw = rewc.load_mnist(mnist_dir, pad_to_32=True)
    finals = {}
    for name, lam in (("ft", 0.0), ("ewc", 100.0), ("rewc", 100.0)):
        rows = []
        for seed in (0, 1, 2):
            tasks = rewc.disjoint_split(raw, 2, seed)
            net = build_network("lenet", head_classes=5, input_shape=(32, 32, 1), seed=seed)
            method = Method(name, lam=lam, scope="all_no_last",
                            fim_samples=200, fim_mode="sampled")
            final = run_sequence(net, tasks, method,
                                 Hyper(epochs=5, batch_size=64, lr=1e-3)).eval_matrix[-1]
            rows.append(final)
            print(f"  {name} seed {seed}: final {['%.3f' % a for a in final]}")
        finals[name] = np.mean(rows, axis=0)
    elapsed = time.perf_counter() - t0
    ft_t1, ewc_t1 = finals["ft"][0], finals["ewc"][0]
    ewc_avg = float(np.mean(finals["ewc"]))
    rewc_avg = float(np.mean(finals["rewc"]))
    assert ft_t1 < 0.30, finals
    assert ewc_t1 > 0.60, finals
    assert rewc_avg >= ewc_avg + 0.02, finals
    assert elapsed < 2400.0, elapsed
    print(f"\nACCEPTANCE 6 disjoint-mnist-T2: PASS (ft_t1 {ft_t1:.3f}, ewc_t1 {ewc_t1:.3f}, "
          f"avg ewc {ewc_avg:.3f} vs rewc {rewc_avg:.3f}, {elapsed:.0f}s)")


def test_criterion_7_four_task_sequence():
    t0 = time.perf_counter()
    per_step = {}
    for name, lam in (("ft", 0.0), ("ewc", 300.0), ("rewc", 300.0)):
        rows = []
        for seed in (0, 1, 2):
            tasks = rewc.synthetic_tasks(seed=seed, T=4, classes_per_task=2, dim=8,
                                         separation=10.0, noise_cond=20.0)
            net = build_network("mlp-custom", input_shape=(8,), hidden=[64, 32, 2], seed=seed)
            method = Method(name, lam=lam, scope="all_no_last")
            matrix = run_sequence(net, tasks, method,
                                  Hyper(epochs=10, batch_size=32)).eval_matrix
            rows.append([np.mean(row) for row in matrix])
        per_step[name] = np.mean(rows, axis=0)
        print(f"  {name}: per-step {['%.3f' % a for a in per_step[name]]}")
    elapsed = time.perf_counter() - t0
    assert np.all(per_step["rewc"] >= per_step["ewc"] - 1e-12), per_step
    assert per_step["rewc"][-1] >= per_step["ft"][-1], per_step
    assert per_step["ewc"][-1] >= per_step["ft"][-1], per_step
    assert elapsed < 3600.0, elapsed
    print(f"\nACCEPTANCE 7 four-task-sequence: PASS ({elapsed:.0f}s)")


def test_criterion_8_invariant_suite(tmp_path):
    t0 = time.perf_counter()
    # anchor penalty is exactly zero at the anchor point
    tasks = rewc.synthetic_tasks(seed=41, T=2, classes_per_task=2, dim=6)
    hyper = Hyper(epochs=2, batch_size=32)
    net = build_network("mlp-custom", input_shape=(6,), hidden=[16, 2], seed=7)
    train_task(net, tasks[0], hyper, 0, None)
    from rewc.continual import finalize_task

    net2, anchor = finalize_task(net, tasks[0], Method("rewc", lam=40.0), 0)
    pen, _ = ewc_penalty(net2, anchor)
    assert pen == 0.0

    # single anchor and a single rotation per layer, never stacked
    counts = []
    net3 = build_network("mlp-custom", input_shape=(6,), hidden=[16, 2], seed=8)
    net3 = run_sequence(net3, rewc.synthetic_tasks(seed=43, T=3, classes_per_task=2, dim=6),
                        Method("rewc", lam=20.0), hyper,
                        task_callback=lambda k, n: counts.append(
                            sum(1 for l in n.layers if l.rotated))).net
    assert counts == [0, 1, 1]
    assert len(net3.layers) == 3 and net3.layers[0].rotated

    # lam=0 EWC is bitwise fine-tuning under shared seeds
    t2 = rewc.synthetic_tasks(seed=47, T=2, classes_per_task=2, dim=6)
    ft = run_sequence(build_network("mlp-custom", input_shape=(6,), hidden=[16, 2], seed=9),
                      t2, Method("ft", lam=0.0), hyper)
    e0 = run_sequence(build_network("mlp-custom", input_shape=(6,), hidden=[16, 2], seed=9),
                      t2, Method("ewc", lam=0.0), hyper)
    assert ft.eval_matrix == e0.eval_matrix

    # head growth preserves old-class logits bit-exactly
    net4 = build_network("mlp-custom", input_shape=(6,), hidden=[16, 3], seed=10)
    probe = np.random.default_rng(0).normal(size=(32, 6))
    before, _ = forward(net4, probe)
    grow_head(net4, 4)
    after, _ = forward(net4, probe)
    assert np.array_equal(before, after[:, :3])

    # FIM entries are non-negative in both modes
    for mode in ("sampled", "expected"):
        fim = estimate_diag_fim(net4, probe, sample_budget=16, mode=mode,
                                rng=np.random.default_rng(1))
        assert all(np.all(v >= 0.0) for v in fim.values.values())

    # MNIST IDX round-trip
    from helpers import make_idx_pair
    from rewc.data import load_mnist_idx

    rng = np.random.default_rng(2)
    images = rng.integers(0, 256, size=(5, 28, 28), dtype=np.uint8)
    labels = rng.integers(0, 10, size=5, dtype=np.uint8)
    img, lab = make_idx_pair(images, labels)
    ip = tmp_path / "im.idx"
    lp = tmp_path / "la.idx"
    ip.write_bytes(img)
    lp.write_bytes(lab)
    x, y = load_mnist_idx(str(ip), str(lp), pad_to_32=False)
    assert np.array_equal(np.round(x[..., 0] * 255.0).astype(np.uint8), images)
    assert np.array_equal(y, labels.astype(np.int64))

    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, elapsed
    print(f"\nACCEPTANCE 8 invariant-suite: PASS ({elapsed:.0f}s)")
