"""Desk-scale analogs of the MNIST-bound acceptance criteria.

These always run: they drive the exact code paths of the two data-gated
criteria (full-FIM energy diagnostics and the T=2 conv continual cycle) on
synthetic streams so regressions surface even without the dataset.
"""

import numpy as np

import rewc
from rewc.continual import Hyper, Method, run_sequence, train_task
from rewc.fim import estimate_full_fim_layer
from rewc.linalg import diag_energy_ratio
from rewc.network import build_network, forward
from rewc.rotation import accumulate_correlations, rotate_network
from rewc.util import rng_for


def test_diag_energy_improvement_synthetic():
    gains = []
    for seed in (0, 1, 2):
        tasks = rewc.synthetic_tasks(seed=seed, T=1, classes_per_task=10, shape=(20,),
                                     separation=12.0, noise_cond=15.0)
        t = tasks[0]
        net = build_network("mlp-custom", 10, (20,), [10, 10], seed=seed)
        train_task(net, t, Hyper(epochs=5, batch_size=32), 0, None)
        before = estimate_full_fim_layer(net, t.train_x, 2, 200, "expected",
                                         rng_for(seed, "diag-before"), t.train_y)
        stats = accumulate_correlations(net, t.train_x, 200, rng_for(seed, "rot"),
                                        labels=t.train_y, scope="all_no_last")
        rot = rotate_network(net, stats)
        after = estimate_full_fim_layer(rot, t.train_x, 2, 200, "expected",
                                        rng_for(seed, "diag-after"), t.train_y)
        gains.append(diag_energy_ratio(after) - diag_energy_ratio(before))
    assert sum(g >= 0.10 for g in gains) >= 2, gains


def test_conv_continual_cycle_synthetic():
    # full rotated-EWC cycle through a conv stack: rotate (conv layers
    # included), anchor, train task 2 in rotated coords, evaluate
    tasks = rewc.synthetic_tasks(seed=5, T=2, classes_per_task=2, separation=12.0,
                                 shape=(16, 16, 1), noise_cond=10.0)
    net = build_network("lenet", 2, (16, 16, 1), seed=1)
    method = Method("rewc", lam=100.0, scope="all_no_last", fim_samples=100)
    result = run_sequence(net, tasks, method, Hyper(epochs=5, batch_size=32))
    net, matrix = result.net, result.eval_matrix
    assert net.is_rotated()
    rotated = {l.kind for l in net.layers if l.rotated}
    assert rotated == {"conv2d", "dense"}
    assert matrix[0][0] > 0.9        # task 1 learned
    assert matrix[1][1] > 0.85       # task 2 learned in rotated coordinates
    assert all(0.0 <= a <= 1.0 for row in matrix for a in row)


def test_ft_ewc_rewc_ordering_t2_synthetic():
    # strongly anisotropic inputs: the axis-aligned penalty protects almost
    # nothing here, while the rotated one measurably retains task 1
    finals = {}
    for name, lam in (("ft", 0.0), ("ewc", 1000.0), ("rewc", 1000.0)):
        rows = []
        for seed in (0, 1, 2):
            tasks = rewc.synthetic_tasks(seed=seed, T=2, classes_per_task=2, shape=(8,),
                                         separation=10.0, noise_cond=20.0)
            net = build_network("mlp-custom", 2, (8,), [64, 32], seed=seed)
            result = run_sequence(net, tasks, Method(name, lam=lam),
                                  Hyper(epochs=10, batch_size=32))
            rows.append(result.eval_matrix[-1])
        finals[name] = np.mean(rows, axis=0)
    assert finals["ft"][0] < 0.3                           # plain tuning forgets
    assert finals["rewc"][0] > finals["ft"][0] + 0.03      # rotated anchor retains
    assert np.mean(finals["rewc"]) >= np.mean(finals["ewc"])


def test_mnist_pipeline_with_fake_idx(tmp_path):
    # drives the exact load -> split -> LeNet -> sequence plumbing the MNIST
    # criteria use, on fabricated IDX files
    from helpers import make_idx_pair
    from rewc.data import MNIST_FILES, disjoint_split, load_mnist

    rng = np.random.default_rng(0)
    for split, n in (("train", 400), ("test", 100)):
        images = rng.integers(0, 256, size=(n, 28, 28), dtype=np.uint8)
        labels = np.tile(np.arange(10, dtype=np.uint8), n // 10)
        img, lab = make_idx_pair(images, labels)
        (tmp_path / MNIST_FILES[f"{split}_images"]).write_bytes(img)
        (tmp_path / MNIST_FILES[f"{split}_labels"]).write_bytes(lab)
    raw = load_mnist(str(tmp_path), pad_to_32=True)
    assert raw.train_x.shape == (400, 32, 32, 1)
    tasks = disjoint_split(raw, 2, seed=0)
    assert tasks[0].class_ids == (0, 1, 2, 3, 4)
    net = build_network("lenet", 5, (32, 32, 1), seed=0)
    result = run_sequence(net, tasks, Method("rewc", lam=100.0, fim_samples=50),
                          Hyper(epochs=1, batch_size=64))
    net, matrix = result.net, result.eval_matrix
    assert len(matrix) == 2 and len(matrix[1]) == 2
    assert net.head_classes == 10
