import os

import numpy as np
import pytest

from helpers import make_idx_pair
from rewc.data import (
    RawDataset,
    TaskDataset,
    TaskSequence,
    disjoint_split,
    grouped_split,
    load_mnist_idx,
    load_task_sequence,
    save_task_sequence,
    synthetic_tasks,
)
from rewc.errors import DataFormatError, DimensionError


def write_pair(tmp_path, img, lab, tag=""):
    ip = os.path.join(tmp_path, f"img{tag}.idx")
    lp = os.path.join(tmp_path, f"lab{tag}.idx")
    open(ip, "wb").write(img)
    open(lp, "wb").write(lab)
    return ip, lp


def test_idx_parse_scale_and_pad(tmp_path):
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, size=(7, 28, 28), dtype=np.uint8)
    labels = rng.integers(0, 10, size=7, dtype=np.uint8)
    ip, lp = write_pair(tmp_path, *make_idx_pair(images, labels))
    x, y = load_mnist_idx(ip, lp)
    assert x.shape == (7, 32, 32, 1)
    assert y.tolist() == labels.tolist()
    assert x.min() >= 0.0 and x.max() <= 1.0
    assert np.all(x[:, :2] == 0.0) and np.all(x[:, :, :2] == 0.0)
    x28, _ = load_mnist_idx(ip, lp, pad_to_32=False)
    assert x28.shape == (7, 28, 28, 1)
    assert np.max(np.abs(x28[:, :, :, 0] - images / 255.0)) == 0.0


def test_idx_roundtrip_bit_exact(tmp_path):
    images = (np.arange(2 * 28 * 28) % 256).astype(np.uint8).reshape(2, 28, 28)
    labels = np.array([3, 7], dtype=np.uint8)
    ip, lp = write_pair(tmp_path, *make_idx_pair(images, labels))
    x, y = load_mnist_idx(ip, lp, pad_to_32=False)
    assert np.array_equal(np.round(x[..., 0] * 255.0).astype(np.uint8), images)
    assert np.array_equal(y, labels.astype(np.int64))


def test_idx_gzip_supported(tmp_path):
    import gzip

    images = np.zeros((3, 28, 28), dtype=np.uint8)
    labels = np.array([1, 2, 3], dtype=np.uint8)
    img, lab = make_idx_pair(images, labels)
    ip = os.path.join(tmp_path, "img.idx.gz")
    lp = os.path.join(tmp_path, "lab.idx.gz")
    open(ip, "wb").write(gzip.compress(img))
    open(lp, "wb").write(gzip.compress(lab))
    x, y = load_mnist_idx(ip, lp)
    assert x.shape == (3, 32, 32, 1)


def test_idx_error_messages(tmp_path):
    images = np.zeros((2, 28, 28), dtype=np.uint8)
    labels = np.array([0, 1], dtype=np.uint8)
    img, lab = make_idx_pair(images, labels)
    ip, lp = write_pair(tmp_path, img, lab)

    bad_img = b"\x00\x00\x08\x01" + img[4:]
    bip, _ = write_pair(tmp_path, bad_img, lab, tag="bad")
    with pytest.raises(DataFormatError, match="image file magic"):
        load_mnist_idx(bip, lp)

    bad_lab = b"\x00\x00\x08\x03" + lab[4:]
    _, blp = write_pair(tmp_path, img, bad_lab, tag="badlab")
    with pytest.raises(DataFormatError, match="label file magic"):
        load_mnist_idx(ip, blp)

    img3, _ = make_idx_pair(np.zeros((3, 28, 28), dtype=np.uint8), np.zeros(3, dtype=np.uint8))
    ip3, _ = write_pair(tmp_path, img3, lab, tag="n3")
    with pytest.raises(DataFormatError, match="count"):
        load_mnist_idx(ip3, lp)

    tip, _ = write_pair(tmp_path, img[:-10], lab, tag="trunc")
    with pytest.raises(DataFormatError, match="truncated"):
        load_mnist_idx(tip, lp)


def fake_raw(n_classes=10, per_class=12, dim=6, seed=0):
    rng = np.random.default_rng(seed)
    ys = np.repeat(np.arange(n_classes), per_class)
    xs = rng.random((n_classes * per_class, dim))
    yt = np.repeat(np.arange(n_classes), 4)
    xt = rng.random((n_classes * 4, dim))
    return RawDataset(xs, ys, xt, yt, n_classes)


def test_disjoint_split_contiguous_groups():
    seq = disjoint_split(fake_raw(), T=2, seed=0)
    assert seq[0].class_ids == (0, 1, 2, 3, 4)
    assert seq[1].class_ids == (5, 6, 7, 8, 9)
    for t in seq:
        assert set(np.unique(t.train_y)) == set(t.class_ids)
        assert set(np.unique(t.test_y)) == set(t.class_ids)


def test_disjoint_split_one_class_per_task():
    seq = disjoint_split(fake_raw(), T=10, seed=1)
    assert len(seq) == 10
    assert all(len(t.class_ids) == 1 for t in seq)


def test_disjoint_split_partition_property():
    raw = fake_raw()
    seq = disjoint_split(raw, T=2, seed=2)
    sizes = sum(t.test_x.shape[0] for t in seq)
    assert sizes == raw.test_x.shape[0]
    all_rows = np.concatenate([t.test_x for t in seq])
    assert sorted(map(tuple, all_rows)) == sorted(map(tuple, raw.test_x))


def test_disjoint_split_requires_divisibility():
    with pytest.raises(DimensionError):
        disjoint_split(fake_raw(), T=3, seed=0)


def test_split_seed_changes_order_not_assignment():
    raw = fake_raw()
    a = disjoint_split(raw, T=2, seed=0)
    b = disjoint_split(raw, T=2, seed=1)
    assert a[0].class_ids == b[0].class_ids
    assert sorted(map(tuple, a[0].train_x)) == sorted(map(tuple, b[0].train_x))
    assert not np.array_equal(a[0].train_x, b[0].train_x)


def test_grouped_split_custom_groups():
    seq = grouped_split(fake_raw(), [(0, 1, 2), (3, 4), (5, 6, 7), (8, 9)], seed=0)
    assert [t.class_ids for t in seq] == [(0, 1, 2), (3, 4), (5, 6, 7), (8, 9)]


def test_synthetic_counts_and_ids():
    seq = synthetic_tasks(seed=0, T=2, classes_per_task=2, dim=5)
    assert seq.n_classes == 4
    assert seq[0].class_ids == (0, 1) and seq[1].class_ids == (2, 3)
    for t in seq:
        assert t.train_x.shape == (400, 5)
        assert t.test_x.shape == (200, 5)
        for c in t.class_ids:
            assert (t.train_y == c).sum() == 200
            assert (t.test_y == c).sum() == 100


def test_synthetic_deterministic():
    a = synthetic_tasks(seed=42, T=2, dim=6)
    b = synthetic_tasks(seed=42, T=2, dim=6)
    for ta, tb in zip(a, b):
        assert np.array_equal(ta.train_x, tb.train_x)
        assert np.array_equal(ta.test_y, tb.test_y)


def test_synthetic_mean_separation_contract():
    for cond in (1.0, 20.0):
        seq = synthetic_tasks(seed=3, T=2, classes_per_task=2, dim=8,
                              separation=10.0, noise_cond=cond)
        means = []
        for t in seq:
            for c in t.class_ids:
                means.append(t.train_x[t.train_y == c].mean(axis=0))
        means = np.array(means)
        d = np.linalg.norm(means[:, None] - means[None, :], axis=2)
        np.fill_diagonal(d, np.inf)
        # empirical means wobble by ~ sigma/sqrt(200)
        assert d.min() > 10.0 - 1.0


def test_synthetic_image_shape():
    seq = synthetic_tasks(seed=1, T=2, classes_per_task=2, image_shape=(4, 4, 1))
    assert seq[0].train_x.shape == (400, 4, 4, 1)


def test_synthetic_linearly_separable_in_50_steps():
    import rewc
    from rewc.network import backward, forward
    from rewc.optim import AdamState, adam_step

    for seed in (0, 1, 2):
        task = synthetic_tasks(seed=seed, T=1, classes_per_task=2, dim=8, separation=10.0)[0]
        net = rewc.build_network("mlp-custom", input_shape=(8,), hidden=[16, 2], seed=seed)
        state = AdamState(net)
        for _ in range(50):
            logits, cache = forward(net, task.train_x)
            _, gset = backward(net, cache, task.train_y)
            adam_step(net, gset.grads, state, 0.01)
        acc = np.mean(np.argmax(forward(net, task.test_x)[0], 1) == task.test_y)
        assert acc > 0.99, f"seed {seed}: {acc}"


def test_task_sequence_rejects_overlap():
    t0 = TaskDataset(0, (0, 1), np.zeros((2, 3)), np.array([0, 1]), np.zeros((2, 3)), np.array([0, 1]))
    t1 = TaskDataset(1, (1, 2), np.zeros((2, 3)), np.array([1, 2]), np.zeros((2, 3)), np.array([1, 2]))
    with pytest.raises(DimensionError):
        TaskSequence([t0, t1], 3)


def test_task_sequence_cache_roundtrip(tmp_path):
    seq = synthetic_tasks(seed=5, T=3, classes_per_task=2, dim=4)
    path = os.path.join(tmp_path, "seq.rdat")
    save_task_sequence(seq, path)
    back = load_task_sequence(path)
    assert len(back) == len(seq) and back.n_classes == seq.n_classes
    for ta, tb in zip(seq, back):
        assert ta.task_id == tb.task_id and ta.class_ids == tb.class_ids
        assert np.array_equal(ta.train_x, tb.train_x)
        assert np.array_equal(ta.train_y, tb.train_y)
        assert np.array_equal(ta.test_x, tb.test_x)
        assert np.array_equal(ta.test_y, tb.test_y)
    with open(path, "r+b") as f:
        f.write(b"XXXX")
    with pytest.raises(DataFormatError):
        load_task_sequence(path)
