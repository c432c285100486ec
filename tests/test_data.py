import hashlib
import os
import re
from pathlib import Path

import numpy as np
import pytest

from helpers import make_idx_pair
from rewc.data import (
    TaskDataset,
    disjoint_split,
    load_mnist_idx,
    synthetic_tasks,
)
from rewc.errors import DataFormatError, DimensionError


def write_pair(tmp_path, img, lab, tag=""):
    ip = os.path.join(tmp_path, f"img{tag}.idx")
    lp = os.path.join(tmp_path, f"lab{tag}.idx")
    Path(ip).write_bytes(img)
    Path(lp).write_bytes(lab)
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
    Path(ip).write_bytes(gzip.compress(img))
    Path(lp).write_bytes(gzip.compress(lab))
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
    return TaskDataset(tuple(range(n_classes)), xs, ys, xt, yt)


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


@pytest.mark.parametrize("T", [0, -2])
def test_disjoint_split_rejects_fewer_than_one_task(T):
    # T = 0 once raised ZeroDivisionError; a negative T gave an empty stream.
    with pytest.raises(DimensionError, match=f"at least 1 task, got T = {T}"):
        disjoint_split(fake_raw(), T=T, seed=0)


def test_split_seed_changes_order_not_assignment():
    raw = fake_raw()
    a = disjoint_split(raw, T=2, seed=0)
    b = disjoint_split(raw, T=2, seed=1)
    assert a[0].class_ids == b[0].class_ids
    assert sorted(map(tuple, a[0].train_x)) == sorted(map(tuple, b[0].train_x))
    assert not np.array_equal(a[0].train_x, b[0].train_x)


def test_synthetic_counts_and_ids():
    seq = synthetic_tasks(seed=0, T=2, classes_per_task=2, shape=(5,))
    assert seq[0].class_ids == (0, 1) and seq[1].class_ids == (2, 3)
    for t in seq:
        assert t.train_x.shape == (400, 5)
        assert t.test_x.shape == (200, 5)
        for c in t.class_ids:
            assert (t.train_y == c).sum() == 200
            assert (t.test_y == c).sum() == 100


def test_synthetic_deterministic():
    a = synthetic_tasks(seed=42, T=2, shape=(6,))
    b = synthetic_tasks(seed=42, T=2, shape=(6,))
    for ta, tb in zip(a, b):
        assert np.array_equal(ta.train_x, tb.train_x)
        assert np.array_equal(ta.test_y, tb.test_y)


def test_synthetic_mean_separation_contract():
    for cond in (1.0, 20.0):
        seq = synthetic_tasks(seed=3, T=2, classes_per_task=2, shape=(8,),
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
    seq = synthetic_tasks(seed=1, T=2, classes_per_task=2, shape=(4, 4, 1))
    assert seq[0].train_x.shape == (400, 4, 4, 1)


def test_synthetic_linearly_separable_in_50_steps():
    import rewc
    from rewc.network import backward, forward
    from rewc.optim import AdamState, adam_step

    for seed in (0, 1, 2):
        task = synthetic_tasks(seed=seed, T=1, classes_per_task=2, shape=(8,), separation=10.0)[0]
        net = rewc.build_network("mlp-custom", 2, (8,), [16], seed=seed)
        state = AdamState(net)
        for _ in range(50):
            logits, cache = forward(net, task.train_x)
            _, grads = backward(net, cache, task.train_y)
            adam_step(net, grads, state, 0.01)
        acc = np.mean(np.argmax(forward(net, task.test_x)[0], 1) == task.test_y)
        assert acc > 0.99, f"seed {seed}: {acc}"


def test_synthetic_stream_needs_two_classes():
    with pytest.raises(DimensionError, match="at least 2 classes"):
        synthetic_tasks(seed=0, T=1, classes_per_task=1)
    synthetic_tasks(seed=0, T=2, classes_per_task=1, shape=(3,))  # two classes are enough
    # A count below 1 once passed: T = -1 with -2 classes per task made an
    # empty stream, and a per-class count of 0 made empty splits.
    for name, counts in [("T", {"T": -1, "classes_per_task": -2}), ("T", {"T": 0}),
                         ("classes_per_task", {"T": 4, "classes_per_task": 0}),
                         ("train_per_class", {"T": 2, "train_per_class": 0}),
                         ("test_per_class", {"T": 2, "test_per_class": -1})]:
        with pytest.raises(DimensionError, match=f"{name} must be at least 1"):
            synthetic_tasks(seed=0, **counts)


@pytest.mark.parametrize("shape", [(0,), (-1,), (0, 4, 1), (4, -2, 1)],
                         ids=["dim-0", "dim-negative", "image-0", "image-negative"])
def test_synthetic_rejects_a_dimension_below_one(shape):
    # dim 0 once failed as "degenerate class means", a negative one in numpy.
    with pytest.raises(DimensionError, match=re.escape(f"sample shape {shape} has a dimension")):
        synthetic_tasks(seed=0, T=2, shape=shape)


@pytest.mark.parametrize("shape", [(), (4, 4), (2, 2, 2, 1)])
def test_synthetic_rejects_a_shape_of_another_rank(shape):
    # The empty shape once made a stream of scalar samples that no network takes.
    with pytest.raises(DimensionError, match=re.escape(f"sample shape {shape} is neither")):
        synthetic_tasks(seed=0, T=2, shape=shape)


# SHA-256 of every array of two streams, recorded with this numpy/BLAS build
# (at 1 and at 2 BLAS threads alike). Another build may round the mixing
# matrix's QR or the GEMMs differently, so the pins hold only for this one.
PIN_BUILD = {"numpy": "2.4.6", "blas": "scipy-openblas", "blas_version": "0.3.31.188.0"}
STREAM_PINS = {
    # the lenet-* benchmark workloads' stream at seed 0
    "lenet": {
        (0, "train_x"): "0ea55896dba009d767820f03203f253050d8cf93dad7e223a8d848150d07bd48",
        (0, "train_y"): "23dd7860420fab72edc45f3af0702ee471367a3846a7a7d31c84814ce19a5699",
        (0, "test_x"): "7dfccc0d2369d0ffc656e1279a772800ffd4b445e9f7202fccc33519bb79d0b7",
        (0, "test_y"): "9e22324c02ff9592cab4ee42ec0c15a48d236fb42835f753d2ff90720de87536",
        (1, "train_x"): "69682f2ea058abceac0cfb211be28e083173e86de8c9f1ec2a4729184cdf3a63",
        (1, "train_y"): "4ce7eeee03b8b8dad13052754ba43be65eafd022c46eb79c54fa2be7738ad5e3",
        (1, "test_x"): "f92a9ddb9ea1fccbb38f4aee6e200285bcf2df8a075b13fc8714bd989c8c7354",
        (1, "test_y"): "8ed3ab6fb190dfc2db5ae43450fc2b0531bec11629303ff9d184ec58d65339c8",
    },
    # configs/synthetic-t4.cfg at seed 0
    "synthetic-t4": {
        (0, "train_x"): "655c384e327afa2bf8b5f72338758e5716342ac146629be099b41840ec729791",
        (0, "train_y"): "bb91c671eaebb29b97a1b93f8d65e5bd4d74c12821438ef8c02bd4bd16abf803",
        (0, "test_x"): "720572a8f8c26b54dc3139a3d653e4552097d1ba818eeba2a5b06d9431be7ae1",
        (0, "test_y"): "da7de8ed3cb85f901e20fb84187675ba29abbb01b815068e703ecf01cd740604",
        (1, "train_x"): "c084e843c02c227ab2a8d3ce68c95bc958e5d637138c45cd790256f8e0f5d083",
        (1, "train_y"): "20abee9c8bbd13088ee4c5669d6efb861fabf6579d6915240bf601c4a19e5891",
        (1, "test_x"): "0a1fe40fa8363f096cc2f07b97a54cb312c68ade364cac691a2c85365604ba50",
        (1, "test_y"): "17e5ab0cf1dd28bbb64b6551232270650bfee58b3b2903e191d5b7b9789d92b8",
        (2, "train_x"): "ba2f31aff39578cb7ac64f153811d5c67a6fa857de61462f9aefc3d0f82fedce",
        (2, "train_y"): "495a91d716eca389387c3feea900884e635df4f6af4d917c803c799d834e09f9",
        (2, "test_x"): "2435f7fcd67d6f14b72eb7f50187ccab809e3f9a9a8124c5ad42167972187666",
        (2, "test_y"): "bfef02eb827580035307228a2aaef65814f827094c55c85bcf91bb8ada1ffa36",
        (3, "train_x"): "8eedda6fc8db970e4eaa564a415a052d7b774823c6e2fa010cb925a9b61a3194",
        (3, "train_y"): "f047f93a560efa96c252ac7bb0f5b4f16f31ba6df36bceb27d25ad3bcc6a41b6",
        (3, "test_x"): "7ad473ff7e24e6e8f8b47854279280980092f266e038358f1085642f527cb0d5",
        (3, "test_y"): "91511fd4696f72d9b55cbb75180c32f234a0a8bbe52dae016d1ad076c9a2e5b6",
    },
}


def pinned_stream(name):
    if name == "lenet":
        return synthetic_tasks(seed=0, T=2, classes_per_task=5, separation=30.0,
                               shape=(32, 32, 1), noise_cond=20.0)
    from rewc.config import parse_config
    from rewc.runner import build_tasks

    cfg = parse_config(Path(__file__).resolve().parents[1] / "configs" / "synthetic-t4.cfg")
    return build_tasks(cfg, 0)


@pytest.mark.parametrize("name", sorted(STREAM_PINS))
def test_synthetic_stream_bytes_are_pinned(name):
    from rewc.runner import environment

    env = environment()
    build = {key: env[key] for key in PIN_BUILD}
    if build != PIN_BUILD:
        pytest.skip(f"pins were recorded with {PIN_BUILD}, this is {build}")
    got = {}
    for k, t in enumerate(pinned_stream(name)):
        for field in ("train_x", "train_y", "test_x", "test_y"):
            a = getattr(t, field)
            assert a.flags.c_contiguous
            got[(k, field)] = hashlib.sha256(a.tobytes()).hexdigest()
    assert got == STREAM_PINS[name]
