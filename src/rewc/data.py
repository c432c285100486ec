"""Dataset ingestion: MNIST IDX files, disjoint class splits, synthetic streams."""

import gzip
import os
import struct
from dataclasses import dataclass

import numpy as np

from .binfmt import Reader, Writer
from .errors import DataFormatError, DimensionError
from .util import rng_for

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801

MNIST_FILES = {
    "train_images": "train-images-idx3-ubyte",
    "train_labels": "train-labels-idx1-ubyte",
    "test_images": "t10k-images-idx3-ubyte",
    "test_labels": "t10k-labels-idx1-ubyte",
}


@dataclass
class RawDataset:
    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray
    n_classes: int

    @property
    def input_shape(self):
        return self.train_x.shape[1:]


@dataclass
class TaskDataset:
    """One task's train/test split; labels keep their global class ids."""

    task_id: int
    class_ids: tuple
    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray

    @property
    def input_shape(self):
        return self.train_x.shape[1:]


class TaskSequence:
    """Ordered tasks with pairwise-disjoint class sets."""

    def __init__(self, tasks, n_classes):
        self.tasks = list(tasks)
        self.n_classes = int(n_classes)
        seen = set()
        for t in self.tasks:
            overlap = seen & set(t.class_ids)
            if overlap:
                raise DimensionError(f"task {t.task_id} reuses classes {sorted(overlap)}")
            seen |= set(t.class_ids)

    def __len__(self):
        return len(self.tasks)

    def __iter__(self):
        return iter(self.tasks)

    def __getitem__(self, i):
        return self.tasks[i]


def _read_bytes(path):
    with open(path, "rb") as f:
        head = f.read(2)
        f.seek(0)
        if head == b"\x1f\x8b":
            return gzip.decompress(f.read())
        return f.read()


def load_mnist_idx(image_path, label_path, pad_to_32=True):
    """Parse an IDX image/label file pair.

    Pixels are scaled to [0, 1]; images are returned channels-last, zero-padded
    from 28x28 to 32x32 unless ``pad_to_32`` is off.
    """
    img = _read_bytes(image_path)
    lab = _read_bytes(label_path)
    if len(img) < 16:
        raise DataFormatError("image file too short for IDX header")
    if len(lab) < 8:
        raise DataFormatError("label file too short for IDX header")
    magic, n, rows, cols = struct.unpack(">IIII", img[:16])
    if magic != IMAGE_MAGIC:
        raise DataFormatError(f"image file magic {magic:#010x}, expected {IMAGE_MAGIC:#010x}")
    lmagic, ln = struct.unpack(">II", lab[:8])
    if lmagic != LABEL_MAGIC:
        raise DataFormatError(f"label file magic {lmagic:#010x}, expected {LABEL_MAGIC:#010x}")
    if n != ln:
        raise DataFormatError(f"image count {n} != label count {ln}")
    if len(img) - 16 < n * rows * cols:
        raise DataFormatError("image payload truncated")
    if len(lab) - 8 < n:
        raise DataFormatError("label payload truncated")

    x = np.frombuffer(img, dtype=np.uint8, count=n * rows * cols, offset=16)
    x = x.reshape(n, rows, cols, 1).astype(np.float64) / 255.0
    y = np.frombuffer(lab, dtype=np.uint8, count=n, offset=8).astype(np.int64)
    if pad_to_32 and (rows, cols) == (28, 28):
        x = np.pad(x, ((0, 0), (2, 2), (2, 2), (0, 0)))
    return x, y


def load_mnist(directory, pad_to_32=True):
    """Load the canonical four-file MNIST layout from ``directory``."""
    paths = {}
    for key, name in MNIST_FILES.items():
        plain = os.path.join(directory, name)
        gz = plain + ".gz"
        if os.path.exists(plain):
            paths[key] = plain
        elif os.path.exists(gz):
            paths[key] = gz
        else:
            raise DataFormatError(f"missing MNIST file {name}[.gz] in {directory}")
    train_x, train_y = load_mnist_idx(paths["train_images"], paths["train_labels"], pad_to_32)
    test_x, test_y = load_mnist_idx(paths["test_images"], paths["test_labels"], pad_to_32)
    return RawDataset(train_x, train_y, test_x, test_y, n_classes=10)


def locate_mnist():
    """Directory holding MNIST IDX files, or None.

    Checked in order: $REWC_MNIST_DIR, ./data/mnist, /root/data/mnist.
    """
    candidates = [os.environ.get("REWC_MNIST_DIR"), "data/mnist", "/root/data/mnist"]
    for d in candidates:
        if not d:
            continue
        name = MNIST_FILES["train_images"]
        if os.path.exists(os.path.join(d, name)) or os.path.exists(
            os.path.join(d, name + ".gz")
        ):
            return d
    return None


def grouped_split(raw, groups, seed):
    """Split a dataset into tasks given explicit per-task class groups."""
    tasks = []
    for t, group in enumerate(groups):
        group = tuple(int(c) for c in group)
        tr = np.isin(raw.train_y, group)
        te = np.isin(raw.test_y, group)
        order = rng_for(seed, "split", t).permutation(int(tr.sum()))
        tasks.append(
            TaskDataset(
                task_id=t,
                class_ids=group,
                train_x=raw.train_x[tr][order],
                train_y=raw.train_y[tr][order],
                test_x=raw.test_x[te],
                test_y=raw.test_y[te],
            )
        )
    return TaskSequence(tasks, n_classes=raw.n_classes)


def disjoint_split(raw, T, seed):
    """Equal contiguous class groups in ascending order ({0..4}, {5..9} for T=2).

    The seed shuffles sample order within each task; class assignment is fixed.
    """
    if raw.n_classes % T != 0:
        raise DimensionError(f"{raw.n_classes} classes not divisible into {T} tasks")
    per = raw.n_classes // T
    groups = [range(t * per, (t + 1) * per) for t in range(T)]
    return grouped_split(raw, groups, seed)


def synthetic_tasks(seed, T, classes_per_task=2, dim=8, separation=10.0,
                    train_per_class=200, test_per_class=100, image_shape=None,
                    noise_cond=1.0):
    """Gaussian-blob task stream with well-separated seeded class means.

    With ``image_shape`` set (e.g. ``(8, 8, 1)``), samples are reshaped so
    convolutional stacks can train on the stream; ``dim`` is then ignored.
    ``noise_cond`` > 1 gives all classes a shared anisotropic noise covariance
    (condition number ``noise_cond^2``), producing strongly correlated inputs.
    """
    if separation <= 0:
        raise DimensionError("separation must be positive")
    if noise_cond < 1:
        raise DimensionError("noise_cond must be >= 1")
    if image_shape is not None:
        dim = int(np.prod(image_shape))
    n_classes = T * classes_per_task
    rng = rng_for(seed, "synthetic-means")
    # Rescale a Gaussian draw so the closest pair sits exactly at `separation`;
    # keeps inputs O(separation) rather than O(separation * sqrt(dim)).
    means = rng.normal(0.0, 1.0, size=(n_classes, dim))
    dists = np.linalg.norm(means[:, None] - means[None, :], axis=2)
    np.fill_diagonal(dists, np.inf)
    if dists.min() <= 0.0:
        raise DimensionError("degenerate class means; try another seed")
    means *= separation / dists.min()

    mix_rng = rng_for(seed, "synthetic-mixing")
    q, _ = np.linalg.qr(mix_rng.normal(size=(dim, dim)))
    svals = np.logspace(0.0, -np.log10(noise_cond), dim)
    svals *= np.sqrt(dim / np.sum(svals * svals))  # keep E[|noise|^2] = dim
    mixing = q * svals  # equals q @ diag(svals) bit for bit: one nonzero product per entry

    tasks = []
    for t in range(T):
        classes = tuple(range(t * classes_per_task, (t + 1) * classes_per_task))
        xs, ys = [], []
        for split, count in (("train", train_per_class), ("test", test_per_class)):
            bx, by = [], []
            for c in classes:
                srng = rng_for(seed, "synthetic-samples", split, c)
                bx.append(means[c] + srng.normal(0.0, 1.0, size=(count, dim)) @ mixing.T)
                by.append(np.full(count, c, dtype=np.int64))
            xs.append(np.concatenate(bx))
            ys.append(np.concatenate(by))
        order = rng_for(seed, "synthetic-order", t).permutation(xs[0].shape[0])
        train_x, train_y = xs[0][order], ys[0][order]
        test_x, test_y = xs[1], ys[1]
        if image_shape is not None:
            train_x = train_x.reshape(-1, *image_shape)
            test_x = test_x.reshape(-1, *image_shape)
        tasks.append(TaskDataset(t, classes, train_x, train_y, test_x, test_y))
    return TaskSequence(tasks, n_classes=n_classes)


RDAT_MAGIC = b"RDAT"
RDAT_VERSION = 1


def save_task_sequence(seq, path):
    with Writer(path, RDAT_MAGIC, RDAT_VERSION) as w:
        w.u32(len(seq), seq.n_classes)
        for t in seq:
            w.u32(t.task_id, len(t.class_ids), *t.class_ids)
            for arr in (t.train_x, t.train_y, t.test_x, t.test_y):
                w.array(arr, tagged=True)


def load_task_sequence(path):
    """Read an RDAT cache; inputs must be float64 (tag 0), labels int64 (tag 1)."""
    r = Reader(path, RDAT_MAGIC, RDAT_VERSION, "dataset cache")
    n_tasks, n_classes = r.unpack("II")
    tasks = []
    for _ in range(n_tasks):
        task_id, n_cls = r.unpack("II")
        class_ids = r.unpack("I" * n_cls)
        arrays = [r.array(tag) for tag in (0, 1, 0, 1)]  # train_x, train_y, test_x, test_y
        for x, y in (arrays[:2], arrays[2:]):
            if x.ndim == 0 or y.ndim != 1 or len(x) != len(y):
                raise DataFormatError(f"task {task_id}: inputs {x.shape} but labels {y.shape}")
        tasks.append(TaskDataset(task_id, class_ids, *arrays))
    r.end()
    return TaskSequence(tasks, n_classes)
