"""Dataset ingestion: MNIST IDX files, disjoint class splits, synthetic streams."""

import gzip
import os
import struct
from dataclasses import dataclass

import numpy as np

from . import parallel
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
MNIST_CLASSES = 10
SYNTH_TRAIN_PER_CLASS = 200  # training rows per class of a synthetic stream


@dataclass
class TaskDataset:
    """One task's train/test split; labels keep their global class ids.
    A task stream is a list of these, trained in order; a task's index is
    its place in that list."""

    class_ids: tuple
    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray

    @property
    def input_shape(self):
        return self.train_x.shape[1:]


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
    """Load the canonical four-file MNIST layout from ``directory`` as one
    task over all ten classes."""
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
    return TaskDataset(tuple(range(MNIST_CLASSES)), train_x, train_y, test_x, test_y)


def disjoint_split(data, T, seed):
    """Split ``data.class_ids`` into ``T`` equal contiguous groups, in order
    ({0..4}, {5..9} for MNIST and T=2).

    The seed shuffles sample order within each task; class assignment is fixed.
    """
    if T < 1:
        raise DimensionError(f"a stream needs at least 1 task, got T = {T}")
    if len(data.class_ids) % T != 0:
        raise DimensionError(f"{len(data.class_ids)} classes not divisible into {T} tasks")
    per = len(data.class_ids) // T
    tasks = []
    for t in range(T):
        group = tuple(data.class_ids[t * per : (t + 1) * per])
        tr = np.isin(data.train_y, group)
        te = np.isin(data.test_y, group)
        order = rng_for(seed, "split", t).permutation(int(tr.sum()))
        tasks.append(TaskDataset(group, data.train_x[tr][order], data.train_y[tr][order],
                                 data.test_x[te], data.test_y[te]))
    return tasks


def synthetic_tasks(seed, T, classes_per_task=2, shape=(8,), separation=10.0,
                    train_per_class=SYNTH_TRAIN_PER_CLASS, test_per_class=100, noise_cond=1.0):
    """Gaussian-blob task stream with well-separated seeded class means.

    Each sample has ``shape``: ``(dim,)``, or ``(H, W, C)`` for convolutional
    stacks, whose samples are the ``H * W * C`` vectors reshaped.
    ``noise_cond`` > 1 gives all classes a shared anisotropic noise covariance
    (condition number ``noise_cond^2``), producing strongly correlated inputs.

    The mixing matrix's QR runs on the calling thread. Each (split, class)
    unit (a draw from its own ``synthetic-samples`` stream, mixed and shifted
    by its class mean) then runs on ``rewc.parallel``'s pool and writes its
    rows straight to their final place, so the arrays are bit-identical for
    every pool size.
    """
    if separation <= 0:
        raise DimensionError("separation must be positive")
    if noise_cond < 1:
        raise DimensionError("noise_cond must be >= 1")
    shape = tuple(shape)
    if len(shape) not in (1, 3):
        raise DimensionError(f"sample shape {shape} is neither (dim,) nor (H, W, C)")
    if any(d < 1 for d in shape):
        raise DimensionError(f"sample shape {shape} has a dimension below 1")
    for name, n in (("T", T), ("classes_per_task", classes_per_task),
                    ("train_per_class", train_per_class), ("test_per_class", test_per_class)):
        if n < 1:
            raise DimensionError(f"{name} must be at least 1, got {n}")
    dim = int(np.prod(shape))
    n_classes = T * classes_per_task
    if n_classes < 2:
        raise DimensionError(f"a synthetic stream needs at least 2 classes, got {n_classes}")
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
    mixing = np.linalg.qr(mix_rng.normal(size=(dim, dim))).Q  # R is freed at once
    svals = np.logspace(0.0, -np.log10(noise_cond), dim)
    svals *= np.sqrt(dim / np.sum(svals * svals))  # keep E[|noise|^2] = dim
    mixing *= svals  # equals Q @ diag(svals) bit for bit: one nonzero product per entry

    # Every large buffer is made here, on the calling thread: memory freed by
    # a pool thread stays with the process and adds to its peak.
    tasks, units = [], []  # unit: (split, class, count, final array, its rows)
    for t in range(T):
        classes = tuple(range(t * classes_per_task, (t + 1) * classes_per_task))
        labels = np.array(classes, dtype=np.int64)
        order = rng_for(seed, "synthetic-order", t).permutation(len(classes) * train_per_class)
        place = np.empty_like(order)
        place[order] = np.arange(len(order))  # class-major train row j goes to row place[j]
        train_x = np.empty((len(order), dim))
        test_x = np.empty((len(classes) * test_per_class, dim))
        for k, c in enumerate(classes):
            units.append(("train", c, train_per_class, train_x,
                          place[k * train_per_class : (k + 1) * train_per_class]))
            units.append(("test", c, test_per_class, test_x,
                          slice(k * test_per_class, (k + 1) * test_per_class)))
        train_y = np.repeat(labels, train_per_class)[order]
        test_y = np.repeat(labels, test_per_class)
        tasks.append(TaskDataset(classes, train_x.reshape(-1, *shape), train_y,
                                 test_x.reshape(-1, *shape), test_y))

    # Lanes balanced by row count, longest unit first: a lane runs its units
    # one after another, so no short unit waits on a long one at a barrier.
    lanes = [[] for _ in range(min(parallel.WORKERS, len(units)))]
    rows = [0] * len(lanes)
    for unit in sorted(units, key=lambda u: -u[2]):
        i = rows.index(min(rows))
        lanes[i].append(unit)
        rows[i] += unit[2]
    size = (max(train_per_class, test_per_class), dim)
    buffers = [(np.empty(size), np.empty(size)) for _ in lanes]

    def run_lane(i):
        for split, c, count, out, at in lanes[i]:
            z, y = buffers[i][0][:count], buffers[i][1][:count]
            rng_for(seed, "synthetic-samples", split, c).standard_normal(out=z)
            np.add(z, 0.0, out=z)  # as Generator.normal(0, 1): 0.0 + 1.0 * z, so -0.0 -> 0.0
            np.matmul(z, mixing.T, out=y)
            np.add(means[c], y, out=y)
            out[at] = y

    parallel.ordered_map(run_lane, range(len(lanes)))
    return tasks
