"""MNIST-gated checks beyond the acceptance criteria (real IDX files needed)."""

import numpy as np
import pytest

import rewc
from helpers import locate_mnist
from rewc.continual import Hyper, train_task
from rewc.fim import estimate_diag_fim
from rewc.network import build_network
from rewc.util import rng_for

pytestmark = pytest.mark.skipif(
    locate_mnist() is None,
    reason="MNIST IDX files not found (set $REWC_MNIST_DIR or use data/mnist)",
)


def test_canonical_mnist_shapes():
    raw = rewc.load_mnist(locate_mnist(), pad_to_32=True)
    assert raw.train_x.shape == (60000, 32, 32, 1)
    assert raw.train_y.shape == (60000,)
    assert raw.test_x.shape == (10000, 32, 32, 1)
    assert raw.train_x.min() >= 0.0 and raw.train_x.max() <= 1.0
    assert set(np.unique(raw.train_y)) == set(range(10))


def test_trained_fim_median_magnitude():
    raw = rewc.load_mnist(locate_mnist(), pad_to_32=True)
    tasks = rewc.disjoint_split(raw, 2, seed=0)
    net = build_network("lenet", head_classes=5, input_shape=(32, 32, 1), seed=0)
    train_task(net, tasks[0], Hyper(epochs=2, batch_size=64), 0, None)
    fim = estimate_diag_fim(net, tasks[0].train_x, 200, "sampled",
                            rng_for(0, "fim-median"), tasks[0].train_y)
    med = fim.median()
    assert 1e-5 <= med <= 1e-1, med
