"""The REWC, RFIM and RDAT file formats: pinned bytes and the error contract.

Every fixture is built from ``np.arange`` ramps and signed permutations, with
no RNG and no LAPACK, so the written bytes do not depend on the numpy or BLAS
build.
"""

import hashlib
import os

import numpy as np
import pytest

from rewc.checkpoint import load_network, save_network
from rewc.data import TaskDataset, TaskSequence, load_task_sequence, save_task_sequence
from rewc.errors import DataFormatError
from rewc.fim import FimDiagonal, load_fim, save_fim
from rewc.layers import Bias, Conv2D, Dense, FixedConv1x1, FixedDense, Flatten, MeanPool2D, ReLU
from rewc.network import Network
from rewc.rotation import RotationPair


def ramp(*shape, start=0):
    """Exact float64 values ``(start + i) / 8 - 2`` in C order."""
    n = int(np.prod(shape))
    return ((np.arange(start, start + n, dtype=np.float64) / 8.0) - 2.0).reshape(shape)


def flip(n):
    """Signed reversal: an orthogonal matrix with exact entries."""
    return np.eye(n)[::-1] * np.where(np.arange(n) % 2, -1.0, 1.0)


def plain_net():
    layers = [
        Conv2D(ramp(3, 3, 1, 2), ramp(2, start=5), stride=1, padding=1),
        ReLU(),
        MeanPool2D(2),
        Flatten(),
        Dense(ramp(4, 18), ramp(4, start=3)),
        ReLU(),
        Dense(ramp(3, 4, start=7)),
    ]
    return Network(layers, 3, 12345, (6, 6, 1))


def rotated_net():
    layers = [
        FixedConv1x1(flip(1)),
        Conv2D(ramp(3, 3, 1, 2), None, stride=1, padding=1),
        FixedConv1x1(flip(2)),
        Bias(ramp(2, start=5)),
        ReLU(),
        MeanPool2D(2),
        Flatten(),
        Dense(ramp(4, 18), ramp(4, start=3)),
        ReLU(),
        FixedDense(flip(4)),
        Dense(ramp(3, 4, start=7)),
        FixedDense(flip(3)),
        Bias(ramp(3, start=1)),
    ]
    pairs = [RotationPair(1, flip(1), flip(2)), RotationPair(10, flip(4), flip(3))]
    return Network(layers, 3, -7, (6, 6, 1), rotation_pairs=pairs)


def fim_snapshot():
    values = {"0.K": ramp(3, 3, 1, 2) ** 2, "0.b": ramp(2) ** 2, "4.W": ramp(4, 18) ** 2}
    return FimDiagonal(values=values, layout_hash="ramp-µ")


def task_sequence():
    tasks = [
        TaskDataset(0, (0, 1), ramp(4, 3), np.arange(4, dtype=np.int64) % 2,
                    ramp(2, 3, start=9), np.array([1, 0], dtype=np.int64)),
        TaskDataset(1, (2, 3, 4), ramp(3, 2, 2, 1, start=4), np.array([2, 4, 3], dtype=np.int64),
                    ramp(1, 2, 2, 1), np.array([3], dtype=np.int64)),
    ]
    return TaskSequence(tasks, 5)


# name: (save, load, object factory, SHA-256 of the file the parent format wrote)
FORMATS = {
    "rewc-plain": (save_network, load_network, plain_net,
                   "267315f532644cf9ed311219d31579f8ff6ec6c04e674145493d8e6bd3f782f5"),
    "rewc-rotated": (save_network, load_network, rotated_net,
                     "f308c336053556b2425e16a8d5152c15350d3d21bdac5582de0d0094befb32d3"),
    "rfim": (save_fim, load_fim, fim_snapshot,
             "c652d78aa06595b92933e6170542d5b23eca91db1904c7ef04b5440ad609959a"),
    "rdat": (save_task_sequence, load_task_sequence, task_sequence,
             "0797cecb7eb5caef9ceafc7b1df9d626fa2765992af45fd759a3ea15dcb351ce"),
}


def written(tmp_path, name, obj=None):
    save, _, make, _ = FORMATS[name]
    path = os.path.join(tmp_path, name)
    save(make() if obj is None else obj, path)
    with open(path, "rb") as f:
        return path, f.read()


def rewrite(path, data):
    with open(path, "wb") as f:
        f.write(data)


@pytest.mark.parametrize("name", sorted(FORMATS))
def test_format_bytes_are_pinned(tmp_path, name):
    _, data = written(tmp_path, name)
    assert hashlib.sha256(data).hexdigest() == FORMATS[name][3]


@pytest.mark.parametrize("name", sorted(FORMATS))
def test_every_truncation_raises_data_format_error(tmp_path, name):
    path, data = written(tmp_path, name)
    load = FORMATS[name][1]
    load(path)
    for k in range(len(data)):
        rewrite(path, data[:k])
        with pytest.raises(DataFormatError):
            load(path)


RFIM_HASH_AT = 12  # magic, version, hash length
RFIM_FIRST_KEY_AT = RFIM_HASH_AT + len("ramp-µ".encode()) + 8  # hash, count, key length


@pytest.mark.parametrize("offset", [RFIM_HASH_AT, RFIM_FIRST_KEY_AT], ids=["layout-hash", "key"])
def test_rfim_rejects_a_name_that_is_not_utf8(tmp_path, offset):
    path, data = written(tmp_path, "rfim")
    rewrite(path, data[:offset] + b"\xff" + data[offset + 1:])
    with pytest.raises(DataFormatError, match="UTF-8"):
        load_fim(path)


# Task 0 of task_sequence(): magic, version, task and class counts, task id,
# class count and two class ids, then the tagged train_x record.
RDAT_TRAIN_X_TAG_AT = 4 + 12 + 8 + 8
RDAT_TRAIN_Y_TAG_AT = RDAT_TRAIN_X_TAG_AT + 2 + 2 * 4 + 8 * 12


def test_rdat_rejects_an_unknown_array_tag(tmp_path):
    path, data = written(tmp_path, "rdat")
    at = RDAT_TRAIN_X_TAG_AT
    rewrite(path, data[:at] + b"\x07" + data[at + 1:])
    with pytest.raises(DataFormatError, match="tag 7"):
        load_task_sequence(path)


@pytest.mark.parametrize("at, tag", [(RDAT_TRAIN_Y_TAG_AT, b"\x00"),
                                     (RDAT_TRAIN_X_TAG_AT, b"\x01")],
                         ids=["float-labels", "integer-inputs"])
def test_rdat_rejects_a_mistyped_array(tmp_path, at, tag):
    path, data = written(tmp_path, "rdat")
    assert data[at:at + 1] != tag
    rewrite(path, data[:at] + tag + data[at + 1:])
    with pytest.raises(DataFormatError, match="tag"):
        load_task_sequence(path)


def test_rdat_rejects_unequal_input_and_label_rows(tmp_path):
    seq = task_sequence()
    seq.tasks[1].test_y = np.array([3, 2], dtype=np.int64)
    path, _ = written(tmp_path, "rdat", seq)
    with pytest.raises(DataFormatError, match="labels"):
        load_task_sequence(path)
