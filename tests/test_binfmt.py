"""The REWC checkpoint format: pinned bytes and the error contract.

Every fixture is built from ``np.arange`` ramps and signed permutations, with
no RNG and no LAPACK, so the written bytes do not depend on the numpy or BLAS
build.
"""

import hashlib
import os
import struct

import numpy as np
import pytest

from helpers import DRAWN_NETS
from rewc.checkpoint import _KIND_TAGS, Writer, load_network, save_network
from rewc.errors import DataFormatError, DimensionError
from rewc.layers import Conv2D, Dense, Flatten, Layer, MeanPool2D, ReLU, WeightedLayer
from rewc.network import Network


def ramp(*shape, start=0):
    """Exact float64 values ``(start + i) / 8 - 2`` in C order."""
    n = int(np.prod(shape))
    return ((np.arange(start, start + n, dtype=np.float64) / 8.0) - 2.0).reshape(shape)


def flip(n):
    """Signed reversal: an orthogonal matrix with exact entries."""
    return np.eye(n)[::-1] * np.where(np.arange(n) % 2, -1.0, 1.0)


def plain_net():
    layers = [
        Conv2D(ramp(3, 3, 1, 2), ramp(2, start=5)),
        ReLU(),
        MeanPool2D(),
        Flatten(),
        Dense(ramp(4, 18), ramp(4, start=3)),
        ReLU(),
        Dense(ramp(3, 4, start=7), ramp(3, start=1)),
    ]
    return Network(layers, 12345, (8, 8, 1))


def rotated_net():
    """Written as 7 records, one per layer: the rotated conv and dense layers
    carry their U1 and U2 after their weight and bias."""
    layers = [
        Conv2D(ramp(3, 3, 1, 2), ramp(2, start=5), U1=flip(1), U2=flip(2)),
        ReLU(),
        MeanPool2D(),
        Flatten(),
        Dense(ramp(4, 18), ramp(4, start=3)),
        ReLU(),
        Dense(ramp(3, 4, start=7), ramp(3, start=1), U1=flip(4), U2=flip(3)),
    ]
    return Network(layers, -7, (8, 8, 1))


# name: (save, load, object factory, SHA-256 of the file written)
FORMATS = {
    "rewc-plain": (save_network, load_network, plain_net,
                   "682eaa4ab0b921e39d8a22d1c59f849dca387930c700a17fc65dc396484953d1"),
    "rewc-rotated": (save_network, load_network, rotated_net,
                     "82b67ddfe54b6683ed64158890a15223a61a23df7b7c7e5162414f4f01f49efc"),
}


def written(tmp_path, name):
    save, _, make, _ = FORMATS[name]
    path = os.path.join(tmp_path, name)
    save(make(), path)
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


@pytest.mark.parametrize("name", sorted(FORMATS))
def test_trailing_bytes_raise_data_format_error(tmp_path, name):
    path, data = written(tmp_path, name)
    rewrite(path, data + bytes(9))
    with pytest.raises(DataFormatError, match="9 bytes after its last record"):
        FORMATS[name][1](path)


# Offsets into both REWC fixtures: magic, version, rng_seed i64, then
# head_classes u32, the 3-d input shape and the record count; the first record
# is the conv layer, tag u8 then kh, kw, c_in, c_out and rotated u32, then
# K (3x3x1x2) and b (2), then U1 (1x1).
REWC_HEAD_CLASSES_AT = 16
REWC_CONV_ROTATED_AT = 20 + 1 + 4 * 3 + 4 + 1 + 4 * 4
REWC_CONV_U1_AT = REWC_CONV_ROTATED_AT + 4 + 8 * (18 + 2)


def patched(tmp_path, name, at, fmt, old, new):
    """Write fixture ``name`` with the ``fmt`` value ``old`` at ``at`` replaced by ``new``."""
    path, data = written(tmp_path, name)
    assert struct.unpack_from(fmt, data, at) == (old,)
    size = struct.calcsize(fmt)
    rewrite(path, data[:at] + struct.pack(fmt, new) + data[at + size:])
    return path


@pytest.mark.parametrize("name", sorted(FORMATS))
def test_unsupported_version_names_the_version_this_build_reads(tmp_path, name):
    path = patched(tmp_path, name, 4, "<I", 3, 99)
    with pytest.raises(DataFormatError, match=r"version 99 \(this build reads version"):
        FORMATS[name][1](path)


def test_rewc_rejects_a_head_that_does_not_match_head_classes(tmp_path):
    path = patched(tmp_path, "rewc-plain", REWC_HEAD_CLASSES_AT, "<I", 3, 4)
    with pytest.raises(DataFormatError, match="head_classes=4 but head has 3 rows"):
        load_network(path)


@pytest.mark.parametrize("value", [2.0, np.inf, np.nan])
def test_rewc_rejects_a_rotation_that_is_not_orthogonal(tmp_path, value):
    # The conv layer's U1 is the 1x1 matrix [[1.0]].  A NaN, which fails every
    # comparison, once loaded into a network whose forward was all NaN.
    path = patched(tmp_path, "rewc-rotated", REWC_CONV_U1_AT, "<d", 1.0, value)
    with pytest.raises(DataFormatError, match="not orthogonal"):
        load_network(path)


REWC_FIRST_TAG_AT = 37  # the header, then the record count u32
# d_out of the first dense record, after the relu, meanpool2d and flatten tags
REWC_PLAIN_DENSE_AT = REWC_CONV_U1_AT + 1 + 1 + 1 + 1
# the head's rotated flag: after the first dense record (d_out, d_in, rotated,
# W 4x18, b 4), the relu tag, the head's tag and its d_out and d_in; in the
# rotated fixture the conv's U1 (1x1) and U2 (2x2) come before all of it
REWC_PLAIN_HEAD_ROTATED_AT = REWC_PLAIN_DENSE_AT + 4 * 3 + 8 * (72 + 4) + 1 + 1 + 4 * 2
REWC_ROTATED_HEAD_ROTATED_AT = REWC_PLAIN_HEAD_ROTATED_AT + 8 * (1 + 4)


@pytest.mark.parametrize("name, at, old", [
    ("rewc-plain", REWC_CONV_ROTATED_AT, 0),
    ("rewc-rotated", REWC_CONV_ROTATED_AT, 1),
    ("rewc-plain", REWC_PLAIN_HEAD_ROTATED_AT, 0),
    ("rewc-rotated", REWC_ROTATED_HEAD_ROTATED_AT, 1),
], ids=["plain-rotated", "rotated-rotated", "plain-head-rotated", "rotated-head-rotated"])
def test_rewc_rejects_a_flag_that_is_neither_0_nor_1(tmp_path, name, at, old):
    path = patched(tmp_path, name, at, "<I", old, 2)
    with pytest.raises(DataFormatError, match="flag is 2, not 0 or 1"):
        load_network(path)


@pytest.mark.parametrize("name", sorted(FORMATS))
def test_rewc_rejects_a_file_without_its_magic(tmp_path, name):
    path, data = written(tmp_path, name)
    rewrite(path, b"REWD" + data[4:])
    with pytest.raises(DataFormatError, match="bad checkpoint magic"):
        load_network(path)


@pytest.mark.parametrize("tag", [0, 6, 255], ids=["zero", "version-1-fixed-dense", "max"])
def test_rewc_rejects_an_unknown_layer_tag(tmp_path, tag):
    path = patched(tmp_path, "rewc-plain", REWC_FIRST_TAG_AT, "<B", _KIND_TAGS["conv2d"], tag)
    with pytest.raises(DataFormatError, match=f"unknown layer tag {tag}"):
        load_network(path)


@pytest.mark.parametrize("at, old", [(REWC_FIRST_TAG_AT + 1, 3), (REWC_PLAIN_DENSE_AT, 4)],
                         ids=["conv-kh", "dense-d_out"])
def test_rewc_reads_a_huge_dimension_as_truncated(tmp_path, at, old):
    # The largest u32: the payload it implies runs far past the end of the file.
    path = patched(tmp_path, "rewc-plain", at, "<I", old, 2**32 - 1)
    with pytest.raises(DataFormatError, match="checkpoint truncated"):
        load_network(path)


def test_rewc_chains_the_constructor_error_it_replaces(tmp_path):
    # The last double is the head's U2[2, 2], an exact 0.0.
    _, data = written(tmp_path, "rewc-rotated")
    path = patched(tmp_path, "rewc-rotated", len(data) - 8, "<d", 0.0, 0.5)
    with pytest.raises(DataFormatError, match="not orthogonal") as caught:
        load_network(path)
    assert isinstance(caught.value.__cause__, DimensionError)


def test_rewc_rejects_an_empty_conv_kernel(tmp_path):
    # A 0x0 kernel "slides" to a 5x5 output on a 4x4 input.
    path = os.path.join(tmp_path, "empty-kernel.rewc")
    with Writer(path) as w:
        w.pack("qI", 0, 2)
        w.dims((4, 4, 1))
        w.u32(3)
        w.pack("B", _KIND_TAGS["conv2d"])
        w.u32(0, 0, 1, 2, 0)
        w.payload(np.zeros(2))
        w.pack("B", _KIND_TAGS["flatten"])
        w.pack("B", _KIND_TAGS["dense"])
        w.u32(2, 50, 0)
        w.payload(np.ones((2, 50)))
        w.payload(np.zeros(2))
    with pytest.raises(DataFormatError, match="non-empty") as caught:
        load_network(path)
    assert isinstance(caught.value.__cause__, DimensionError)


def concrete_layer_kinds():
    found, todo = set(), [Layer]
    while todo:
        cls = todo.pop()
        todo += cls.__subclasses__()
        if cls not in (Layer, WeightedLayer):  # the abstract bases
            found.add(cls.kind)
    return found


def test_every_layer_kind_is_saveable_and_round_trips_bit_exactly(tmp_path):
    assert set(_KIND_TAGS) == concrete_layer_kinds()
    layers = [
        Conv2D(ramp(3, 3, 1, 2), ramp(2, start=5), U1=flip(1), U2=flip(2)),
        ReLU(),
        Conv2D(ramp(1, 1, 2, 3, start=3), ramp(3, start=2)),
        MeanPool2D(),
        Flatten(),
        Dense(ramp(4, 12), ramp(4, start=3)),
        ReLU(),
        Dense(ramp(3, 4, start=7), ramp(3, start=1), U1=flip(4), U2=flip(3)),
    ]
    net = Network(layers, 5, (6, 6, 1))
    assert {layer.kind for layer in net.layers} == set(_KIND_TAGS)
    path = os.path.join(tmp_path, "all-kinds.rewc")
    save_network(net, path)
    back = load_network(path)
    assert (back.rng_seed, back.head_classes, back.input_shape) == (5, 3, (6, 6, 1))
    assert [type(layer) for layer in back.layers] == [type(layer) for layer in layers]
    for a, b in zip(layers, back.layers):
        assert vars(a).keys() == vars(b).keys()
        for key, value in vars(a).items():
            if isinstance(value, np.ndarray):
                assert value.dtype == vars(b)[key].dtype
                assert np.array_equal(value, vars(b)[key])
            else:
                assert value == vars(b)[key]
    with open(path, "rb") as f:
        first = f.read()
    save_network(back, path)
    with open(path, "rb") as f:
        assert f.read() == first


# One net of each maker in ``helpers.DRAWN_NETS``, plain and rotated, from a
# fixed seed: unlike the fixtures, they have several input channels, 1-D
# inputs and full-mantissa weights.  Their rotations come from LAPACK's QR,
# so their bytes are not pinned.
DRAWN = {f"drawn-{maker}-{kind}": (maker, kind == "rotated")
         for maker in sorted(DRAWN_NETS) for kind in ("plain", "rotated")}


@pytest.mark.parametrize("name", sorted(FORMATS) + sorted(DRAWN))
def test_every_single_byte_change_raises_data_format_error_or_round_trips(tmp_path, name):
    # 0x7F in a double's top byte makes it huge, inf or NaN; one flipped low
    # bit turns a tag into another kind, a flag on, or a dimension off by one.
    if name in FORMATS:
        path, data = written(tmp_path, name)
    else:
        maker, rotated = DRAWN[name]
        path = os.path.join(tmp_path, name)
        save_network(DRAWN_NETS[maker](np.random.default_rng(2), rotated=rotated), path)
        with open(path, "rb") as f:
            data = f.read()
    again = os.path.join(tmp_path, "again")
    for at in range(len(data)):
        for value in {0x7F, data[at] ^ 0x01} - {data[at]}:
            changed = data[:at] + bytes([value]) + data[at + 1:]
            rewrite(path, changed)
            try:
                net = load_network(path)
            except DataFormatError:
                continue
            save_network(net, again)
            with open(again, "rb") as f:
                assert f.read() == changed, f"byte {at} set to {value:#x}"
