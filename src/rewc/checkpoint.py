"""Binary network checkpoints (REWC), bit-exact on a round trip.

README's "File formats" section gives the layout beside RFIM's and RDAT's.
A rotated layer is written as up to four records: its input rotation, the
layer without its bias, its output rotation and a ``bias`` record; one pair
record names the middle one and repeats both rotations.  This module is the
only one that knows that layout.
"""

import numpy as np

from .binfmt import Reader, Writer
from .errors import DataFormatError
from .layers import Conv2D, Dense, Flatten, MeanPool2D, ReLU
from .network import Network

MAGIC = b"REWC"
VERSION = 1

_KIND_TAGS = {
    "dense": 1,
    "conv2d": 2,
    "relu": 3,
    "flatten": 4,
    "meanpool2d": 5,
    "fixed_dense": 6,
    "fixed_conv1x1": 7,
    "bias": 8,
}
_TAG_KINDS = {tag: kind for kind, tag in _KIND_TAGS.items()}
_ROTATION_KINDS = {"dense": "fixed_dense", "conv2d": "fixed_conv1x1"}


def save_network(net, path):
    records, pairs = [], []
    for layer in net.layers:
        if not layer.rotated:
            records.append((layer.kind, layer))
            continue
        rotation = _ROTATION_KINDS[layer.kind]
        pairs.append((len(records) + 1, layer.U1, layer.U2))
        records += [(rotation, layer.U1), (layer.kind, layer), (rotation, layer.U2)]
        if layer.b is not None:
            records.append(("bias", layer.b))
    with Writer(path, MAGIC, VERSION) as w:
        w.pack("qI", net.rng_seed, net.head_classes)
        w.dims(net.input_shape)
        w.u32(len(records))
        for kind, item in records:
            w.pack("B", _KIND_TAGS[kind])
            _write_record(w, item)
        w.u32(len(pairs))
        for mid, U1, U2 in pairs:
            w.u32(mid, U1.shape[0], U2.shape[0])
            w.payload(U1)
            w.payload(U2)


def _write_record(w, item):
    if isinstance(item, np.ndarray):  # a rotation matrix or a rotated layer's bias
        w.u32(item.shape[0])
        w.payload(item)
        return
    if isinstance(item, MeanPool2D):
        w.u32(item.size)
    if not isinstance(item, (Dense, Conv2D)):
        return
    b = None if item.rotated else item.b  # a rotated layer's bias is a record of its own
    if isinstance(item, Dense):
        w.u32(*item.W.shape, 0 if b is None else 1)
        w.payload(item.W)
    else:
        w.u32(*item.K.shape, item.stride, item.padding, 0 if b is None else 1)
        w.payload(item.K)
    if b is not None:
        w.payload(b)


def load_network(path):
    r = Reader(path, MAGIC, VERSION, "checkpoint")
    seed, head_classes = r.unpack("qI")
    input_shape = r.dims()
    records = [_read_record(r) for _ in range(r.u32())]
    pairs = {}
    for _ in range(r.u32()):
        mid, d1, d2 = r.unpack("III")
        if mid in pairs:
            raise DataFormatError(f"checkpoint names record {mid} in two rotation pairs")
        pairs[mid] = (r.payload((d1, d1)), r.payload((d2, d2)))
    r.end()
    layers = _fold_rotations(records, pairs)
    return Network(layers, head_classes, seed, input_shape)


def _read_record(r):
    """``(kind, layer)``, or ``(kind, array)`` for a rotation matrix or bias."""
    (tag,) = r.unpack("B")
    kind = _TAG_KINDS.get(tag)
    if kind == "dense":
        d2, d1, has_b = r.unpack("III")
        return kind, Dense(r.payload((d2, d1)), r.payload((d2,)) if has_b else None)
    if kind == "conv2d":
        kh, kw, d1, d2, stride, padding, has_b = r.unpack("IIIIIII")
        k = r.payload((kh, kw, d1, d2))
        return kind, Conv2D(k, r.payload((d2,)) if has_b else None, stride, padding)
    if kind == "relu":
        return kind, ReLU()
    if kind == "flatten":
        return kind, Flatten()
    if kind == "meanpool2d":
        return kind, MeanPool2D(r.u32())
    if kind in ("fixed_dense", "fixed_conv1x1"):
        n = r.u32()
        return kind, r.payload((n, n))
    if kind == "bias":
        return kind, r.payload((r.u32(),))
    raise DataFormatError(f"unknown layer tag {tag}")


def _fold_rotations(records, pairs):
    """Fold each paired record sequence back into one rotated layer."""
    layers = []
    i = 0
    while i < len(records):
        kind, item = records[i]
        if i + 1 not in pairs:
            if isinstance(item, np.ndarray):
                raise DataFormatError(f"checkpoint record {i} ({kind}) is in no rotation pair")
            layers.append(item)
            i += 1
            continue
        U1, U2 = pairs.pop(i + 1)
        kinds = [k for k, _ in records[i : i + 4]]
        rotation = _ROTATION_KINDS.get(kinds[1]) if len(kinds) > 2 else None
        if rotation is None or kinds[0] != rotation or kinds[2] != rotation \
                or records[i + 1][1].b is not None:
            raise DataFormatError(f"rotation pair at record {i + 1} names no rotated layer")
        if not (np.array_equal(records[i][1], U1) and np.array_equal(records[i + 2][1], U2)):
            raise DataFormatError(f"rotation pair at record {i + 1} repeats other matrices")
        mid = records[i + 1][1]
        b = records[i + 3][1] if kinds[3:] == ["bias"] else None
        if isinstance(mid, Dense):
            layers.append(Dense(mid.W, b, U1, U2))
        else:
            layers.append(Conv2D(mid.K, b, mid.stride, mid.padding, U1, U2))
        i += 3 if b is None else 4
    if pairs:
        raise DataFormatError(f"rotation pairs name no rotated layer at records {sorted(pairs)}")
    return layers
