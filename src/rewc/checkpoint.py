"""Binary network checkpoints (REWC), bit-exact on a round trip.

README's "File formats" section gives the layout.  A file opens with the
4-byte magic and a u32 version; integers are little-endian and arrays raw
``<f8``.  Each layer is one record, a kind tag and its fields, read through
the class the tag names.  A ``layers.WeightedLayer`` (dense or conv) record
has its weight's ``weight_ndim`` dims and a ``rotated`` flag, then its
weight and bias and, when flagged, its rotation ``(U1, U2)``, sized by
``io_dims``; other kinds have no fields.  ``Reader`` checks the magic, the
version, every short read and the end of the data (no byte may follow the
last record): each fault raises ``DataFormatError``.
"""

import math
import struct

import numpy as np

from .errors import DataFormatError, DimensionError
from .layers import Conv2D, Dense, Flatten, MeanPool2D, ReLU
from .network import Network

MAGIC = b"REWC"
VERSION = 3

_TAG_CLASSES = {1: Dense, 2: Conv2D, 3: ReLU, 4: Flatten, 5: MeanPool2D}
_KIND_TAGS = {cls.kind: tag for tag, cls in _TAG_CLASSES.items()}


def save_network(net, path):
    with Writer(path) as w:
        w.pack("qI", net.rng_seed, net.head_classes)
        w.dims(net.input_shape)
        w.u32(len(net.layers))
        for layer in net.layers:
            w.pack("B", _KIND_TAGS[layer.kind])
            _write_record(w, layer)


def _write_record(w, layer):
    if not layer.trainable:
        return
    w.u32(*layer.weight.shape, int(layer.rotated))
    for arr in (layer.weight, layer.b, layer.U1, layer.U2):
        if arr is not None:
            w.payload(arr)


def load_network(path):
    """Read a checkpoint; a layer or network the constructors reject is a
    ``DataFormatError`` too, and so is a head whose row count differs from
    the header's ``head_classes``."""
    r = Reader(path)
    seed, head_classes = r.unpack("qI")
    input_shape = r.dims()
    try:
        layers = [_read_record(r) for _ in range(r.u32())]
        r.end()
        net = Network(layers, seed, input_shape)
    except DimensionError as e:
        raise DataFormatError(f"malformed checkpoint: {e}") from e
    if net.head_classes != head_classes:
        raise DataFormatError(f"malformed checkpoint: head_classes={head_classes} "
                              f"but head has {net.head_classes} rows")
    return net


def _read_record(r):
    (tag,) = r.unpack("B")
    cls = _TAG_CLASSES.get(tag)
    if cls is None:
        raise DataFormatError(f"unknown layer tag {tag}")
    if not cls.trainable:
        return cls()
    *shape, rotated = r.unpack("I" * (cls.weight_ndim + 1))
    if rotated > 1:
        raise DataFormatError(f"checkpoint rotated flag is {rotated}, not 0 or 1")
    weight = r.payload(shape)
    d_in, d_out = cls.io_dims(shape)
    b = r.payload((d_out,))
    return cls(weight, b, *(r.payload((d, d)) for d in (d_in, d_out) if rotated))


class Writer:
    """Writes one checkpoint, header first; use as a context manager."""

    def __init__(self, path):
        self._f = open(path, "wb")
        self._f.write(MAGIC)
        self.u32(VERSION)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._f.close()

    def pack(self, fmt, *vals):
        self._f.write(struct.pack("<" + fmt, *vals))

    def u32(self, *vals):
        self.pack("I" * len(vals), *vals)

    def dims(self, shape):
        self.pack("B", len(shape))
        self.u32(*shape)

    def payload(self, arr):
        self._f.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


class Reader:
    """Reads one whole checkpoint and checks its header."""

    def __init__(self, path):
        with open(path, "rb") as f:
            self._buf = memoryview(f.read())
        if self._buf[: len(MAGIC)] != MAGIC:
            raise DataFormatError(f"bad checkpoint magic (expected {MAGIC.decode()})")
        self._pos = len(MAGIC)
        found = self.u32()
        if found != VERSION:
            raise DataFormatError(
                f"unsupported checkpoint version {found} (this build reads version {VERSION})"
            )

    def _take(self, n):
        if n > len(self._buf) - self._pos:
            raise DataFormatError("checkpoint truncated")
        self._pos += n
        return self._buf[self._pos - n : self._pos]

    def end(self):
        """Require that the whole file was read."""
        extra = len(self._buf) - self._pos
        if extra:
            raise DataFormatError(f"checkpoint has {extra} bytes after its last record")

    def unpack(self, fmt):
        fmt = "<" + fmt
        return struct.unpack(fmt, self._take(struct.calcsize(fmt)))

    def u32(self):
        return self.unpack("I")[0]

    def dims(self):
        return self.unpack("I" * self.unpack("B")[0])

    def payload(self, shape):
        count = math.prod(shape)  # a Python int: u32 dims cannot overflow it
        return np.frombuffer(self._take(8 * count), dtype="<f8").astype(np.float64).reshape(shape)
