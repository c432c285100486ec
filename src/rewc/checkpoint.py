"""Binary network checkpoints (REWC), bit-exact on a round trip.

README's "File formats" section gives the layout.  A file opens with the
4-byte magic and a u32 version; integers are little-endian and arrays raw
``<f8``.  Each layer is one record: a kind tag and its fields.  A dense or
conv record carries its weight's shape and a ``rotated`` flag; its weight
and bias follow, then its rotation ``(U1, U2)`` when flagged.  Other kinds
have no fields.  ``Reader`` checks
the magic, the version, every short read and the end of the data (no byte
may follow the last record): each fault raises ``DataFormatError``.
"""

import struct

import numpy as np

from .errors import DataFormatError, DimensionError
from .layers import Conv2D, Dense, Flatten, MeanPool2D, ReLU
from .network import Network

MAGIC = b"REWC"
VERSION = 3

_KIND_TAGS = {"dense": 1, "conv2d": 2, "relu": 3, "flatten": 4, "meanpool2d": 5}
_TAG_KINDS = {tag: kind for kind, tag in _KIND_TAGS.items()}


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
    ``DataFormatError`` too."""
    r = Reader(path)
    seed, head_classes = r.unpack("qI")
    input_shape = r.dims()
    try:
        layers = [_read_record(r) for _ in range(r.u32())]
        r.end()
        return Network(layers, head_classes, seed, input_shape)
    except DimensionError as e:
        raise DataFormatError(f"malformed checkpoint: {e}") from e


def _read_record(r):
    (tag,) = r.unpack("B")
    kind = _TAG_KINDS.get(tag)
    if kind == "dense":
        d_out, d_in, rotated = _fields(r, 2)
        return Dense(*_arrays(r, (d_out, d_in), d_in, d_out, rotated))
    if kind == "conv2d":
        kh, kw, c_in, c_out, rotated = _fields(r, 4)
        return Conv2D(*_arrays(r, (kh, kw, c_in, c_out), c_in, c_out, rotated))
    if kind == "relu":
        return ReLU()
    if kind == "flatten":
        return Flatten()
    if kind == "meanpool2d":
        return MeanPool2D()
    raise DataFormatError(f"unknown layer tag {tag}")


def _fields(r, n):
    """``n`` u32 fields, then the ``rotated`` flag, 0 or 1."""
    fields = r.unpack("I" * (n + 1))
    if fields[n] > 1:
        raise DataFormatError(f"checkpoint rotated flag is {fields[n]}, not 0 or 1")
    return fields


def _arrays(r, shape, d_in, d_out, rotated):
    """A weight of ``shape`` and its bias, then its rotation ``(U1, U2)``, or
    ``None, None`` when the layer is not rotated."""
    weight = r.payload(shape)
    b = r.payload((d_out,))
    if not rotated:
        return weight, b, None, None
    return weight, b, r.payload((d_in, d_in)), r.payload((d_out, d_out))


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
        count = np.prod(shape, dtype=object)  # a Python int: u32 dims cannot overflow it
        return np.frombuffer(self._take(8 * count), dtype="<f8").astype(np.float64).reshape(shape)
