"""Binary network checkpoints (REWC), bit-exact on a round trip.

README's "File formats" section gives the layout beside RFIM's and RDAT's.
Each layer is one record: a kind tag and its fields.  A dense or conv record
carries ``has_bias`` and ``rotated`` flags; its weight follows, then its bias
and its rotation ``(U1, U2)`` when flagged.
"""

from .binfmt import Reader, Writer
from .errors import DataFormatError, DimensionError
from .layers import Conv2D, Dense, Flatten, MeanPool2D, ReLU
from .network import Network

MAGIC = b"REWC"
VERSION = 2

_KIND_TAGS = {"dense": 1, "conv2d": 2, "relu": 3, "flatten": 4, "meanpool2d": 5}
_TAG_KINDS = {tag: kind for kind, tag in _KIND_TAGS.items()}


def save_network(net, path):
    with Writer(path, MAGIC, VERSION) as w:
        w.pack("qI", net.rng_seed, net.head_classes)
        w.dims(net.input_shape)
        w.u32(len(net.layers))
        for layer in net.layers:
            w.pack("B", _KIND_TAGS[layer.kind])
            _write_record(w, layer)


def _write_record(w, layer):
    if isinstance(layer, MeanPool2D):
        w.u32(layer.size)
    if not isinstance(layer, (Dense, Conv2D)):
        return
    flags = (int(layer.b is not None), int(layer.rotated))
    if isinstance(layer, Dense):
        weight = layer.W
        w.u32(*weight.shape, *flags)
    else:
        weight = layer.K
        w.u32(*weight.shape, layer.stride, layer.padding, *flags)
    for arr in (weight, layer.b, layer.U1, layer.U2):
        if arr is not None:
            w.payload(arr)


def load_network(path):
    """Read a checkpoint; a layer or network the constructors reject is a
    ``DataFormatError`` too."""
    r = Reader(path, MAGIC, VERSION, "checkpoint")
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
        d_out, d_in, has_b, rotated = _fields(r, 2)
        return Dense(*_arrays(r, (d_out, d_in), d_in, d_out, has_b, rotated))
    if kind == "conv2d":
        kh, kw, c_in, c_out, stride, padding, has_b, rotated = _fields(r, 6)
        K, b, U1, U2 = _arrays(r, (kh, kw, c_in, c_out), c_in, c_out, has_b, rotated)
        return Conv2D(K, b, stride, padding, U1, U2)
    if kind == "relu":
        return ReLU()
    if kind == "flatten":
        return Flatten()
    if kind == "meanpool2d":
        return MeanPool2D(r.u32())
    raise DataFormatError(f"unknown layer tag {tag}")


def _fields(r, n):
    """``n`` u32 fields, then the ``has_bias`` and ``rotated`` flags, each 0 or 1."""
    fields = r.unpack("I" * (n + 2))
    for name, flag in zip(("has_bias", "rotated"), fields[n:]):
        if flag > 1:
            raise DataFormatError(f"checkpoint {name} flag is {flag}, not 0 or 1")
    return fields


def _arrays(r, shape, d_in, d_out, has_b, rotated):
    """A weight of ``shape``, then its bias and its rotation ``(U1, U2)``, each
    ``None`` when its flag is 0."""
    weight = r.payload(shape)
    b = r.payload((d_out,)) if has_b else None
    if not rotated:
        return weight, b, None, None
    return weight, b, r.payload((d_in, d_in)), r.payload((d_out, d_out))
