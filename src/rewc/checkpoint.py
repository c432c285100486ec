"""Binary network checkpoints (REWC), bit-exact on a round trip.

README's "File formats" section gives the layout beside RFIM's and RDAT's.
"""

from .binfmt import Reader, Writer
from .errors import DataFormatError
from .layers import Bias, Conv2D, Dense, FixedConv1x1, FixedDense, Flatten, MeanPool2D, ReLU
from .network import Network
from .rotation import RotationPair

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


def save_network(net, path):
    with Writer(path, MAGIC, VERSION) as w:
        w.pack("qI", net.rng_seed, net.head_classes)
        w.dims(net.input_shape)
        w.u32(len(net.layers))
        for layer in net.layers:
            w.pack("B", _KIND_TAGS[layer.kind])
            _write_layer(w, layer)
        w.u32(len(net.rotation_pairs))
        for pair in net.rotation_pairs:
            w.u32(pair.layer_index, pair.U1.shape[0], pair.U2.shape[0])
            w.payload(pair.U1)
            w.payload(pair.U2)


def _write_layer(w, layer):
    if isinstance(layer, Dense):
        w.u32(*layer.W.shape, 0 if layer.b is None else 1)
        w.payload(layer.W)
        if layer.b is not None:
            w.payload(layer.b)
    elif isinstance(layer, Conv2D):
        w.u32(*layer.K.shape, layer.stride, layer.padding, 0 if layer.b is None else 1)
        w.payload(layer.K)
        if layer.b is not None:
            w.payload(layer.b)
    elif isinstance(layer, MeanPool2D):
        w.u32(layer.size)
    elif isinstance(layer, (FixedDense, FixedConv1x1)):
        w.u32(layer.U.shape[0])
        w.payload(layer.U)
    elif isinstance(layer, Bias):
        w.u32(layer.b.shape[0])
        w.payload(layer.b)
    elif isinstance(layer, (ReLU, Flatten)):
        pass
    else:
        raise DataFormatError(f"cannot serialize layer kind {layer.kind!r}")


def load_network(path):
    r = Reader(path, MAGIC, VERSION, "checkpoint")
    seed, head_classes = r.unpack("qI")
    input_shape = r.dims()
    layers = [_read_layer(r) for _ in range(r.u32())]
    pairs = []
    for _ in range(r.u32()):
        idx, d1, d2 = r.unpack("III")
        pairs.append(RotationPair(idx, r.payload((d1, d1)), r.payload((d2, d2))))
    return Network(layers, head_classes, seed, input_shape, rotation_pairs=pairs)


def _read_layer(r):
    (tag,) = r.unpack("B")
    if tag == _KIND_TAGS["dense"]:
        d2, d1, has_b = r.unpack("III")
        return Dense(r.payload((d2, d1)), r.payload((d2,)) if has_b else None)
    if tag == _KIND_TAGS["conv2d"]:
        kh, kw, d1, d2, stride, padding, has_b = r.unpack("IIIIIII")
        k = r.payload((kh, kw, d1, d2))
        return Conv2D(k, r.payload((d2,)) if has_b else None, stride, padding)
    if tag == _KIND_TAGS["relu"]:
        return ReLU()
    if tag == _KIND_TAGS["flatten"]:
        return Flatten()
    if tag == _KIND_TAGS["meanpool2d"]:
        return MeanPool2D(r.u32())
    if tag == _KIND_TAGS["fixed_dense"]:
        n = r.u32()
        return FixedDense(r.payload((n, n)))
    if tag == _KIND_TAGS["fixed_conv1x1"]:
        n = r.u32()
        return FixedConv1x1(r.payload((n, n)))
    if tag == _KIND_TAGS["bias"]:
        return Bias(r.payload((r.u32(),)))
    raise DataFormatError(f"unknown layer tag {tag}")
