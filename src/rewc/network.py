"""Sequential network container, forward/backward passes, construction."""

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, StateError
from .layers import Bias, Conv2D, Dense, FixedDense, Flatten, MeanPool2D, ReLU, is_fixed
from .util import rng_for

HEAD_INIT_STD = 0.01
CHUNK = 64  # rows per forward pass outside training: evaluation, Fisher, correlations
ARCHS = ("lenet", "mlp-784-10-10-10", "mlp-custom")  # what build_network builds


class Network:
    """Ordered layer chain ending in a single trainable dense head.

    The head's row count is ``head_classes`` and grows as new tasks arrive.
    Shape compatibility of the whole chain is checked at construction.
    """

    def __init__(self, layers, head_classes, rng_seed, input_shape, rotation_pairs=None):
        self.layers = list(layers)
        self.head_classes = int(head_classes)
        self.rng_seed = int(rng_seed)
        self.input_shape = tuple(int(d) for d in input_shape)
        self.rotation_pairs = list(rotation_pairs or [])
        self._validate()

    def _validate(self):
        if not self.layers:
            raise DimensionError("network needs at least one layer")
        head_idx = None
        for i in range(len(self.layers) - 1, -1, -1):
            if isinstance(self.layers[i], Dense):
                head_idx = i
                break
        if head_idx is None:
            raise DimensionError("network must end in a trainable dense head")
        for layer in self.layers[head_idx + 1 :]:
            # Only a rotation sandwich may trail the head.
            if not isinstance(layer, (FixedDense, Bias)):
                raise DimensionError("head may only be followed by its rotation sandwich")
        if self.layers[head_idx].W.shape[0] != self.head_classes:
            raise DimensionError(
                f"head_classes={self.head_classes} but head has "
                f"{self.layers[head_idx].W.shape[0]} rows"
            )
        self._head_index = head_idx
        shape = self.input_shape
        for i, layer in enumerate(self.layers):
            try:
                shape = layer.out_shape(shape)
            except DimensionError as e:
                raise DimensionError(f"layer {i} ({layer.kind}): {e}") from e
        self.output_shape = shape

    @property
    def head_index(self):
        return self._head_index

    def trainable_keys(self):
        """Ordered ``(key, layer_index, name)`` for every trainable parameter."""
        out = []
        for i, layer in enumerate(self.layers):
            if layer.trainable:
                for name in layer.params():
                    out.append((f"{i}.{name}", i, name))
        return out

    def get_param(self, key):
        idx, name = key.split(".")
        return self.layers[int(idx)].params()[name]

    def set_param(self, key, value):
        idx, name = key.split(".")
        layer = self.layers[int(idx)]
        cur = layer.params()[name]
        if cur.shape != value.shape:
            raise DimensionError(f"cannot assign {value.shape} to {key} of shape {cur.shape}")
        setattr(layer, name, np.asarray(value, dtype=np.float64))

    def parameter_snapshot(self):
        return {key: self.get_param(key).copy() for key, _, _ in self.trainable_keys()}

    def num_trainable_params(self):
        return sum(self.get_param(k).size for k, _, _ in self.trainable_keys())

    def has_fixed_layers(self):
        return any(is_fixed(l) for l in self.layers)

    def clone(self):
        return Network(
            [l.clone() for l in self.layers],
            self.head_classes,
            self.rng_seed,
            self.input_shape,
            rotation_pairs=list(self.rotation_pairs),
        )


def layout_signature(net):
    """Hash of the trainable-parameter layout (kinds and shapes, in order)."""
    parts = []
    for key, i, name in net.trainable_keys():
        shape = "x".join(str(d) for d in net.get_param(key).shape)
        parts.append(f"{key}:{net.layers[i].kind}:{shape}")
    return hashlib.sha256(";".join(parts).encode()).hexdigest()


def parameter_digest(net):
    """SHA-256 over the bytes of every trainable array, in ``trainable_keys()``
    order: equal digests mean bit-identical parameters."""
    h = hashlib.sha256()
    for key, _, _ in net.trainable_keys():
        h.update(net.get_param(key).tobytes())
    return h.hexdigest()


@dataclass
class ForwardCache:
    """Per-layer inputs (plus reusable intermediates) and final logits."""

    inputs: list
    logits: np.ndarray
    aux: list = None


@dataclass
class GradientSet:
    """Gradients per trainable parameter, plus each trainable layer's input
    and output gradient, which curvature and correlation estimators need."""

    grads: dict
    layer_inputs: dict = field(default_factory=dict)
    layer_output_grads: dict = field(default_factory=dict)


def forward(net, x):
    """Run the chain; returns ``(logits, cache)``."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[1:] != net.input_shape:
        raise DimensionError(
            f"input shape {x.shape[1:]} does not match network input {net.input_shape}"
        )
    inputs = []
    aux = []
    h = x
    for layer in net.layers:
        inputs.append(h)
        h, a = layer.forward_cached(h)
        aux.append(a)
    return h, ForwardCache(inputs=inputs, logits=h, aux=aux)


def log_softmax(z):
    m = z.max(axis=1, keepdims=True)
    t = z - m
    return t - np.log(np.exp(t).sum(axis=1, keepdims=True))


def softmax(z):
    return np.exp(log_softmax(z))


def backward(net, cache, labels):
    """Mean cross-entropy loss and gradients for one cached forward pass."""
    if len(cache.inputs) != len(net.layers):
        raise StateError("forward cache does not match this network")
    labels = np.asarray(labels)
    n = cache.logits.shape[0]
    if labels.shape != (n,):
        raise StateError(f"expected {n} labels, got shape {labels.shape}")
    if labels.min() < 0 or labels.max() >= net.head_classes:
        raise StateError("label outside current head range")

    logp = log_softmax(cache.logits)
    loss = -float(logp[np.arange(n), labels].mean())
    grad = np.exp(logp)
    grad[np.arange(n), labels] -= 1.0
    grad /= n

    # Nothing below the lowest trainable layer has a parameter gradient, so
    # backpropagation stops there (a rotated net starts with a frozen layer).
    lowest = min(i for i, layer in enumerate(net.layers) if layer.trainable)
    gset = GradientSet(grads={})
    for i in range(len(net.layers) - 1, lowest - 1, -1):
        layer = net.layers[i]
        x = cache.inputs[i]
        if layer.trainable:
            gset.layer_inputs[i] = x
            gset.layer_output_grads[i] = grad
        aux = cache.aux[i] if cache.aux is not None else None
        grad, pgrads = layer.backward(x, grad, aux=aux, need_input_grad=i > lowest)
        if pgrads:
            for name, g in pgrads.items():
                gset.grads[f"{i}.{name}"] = g
    return loss, gset


def grow_head(net, new_classes):
    """Append output rows to the head; existing rows stay bit-identical."""
    if new_classes <= 0:
        raise DimensionError("new_classes must be positive")
    if net.head_index != len(net.layers) - 1:
        raise StateError("cannot grow a head that sits inside a rotation sandwich")
    head = net.layers[-1]
    rng = rng_for(net.rng_seed, "grow-head", net.head_classes, new_classes)
    extra_w = rng.normal(0.0, HEAD_INIT_STD, size=(new_classes, head.W.shape[1]))
    head.W = np.concatenate([head.W, extra_w], axis=0)
    if head.b is not None:
        head.b = np.concatenate([head.b, np.zeros(new_classes)])
    net.head_classes += new_classes
    net._validate()
    return net


def _he_normal(rng, shape, fan_in):
    return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape)


def build_network(arch, head_classes=None, input_shape=None, hidden=None, seed=0):
    """Construct a seeded network.

    Supported ``arch`` values:
      * ``"mlp-784-10-10-10"`` — flatten + dense 784->10->10->head (28x28x1 input)
      * ``"lenet"`` — two 5x5 conv/pool stages + dense 120/84 + head (32x32x1 input)
      * ``"mlp-custom"`` — flatten (if needed) + dense stack from ``hidden``;
        the last entry of ``hidden`` is the head width unless ``head_classes``
        overrides it.
    """
    rng = rng_for(seed, "init", arch)
    if arch == "mlp-784-10-10-10":
        input_shape = input_shape or (28, 28, 1)
        if int(np.prod(input_shape)) != 784:
            raise DimensionError("mlp-784-10-10-10 requires 784 input features")
        head = 10 if head_classes is None else int(head_classes)
        widths = [10, 10, head]
        return _build_mlp(widths, input_shape, rng, seed)
    if arch == "lenet":
        input_shape = input_shape or (32, 32, 1)
        if head_classes is None:
            raise DimensionError("lenet requires head_classes")
        return _build_lenet(int(head_classes), input_shape, rng, seed)
    if arch == "mlp-custom":
        if not hidden:
            raise DimensionError("mlp-custom requires a non-empty width list")
        if input_shape is None:
            raise DimensionError("mlp-custom requires input_shape")
        widths = [int(w) for w in hidden]
        if head_classes is not None:
            widths[-1] = int(head_classes)
        return _build_mlp(widths, tuple(input_shape), rng, seed)
    raise DimensionError(f"unknown architecture {arch!r}; expected one of {ARCHS}")


def _build_mlp(widths, input_shape, rng, seed):
    layers = []
    if len(input_shape) > 1:
        layers.append(Flatten())
    d = int(np.prod(input_shape))
    for j, w in enumerate(widths):
        head = j == len(widths) - 1
        # The head starts near zero (like grown rows) so fresh classes begin
        # with unbiased logits.
        W = rng.normal(0.0, HEAD_INIT_STD, (w, d)) if head else _he_normal(rng, (w, d), d)
        layers.append(Dense(W, np.zeros(w)))
        if not head:
            layers.append(ReLU())
        d = w
    return Network(layers, widths[-1], seed, input_shape)


def _build_lenet(head_classes, input_shape, rng, seed):
    if len(input_shape) != 3:
        raise DimensionError("lenet expects (H, W, C) input")
    c_in = input_shape[2]
    layers = [
        Conv2D(_he_normal(rng, (5, 5, c_in, 6), 25 * c_in), np.zeros(6)),
        ReLU(),
        MeanPool2D(2),
        Conv2D(_he_normal(rng, (5, 5, 6, 16), 25 * 6), np.zeros(16)),
        ReLU(),
        MeanPool2D(2),
        Flatten(),
    ]
    h = (input_shape[0] - 4) // 2
    h = (h - 4) // 2
    w = (input_shape[1] - 4) // 2
    w = (w - 4) // 2
    flat = h * w * 16
    if flat <= 0:
        raise DimensionError(f"lenet needs at least 16x16 input, got {input_shape}")
    layers += [
        Dense(_he_normal(rng, (120, flat), flat), np.zeros(120)),
        ReLU(),
        Dense(_he_normal(rng, (84, 120), 120), np.zeros(84)),
        ReLU(),
        Dense(rng.normal(0.0, HEAD_INIT_STD, (head_classes, 84)), np.zeros(head_classes)),
    ]
    return Network(layers, head_classes, seed, input_shape)
