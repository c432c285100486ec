"""Sequential network container, forward/backward passes, construction."""

import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, StateError
from .layers import Conv2D, Dense, Flatten, MeanPool2D, ReLU
from .util import rng_for

HEAD_INIT_STD = 0.01
CHUNK = 64  # rows per forward pass outside training: evaluation, Fisher, correlations
ARCHS = ("lenet", "mlp-784-10-10-10", "mlp-custom")  # what build_network builds


class Network:
    """Ordered layer chain ending in a single trainable dense head.

    The head's row count, ``head_classes``, grows as new tasks arrive.
    ``rng_seed`` is the run's seed, that every random stream of training and
    consolidation is drawn from.  The chain's shapes are checked here.
    """

    def __init__(self, layers, rng_seed, input_shape):
        self.layers = list(layers)
        self.rng_seed = int(rng_seed)
        self.input_shape = tuple(int(d) for d in input_shape)
        if not self.layers or not isinstance(self.layers[-1], Dense):
            raise DimensionError("network must end in a trainable dense head")
        shape = self.input_shape
        for i, layer in enumerate(self.layers):
            try:
                shape = layer.out_shape(shape)
            except DimensionError as e:
                raise DimensionError(f"layer {i} ({layer.kind}): {e}") from e

    @property
    def head_classes(self):
        """The head's row count."""
        return self.layers[-1].W.shape[0]

    @property
    def head_index(self):
        return len(self.layers) - 1

    def params(self):
        """The live trainable parameter arrays, keyed by ``param_key``, in layer order."""
        return {param_key(i, name): p for i, layer in enumerate(self.layers)
                for name, p in layer.params().items()}

    def is_rotated(self):
        return any(l.rotated for l in self.layers)

    def clone(self):
        return Network([l.clone() for l in self.layers], self.rng_seed, self.input_shape)


def param_key(layer_index, name):
    """A parameter's key in ``Network.params()`` and every dict keyed like it."""
    return f"{layer_index}.{name}"


def layout_signature(net):
    """Hash of the trainable-parameter layout (kinds and shapes, in order),
    without the head's row count, which grows between tasks by design.

    A rotated layer's kind is marked with the digest of its rotation, so
    parameters in rotated coordinates align only with a network rotated by
    the same matrices."""
    parts = []
    for i, layer in enumerate(net.layers):
        kind = layer.kind + (f"@{layer.rotation_digest}" if layer.rotated else "")
        for name, p in layer.params().items():
            shape = "x".join(str(d) for d in p.shape[1 if i == net.head_index else 0 :])
            parts.append(f"{param_key(i, name)}:{kind}:{shape}")
    return hashlib.sha256(";".join(parts).encode()).hexdigest()


def parameter_digest(net):
    """SHA-256 over the bytes of every trainable array, in ``params()``
    order: equal digests mean bit-identical parameters."""
    h = hashlib.sha256()
    for p in net.params().values():
        h.update(p.tobytes())
    return h.hexdigest()


@dataclass
class ForwardCache:
    """Per-layer inputs (``None`` where a layer's backward reads only its
    intermediate, as a ReLU's does), the intermediates each backward reuses,
    and final logits."""

    inputs: list
    logits: np.ndarray
    aux: list


def forward(net, x, prepared=None):
    """Run the chain; returns ``(logits, cache)``.  ``prepared``, when given,
    is ``net.layers[0].prepare(x)``, made ahead of time; the first layer
    then starts from it."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[1:] != net.input_shape:
        raise DimensionError(
            f"input shape {x.shape[1:]} does not match network input {net.input_shape}"
        )
    inputs = []
    aux = []
    h = x
    for i, layer in enumerate(net.layers):
        inputs.append(h if layer.keeps_input else None)
        h, a = layer.forward_prepared(prepared if i == 0 and prepared is not None
                                      else layer.prepare(h))
        aux.append(a)
    return h, ForwardCache(inputs=inputs, logits=h, aux=aux)


def log_softmax(z):
    m = z.max(axis=1, keepdims=True)
    t = z - m
    return t - np.log(np.exp(t).sum(axis=1, keepdims=True))


def softmax(z):
    return np.exp(log_softmax(z))


def label_gradient(p, labels):
    """The mean cross-entropy's gradient at the logits, ``(p - onehot) / n``,
    from the class probabilities ``p`` (``softmax(logits)``) and one label
    per row."""
    labels = np.asarray(labels)
    n, classes = p.shape
    if labels.shape != (n,):
        raise StateError(f"expected {n} labels, got shape {labels.shape}")
    if labels.min() < 0 or labels.max() >= classes:
        raise StateError("label outside current head range")
    grad = p.copy()
    grad[np.arange(n), labels] -= 1.0
    grad /= n
    return grad


def backward(net, cache, target, record_only=False):
    """Gradients of one cached forward pass.

    The pass records the gradient at each trainable layer's output, taking
    input gradients down to the lowest trainable layer and no further.
    ``target`` holds the labels, and the pass returns ``(loss, grads)``: the
    mean cross-entropy, and each trainable parameter's gradient keyed like
    ``params()``, its layer's ``param_grads`` of the record.  With
    ``record_only``, ``target`` is a gradient at the logits, ``(n, classes)``,
    such as ``label_gradient``'s, and the pass returns the records, keyed by
    layer index: all that the curvature estimators read besides the cache.
    """
    if len(cache.inputs) != len(net.layers):
        raise StateError("forward cache does not match this network")
    if record_only:
        grad = np.asarray(target, dtype=np.float64)
        if grad.shape != cache.logits.shape:
            raise StateError(f"expected a logit gradient of shape {cache.logits.shape}, "
                             f"got {grad.shape}")
    else:
        logp = log_softmax(cache.logits)
        grad = label_gradient(np.exp(logp), target)
        loss = -float(logp[np.arange(len(grad)), target].mean())

    lowest = min(i for i, layer in enumerate(net.layers) if layer.trainable)
    records = {}
    for i in range(len(net.layers) - 1, lowest - 1, -1):
        layer = net.layers[i]
        if layer.trainable:
            records[i] = grad
        grad = layer.backward(cache.inputs[i], grad, aux=cache.aux[i], need_input_grad=i > lowest)
    if record_only:
        return records
    grads = {}
    for i, delta in records.items():
        pgrads = net.layers[i].param_grads(delta, cache.aux[i])
        grads.update((param_key(i, name), g) for name, g in pgrads.items())
    return loss, grads


def grow_head(net, new_classes):
    """Append output rows to the head; existing rows stay bit-identical."""
    if new_classes <= 0:
        raise DimensionError("new_classes must be positive")
    head = net.layers[-1]
    if head.rotated:
        raise StateError("cannot grow a rotated head")
    rng = rng_for(net.rng_seed, "grow-head", net.head_classes, new_classes)
    extra_w = rng.normal(0.0, HEAD_INIT_STD, size=(new_classes, head.W.shape[1]))
    head.W = np.concatenate([head.W, extra_w], axis=0)
    head.b = np.concatenate([head.b, np.zeros(new_classes)])
    return net


def _he_normal(rng, shape, fan_in):
    return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape)


def build_network(arch, head_classes, input_shape, hidden=(), seed=0):
    """Construct a seeded network with a ``head_classes``-row head on
    ``input_shape`` inputs.

    Supported ``arch`` values:
      * ``"mlp-784-10-10-10"`` — flatten + dense 784->10->10->head
      * ``"lenet"`` — two 5x5 conv/pool stages + dense 120/84 + head (at least 16x16xC input)
      * ``"mlp-custom"`` — flatten (if needed) + a dense layer of each width in
        ``hidden`` + head; the only arch that takes ``hidden``.
    """
    if arch not in ARCHS:
        raise DimensionError(f"unknown architecture {arch!r}; expected one of {ARCHS}")
    if hidden and arch != "mlp-custom":
        raise DimensionError(f"{arch} has fixed widths; only mlp-custom takes hidden widths")
    widths = [10, 10] if arch == "mlp-784-10-10-10" else [int(w) for w in hidden]
    if any(w < 1 for w in widths):
        raise DimensionError(f"hidden width {min(widths)} in {widths} is below 1")
    if head_classes < 1:
        raise DimensionError(f"head_classes {head_classes} is below 1")
    input_shape = tuple(input_shape)
    if any(d < 1 for d in input_shape):
        raise DimensionError(f"input shape {input_shape} has a dimension below 1")
    rng = rng_for(seed, "init", arch)
    if arch == "lenet":
        return _build_lenet(int(head_classes), input_shape, rng, seed)
    if arch == "mlp-784-10-10-10" and int(np.prod(input_shape)) != 784:
        raise DimensionError("mlp-784-10-10-10 requires 784 input features")
    return _build_mlp(widths + [int(head_classes)], input_shape, rng, seed)


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
    return Network(layers, seed, input_shape)


def _build_lenet(head_classes, input_shape, rng, seed):
    if len(input_shape) != 3:
        raise DimensionError("lenet expects (H, W, C) input")
    c_in = input_shape[2]
    layers = [
        Conv2D(_he_normal(rng, (5, 5, c_in, 6), 25 * c_in), np.zeros(6)),
        ReLU(),
        MeanPool2D(),
        Conv2D(_he_normal(rng, (5, 5, 6, 16), 25 * 6), np.zeros(16)),
        ReLU(),
        MeanPool2D(),
        Flatten(),
    ]
    h = (input_shape[0] - 4) // 2
    h = (h - 4) // 2
    w = (input_shape[1] - 4) // 2
    w = (w - 4) // 2
    if h <= 0 or w <= 0:
        raise DimensionError(f"lenet needs at least 16x16 input, got {input_shape}")
    flat = h * w * 16
    layers += [
        Dense(_he_normal(rng, (120, flat), flat), np.zeros(120)),
        ReLU(),
        Dense(_he_normal(rng, (84, 120), 120), np.zeros(84)),
        ReLU(),
        Dense(rng.normal(0.0, HEAD_INIT_STD, (head_classes, 84)), np.zeros(head_classes)),
    ]
    return Network(layers, seed, input_shape)
