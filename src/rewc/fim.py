"""Fisher information estimation and the elastic weight consolidation penalty.

The diagonal estimator follows the outer-product (first-order) form: per
input, labels are drawn from the model's own softmax ("sampled" mode) or the
expectation is enumerated over all classes weighted by their probabilities
("expected" mode).  Per-parameter entries are averages of squared
log-likelihood gradients, so they are non-negative by construction.

All curvature estimates read one pass, ``_fim_pass``: one batched forward
pass per chunk of chosen inputs and one backward pass per chunk and label
set, with one label sampler.  The backward pass is record-only
(``network.backward(..., record_only=True)``): it keeps each trainable
layer's input and output gradient and forms no parameter gradient, since
no estimator reads one.  The diagonal and full-block estimators reduce
each trainable layer's recorded input and output gradient into per-example
gradients (Goodfellow, arXiv 1510.01799) of the weight in the layer's own,
possibly rotated, coordinates; ``rotation.accumulate_correlations`` reduces
the same records into the input and output-gradient correlations (sampled
labels, or the true ones).
"""

from dataclasses import dataclass

import numpy as np

from .binfmt import Reader, Writer
from .errors import AlignmentError, CapacityError, DimensionError
from .layers import Conv2D, Dense, rotate_conv_kernel
from .network import CHUNK, backward, forward, layout_signature, softmax
from .util import rng_for


@dataclass
class FimDiagonal:
    """Per-parameter curvature proxies aligned with one network layout."""

    values: dict
    layout_hash: str

    def median(self):
        return float(np.median(np.concatenate([v.ravel() for v in self.values.values()])))


@dataclass
class FimBlock:
    """Full curvature matrix over one layer's flattened weights (diagnostic)."""

    layer_index: int
    matrix: np.ndarray


@dataclass
class EwcAnchor:
    """Previous-task parameter snapshot with its curvature and strength."""

    theta_star: dict
    fim: FimDiagonal
    lam: float
    layout_hash: str
    head_key_prefix: str

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError("lambda must be non-negative")
        if self.fim.layout_hash != self.layout_hash:
            raise AlignmentError("anchor FIM was computed on a different layout")


FULL_FIM_PARAM_CAP = 2000
FIM_MODES = ("sampled", "expected")


def select_samples(n, budget, rng, labels=None):
    """Indices of ``budget`` distinct samples; stratified per class when the
    budget divides evenly and every class is large enough."""
    if budget < 1:
        raise DimensionError(f"sample budget must be at least 1, got {budget}")
    if budget > n:
        raise DimensionError(f"sample budget {budget} exceeds dataset size {n}")
    if labels is not None:
        classes = np.unique(labels)
        per = budget // len(classes)
        if per > 0 and budget % len(classes) == 0:
            counts = np.array([(labels == c).sum() for c in classes])
            if np.all(counts >= per):
                picks = []
                for c in classes:
                    idx = np.flatnonzero(labels == c)
                    picks.append(rng.choice(idx, size=per, replace=False))
                return np.concatenate(picks)
    return rng.choice(n, size=budget, replace=False)


def _sample_labels(p, rng):
    """One label per row of the class probabilities ``p``: the same draws as
    ``rng.choice(C, p=row)`` row by row (normalised CDF, right-side search),
    leaving ``rng`` in the same state."""
    if not np.all(np.isfinite(p)):
        raise DimensionError("class probabilities are not finite")
    cdf = np.cumsum(p, axis=1)
    cdf /= cdf[:, -1:]
    return (cdf <= rng.random(p.shape[0])[:, None]).sum(axis=1)


def _fim_pass(net, inputs, budget, mode, rng, labels, true_labels=False):
    """Yield ``(forward_cache, weights, gradient_set)`` per chunk of up to
    ``CHUNK`` chosen inputs and label set; the one pass behind the diagonal
    and full-block estimators and the rotation's correlations.

    Labels are one draw per input in sample order (``sampled``), every class
    in turn weighted by its probability (``expected``), or, with
    ``true_labels``, the given ``labels`` (weight 1, no draw).
    """
    if mode not in FIM_MODES:
        raise ValueError(f"unknown FIM mode {mode!r}")
    if true_labels and labels is None:
        raise DimensionError("use_true_labels requires labels")
    inputs = np.asarray(inputs, dtype=np.float64)
    n = inputs.shape[0]
    if n == 0:
        raise DimensionError("empty dataset")
    idx = select_samples(n, budget, rng, labels)
    for start in range(0, len(idx), CHUNK):
        sel = idx[start : start + CHUNK]
        logits, cache = forward(net, inputs[sel])
        p = softmax(logits)
        b, classes = p.shape
        if true_labels:
            label_sets = [(np.ones(b), np.asarray(labels)[sel])]
        elif mode == "sampled":
            label_sets = [(np.ones(b), _sample_labels(p, rng))]
        else:
            label_sets = ((p[:, c], np.full(b, c)) for c in range(classes))
        for w, y in label_sets:
            yield cache, w, backward(net, cache, y, record_only=True)[1]


def _dense_factors(layer, x, g, aux, n):
    """A dense layer's per-example weight gradient is the outer product of its
    output gradient and input; both in the weight's coordinates: ``g U2`` and
    the forward's cached ``x U1^T`` for a rotated layer.  ``g`` is the
    batch-mean gradient, rescaled here by the batch size ``n``."""
    if layer.rotated:
        x, g = aux, g @ layer.U2
    return x, g * n


def _example_weight_grads(layer, x, g, aux, n):
    """Per-example weight gradients, ``(n, d_out, d_in)`` for a dense layer
    and ``(n, kh*kw*d_in, d_out)`` for a convolution, from the batch-mean
    output gradient ``g`` of ``n`` examples.  A convolution with a bias has
    one more row, its bias gradient, read from the patch matrix's ones
    column; a rotated convolution's kernel rows are mapped into its rotated
    coordinates, and its bias row stays as it is."""
    if isinstance(layer, Dense):
        x, g = _dense_factors(layer, x, g, aux, n)
        return g[:, :, None] * x[:, None, :]
    patches = aux[0]
    cols = patches.reshape(n, -1, patches.shape[-1])
    g = g * n
    ge = np.matmul(cols.transpose(0, 2, 1), g.reshape(n, -1, g.shape[-1]))
    if layer.rotated:
        rows = layer.K[..., 0].size
        stacked = ge[:, :rows].reshape((-1,) + layer.K.shape[1:])  # the n kernels, stacked
        ge[:, :rows] = rotate_conv_kernel(stacked, layer.U1, layer.U2).reshape(n, rows, -1)
    return ge


def _example_bias_grads(g):
    """Per-example bias gradients: output gradients summed over positions."""
    return g.reshape(g.shape[0], -1, g.shape[-1]).sum(axis=1)


def estimate_diag_fim(net, inputs, sample_budget=200, mode="sampled", rng=None, labels=None):
    """Diagonal FIM estimate over ``sample_budget`` inputs (without replacement)."""
    rng = rng if rng is not None else rng_for(net.rng_seed, "fim")
    acc = {k: np.zeros_like(net.get_param(k)) for k, _, _ in net.trainable_keys()}
    trainable = [(i, l) for i, l in enumerate(net.layers) if l.trainable]
    for cache, w, gset in _fim_pass(net, inputs, sample_budget, mode, rng, labels):
        for i, layer in trainable:
            x = gset.layer_inputs[i]
            g = gset.layer_output_grads[i]
            if isinstance(layer, Conv2D):
                ge = _example_weight_grads(layer, x, g, cache.aux[i], len(w))
                sq = np.tensordot(w, ge * ge, axes=1)
                acc[f"{i}.K"] += sq[: layer.K[..., 0].size].reshape(layer.K.shape)
                if layer.b is not None:
                    acc[f"{i}.b"] += sq[-1]
                continue
            xw, gw = _dense_factors(layer, x, g, cache.aux[i], len(w))
            acc[f"{i}.W"] += (w[:, None] * gw * gw).T @ (xw * xw)
            if layer.b is not None:
                gb = _example_bias_grads(g * len(w))  # undo the batch-mean scaling
                acc[f"{i}.b"] += w @ (gb * gb)
    for key in acc:
        acc[key] /= sample_budget
    return FimDiagonal(values=acc, layout_hash=layout_signature(net))


def estimate_full_fim_layer(net, inputs, layer_index, sample_budget=200, mode="sampled",
                            rng=None, labels=None):
    """Full FIM over one layer's flattened weights; diagnostic scale only."""
    if not 0 <= layer_index < len(net.layers):
        raise DimensionError(f"layer index {layer_index} out of range")
    layer = net.layers[layer_index]
    if isinstance(layer, Dense):
        weight_key = f"{layer_index}.W"
    elif isinstance(layer, Conv2D):
        weight_key = f"{layer_index}.K"
    else:
        raise DimensionError(f"layer {layer_index} ({layer.kind}) has no weight matrix")
    size = net.get_param(weight_key).size
    if size > FULL_FIM_PARAM_CAP:
        raise CapacityError(
            f"layer has {size} weights; full-FIM diagnostics capped at {FULL_FIM_PARAM_CAP}"
        )
    rng = rng if rng is not None else rng_for(net.rng_seed, "fim")
    acc = np.zeros((size, size))
    for cache, w, gset in _fim_pass(net, inputs, sample_budget, mode, rng, labels):
        x = gset.layer_inputs[layer_index]
        g = gset.layer_output_grads[layer_index]
        ge = _example_weight_grads(layer, x, g, cache.aux[layer_index], len(w))
        ge = ge[:, : size // ge.shape[2]].reshape(len(w), size)  # a conv's bias row dropped
        acc += (w[:, None] * ge).T @ ge
    return FimBlock(layer_index=layer_index, matrix=acc / sample_budget)


def make_anchor(net, fim, lam):
    return EwcAnchor(
        theta_star=net.parameter_snapshot(),
        fim=fim,
        lam=float(lam),
        layout_hash=layout_signature(net),
        head_key_prefix=f"{net.head_index}.",
    )


def _anchor_slices(net, anchor):
    """Pair anchor entries with current parameters, allowing the head dense
    layer to have grown extra rows since the anchor was taken."""
    current_keys = [k for k, _, _ in net.trainable_keys()]
    if set(anchor.theta_star) - set(current_keys):
        raise AlignmentError("anchor refers to parameters absent from this network")
    for key, theta0 in anchor.theta_star.items():
        theta = net.get_param(key)
        if theta.shape == theta0.shape:
            yield key, theta, theta0, None
        elif key.startswith(anchor.head_key_prefix) and theta.shape[1:] == theta0.shape[1:] \
                and theta.shape[0] >= theta0.shape[0]:
            yield key, theta[: theta0.shape[0]], theta0, theta.shape
        else:
            raise AlignmentError(
                f"parameter {key}: shape {theta.shape} incompatible with anchor {theta0.shape}"
            )


def ewc_penalty(net, anchor):
    """Quadratic pull toward the anchored parameters, weighted per entry.

    Returns ``(penalty, gradient_dict)``; both are exactly zero for lam == 0.
    Head rows added after the anchor was taken carry no penalty.
    """
    if anchor.lam == 0.0:
        return 0.0, {}
    penalty = 0.0
    grads = {}
    for key, theta, theta0, full_shape in _anchor_slices(net, anchor):
        f = anchor.fim.values[key]
        delta = theta - theta0
        penalty += 0.5 * anchor.lam * float(np.sum(f * delta * delta))
        g = anchor.lam * f * delta
        if full_shape is not None:
            padded = np.zeros(full_shape)
            padded[: g.shape[0]] = g
            g = padded
        grads[key] = g
    return penalty, grads


FIM_MAGIC = b"RFIM"
FIM_VERSION = 1


def save_fim(fim, path):
    with Writer(path, FIM_MAGIC, FIM_VERSION) as w:
        w.name(fim.layout_hash)
        w.u32(len(fim.values))
        for key in sorted(fim.values):
            w.name(key)
            w.array(fim.values[key])


def load_fim(path):
    r = Reader(path, FIM_MAGIC, FIM_VERSION, "FIM snapshot")
    layout_hash = r.name()
    values = {}
    for _ in range(r.u32()):
        key = r.name()
        values[key] = r.array()
    r.end()
    return FimDiagonal(values=values, layout_hash=layout_hash)
