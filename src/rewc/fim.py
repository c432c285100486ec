"""Fisher information estimation and the elastic weight consolidation penalty.

The diagonal estimator follows the outer-product (first-order) form: per
input, labels are drawn from the model's own softmax ("sampled" mode) or the
expectation is enumerated over all classes weighted by their probabilities
("expected" mode).  Per-parameter entries are averages of squared
log-likelihood gradients, so they are non-negative by construction.

All curvature estimates read one pass, ``_fim_pass``: one batched forward
pass per chunk of chosen inputs and one backward pass per chunk and label
set, with one label sampler.  The diagonal and full-block estimators reduce
each trainable layer's recorded input and output gradient into per-example
gradients (Goodfellow, arXiv 1510.01799); ``rotation.accumulate_correlations``
reduces the same records into the input and output-gradient correlations
(sampled labels, or the true ones).
"""

import struct
from dataclasses import dataclass

import numpy as np

from .errors import AlignmentError, CapacityError, DataFormatError, DimensionError
from .layers import Conv2D, Dense
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
            yield cache, np.ones(b), backward(net, cache, np.asarray(labels)[sel])[1]
        elif mode == "sampled":
            yield cache, np.ones(b), backward(net, cache, _sample_labels(p, rng))[1]
        else:
            for c in range(classes):
                yield cache, p[:, c], backward(net, cache, np.full(b, c))[1]


def _example_weight_grads(layer, x, g, aux):
    """Per-example weight gradients, ``(n, d_out, d_in)`` for a dense layer
    and ``(n, kh*kw*d_in, d_out)`` for a convolution.  A convolution with a
    bias has one more row, its bias gradient, read from the patch matrix's
    ones column."""
    if isinstance(layer, Dense):
        return g[:, :, None] * x[:, None, :]
    patches = aux[0]
    n = patches.shape[0]
    cols = patches.reshape(n, -1, patches.shape[-1])
    return np.matmul(cols.transpose(0, 2, 1), g.reshape(n, -1, g.shape[-1]))


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
            g = gset.layer_output_grads[i] * len(w)  # undo the batch-mean scaling
            if isinstance(layer, Dense):
                acc[f"{i}.W"] += (w[:, None] * g * g).T @ (x * x)
            elif isinstance(layer, Conv2D):
                ge = _example_weight_grads(layer, x, g, cache.aux[i])
                sq = np.tensordot(w, ge * ge, axes=1)
                acc[f"{i}.K"] += sq[: layer.K[..., 0].size].reshape(layer.K.shape)
                if layer.b is not None:
                    acc[f"{i}.b"] += sq[-1]
                continue
            if layer.b is not None:
                gb = _example_bias_grads(g)
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
        g = gset.layer_output_grads[layer_index] * len(w)  # undo the batch-mean scaling
        ge = _example_weight_grads(layer, x, g, cache.aux[layer_index])
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
    with open(path, "wb") as f:
        f.write(FIM_MAGIC)
        f.write(struct.pack("<I", FIM_VERSION))
        h = fim.layout_hash.encode()
        f.write(struct.pack("<I", len(h)))
        f.write(h)
        f.write(struct.pack("<I", len(fim.values)))
        for key in sorted(fim.values):
            kb = key.encode()
            arr = fim.values[key]
            f.write(struct.pack("<I", len(kb)))
            f.write(kb)
            f.write(struct.pack("<B", arr.ndim))
            f.write(struct.pack("<" + "I" * arr.ndim, *arr.shape))
            f.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_fim(path):
    with open(path, "rb") as f:
        if f.read(4) != FIM_MAGIC:
            raise DataFormatError("bad FIM snapshot magic (expected RFIM)")
        (version,) = struct.unpack("<I", f.read(4))
        if version != FIM_VERSION:
            raise DataFormatError(f"unsupported FIM snapshot version {version}")
        (hlen,) = struct.unpack("<I", f.read(4))
        layout_hash = f.read(hlen).decode()
        (n,) = struct.unpack("<I", f.read(4))
        values = {}
        for _ in range(n):
            (klen,) = struct.unpack("<I", f.read(4))
            key = f.read(klen).decode()
            (ndim,) = struct.unpack("<B", f.read(1))
            shape = struct.unpack("<" + "I" * ndim, f.read(4 * ndim))
            count = int(np.prod(shape))
            buf = f.read(8 * count)
            if len(buf) != 8 * count:
                raise DataFormatError("FIM snapshot truncated")
            values[key] = np.frombuffer(buf, dtype="<f8").astype(np.float64).reshape(shape)
    return FimDiagonal(values=values, layout_hash=layout_hash)
