"""Fisher information estimation and the elastic weight consolidation penalty.

The diagonal estimator follows the outer-product (first-order) form: per
input, labels are drawn from the model's own softmax ("sampled" mode) or the
expectation is enumerated over all classes weighted by their probabilities
("expected" mode).  Per-parameter entries are averages of squared
log-likelihood gradients, so they are non-negative by construction.

All curvature estimates read one pass, ``_fim_pass``: one batched forward
pass per chunk of chosen inputs and one backward pass per chunk and label
set, with one label sampler, run on ``rewc.parallel``'s pool and reduced on
the calling thread in (chunk, label set) order.  The backward pass is
record-only (``network.backward(..., record_only=True)``): it keeps each
trainable layer's input and output gradient and forms no parameter
gradient, since no estimator reads one.  The diagonal and full-block estimators reduce
each trainable layer's recorded input and output gradient into per-example
gradients (Goodfellow, arXiv 1510.01799) of the weight in the layer's own,
possibly rotated, coordinates; ``rotation.accumulate_correlations`` reduces
the same records into the input and output-gradient correlations (sampled
labels, or the true ones).
"""

from dataclasses import dataclass

import numpy as np

from . import parallel
from .errors import AlignmentError, CapacityError, DimensionError
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


def _sample_labels(p, u):
    """One label per row of the class probabilities ``p`` from one uniform
    per row: with ``u = rng.random(len(p))``, the same draws as
    ``rng.choice(C, p=row)`` row by row (normalised CDF, right-side search),
    leaving ``rng`` in the same state."""
    if not np.all(np.isfinite(p)):
        raise DimensionError("class probabilities are not finite")
    cdf = np.cumsum(p, axis=1)
    cdf /= cdf[:, -1:]
    return (cdf <= u[:, None]).sum(axis=1)


def _fim_pass(net, inputs, budget, mode, rng, labels, reduce, true_labels=False):
    """Yield ``reduce(forward_cache, weights, gradient_set)`` per chunk of up
    to ``CHUNK`` chosen inputs and label set, in that order; the one pass
    behind the diagonal and full-block estimators and the rotation's
    correlations.

    Labels are one draw per input in sample order (``sampled``), every class
    in turn weighted by its probability (``expected``), or, with
    ``true_labels``, the given ``labels`` (weight 1, no draw).  Every random
    number is drawn here, on the calling thread.  Chunks run in waves of
    ``parallel.WORKERS``: the wave's forwards, then each (chunk, label set)'s
    record-only backward and ``reduce``, on the pool.  So at most one wave's
    forward caches are alive at once, and ``reduce`` should return no more
    than per-example-sized data.
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
    u = rng.random(len(idx)) if mode == "sampled" and not true_labels else None

    def label_sets(start):
        part = slice(start, start + CHUNK)
        logits, cache = forward(net, inputs[idx[part]])
        p = softmax(logits)
        b, classes = p.shape
        if true_labels:
            sets = [(np.ones(b), np.asarray(labels)[idx[part]])]
        elif mode == "sampled":
            sets = [(np.ones(b), _sample_labels(p, u[part]))]
        else:
            sets = [(p[:, c], np.full(b, c)) for c in range(classes)]
        return [(cache, w, y) for w, y in sets]

    def unit(job):
        cache, w, y = job
        return reduce(cache, w, backward(net, cache, y, record_only=True)[1])

    def wave(starts):
        jobs = [job for sets in parallel.ordered_map(label_sets, starts) for job in sets]
        return parallel.ordered_map(unit, jobs)

    step = CHUNK * parallel.WORKERS
    for first in range(0, len(idx), step):
        yield from wave(range(first, min(first + step, len(idx)), CHUNK))


def _example_weight_grads(layer, x, g, aux, n):
    """Per-example weight gradients, ``(n, d_out, d_in)`` for a dense layer
    and ``(n, kh*kw*d_in + 1, d_out)`` for a convolution, in the weight's
    coordinates (``rewc.layers``), from the batch-mean output gradient ``g``
    of ``n`` examples.  A convolution's last row is its bias gradient, read
    from the patch matrix's ones column."""
    if isinstance(layer, Dense):
        x, g = layer.weight_grad_factors(x, g, aux)
        return (g * n)[:, :, None] * x[:, None, :]
    patches = aux[0]
    cols = patches.reshape(n, -1, patches.shape[-1])
    g = g * n
    ge = np.matmul(cols.transpose(0, 2, 1), g.reshape(n, -1, g.shape[-1]))
    return layer.weight_grad_rows(ge)


def estimate_diag_fim(net, inputs, sample_budget=200, mode="sampled", rng=None, labels=None):
    """Diagonal FIM estimate over ``sample_budget`` inputs (without replacement)."""
    rng = rng if rng is not None else rng_for(net.rng_seed, "fim")
    trainable = [(i, l) for i, l in enumerate(net.layers) if l.trainable]

    def squares(cache, w, gset):
        """One unit's weighted sums of squared per-example gradients."""
        out = {}
        for i, layer in trainable:
            x = gset.layer_inputs[i]
            g = gset.layer_output_grads[i]
            if isinstance(layer, Conv2D):
                ge = _example_weight_grads(layer, x, g, cache.aux[i], len(w))
                sq = np.tensordot(w, ge * ge, axes=1)
                out[f"{i}.K"] = sq[:-1].reshape(layer.K.shape)
                out[f"{i}.b"] = sq[-1]
                continue
            xw, gw = layer.weight_grad_factors(x, g, cache.aux[i])
            gw = gw * len(w)  # undo the batch-mean scaling
            out[f"{i}.W"] = (w[:, None] * gw * gw).T @ (xw * xw)
            gb = g * len(w)  # per-example bias gradients: undo the batch-mean scaling
            out[f"{i}.b"] = w @ (gb * gb)
        return out

    acc = {k: np.zeros_like(net.get_param(k)) for k, _, _ in net.trainable_keys()}
    for terms in _fim_pass(net, inputs, sample_budget, mode, rng, labels, squares):
        for key, term in terms.items():
            acc[key] += term
    for key in acc:
        acc[key] /= sample_budget
    return FimDiagonal(values=acc, layout_hash=layout_signature(net))


def estimate_full_fim_layer(net, inputs, layer_index, sample_budget=200, mode="sampled",
                            rng=None, labels=None):
    """Full FIM over one layer's flattened weights, as a ``size x size``
    matrix; diagnostic scale only."""
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

    def weighted_grads(cache, w, gset):
        """One unit's per-example gradients, weighted and plain; the caller
        multiplies them, so no unit holds a ``size x size`` block."""
        x = gset.layer_inputs[layer_index]
        g = gset.layer_output_grads[layer_index]
        ge = _example_weight_grads(layer, x, g, cache.aux[layer_index], len(w))
        ge = ge[:, : size // ge.shape[2]].reshape(len(w), size)  # a conv's bias row dropped
        return w[:, None] * ge, ge

    acc = np.zeros((size, size))
    for wge, ge in _fim_pass(net, inputs, sample_budget, mode, rng, labels, weighted_grads):
        acc += wge.T @ ge
    return acc / sample_budget


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
