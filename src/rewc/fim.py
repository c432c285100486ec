"""Fisher information estimation and the elastic weight consolidation penalty.

The diagonal estimator follows the outer-product (first-order) form: per
input, one label is drawn from the model's own softmax ("sampled" mode), or
the expectation over every class is taken ("expected" mode), as ``C - 1``
unit-weight logit gradients whose outer products sum to the softmax's
output Fisher ``diag(p) - p p^T`` (``_softmax_fisher_factor``).  Per-parameter
entries are averages of squared log-likelihood gradients, so they are
non-negative by construction.

All curvature estimates read one pass, ``_fim_pass``: one batched forward
pass per chunk of chosen inputs and one backward pass per chunk and
logit-gradient set, with one label sampler, run on ``rewc.parallel``'s pool
and reduced on the calling thread in (chunk, set) order.  The backward pass
is record-only (``network.backward(net, cache, grad, record_only=True)``):
it starts from the set's gradient at the logits, returns each trainable
layer's output gradient, keyed by layer index, and forms no parameter
gradient, since no estimator reads one.  With its forward's ``cache.aux[i]``,
all that it reads of its input, each trainable layer reduces these records
itself (``rewc.layers``), in its own, possibly rotated, coordinates: into
per-example gradients (Goodfellow, arXiv 1510.01799) for the full block,
``example_grads``, and into the diagonal's sums of squares, ``fisher_terms``.
``rotation.accumulate_correlations`` reduces the same records into the input
and output-gradient correlations of the layers its scope selects, under
sampled or true labels.
"""

from dataclasses import dataclass

import numpy as np

from . import parallel
from .errors import AlignmentError, CapacityError, DimensionError
from .network import CHUNK, backward, forward, label_gradient, layout_signature, param_key, softmax


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

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError("lambda must be non-negative")


FULL_FIM_PARAM_CAP = 2000
FIM_MODES = ("sampled", "expected")
LABEL_SOURCES = FIM_MODES + ("true",)


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


def _softmax_fisher_factor(p):
    """Vectors ``v_k``, ``k < C - 1``, with ``sum_k v_k v_k^T = diag(p) - p p^T``
    for each row ``p`` of class probabilities, as a ``(C - 1, rows, C)`` array.

    ``diag(p) - p p^T`` is the Fisher of the softmax's output, of rank
    ``C - 1``; these are its Cholesky columns.  With each row's classes sorted
    by descending ``p`` (stably) and the tail sums ``t_k = sum_{j >= k} p_j``,
    ``v_k[k] = sqrt(p_k t_{k+1} / t_k)``, ``v_k[j > k] = -p_j sqrt(p_k / (t_k
    t_{k+1}))`` and ``v_k[j < k] = 0``; column ``k`` is zero where ``t_{k+1}
    = 0``.  The square roots are taken apart, ``a = sqrt(p_k / t_k)`` and
    ``s = sqrt(t_{k+1})``, so that no product under- or overflows.
    """
    classes = p.shape[1]
    order = np.argsort(-p, axis=1, kind="stable")
    q = np.take_along_axis(p, order, axis=1)
    t = np.cumsum(q[:, ::-1], axis=1)[:, ::-1]
    live = t[:, 1:] > 0
    a = np.sqrt(np.divide(q[:, :-1], t[:, :-1], out=np.zeros(live.shape), where=live))
    s = np.sqrt(t[:, 1:])
    scale = np.divide(a, s, out=np.zeros(live.shape), where=live)  # sqrt(p_k / (t_k t_{k+1}))
    k = np.arange(classes - 1)
    rows = np.where(np.arange(classes) > k[:, None, None], -q * scale.T[:, :, None], 0.0)
    rows[k, :, k] = (a * s).T
    v = np.empty_like(rows)
    np.put_along_axis(v, np.broadcast_to(order, rows.shape), rows, axis=2)
    return v


def _fim_pass(net, inputs, budget, source, rng, labels, reduce):
    """Yield ``reduce(forward_cache, deltas)`` per chunk of up to ``CHUNK``
    chosen inputs and logit-gradient set, in that order; the one pass behind
    the diagonal and full-block estimators and the rotation's correlations.
    ``deltas`` is the record-only ``network.backward``'s return for the set:
    each trainable layer's output gradient, keyed by layer index.  Every
    example's squared gradients, summed over the sets, are its Fisher.

    The label ``source`` decides the sets.  A set is the gradient of the
    chunk's mean cross-entropy at its logits, ``(p - onehot) / n``, for one
    label per input drawn in sample order (``sampled``) or the given
    ``labels`` (``true``, no draw); or, ``expected``, ``v_k / n`` for each of
    the ``C - 1`` columns of ``_softmax_fisher_factor(p)``, whose outer
    products sum to the softmax's output Fisher: the expectation over every
    class, ``sum_c p_c (p - e_c) (p - e_c)^T``, in one backward pass fewer
    than there are classes.  Every random number is drawn here, on the
    calling thread.  Chunks run in waves of ``parallel.WORKERS``: the wave's
    forwards, then each (chunk, set)'s record-only backward and ``reduce``,
    on the pool.  So at most one wave's forward caches are alive at once,
    and ``reduce`` should return no more than per-example-sized data.
    """
    if source not in LABEL_SOURCES:
        raise ValueError(f"unknown label source {source!r}")
    if source == "true" and labels is None:
        raise DimensionError("the true label source requires labels")
    inputs = np.asarray(inputs, dtype=np.float64)
    n = inputs.shape[0]
    if n == 0:
        raise DimensionError("empty dataset")
    idx = select_samples(n, budget, rng, labels)
    u = rng.random(len(idx)) if source == "sampled" else None

    def gradient_sets(start):
        part = slice(start, start + CHUNK)
        logits, cache = forward(net, inputs[idx[part]])
        p = softmax(logits)
        if source == "true":
            sets = [label_gradient(p, np.asarray(labels)[idx[part]])]
        elif source == "sampled":
            sets = [label_gradient(p, _sample_labels(p, u[part]))]
        else:
            sets = _softmax_fisher_factor(p) / len(p)
        return [(cache, g) for g in sets]

    def unit(job):
        cache, g = job
        return reduce(cache, backward(net, cache, g, record_only=True))

    def wave(starts):
        jobs = [job for sets in parallel.ordered_map(gradient_sets, starts) for job in sets]
        return parallel.ordered_map(unit, jobs)

    step = CHUNK * parallel.WORKERS
    for first in range(0, len(idx), step):
        yield from wave(range(first, min(first + step, len(idx)), CHUNK))


def estimate_diag_fim(net, inputs, sample_budget, mode, rng, labels=None):
    """Diagonal FIM estimate over ``sample_budget`` inputs (without replacement)."""
    if mode not in FIM_MODES:
        raise ValueError(f"unknown FIM mode {mode!r}")

    def squares(cache, deltas):
        """One unit's sums of squared per-example gradients."""
        return {param_key(i, name): term for i, delta in deltas.items()
                for name, term in net.layers[i].fisher_terms(delta, cache.aux[i]).items()}

    acc = {k: np.zeros_like(p) for k, p in net.params().items()}
    for terms in _fim_pass(net, inputs, sample_budget, mode, rng, labels, squares):
        for key, term in terms.items():
            acc[key] += term
    for key in acc:
        acc[key] /= sample_budget
    return FimDiagonal(values=acc, layout_hash=layout_signature(net))


def estimate_full_fim_layer(net, inputs, layer_index, sample_budget, mode, rng, labels=None):
    """Full FIM over one layer's flattened weights, as a ``size x size``
    matrix; diagnostic scale only."""
    if mode not in FIM_MODES:
        raise ValueError(f"unknown FIM mode {mode!r}")
    if not 0 <= layer_index < len(net.layers):
        raise DimensionError(f"layer index {layer_index} out of range")
    layer = net.layers[layer_index]
    if not layer.trainable:
        raise DimensionError(f"layer {layer_index} ({layer.kind}) has no weight matrix")
    size = layer.weight.size
    if size > FULL_FIM_PARAM_CAP:
        raise CapacityError(
            f"layer has {size} weights; full-FIM diagnostics capped at {FULL_FIM_PARAM_CAP}"
        )

    def weight_grads(cache, deltas):
        """One unit's per-example weight gradients; the caller multiplies
        them, so no unit holds a ``size x size`` block."""
        ge = layer.example_grads(deltas[layer_index], cache.aux[layer_index])
        return ge[layer.weight_name].reshape(-1, size)

    acc = np.zeros((size, size))
    for ge in _fim_pass(net, inputs, sample_budget, mode, rng, labels, weight_grads):
        # A second operand buffer keeps this a GEMM: numpy would hand
        # ``ge.T @ ge`` to a symmetric update, which rounds differently.
        acc += ge.T @ ge.copy()
    return acc / sample_budget


def make_anchor(net, fim, lam):
    if fim.layout_hash != layout_signature(net):
        raise AlignmentError("anchor FIM was computed on a different layout")
    return EwcAnchor({k: p.copy() for k, p in net.params().items()}, fim, float(lam))


def ewc_penalty(net, anchor):
    """Quadratic pull toward the anchored parameters, weighted per entry.

    Returns ``(penalty, gradient_dict)``; both are exactly zero for lam == 0.
    An anchor penalizes only a network of its own layout and rotation
    (``network.layout_signature``); head rows added after the anchor was
    taken carry no penalty.
    """
    if layout_signature(net) != anchor.fim.layout_hash:
        raise AlignmentError("anchor was taken on a network of another layout or rotation")
    if anchor.lam == 0.0:
        return 0.0, {}
    penalty = 0.0
    grads = {}
    for key, theta in net.params().items():
        theta0 = anchor.theta_star[key]
        f = anchor.fim.values[key]
        delta = theta[: len(theta0)] - theta0
        penalty += 0.5 * anchor.lam * float(np.sum(f * delta * delta))
        g = anchor.lam * f * delta
        if g.shape != theta.shape:  # a grown head
            padded = np.zeros(theta.shape)
            padded[: len(g)] = g
            g = padded
        grads[key] = g
    return penalty, grads
