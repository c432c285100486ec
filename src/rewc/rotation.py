"""Layer-space rotations that make diagonal curvature estimates more faithful.

For each layer the rotation scope selects we take the mean self-correlation
of its inputs and of the backpropagated gradients at its (pre-activation)
output: the two Kronecker factors of the layer's Fisher.  They are read from
the same pass and label sampler as the Fisher estimators (``fim._fim_pass``),
the inputs from its forward cache and the gradients from its record-only
backward, so this module draws no labels and runs no forward or backward pass
of its own.  The eigenbases of those two correlations give an orthogonal
change of coordinates on each side of the layer.  Each rotated layer carries
its rotation ``(U1, U2)`` as part of its state (``rewc.layers``): the forward
function is untouched while the weight's coordinates decorrelate the factors
that drive the layer's curvature.

Conventions: ``U1`` acts on the layer's input (``x' = U1 x``) and ``U2`` on
its output (``y = U2 y'``).  With the input-correlation eigenbasis ``Q1`` and
gradient-correlation eigenbasis ``Q2``, ``U1 = Q1^T`` and ``U2 = Q2``, so both
rotated correlations are diagonal and ``U2 W' U1 = W`` recovers the original
map.
"""

from dataclasses import dataclass

import numpy as np

from .errors import AlignmentError, DimensionError, StateError
from .fim import _fim_pass
from .linalg import jacobi_eigh
# forward and backward are unused here but stay importable: the benchmark's
# tracer wraps them in this module's namespace.
from .network import Network, backward, forward, layout_signature  # noqa: F401


@dataclass
class CorrelationStats:
    """Mean input/gradient self-correlations of the layers a scope selects."""

    input_corr: dict
    grad_corr: dict
    net_signature: str


def _self_correlation(a):
    """Sum of the outer products of ``a``'s last-axis fibres, divided by the
    number of positions per example (1 for a dense layer)."""
    flat = a.reshape(-1, a.shape[-1])
    return flat.T @ flat / (flat.shape[0] // a.shape[0])


def accumulate_correlations(net, inputs, sample_budget, rng, labels=None, *, scope,
                            use_true_labels=False):
    """Mean input and output-gradient self-correlations over ``sample_budget``
    inputs, for each layer ``scope`` selects (``scope_selects``).

    Gradients come from backpropagating the loss under labels drawn from the
    model's own softmax (or the provided ground-truth labels when
    ``use_true_labels`` is set), on ``fim._fim_pass``.  Convolutional
    correlations average channel fibers over all spatial positions.
    """
    if net.is_rotated():
        raise StateError("correlations must be accumulated on an unrotated network")
    ids = scope_selects(net, scope)

    def correlations(cache, deltas):
        """One unit's input and output-gradient correlations per layer."""
        return [(_self_correlation(cache.inputs[i]),
                 # undo the batch-mean scaling
                 _self_correlation(deltas[i] * len(deltas[i]))) for i in ids]

    cx = dict.fromkeys(ids, 0.0)
    cz = dict.fromkeys(ids, 0.0)
    source = "true" if use_true_labels else "sampled"
    for terms in _fim_pass(net, inputs, sample_budget, source, rng, labels, correlations):
        for i, (x, z) in zip(ids, terms):
            cx[i] += x
            cz[i] += z
    return CorrelationStats({i: c / sample_budget for i, c in cx.items()},
                            {i: c / sample_budget for i, c in cz.items()},
                            layout_signature(net))


SCOPES = ("conv_only", "fc_only", "all_no_last")


def scope_selects(net, scope):
    """The scope's layers; never the classification head, which keeps growing."""
    ids = [i for i, l in enumerate(net.layers) if l.trainable and i != net.head_index]
    if scope == "conv_only":
        return [i for i in ids if net.layers[i].kind == "conv2d"]
    if scope == "fc_only":
        return [i for i in ids if net.layers[i].kind == "dense"]
    if scope == "all_no_last":
        return ids
    raise ValueError(f"scope must be one of {SCOPES}, got {scope!r}")


def rotation_matrices(stats, layer_index):
    """Eigenbasis rotation matrices (U1, U2) for one layer's correlations."""
    cx = stats.input_corr[layer_index]
    cz = stats.grad_corr[layer_index]
    if not (np.all(np.isfinite(cx)) and np.all(np.isfinite(cz))):
        raise DimensionError(f"non-finite correlations at layer {layer_index}")
    e1 = jacobi_eigh(cx)
    e2 = jacobi_eigh(cz)
    return e1.U.T.copy(), e2.U.copy()


def rotate_network(net, stats):
    """Give each layer the stats hold the rotation of its correlations.

    Returns the rotated network: the same layer list, each rotated layer's
    weight in rotated coordinates and its bias outside the output rotation,
    so the forward function is preserved up to roundoff.  Stats that hold
    the classification head are refused: it grows between tasks, and a
    rotated head cannot grow.
    """
    if net.is_rotated():
        raise StateError("network is already rotated; combine it first")
    if stats.net_signature != layout_signature(net):
        raise AlignmentError("correlation stats were computed on a different network")
    if net.head_index in stats.input_corr:
        raise AlignmentError(f"correlation stats hold the head, layer {net.head_index}, "
                             "which grows between tasks and so is never rotated")
    layers = [l.rotated_by(*rotation_matrices(stats, i)) if i in stats.input_corr else l.clone()
              for i, l in enumerate(net.layers)]
    return Network(layers, net.rng_seed, net.input_shape)


def combine_network(net):
    """Fold each layer's rotation back into its weights (inverse of rotate)."""
    layers = [l.folded() if l.trainable else l.clone() for l in net.layers]
    return Network(layers, net.rng_seed, net.input_shape)
