"""Layer-space rotations that make diagonal curvature estimates more faithful.

For each rotatable layer we accumulate the self-correlation of its inputs and
of the backpropagated gradients at its (pre-activation) output: the two
Kronecker factors of the layer's Fisher.  They are read from the same pass
and label sampler as the Fisher estimators (``fim._fim_pass``), so this
module draws no labels and runs no forward or backward pass of its own.  The
eigenbases of those two correlations give an orthogonal change of coordinates
on each side of the layer.  Each rotated layer carries its rotation
``(U1, U2)`` as part of its state (``rewc.layers``): the forward function is
untouched while the weight's coordinates decorrelate the factors that drive
the layer's curvature.

Conventions: ``U1`` acts on the layer's input (``x' = U1 x``) and ``U2`` on
its output (``y = U2 y'``).  With the input-correlation eigenbasis ``Q1`` and
gradient-correlation eigenbasis ``Q2``, ``U1 = Q1^T`` and ``U2 = Q2``, so both
rotated correlations are diagonal and ``U2 W' U1 = W`` recovers the original
map.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import AlignmentError, DimensionError, StateError
from .fim import _fim_pass
from .layers import Conv2D, Dense, rotate_conv_kernel
from .linalg import jacobi_eigh
# forward and backward are unused here but stay importable: the benchmark's
# tracer wraps them in this module's namespace.
from .network import Network, backward, forward, layout_signature  # noqa: F401
from .util import rng_for


class RotationScope(Enum):
    CONV_ONLY = "conv_only"
    FC_ONLY = "fc_only"
    ALL = "all"
    ALL_NO_LAST = "all_no_last"


@dataclass
class CorrelationStats:
    """Summed input/gradient self-correlations per rotatable layer."""

    input_corr: dict
    grad_corr: dict
    count: int
    net_signature: str


def rotatable_indices(net):
    return [i for i, l in enumerate(net.layers) if isinstance(l, (Dense, Conv2D))]


def _self_correlation(a):
    """Sum of the outer products of ``a``'s last-axis fibres, divided by the
    number of positions per example (1 for a dense layer)."""
    flat = a.reshape(-1, a.shape[-1])
    return flat.T @ flat / (flat.shape[0] // a.shape[0])


def accumulate_correlations(net, inputs, sample_budget=200, rng=None, labels=None,
                            use_true_labels=False):
    """Input and output-gradient self-correlations for every rotatable layer.

    Gradients come from backpropagating the loss under labels drawn from the
    model's own softmax (or the provided ground-truth labels when
    ``use_true_labels`` is set), on ``fim._fim_pass``.  Convolutional
    correlations average channel fibers over all spatial positions.
    """
    if net.is_rotated():
        raise StateError("correlations must be accumulated on an unrotated network")
    rng = rng if rng is not None else rng_for(net.rng_seed, "rotate")
    ids = rotatable_indices(net)
    cx = dict.fromkeys(ids, 0.0)
    cz = dict.fromkeys(ids, 0.0)
    for _, w, gset in _fim_pass(net, inputs, sample_budget, "sampled", rng, labels,
                                true_labels=use_true_labels):
        for i in ids:
            cx[i] += _self_correlation(gset.layer_inputs[i])
            # undo the batch-mean scaling
            cz[i] += _self_correlation(gset.layer_output_grads[i] * len(w))
    return CorrelationStats(cx, cz, sample_budget, layout_signature(net))


def _scope_selects(net, scope, rotate_head):
    ids = rotatable_indices(net)
    head = net.head_index
    if scope == RotationScope.CONV_ONLY:
        sel = [i for i in ids if isinstance(net.layers[i], Conv2D)]
    elif scope == RotationScope.FC_ONLY:
        sel = [i for i in ids if isinstance(net.layers[i], Dense)]
    elif scope == RotationScope.ALL:
        sel = list(ids)
    elif scope == RotationScope.ALL_NO_LAST:
        sel = [i for i in ids if i != head]
    else:
        raise ValueError(f"unknown rotation scope {scope!r}")
    if not rotate_head:
        sel = [i for i in sel if i != head]
    return sel


def rotation_matrices(stats, layer_index):
    """Eigenbasis sandwich matrices (U1, U2) for one layer's correlations."""
    cx = stats.input_corr[layer_index] / stats.count
    cz = stats.grad_corr[layer_index] / stats.count
    if not (np.all(np.isfinite(cx)) and np.all(np.isfinite(cz))):
        raise DimensionError(f"non-finite correlations at layer {layer_index}")
    e1 = jacobi_eigh(0.5 * (cx + cx.T))
    e2 = jacobi_eigh(0.5 * (cz + cz.T))
    return e1.U.T.copy(), e2.U.copy()


def rotate_network(net, stats, scope, rotate_head=True):
    """Give each selected layer the rotation of its correlations.

    Returns the rotated network: the same layer list, each selected layer's
    weight in rotated coordinates and its bias outside the output rotation,
    so the forward function is preserved up to roundoff.
    ``rotate_head=False`` keeps the classification head untouched under
    every scope, which the incremental trainer relies on because the head
    keeps growing.
    """
    if net.is_rotated():
        raise StateError("network is already rotated; combine it first")
    if stats.net_signature != layout_signature(net):
        raise AlignmentError("correlation stats were computed on a different network")
    if isinstance(scope, str):
        scope = RotationScope(scope)
    selected = set(_scope_selects(net, scope, rotate_head))

    layers = []
    for i, layer in enumerate(net.layers):
        if i not in selected:
            layers.append(layer.clone())
            continue
        u1, u2 = rotation_matrices(stats, i)
        b = None if layer.b is None else layer.b.copy()
        if isinstance(layer, Dense):
            layers.append(Dense(u2.T @ layer.W @ u1.T, b, u1, u2))
        else:
            layers.append(Conv2D(rotate_conv_kernel(layer.K, u1, u2), b, layer.stride,
                                 layer.padding, u1, u2))
    return Network(layers, net.head_classes, net.rng_seed, net.input_shape)


def combine_network(net):
    """Fold each layer's rotation back into its weights (inverse of rotate)."""
    layers = []
    for layer in net.layers:
        if not layer.rotated:
            layers.append(layer.clone())
            continue
        b = None if layer.b is None else layer.b.copy()
        if isinstance(layer, Dense):
            layers.append(Dense(layer.U2 @ layer.W @ layer.U1, b))
        else:
            layers.append(Conv2D(layer.kernel(), b, layer.stride, layer.padding))
    return Network(layers, net.head_classes, net.rng_seed, net.input_shape)
