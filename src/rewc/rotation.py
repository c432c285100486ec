"""Layer-space rotations that make diagonal curvature estimates more faithful.

For each rotatable layer we accumulate the self-correlation of its inputs and
of the backpropagated gradients at its (pre-activation) output: the two
Kronecker factors of the layer's Fisher.  They are read from the same pass
and label sampler as the Fisher estimators (``fim._fim_pass``), so this
module draws no labels and runs no forward or backward pass of its own.  The
eigenbases of those two correlations give an orthogonal change of coordinates
on each side of the layer; applied as frozen sandwich layers they leave the
forward function untouched while decorrelating the factors that drive the
layer's curvature.

Conventions: ``U1`` is the matrix the input-side fixed layer applies
(``x' = U1 x``) and ``U2`` the output-side one (``y = U2 y'``).  With the
input-correlation eigenbasis ``Q1`` and gradient-correlation eigenbasis
``Q2``, ``U1 = Q1^T`` and ``U2 = Q2``, so both rotated correlations are
diagonal and ``U2 W' U1 = W`` recovers the original map.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import AlignmentError, DimensionError, StateError
from .fim import _fim_pass
from .layers import Bias, Conv2D, Dense, FixedConv1x1, FixedDense, is_fixed
from .linalg import jacobi_eigh
# forward and backward are unused here but stay importable: the benchmark's
# tracer wraps them in this module's namespace.
from .network import Network, backward, forward, layout_signature  # noqa: F401
from .util import rng_for

ORTHOGONALITY_ATOL = 1e-8


class RotationScope(Enum):
    CONV_ONLY = "conv_only"
    FC_ONLY = "fc_only"
    ALL = "all"
    ALL_NO_LAST = "all_no_last"


@dataclass
class RotationPair:
    """Frozen sandwich matrices around one trainable layer.

    ``layer_index`` addresses the sandwiched (trainable) layer in the rotated
    network's layer list.
    """

    layer_index: int
    U1: np.ndarray
    U2: np.ndarray

    def __post_init__(self):
        for name, u in (("U1", self.U1), ("U2", self.U2)):
            err = np.max(np.abs(u.T @ u - np.eye(u.shape[0])))
            if err > ORTHOGONALITY_ATOL:
                raise DimensionError(f"{name} is not orthogonal (deviation {err:.2e})")


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
    if net.has_fixed_layers():
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


def rotated_layer_map(net, scope, rotate_head=True):
    """Positions of each (unrotated) layer after the sandwiches are inserted.

    Selected layers map to their sandwich's middle slot.  Must be called on
    the plain network that ``rotate_network`` will receive.
    """
    if isinstance(scope, str):
        scope = RotationScope(scope)
    selected = set(_scope_selects(net, scope, rotate_head))
    mapping = {}
    offset = 0
    for i, layer in enumerate(net.layers):
        if i in selected:
            mapping[i] = i + offset + 1
            offset += 2 + (1 if layer.b is not None else 0)
        else:
            mapping[i] = i + offset
    return mapping


def rotation_matrices(stats, layer_index):
    """Eigenbasis sandwich matrices (U1, U2) for one layer's correlations."""
    cx = stats.input_corr[layer_index] / stats.count
    cz = stats.grad_corr[layer_index] / stats.count
    if not (np.all(np.isfinite(cx)) and np.all(np.isfinite(cz))):
        raise DimensionError(f"non-finite correlations at layer {layer_index}")
    e1 = jacobi_eigh(0.5 * (cx + cx.T))
    e2 = jacobi_eigh(0.5 * (cz + cz.T))
    return e1.U.T.copy(), e2.U.copy()


def rotate_conv_kernel(K, U1, U2):
    """Rotate every spatial slice of a kernel by the sandwich matrices.

    Slices are stored input-major ``(d1, d2)``; in operator orientation the
    per-slice map becomes ``U2^T M U1^T``, matching the dense weight rule.
    """
    K = np.asarray(K, dtype=np.float64)
    if K.ndim != 4:
        raise DimensionError("kernel must be 4-D")
    d1, d2 = K.shape[2], K.shape[3]
    if U1.shape != (d1, d1) or U2.shape != (d2, d2):
        raise DimensionError(
            f"rotation dims {U1.shape}/{U2.shape} do not match kernel channels {d1}/{d2}"
        )
    return np.einsum("ij,abjk,kl->abil", U1, K, U2)


def rotate_network(net, stats, scope, rotate_head=True):
    """Wrap selected layers in frozen rotation sandwiches.

    The forward function is preserved exactly (up to roundoff); biases are
    detached and re-applied outside the output-side rotation.  Returns the
    rotated network and its rotation pairs.  ``rotate_head=False`` keeps the
    classification head untouched under every scope, which the incremental
    trainer relies on because the head keeps growing.
    """
    if net.has_fixed_layers():
        raise StateError("network is already rotated; combine it first")
    if stats.net_signature != layout_signature(net):
        raise AlignmentError("correlation stats were computed on a different network")
    if isinstance(scope, str):
        scope = RotationScope(scope)
    selected = set(_scope_selects(net, scope, rotate_head))

    new_layers = []
    pairs = []
    for i, layer in enumerate(net.layers):
        if i not in selected:
            new_layers.append(layer.clone())
            continue
        u1, u2 = rotation_matrices(stats, i)
        if isinstance(layer, Dense):
            new_layers.append(FixedDense(u1))
            mid = len(new_layers)
            new_layers.append(Dense(u2.T @ layer.W @ u1.T, None))
            new_layers.append(FixedDense(u2))
        else:
            new_layers.append(FixedConv1x1(u1))
            mid = len(new_layers)
            new_layers.append(
                Conv2D(rotate_conv_kernel(layer.K, u1, u2), None, layer.stride, layer.padding)
            )
            new_layers.append(FixedConv1x1(u2))
        if layer.b is not None:
            new_layers.append(Bias(layer.b.copy()))
        pairs.append(RotationPair(layer_index=mid, U1=u1, U2=u2))

    rotated = Network(
        new_layers, net.head_classes, net.rng_seed, net.input_shape, rotation_pairs=pairs
    )
    return rotated, pairs


def combine_network(net, pairs):
    """Fuse rotation sandwiches back into plain layers (inverse of rotate)."""
    if not pairs:
        return net.clone()
    by_mid = {p.layer_index: p for p in pairs}
    new_layers = []
    i = 0
    layers = net.layers
    while i < len(layers):
        pair = by_mid.get(i + 1)
        if pair is None:
            if is_fixed(layers[i]):
                raise StateError(f"fixed layer at {i} is not covered by any rotation pair")
            new_layers.append(layers[i].clone())
            i += 1
            continue
        wrap_in, mid, wrap_out = layers[i], layers[i + 1], layers[i + 2]
        _check_sandwich(wrap_in, mid, wrap_out, pair)
        bias = None
        consumed = 3
        if i + 3 < len(layers) and isinstance(layers[i + 3], Bias):
            bias = layers[i + 3].b.copy()
            consumed = 4
        if isinstance(mid, Dense):
            new_layers.append(Dense(pair.U2 @ mid.W @ pair.U1, bias))
        else:
            k = rotate_conv_kernel(mid.K, pair.U1.T, pair.U2.T)
            new_layers.append(Conv2D(k, bias, mid.stride, mid.padding))
        i += consumed

    return Network(new_layers, net.head_classes, net.rng_seed, net.input_shape)


def _check_sandwich(wrap_in, mid, wrap_out, pair):
    if isinstance(mid, Dense):
        ok = isinstance(wrap_in, FixedDense) and isinstance(wrap_out, FixedDense)
    elif isinstance(mid, Conv2D):
        ok = isinstance(wrap_in, FixedConv1x1) and isinstance(wrap_out, FixedConv1x1)
    else:
        ok = False
    if not ok:
        raise StateError(f"malformed rotation sandwich around layer {pair.layer_index}")
    if not np.array_equal(wrap_in.U, pair.U1) or not np.array_equal(wrap_out.U, pair.U2):
        raise StateError(f"sandwich matrices at layer {pair.layer_index} do not match the pair")
    if mid.b is not None:
        raise StateError("sandwiched layer must not carry its own bias")
