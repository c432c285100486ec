"""Layer zoo for the sequential network engine.

All arrays are float64.  Images are channels-last ``(N, H, W, C)``; conv
kernels are ``(kh, kw, d_in, d_out)``.  Dense weights are ``(d_out, d_in)``
so that ``y = W x`` for a single column vector ``x``.

Each layer implements one forward, ``forward_prepared(prepare(x))``, and
``backward(x, grad_out, aux)`` where ``x`` is the cached layer input from
the matching forward pass.  ``prepare(x)`` is the part of a forward pass
that reads the input alone, never the weights; a layer that has such work
sets ``prepares`` (today only ``Conv2D``: its im2col), so that training can
build a batch's first-layer input while the step before it runs.
``forward_cached(x)`` composes the two.  The forward returns the output and
what the backward pass reads, its ``aux``: a ReLU's mask, a conv layer's
im2col matrix, a dense layer's input (the array itself), or ``x U1^T`` when
rotated.  ``backward`` must be given that ``aux``.  A ReLU's backward needs
nothing else, so a network's forward cache does not keep its input.
``backward`` returns the input gradient alone, or ``None`` from a weighted
layer told ``need_input_grad=False``.

Every dense and conv layer has a bias.  A convolution moves its kernel one
pixel at a time over the unpadded input, and mean pooling averages 2x2
windows: the only layers that ``network.build_network`` builds.

A dense or conv layer, a ``WeightedLayer``, may carry a rotation
``(U1, U2)``: two orthogonal matrices that reparameterize its weight, so
that the layer computes ``U2 W U1`` (per kernel slice for a convolution)
plus its bias, which stays outside ``U2``.  Its ``weight`` (``W`` or ``K``,
keyed ``weight_name`` in ``params()``) is then in rotated coordinates, the
parameter the optimizer and the Fisher see.  The layer keeps the SHA-256 of
the rotation's bytes, ``rotation_digest``, so that a network's layout tells
rotations apart.  ``WeightedLayer`` holds the one constructor, which takes
only a finite orthogonal rotation of the layer's sizes, and builds
``rotated_by(U1, U2)`` (a plain layer in those coordinates) and ``folded()``
(the plain layer that computes the same function) on each kind's one rule,
``rotate(weight, A, B)``.  Each kind maps its gradients into the coordinates
once (``Dense.weight_grad_factors``, ``Conv2D.weight_grad_rows``) and
answers for itself in them, so that no other module tests a layer's type:
``param_grads``, ``example_grads`` and ``fisher_terms(grad_out, aux)``,
the gradient, the per-example gradients and their summed squares, are three
reductions of one record, the output gradient of a batch-mean loss (example
``k``'s is ``n`` times its row), and of the ``aux``, all they read of the
input; each is keyed like ``params()``.  The Fisher's sums over the examples
are each one BLAS product with a ones vector, not ``sum(axis=0)``: that
fixes the order in which they round, which the sampled Fisher's bits depend
on.
"""

import copy
import hashlib

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DimensionError, StateError

ORTHOGONALITY_ATOL = 1e-8


class Layer:
    kind = "base"
    trainable = False
    rotated = False
    prepares = False  # whether prepare does any work
    keeps_input = True  # whether the forward cache keeps the input for backward

    def forward_cached(self, x):
        """The output and whatever intermediate the backward pass reuses."""
        return self.forward_prepared(self.prepare(x))

    def prepare(self, x):
        """The input-only work of the forward pass; none by default."""
        return x

    def forward_prepared(self, prepared):
        """``forward_cached(x)`` from ``prepare(x)``: the layer's one forward."""
        raise NotImplementedError

    def backward(self, x, grad_out, aux=None, need_input_grad=True):
        raise NotImplementedError

    def params(self):
        return {}

    def out_shape(self, in_shape):
        raise NotImplementedError

    def clone(self):
        """A copy that shares no array with this layer."""
        new = copy.copy(self)
        for name, value in vars(self).items():
            if isinstance(value, np.ndarray):
                setattr(new, name, value.copy())
        return new


def _square(u, d, name):
    u = np.asarray(u, dtype=np.float64)
    if u.shape != (d, d):
        raise DimensionError(f"{name} must be {d}x{d}, got {u.shape}")
    return u


def _rotation(U1, U2, d_in, d_out):
    """The checked rotation ``(U1, U2)`` of a layer and the SHA-256 of its
    bytes, or ``(None, None, None)``."""
    if U1 is None and U2 is None:
        return None, None, None
    if U1 is None or U2 is None:
        raise DimensionError("a rotation needs both U1 and U2")
    out, digest = [], hashlib.sha256()
    for name, u, d in (("U1", U1, d_in), ("U2", U2, d_out)):
        u = _square(u, d, name)
        # An orthogonal matrix's entries lie in [-1, 1]; inf and NaN fail this.
        if not np.all(np.abs(u) <= 1 + ORTHOGONALITY_ATOL):
            raise DimensionError(f"{name} is not orthogonal (an entry is not finite or exceeds 1)")
        err = np.max(np.abs(u.T @ u - np.eye(d)))
        if err > ORTHOGONALITY_ATOL:
            raise DimensionError(f"{name} is not orthogonal (deviation {err:.2e})")
        out.append(u)
        digest.update(u.tobytes())
    return out[0], out[1], digest.hexdigest()


class WeightedLayer(Layer):
    """A layer with a weight, a bias and an optional rotation ``(U1, U2)``.

    Each kind sets ``weight_name``, ``weight_ndim``, ``io_dims(shape)`` (the
    sizes of ``U1`` and ``U2``) and ``rotate(weight, A, B)``, the weight in
    the coordinates of ``(A, B)``; ``rotate(W, U1.T, U2.T)`` folds it back."""

    trainable = True

    def __init__(self, weight, b, U1=None, U2=None):
        weight = np.asarray(weight, dtype=np.float64)
        if weight.ndim != self.weight_ndim or 0 in weight.shape:
            raise DimensionError(f"{self.kind} weight must be {self.weight_ndim}-D and "
                                 f"non-empty, got {weight.shape}")
        setattr(self, self.weight_name, weight)
        d_in, d_out = self.io_dims(weight.shape)
        self.b = np.asarray(b, dtype=np.float64)
        if self.b.shape != (d_out,):
            raise DimensionError(f"{self.kind} bias length must equal its output width {d_out}")
        self.U1, self.U2, self.rotation_digest = _rotation(U1, U2, d_in, d_out)

    @property
    def rotated(self):
        return self.U1 is not None

    @property
    def weight(self):
        return getattr(self, self.weight_name)

    def params(self):
        return {self.weight_name: self.weight, "b": self.b}

    def rotated_by(self, U1, U2):
        """This plain layer with its weight in the coordinates of ``(U1, U2)``."""
        if self.rotated:
            raise StateError(f"this {self.kind} layer is already rotated; fold it first")
        d_in, d_out = self.io_dims(self.weight.shape)
        U1, U2 = _square(U1, d_in, "U1"), _square(U2, d_out, "U2")
        return type(self)(self.rotate(self.weight, U1, U2), self.b.copy(), U1, U2)

    def folded(self):
        """The plain layer that computes this layer's function."""
        if not self.rotated:
            return self.clone()
        return type(self)(self.rotate(self.weight, self.U1.T, self.U2.T), self.b.copy())


class Dense(WeightedLayer):
    """``y = x W^T + b``; rotated, ``y = ((x U1^T) W^T) U2^T + b``, three GEMMs
    with ``x U1^T`` kept as the ``aux``, which is ``x`` itself when plain."""

    kind = "dense"
    weight_name = "W"
    weight_ndim = 2

    @staticmethod
    def io_dims(shape):
        return shape[1], shape[0]

    @staticmethod
    def rotate(W, A, B):
        return B.T @ W @ A.T

    def forward_prepared(self, x):
        if self.rotated:
            h = x @ self.U1.T
            return (h @ self.W.T) @ self.U2.T + self.b, h
        return x @ self.W.T + self.b, x

    def weight_grad_factors(self, grad_out, aux):
        """The input and output gradient in the weight's coordinates, so that
        ``g^T x`` is the weight gradient and ``g[k] x[k]^T`` example ``k``'s:
        the ``aux``, and ``grad_out U2`` rotated or ``grad_out`` plain."""
        return aux, grad_out @ self.U2 if self.rotated else grad_out

    def backward(self, x, grad_out, aux=None, need_input_grad=True):
        if not need_input_grad:
            return None
        gx = self.weight_grad_factors(grad_out, aux)[1] @ self.W
        return gx @ self.U1 if self.rotated else gx

    def param_grads(self, grad_out, aux):
        x, g = self.weight_grad_factors(grad_out, aux)
        return {"W": g.T @ x, "b": grad_out.sum(axis=0)}

    def example_grads(self, grad_out, aux):
        n = len(grad_out)
        x, g = self.weight_grad_factors(grad_out, aux)
        return {"W": (g * n)[:, :, None] * x[:, None, :], "b": grad_out * n}

    def fisher_terms(self, grad_out, aux):
        """Factored as ``(g^2)^T x^2``: no per-example gradient is formed."""
        n = len(grad_out)
        x, g = self.weight_grad_factors(grad_out, aux)
        g = g * n  # undo the batch-mean scaling
        gb = grad_out * n
        return {"W": (g * g).T @ (x * x), "b": np.ones(n) @ (gb * gb)}

    def out_shape(self, in_shape):
        if len(in_shape) != 1 or in_shape[0] != self.W.shape[1]:
            raise DimensionError(
                f"dense layer expects flat input of width {self.W.shape[1]}, got {in_shape}"
            )
        return (self.W.shape[0],)


class Conv2D(WeightedLayer):
    """Convolution by im2col; rotated, every pass runs one convolution with
    the plain kernel, ``kernel()``, and maps the kernel gradient back with
    ``weight_grad_rows``."""

    kind = "conv2d"
    weight_name = "K"
    weight_ndim = 4
    prepares = True

    @staticmethod
    def io_dims(shape):
        return shape[2], shape[3]

    @staticmethod
    def rotate(K, A, B):
        """Every ``(d_in, d_out)`` slice ``M`` mapped to ``A M B``: the dense
        rule on slices stored input-major.  ``K`` is any array of such slices
        in C order, a kernel or its gradient rows; ``len(A)`` is ``d_in``."""
        d1, d2 = len(A), len(B)
        return ((A @ K.reshape(-1, d1, d2)).reshape(-1, d2) @ B).reshape(K.shape)

    def kernel(self):
        """The kernel in plain coordinates, the one every pass convolves with."""
        return self.rotate(self.K, self.U1.T, self.U2.T) if self.rotated else self.K

    def prepare(self, x):
        """The im2col matrix ``(N, H2, W2, kh*kw*C + 1)``.

        Its last column is ones, so that one GEMM with ``[K; b]`` gives the
        output and one with the output gradient gives ``[gK; gb]``.
        """
        kh, kw = self.K.shape[:2]
        win = sliding_window_view(x, (kh, kw), axis=(1, 2))
        # (N, H2, W2, C, kh, kw) -> (N, H2, W2, kh, kw, C)
        win = win.transpose(0, 1, 2, 4, 5, 3)
        cols = kh * kw * x.shape[3]
        patches = np.empty(win.shape[:3] + (cols + 1,))
        # Write the windows into the buffer's leading columns in place: a
        # strided column slice handed to matmul would be copied whole.
        np.copyto(np.reshape(patches[..., :cols], win.shape, copy=False), win)
        patches[..., cols] = 1.0
        return patches

    def forward_prepared(self, patches):
        K = self.kernel()
        M = np.concatenate([K.reshape(-1, K.shape[3]), self.b[None]])
        return patches @ M, (patches, K)

    def backward(self, x, grad_out, aux=None, need_input_grad=True):
        if not need_input_grad:
            return None
        K = aux[1]
        kh, kw, d1, d2 = K.shape
        g2d = grad_out.reshape(-1, d2)
        n, h2, w2 = grad_out.shape[:3]
        # One contiguous copy of the transposed kernel slices instead of a
        # strided K[a, b].T operand in every GEMM.
        Kt = np.ascontiguousarray(K.transpose(0, 1, 3, 2))
        gx = np.zeros_like(x)
        for a in range(kh):
            for b_ in range(kw):
                gx[:, a : a + h2, b_ : b_ + w2, :] += (g2d @ Kt[a, b_]).reshape(n, h2, w2, d1)
        return gx

    def param_grads(self, grad_out, aux):
        # (G^T P)^T lets BLAS read both operands in place; a tensordot over
        # the patches would first copy them transposed.  Its last row, from
        # the patches' ones column, is the bias gradient.
        patches = aux[0]
        g2d = grad_out.reshape(-1, grad_out.shape[-1])
        gM = (g2d.T @ patches.reshape(-1, patches.shape[-1])).T
        return self._split(self.weight_grad_rows(gM))

    def weight_grad_rows(self, gM):
        """Kernel-gradient rows ``[gK; gb]``, ``(..., kh*kw*d_in + 1, d_out)``,
        one gradient or a stack of per-example ones, in the kernel's
        coordinates: rotated, the kernel rows are mapped in place through
        ``rotate(., U1, U2)``; the bias row stays as it is."""
        if self.rotated:
            rows = gM[..., :-1, :]
            rows[...] = self.rotate(rows, self.U1, self.U2)
        return gM

    def _split(self, gM):
        """Rows ``[gK; gb]`` keyed like ``params()``."""
        return {"K": gM[..., :-1, :].reshape(gM.shape[:-2] + self.K.shape), "b": gM[..., -1, :]}

    def _example_rows(self, grad_out, aux):
        """Per-example rows ``[gK; gb]``, read from the patches' ones column."""
        patches, n = aux[0], len(grad_out)
        cols = patches.reshape(n, -1, patches.shape[-1])
        g = grad_out * n
        return self.weight_grad_rows(
            np.matmul(cols.transpose(0, 2, 1), g.reshape(n, -1, g.shape[-1])))

    def example_grads(self, grad_out, aux):
        return self._split(self._example_rows(grad_out, aux))

    def fisher_terms(self, grad_out, aux):
        ge = self._example_rows(grad_out, aux)
        return self._split(np.tensordot(np.ones(len(ge)), ge * ge, axes=1))

    def out_shape(self, in_shape):
        if len(in_shape) != 3 or in_shape[2] != self.K.shape[2]:
            raise DimensionError(
                f"conv layer expects (H, W, {self.K.shape[2]}) input, got {in_shape}"
            )
        h = in_shape[0] - self.K.shape[0] + 1
        w = in_shape[1] - self.K.shape[1] + 1
        if h < 1 or w < 1:
            raise DimensionError("conv kernel larger than input")
        return (h, w, self.K.shape[3])


class ReLU(Layer):
    kind = "relu"
    keeps_input = False  # its backward reads the mask from the forward pass

    def forward_prepared(self, x):
        return np.maximum(x, 0.0), x > 0.0

    def backward(self, x, grad_out, aux=None, need_input_grad=True):
        return grad_out * aux

    def out_shape(self, in_shape):
        return in_shape


class Flatten(Layer):
    kind = "flatten"

    def forward_prepared(self, x):
        return x.reshape(x.shape[0], -1), None

    def backward(self, x, grad_out, aux=None, need_input_grad=True):
        return grad_out.reshape(x.shape)

    def out_shape(self, in_shape):
        return (int(np.prod(in_shape)),)


class MeanPool2D(Layer):
    """Non-overlapping mean pooling over 2x2 windows."""

    kind = "meanpool2d"
    size = 2

    def forward_prepared(self, x):
        s = self.size
        acc = x[:, ::s, ::s].copy()
        for a in range(s):
            for b in range(s):
                if a or b:
                    acc += x[:, a::s, b::s]
        return acc / (s * s), None

    def backward(self, x, grad_out, aux=None, need_input_grad=True):
        s = self.size
        n, h, w, c = grad_out.shape
        g = np.empty((n, h, s, w, s, c))
        g[...] = (grad_out / (s * s))[:, :, None, :, None, :]
        return g.reshape(n, h * s, w * s, c)

    def out_shape(self, in_shape):
        if len(in_shape) != 3:
            raise DimensionError(f"pooling expects (H, W, C) input, got {in_shape}")
        h, w, c = in_shape
        s = self.size
        if h % s or w % s:
            raise DimensionError(f"pool size {s} does not divide input {in_shape}")
        return (h // s, w // s, c)
