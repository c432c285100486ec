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
im2col matrix, a rotated dense layer's rotated input.  ``backward`` must be
given that ``aux``.  A ReLU's backward needs nothing else, so a network's
forward cache does not keep its input.
``backward`` returns ``(grad_in, param_grads)`` with ``param_grads`` keyed
like ``params()``, or ``None`` for parameter-free layers and when called
with ``need_param_grads=False``; ``grad_in`` is ``None`` when called with
``need_input_grad=False``.

Every dense and conv layer has a bias.  A convolution moves its kernel one
pixel at a time over the unpadded input, and mean pooling averages 2x2
windows: the only layers that ``network.build_network`` builds.

A dense or conv layer may carry a rotation ``(U1, U2)``: two orthogonal
matrices that reparameterize its weight, so that the layer computes
``U2 W U1`` (per kernel slice for a convolution) plus its bias, which stays
outside ``U2``.  Its ``weight`` (``W`` or ``K``, keyed ``weight_name`` in
``params()``) is then in rotated coordinates, the parameter the optimizer
and the Fisher see.  The layer keeps the SHA-256 of the rotation's bytes,
``rotation_digest``, so that a network's layout tells rotations apart.
Each kind defines those coordinates once
(``Dense.weight_grad_factors``, ``Conv2D.weight_grad_rows``) and answers
for itself in them through one set of methods, so that no other module
tests a layer's type:
``rotated_by(U1, U2)`` gives a plain layer in those coordinates and
``folded()`` the plain layer that computes the same function;
``example_grads(x, grad_out, aux)`` gives per-example gradients and
``fisher_terms(x, grad_out, aux, w)`` their ``w``-weighted squares summed
over the examples, each keyed like ``params()``, from the output gradient
of a batch-mean loss (example ``k``'s is ``n`` times its row).
"""

import copy
import hashlib

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DimensionError

ORTHOGONALITY_ATOL = 1e-8


class Layer:
    kind = "base"
    trainable = False
    rotated = False
    prepares = False  # whether prepare does any work
    keeps_input = True  # whether the forward cache keeps the input for backward
    weight_name = None  # a trainable layer's weight's key in params()

    def forward_cached(self, x):
        """The output and whatever intermediate the backward pass reuses."""
        return self.forward_prepared(self.prepare(x))

    def prepare(self, x):
        """The input-only work of the forward pass; none by default."""
        return x

    def forward_prepared(self, prepared):
        """``forward_cached(x)`` from ``prepare(x)``: the layer's one forward."""
        raise NotImplementedError

    def backward(self, x, grad_out, aux=None, need_input_grad=True, need_param_grads=True):
        raise NotImplementedError

    def params(self):
        return {}

    @property
    def weight(self):
        return self.params()[self.weight_name]

    def out_shape(self, in_shape):
        raise NotImplementedError

    def clone(self):
        """A copy that shares no array with this layer."""
        new = copy.copy(self)
        for name, value in vars(self).items():
            if isinstance(value, np.ndarray):
                setattr(new, name, value.copy())
        return new


def _rotation(U1, U2, d_in, d_out):
    """The checked rotation ``(U1, U2)`` of a layer and the SHA-256 of its
    bytes, or ``(None, None, None)``."""
    if U1 is None and U2 is None:
        return None, None, None
    if U1 is None or U2 is None:
        raise DimensionError("a rotation needs both U1 and U2")
    out, digest = [], hashlib.sha256()
    for name, u, d in (("U1", U1, d_in), ("U2", U2, d_out)):
        u = np.asarray(u, dtype=np.float64)
        if u.shape != (d, d):
            raise DimensionError(f"{name} must be {d}x{d}, got {u.shape}")
        err = np.max(np.abs(u.T @ u - np.eye(d)))
        if err > ORTHOGONALITY_ATOL:
            raise DimensionError(f"{name} is not orthogonal (deviation {err:.2e})")
        out.append(u)
        digest.update(u.tobytes())
    return out[0], out[1], digest.hexdigest()


def rotate_conv_kernel(K, U1, U2):
    """Rotate every spatial slice of a kernel by the rotation matrices.

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
    return ((U1 @ K.reshape(-1, d1, d2)).reshape(-1, d2) @ U2).reshape(K.shape)


class Dense(Layer):
    """``y = x W^T + b``; rotated, ``y = ((x U1^T) W^T) U2^T + b``, three GEMMs
    with ``x U1^T`` kept for the backward pass and the Fisher."""

    kind = "dense"
    trainable = True
    weight_name = "W"

    def __init__(self, W, b, U1=None, U2=None):
        self.W = np.asarray(W, dtype=np.float64)
        self.b = np.asarray(b, dtype=np.float64)
        if self.W.ndim != 2 or 0 in self.W.shape:
            raise DimensionError(f"dense weight must be 2-D and non-empty, got {self.W.shape}")
        if self.b.shape != (self.W.shape[0],):
            raise DimensionError("dense bias length must equal output width")
        self.U1, self.U2, self.rotation_digest = _rotation(U1, U2, self.W.shape[1], self.W.shape[0])

    @property
    def rotated(self):
        return self.U1 is not None

    def rotated_by(self, U1, U2):
        """This plain layer with its weight in the coordinates of ``(U1, U2)``."""
        return Dense(U2.T @ self.W @ U1.T, self.b.copy(), U1, U2)

    def folded(self):
        return Dense(self.U2 @ self.W @ self.U1, self.b.copy()) if self.rotated else self.clone()

    def forward_prepared(self, x):
        if self.rotated:
            h = x @ self.U1.T
            y = (h @ self.W.T) @ self.U2.T
        else:
            h, y = None, x @ self.W.T
        return y + self.b, h

    def weight_grad_factors(self, x, grad_out, aux):
        """The input and output gradient in the weight's coordinates, so that
        ``g^T x`` is the weight gradient and ``g[k] x[k]^T`` example ``k``'s:
        rotated, the forward's cached ``x U1^T`` and ``grad_out U2``."""
        if self.rotated:
            return aux, grad_out @ self.U2
        return x, grad_out

    def backward(self, x, grad_out, aux=None, need_input_grad=True, need_param_grads=True):
        x, g = self.weight_grad_factors(x, grad_out, aux)
        grads = {"W": g.T @ x, "b": grad_out.sum(axis=0)} if need_param_grads else None
        if not need_input_grad:
            return None, grads
        gx = g @ self.W
        return (gx @ self.U1 if self.rotated else gx), grads

    def example_grads(self, x, grad_out, aux):
        n = len(grad_out)
        x, g = self.weight_grad_factors(x, grad_out, aux)
        return {"W": (g * n)[:, :, None] * x[:, None, :], "b": grad_out * n}

    def fisher_terms(self, x, grad_out, aux, w):
        """Factored as ``(w g^2)^T x^2``: no per-example gradient is formed."""
        x, g = self.weight_grad_factors(x, grad_out, aux)
        g = g * len(w)  # undo the batch-mean scaling
        gb = grad_out * len(w)
        return {"W": (w[:, None] * g * g).T @ (x * x), "b": w @ (gb * gb)}

    def params(self):
        return {"W": self.W, "b": self.b}

    def out_shape(self, in_shape):
        if len(in_shape) != 1 or in_shape[0] != self.W.shape[1]:
            raise DimensionError(
                f"dense layer expects flat input of width {self.W.shape[1]}, got {in_shape}"
            )
        return (self.W.shape[0],)


class Conv2D(Layer):
    """Convolution by im2col; rotated, every pass runs one convolution with
    the kernel ``rotate_conv_kernel(K, U1^T, U2^T)`` and maps the kernel
    gradient back with ``weight_grad_rows``."""

    kind = "conv2d"
    trainable = True
    weight_name = "K"
    prepares = True

    def __init__(self, K, b, U1=None, U2=None):
        self.K = np.asarray(K, dtype=np.float64)
        if self.K.ndim != 4 or 0 in self.K.shape:
            raise DimensionError(f"conv kernel must be 4-D and non-empty, got {self.K.shape}")
        self.b = np.asarray(b, dtype=np.float64)
        if self.b.shape != (self.K.shape[3],):
            raise DimensionError("conv bias length must equal out-channel count")
        self.U1, self.U2, self.rotation_digest = _rotation(U1, U2, self.K.shape[2], self.K.shape[3])

    @property
    def rotated(self):
        return self.U1 is not None

    def rotated_by(self, U1, U2):
        """This plain layer with its kernel in the coordinates of ``(U1, U2)``."""
        return Conv2D(rotate_conv_kernel(self.K, U1, U2), self.b.copy(), U1, U2)

    def folded(self):
        return Conv2D(self.kernel(), self.b.copy()) if self.rotated else self.clone()

    def kernel(self):
        """The kernel in plain coordinates, the one every pass convolves with."""
        return rotate_conv_kernel(self.K, self.U1.T, self.U2.T) if self.rotated else self.K

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

    def backward(self, x, grad_out, aux=None, need_input_grad=True, need_param_grads=True):
        patches, K = aux
        kh, kw, d1, d2 = K.shape
        g2d = grad_out.reshape(-1, d2)
        grads = None
        if need_param_grads:
            # (G^T P)^T lets BLAS read both operands in place; a tensordot
            # over the patches would first copy them transposed.  Its last row,
            # from the patches' ones column, is the bias gradient.
            grads = self._split(self.weight_grad_rows(
                (g2d.T @ patches.reshape(-1, patches.shape[3])).T))
        if not need_input_grad:
            return None, grads
        n, h2, w2 = grad_out.shape[:3]
        # One contiguous copy of the transposed kernel slices instead of a
        # strided K[a, b].T operand in every GEMM.
        Kt = np.ascontiguousarray(K.transpose(0, 1, 3, 2))
        gx = np.zeros_like(x)
        for a in range(kh):
            for b_ in range(kw):
                gx[:, a : a + h2, b_ : b_ + w2, :] += (g2d @ Kt[a, b_]).reshape(n, h2, w2, d1)
        return gx, grads

    def weight_grad_rows(self, gM):
        """Kernel-gradient rows ``[gK; gb]``, ``(..., kh*kw*d_in + 1, d_out)``,
        one gradient or a stack of per-example ones, in the kernel's
        coordinates: rotated, the kernel rows are mapped in place through
        ``rotate_conv_kernel(., U1, U2)``; the bias row stays as it is."""
        if self.rotated:
            rows = gM[..., :-1, :]
            stacked = rows.reshape((-1,) + self.K.shape[1:])  # kernels stacked on the kh axis
            rows[...] = rotate_conv_kernel(stacked, self.U1, self.U2).reshape(rows.shape)
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

    def example_grads(self, x, grad_out, aux):
        return self._split(self._example_rows(grad_out, aux))

    def fisher_terms(self, x, grad_out, aux, w):
        ge = self._example_rows(grad_out, aux)
        return self._split(np.tensordot(w, ge * ge, axes=1))

    def params(self):
        return {"K": self.K, "b": self.b}

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

    def backward(self, x, grad_out, aux=None, need_input_grad=True, need_param_grads=True):
        return grad_out * aux, None

    def out_shape(self, in_shape):
        return in_shape


class Flatten(Layer):
    kind = "flatten"

    def forward_prepared(self, x):
        return x.reshape(x.shape[0], -1), None

    def backward(self, x, grad_out, aux=None, need_input_grad=True, need_param_grads=True):
        return grad_out.reshape(x.shape), None

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

    def backward(self, x, grad_out, aux=None, need_input_grad=True, need_param_grads=True):
        s = self.size
        n, h, w, c = grad_out.shape
        g = np.empty((n, h, s, w, s, c))
        g[...] = (grad_out / (s * s))[:, :, None, :, None, :]
        return g.reshape(n, h * s, w * s, c), None

    def out_shape(self, in_shape):
        h, w, c = in_shape
        s = self.size
        if h % s or w % s:
            raise DimensionError(f"pool size {s} does not divide input {in_shape}")
        return (h // s, w // s, c)
