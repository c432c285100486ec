"""Layer zoo for the sequential network engine.

All arrays are float64.  Images are channels-last ``(N, H, W, C)``; conv
kernels are ``(kh, kw, d_in, d_out)``.  Dense weights are ``(d_out, d_in)``
so that ``y = W x`` for a single column vector ``x``.

Each layer implements ``forward(x)`` and ``backward(x, grad_out)`` where
``x`` is the cached layer input from the matching forward pass.  ``backward``
returns ``(grad_in, param_grads)`` with ``param_grads`` keyed like
``params()``, or ``None`` for parameter-free layers and when called with
``need_param_grads=False``; ``grad_in`` is ``None`` when called with
``need_input_grad=False``.

A dense or conv layer may carry a rotation ``(U1, U2)``: two orthogonal
matrices that reparameterize its weight, so that the layer computes
``U2 W U1`` (per kernel slice for a convolution) plus its bias, which stays
outside ``U2``.  Its ``W`` or ``K`` is then the weight in rotated
coordinates, the parameter the optimizer and the Fisher see.
"""

import copy

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DimensionError

ORTHOGONALITY_ATOL = 1e-8


class Layer:
    kind = "base"
    trainable = False
    rotated = False

    def forward(self, x):
        raise NotImplementedError

    def forward_cached(self, x):
        """Forward plus whatever intermediate the backward pass can reuse."""
        return self.forward(x), None

    def backward(self, x, grad_out, aux=None, need_input_grad=True, need_param_grads=True):
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


def _rotation(U1, U2, d_in, d_out):
    """The checked rotation ``(U1, U2)`` of a layer, or ``(None, None)``."""
    if U1 is None and U2 is None:
        return None, None
    if U1 is None or U2 is None:
        raise DimensionError("a rotation needs both U1 and U2")
    out = []
    for name, u, d in (("U1", U1, d_in), ("U2", U2, d_out)):
        u = np.asarray(u, dtype=np.float64)
        if u.shape != (d, d):
            raise DimensionError(f"{name} must be {d}x{d}, got {u.shape}")
        err = np.max(np.abs(u.T @ u - np.eye(d)))
        if err > ORTHOGONALITY_ATOL:
            raise DimensionError(f"{name} is not orthogonal (deviation {err:.2e})")
        out.append(u)
    return tuple(out)


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

    def __init__(self, W, b=None, U1=None, U2=None):
        self.W = np.asarray(W, dtype=np.float64)
        self.b = None if b is None else np.asarray(b, dtype=np.float64)
        if self.W.ndim != 2:
            raise DimensionError(f"dense weight must be 2-D, got {self.W.shape}")
        if self.b is not None and self.b.shape != (self.W.shape[0],):
            raise DimensionError("dense bias length must equal output width")
        self.U1, self.U2 = _rotation(U1, U2, self.W.shape[1], self.W.shape[0])

    @property
    def rotated(self):
        return self.U1 is not None

    def forward(self, x):
        return self.forward_cached(x)[0]

    def forward_cached(self, x):
        if self.rotated:
            h = x @ self.U1.T
            y = (h @ self.W.T) @ self.U2.T
        else:
            h, y = None, x @ self.W.T
        if self.b is not None:
            y = y + self.b
        return y, h

    def backward(self, x, grad_out, aux=None, need_input_grad=True, need_param_grads=True):
        g = grad_out
        if self.rotated:
            x = aux if aux is not None else x @ self.U1.T
            g = grad_out @ self.U2
        grads = None
        if need_param_grads:
            grads = {"W": g.T @ x}
            if self.b is not None:
                grads["b"] = grad_out.sum(axis=0)
        if not need_input_grad:
            return None, grads
        gx = g @ self.W
        return (gx @ self.U1 if self.rotated else gx), grads

    def params(self):
        p = {"W": self.W}
        if self.b is not None:
            p["b"] = self.b
        return p

    def out_shape(self, in_shape):
        if len(in_shape) != 1 or in_shape[0] != self.W.shape[1]:
            raise DimensionError(
                f"dense layer expects flat input of width {self.W.shape[1]}, got {in_shape}"
            )
        return (self.W.shape[0],)


class Conv2D(Layer):
    """Convolution by im2col; rotated, every pass runs one convolution with
    the kernel ``rotate_conv_kernel(K, U1^T, U2^T)`` and maps the kernel
    gradient back with ``rotate_conv_kernel(gK, U1, U2)``."""

    kind = "conv2d"
    trainable = True

    def __init__(self, K, b=None, stride=1, padding=0, U1=None, U2=None):
        self.K = np.asarray(K, dtype=np.float64)
        if self.K.ndim != 4:
            raise DimensionError(f"conv kernel must be 4-D, got {self.K.shape}")
        self.b = None if b is None else np.asarray(b, dtype=np.float64)
        if self.b is not None and self.b.shape != (self.K.shape[3],):
            raise DimensionError("conv bias length must equal out-channel count")
        self.stride = int(stride)
        self.padding = int(padding)
        if self.stride < 1:
            raise DimensionError(f"conv stride must be at least 1, got {self.stride}")
        if self.padding < 0:
            raise DimensionError(f"conv padding must be non-negative, got {self.padding}")
        self.U1, self.U2 = _rotation(U1, U2, self.K.shape[2], self.K.shape[3])

    @property
    def rotated(self):
        return self.U1 is not None

    def kernel(self):
        """The kernel in plain coordinates, the one every pass convolves with."""
        return rotate_conv_kernel(self.K, self.U1.T, self.U2.T) if self.rotated else self.K

    def _patches(self, x):
        """The im2col matrix ``(N, H2, W2, kh*kw*C)`` and the padded input.

        With a bias the matrix has one more column, of ones, so that one
        GEMM with ``[K; b]`` gives the output and one with the output
        gradient gives ``[gK; gb]``.
        """
        if self.padding:
            p = self.padding
            x = np.pad(x, ((0, 0), (p, p), (p, p), (0, 0)))
        kh, kw = self.K.shape[:2]
        s = self.stride
        win = sliding_window_view(x, (kh, kw), axis=(1, 2))[:, ::s, ::s]
        # (N, H2, W2, C, kh, kw) -> (N, H2, W2, kh, kw, C)
        win = win.transpose(0, 1, 2, 4, 5, 3)
        n, h2, w2 = win.shape[:3]
        if self.b is None:
            return win.reshape(n, h2, w2, -1), x
        cols = kh * kw * x.shape[3]
        patches = np.empty((n, h2, w2, cols + 1))
        # Write the windows into the buffer's leading columns in place: a
        # strided column slice handed to matmul would be copied whole.
        np.copyto(np.reshape(patches[..., :cols], win.shape, copy=False), win)
        patches[..., cols] = 1.0
        return patches, x

    def forward(self, x):
        return self.forward_cached(x)[0]

    def forward_cached(self, x):
        patches, xp = self._patches(x)
        K = self.kernel()
        M = K.reshape(-1, K.shape[3])
        if self.b is not None:
            M = np.concatenate([M, self.b[None]])
        return patches @ M, (patches, xp, K)

    def backward(self, x, grad_out, aux=None, need_input_grad=True, need_param_grads=True):
        patches, xp, K = aux if aux is not None else self._patches(x) + (self.kernel(),)
        kh, kw, d1, d2 = K.shape
        g2d = grad_out.reshape(-1, d2)
        grads = None
        if need_param_grads:
            # (G^T P)^T lets BLAS read both operands in place; a tensordot
            # over the patches would first copy them transposed.  Its last row
            # is the bias gradient when the patches carry the ones column.
            gM = (g2d.T @ patches.reshape(-1, patches.shape[3])).T
            gK = gM[: kh * kw * d1].reshape(K.shape)
            grads = {"K": rotate_conv_kernel(gK, self.U1, self.U2) if self.rotated else gK}
            if self.b is not None:
                grads["b"] = gM[-1]
        if not need_input_grad:
            return None, grads
        s = self.stride
        n, h2, w2 = grad_out.shape[:3]
        # One contiguous copy of the transposed kernel slices instead of a
        # strided K[a, b].T operand in every GEMM.
        Kt = np.ascontiguousarray(K.transpose(0, 1, 3, 2))
        gxp = np.zeros_like(xp)
        for a in range(kh):
            for b_ in range(kw):
                block = (g2d @ Kt[a, b_]).reshape(n, h2, w2, d1)
                gxp[:, a : a + s * h2 : s, b_ : b_ + s * w2 : s, :] += block
        if self.padding:
            p = self.padding
            gxp = gxp[:, p:-p, p:-p, :]
        return gxp, grads

    def params(self):
        p = {"K": self.K}
        if self.b is not None:
            p["b"] = self.b
        return p

    def out_shape(self, in_shape):
        if len(in_shape) != 3 or in_shape[2] != self.K.shape[2]:
            raise DimensionError(
                f"conv layer expects (H, W, {self.K.shape[2]}) input, got {in_shape}"
            )
        kh, kw = self.K.shape[:2]
        h = in_shape[0] + 2 * self.padding - kh
        w = in_shape[1] + 2 * self.padding - kw
        if h < 0 or w < 0:
            raise DimensionError("conv kernel larger than padded input")
        return (h // self.stride + 1, w // self.stride + 1, self.K.shape[3])


class ReLU(Layer):
    kind = "relu"

    def forward(self, x):
        return np.maximum(x, 0.0)

    def backward(self, x, grad_out, aux=None, need_input_grad=True, need_param_grads=True):
        return grad_out * (x > 0.0), None

    def out_shape(self, in_shape):
        return in_shape


class Flatten(Layer):
    kind = "flatten"

    def forward(self, x):
        return x.reshape(x.shape[0], -1)

    def backward(self, x, grad_out, aux=None, need_input_grad=True, need_param_grads=True):
        return grad_out.reshape(x.shape), None

    def out_shape(self, in_shape):
        return (int(np.prod(in_shape)),)


class MeanPool2D(Layer):
    """Non-overlapping mean pooling over square windows."""

    kind = "meanpool2d"

    def __init__(self, size=2):
        self.size = int(size)
        if self.size < 1:
            raise DimensionError(f"pool size must be at least 1, got {self.size}")

    def forward(self, x):
        n, h, w, c = x.shape
        s = self.size
        acc = x[:, ::s, ::s].copy()
        for a in range(s):
            for b in range(s):
                if a or b:
                    acc += x[:, a::s, b::s]
        return acc / (s * s)

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
