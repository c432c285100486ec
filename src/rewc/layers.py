"""Layer zoo for the sequential network engine.

All arrays are float64.  Images are channels-last ``(N, H, W, C)``; conv
kernels are ``(kh, kw, d_in, d_out)``.  Dense weights are ``(d_out, d_in)``
so that ``y = W x`` for a single column vector ``x``.

Each layer implements ``forward(x)`` and ``backward(x, grad_out)`` where
``x`` is the cached layer input from the matching forward pass.  ``backward``
returns ``(grad_in, param_grads)`` with ``param_grads`` keyed like
``params()``, or ``None`` for parameter-free layers.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DimensionError


class Layer:
    kind = "base"
    trainable = False

    def forward(self, x):
        raise NotImplementedError

    def forward_cached(self, x):
        """Forward plus whatever intermediate the backward pass can reuse."""
        return self.forward(x), None

    def backward(self, x, grad_out, aux=None, need_input_grad=True):
        raise NotImplementedError

    def params(self):
        return {}

    def out_shape(self, in_shape):
        raise NotImplementedError

    def clone(self):
        raise NotImplementedError


class Dense(Layer):
    kind = "dense"
    trainable = True

    def __init__(self, W, b=None):
        self.W = np.asarray(W, dtype=np.float64)
        self.b = None if b is None else np.asarray(b, dtype=np.float64)
        if self.W.ndim != 2:
            raise DimensionError(f"dense weight must be 2-D, got {self.W.shape}")
        if self.b is not None and self.b.shape != (self.W.shape[0],):
            raise DimensionError("dense bias length must equal output width")

    def forward(self, x):
        y = x @ self.W.T
        if self.b is not None:
            y = y + self.b
        return y

    def backward(self, x, grad_out, aux=None, need_input_grad=True):
        gW = grad_out.T @ x
        grads = {"W": gW}
        if self.b is not None:
            grads["b"] = grad_out.sum(axis=0)
        return (grad_out @ self.W if need_input_grad else None), grads

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

    def clone(self):
        return Dense(self.W.copy(), None if self.b is None else self.b.copy())


class Conv2D(Layer):
    kind = "conv2d"
    trainable = True

    def __init__(self, K, b=None, stride=1, padding=0):
        self.K = np.asarray(K, dtype=np.float64)
        if self.K.ndim != 4:
            raise DimensionError(f"conv kernel must be 4-D, got {self.K.shape}")
        self.b = None if b is None else np.asarray(b, dtype=np.float64)
        if self.b is not None and self.b.shape != (self.K.shape[3],):
            raise DimensionError("conv bias length must equal out-channel count")
        self.stride = int(stride)
        self.padding = int(padding)

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
        M = self.K.reshape(-1, self.K.shape[3])
        if self.b is not None:
            M = np.concatenate([M, self.b[None]])
        return patches @ M, (patches, xp)

    def backward(self, x, grad_out, aux=None, need_input_grad=True):
        patches, xp = aux if aux is not None else self._patches(x)
        kh, kw, d1, d2 = self.K.shape
        g2d = grad_out.reshape(-1, d2)
        # (G^T P)^T lets BLAS read both operands in place; a tensordot over
        # the patches would first copy them transposed.  Its last row is the
        # bias gradient when the patches carry the ones column.
        gM = (g2d.T @ patches.reshape(-1, patches.shape[3])).T
        grads = {"K": gM[: kh * kw * d1].reshape(self.K.shape)}
        if self.b is not None:
            grads["b"] = gM[-1]
        if not need_input_grad:
            return None, grads
        s = self.stride
        n, h2, w2 = grad_out.shape[:3]
        # One contiguous copy of the transposed kernel slices instead of a
        # strided K[a, b].T operand in every GEMM.
        Kt = np.ascontiguousarray(self.K.transpose(0, 1, 3, 2))
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

    def clone(self):
        return Conv2D(
            self.K.copy(),
            None if self.b is None else self.b.copy(),
            self.stride,
            self.padding,
        )


class ReLU(Layer):
    kind = "relu"

    def forward(self, x):
        return np.maximum(x, 0.0)

    def backward(self, x, grad_out, aux=None, need_input_grad=True):
        return grad_out * (x > 0.0), None

    def out_shape(self, in_shape):
        return in_shape

    def clone(self):
        return ReLU()


class Flatten(Layer):
    kind = "flatten"

    def forward(self, x):
        return x.reshape(x.shape[0], -1)

    def backward(self, x, grad_out, aux=None, need_input_grad=True):
        return grad_out.reshape(x.shape), None

    def out_shape(self, in_shape):
        return (int(np.prod(in_shape)),)

    def clone(self):
        return Flatten()


class MeanPool2D(Layer):
    """Non-overlapping mean pooling over square windows."""

    kind = "meanpool2d"

    def __init__(self, size=2):
        self.size = int(size)

    def forward(self, x):
        n, h, w, c = x.shape
        s = self.size
        acc = x[:, ::s, ::s].copy()
        for a in range(s):
            for b in range(s):
                if a or b:
                    acc += x[:, a::s, b::s]
        return acc / (s * s)

    def backward(self, x, grad_out, aux=None, need_input_grad=True):
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

    def clone(self):
        return MeanPool2D(self.size)


class FixedMatrix(Layer):
    """Frozen square matrix applied along the trailing (feature or channel)
    axis; never touched by the optimizer."""

    def __init__(self, U):
        self.U = np.asarray(U, dtype=np.float64)
        if self.U.ndim != 2 or self.U.shape[0] != self.U.shape[1]:
            raise DimensionError(f"{self.kind} matrix must be square")

    # Both passes multiply on the 2-D ``(-1, d)`` view: one GEMM instead of
    # numpy's stacked N-D matmul over the leading axes.
    def forward(self, x):
        d = self.U.shape[0]
        return (x.reshape(-1, d) @ self.U.T).reshape(x.shape)

    def backward(self, x, grad_out, aux=None, need_input_grad=True):
        d = self.U.shape[0]
        return (grad_out.reshape(-1, d) @ self.U).reshape(grad_out.shape), None

    def clone(self):
        return type(self)(self.U.copy())


class FixedDense(FixedMatrix):
    """Dense map with a frozen matrix."""

    kind = "fixed_dense"

    def out_shape(self, in_shape):
        if len(in_shape) != 1 or in_shape[0] != self.U.shape[1]:
            raise DimensionError("fixed dense width mismatch")
        return (self.U.shape[0],)


class FixedConv1x1(FixedMatrix):
    """Frozen 1x1 convolution: applies a square matrix to every channel fiber."""

    kind = "fixed_conv1x1"

    def out_shape(self, in_shape):
        if len(in_shape) != 3 or in_shape[2] != self.U.shape[1]:
            raise DimensionError("fixed 1x1 conv channel mismatch")
        return (in_shape[0], in_shape[1], self.U.shape[0])


class Bias(Layer):
    """Trainable additive bias over the trailing (feature or channel) axis.

    Used when a rotation sandwich moves a layer's bias outside the fixed
    rotation, so the bias keeps receiving gradient and curvature estimates.
    """

    kind = "bias"
    trainable = True

    def __init__(self, b):
        self.b = np.asarray(b, dtype=np.float64)
        if self.b.ndim != 1:
            raise DimensionError("bias must be a vector")

    def forward(self, x):
        return x + self.b

    def backward(self, x, grad_out, aux=None, need_input_grad=True):
        axes = tuple(range(grad_out.ndim - 1))
        return grad_out, {"b": grad_out.sum(axis=axes)}

    def params(self):
        return {"b": self.b}

    def out_shape(self, in_shape):
        if in_shape[-1] != self.b.shape[0]:
            raise DimensionError("bias width mismatch")
        return in_shape

    def clone(self):
        return Bias(self.b.copy())


def is_fixed(layer):
    return isinstance(layer, FixedMatrix)
