"""Shared test utilities: oracles and small random network factories."""

import struct

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from rewc.fim import select_samples
from rewc.layers import Conv2D, Dense, Flatten, MeanPool2D, ReLU
from rewc.network import CHUNK, Network, backward, forward, log_softmax, softmax


def mean_xent(net, x, y):
    logits, _ = forward(net, x)
    return -float(log_softmax(logits)[np.arange(len(y)), y].mean())


def fd_param_gradient(net, x, y, key, h=1e-5):
    """Central-difference gradient of the mean cross-entropy wrt one parameter."""
    p = net.get_param(key)
    g = np.zeros_like(p)
    flat = p.ravel()
    gflat = g.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = mean_xent(net, x, y)
        flat[i] = orig - h
        dn = mean_xent(net, x, y)
        flat[i] = orig
        gflat[i] = (up - dn) / (2.0 * h)
    return g


def max_rel_error(analytic, numeric, floor=1e-6):
    scale = np.maximum(np.abs(analytic) + np.abs(numeric), floor)
    return float(np.max(np.abs(analytic - numeric) / scale))


def per_sample_fim_terms(net, inputs, budget, mode, rng, labels=None):
    """Reference Fisher stream: one forward pass per chosen input and one
    batch-1 backward pass per input and label; yields ``(weight, grads)``.
    Consumes ``rng`` like the batched estimators: the sample choice, then one
    label draw per input in sample order (sampled mode only)."""
    idx = select_samples(len(inputs), budget, rng, labels)
    for i in idx:
        logits, cache = forward(net, inputs[i : i + 1])
        p = softmax(logits)[0]
        if mode == "sampled":
            pairs = [(int(rng.choice(len(p), p=p)), 1.0)]
        else:
            pairs = [(c, float(p[c])) for c in range(len(p))]
        for y, w in pairs:
            yield w, backward(net, cache, np.array([y]))[1].grads


def per_sample_diag_fim(net, inputs, budget, mode, rng, labels=None):
    acc = {k: np.zeros_like(net.get_param(k)) for k, _, _ in net.trainable_keys()}
    for w, grads in per_sample_fim_terms(net, inputs, budget, mode, rng, labels):
        for key, g in grads.items():
            acc[key] += w * (g * g)
    return {k: v / budget for k, v in acc.items()}


def per_sample_full_fim(net, inputs, weight_key, budget, mode, rng, labels=None):
    size = net.get_param(weight_key).size
    acc = np.zeros((size, size))
    for w, grads in per_sample_fim_terms(net, inputs, budget, mode, rng, labels):
        g = grads[weight_key].ravel()
        acc += w * np.outer(g, g)
    return acc / budget


def reference_draw_labels(probs, rng):
    """The correlation pass's former label sampler: an unnormalised CDF and a
    strict comparison, clipped to the last class."""
    cdf = np.cumsum(probs, axis=1)
    u = rng.random(probs.shape[0])
    return np.minimum((u[:, None] > cdf).sum(axis=1), probs.shape[1] - 1)


def reference_accumulate_correlations(net, inputs, budget, rng, labels=None,
                                      use_true_labels=False):
    """The correlation engine before it moved onto the Fisher pass: its own
    chunked forward/backward loop and sampler, with a ``tensordot`` for conv
    layers.  Returns ``(input_corr, grad_corr)``, summed over the samples."""
    idx = select_samples(len(inputs), budget, rng, labels)
    ids = [i for i, l in enumerate(net.layers) if isinstance(l, (Dense, Conv2D))]
    cx, cz = {}, {}
    for i in ids:
        layer = net.layers[i]
        d1 = layer.W.shape[1] if isinstance(layer, Dense) else layer.K.shape[2]
        d2 = layer.W.shape[0] if isinstance(layer, Dense) else layer.K.shape[3]
        cx[i] = np.zeros((d1, d1))
        cz[i] = np.zeros((d2, d2))
    for start in range(0, len(idx), CHUNK):
        sel = idx[start : start + CHUNK]
        logits, cache = forward(net, inputs[sel])
        if use_true_labels:
            yb = np.asarray(labels)[sel]
        else:
            yb = reference_draw_labels(softmax(logits), rng)
        _, gset = backward(net, cache, yb)
        for i in ids:
            x = gset.layer_inputs[i]
            z = gset.layer_output_grads[i] * len(sel)
            if x.ndim == 2:
                cx[i] += x.T @ x
                cz[i] += z.T @ z
            else:
                h1w1 = x.shape[1] * x.shape[2]
                h2w2 = z.shape[1] * z.shape[2]
                cx[i] += np.tensordot(x, x, axes=([0, 1, 2], [0, 1, 2])) / h1w1
                cz[i] += np.tensordot(z, z, axes=([0, 1, 2], [0, 1, 2])) / h2w2
    return cx, cz


def random_rotation(rng, d_in, d_out, rotated=True):
    """Random orthogonal ``(U1, U2)`` for a layer, or ``(None, None)``."""
    if not rotated:
        return None, None
    return tuple(np.linalg.qr(rng.normal(size=(d, d)))[0] for d in (d_in, d_out))


def random_mlp(rng, rotated=False):
    """A random MLP; with ``rotated``, every dense layer but the head carries
    a random rotation."""
    d_in = int(rng.integers(3, 9))
    widths = [int(rng.integers(3, 10)) for _ in range(int(rng.integers(1, 3)))]
    head = int(rng.integers(2, 5))
    layers = []
    d = d_in
    for w in widths:
        layers += [Dense(rng.normal(0, 0.5, (w, d)), rng.normal(0, 0.1, w),
                         *random_rotation(rng, d, w, rotated)), ReLU()]
        d = w
    layers.append(Dense(rng.normal(0, 0.5, (head, d)), rng.normal(0, 0.1, head)))
    return Network(layers, head, 0, (d_in,))


def random_convnet(rng, rotated=False, size=8):
    """A random two-conv net; with ``rotated``, both convolutions carry a
    random rotation."""
    c_in = int(rng.integers(1, 4))
    c1 = int(rng.integers(2, 6))
    c2 = int(rng.integers(2, 6))
    head = int(rng.integers(2, 5))
    padding = int(rng.integers(0, 2))
    layers = [
        Conv2D(rng.normal(0, 0.4, (3, 3, c_in, c1)), rng.normal(0, 0.1, c1), 1, padding,
               *random_rotation(rng, c_in, c1, rotated)),
        ReLU(),
        MeanPool2D(2) if (size + 2 * padding - 2) % 2 == 0 else ReLU(),
    ]
    h = size + 2 * padding - 2
    if isinstance(layers[-1], MeanPool2D):
        h //= 2
    layers += [Conv2D(rng.normal(0, 0.4, (3, 3, c1, c2)), rng.normal(0, 0.1, c2), 1, 0,
                      *random_rotation(rng, c1, c2, rotated)), ReLU()]
    h -= 2
    layers += [Flatten(), Dense(rng.normal(0, 0.3, (head, h * h * c2)), rng.normal(0, 0.1, head))]
    return Network(layers, head, 0, (size, size, c_in))


def conv_direct(x, K, b=None, stride=1, padding=0):
    """Direct-summation convolution oracle (quadruple loop)."""
    n, h, w, c = x.shape
    kh, kw, d1, d2 = K.shape
    if padding:
        x = np.pad(x, ((0, 0), (padding, padding), (padding, padding), (0, 0)))
        h, w = h + 2 * padding, w + 2 * padding
    h2 = (h - kh) // stride + 1
    w2 = (w - kw) // stride + 1
    y = np.zeros((n, h2, w2, d2))
    for ni in range(n):
        for i in range(h2):
            for j in range(w2):
                for o in range(d2):
                    acc = 0.0
                    for a in range(kh):
                        for bb in range(kw):
                            for q in range(d1):
                                acc += K[a, bb, q, o] * x[ni, i * stride + a, j * stride + bb, q]
                    y[ni, i, j, o] = acc + (b[o] if b is not None else 0.0)
    return y


def reference_conv_backward(layer, x, grad_out, need_input_grad=True):
    """The conv backward the engine used to run: a tensordot over its own
    patch matrix (no ones column) for the kernel gradient, a sum over
    positions for the bias gradient, and one GEMM per kernel slice with the
    strided ``K[a, b].T``."""
    kh, kw, d1, d2 = layer.K.shape
    p = layer.padding
    xp = np.pad(x, ((0, 0), (p, p), (p, p), (0, 0))) if p else x
    win = sliding_window_view(xp, (kh, kw), axis=(1, 2))[:, :: layer.stride, :: layer.stride]
    patches = win.transpose(0, 1, 2, 4, 5, 3).reshape(win.shape[:3] + (-1,))
    gK = np.tensordot(patches, grad_out, axes=([0, 1, 2], [0, 1, 2]))
    grads = {"K": gK.reshape(layer.K.shape)}
    if layer.b is not None:
        grads["b"] = grad_out.sum(axis=(0, 1, 2))
    if not need_input_grad:
        return None, grads
    s = layer.stride
    n, h2, w2 = grad_out.shape[:3]
    g2d = grad_out.reshape(-1, d2)
    gxp = np.zeros_like(xp)
    for a in range(kh):
        for b_ in range(kw):
            block = (g2d @ layer.K[a, b_].T).reshape(n, h2, w2, d1)
            gxp[:, a : a + s * h2 : s, b_ : b_ + s * w2 : s, :] += block
    if layer.padding:
        p = layer.padding
        gxp = gxp[:, p:-p, p:-p, :]
    return gxp, grads


def reference_meanpool_backward(layer, x, grad_out):
    s = layer.size
    g = grad_out / (s * s)
    return np.repeat(np.repeat(g, s, axis=1), s, axis=2)


def make_idx_pair(images, labels):
    """Serialize uint8 images/labels into IDX byte blobs."""
    images = np.asarray(images, dtype=np.uint8)
    labels = np.asarray(labels, dtype=np.uint8)
    n, rows, cols = images.shape
    img = struct.pack(">IIII", 0x00000803, n, rows, cols) + images.tobytes()
    lab = struct.pack(">II", 0x00000801, len(labels)) + labels.tobytes()
    return img, lab
