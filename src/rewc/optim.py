"""Adam optimizer over a network's trainable parameters."""

import numpy as np

from .errors import AlignmentError

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class AdamState:
    """First/second moment buffers keyed like the network's parameters."""

    def __init__(self, net):
        self.m = {k: np.zeros_like(p) for k, p in net.params().items()}
        self.v = {k: np.zeros_like(v) for k, v in self.m.items()}
        self.t = 0


def adam_step(net, grads, state, lr):
    """One bias-corrected Adam update of every trainable parameter that has
    a gradient in ``grads``; a layer's rotation is not a parameter and is
    never updated."""
    if lr <= 0:
        raise ValueError("lr must be positive")
    state.t += 1
    bc1 = 1.0 - BETA1**state.t
    bc2 = 1.0 - BETA2**state.t
    for key, p in net.params().items():
        g = grads.get(key)
        if g is None:
            continue
        if g.shape != p.shape or state.m[key].shape != p.shape:
            raise AlignmentError(f"gradient/state shape mismatch for {key}")
        m = state.m[key]
        v = state.v[key]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * (g * g)
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)
    return net, state
