"""Small shared helpers."""

import zlib

import numpy as np


def rng_for(seed, *tags):
    """Independent, reproducible generator for one purpose.

    Different tag tuples give statistically independent streams from the same
    base seed, so adding a consumer (e.g. FIM estimation) never perturbs the
    draws seen by another (e.g. minibatch shuffling).
    """
    entropy = [int(seed) & 0xFFFFFFFF]
    entropy.extend(zlib.crc32(str(t).encode("utf-8")) for t in tags)
    return np.random.default_rng(np.random.SeedSequence(entropy))
