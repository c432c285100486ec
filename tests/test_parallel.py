"""The pool behind the passes outside training and the synthetic streams
gives the same bits at every size: each case runs with ``parallel.WORKERS``
at 1 and at 3."""

import os
import subprocess
import sys
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from helpers import random_convnet, random_mlp
import rewc
from rewc import fim, parallel
from rewc.continual import evaluate_matrix
from rewc.data import synthetic_tasks
from rewc.errors import DimensionError
from rewc.fim import _sample_labels, estimate_diag_fim, estimate_full_fim_layer, select_samples
from rewc.network import CHUNK, forward, softmax
from rewc.rotation import accumulate_correlations

POOL_SIZES = (1, 3)
BUDGET = 230  # four chunks, the last partial: one full wave of 3 and one of 1
assert BUDGET % CHUNK


def fresh_import(expr):
    """``expr`` evaluated after ``import sys, rewc`` in a fresh interpreter:
    this one has long since made the pool and imported every module."""
    code = f"import sys, rewc\nprint(repr({expr}))"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(rewc.__file__)))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_import_defers_the_pool():
    assert fresh_import("'concurrent.futures' in sys.modules") == "False"


def test_every_export_resolves():
    assert fresh_import("[n for n in rewc.__all__ if not hasattr(rewc, n)]") == "[]"


@pytest.fixture
def pools(monkeypatch):
    """``pools(fn)`` calls ``fn()`` once per pool size and returns the results;
    the pool is made again at each size and at the default one afterwards."""

    def run(fn):
        out = []
        for size in POOL_SIZES:
            monkeypatch.setattr(parallel, "WORKERS", size)
            out.append(fn())
        return out

    return run


def nets():
    rng = np.random.default_rng(30)
    for name, net in (("mlp", random_mlp(rng)), ("conv", random_convnet(rng)),
                      ("rotated-conv", random_convnet(rng, rotated=True))):
        yield name, net, rng.normal(size=(260,) + net.input_shape)


def assert_same_dicts(results):
    first = results[0]
    for other in results[1:]:
        assert first.keys() == other.keys()
        for key in first:
            assert np.array_equal(first[key], other[key]), key


@pytest.mark.parametrize("mode", ["sampled", "expected"])
def test_diag_fim_is_bit_identical_across_pool_sizes(pools, mode):
    for name, net, x in nets():
        labels = np.arange(len(x)) % 3

        def estimate():
            rng = np.random.default_rng(1)
            values = estimate_diag_fim(net, x, BUDGET, mode, rng, labels).values
            return dict(values, state=np.array(rng.integers(0, 2**62, 4)))  # rng state after

        assert_same_dicts(pools(estimate))


@pytest.mark.parametrize("mode", ["sampled", "expected"])
def test_full_fim_layer_is_bit_identical_across_pool_sizes(pools, mode):
    for name, net, x in nets():
        blocks = pools(lambda: estimate_full_fim_layer(
            net, x, 0, BUDGET, mode, np.random.default_rng(2)).matrix)
        assert np.array_equal(blocks[0], blocks[1]), name


@pytest.mark.parametrize("true_labels", [False, True])
def test_correlations_are_bit_identical_across_pool_sizes(pools, true_labels):
    for name, net, x in nets():
        if net.is_rotated():
            continue  # correlations are taken on plain networks only

        def correlate():
            stats = accumulate_correlations(net, x, BUDGET, np.random.default_rng(3),
                                            labels=np.arange(len(x)) % 2,
                                            use_true_labels=true_labels)
            return {**{f"x{i}": c for i, c in stats.input_corr.items()},
                    **{f"z{i}": c for i, c in stats.grad_corr.items()}}

        assert_same_dicts(pools(correlate))


def test_evaluate_matrix_is_bit_identical_across_pool_sizes(pools):
    for name, net, x in nets():
        head = net.head_classes
        tasks = [SimpleNamespace(test_x=x[:150], test_y=np.arange(150) % head),
                 SimpleNamespace(test_x=x[150:], test_y=np.arange(110) % head)]
        rows = pools(lambda: evaluate_matrix(net, tasks, 2))
        assert rows[0] == rows[1]
        for k, task in enumerate(tasks):  # and equal to one count per test set
            logits, _ = forward(net, task.test_x)
            hits = int((np.argmax(logits, axis=1) == task.test_y).sum())
            assert rows[0][k] == hits / len(task.test_y), name


def test_one_uniform_draw_gives_the_chunked_draws():
    rng = np.random.default_rng(4)
    _, net, x = next(nets())
    idx = select_samples(len(x), BUDGET, rng)
    one, chunked = np.random.default_rng(5), np.random.default_rng(5)
    u = one.random(len(idx))
    for start in range(0, len(idx), CHUNK):
        p = softmax(forward(net, x[idx[start : start + CHUNK]])[0])
        assert np.array_equal(_sample_labels(p, u[start : start + CHUNK]),
                              _sample_labels(p, chunked.random(len(p))))
    assert one.bit_generator.state == chunked.bit_generator.state


def test_waves_hold_at_most_one_forward_per_worker(monkeypatch):
    monkeypatch.setattr(parallel, "WORKERS", 3)
    _, net, x = next(nets())
    events = []
    lock = threading.Lock()

    def logged(kind, fn):
        def call(*args, **kwargs):
            with lock:
                events.append(kind)
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(fim, "forward", logged("f", fim.forward))
    monkeypatch.setattr(fim, "backward", logged("b", fim.backward))
    estimate_diag_fim(net, x, BUDGET, "expected", np.random.default_rng(6))
    classes = net.head_classes
    # Four chunks: a wave of three forwards and their 3 * classes backward
    # passes, then the last chunk's.
    assert "".join(events) == "fff" + "b" * 3 * classes + "f" + "b" * classes


def test_ordered_map_keeps_input_order_on_the_pool(pools):
    def slow_echo(i):
        time.sleep(0.002 * (5 - i % 5))  # later items finish first
        return i, threading.current_thread().name

    for results in pools(lambda: parallel.ordered_map(slow_echo, range(10))):
        assert [i for i, _ in results] == list(range(10))
        assert all(name.startswith("rewc") for _, name in results)


def test_a_unit_error_reaches_the_caller_with_its_type(pools):
    _, net, x = next(nets())
    net.layers[0].W[0, 0] = np.nan  # non-finite class probabilities

    def estimate():
        with pytest.raises(DimensionError, match="not finite"):
            estimate_diag_fim(net, x, BUDGET, "sampled", np.random.default_rng(7))

    pools(estimate)

    def fail_on_two(i):
        if i == 2:
            raise DimensionError("unit 2")
        return i

    def run():
        with pytest.raises(DimensionError, match="unit 2"):
            parallel.ordered_map(fail_on_two, range(5))

    pools(run)


def test_many_threads_with_frequent_switches_give_the_same_bits(monkeypatch):
    # More threads than cores, switching every microsecond: a unit that
    # wrote shared state, or a sum formed off the calling thread, would
    # show here as different bits.
    _, net, x = next(nets())

    def estimate():
        values = estimate_diag_fim(net, x, BUDGET, "expected", np.random.default_rng(8)).values
        stream = synthetic_tasks(seed=9, T=3, classes_per_task=3, dim=16, train_per_class=23,
                                 test_per_class=7)
        return dict(values, **{f"{t.task_id}.{name}": getattr(t, name) for t in stream
                               for name in ("train_x", "train_y", "test_x", "test_y")})

    monkeypatch.setattr(parallel, "WORKERS", 1)
    want = estimate()
    monkeypatch.setattr(parallel, "WORKERS", 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = [estimate() for _ in range(5)]
    finally:
        sys.setswitchinterval(interval)
    for values in got:
        assert_same_dicts([want, values])


@pytest.mark.parametrize("kwargs", [
    dict(T=2, classes_per_task=3, image_shape=(6, 6, 1), train_per_class=37,
         test_per_class=11, noise_cond=20.0),
    dict(T=3, classes_per_task=2, dim=9, train_per_class=13, test_per_class=29),
], ids=["image", "mlp"])
def test_synthetic_tasks_are_bit_identical_across_pool_sizes(pools, kwargs):
    # train_per_class != test_per_class, so the lanes carry unequal rows.
    streams = pools(lambda: synthetic_tasks(seed=5, **kwargs))
    for a, b in zip(*streams):
        for name in ("train_x", "train_y", "test_x", "test_y"):
            x, y = getattr(a, name), getattr(b, name)
            assert x.dtype == y.dtype and x.shape == y.shape
            assert x.tobytes() == y.tobytes(), (a.task_id, name)
