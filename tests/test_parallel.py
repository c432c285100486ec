"""The pool behind the passes outside training, the synthetic streams and
the training input pipeline gives the same bits at every size: each case
runs with ``parallel.WORKERS`` at 1 and at 3."""

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
from rewc.continual import Hyper, evaluate_matrix, train_task
from rewc.data import synthetic_tasks
from rewc.errors import ConvergenceError, DimensionError
from rewc.fim import (_sample_labels, estimate_diag_fim, estimate_full_fim_layer, ewc_penalty,
                      make_anchor, select_samples)
from rewc.layers import Conv2D, Dense
from rewc.network import CHUNK, Network, backward, forward, parameter_digest, softmax
from rewc.optim import AdamState, adam_step
from rewc.rotation import accumulate_correlations
from rewc.util import rng_for

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
            net, x, 0, BUDGET, mode, np.random.default_rng(2)))
        assert np.array_equal(blocks[0], blocks[1]), name


@pytest.mark.parametrize("true_labels", [False, True])
def test_correlations_are_bit_identical_across_pool_sizes(pools, true_labels):
    for name, net, x in nets():
        if net.is_rotated():
            continue  # correlations are taken on plain networks only

        def correlate():
            stats = accumulate_correlations(net, x, BUDGET, np.random.default_rng(3),
                                            labels=np.arange(len(x)) % 2,
                                            scope="all_no_last", use_true_labels=true_labels)
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
    head = net.layers[-1]
    one_class = Network(net.layers[:-1] + [Dense(head.W[:1], head.b[:1])], 0, net.input_shape)
    for n in (net, one_class):
        events.clear()
        rng = np.random.default_rng(6)
        fisher = estimate_diag_fim(n, x, BUDGET, "expected", rng).values
        sets = n.head_classes - 1
        # Four chunks: a wave of three forwards and their 3 * (classes - 1)
        # backward passes, then the last chunk's.
        assert "".join(events) == "fff" + "b" * 3 * sets + "f" + "b" * sets
        # The expected pass draws nothing but the samples.
        drawn = np.random.default_rng(6)
        select_samples(len(x), BUDGET, drawn)
        assert rng.bit_generator.state == drawn.bit_generator.state
    # A one-class head is certain of its output, so its Fisher is zero.
    assert all(np.all(v == 0.0) for v in fisher.values())


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
        return dict(values, **{f"{k}.{name}": getattr(t, name) for k, t in enumerate(stream)
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
    for k, (a, b) in enumerate(zip(*streams)):
        for name in ("train_x", "train_y", "test_x", "test_y"):
            x, y = getattr(a, name), getattr(b, name)
            assert x.dtype == y.dtype and x.shape == y.shape
            assert x.tobytes() == y.tobytes(), (k, name)


def serial_train(net, task, hyper, task_index, anchor):
    """``train_task`` as a plain loop: gather, forward, backward, penalty,
    Adam, one step after the other on this thread."""
    rng = rng_for(net.rng_seed, "shuffle", task_index)
    state = AdamState(net)
    n = len(task.train_x)
    for _ in range(hyper.epochs):
        perm = rng.permutation(n)
        for start in range(0, n, hyper.batch_size):
            sel = perm[start : start + hyper.batch_size]
            _, cache = forward(net, task.train_x[sel])
            _, grads = backward(net, cache, task.train_y[sel])
            if anchor is not None:
                _, pgrads = ewc_penalty(net, anchor)
                grads = {k: g + pgrads[k] if k in pgrads else g for k, g in grads.items()}
            adam_step(net, grads, state, hyper.lr)


def training_case(name):
    """A network, a 70-sample task (the last batch of 16 partial) and an
    anchor: an EWC anchor on the rotated conv net, none on the others."""
    rng = np.random.default_rng(31)
    net = {"conv": lambda: random_convnet(rng), "mlp": lambda: random_mlp(rng),
           "rotated-conv-ewc": lambda: random_convnet(rng, rotated=True)}[name]()
    x = rng.normal(size=(70,) + net.input_shape)
    task = SimpleNamespace(train_x=x, train_y=np.arange(70) % net.head_classes)
    anchor = None
    if name == "rotated-conv-ewc":
        diag = estimate_diag_fim(net, x, 50, "sampled", np.random.default_rng(0), task.train_y)
        anchor = make_anchor(net, diag, lam=50.0)
        for layer in net.layers:  # move the weights off the anchor
            for p in layer.params().values():
                p += rng.normal(0, 0.01, p.shape)
    return net, task, anchor


@pytest.mark.parametrize("name", ["conv", "rotated-conv-ewc", "mlp"])
def test_train_task_is_bit_identical_across_pool_sizes_and_to_a_serial_loop(pools, name):
    hyper = Hyper(epochs=2, batch_size=16, lr=1e-2)
    net, task, anchor = training_case(name)
    want = net.clone()
    serial_train(want, task, hyper, 1, anchor)

    def train():
        trained = net.clone()
        train_task(trained, task, hyper, 1, anchor)
        return parameter_digest(trained)

    assert pools(train) == [parameter_digest(want)] * len(POOL_SIZES)
    assert parameter_digest(want) != parameter_digest(net)


@pytest.mark.parametrize("name, pooled", [("conv", True), ("mlp", False)])
def test_only_a_first_layer_with_input_only_work_is_prefetched(monkeypatch, name, pooled):
    net, task, _ = training_case(name)
    first = net.layers[0]
    assert first.prepares == pooled
    threads = []

    def prepare(x):
        threads.append(threading.current_thread().name)
        return type(first).prepare(first, x)

    monkeypatch.setattr(first, "prepare", prepare, raising=False)
    train_task(net, task, Hyper(epochs=2, batch_size=16), 0)
    assert len(threads) == 2 * 5
    assert all(t.startswith("rewc") == pooled for t in threads), threads


@pytest.mark.parametrize("shape", [(3, 2, 2, 4), (1, 1, 2, 3), (5, 5, 2, 1)],
                         ids=["3x2", "1x1", "5x5"])
def test_conv_forward_prepared_equals_forward_cached(shape):
    rng = np.random.default_rng(12)
    layer = Conv2D(rng.normal(size=shape), rng.normal(size=shape[3]))
    x = rng.normal(size=(5, 9, 8, 2))
    y, (patches, K) = layer.forward_cached(x)
    y2, (patches2, K2) = layer.forward_prepared(layer.prepare(x))
    for a, b in ((y, y2), (patches, patches2), (K, K2)):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def test_prefetched_keeps_order_and_reraises_the_first_error(pools):
    def slow_echo(i):
        time.sleep(0.002 * (5 - i % 5))  # later items finish first
        return i, threading.current_thread().name

    for results in pools(lambda: list(parallel.prefetched(slow_echo, range(10)))):
        assert [i for i, _ in results] == list(range(10))
        assert all(name.startswith("rewc") for _, name in results)

    def fail_from_two(i):
        if i >= 2:
            raise DimensionError(f"item {i}")
        return i

    def run():
        seen = []
        with pytest.raises(DimensionError, match="item 2"):
            for i in parallel.prefetched(fail_from_two, range(5)):
                seen.append(i)
        return seen

    assert pools(run) == [[0, 1]] * len(POOL_SIZES)


def test_a_convergence_error_leaves_no_job_running(pools):
    net, task, _ = training_case("conv")
    net.layers[-1].W[0, 0] = np.nan  # the loss is nan at the first step
    first = net.layers[0]
    started, running = [], []
    lock = threading.Lock()

    def slow_prepare(x):
        with lock:
            started.append(1)
            running.append(1)
        time.sleep(0.05)  # still running when the first step fails
        with lock:
            running.pop()
        return type(first).prepare(first, x)

    first.prepare = slow_prepare

    def train():
        started.clear()
        with pytest.raises(ConvergenceError, match="epoch 0, step 0"):
            train_task(net, task, Hyper(epochs=1, batch_size=16), 0)
        return len(started), len(running)

    # The second batch's job was in flight when the first step failed, and
    # train_task waited for it.
    assert pools(train) == [(2, 0)] * len(POOL_SIZES)


@pytest.mark.parametrize("rows, labels, match", [
    (0, 0, "task 2 has no training samples"),
    (70, 69, "task 2 has 70 training inputs but 69 labels"),
], ids=["empty", "label-count"])
def test_train_task_fails_before_the_first_step(monkeypatch, rows, labels, match):
    net, task, _ = training_case("conv")
    task = SimpleNamespace(train_x=task.train_x[:rows], train_y=task.train_y[:labels])
    digest = parameter_digest(net)
    jobs = []
    monkeypatch.setattr(parallel, "prefetched", lambda *a: jobs.append(a))
    with pytest.raises(DimensionError, match=match):
        train_task(net, task, Hyper(epochs=1, batch_size=16), 2)
    assert parameter_digest(net) == digest
    assert jobs == []
