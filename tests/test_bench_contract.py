"""What the benchmark harness, ``perfbench/worker.py``, binds in the program.

The harness times and traces runs from outside: it rebinds module attributes
by name, reads call arguments by parameter name and reads each anchor's
fields.  A rename here breaks the benchmark, and no other test would fail.
"""

import inspect

import numpy as np

from rewc import continual, fim, layers, network, rotation, runner
from rewc.config import parse_config_text

# (module, attribute, the parameter names the harness binds)
BOUND = [
    (continual, "train_task", ("task", "hyper")),
    (continual, "finalize_task", ("net", "task")),
    (continual, "evaluate_matrix", ()),
    (continual, "adam_step", ()),
    (continual, "ewc_penalty", ()),
    (continual, "estimate_diag_fim", ("sample_budget",)),
    (continual, "accumulate_correlations", ()),
    (continual, "rotate_network", ()),
    (continual, "forward", ()),
    (continual, "backward", ()),
    (rotation, "jacobi_eigh", ("A",)),
    (rotation, "forward", ()),
    (rotation, "backward", ()),
    (fim, "forward", ()),
    (fim, "backward", ()),
    (runner, "build_tasks", ()),
    (runner, "build_net", ()),
    (runner, "run_single", ()),
    (runner, "run_sequence", ()),
    (runner, "synthetic_tasks", ()),
]
# Wrapped by the harness but not called: rotation imports them for it.
UNCALLED = {(rotation, "forward"), (rotation, "backward")}

RUN = """\
dataset = synthetic
synth_image = 16x16x1
classes_per_task = 2
tasks = 2
arch = lenet
method = rewc
epochs = 1
batch = 32
fim_samples = 20
seeds = 0
"""


def test_every_bound_attribute_exists_with_the_parameters_it_binds():
    missing = []
    for module, attr, params in BOUND:
        fn = getattr(module, attr, None)
        if not callable(fn):
            missing.append(f"{module.__name__}.{attr}")
            continue
        names = inspect.signature(fn).parameters
        missing += [f"{module.__name__}.{attr}({p})" for p in params if p not in names]
    # The per-layer table: forward_cached(x), backward(x, g, aux=, need_input_grad=).
    for kind in ("Conv2D", "Dense", "MeanPool2D"):
        cls = getattr(layers, kind, None)
        if cls is None:
            missing.append(f"rewc.layers.{kind}")
            continue
        names = inspect.signature(cls.backward).parameters
        missing += [f"{kind}.backward({p})" for p in ("aux", "need_input_grad") if p not in names]
        if not callable(getattr(cls, "forward_cached", None)):
            missing.append(f"{kind}.forward_cached")
    assert missing == []


def test_a_run_reaches_every_bound_attribute_through_its_module(monkeypatch):
    calls = {}
    finalized = []

    def counting(module, attr, fn):
        def wrapped(*args, **kwargs):
            calls[(module, attr)] = calls.get((module, attr), 0) + 1
            out = fn(*args, **kwargs)
            if attr == "finalize_task":
                finalized.append(out)
            return out

        return wrapped

    for module, attr, _ in BOUND:
        monkeypatch.setattr(module, attr, counting(module, attr, getattr(module, attr)))
    record = runner.run_single(parse_config_text(RUN), 0)
    unreached = [f"{m.__name__}.{a}" for m, a, _ in BOUND
                 if (m, a) not in UNCALLED and not calls.get((m, a))]
    assert unreached == []
    assert {"eval_matrix", "final_avg"} <= set(record)
    assert finalized
    for out in finalized:
        net, anchor = out
        assert net.layers and anchor.lam >= 0
        assert anchor.theta_star.keys() == anchor.fim.values.keys()


def test_the_harness_set_up_and_layer_table_calls_run_on_a_lenet():
    # The set-up warms up with forward, unpacked as (logits, cache), and a
    # label-mode backward.  The per-layer table, on the network finalize_task
    # returns, feeds each timed layer's cached input back into the layer.
    cfg = parse_config_text(RUN)
    tasks = runner.build_tasks(cfg, 0)
    plain = runner.build_net(cfg, tasks, 0)
    rotated, _ = continual.finalize_task(plain, tasks[0], cfg.method(), 0)
    assert rotated.is_rotated()
    timed = ("Conv2D", "Dense", "MeanPool2D")
    for net in (plain, rotated):
        batch = tasks[0].train_x[:cfg["batch"]]
        logits, cache = network.forward(net, batch)
        assert logits.shape == (len(batch), net.head_classes)
        loss, grads = network.backward(net, cache, tasks[0].train_y[:cfg["batch"]])
        assert np.isfinite(loss) and grads.keys() == net.params().keys()
        network.forward(net, tasks[0].test_x[:512])

        _, cache = network.forward(net, tasks[0].train_x[:64])
        rng = np.random.default_rng(0)
        kinds = set()
        for i, layer in enumerate(net.layers):
            if type(layer).__name__ not in timed:
                continue
            kinds.add(type(layer).__name__)
            xin = cache.inputs[i]
            assert xin is not None, f"the forward cache drops layer {i}'s input"
            y, aux = layer.forward_cached(xin)
            layer.forward_cached(xin)
            g = rng.standard_normal(y.shape)
            grad_in = layer.backward(xin, g, aux=aux, need_input_grad=i > 0)
            if i > 0:
                assert grad_in.shape == xin.shape
        assert kinds == set(timed)
