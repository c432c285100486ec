"""Sequential task training with plain fine-tuning, EWC, and rotated EWC.

Per finished task the rotated variant folds any existing rotation into the
weights, recomputes fresh rotations from that task's data, estimates the diagonal
curvature at the rotated parameters, and anchors there; the next task then
trains in the rotated space.  Exactly one anchor is kept at any time.
"""

import contextlib
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import parallel
from .errors import CapacityError, ConvergenceError, DimensionError
from .fim import FIM_MODES, estimate_diag_fim, estimate_full_fim_layer, ewc_penalty, make_anchor
from .linalg import diag_energy_ratio
from .network import CHUNK, Network, backward, forward, grow_head
from .optim import AdamState, adam_step
from .rotation import (SCOPES, accumulate_correlations, combine_network, rotate_network,
                       scope_selects)
from .util import rng_for

METHODS = ("ft", "ewc", "rewc")


@dataclass
class Method:
    """Continual-learning method configuration."""

    name: str
    lam: float = 100.0
    scope: str = "all_no_last"
    fim_samples: int = 200
    fim_mode: str = "sampled"

    def __post_init__(self):
        if self.name not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.name!r}")
        if self.scope not in SCOPES:
            raise ValueError(f"scope must be one of {SCOPES}, got {self.scope!r}")
        if not math.isfinite(self.lam):
            raise ValueError(f"lambda must be finite, got {self.lam}")
        if self.name == "ft" and self.lam != 0.0:
            raise ValueError("fine-tuning must use lambda = 0")
        if self.lam < 0:
            raise ValueError("lambda must be non-negative")
        if self.fim_samples < 1:
            raise ValueError("fim_samples must be at least 1")
        if self.fim_mode not in FIM_MODES:
            raise ValueError(f"fim_mode must be one of {FIM_MODES}, got {self.fim_mode!r}")


@dataclass
class Hyper:
    """Per-run training knobs and diagnostics; the seed is the network's."""

    epochs: int = 5
    batch_size: int = 64
    lr: float = 1e-3
    diag_layers: tuple = ()
    store_fim_blocks: bool = False

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if not (self.lr > 0 and math.isfinite(self.lr)):
            raise ValueError(f"lr must be positive and finite, got {self.lr}")
        if len(set(self.diag_layers)) != len(self.diag_layers):
            raise ValueError(f"diag_layers {list(self.diag_layers)} repeat a layer, whose Fisher "
                             "block would be estimated twice and recorded once; list each "
                             "layer once")


@dataclass
class SequenceResult:
    """What one task sequence produced.

    ``eval_matrix[t][k]`` is task ``k``'s test accuracy after training task
    ``t``.  ``train_seconds`` has one entry per task; ``fim_median`` (the
    anchor Fisher's median, None under ft) one per consolidated task.
    ``diag_energy`` is ``{task: {layer: {"before", "after", ...}}}`` under
    rewc with ``diag_layers``, else empty.
    """

    net: Network
    eval_matrix: list = field(default_factory=list)
    train_seconds: list = field(default_factory=list)
    fim_median: list = field(default_factory=list)
    warnings: list = field(default_factory=list)
    diag_energy: dict = field(default_factory=dict)


def _check_split(x, y, split, task_index):
    """A split can be used only with samples, and one label per input."""
    n = x.shape[0]
    if n == 0:
        raise DimensionError(f"task {task_index} has no {split} samples")
    if len(y) != n:
        raise DimensionError(f"task {task_index} has {n} {split} inputs but {len(y)} labels")


def train_task(net, task, hyper, task_index, anchor=None):
    """Minibatch Adam over one task, with the anchor penalty when present.

    When the first layer does input-only work (``Layer.prepares``), the next
    batch is gathered and that work done on ``rewc.parallel``'s pool while
    the current step runs.  The arrays are the ones a serial loop computes,
    so the result is bit-identical.  A step whose loss is not finite raises
    ``ConvergenceError``: the run has diverged, and its accuracies would read
    as chance, not as forgetting."""
    _check_split(task.train_x, task.train_y, "training", task_index)
    n = task.train_x.shape[0]
    rng = rng_for(net.rng_seed, "shuffle", task_index)
    state = AdamState(net)
    use_penalty = anchor is not None and anchor.lam > 0.0
    first = net.layers[0]

    def steps():
        for epoch in range(hyper.epochs):
            perm = rng.permutation(n)
            for start in range(0, n, hyper.batch_size):
                yield epoch, start // hyper.batch_size, perm[start : start + hyper.batch_size]

    def load(step):
        epoch, i, sel = step
        x = np.asarray(task.train_x[sel], dtype=np.float64)
        return epoch, i, x, first.prepare(x), task.train_y[sel]

    batches = (parallel.prefetched(load, steps()) if first.prepares
               else (load(step) for step in steps()))
    with contextlib.closing(batches):  # on an error, waits for the job in flight
        for epoch, i, x, prepared, y in batches:
            _, cache = forward(net, x, prepared)
            loss, grads = backward(net, cache, y)
            if not math.isfinite(loss):
                raise ConvergenceError(
                    f"task {task_index}: the training loss is {loss} at epoch {epoch}, step {i}"
                )
            # free the batch's activations before the next forward allocates its own
            del cache, x, prepared
            if use_penalty:
                _, pgrads = ewc_penalty(net, anchor)
                grads = {k: g + pgrads[k] if k in pgrads else g for k, g in grads.items()}
            adam_step(net, grads, state, hyper.lr)
    return net


def evaluate_matrix(net, tasks, upto):
    """Accuracies on tasks ``0..upto-1``; argmax over the full head, ties to
    the lowest class index.  Test sets stream through ``CHUNK`` rows at a
    time on ``rewc.parallel``'s pool, so evaluation memory does not grow with
    the test-set size."""
    chunks = [(k, start) for k in range(upto)
              for start in range(0, tasks[k].test_x.shape[0], CHUNK)]

    def correct(chunk):
        k, start = chunk
        logits, _ = forward(net, tasks[k].test_x[start : start + CHUNK])
        pred = np.argmax(logits, axis=1)
        return int((pred == tasks[k].test_y[start : start + CHUNK]).sum())

    hits = [0] * upto
    for (k, _), c in zip(chunks, parallel.ordered_map(correct, chunks)):
        hits[k] += c
    return [hits[k] / tasks[k].test_x.shape[0] for k in range(upto)]


def finalize_task(net, task, method, task_index):
    """Post-task consolidation of the trained ``net``, which it leaves as it
    is; returns the training-ready network and the (single) anchor for the
    next task, or None for fine-tuning."""
    if method.name == "ft":
        return net, None

    if method.name == "rewc":
        # Rotated EWC: fold any previous rotation into the weights, rotate
        # fresh, anchor in the rotated space.
        if net.is_rotated():
            net = combine_network(net)
        rng_rot = rng_for(net.rng_seed, "rotate", task_index)
        stats = accumulate_correlations(
            net, task.train_x, method.fim_samples, rng_rot, task.train_y, scope=method.scope
        )
        net = rotate_network(net, stats)
    rng_fim = rng_for(net.rng_seed, "fim", task_index)
    fim = estimate_diag_fim(
        net, task.train_x, method.fim_samples, method.fim_mode, rng_fim, task.train_y
    )
    return net, make_anchor(net, fim, method.lam)


def _energy_ratios(before, after, task, method, hyper, task_index):
    """Full-FIM diagonal-energy ratios of ``hyper.diag_layers`` on the plain
    network ``before`` a rotation and the rotated one ``after`` it:
    ``{layer: {"before", "after"}}``, plus each block under ``store_fim_blocks``
    (up to 400 rows), or ``{"error": message}`` for a layer whose block is
    over ``fim.FULL_FIM_PARAM_CAP`` weights."""
    out = {}
    for idx in hyper.diag_layers:
        entry = {}
        for stage, net in (("before", before), ("after", after)):
            rng = rng_for(net.rng_seed, "fim-diag", task_index, idx, stage)
            try:
                block = estimate_full_fim_layer(
                    net, task.train_x, idx, method.fim_samples, method.fim_mode, rng,
                    task.train_y,
                )
            except CapacityError as e:  # a diagnostic-only problem
                entry = {"error": str(e)}
                break
            entry[stage] = diag_energy_ratio(block)
            if hyper.store_fim_blocks and block.shape[0] <= 400:
                entry[stage + "_matrix"] = block.tolist()
        out[str(idx)] = entry
    return out


def check_rotation(net, method, diag_layers):
    """Raise ``DimensionError`` unless the rotated ``method``'s scope selects
    a layer of ``net``, and each of ``diag_layers`` one that has weights."""
    if not scope_selects(net, method.scope):
        raise DimensionError(f"scope = {method.scope} selects no layer of this network, so "
                             "the run would be plain EWC; use method = ewc")
    n = len(net.layers)
    bad = [i for i in diag_layers if not 0 <= i < n]
    if bad:
        raise DimensionError(f"diag_layers {bad} out of range for a {n}-layer network")
    bare = [f"{i} ({net.layers[i].kind})" for i in diag_layers if not net.layers[i].trainable]
    if bare:
        raise DimensionError(f"diag_layers name layers without weights: {', '.join(bare)}")


def run_sequence(net, tasks, method, hyper, task_callback=None):
    """Train tasks in order, evaluating after each stage; returns a
    ``SequenceResult``.

    Its network ends in whatever parameterization the method leaves it in
    after the final task (rotated layers included for the rotated method
    when more tasks were pending).  ``task_callback(k, net)``, when given,
    fires after each task's evaluation, e.g. to write checkpoints.
    """
    T = len(tasks)
    if T == 0:
        raise DimensionError("task sequence is empty")
    for k, task in enumerate(tasks):
        _check_split(task.train_x, task.train_y, "training", k)
        _check_split(task.test_x, task.test_y, "test", k)

    needed = max(tasks[0].class_ids) + 1
    if net.head_classes > needed:
        raise DimensionError(
            f"head already has {net.head_classes} classes; task 1 needs {needed}"
        )
    if method.name != "ft":
        # Every task but the last is consolidated; its sample budget must fit.
        for k, task in enumerate(tasks[:-1]):
            n = task.train_x.shape[0]
            if method.fim_samples > n:
                raise DimensionError(
                    f"fim_samples {method.fim_samples} exceeds the {n} training samples "
                    f"of task {k}"
                )
    if method.name == "rewc":
        check_rotation(net, method, hyper.diag_layers)
    diagnose = method.name == "rewc" and bool(hyper.diag_layers)

    result = SequenceResult(net)
    anchor = None
    for k in range(T):
        needed = max(tasks[k].class_ids) + 1
        if needed > net.head_classes:
            grow_head(net, needed - net.head_classes)
        t0 = time.perf_counter()
        train_task(net, tasks[k], hyper, k, anchor)
        result.train_seconds.append(time.perf_counter() - t0)
        result.eval_matrix.append(evaluate_matrix(net, tasks, upto=k + 1))
        if task_callback is not None:
            task_callback(k, net)
        if k + 1 < T:
            trained = net
            net, anchor = finalize_task(trained, tasks[k], method, k)
            if diagnose:
                plain = combine_network(trained) if trained.is_rotated() else trained
                result.diag_energy[str(k)] = _energy_ratios(plain, net, tasks[k], method,
                                                           hyper, k)
            result.fim_median.append(anchor.fim.median() if anchor else None)
            if anchor and not any(v.any() for v in anchor.fim.values.values()):
                result.warnings.append(
                    f"task {k}: the Fisher is zero everywhere, so its anchor protects nothing"
                )
    result.net = net
    return result
