"""Sequential task training with plain fine-tuning, EWC, and rotated EWC.

Per finished task the rotated variant folds any existing rotation into the
weights, recomputes fresh rotations from that task's data, estimates the diagonal
curvature at the rotated parameters, and anchors there; the next task then
trains in the rotated space.  Exactly one anchor is kept at any time.
"""

import time
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DimensionError
from .fim import FIM_MODES, estimate_diag_fim, estimate_full_fim_layer, ewc_penalty, make_anchor
from .linalg import diag_energy_ratio
from .network import CHUNK, backward, forward, grow_head
from .optim import AdamState, adam_step
from .rotation import RotationScope, accumulate_correlations, combine_network, rotate_network
from .util import rng_for

METHODS = ("ft", "ewc", "rewc")


@dataclass
class Method:
    """Continual-learning method configuration."""

    name: str
    lam: float = 100.0
    scope: RotationScope = RotationScope.ALL_NO_LAST
    fim_samples: int = 200
    fim_mode: str = "sampled"

    def __post_init__(self):
        if self.name not in METHODS:
            raise ValueError(f"unknown method {self.name!r}")
        if isinstance(self.scope, str):
            self.scope = RotationScope(self.scope)
        if self.name == "ft" and self.lam != 0.0:
            raise ValueError("fine-tuning must use lam=0")
        if self.lam < 0:
            raise ValueError("lam must be non-negative")
        if self.fim_samples < 1:
            raise ValueError("fim_samples must be at least 1")
        if self.fim_mode not in FIM_MODES:
            raise ValueError(f"unknown FIM mode {self.fim_mode!r}")


@dataclass
class Hyper:
    """Per-run training knobs."""

    epochs: int = 5
    batch_size: int = 64
    lr: float = 1e-3
    seed: int = 0
    diag_layers: tuple = ()
    store_fim_blocks: bool = False

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if not self.lr > 0:
            raise ValueError("lr must be positive")


class EvalMatrix:
    """Accuracy on each seen task's test set after every training stage."""

    def __init__(self):
        self.rows = []

    def add_row(self, accs):
        accs = [float(a) for a in accs]
        if len(accs) != len(self.rows) + 1:
            raise DimensionError("evaluation row must cover exactly the seen tasks")
        if any(a < 0.0 or a > 1.0 for a in accs):
            raise DimensionError("accuracies must lie in [0, 1]")
        self.rows.append(accs)

    def per_step_avg(self):
        return [float(np.mean(r)) for r in self.rows]

    def final_row(self):
        return list(self.rows[-1])

    def as_lists(self):
        return [list(r) for r in self.rows]


def train_task(net, task, method, hyper, task_index, anchor=None):
    """Minibatch Adam over one task, with the anchor penalty when present."""
    rng = rng_for(hyper.seed, "shuffle", task_index)
    state = AdamState(net)
    n = task.train_x.shape[0]
    use_penalty = anchor is not None and anchor.lam > 0.0
    for _ in range(hyper.epochs):
        perm = rng.permutation(n)
        for start in range(0, n, hyper.batch_size):
            sel = perm[start : start + hyper.batch_size]
            _, cache = forward(net, task.train_x[sel])
            grads = backward(net, cache, task.train_y[sel])[1].grads
            del cache  # free the batch's activations before the next forward allocates its own
            if use_penalty:
                _, pgrads = ewc_penalty(net, anchor)
                grads = {k: g + pgrads[k] if k in pgrads else g for k, g in grads.items()}
            adam_step(net, grads, state, hyper.lr)
    return net


def evaluate_matrix(net, tasks, upto):
    """Accuracies on tasks ``0..upto-1``; argmax over the full head, ties to
    the lowest class index.  Test sets stream through ``CHUNK`` rows at a
    time, so evaluation memory does not grow with the test-set size."""
    row = []
    for k in range(upto):
        task = tasks[k]
        correct = 0
        n = task.test_x.shape[0]
        for start in range(0, n, CHUNK):
            logits, _ = forward(net, task.test_x[start : start + CHUNK])
            pred = np.argmax(logits, axis=1)
            correct += int((pred == task.test_y[start : start + CHUNK]).sum())
        row.append(correct / n)
    return row


def finalize_task(net, task, method, hyper, task_index, diagnostics=None):
    """Post-task consolidation; returns the training-ready network and the
    (single) anchor for the next task, or None for fine-tuning."""
    if method.name == "ft":
        return net, None

    if method.name == "rewc":
        # Rotated EWC: fold any previous rotation into the weights, rotate
        # fresh, anchor in the rotated space.
        if net.is_rotated():
            net = combine_network(net)
        rng_rot = rng_for(hyper.seed, "rotate", task_index)
        stats = accumulate_correlations(
            net, task.train_x, method.fim_samples, rng_rot, labels=task.train_y
        )
        if diagnostics is not None and hyper.diag_layers:
            _energy_diagnostics(net, task, hyper, task_index, diagnostics, method, "before")
        net = rotate_network(net, stats, method.scope, rotate_head=False)
        if diagnostics is not None and hyper.diag_layers:
            _energy_diagnostics(net, task, hyper, task_index, diagnostics, method, "after")
    rng_fim = rng_for(hyper.seed, "fim", task_index)
    fim = estimate_diag_fim(
        net, task.train_x, method.fim_samples, method.fim_mode, rng_fim, task.train_y
    )
    return net, make_anchor(net, fim, method.lam)


def _energy_diagnostics(net, task, hyper, task_index, diagnostics, method, key):
    """Full-FIM diagonal-energy ratios for the requested layers."""
    entry = diagnostics.setdefault("diag_energy", {}).setdefault(str(task_index), {})
    for idx in hyper.diag_layers:
        rec = entry.setdefault(str(idx), {})
        try:
            rng = rng_for(hyper.seed, "fim-diag", task_index, idx, key)
            block = estimate_full_fim_layer(
                net, task.train_x, idx, method.fim_samples,
                method.fim_mode, rng, task.train_y,
            )
        except (CapacityError, DimensionError) as e:  # diagnostic-only problems
            rec["error"] = str(e)
            continue
        rec[key] = diag_energy_ratio(block.matrix)
        if hyper.store_fim_blocks and block.matrix.shape[0] <= 400:
            rec[key + "_matrix"] = block.matrix.tolist()


def run_sequence(net, tasks, method, hyper, task_callback=None):
    """Train tasks in order, evaluating after each stage.

    Returns ``(net, EvalMatrix, diagnostics)``.  The network ends in whatever
    parameterization the method leaves it in after the final task (rotated
    layers included for the rotated method when more tasks were pending).
    ``task_callback(k, net)``, when given, fires after each task's evaluation,
    e.g. to write checkpoints.
    """
    T = len(tasks)
    if T == 0:
        raise DimensionError("task sequence is empty")
    diagnostics = {"train_seconds": [], "fim_median": [], "warnings": []}
    matrix = EvalMatrix()

    needed = max(tasks[0].class_ids) + 1
    if net.head_classes < needed:
        grow_head(net, needed - net.head_classes)
    elif net.head_classes > needed:
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
        n = len(net.layers)
        bad = [i for i in hyper.diag_layers if not 0 <= i < n]
        if bad:
            raise DimensionError(f"diag_layers {bad} out of range for a {n}-layer network")

    anchor = None
    for k in range(T):
        t0 = time.perf_counter()
        train_task(net, tasks[k], method, hyper, k, anchor)
        diagnostics["train_seconds"].append(time.perf_counter() - t0)
        matrix.add_row(evaluate_matrix(net, tasks, upto=k + 1))
        if task_callback is not None:
            task_callback(k, net)
        if k + 1 < T:
            net, anchor = finalize_task(net, tasks[k], method, hyper, k, diagnostics)
            diagnostics["fim_median"].append(anchor.fim.median() if anchor else None)
            if anchor and not any(v.any() for v in anchor.fim.values.values()):
                diagnostics["warnings"].append(
                    f"task {k}: the Fisher is zero everywhere, so its anchor protects nothing"
                )
            needed = max(tasks[k + 1].class_ids) + 1
            if needed > net.head_classes:
                grow_head(net, needed - net.head_classes)
    return net, matrix, diagnostics
