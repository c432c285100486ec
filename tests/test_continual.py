import dataclasses
import re

import numpy as np
import pytest

from rewc import continual
from rewc.continual import (
    Hyper,
    Method,
    evaluate_matrix,
    finalize_task,
    run_sequence,
    train_task,
)
from rewc.data import synthetic_tasks
from rewc.errors import ConvergenceError, DimensionError
from rewc.fim import ewc_penalty
from rewc.layers import Dense
from rewc.network import Network, build_network, forward, layout_signature, parameter_digest


def small_net(seed, head=2, dim=6, hidden=(16,)):
    return build_network("mlp-custom", input_shape=(dim,), hidden=list(hidden) + [head], seed=seed)


def test_method_validation():
    with pytest.raises(ValueError):
        Method("ft", lam=1.0)
    with pytest.raises(ValueError):
        Method("sgd")
    with pytest.raises(ValueError):
        Method("ewc", lam=-3.0)
    for lam in (np.nan, np.inf):
        # NaN fails every comparison: the penalty would be dropped, as under ft.
        with pytest.raises(ValueError, match="lambda must be finite"):
            Method("rewc", lam=lam)
    assert Method("rewc", scope="fc_only").scope == "fc_only"


def test_unknown_fim_mode_rejected_at_construction():
    with pytest.raises(ValueError, match="bogus"):
        Method("ewc", fim_mode="bogus")


def test_unknown_scope_rejected_at_construction():
    with pytest.raises(ValueError, match=r"scope must be one of \('conv_only', 'fc_only', "
                                         r"'all_no_last'\), got 'all'"):
        Method("rewc", scope="all")
    assert Method("rewc", scope="conv_only").scope == "conv_only"


def test_empty_fim_budget_rejected_at_construction():
    # Otherwise the first consolidation divides the Fisher by zero after a whole task.
    with pytest.raises(ValueError, match="fim_samples"):
        Method("ewc", fim_samples=0)


def test_repeated_diag_layer_rejected_at_construction():
    # Otherwise layer 3's block is estimated twice and recorded once.
    with pytest.raises(ValueError, match=re.escape(
            "diag_layers [3, 3] repeat a layer, whose Fisher block would be estimated twice "
            "and recorded once; list each layer once")):
        Hyper(diag_layers=(3, 3))


def test_single_task_equals_plain_training():
    tasks = synthetic_tasks(seed=3, T=1, classes_per_task=2, dim=6)
    hyper = Hyper(epochs=3, batch_size=32)
    mat = run_sequence(small_net(1), tasks, Method("ft", lam=0.0), hyper).eval_matrix
    assert len(mat) == 1 and len(mat[0]) == 1
    net2 = small_net(1)
    train_task(net2, tasks[0], hyper, 0, None)
    row = evaluate_matrix(net2, tasks, 1)
    assert mat[0][0] == row[0]


def reseeded(net, seed):
    """A copy of ``net`` whose run seed is ``seed``."""
    return Network([l.clone() for l in net.layers], seed, net.input_shape)


@pytest.mark.parametrize("seed, same", [(6, True), (7, False)])
def test_training_and_consolidation_draw_from_the_network_seed(seed, same):
    # Equal weights under one Hyper: the shuffle, rotation and Fisher streams
    # follow the network's rng_seed alone.
    tasks = synthetic_tasks(seed=13, T=2, classes_per_task=2, dim=6)
    hyper = Hyper(epochs=1, batch_size=32)
    a, b = small_net(6), reseeded(small_net(6), seed)
    for net in (a, b):
        train_task(net, tasks[0], hyper, 0, None)
    assert (parameter_digest(a) == parameter_digest(b)) == same
    anchors = [finalize_task(net, tasks[0], Method("rewc", lam=10.0, fim_samples=50), 0)[1]
               for net in (a, reseeded(a, seed))]
    assert all(np.array_equal(anchors[0].theta_star[k], anchors[1].theta_star[k])
               and np.array_equal(anchors[0].fim.values[k], anchors[1].fim.values[k])
               for k in anchors[0].theta_star) == same


def test_ft_forgets_ewc_retains():
    tasks = synthetic_tasks(seed=7, T=2, classes_per_task=2, dim=8, noise_cond=6.0)
    hyper = Hyper(epochs=6, batch_size=32)
    ft = run_sequence(small_net(2, dim=8, hidden=(32, 16)), tasks, Method("ft", lam=0.0), hyper)
    ewc = run_sequence(small_net(2, dim=8, hidden=(32, 16)), tasks, Method("ewc", lam=300.0), hyper)
    assert ft.eval_matrix[1][0] < 0.6  # task 1 collapses under plain fine-tuning
    assert ewc.eval_matrix[1][0] > ft.eval_matrix[1][0] + 0.1


def test_lambda_zero_ewc_is_bitwise_ft():
    tasks = synthetic_tasks(seed=11, T=2, classes_per_task=2, dim=6)
    hyper = Hyper(epochs=2, batch_size=32)
    ft = run_sequence(small_net(4), tasks, Method("ft", lam=0.0), hyper)
    e0 = run_sequence(small_net(4), tasks, Method("ewc", lam=0.0), hyper)
    assert ft.eval_matrix == e0.eval_matrix


def test_lambda_zero_rewc_matches_ft_evaluation():
    # rotation reparameterizes training coordinates; with lam=0 Adam updates
    # differ, so only the task-1 row (trained before any rotation) must match.
    tasks = synthetic_tasks(seed=11, T=2, classes_per_task=2, dim=6)
    hyper = Hyper(epochs=2, batch_size=32)
    ft = run_sequence(small_net(4), tasks, Method("ft", lam=0.0), hyper)
    r0 = run_sequence(small_net(4), tasks, Method("rewc", lam=0.0), hyper)
    assert ft.eval_matrix[0] == r0.eval_matrix[0]


def test_anchor_penalty_zero_after_finalize():
    tasks = synthetic_tasks(seed=13, T=2, classes_per_task=2, dim=6)
    hyper = Hyper(epochs=2, batch_size=32)
    for name in ("ewc", "rewc"):
        net = small_net(6)
        train_task(net, tasks[0], hyper, 0, None)
        net2, anchor = finalize_task(net, tasks[0], Method(name, lam=50.0), 0)
        pen, grads = ewc_penalty(net2, anchor)
        assert pen == 0.0
        assert all(np.all(g == 0.0) for g in grads.values())
        if name == "rewc":
            assert net2.is_rotated()
            assert anchor.fim.layout_hash == layout_signature(net2)


def test_rewc_finalize_preserves_function():
    tasks = synthetic_tasks(seed=17, T=2, classes_per_task=2, dim=6)
    hyper = Hyper(epochs=2, batch_size=32)
    net = small_net(8)
    train_task(net, tasks[0], hyper, 0, None)
    before, _ = forward(net, tasks[0].test_x)
    net2, _ = finalize_task(net, tasks[0], Method("rewc", lam=10.0), 0)
    after, _ = forward(net2, tasks[0].test_x)
    assert np.max(np.abs(before - after)) < 1e-8


def test_finalize_task_leaves_the_trained_network_as_it_is():
    tasks = synthetic_tasks(seed=17, T=2, classes_per_task=2, dim=6)
    hyper = Hyper(epochs=1, batch_size=32)
    net = small_net(8)
    train_task(net, tasks[0], hyper, 0, None)
    for _ in range(2):  # a plain network, then a rotated one, which is combined
        layers = [l.clone() for l in net.layers]
        digest = parameter_digest(net)
        out, _ = finalize_task(net, tasks[0], Method("rewc", lam=10.0), 0)
        assert out is not net and out.is_rotated()
        assert parameter_digest(net) == digest
        for a, b in zip(layers, net.layers):
            assert a.rotated == b.rotated
            if a.rotated:
                assert np.array_equal(a.U1, b.U1) and np.array_equal(a.U2, b.U2)
        net = out


def test_ft_finalize_is_noop():
    tasks = synthetic_tasks(seed=19, T=2, classes_per_task=2, dim=6)
    net = small_net(9)
    snap = {k: p.copy() for k, p in net.params().items()}
    net2, anchor = finalize_task(net, tasks[0], Method("ft", lam=0.0), 0)
    assert anchor is None
    assert net2 is net
    for k, v in net2.params().items():
        assert np.array_equal(v, snap[k])


def test_rewc_sandwiches_do_not_accumulate():
    tasks = synthetic_tasks(seed=23, T=3, classes_per_task=2, dim=6)
    hyper = Hyper(epochs=2, batch_size=32)
    rotated_counts = []

    def spy(k, net):
        rotated_counts.append(sum(1 for l in net.layers if l.rotated))

    net = run_sequence(small_net(10), tasks, Method("rewc", lam=20.0), hyper,
                       task_callback=spy).net
    # one rotation, of the single hidden layer, never stacked
    assert rotated_counts == [0, 1, 1]
    assert len(net.layers) == 3 and net.layers[0].rotated


def test_chance_level_untrained_head():
    tasks = synthetic_tasks(seed=29, T=1, classes_per_task=10, dim=16)
    net = build_network("mlp-custom", input_shape=(16,), hidden=[32, 10], seed=31)
    row = evaluate_matrix(net, tasks, 1)
    assert abs(row[0] - 0.1) < 0.03


def test_memorize_tiny_task():
    rng = np.random.default_rng(0)
    from rewc.data import TaskDataset

    x = rng.normal(size=(10, 4)) * 3.0
    y = np.array([0, 1] * 5)
    task = TaskDataset((0, 1), x, y, x, y)
    tasks = [task]
    hyper = Hyper(epochs=300, batch_size=10, lr=0.01)
    result = run_sequence(small_net(12, dim=4, hidden=(32,)), tasks, Method("ft", lam=0.0), hyper)
    assert result.eval_matrix[0][0] == 1.0


def test_argmax_tie_breaks_low():
    net = Network([Dense(np.zeros((3, 4)), np.zeros(3))], 0, (4,))
    from rewc.data import TaskDataset

    x = np.ones((6, 4))
    y = np.array([0, 0, 1, 1, 2, 2])
    tasks = [TaskDataset((0, 1, 2), x, y, x, y)]
    row = evaluate_matrix(net, tasks, 1)
    assert row[0] == pytest.approx(2 / 6)  # everything predicted as class 0


def test_evaluation_streams_test_set_in_chunks(monkeypatch):
    import rewc.continual as continual
    from rewc.network import CHUNK

    task = synthetic_tasks(seed=41, T=1, classes_per_task=5, train_per_class=10,
                           test_per_class=101, image_shape=(16, 16, 1))[0]
    assert task.test_x.shape[0] >= 500
    net = build_network("lenet", head_classes=5, input_shape=(16, 16, 1), seed=3)
    train_task(net, task, Hyper(epochs=1, batch_size=16), 0)
    full = np.mean(np.argmax(forward(net, task.test_x)[0], axis=1) == task.test_y)

    rows = []

    def recording_forward(net, x):
        rows.append(x.shape[0])
        return forward(net, x)

    monkeypatch.setattr(continual, "forward", recording_forward)
    row = evaluate_matrix(net, [task], 1)
    assert sum(rows) == task.test_x.shape[0]
    assert max(rows) <= CHUNK
    assert row == [full]


def test_head_grows_between_tasks():
    tasks = synthetic_tasks(seed=31, T=3, classes_per_task=2, dim=6)
    sizes = []
    run_sequence(small_net(13), tasks, Method("ft", lam=0.0), Hyper(epochs=1, batch_size=64),
                 task_callback=lambda k, n: sizes.append(n.head_classes))
    assert sizes == [2, 4, 6]


def test_oversized_initial_head_rejected():
    tasks = synthetic_tasks(seed=31, T=2, classes_per_task=2, dim=6)
    net = small_net(14, head=5)
    with pytest.raises(DimensionError):
        run_sequence(net, tasks, Method("ft", lam=0.0), Hyper())


def test_diagnostics_energy_ratios():
    # Three tasks: the second consolidation starts from a rotated network.
    tasks = synthetic_tasks(seed=37, T=3, classes_per_task=2, dim=6, noise_cond=10.0)
    hyper = Hyper(epochs=2, batch_size=32, diag_layers=(0, 2))
    kept = []
    result = run_sequence(small_net(15), tasks, Method("rewc", lam=10.0), hyper,
                          task_callback=lambda k, n: kept.append(n))
    assert [len(row) for row in result.eval_matrix] == [1, 2, 3]
    assert len(result.train_seconds) == 3 and len(result.fim_median) == 2
    assert result.net is kept[-1] and result.warnings == []
    assert sorted(result.diag_energy) == ["0", "1"]
    for entry in result.diag_energy.values():
        for layer in ("0", "2"):  # the hidden layer and the head
            assert set(entry[layer]) == {"before", "after"}
            assert 0.0 < entry[layer]["before"] <= 1.0
            assert 0.0 < entry[layer]["after"] <= 1.0


def test_fim_budget_checked_for_consolidated_tasks_only():
    tasks = synthetic_tasks(seed=0, T=2, dim=6)
    with pytest.raises(DimensionError, match="exceeds the 400 training samples of task 0"):
        run_sequence(small_net(0), tasks, Method("rewc", fim_samples=401), Hyper(epochs=1))
    # Fine-tuning never estimates a Fisher, and the last task is never consolidated.
    run_sequence(small_net(0), tasks, Method("ft", lam=0.0, fim_samples=401), Hyper(epochs=1))
    run_sequence(small_net(0), tasks[:1], Method("ewc", fim_samples=401), Hyper(epochs=1))


BAD_TASKS = {
    "no-samples": (lambda t: dataclasses.replace(t, train_x=t.train_x[:0], train_y=t.train_y[:0]),
                   "has no training samples"),
    "label-short": (lambda t: dataclasses.replace(t, train_y=t.train_y[:-1]),
                    "has 400 training inputs but 399 labels"),
    "label-extra": (lambda t: dataclasses.replace(t, train_y=np.append(t.train_y, 0)),
                    "has 400 training inputs but 401 labels"),
    # Evaluation would divide by zero, or compare misaligned labels, after training.
    "no-test-samples": (lambda t: dataclasses.replace(t, test_x=t.test_x[:0], test_y=t.test_y[:0]),
                        "has no test samples"),
    "test-label-short": (lambda t: dataclasses.replace(t, test_y=t.test_y[:-1]),
                         "has 200 test inputs but 199 labels"),
    "test-label-extra": (lambda t: dataclasses.replace(t, test_y=np.append(t.test_y, 0)),
                         "has 200 test inputs but 201 labels"),
}


@pytest.mark.parametrize("method, hyper, message", [
    (Method("rewc", scope="conv_only"), Hyper(),
     "scope = conv_only selects no layer of this network, so the run would be plain EWC"),
    (Method("rewc"), Hyper(diag_layers=(1,)),
     r"diag_layers name layers without weights: 1 \(relu\)"),
], ids=["scope", "diag-layers"])
def test_rotation_rejected_before_the_first_task_trains(monkeypatch, method, hyper, message):
    trained = []
    monkeypatch.setattr(continual, "train_task", lambda *a, **kw: trained.append(a))
    with pytest.raises(DimensionError, match=message):
        run_sequence(small_net(0), synthetic_tasks(seed=0, T=2, dim=6), method, hyper)
    assert trained == []


@pytest.mark.parametrize("bad", sorted(BAD_TASKS))
@pytest.mark.parametrize("k", [0, 1])
def test_bad_task_rejected_before_the_first_task_trains(monkeypatch, k, bad):
    tasks = list(synthetic_tasks(seed=0, T=2, dim=6))
    spoil, message = BAD_TASKS[bad]
    tasks[k] = spoil(tasks[k])
    trained = []
    monkeypatch.setattr(continual, "train_task", lambda *a, **kw: trained.append(a))
    with pytest.raises(DimensionError, match=f"task {k} {message}"):
        run_sequence(small_net(0), tasks, Method("ewc"), Hyper(epochs=1))
    assert trained == []


@pytest.mark.parametrize("setting", [
    {"epochs": 0}, {"batch_size": 0}, {"lr": 0.0}, {"lr": -1e-3}, {"lr": np.inf}, {"lr": np.nan},
], ids=["epochs-0", "batch_size-0", "lr-0", "lr-negative", "lr-inf", "lr-nan"])
def test_hyper_rejects_degenerate_training_settings(setting):
    with pytest.raises(ValueError, match=next(iter(setting))):
        Hyper(**setting)


def test_non_finite_loss_fails_the_task_instead_of_recording_chance():
    tasks = synthetic_tasks(seed=3, T=2, classes_per_task=2, dim=6)
    net = small_net(0)
    net.layers[0].W[0, 0] = np.nan
    with pytest.raises(ConvergenceError,
                       match=r"task 0: the training loss is nan at epoch 0, step 0"):
        run_sequence(net, tasks, Method("ewc"), Hyper(epochs=2, batch_size=32))
