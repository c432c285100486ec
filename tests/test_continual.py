import numpy as np
import pytest

from rewc.continual import (
    EvalMatrix,
    Hyper,
    Method,
    evaluate_matrix,
    finalize_task,
    run_sequence,
    train_task,
)
from rewc.data import synthetic_tasks
from rewc.errors import DimensionError
from rewc.fim import ewc_penalty
from rewc.layers import Dense
from rewc.network import Network, build_network, forward, layout_signature


def small_net(seed, head=2, dim=6, hidden=(16,)):
    return build_network("mlp-custom", input_shape=(dim,), hidden=list(hidden) + [head], seed=seed)


def test_method_validation():
    with pytest.raises(ValueError):
        Method("ft", lam=1.0)
    with pytest.raises(ValueError):
        Method("sgd")
    with pytest.raises(ValueError):
        Method("ewc", lam=-3.0)
    m = Method("rewc", scope="fc_only")
    assert m.scope.value == "fc_only"


def test_unknown_fim_mode_rejected_at_construction():
    with pytest.raises(ValueError, match="bogus"):
        Method("ewc", fim_mode="bogus")


def test_empty_fim_budget_rejected_at_construction():
    # Otherwise the first consolidation divides the Fisher by zero after a whole task.
    with pytest.raises(ValueError, match="fim_samples"):
        Method("ewc", fim_samples=0)


def test_eval_matrix_shape_rules():
    m = EvalMatrix()
    m.add_row([0.5])
    with pytest.raises(DimensionError):
        m.add_row([0.5])  # must now have 2 entries
    with pytest.raises(DimensionError):
        m.add_row([0.5, 1.5])
    m.add_row([0.25, 0.75])
    assert m.per_step_avg() == [0.5, 0.5]
    assert m.final_row() == [0.25, 0.75]


def test_single_task_equals_plain_training():
    tasks = synthetic_tasks(seed=3, T=1, classes_per_task=2, dim=6)
    hyper = Hyper(epochs=3, batch_size=32, seed=1)
    net1, mat, _ = run_sequence(small_net(1), tasks, Method("ft", lam=0.0), hyper)
    assert len(mat.rows) == 1 and len(mat.rows[0]) == 1
    net2 = small_net(1)
    train_task(net2, tasks[0], Method("ft", lam=0.0), hyper, 0, None)
    row = evaluate_matrix(net2, tasks, 1)
    assert mat.rows[0][0] == row[0]


def test_ft_forgets_ewc_retains():
    tasks = synthetic_tasks(seed=7, T=2, classes_per_task=2, dim=8, noise_cond=6.0)
    hyper = Hyper(epochs=6, batch_size=32, seed=5)
    _, ft, _ = run_sequence(small_net(2, dim=8, hidden=(32, 16)), tasks, Method("ft", lam=0.0), hyper)
    _, ewc, _ = run_sequence(small_net(2, dim=8, hidden=(32, 16)), tasks, Method("ewc", lam=300.0), hyper)
    assert ft.rows[1][0] < 0.6  # task 1 collapses under plain fine-tuning
    assert ewc.rows[1][0] > ft.rows[1][0] + 0.1


def test_lambda_zero_ewc_is_bitwise_ft():
    tasks = synthetic_tasks(seed=11, T=2, classes_per_task=2, dim=6)
    hyper = Hyper(epochs=2, batch_size=32, seed=9)
    _, ft, _ = run_sequence(small_net(4), tasks, Method("ft", lam=0.0), hyper)
    _, e0, _ = run_sequence(small_net(4), tasks, Method("ewc", lam=0.0), hyper)
    assert ft.as_lists() == e0.as_lists()


def test_lambda_zero_rewc_matches_ft_evaluation():
    # rotation reparameterizes training coordinates; with lam=0 Adam updates
    # differ, so only the task-1 row (trained before any rotation) must match.
    tasks = synthetic_tasks(seed=11, T=2, classes_per_task=2, dim=6)
    hyper = Hyper(epochs=2, batch_size=32, seed=9)
    _, ft, _ = run_sequence(small_net(4), tasks, Method("ft", lam=0.0), hyper)
    _, r0, _ = run_sequence(small_net(4), tasks, Method("rewc", lam=0.0), hyper)
    assert ft.rows[0] == r0.rows[0]


def test_anchor_penalty_zero_after_finalize():
    tasks = synthetic_tasks(seed=13, T=2, classes_per_task=2, dim=6)
    hyper = Hyper(epochs=2, batch_size=32, seed=3)
    for name in ("ewc", "rewc"):
        net = small_net(6)
        train_task(net, tasks[0], Method(name, lam=50.0), hyper, 0, None)
        net2, anchor = finalize_task(net, tasks[0], Method(name, lam=50.0), hyper, 0)
        pen, grads = ewc_penalty(net2, anchor)
        assert pen == 0.0
        assert all(np.all(g == 0.0) for g in grads.values())
        if name == "rewc":
            assert net2.is_rotated()
            assert anchor.layout_hash == layout_signature(net2)


def test_rewc_finalize_preserves_function():
    tasks = synthetic_tasks(seed=17, T=2, classes_per_task=2, dim=6)
    hyper = Hyper(epochs=2, batch_size=32, seed=2)
    net = small_net(8)
    train_task(net, tasks[0], Method("rewc", lam=10.0), hyper, 0, None)
    before, _ = forward(net, tasks[0].test_x)
    net2, _ = finalize_task(net, tasks[0], Method("rewc", lam=10.0), hyper, 0)
    after, _ = forward(net2, tasks[0].test_x)
    assert np.max(np.abs(before - after)) < 1e-8


def test_ft_finalize_is_noop():
    tasks = synthetic_tasks(seed=19, T=2, classes_per_task=2, dim=6)
    net = small_net(9)
    snap = net.parameter_snapshot()
    net2, anchor = finalize_task(net, tasks[0], Method("ft", lam=0.0), Hyper(seed=0), 0)
    assert anchor is None
    assert net2 is net
    for k, v in net2.parameter_snapshot().items():
        assert np.array_equal(v, snap[k])


def test_rewc_sandwiches_do_not_accumulate():
    tasks = synthetic_tasks(seed=23, T=3, classes_per_task=2, dim=6)
    hyper = Hyper(epochs=2, batch_size=32, seed=4)
    rotated_counts = []

    def spy(k, net):
        rotated_counts.append(sum(1 for l in net.layers if l.rotated))

    net, _, _ = run_sequence(small_net(10), tasks, Method("rewc", lam=20.0), hyper,
                             task_callback=spy)
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
    from rewc.data import TaskDataset, TaskSequence

    x = rng.normal(size=(10, 4)) * 3.0
    y = np.array([0, 1] * 5)
    task = TaskDataset(0, (0, 1), x, y, x, y)
    tasks = TaskSequence([task], 2)
    hyper = Hyper(epochs=300, batch_size=10, lr=0.01, seed=0)
    _, mat, _ = run_sequence(small_net(12, dim=4, hidden=(32,)), tasks, Method("ft", lam=0.0), hyper)
    assert mat.rows[0][0] == 1.0


def test_argmax_tie_breaks_low():
    net = Network([Dense(np.zeros((3, 4)), None)], 3, 0, (4,))
    from rewc.data import TaskDataset, TaskSequence

    x = np.ones((6, 4))
    y = np.array([0, 0, 1, 1, 2, 2])
    tasks = TaskSequence([TaskDataset(0, (0, 1, 2), x, y, x, y)], 3)
    row = evaluate_matrix(net, tasks, 1)
    assert row[0] == pytest.approx(2 / 6)  # everything predicted as class 0


def test_evaluation_streams_test_set_in_chunks(monkeypatch):
    import rewc.continual as continual
    from rewc.network import CHUNK

    task = synthetic_tasks(seed=41, T=1, classes_per_task=5, train_per_class=10,
                           test_per_class=101, image_shape=(16, 16, 1))[0]
    assert task.test_x.shape[0] >= 500
    net = build_network("lenet", head_classes=5, input_shape=(16, 16, 1), seed=3)
    train_task(net, task, Method("ft", lam=0.0), Hyper(epochs=1, batch_size=16, seed=0), 0)
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
    net, _, _ = run_sequence(small_net(13), tasks, Method("ft", lam=0.0),
                             Hyper(epochs=1, batch_size=64, seed=0),
                             task_callback=lambda k, n: sizes.append(n.head_classes))
    assert sizes == [2, 4, 6]


def test_oversized_initial_head_rejected():
    tasks = synthetic_tasks(seed=31, T=2, classes_per_task=2, dim=6)
    net = small_net(14, head=5)
    with pytest.raises(DimensionError):
        run_sequence(net, tasks, Method("ft", lam=0.0), Hyper(seed=0))


def test_diagnostics_energy_ratios():
    tasks = synthetic_tasks(seed=37, T=2, classes_per_task=2, dim=6, noise_cond=10.0)
    hyper = Hyper(epochs=2, batch_size=32, seed=1, diag_layers=(0,))
    _, _, diag = run_sequence(small_net(15), tasks, Method("rewc", lam=10.0), hyper)
    entry = diag["diag_energy"]["0"]["0"]
    assert 0.0 < entry["before"] <= 1.0
    assert 0.0 < entry["after"] <= 1.0


def test_fim_budget_checked_for_consolidated_tasks_only():
    tasks = synthetic_tasks(seed=0, T=2, dim=6)
    with pytest.raises(DimensionError, match="exceeds the 400 training samples of task 0"):
        run_sequence(small_net(0), tasks, Method("rewc", fim_samples=401), Hyper(epochs=1))
    # Fine-tuning never estimates a Fisher, and the last task is never consolidated.
    run_sequence(small_net(0), tasks, Method("ft", lam=0.0, fim_samples=401), Hyper(epochs=1))
    run_sequence(small_net(0), tasks[:1], Method("ewc", fim_samples=401), Hyper(epochs=1))


@pytest.mark.parametrize("setting", [
    {"epochs": 0}, {"batch_size": 0}, {"lr": 0.0}, {"lr": -1e-3},
], ids=["epochs-0", "batch_size-0", "lr-0", "lr-negative"])
def test_hyper_rejects_degenerate_training_settings(setting):
    with pytest.raises(ValueError, match=next(iter(setting))):
        Hyper(**setting)
