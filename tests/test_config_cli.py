import json
import os
import re

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rewc.checkpoint import load_network, save_network
from rewc.cli import main
from rewc.config import _SCHEMA, parse_config, parse_config_text
from rewc.continual import Hyper, Method
from rewc.errors import ConfigError, DimensionError
from rewc.linalg import diag_energy_ratio
from rewc.network import build_network, parameter_digest
from rewc import plots
from rewc.plots import heatmap_svg, lineplot_svg
from rewc.util import rng_for


def test_defaults_match_documented_values():
    cfg = parse_config_text("")
    assert cfg["lambda"] == 100.0
    assert cfg["scope"] == "all_no_last"
    assert cfg["fim_samples"] == 200
    assert cfg["epochs"] == 5
    assert cfg["lr"] == 0.001
    assert cfg["batch"] == 64
    assert cfg["seeds"] == [0, 1, 2]


def test_parse_full_config():
    cfg = parse_config_text(
        """
        # experiment
        dataset = synthetic
        synth_dim = 12
        method = rewc
        lambda = 50.0
        scope = fc_only
        seeds = 4,5
        mlp_hidden = 32,16
        """
    )
    assert cfg["synth_dim"] == 12
    assert cfg["method"] == "rewc"
    assert cfg["mlp_hidden"] == [32, 16]


def test_errors_carry_line_numbers():
    with pytest.raises(ConfigError, match=r"<config>:3: unknown key 'lamda'"):
        parse_config_text("dataset = synthetic\nmethod = ewc\nlamda = 3\n")
    with pytest.raises(ConfigError, match=r":2: bad value"):
        parse_config_text("method = ewc\nepochs = three\n")
    with pytest.raises(ConfigError, match=r":2: duplicate"):
        parse_config_text("epochs = 1\nepochs = 2\n")
    with pytest.raises(ConfigError, match=r":1: expected key=value"):
        parse_config_text("this is not a config\n")


def test_semantic_validation():
    with pytest.raises(ConfigError, match="method"):
        parse_config_text("method = sgd")
    with pytest.raises(ConfigError, match="seeds"):
        parse_config_text("seeds = ")
    with pytest.raises(ConfigError, match="mnist_dir"):
        parse_config_text("dataset = mnist")
    with pytest.raises(ConfigError, match="scope must be one of"):
        parse_config_text("method = rewc\nscope = everything")
    # Method and Hyper check these ranges; the message still names the key.
    for line in ("lambda = -1", "epochs = 0", "batch = 0", "lr = 0", "fim_samples = 0",
                 "fim_mode = exact"):
        with pytest.raises(ConfigError, match=rf"<config>: {line.split()[0]}"):
            parse_config_text(line)


def test_config_builds_the_method_and_hyper_it_runs():
    cfg = parse_config_text("method = rewc\nlambda = 5\nbatch = 7\nepochs = 2\nlr = 0.5\n"
                            "fim_mode = expected\nfim_samples = 9\nscope = fc_only")
    assert cfg.method() == Method("rewc", lam=5.0, scope="fc_only", fim_samples=9,
                                  fim_mode="expected")
    assert cfg.hyper() == Hyper(epochs=2, batch_size=7, lr=0.5)
    cfg = parse_config_text("method = rewc\nlambda = 5\ndiag_layers = 2,0\n"
                            "store_fim_blocks = true")
    assert cfg.method() == Method("rewc", lam=5.0)
    assert cfg.hyper() == Hyper(diag_layers=(2, 0), store_fim_blocks=True)
    # Fine-tuning has no penalty: it runs at lambda = 0, which it never reads.
    assert parse_config_text("method = ft").method() == Method("ft", lam=0.0)


def test_scope_aliases_rejected_at_parse_time(tmp_path, capsys):
    # The head is never rotated, so ``all`` is ``all_no_last``; and conv_only
    # on a network without convolutions rotates nothing, which is plain EWC.
    with pytest.raises(ConfigError, match="use scope = all_no_last"):
        parse_config_text("method = rewc\nscope = all")
    for arch, stream in (("mlp-custom", ""), ("mlp-784-10-10-10", "synth_image = 28x28\n")):
        with pytest.raises(ConfigError, match="use method = ewc"):
            parse_config_text(f"method = rewc\narch = {arch}\n{stream}scope = conv_only")
    # Scopes that select a layer parse; a scope that the method does not read,
    # alias or not, is named as unread.
    parse_config_text("method = rewc\narch = lenet\nsynth_image = 16x16\nscope = conv_only")
    parse_config_text("method = rewc\nscope = fc_only")
    for scope in ("conv_only", "all"):
        with pytest.raises(ConfigError, match="scope not read under method = ewc; remove scope"):
            parse_config_text(f"method = ewc\nscope = {scope}")
    out = tmp_path / "results"
    cfgp = tmp_path / "alias.cfg"
    cfgp.write_text(SMALL_RUN.format(out=out).replace("method = ft", "method = rewc")
                    + "scope = conv_only\n")
    assert run_cli(["run", str(cfgp)]) == 1
    assert "use method = ewc" in capsys.readouterr().err
    assert not out.exists()


def test_synthetic_stream_of_one_class_rejected_at_parse_time():
    # One class has no closest pair to scale to synth_separation.
    with pytest.raises(ConfigError, match=r"tasks \* classes_per_task >= 2 classes, got 1"):
        parse_config_text("tasks = 1\nclasses_per_task = 1")
    parse_config_text("tasks = 2\nclasses_per_task = 1")
    parse_config_text("tasks = 1\nclasses_per_task = 2")
    parse_config_text("dataset = mnist\nmnist_dir = d\ntasks = 1")


def test_mnist_tasks_that_do_not_split_the_classes_rejected_at_parse_time():
    # The split into equal class groups would fail only after the IDX files are parsed.
    for tasks in (3, 4, 11):
        with pytest.raises(ConfigError, match=r"10 classes into equal groups; use one of "
                                              r"\[1, 2, 5, 10\]"):
            parse_config_text(f"dataset = mnist\nmnist_dir = d\ntasks = {tasks}")
    for tasks in (1, 2, 5, 10):
        parse_config_text(f"dataset = mnist\nmnist_dir = d\ntasks = {tasks}")
    parse_config_text("tasks = 3")  # a synthetic stream has any number of tasks


@pytest.mark.parametrize("text, fix", [
    ("method = ft\ndiag_layers = 0", "diag_layers not read under method = ft; remove diag_layers"),
    ("method = ewc\ndiag_layers = 0,2",
     "diag_layers not read under method = ewc; remove diag_layers"),
    ("method = ewc\ndiag_layers = ", "diag_layers not read under method = ewc; remove diag_layers"),
    ("method = rewc\nstore_fim_blocks = true",
     "store_fim_blocks not read with diag_layers empty; remove store_fim_blocks"),
    ("method = rewc\nstore_fim_blocks = false",
     "store_fim_blocks not read with diag_layers empty; remove store_fim_blocks"),
    ("method = ewc\nstore_fim_blocks = false",
     "store_fim_blocks not read under method = ewc; remove store_fim_blocks"),
    ("seeds = 0,0", "list each seed once"),
    ("seeds = 3,1,3", "list each seed once"),
    ("method = rewc\ndiag_layers = 0,0", "list each layer once"),
    ("arch = lenet\nmlp_hidden = 64", "remove mlp_hidden"),
    ("arch = mlp-784-10-10-10\nmlp_hidden = 10,10", "remove mlp_hidden"),
    ("synth_image = 8x8\nsynth_dim = 64",
     "synth_dim not read under synth_image = 8x8; remove synth_dim"),
    ("dataset = mnist\nmnist_dir = d\nsynth_dim = 64",
     "synth_dim not read under dataset = mnist; remove synth_dim"),
    ("dataset = mnist\nmnist_dir = d\nsynth_separation = 3\nsynth_image = 8x8",
     "synth_image, synth_separation not read under dataset = mnist"),
    ("dataset = mnist\nmnist_dir = d\nclasses_per_task = 5",
     "classes_per_task not read under dataset = mnist"),
    ("mnist_dir = d", "mnist_dir not read under dataset = synthetic"),
    ("dataset = synthetic\nmnist_pad = false", "remove mnist_pad"),
    ("method = ft\nlambda = 5", "lambda not read under method = ft; remove lambda"),
    ("method = ft\nscope = fc_only", "scope not read under method = ft; remove scope"),
    ("method = ft\nfim_samples = 50",
     "fim_samples not read under method = ft; remove fim_samples"),
    ("method = ft\nfim_mode = expected", "fim_mode not read under method = ft; remove fim_mode"),
    ("method = ewc\nscope = fc_only", "scope not read under method = ewc; remove scope"),
    ("tasks = 1\nmethod = ft", "method not read under tasks = 1; remove method"),
    ("tasks = 1\nlambda = 5", "lambda not read under tasks = 1; remove lambda"),
    ("tasks = 1\nfim_samples = 7", "fim_samples not read under tasks = 1; remove fim_samples"),
    ("tasks = 1\nfim_mode = expected", "fim_mode not read under tasks = 1; remove fim_mode"),
    ("tasks = 1\nscope = fc_only", "scope not read under tasks = 1; remove scope"),
    ("tasks = 1\ndiag_layers = 0", "diag_layers not read under tasks = 1; remove diag_layers"),
    ("tasks = 1\nstore_fim_blocks = true",
     "store_fim_blocks not read under tasks = 1; remove store_fim_blocks"),
    ("tasks = 1\nmethod = rewc\nlambda = 5\nfim_samples = 7\nscope = fc_only\n"
     "diag_layers = 0\nstore_fim_blocks = true",
     "diag_layers, fim_samples, lambda, method, scope, store_fim_blocks not read under "
     "tasks = 1"),
], ids=["ft-diag-layers", "ewc-diag-layers", "ewc-empty-diag-layers", "blocks-without-layers",
        "no-blocks-without-layers", "no-blocks-under-ewc", "seed-twice", "seed-twice-apart",
        "diag-layer-twice", "lenet-mlp-hidden", "mlp-784-mlp-hidden", "synth-dim-and-image",
        "synth-dim-under-mnist", "synth-under-mnist", "classes-per-task-under-mnist",
        "mnist-dir-under-synthetic", "mnist-pad-under-synthetic", "ft-lambda", "ft-scope",
        "ft-fim-samples", "ft-fim-mode", "ewc-scope", "one-task-method", "one-task-lambda",
        "one-task-fim-samples", "one-task-fim-mode", "one-task-scope", "one-task-diag-layers",
        "one-task-fim-blocks", "one-task-rewc"])
def test_settings_that_do_nothing_rejected_at_parse_time(text, fix):
    # Each is dropped without a word at run time, or (a repeated seed)
    # overwrites its record and counts it twice in the aggregate, or (a
    # repeated diag_layers entry) estimates a Fisher block twice.
    with pytest.raises(ConfigError, match=fix):
        parse_config_text(text)
    parse_config_text("method = rewc\ndiag_layers = 0\nstore_fim_blocks = true\nseeds = 0,1")
    # Only keys the file writes count, never their defaults.
    parse_config_text("arch = lenet\nsynth_image = 16x16")
    parse_config_text("dataset = mnist\nmnist_dir = d\nmnist_pad = false\narch = mlp-784-10-10-10")
    parse_config_text("arch = mlp-custom\nmlp_hidden = 8\nsynth_dim = 4\nsynth_noise_cond = 2")


@pytest.mark.parametrize("text, kwargs", [
    ("arch = lenet\nsynth_image = 16x16\nclasses_per_task = 3",
     {"arch": "lenet", "head_classes": 3, "input_shape": (16, 16, 1)}),
    ("dataset = mnist\nmnist_dir = d\nmnist_pad = false\narch = mlp-784-10-10-10\ntasks = 2",
     {"arch": "mlp-784-10-10-10", "head_classes": 5, "input_shape": (28, 28, 1)}),
    ("arch = mlp-custom\nmlp_hidden = 6\nsynth_dim = 5",
     {"arch": "mlp-custom", "input_shape": (5,), "hidden": [6, 2]}),
], ids=["lenet", "mlp-784", "mlp-custom"])
def test_build_net_sizes_the_network_from_the_config(text, kwargs):
    from rewc.data import TaskDataset
    from rewc.runner import build_net

    def task(classes, shape):
        x, y = np.zeros((len(classes),) + shape), np.array(classes)
        return TaskDataset(classes, x, y, x, y)

    cfg = parse_config_text(text)
    shape, head = cfg.stream_shape()
    assert shape == kwargs["input_shape"]
    classes = tuple(range(head))
    net = build_net(cfg, [task(classes, shape), task((head,), shape)], seed=4)
    assert parameter_digest(net) == parameter_digest(build_network(seed=4, **kwargs))
    # A stream other than the one the config describes is refused.
    for tasks in ([task(classes + (head,), shape)], [task(classes, (3,) + shape)]):
        with pytest.raises(DimensionError, match="the config describes"):
            build_net(cfg, tasks, seed=4)


@pytest.mark.parametrize("text, message", [
    ("arch = lenet", r"arch = lenet cannot run on this stream's \(8,\) inputs: lenet expects "
                     r"\(H, W, C\) input"),
    ("arch = lenet\nsynth_image = 8x8", r"lenet needs at least 16x16 input, got \(8, 8, 1\)"),
    ("arch = lenet\nsynth_image = 15x15", r"lenet needs at least 16x16 input, got \(15, 15, 1\)"),
    ("arch = mlp-784-10-10-10\nsynth_image = 32x32", "requires 784 input features"),
    ("dataset = mnist\nmnist_dir = d\narch = mlp-784-10-10-10",
     r"\(32, 32, 1\) inputs: mlp-784-10-10-10 requires 784 input features"),
    ("classes_per_task = 5\nfim_samples = 5000",
     r"fim_samples 5000 exceeds the 1000 training rows of a synthetic task \(200 per class\)"),
    ("method = rewc\ndiag_layers = 0,99", r"diag_layers \[99\] out of range for a 3-layer"),
    ("method = rewc\ndiag_layers = 1,0", r"diag_layers name layers without weights: 1 \(relu\)"),
], ids=["lenet-flat", "lenet-8x8", "lenet-15x15", "mlp-784-32x32", "mlp-784-padded-mnist",
        "fim-samples", "diag-layer-missing", "diag-layer-relu"])
def test_settings_the_run_would_fail_on_rejected_at_parse_time(text, message):
    # Each used to parse and fail only once the task stream had been made.
    with pytest.raises(ConfigError, match=message):
        parse_config_text(text)
    # The Fisher budget binds only where a task is consolidated: one task is
    # never consolidated, so there fim_samples is not read at all.  16x16 is
    # the smallest image lenet takes.
    with pytest.raises(ConfigError, match="fim_samples not read under tasks = 1"):
        parse_config_text("tasks = 1\nfim_samples = 5000")
    for ok in ("classes_per_task = 5\nfim_samples = 1000", "arch = lenet\nsynth_image = 16x16",
               "dataset = mnist\nmnist_dir = d\nmnist_pad = false\narch = mlp-784-10-10-10"):
        parse_config_text(ok)


@pytest.mark.parametrize("seeds, outside", [
    ("0,4294967296", [4294967296]), ("-1", [-1]), ("5,-3,8589934592,2", [-3, 8589934592]),
])
def test_seeds_outside_32_bits_rejected_at_parse_time(seeds, outside):
    # rng_for keeps a seed's low 32 bits: 2^32 would rerun seed 0's streams,
    # and -1 those of seed 2^32 - 1.
    assert rng_for(2**32, "x").random() == rng_for(0, "x").random()
    assert rng_for(-1, "x").random() == rng_for(2**32 - 1, "x").random()
    with pytest.raises(ConfigError, match=re.escape(f"seeds {outside} are outside [0, 2^32)")):
        parse_config_text(f"seeds = {seeds}")
    assert parse_config_text("seeds = 0,4294967295")["seeds"] == [0, 2**32 - 1]


def test_hash_ignores_outdir_only():
    a = parse_config_text("outdir = x")
    b = parse_config_text("outdir = y")
    c = parse_config_text("epochs = 2")
    assert a.hash() == b.hash()
    assert a.hash() != c.hash()


REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("path, digest", [
    ("configs/mnist-t2.cfg", "b705ff3324763796"),
    ("configs/synthetic-t4.cfg", "c251458989310a50"),
    ("perfbench/workloads/lenet-ewc-expected.cfg", "de6d514d2efe48c3"),
    ("perfbench/workloads/lenet-rewc.cfg", "e32b2e42edfd8d5d"),
])
def test_committed_config_hashes_are_pinned(path, digest):
    # A result file is named by its config's hash: a change to the schema's
    # defaults or to how values are written renames every committed run.
    assert parse_config(os.path.join(REPO, path)).hash() == digest


def test_readme_config_table_names_every_key_once():
    with open(os.path.join(REPO, "README.md"), encoding="utf-8") as f:
        section = f.read().split("## Config format", 1)[1].split("\n## ", 1)[0]
    keys = [key for row in section.splitlines() if row.startswith("| `")
            for key in re.findall(r"`([a-z_]+)`", row.split("|")[1])]
    assert sorted(keys) == sorted(_SCHEMA)


LENET_16 = """\
dataset = synthetic
synth_image = 16x16x1
classes_per_task = 2
tasks = 3
arch = lenet
method = rewc
epochs = 1
batch = 32
fim_samples = 100
diag_layers = 0,3,7
seeds = 0
"""
with open(os.path.join(REPO, "configs", "synthetic-t4.cfg"), encoding="utf-8") as _f:
    EDIT_BASES = {"synthetic-t4": _f.read(), "lenet-16": LENET_16}
# A small pool of values for every key: in range and out, read and unread.
EDIT_POOLS = {
    "dataset": ["synthetic", "mnist"],
    "mnist_dir": ["d"],
    "mnist_pad": ["false"],
    "synth_dim": ["0", "1", "784"],
    "synth_separation": ["0", "30", "nan"],
    "synth_noise_cond": ["0.5", "20"],
    "synth_image": ["", "4x4", "8x8", "12x12", "16x16x3", "28x28", "32x32x1", "8x8x0"],
    "classes_per_task": ["0", "1", "5"],
    "tasks": ["0", "1", "5"],
    "arch": ["lenet", "mlp-784-10-10-10", "mlp-custom", "resnet"],
    "mlp_hidden": ["", "0", "8", "16,8"],
    "method": ["ft", "ewc", "rewc", "sgd"],
    "lambda": ["0", "-1", "1e4"],
    "scope": ["all", "all_no_last", "conv_only", "fc_only"],
    "epochs": ["0", "2"],
    "batch": ["0", "1", "5000"],
    "lr": ["0", "0.1"],
    "seeds": ["", "-1", "4294967296", "0,0", "3,4"],
    "fim_samples": ["0", "1", "400", "401", "1000", "5000"],
    "fim_mode": ["sampled", "expected", "true"],
    "diag_layers": ["", "0", "1", "3", "7", "99", "0,0"],
    "store_fim_blocks": ["true", "false"],
    "checkpoints": ["true"],
    "outdir": ["elsewhere"],
}


class ReachedTraining(Exception):
    pass


@st.composite
def one_line_edits(draw):
    """A base config and one edit: a key set to a value from its pool, or,
    with ``None``, the key's line deleted."""
    base = draw(st.sampled_from(sorted(EDIT_BASES)))
    key = draw(st.sampled_from(sorted(EDIT_POOLS)))
    return base, key, draw(st.none() | st.sampled_from(EDIT_POOLS[key]))


def test_edit_pools_cover_every_key():
    assert sorted(EDIT_POOLS) == sorted(_SCHEMA)


@settings(max_examples=300)
@given(edit=one_line_edits())
@example(edit=("lenet-16", "synth_image", None))
@example(edit=("lenet-16", "synth_image", "8x8"))
@example(edit=("lenet-16", "arch", "mlp-784-10-10-10"))
@example(edit=("synthetic-t4", "fim_samples", "5000"))
@example(edit=("synthetic-t4", "diag_layers", "1"))
def test_a_config_that_parses_runs_up_to_training(edit):
    # What the settings alone decide is checked at parse time: an edited
    # config either fails to parse, or passes every check that runs before
    # the first step of training.
    from rewc import continual, runner

    base, key, value = edit
    lines = [l for l in EDIT_BASES[base].splitlines() if l.partition("=")[0].strip() != key]
    text = "\n".join(lines + ([] if value is None else [f"{key} = {value}"])) + "\n"
    try:
        cfg = parse_config_text(text)
    except ConfigError:
        return
    with mock.patch.object(continual, "train_task", side_effect=ReachedTraining):
        with pytest.raises(ReachedTraining):
            runner.run_single(cfg, cfg["seeds"][0])


SMALL_RUN = """
dataset = synthetic
synth_dim = 6
classes_per_task = 2
tasks = 2
arch = mlp-custom
mlp_hidden = 16
method = ft
epochs = 3
batch = 32
seeds = 0,1
outdir = {out}
"""


def run_cli(args):
    return main(args)


def empty_config(tmp_path):
    """An empty config file: it describes the default stream."""
    path = tmp_path / "empty.cfg"
    path.write_text("")
    return str(path)


def read_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


@pytest.mark.parametrize("line, key", [
    ("classes_per_task = 0", "classes_per_task"),
    ("synth_dim = 0", "synth_dim"),
    ("mlp_hidden = 0", "mlp_hidden"),
    ("mlp_hidden = 16,-3", "mlp_hidden"),
    ("synth_separation = 0", "synth_separation"),
])
def test_data_and_width_settings_rejected_at_parse_time(tmp_path, capsys, line, key):
    with pytest.raises(ConfigError, match=key):
        parse_config_text(line)
    out = tmp_path / "results"
    kept = [l for l in SMALL_RUN.format(out=out).splitlines() if l.partition("=")[0].strip() != key]
    cfgp = tmp_path / "bad.cfg"
    cfgp.write_text("\n".join(kept + [line]) + "\n")
    assert run_cli(["run", str(cfgp)]) == 1
    assert key in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("line, key", [
    ("lambda = nan", "lambda"),
    ("lambda = inf", "lambda"),
    ("lambda = -inf", "lambda"),
    ("lr = inf", "lr"),
    ("lr = nan", "lr"),
    ("synth_separation = inf", "synth_separation"),
    ("synth_noise_cond = nan", "synth_noise_cond"),
])
def test_non_finite_numbers_rejected_before_training(tmp_path, capsys, monkeypatch, line, key):
    # NaN fails every range check's comparison: lambda = nan trained as
    # fine-tuning, and lr = inf diverged only after a whole task.
    import rewc.continual as continual

    trained = []
    monkeypatch.setattr(continual, "train_task", lambda *a, **kw: trained.append(a))
    with pytest.raises(ConfigError, match=rf"<config>:2: bad value for {key}: not a finite number"):
        parse_config_text(f"method = ewc\n{line}\n")
    out = tmp_path / "results"
    cfgp = tmp_path / "bad.cfg"
    cfgp.write_text(SMALL_RUN.format(out=out).replace("method = ft", "method = ewc") + line + "\n")
    assert run_cli(["run", str(cfgp)]) == 1
    assert f"bad value for {key}: not a finite number" in capsys.readouterr().err
    assert trained == []
    assert not out.exists()


def test_cli_run_end_to_end(tmp_path, capsys):
    cfgp = tmp_path / "exp.cfg"
    out = tmp_path / "results"
    cfgp.write_text(SMALL_RUN.format(out=out))
    assert run_cli(["run", str(cfgp)]) == 0
    paths = capsys.readouterr().out.strip().splitlines()
    assert len(paths) == 3  # 2 seeds + aggregate
    agg = read_json([p for p in paths if "aggregate" in os.path.basename(p)][0])
    assert agg["status"] == "ok"
    assert len(agg["final_per_task_mean"]) == 2
    per_seed = read_json(paths[0])
    assert len(per_seed["eval_matrix"]) == 2
    assert len(per_seed["eval_matrix"][1]) == 2
    # fine-tuning forgets: task-1 accuracy drops from its initial value
    assert per_seed["eval_matrix"][1][0] < per_seed["eval_matrix"][0][0]


def test_cli_run_deterministic_payloads(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        cfgp = tmp_path / f"exp-{out.name}.cfg"
        cfgp.write_text(SMALL_RUN.format(out=out))
        assert run_cli(["run", str(cfgp)]) == 0

    def strip(payload):
        payload.pop("timing", None)
        payload["config"].pop("outdir", None)
        return payload

    for name in sorted(os.listdir(out_a)):
        a = strip(read_json(out_a / name))
        b = strip(read_json(out_b / name))
        assert a == b, name


def test_aggregate_means_recomputable(tmp_path, capsys):
    cfgp = tmp_path / "exp.cfg"
    cfgp.write_text(SMALL_RUN.format(out=tmp_path / "r"))
    run_cli(["run", str(cfgp)])
    paths = capsys.readouterr().out.strip().splitlines()
    seeds = [read_json(p) for p in paths if "seed" in os.path.basename(p)]
    agg = read_json([p for p in paths if "aggregate" in os.path.basename(p)][0])
    finals = np.array([r["final_per_task"] for r in seeds])
    assert np.max(np.abs(finals.mean(axis=0) - np.array(agg["final_per_task_mean"]))) < 1e-12


def test_lambda_sweep_structure(tmp_path):
    outs = []
    for lam in (1, 10, 100, 1000, 10000):
        cfgp = tmp_path / f"lam{lam}.cfg"
        cfgp.write_text(
            SMALL_RUN.format(out=tmp_path / "sweep")
            .replace("method = ft", "method = ewc")
            .replace("seeds = 0,1", "seeds = 0")
            .replace("epochs = 3", "epochs = 1")
            + f"lambda = {lam}\n"
        )
        assert run_cli(["run", str(cfgp)]) == 0
    aggs = [f for f in os.listdir(tmp_path / "sweep") if "aggregate" in f]
    assert len(aggs) == 5  # one aggregate per lambda column


def test_cli_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense_key = 1\n")
    assert run_cli(["run", str(bad)]) == 1
    assert run_cli(["run", str(tmp_path / "missing.cfg")]) == 1
    # runtime error: probe a checkpoint with an out-of-range layer
    net = build_network("mlp-custom", input_shape=(8,), hidden=[4, 2], seed=0)
    ck = tmp_path / "net.rewc"
    save_network(net, str(ck))
    data = empty_config(tmp_path)
    assert run_cli(["fim-probe", str(ck), "--layer", "99", "--data-config", data]) == 2
    capsys.readouterr()
    # the probe reads the stream of a config it is given, never a default one
    assert run_cli(["fim-probe", str(ck), "--layer", "0"]) == 1
    assert "the following arguments are required: --data-config" in capsys.readouterr().err
    # a truncated checkpoint: the reader names the truncation, no traceback
    ck.write_bytes(ck.read_bytes()[:-5])
    assert run_cli(["fim-probe", str(ck), "--layer", "0", "--samples", "4",
                    "--data-config", data]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "checkpoint truncated" in err
    assert "Traceback" not in err


def test_cli_probe_rejects_a_version_1_checkpoint(tmp_path, capsys):
    ck = tmp_path / "old.rewc"
    save_network(build_network("mlp-custom", input_shape=(8,), hidden=[4, 2], seed=0), str(ck))
    data = ck.read_bytes()
    assert data[:8] == b"REWC" + (3).to_bytes(4, "little")
    ck.write_bytes(data[:4] + (1).to_bytes(4, "little") + data[8:])
    assert run_cli(["fim-probe", str(ck), "--layer", "0", "--samples", "4",
                    "--data-config", empty_config(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err == "error: unsupported checkpoint version 1 (this build reads version 3)\n"


@pytest.mark.parametrize("kernel, message", [
    ((33, 5, 1, 6), "conv kernel larger than input"),
    ((5, 33, 1, 6), "conv kernel larger than input"),
    ((4, 4, 1, 6), "pool size 2 does not divide input"),
], ids=["conv-kernel-taller", "conv-kernel-wider", "pool-odd-input"])
def test_cli_probe_rejects_degenerate_checkpoint_geometry(tmp_path, capsys, kernel, message):
    # Saving does not validate, so a conv1 kernel swapped in after
    # construction writes a checkpoint that loading must refuse: one larger
    # than the 32x32 input, or a 4x4 one whose 29x29 output the 2x2 pool
    # cannot divide.
    net = build_network("lenet", head_classes=4, seed=0)
    net.layers[0].K = np.zeros(kernel)
    ck = tmp_path / "corrupt.rewc"
    save_network(net, str(ck))
    assert run_cli(["fim-probe", str(ck), "--layer", "0", "--samples", "4",
                    "--data-config", empty_config(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert "Traceback" not in err


def test_heatmap_svg_structure(tmp_path):
    path = tmp_path / "h.svg"
    heatmap_svg(np.eye(4), str(path))
    svg = path.read_text()
    cells = re.findall(r'<rect class="cell"[^>]*fill-opacity="([0-9.]+)"', svg)
    assert len(cells) == 16
    vals = np.array([float(v) for v in cells]).reshape(4, 4)
    assert np.all(vals.diagonal() == 1.0)
    assert np.all(vals[~np.eye(4, dtype=bool)] == 0.0)


def test_heatmap_constant_matrix(tmp_path):
    path = tmp_path / "c.svg"
    heatmap_svg(np.full((3, 3), 2.5), str(path))
    cells = re.findall(r'fill-opacity="([0-9.]+)"', path.read_text())
    assert len(cells) == 9 and all(float(v) == 0.0 for v in cells)


def test_lineplot_svg_structure(tmp_path):
    path = tmp_path / "l.svg"
    lineplot_svg({"ewc": [1.0, 0.7, 0.6], "rewc": [1.0, 0.8, 0.7]}, str(path))
    svg = path.read_text()
    series = re.findall(r'<polyline class="series"[^>]*points="([^"]+)"', svg)
    assert len(series) == 2
    for pts in series:
        xs = [float(p.split(",")[0]) for p in pts.split()]
        assert xs == sorted(xs)  # monotone task axis
    assert "ewc" in svg and "rewc" in svg


def plotted_series(path):
    """``{label: [accuracy, ...]}`` read back from an accuracy plot."""
    svg = path.read_text()
    lines = re.findall(r'<polyline class="series"[^>]*stroke="([^"]+)"[^>]*points="([^"]+)"', svg)
    labels = dict(re.findall(r'<text [^>]*fill="([^"]+)">([^<]+)</text>', svg))
    y0, span = plots._PLOT_H - plots._MARGIN, plots._PLOT_H - 2 * plots._MARGIN
    return {labels[color]: [(y0 - float(p.split(",")[1])) / span for p in pts.split()]
            for color, pts in lines}


def test_plot_draws_one_curve_per_file(tmp_path, capsys):
    # Every file once got the same label, so the last one drawn replaced the rest.
    cfgp = tmp_path / "exp.cfg"
    cfgp.write_text(SMALL_RUN.format(out=tmp_path / "r").replace("method = ft", "method = ewc")
                    .replace("seeds = 0,1", "seeds = 0,1,2").replace("epochs = 3", "epochs = 1"))
    assert run_cli(["run", str(cfgp)]) == 0
    paths = capsys.readouterr().out.split()
    assert run_cli(["plot", *paths, "--outdir", str(tmp_path / "p")]) == 0
    capsys.readouterr()
    series = plotted_series(tmp_path / "p" / "accuracy-vs-tasks.svg")
    assert sorted(series) == ["ewc lam=100 mean"] + [f"ewc lam=100 seed {s}" for s in (0, 1, 2)]
    agg = read_json(paths[-1])
    assert series["ewc lam=100 mean"][-1] == pytest.approx(agg["per_step_avg_mean"][-1], abs=1e-4)
    for path in paths[:-1]:
        rec = read_json(path)
        assert series[f"ewc lam=100 seed {rec['seed']}"] == pytest.approx(rec["per_step_avg"],
                                                                          abs=1e-4)


def test_plot_labels_a_repeated_curve_with_its_config_hash(tmp_path, capsys):
    paths = []
    for epochs in (1, 2):
        cfgp = tmp_path / f"e{epochs}.cfg"
        cfgp.write_text(SMALL_RUN.format(out=tmp_path / "r").replace("seeds = 0,1", "seeds = 0")
                        .replace("epochs = 3", f"epochs = {epochs}"))
        assert run_cli(["run", str(cfgp)]) == 0
        paths.append(capsys.readouterr().out.split()[0])
    assert run_cli(["plot", *paths, "--outdir", str(tmp_path / "p")]) == 0
    capsys.readouterr()
    series = plotted_series(tmp_path / "p" / "accuracy-vs-tasks.svg")
    hashes = [read_json(p)["config_hash"][:8] for p in paths]
    assert hashes[0] != hashes[1]
    assert sorted(series) == sorted(f"ft seed 0 {h}" for h in hashes)


def test_cli_plot_and_probe(tmp_path, capsys):
    cfgp = tmp_path / "exp.cfg"
    cfgp.write_text(SMALL_RUN.format(out=tmp_path / "r"))
    run_cli(["run", str(cfgp)])
    paths = capsys.readouterr().out.strip().splitlines()
    assert run_cli(["plot", *paths, "--outdir", str(tmp_path / "plots")]) == 0
    plotted = capsys.readouterr().out.strip().splitlines()
    assert any(p.endswith("accuracy-vs-tasks.svg") for p in plotted)

    net = build_network("mlp-custom", input_shape=(8,), hidden=[6, 4], seed=1)
    ck = tmp_path / "probe.rewc"
    save_network(net, str(ck))
    svg_out = tmp_path / "fim.svg"
    rc = run_cli(["fim-probe", str(ck), "--layer", "0", "--samples", "40",
                  "--data-config", empty_config(tmp_path), "--out", str(svg_out)])
    assert rc == 0
    probe = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert 0.0 <= probe["diag_energy_ratio"] <= 1.0
    assert svg_out.exists()


def test_cli_probe_takes_the_plain_layer_index_of_a_rotated_checkpoint(tmp_path, capsys):
    # A rotated layer keeps its index: --layer 0 is the first dense layer of
    # the plain and of the rotated net alike.
    from rewc.fim import estimate_full_fim_layer
    from rewc.rotation import accumulate_correlations, rotate_network
    from rewc.runner import build_tasks
    from rewc.util import rng_for

    # The stream the probe reads: the config's, at the net's seed.
    data = empty_config(tmp_path)
    tasks = build_tasks(parse_config(data), 1)
    inputs = np.concatenate([t.train_x for t in tasks])
    labels = np.concatenate([t.train_y for t in tasks])
    net = build_network("mlp-custom", input_shape=inputs.shape[1:], hidden=[6, 4], seed=1)
    stats = accumulate_correlations(net, inputs, 40, np.random.default_rng(0),
                                    scope="all_no_last")
    ck = tmp_path / "rotated.rewc"
    save_network(rotate_network(net, stats), str(ck))
    rc = run_cli(["fim-probe", str(ck), "--layer", "0", "--samples", "40",
                  "--data-config", data, "--out", str(tmp_path / "fim.svg")])
    assert rc == 0, capsys.readouterr().err
    probe = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    block = estimate_full_fim_layer(load_network(str(ck)), inputs, 0, 40, "sampled",
                                    rng=rng_for(1, "fim-probe"), labels=labels)
    assert probe["diag_energy_ratio"] == diag_energy_ratio(block)


MNIST_RUN = """
dataset = mnist
mnist_dir = {mnist}
mnist_pad = false
tasks = 2
arch = mlp-custom
mlp_hidden = 8
method = ft
epochs = 1
batch = 16
seeds = 0,1
outdir = {out}
"""


@pytest.mark.parametrize("dataset, layer", [("synthetic", 0), ("mnist", 3)])
def test_cli_probe_reads_the_stream_and_seed_of_its_checkpoint(tmp_path, capsys, dataset,
                                                               layer):
    # The probe of seed 1's checkpoint once read seed 0's stream, the
    # config's first seed, whatever run the checkpoint came from; on MNIST
    # it read the unsplit training set, in file order.
    from rewc.fim import estimate_full_fim_layer
    from rewc.runner import build_tasks, load_raw
    from rewc.util import rng_for

    cfgp = tmp_path / "two.cfg"
    if dataset == "mnist":
        (tmp_path / "mnist").mkdir()
        write_fake_mnist(tmp_path / "mnist")
        text = MNIST_RUN.format(mnist=tmp_path / "mnist", out=tmp_path / "r")
    else:
        text = SMALL_RUN.format(out=tmp_path / "r")
    cfgp.write_text(text + "checkpoints = true\n")
    assert run_cli(["run", str(cfgp)]) == 0
    capsys.readouterr()
    (ck,) = (tmp_path / "r").glob("*-seed1-task1.rewc")
    rc = run_cli(["fim-probe", str(ck), "--layer", str(layer), "--samples", "40",
                  "--data-config", str(cfgp), "--out", str(tmp_path / "fim.svg")])
    assert rc == 0, capsys.readouterr().err
    probe = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    net = load_network(str(ck))
    assert net.rng_seed == 1
    cfg = parse_config(str(cfgp))

    def ratio(inputs, labels, seed):
        return diag_energy_ratio(estimate_full_fim_layer(
            net, inputs, layer, 40, "sampled", rng=rng_for(seed, "fim-probe"), labels=labels))

    ratios = []
    for seed in (0, 1):
        tasks = build_tasks(cfg, seed)
        ratios.append(ratio(np.concatenate([t.train_x for t in tasks]),
                            np.concatenate([t.train_y for t in tasks]), seed))
    assert probe["diag_energy_ratio"] == ratios[1]
    assert ratios[0] != ratios[1]
    if dataset == "mnist":  # the file order picks other samples
        raw = load_raw(cfg)
        assert ratio(raw.train_x, raw.train_y, 1) != ratios[1]


def test_cli_probe_reads_only_the_tasks_its_checkpoint_has_seen(tmp_path, capsys):
    # A task-0 checkpoint once drew half its probe samples from task 1, whose
    # classes its head has never been trained on.
    from rewc.fim import estimate_full_fim_layer
    from rewc.runner import build_tasks
    from rewc.util import rng_for

    cfgp = tmp_path / "seed0.cfg"
    cfgp.write_text(SMALL_RUN.format(out=tmp_path / "r").replace("seeds = 0,1", "seeds = 0")
                    + "checkpoints = true\n")
    assert run_cli(["run", str(cfgp)]) == 0
    capsys.readouterr()
    (ck,) = (tmp_path / "r").glob("*-seed0-task0.rewc")
    rc = run_cli(["fim-probe", str(ck), "--layer", "0", "--samples", "40",
                  "--data-config", str(cfgp), "--out", str(tmp_path / "fim.svg")])
    assert rc == 0, capsys.readouterr().err
    probe = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    net = load_network(str(ck))
    tasks = build_tasks(parse_config(str(cfgp)), 0)

    def ratio(seen):
        return diag_energy_ratio(estimate_full_fim_layer(
            net, np.concatenate([t.train_x for t in seen]), 0, 40, "sampled",
            rng=rng_for(0, "fim-probe"), labels=np.concatenate([t.train_y for t in seen])))

    assert probe["diag_energy_ratio"] == ratio(tasks[:1])
    assert probe["diag_energy_ratio"] != ratio(tasks)

    # A head narrower than the first task's classes has seen no task.
    narrow = tmp_path / "narrow.rewc"
    save_network(build_network("mlp-custom", input_shape=(6,), hidden=[16, 1], seed=0),
                 str(narrow))
    assert run_cli(["fim-probe", str(narrow), "--layer", "0", "--data-config", str(cfgp),
                    "--out", str(tmp_path / "none.svg")]) == 1
    assert "the checkpoint's 1-class head covers no task of the stream" in capsys.readouterr().err


@pytest.mark.parametrize("samples", ["0", "-3", "many"])
def test_cli_probe_rejects_empty_budget(tmp_path, capsys, samples):
    # A usage error, found while parsing: the checkpoint, which does not
    # exist, is never opened, so no runtime error (exit 2) is reached.
    svg_out = tmp_path / "fim.svg"
    rc = run_cli(["fim-probe", str(tmp_path / "missing.rewc"), "--layer", "0",
                  "--samples", samples, "--data-config", str(tmp_path / "missing.cfg"),
                  "--out", str(svg_out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"argument --samples: must be an integer of at least 1, got '{samples}'" in err
    assert not svg_out.exists()


def test_run_record_digest_is_the_final_network(tmp_path, capsys):
    cfgp = tmp_path / "exp.cfg"
    cfgp.write_text(
        SMALL_RUN.format(out=tmp_path / "r").replace("seeds = 0,1", "seeds = 0")
        + "checkpoints = true\n"
    )
    assert run_cli(["run", str(cfgp)]) == 0
    record = read_json(capsys.readouterr().out.strip().splitlines()[0])
    # The last task is never consolidated, so its checkpoint is the final network.
    ck = sorted((tmp_path / "r").glob("*-seed0-task1.rewc"))[0]
    assert record["final_param_sha256"] == parameter_digest(load_network(str(ck)))


def test_output_root_env_override(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REWC_OUTPUT_ROOT", str(tmp_path / "root"))
    cfgp = tmp_path / "exp.cfg"
    cfgp.write_text(SMALL_RUN.format(out="rel") + "seeds = 0\nepochs = 1\n")
    # rewrite without duplicate keys
    cfgp.write_text(
        SMALL_RUN.format(out="rel").replace("seeds = 0,1", "seeds = 0").replace("epochs = 3", "epochs = 1")
    )
    assert run_cli(["run", str(cfgp)]) == 0
    paths = capsys.readouterr().out.strip().splitlines()
    assert all(str(tmp_path / "root" / "rel") in p for p in paths)


def test_partial_results_flushed_on_failure(tmp_path, monkeypatch):
    import rewc.runner as runner
    from rewc.config import parse_config_text

    cfg = parse_config_text(f"outdir = {tmp_path}/fail\nseeds = 0,1,2\n")
    real = runner.run_single
    calls = []

    def flaky(cfg_, seed, raw=None):
        calls.append(seed)
        if seed == 1:
            raise RuntimeError("simulated mid-run crash")
        return real(cfg_, seed, raw)

    monkeypatch.setattr(runner, "run_single", flaky)
    with pytest.raises(RuntimeError):
        runner.run_experiment(cfg)
    files = sorted(os.listdir(tmp_path / "fail"))
    assert any("seed0" in f for f in files)
    agg = read_json(tmp_path / "fail" / [f for f in files if "aggregate" in f][0])
    assert agg["status"] == "failed"
    assert agg["seeds"] == [0]


def test_checkpoints_written_and_loadable(tmp_path, capsys):
    from rewc.checkpoint import load_network

    cfgp = tmp_path / "exp.cfg"
    cfgp.write_text(
        SMALL_RUN.format(out=tmp_path / "ck")
        .replace("seeds = 0,1", "seeds = 0")
        .replace("epochs = 3", "epochs = 1")
        + "checkpoints = true\n"
    )
    assert run_cli(["run", str(cfgp)]) == 0
    capsys.readouterr()
    cks = [f for f in os.listdir(tmp_path / "ck") if f.endswith(".rewc")]
    assert len(cks) == 2  # one per task
    net = load_network(str(tmp_path / "ck" / sorted(cks)[0]))
    assert net.head_classes in (2, 4)


def test_plot_renders_stored_fim_heatmaps(tmp_path, capsys):
    cfgp = tmp_path / "exp.cfg"
    cfgp.write_text(
        SMALL_RUN.format(out=tmp_path / "hm")
        .replace("method = ft", "method = rewc")
        .replace("epochs = 3", "epochs = 2")
        + "diag_layers = 0\nstore_fim_blocks = true\nlambda = 10\n"
    )
    assert run_cli(["run", str(cfgp)]) == 0
    paths = capsys.readouterr().out.strip().splitlines()
    assert run_cli(["plot", *paths, "--outdir", str(tmp_path / "plots")]) == 0
    plotted = capsys.readouterr().out.strip().splitlines()
    # Before and after for the rotated layer, for each seed: the two seeds'
    # heatmaps once shared their names, so the second overwrote the first.
    h = read_json(paths[0])["config_hash"][:8]
    assert sorted(os.path.basename(p) for p in plotted if os.path.basename(p).startswith("fim-")) \
        == [f"fim-{h}-seed{s}-task0-layer0-{stage}.svg" for s in (0, 1)
            for stage in ("after", "before")]
    assert len({(tmp_path / "plots" / f"fim-{h}-seed{s}-task0-layer0-after.svg").read_text()
                for s in (0, 1)}) == 2


def test_cli_probe_sees_the_image_stream_of_its_run(tmp_path, capsys):
    cfgp = tmp_path / "img.cfg"
    cfgp.write_text(
        SMALL_RUN.format(out=tmp_path / "r").replace("seeds = 0,1", "seeds = 0")
        .replace("synth_dim = 6", "synth_image = 4x4\nsynth_noise_cond = 5\ncheckpoints = true")
    )
    assert run_cli(["run", str(cfgp)]) == 0
    capsys.readouterr()
    ck = sorted((tmp_path / "r").glob("*-seed0-task1.rewc"))[0]
    svg_out = tmp_path / "fim.svg"
    rc = run_cli(["fim-probe", str(ck), "--layer", "1", "--samples", "40",
                  "--data-config", str(cfgp), "--out", str(svg_out)])
    assert rc == 0, capsys.readouterr().err
    probe = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert 0.0 <= probe["diag_energy_ratio"] <= 1.0
    assert svg_out.exists()


def test_cli_oversized_fim_budget_fails_before_training(tmp_path, capsys):
    cfgp = tmp_path / "big.cfg"
    cfgp.write_text(
        SMALL_RUN.format(out=tmp_path / "r").replace("method = ft", "method = ewc")
        + "fim_samples = 5000\ncheckpoints = true\n"
    )
    assert run_cli(["run", str(cfgp)]) == 1
    assert "fim_samples 5000 exceeds the 400 training rows" in capsys.readouterr().err
    assert not list((tmp_path / "r").glob("*.rewc"))  # no task was trained


def test_cli_bad_diag_layer_fails_before_training(tmp_path, capsys):
    # Layer 99 does not exist; layer 1 is a ReLU, which has no weights.
    for layers, message in (("0,99", "diag_layers [99] out of range"),
                            ("1,0", "diag_layers name layers without weights: 1 (relu)")):
        cfgp = tmp_path / "diag.cfg"
        cfgp.write_text(
            SMALL_RUN.format(out=tmp_path / "r").replace("method = ft", "method = rewc")
            + f"diag_layers = {layers}\ncheckpoints = true\n"
        )
        assert run_cli(["run", str(cfgp)]) == 1
        assert message in capsys.readouterr().err
        assert not list((tmp_path / "r").glob("*.rewc"))  # no task was trained


@pytest.mark.parametrize("mode", ["sampled", "expected"])
def test_run_record_warns_of_an_all_zero_fisher(tmp_path, capsys, mode):
    # A huge step saturates the softmax, so every log-likelihood gradient,
    # sampled or in expectation, and with it every Fisher entry, is exactly
    # zero, not NaN.
    cfgp = tmp_path / "zero.cfg"
    cfgp.write_text(
        SMALL_RUN.format(out=tmp_path / "r").replace("method = ft", "method = rewc")
        .replace("seeds = 0,1", "seeds = 0") + f"fim_mode = {mode}\nlr = 1e6\n"
    )
    assert run_cli(["run", str(cfgp)]) == 0
    record = read_json(capsys.readouterr().out.split()[0])
    assert record["status"] == "ok"
    assert record["schema_version"] == 1
    assert record["fim_median_per_task"] == [0.0]
    assert record["warnings"] == [
        "task 0: the Fisher is zero everywhere, so its anchor protects nothing"
    ]
    cfgp.write_text(cfgp.read_text().replace("lr = 1e6", "lr = 1e-3"))
    assert run_cli(["run", str(cfgp)]) == 0
    assert read_json(capsys.readouterr().out.split()[0])["warnings"] == []


def test_run_record_holds_the_environment(tmp_path, capsys, monkeypatch):
    from rewc import parallel

    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    cfgp = tmp_path / "env.cfg"
    cfgp.write_text(SMALL_RUN.format(out=tmp_path / "r").replace("seeds = 0,1", "seeds = 0"))
    assert run_cli(["run", str(cfgp)]) == 0
    env = read_json(capsys.readouterr().out.split()[0])["env"]
    assert set(env) == {"numpy", "blas", "blas_version", "thread_env", "workers"}
    assert env["numpy"] == np.__version__
    assert env["thread_env"]["OPENBLAS_NUM_THREADS"] == "1"
    assert env["thread_env"]["MKL_NUM_THREADS"] is None
    assert set(env["thread_env"]) == {"OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"}
    assert env["workers"] == parallel.WORKERS


def test_cli_run_fails_on_a_diverged_task(tmp_path, capsys, monkeypatch):
    import rewc.runner as runner

    real = runner.build_net

    def nan_net(cfg, tasks, seed):
        net = real(cfg, tasks, seed)
        net.layers[0].W[0, 0] = np.nan
        return net

    monkeypatch.setattr(runner, "build_net", nan_net)
    cfgp = tmp_path / "nan.cfg"
    out = tmp_path / "r"
    cfgp.write_text(SMALL_RUN.format(out=out))
    assert run_cli(["run", str(cfgp)]) == 2
    err = capsys.readouterr().err
    assert err == "error: task 0: the training loss is nan at epoch 0, step 0\n"
    files = os.listdir(out)
    assert len(files) == 1  # no run record, only the aggregate
    agg = read_json(out / files[0])
    assert agg["status"] == "failed" and agg["seeds"] == []


def test_run_record_times_the_data(tmp_path, monkeypatch):
    import time

    import rewc.runner as runner

    real = runner.synthetic_tasks

    def slow(**kwargs):
        time.sleep(0.05)
        return real(**kwargs)

    monkeypatch.setattr(runner, "synthetic_tasks", slow)
    cfg = parse_config_text(SMALL_RUN.format(out=tmp_path / "r"))
    timing = runner.run_single(cfg, 0)["timing"]
    assert 0.05 <= timing["data_seconds"] < timing["total_seconds"]


def write_fake_mnist(directory):
    from helpers import make_idx_pair
    from rewc.data import MNIST_FILES

    rng = np.random.default_rng(0)
    for split, n in (("train", 60), ("test", 20)):
        images = rng.integers(0, 256, size=(n, 28, 28), dtype=np.uint8)
        labels = np.tile(np.arange(10, dtype=np.uint8), n // 10)
        img, lab = make_idx_pair(images, labels)
        (directory / MNIST_FILES[f"{split}_images"]).write_bytes(img)
        (directory / MNIST_FILES[f"{split}_labels"]).write_bytes(lab)


def test_mnist_is_parsed_once_per_experiment(tmp_path, monkeypatch):
    import rewc.runner as runner

    write_fake_mnist(tmp_path)
    cfg = parse_config_text(
        f"dataset = mnist\nmnist_dir = {tmp_path}\nmnist_pad = false\narch = mlp-custom\n"
        f"mlp_hidden = 8\nmethod = ewc\nfim_samples = 10\nepochs = 1\nbatch = 16\n"
        f"seeds = 0,1\noutdir = {tmp_path / 'out'}\n")
    real = runner.load_mnist
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(runner, "load_mnist", counted)
    paths = runner.run_experiment(cfg)
    assert len(calls) == 1
    got = [read_json(p) for p in paths if "aggregate" not in p]
    want = [json.loads(json.dumps(runner.run_single(cfg, seed))) for seed in (0, 1)]
    assert len(calls) == 3  # run_single without raw parses the files itself
    for g, w in zip(got, want):
        assert g.pop("timing").keys() == w.pop("timing").keys()
        assert g == w
