import json
import os
import re

import numpy as np
import pytest

from rewc.checkpoint import load_network, save_network
from rewc.cli import main
from rewc.config import parse_config, parse_config_text
from rewc.errors import ConfigError
from rewc.network import build_network, parameter_digest
from rewc.plots import heatmap_svg, lineplot_svg


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
    with pytest.raises(ConfigError, match="scope"):
        parse_config_text("scope = everything")


def test_hash_ignores_outdir_only():
    a = parse_config_text("outdir = x")
    b = parse_config_text("outdir = y")
    c = parse_config_text("epochs = 2")
    assert a.hash() == b.hash()
    assert a.hash() != c.hash()


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


def test_cli_run_end_to_end(tmp_path, capsys):
    cfgp = tmp_path / "exp.cfg"
    out = tmp_path / "results"
    cfgp.write_text(SMALL_RUN.format(out=out))
    assert run_cli(["run", str(cfgp)]) == 0
    paths = capsys.readouterr().out.strip().splitlines()
    assert len(paths) == 3  # 2 seeds + aggregate
    agg = json.load(open([p for p in paths if "aggregate" in os.path.basename(p)][0]))
    assert agg["status"] == "ok"
    assert len(agg["final_per_task_mean"]) == 2
    per_seed = json.load(open(paths[0]))
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
        a = strip(json.load(open(out_a / name)))
        b = strip(json.load(open(out_b / name)))
        assert a == b, name


def test_aggregate_means_recomputable(tmp_path, capsys):
    cfgp = tmp_path / "exp.cfg"
    cfgp.write_text(SMALL_RUN.format(out=tmp_path / "r"))
    run_cli(["run", str(cfgp)])
    paths = capsys.readouterr().out.strip().splitlines()
    seeds = [json.load(open(p)) for p in paths if "seed" in os.path.basename(p)]
    agg = json.load(open([p for p in paths if "aggregate" in os.path.basename(p)][0]))
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
    assert run_cli(["fim-probe", str(ck), "--layer", "99"]) == 2
    capsys.readouterr()


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
                  "--out", str(svg_out)])
    assert rc == 0
    probe = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert 0.0 <= probe["diag_energy_ratio"] <= 1.0
    assert svg_out.exists()


def test_cli_probe_rejects_empty_budget(tmp_path, capsys):
    ck = tmp_path / "probe.rewc"
    save_network(build_network("mlp-custom", input_shape=(8,), hidden=[6, 4], seed=1), str(ck))
    svg_out = tmp_path / "fim.svg"
    rc = run_cli(["fim-probe", str(ck), "--layer", "0", "--samples", "0", "--out", str(svg_out)])
    assert rc == 2
    assert "sample budget must be at least 1" in capsys.readouterr().err
    assert not svg_out.exists()


def test_run_record_digest_is_the_final_network(tmp_path, capsys):
    cfgp = tmp_path / "exp.cfg"
    cfgp.write_text(
        SMALL_RUN.format(out=tmp_path / "r").replace("seeds = 0,1", "seeds = 0")
        + "checkpoints = true\n"
    )
    assert run_cli(["run", str(cfgp)]) == 0
    record = json.load(open(capsys.readouterr().out.strip().splitlines()[0]))
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

    def flaky(cfg_, seed):
        calls.append(seed)
        if seed == 1:
            raise RuntimeError("simulated mid-run crash")
        return real(cfg_, seed)

    monkeypatch.setattr(runner, "run_single", flaky)
    with pytest.raises(RuntimeError):
        runner.run_experiment(cfg)
    files = sorted(os.listdir(tmp_path / "fail"))
    assert any("seed0" in f for f in files)
    agg = json.load(open(tmp_path / "fail" / [f for f in files if "aggregate" in f][0]))
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
        .replace("seeds = 0,1", "seeds = 0")
        .replace("epochs = 3", "epochs = 2")
        + "diag_layers = 0\nstore_fim_blocks = true\nlambda = 10\n"
    )
    assert run_cli(["run", str(cfgp)]) == 0
    paths = capsys.readouterr().out.strip().splitlines()
    assert run_cli(["plot", *paths, "--outdir", str(tmp_path / "plots")]) == 0
    plotted = capsys.readouterr().out.strip().splitlines()
    heatmaps = [p for p in plotted if "fim-task" in os.path.basename(p)]
    assert len(heatmaps) == 2  # before and after for the rotated layer


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
    assert run_cli(["run", str(cfgp)]) == 2
    assert "fim_samples 5000 exceeds the 400 training samples of task 0" in capsys.readouterr().err
    assert not list((tmp_path / "r").glob("*.rewc"))  # no task was trained


def test_cli_bad_diag_layer_fails_before_training(tmp_path, capsys):
    cfgp = tmp_path / "diag.cfg"
    cfgp.write_text(
        SMALL_RUN.format(out=tmp_path / "r").replace("method = ft", "method = rewc")
        + "diag_layers = 0,99\ncheckpoints = true\n"
    )
    assert run_cli(["run", str(cfgp)]) == 2
    assert "diag_layers [99] out of range" in capsys.readouterr().err
    assert not list((tmp_path / "r").glob("*.rewc"))  # no task was trained


def test_run_record_warns_of_an_all_zero_fisher(tmp_path, capsys):
    # A huge step saturates the softmax, so every sampled log-likelihood
    # gradient, and with it every Fisher entry, is exactly zero.
    cfgp = tmp_path / "zero.cfg"
    cfgp.write_text(
        SMALL_RUN.format(out=tmp_path / "r").replace("method = ft", "method = rewc")
        .replace("seeds = 0,1", "seeds = 0") + "lr = 1e6\n"
    )
    assert run_cli(["run", str(cfgp)]) == 0
    record = json.load(open(capsys.readouterr().out.split()[0]))
    assert record["status"] == "ok"
    assert record["schema_version"] == 1
    assert record["fim_median_per_task"] == [0.0]
    assert record["warnings"] == [
        "task 0: the Fisher is zero everywhere, so its anchor protects nothing"
    ]
    cfgp.write_text(cfgp.read_text().replace("lr = 1e6", "lr = 1e-3"))
    assert run_cli(["run", str(cfgp)]) == 0
    assert json.load(open(capsys.readouterr().out.split()[0]))["warnings"] == []
