"""Config-driven experiment execution with machine-readable results."""

import json
import os
import time

import numpy as np

from .checkpoint import save_network
from .config import ExperimentConfig
from .continual import Hyper, Method, run_sequence
from .data import disjoint_split, load_mnist, synthetic_tasks
from .errors import ConfigError
from .network import build_network, parameter_digest

SCHEMA_VERSION = 1


def output_dir(cfg):
    root = os.environ.get("REWC_OUTPUT_ROOT", "")
    out = cfg["outdir"]
    return os.path.join(root, out) if root else out


def build_tasks(cfg, seed):
    if cfg["dataset"] == "synthetic":
        image_shape = None
        if cfg["synth_image"]:
            dims = tuple(int(p) for p in cfg["synth_image"].lower().split("x"))
            image_shape = dims if len(dims) == 3 else dims + (1,)
        return synthetic_tasks(
            seed=seed,
            T=cfg["tasks"],
            classes_per_task=cfg["classes_per_task"],
            dim=cfg["synth_dim"],
            separation=cfg["synth_separation"],
            image_shape=image_shape,
            noise_cond=cfg["synth_noise_cond"],
        )
    raw = load_mnist(cfg["mnist_dir"], pad_to_32=cfg["mnist_pad"])
    return disjoint_split(raw, cfg["tasks"], seed)


def build_net(cfg, tasks, seed):
    head = max(tasks[0].class_ids) + 1
    input_shape = tasks[0].input_shape
    arch = cfg["arch"]
    if arch == "mlp-custom":
        hidden = list(cfg["mlp_hidden"]) + [head]
        return build_network(arch, input_shape=input_shape, hidden=hidden, seed=seed)
    if arch == "mlp-784-10-10-10":
        if int(np.prod(input_shape)) != 784:
            raise ConfigError(
                "arch mlp-784-10-10-10 needs 784 input features "
                "(use mnist_pad=false for MNIST)"
            )
        return build_network(arch, head_classes=head, input_shape=input_shape, seed=seed)
    return build_network(arch, head_classes=head, input_shape=input_shape, seed=seed)


def run_single(cfg, seed):
    """One seeded run; returns the result record (timings included)."""
    t0 = time.perf_counter()
    tasks = build_tasks(cfg, seed)
    net = build_net(cfg, tasks, seed)
    method = Method(
        cfg["method"],
        lam=0.0 if cfg["method"] == "ft" else cfg["lambda"],
        scope=cfg["scope"],
        fim_samples=cfg["fim_samples"],
        fim_mode=cfg["fim_mode"],
    )
    hyper = Hyper(
        epochs=cfg["epochs"],
        batch_size=cfg["batch"],
        lr=cfg["lr"],
        seed=seed,
        diag_layers=tuple(cfg["diag_layers"]),
        store_fim_blocks=cfg["store_fim_blocks"],
    )
    callback = None
    if cfg["checkpoints"]:
        outdir = output_dir(cfg)

        def callback(k, net_k):
            save_network(net_k, os.path.join(outdir, f"{cfg.hash()}-seed{seed}-task{k}.rewc"))

    net, matrix, diagnostics = run_sequence(net, tasks, method, hyper, task_callback=callback)
    record = {
        "schema_version": SCHEMA_VERSION,
        "kind": "run",
        "status": "ok",
        "config_hash": cfg.hash(),
        "config": cfg.as_dict(),
        "seed": seed,
        "eval_matrix": matrix.as_lists(),
        "per_step_avg": matrix.per_step_avg(),
        "final_per_task": matrix.final_row(),
        "final_avg": float(np.mean(matrix.final_row())),
        "final_param_sha256": parameter_digest(net),
        "fim_median_per_task": diagnostics.get("fim_median", []),
        "diag_energy": diagnostics.get("diag_energy", {}),
        "warnings": diagnostics["warnings"],
        "timing": {
            "total_seconds": time.perf_counter() - t0,
            "train_seconds": diagnostics.get("train_seconds", []),
        },
    }
    return record


def aggregate_records(cfg, records, failed=False):
    ok = [r for r in records if r["status"] == "ok"]
    agg = {
        "schema_version": SCHEMA_VERSION,
        "kind": "aggregate",
        "status": "failed" if failed else "ok",
        "config_hash": cfg.hash(),
        "config": cfg.as_dict(),
        "seeds": [r["seed"] for r in records],
    }
    if ok:
        finals = np.array([r["final_per_task"] for r in ok])
        steps = np.array([r["per_step_avg"] for r in ok])
        agg.update(
            {
                "final_per_task_mean": finals.mean(axis=0).tolist(),
                "final_per_task_std": finals.std(axis=0).tolist(),
                "per_step_avg_mean": steps.mean(axis=0).tolist(),
                "per_step_avg_std": steps.std(axis=0).tolist(),
                "final_avg_mean": float(np.mean([r["final_avg"] for r in ok])),
                "final_avg_std": float(np.std([r["final_avg"] for r in ok])),
            }
        )
    return agg


def _write_json(payload, path):
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
    return path


def run_experiment(cfg):
    """Execute all seeds; returns written file paths.

    On a mid-run failure, everything finished so far plus a 'failed' aggregate
    is still flushed before the exception propagates.
    """
    outdir = output_dir(cfg)
    os.makedirs(outdir, exist_ok=True)
    h = cfg.hash()
    paths = []
    records = []
    try:
        for seed in cfg["seeds"]:
            record = run_single(cfg, seed)
            records.append(record)
            paths.append(_write_json(record, os.path.join(outdir, f"{h}-seed{seed}.json")))
    except Exception:
        agg = aggregate_records(cfg, records, failed=True)
        paths.append(_write_json(agg, os.path.join(outdir, f"{h}-aggregate.json")))
        raise
    agg = aggregate_records(cfg, records)
    paths.append(_write_json(agg, os.path.join(outdir, f"{h}-aggregate.json")))
    return paths
