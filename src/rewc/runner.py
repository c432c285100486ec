"""Config-driven experiment execution with machine-readable results."""

import json
import os
import time

import numpy as np

from . import parallel
from .checkpoint import save_network
from .continual import run_sequence
from .data import disjoint_split, load_mnist, synthetic_tasks
from .errors import DimensionError
from .network import parameter_digest

SCHEMA_VERSION = 1
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def output_dir(cfg):
    root = os.environ.get("REWC_OUTPUT_ROOT", "")
    out = cfg["outdir"]
    return os.path.join(root, out) if root else out


def build_tasks(cfg, seed):
    if cfg["dataset"] == "synthetic":
        image_shape = cfg.stream_shape()[0] if cfg["synth_image"] else None
        return synthetic_tasks(
            seed=seed,
            T=cfg["tasks"],
            classes_per_task=cfg["classes_per_task"],
            dim=cfg["synth_dim"],
            separation=cfg["synth_separation"],
            image_shape=image_shape,
            noise_cond=cfg["synth_noise_cond"],
        )
    return disjoint_split(load_raw(cfg), cfg["tasks"], seed)


def load_raw(cfg):
    """The parsed MNIST files of an MNIST config; None for a synthetic one,
    whose streams are generated per seed."""
    if cfg["dataset"] != "mnist":
        return None
    return load_mnist(cfg["mnist_dir"], pad_to_32=cfg["mnist_pad"])


def build_net(cfg, tasks, seed):
    """The network that ``cfg``'s run at ``seed`` starts from, sized by the
    config; ``tasks``, the stream it runs on, must be the one it describes."""
    net = cfg.network(seed)
    got = (tasks[0].input_shape, max(tasks[0].class_ids) + 1)
    if got != (net.input_shape, net.head_classes):
        raise DimensionError(
            f"the config describes {net.input_shape} inputs and {net.head_classes} classes "
            f"in the first task, but the stream has {got[0]} and {got[1]}"
        )
    return net


def environment():
    """What a run's bits and speed depend on beyond its config: the numpy and
    BLAS builds, the BLAS thread variables as set (``None`` when unset), and
    the size of the pool the passes outside training run on."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # a numpy without the dict form
        blas = {}
    return {
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "thread_env": {var: os.environ.get(var) for var in THREAD_ENV},
        "workers": parallel.WORKERS,
    }


def run_single(cfg, seed, raw=None):
    """One seeded run; returns the result record (timings included).

    ``raw``, from ``load_raw``, is split for this seed instead of parsing the
    MNIST files again."""
    t0 = time.perf_counter()
    tasks = build_tasks(cfg, seed) if raw is None else disjoint_split(raw, cfg["tasks"], seed)
    data_seconds = time.perf_counter() - t0
    net = build_net(cfg, tasks, seed)
    callback = None
    if cfg["checkpoints"]:
        outdir = output_dir(cfg)

        def callback(k, net_k):
            save_network(net_k, os.path.join(outdir, f"{cfg.hash()}-seed{seed}-task{k}.rewc"))

    result = run_sequence(net, tasks, cfg.method(), cfg.hyper(), task_callback=callback)
    matrix = result.eval_matrix
    record = {
        "schema_version": SCHEMA_VERSION,
        "kind": "run",
        "status": "ok",
        "config_hash": cfg.hash(),
        "config": cfg.as_dict(),
        "seed": seed,
        "eval_matrix": matrix,
        "per_step_avg": [float(np.mean(row)) for row in matrix],
        "final_per_task": list(matrix[-1]),
        "final_avg": float(np.mean(matrix[-1])),
        "final_param_sha256": parameter_digest(result.net),
        "fim_median_per_task": result.fim_median,
        "diag_energy": result.diag_energy,
        "warnings": result.warnings,
        "env": environment(),
        "timing": {
            "total_seconds": time.perf_counter() - t0,
            "data_seconds": data_seconds,
            "train_seconds": result.train_seconds,
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
        raw = load_raw(cfg)
        for seed in cfg["seeds"]:
            record = run_single(cfg, seed, raw)
            records.append(record)
            paths.append(_write_json(record, os.path.join(outdir, f"{h}-seed{seed}.json")))
    except Exception:
        agg = aggregate_records(cfg, records, failed=True)
        paths.append(_write_json(agg, os.path.join(outdir, f"{h}-aggregate.json")))
        raise
    agg = aggregate_records(cfg, records)
    paths.append(_write_json(agg, os.path.join(outdir, f"{h}-aggregate.json")))
    return paths
