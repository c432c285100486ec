"""Command-line interface: run experiments, plot results, probe curvature.

Exit codes: 0 success, 1 configuration error, 2 runtime error.
"""

import argparse
import json
import os
import sys

import numpy as np

from .checkpoint import load_network
from .config import parse_config
from .errors import ConfigError, RewcError
from .fim import estimate_full_fim_layer
from .linalg import diag_energy_ratio
from .plots import heatmap_svg, lineplot_svg
from .runner import build_tasks, run_experiment
from .util import rng_for


def _at_least_one(text):
    """An argparse type: an integer of at least 1."""
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be an integer of at least 1, got {text!r}")
    return int(text)


def _build_parser():
    parser = argparse.ArgumentParser(prog="rewc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment config")
    p_run.add_argument("config", help="path to a key=value config file")

    p_plot = sub.add_parser("plot", help="emit SVG plots from result JSON files")
    p_plot.add_argument("results", nargs="+", help="result files (per-seed or aggregate)")
    p_plot.add_argument("--outdir", default=".", help="directory for the SVG files")

    p_probe = sub.add_parser("fim-probe", help="full-FIM heatmap for one layer")
    p_probe.add_argument("checkpoint", help="path to a .rewc checkpoint")
    p_probe.add_argument("--layer", type=int, required=True, help="layer index to probe")
    p_probe.add_argument("--data-config", required=True,
                         help="config of the run that saved the checkpoint: the tasks of its "
                              "stream that the checkpoint has trained on are probed")
    p_probe.add_argument("--samples", type=_at_least_one, default=200)
    p_probe.add_argument("--out", default="fim-layer.svg")
    return parser


def cmd_run(args):
    cfg = parse_config(args.config)
    paths = run_experiment(cfg)
    for p in paths:
        print(p)
    return 0


def _load_results(paths):
    out = []
    for p in paths:
        with open(p, "r", encoding="utf-8") as f:
            out.append((p, json.load(f)))
    return out


def cmd_plot(args):
    os.makedirs(args.outdir, exist_ok=True)
    results = _load_results(args.results)
    wrote = []

    curves = []
    for path, rec in results:
        steps = rec.get("per_step_avg_mean") or rec.get("per_step_avg")
        if not steps:
            print(f"warning: {path} has no per-step accuracies; skipping", file=sys.stderr)
            continue
        label = rec.get("config", {}).get("method", "run")
        lam = rec.get("config", {}).get("lambda")
        if label != "ft" and lam is not None:
            label = f"{label} lam={lam:g}"
        label += " mean" if "per_step_avg_mean" in rec else f" seed {rec.get('seed')}"
        curves.append((label, rec.get("config_hash", "")[:8], [float(s) for s in steps]))
    # One curve per file: a label that two files share gets its config hash.
    labels = [label for label, _, _ in curves]
    series = {label if labels.count(label) == 1 else f"{label} {h}": steps
              for label, h, steps in curves}
    if series:
        wrote.append(lineplot_svg(series, os.path.join(args.outdir, "accuracy-vs-tasks.svg"),
                                  title="average accuracy over seen tasks"))

    for path, rec in results:
        diag = rec.get("diag_energy") or {}
        run = f"{rec.get('config_hash', '')[:8]}-seed{rec.get('seed')}"
        found = False
        for task_key, layers in diag.items():
            for layer_key, entry in layers.items():
                for stage in ("before", "after"):
                    mat = entry.get(stage + "_matrix")
                    if mat is None:
                        continue
                    found = True
                    name = f"fim-{run}-task{task_key}-layer{layer_key}-{stage}.svg"
                    wrote.append(heatmap_svg(mat, os.path.join(args.outdir, name),
                                             title=f"task {task_key} layer {layer_key} {stage}"))
        if diag and not found:
            print(f"warning: {path} has energy ratios but no stored matrices", file=sys.stderr)

    for p in wrote:
        print(p)
    return 0


def cmd_fim_probe(args):
    """Probe at the seed of the run that saved the checkpoint (the network's ``rng_seed``),
    on the tasks of that run's stream the checkpoint has trained on: those its head covers."""
    net = load_network(args.checkpoint)
    seq = [t for t in build_tasks(parse_config(args.data_config), net.rng_seed)
           if max(t.class_ids) < net.head_classes]
    if not seq:
        raise ConfigError(f"the checkpoint's {net.head_classes}-class head covers no task of "
                          "the stream")
    inputs = np.concatenate([t.train_x for t in seq])
    labels = np.concatenate([t.train_y for t in seq])
    if inputs.shape[1:] != net.input_shape:
        raise ConfigError(
            f"probe data shape {inputs.shape[1:]} does not match network {net.input_shape}"
        )
    block = estimate_full_fim_layer(
        net, inputs, args.layer, min(args.samples, inputs.shape[0]), "sampled",
        rng_for(net.rng_seed, "fim-probe"), labels,
    )
    ratio = diag_energy_ratio(block)
    heatmap_svg(block, args.out, title=f"layer {args.layer} FIM")
    print(json.dumps({"layer": args.layer, "diag_energy_ratio": ratio, "svg": args.out}))
    return 0


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 1
    try:
        if args.command == "run":
            return cmd_run(args)
        if args.command == "plot":
            return cmd_plot(args)
        return cmd_fim_probe(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except (RewcError, OSError, ValueError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
