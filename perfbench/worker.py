"""One benchmark child process: set up a workload, then run task sequences.

Started by ``perfbench/run.py``, which pins the BLAS thread count in this
process's environment. Modes:

  setup    set up and exit (one ``setup_s`` sample)
  measure  set up, then run untraced task sequences for ``--seconds``
  trace    set up, then alternate untraced and traced task sequences, and
           time each layer kind at batch 64

The last stdout line is one JSON object; spans of a traced run go to
``perfbench/out/``.
"""

import argparse
import inspect
import json
import os
import resource
import statistics
import sys
import time
import traceback

from tracing import Patches, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

# streams: task streams per run. A run cycles through this many task
# sequences generated from the workload seed, so its accuracy covers a sample
# of inputs rather than one draw. Final accuracy varies between draws (0.44
# to 0.6 for one stream), so each workload gets as many streams as its
# sequence time allows; a lenet-rewc sequence takes 11-19 s, so it gets one.
# replays: repeats of a sequence's finalize_task calls after the sequence
# (see SequenceProbe.replay), for more consolidate_s samples than sequences.
# lenet-rewc's consolidation takes 9-15 s and would cost too much to repeat.
WORKLOADS = {
    "lenet-rewc": {"streams": 1, "replays": 0},
    "lenet-ewc-expected": {"streams": 4, "replays": 3},
}

# Start no sequence that would end past --seconds or past this many seconds,
# whatever --seconds asks for, so a run stays inside its time limit on a slow
# machine.
MEASURE_CAP_S = 110.0

# The network finalize_task returns must compute the forward function of the
# network it was given; logits may differ by roundoff only:
# max|a - b| <= FORWARD_RTOL * max(1, max|a|).
FORWARD_RTOL = 1e-9
PROBE_BATCH = 64

# Phase of a forward or backward call: the nearest enclosing span among these.
PHASES = {
    "continual.train_task": "train",
    "continual.evaluate_matrix": "eval",
    "rotation.accumulate_correlations": "correlate",
    "fim.estimate_diag_fim": "fim",
}
PASSES = (("forward", ("train", "eval", "correlate", "fim")),
          ("backward", ("train", "correlate", "fim")))
TABLE_KINDS = ("Conv2D", "Dense", "MeanPool2D", "FixedDense", "FixedConv1x1")
TABLE_BATCH = 64
TABLE_REPS = 15


def stream_seeds(seed, workload):
    return [seed * 1000 + j for j in range(WORKLOADS[workload]["streams"])]


class Workload:
    """The program's modules and the inputs generated from the seed."""

    def __init__(self, workload, seed, tracer=None):
        sys.path.insert(0, os.path.join(ROOT, "src"))
        import numpy as np

        import rewc
        from rewc import config, continual, fim, network, rotation, runner

        src = os.path.realpath(os.path.join(ROOT, "src"))
        if not os.path.realpath(rewc.__file__).startswith(src + os.sep):
            raise RuntimeError(f"imported rewc from {rewc.__file__}, not from {src}")
        self.np, self.continual, self.fim = np, continual, fim
        self.network, self.rotation, self.runner = network, rotation, runner
        self.seeds = stream_seeds(seed, workload)
        self.replays = WORKLOADS[workload]["replays"]
        self.patches = Patches()
        if tracer is not None:
            tracer.wrap(self.patches, config, "parse_config", "config.parse_config")
            tracer.wrap(self.patches, runner, "synthetic_tasks", "data.synthetic_tasks")
        self.cfg = config.parse_config(os.path.join(HERE, "workloads", workload + ".cfg"))
        self.streams = {s: runner.build_tasks(self.cfg, s) for s in self.seeds}
        self.patches.restore()

        # Warm-up: one training step's passes and one evaluation batch (512 is
        # evaluate_matrix's batch size).
        tasks = self.streams[self.seeds[0]]
        net = runner.build_net(self.cfg, tasks, self.seeds[0])
        batch = self.cfg["batch"]
        _, cache = network.forward(net, tasks[0].train_x[:batch])
        network.backward(net, cache, tasks[0].train_y[:batch])
        network.forward(net, tasks[0].test_x[:512])

        # run_single receives the task streams generated above instead of
        # building them again.
        self.patches.replace(runner, "build_tasks", lambda _: self._generated)

    def _generated(self, cfg, seed):
        return self.streams[seed]


class SequenceProbe:
    """Wraps ``continual.train_task`` and ``continual.finalize_task`` for one
    sequence: times them, and keeps every network finalize_task was given
    with the one it returned, for the forward check after the sequence, and
    the call's arguments and anchor, for replays."""

    def __init__(self, continual):
        self.continual = continual
        self.train_sig = inspect.signature(continual.train_task)
        self.finalize_sig = inspect.signature(continual.finalize_task)
        self.finalize = continual.finalize_task
        self.train_s = 0.0
        self.train_samples = 0
        self.consolidate_s = 0.0
        self.handoffs = []
        self.calls = []

    def install(self, patches):
        self.train_s, self.train_samples, self.consolidate_s = 0.0, 0, 0.0
        self.handoffs, self.calls = [], []
        patches.replace(self.continual, "train_task", self._timed_train)
        patches.replace(self.continual, "finalize_task", self._timed_finalize)

    def _timed_train(self, fn):
        def timed(*args, **kwargs):
            a = self.train_sig.bind(*args, **kwargs).arguments
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            self.train_s += time.perf_counter() - t0
            self.train_samples += a["task"].train_x.shape[0] * a["hyper"].epochs
            return out

        return timed

    def _timed_finalize(self, fn):
        def timed(*args, **kwargs):
            a = self.finalize_sig.bind(*args, **kwargs).arguments
            given = a["net"].clone()
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            self.consolidate_s += time.perf_counter() - t0
            self.handoffs.append((given, out[0].clone(), a["task"].test_x[:PROBE_BATCH]))
            self.calls.append((dict(a), out[1]))
            return out

        return timed

    def replay(self, times, np):
        """Repeat the sequence's finalize_task calls ``times`` times, each call
        on a copy of the network it was given and with the same arguments, so
        the same work. Returns the seconds of each repeat of the whole set of
        calls, and a message for each call whose anchor differs from the
        sequence's."""
        totals, failures = [], []
        for _ in range(times):
            total = 0.0
            for k, ((given, _, _), (a, anchor)) in enumerate(zip(self.handoffs, self.calls)):
                args = dict(a, net=given.clone())
                if args.get("diagnostics") is not None:
                    args["diagnostics"] = {}
                t0 = time.perf_counter()
                _, again = self.finalize(**args)
                total += time.perf_counter() - t0
                if not same_anchor(anchor, again, np):
                    failures.append(f"finalize_task after task {k} gave another anchor "
                                    "when repeated on the same inputs")
            totals.append(total)
        return totals, failures


def same_anchor(a, b, np):
    if a is None or b is None:
        return a is b
    return (a.lam == b.lam and a.theta_star.keys() == b.theta_star.keys()
            and a.fim.values.keys() == b.fim.values.keys()
            and all(np.array_equal(a.theta_star[k], b.theta_star[k]) for k in a.theta_star)
            and all(np.array_equal(a.fim.values[k], b.fim.values[k]) for k in a.fim.values))


def check_sequence(w, seed, record, probe, first_matrix):
    """Correctness failures of one finished sequence, as messages."""
    failures = []
    matrix = record["eval_matrix"]
    tasks = w.cfg["tasks"]
    if len(matrix) != tasks or any(len(row) != k + 1 for k, row in enumerate(matrix)):
        failures.append(f"stream {seed}: accuracy matrix is not triangular over {tasks} tasks")
    if not all(0.0 <= a <= 1.0 for row in matrix for a in row):
        failures.append(f"stream {seed}: accuracy outside [0, 1]: {matrix}")
    reference = first_matrix.setdefault(seed, matrix)
    if matrix != reference:
        failures.append(f"stream {seed}: accuracy matrix {matrix} differs from the "
                        f"first run's {reference}")
    for k, (given, returned, x) in enumerate(probe.handoffs):
        a, _ = w.network.forward(given, x)
        b, _ = w.network.forward(returned, x)
        dev = float(w.np.max(w.np.abs(a - b)))
        limit = FORWARD_RTOL * max(1.0, float(w.np.max(w.np.abs(a))))
        if not dev <= limit:
            failures.append(f"stream {seed}: finalize_task after task {k} changed the "
                            f"forward function by {dev:.3e} (limit {limit:.3e})")
    return failures


def run_sequence(w, seed, probe, first_matrix, tracer=None, label=None, replays=0):
    """One task sequence through runner.run_single, then ``replays`` replays
    of its consolidations; returns its record."""
    patches = Patches()
    if tracer is not None:
        tracer.sequence = label
        install_spans(tracer, patches, w)
    probe.install(patches)
    try:
        t0 = time.perf_counter()
        record = w.runner.run_single(w.cfg, seed)
        run_s = time.perf_counter() - t0
    except Exception:
        return {"seed": seed, "failures": [traceback.format_exc()]}
    finally:
        patches.restore()
    replayed_s, failures = probe.replay(replays, w.np)
    return {
        "seed": seed,
        "run_s": run_s,
        "consolidate_s": probe.consolidate_s,
        "consolidate_replays_s": replayed_s,
        "train_samples_per_s": probe.train_samples / probe.train_s,
        "final_avg": record["final_avg"],
        "failures": ([f"stream {seed}: {f}" for f in failures]
                     + check_sequence(w, seed, record, probe, first_matrix)),
    }


def install_spans(tracer, patches, w):
    """Trace the calls into each module, in the namespace that makes them."""
    c, r = w.continual, w.rotation
    tracer.wrap(patches, w.runner, "run_single", "runner.run_single")
    tracer.wrap(patches, w.runner, "run_sequence", "continual.run_sequence")
    for attr in ("train_task", "evaluate_matrix", "finalize_task"):
        tracer.wrap(patches, c, attr, "continual." + attr)
    tracer.wrap(patches, c, "adam_step", "optim.adam_step")
    tracer.wrap(patches, c, "ewc_penalty", "fim.ewc_penalty")
    tracer.wrap(patches, c, "estimate_diag_fim", "fim.estimate_diag_fim",
                note=lambda a: a["sample_budget"])
    for attr in ("accumulate_correlations", "rotate_network"):
        tracer.wrap(patches, c, attr, "rotation." + attr)
    tracer.wrap(patches, r, "jacobi_eigh", "linalg.jacobi_eigh", note=lambda a: len(a["A"]))
    for module in (c, r, w.fim):
        tracer.wrap(patches, module, "forward", "network.forward")
        tracer.wrap(patches, module, "backward", "network.backward")


def span_metrics(tracer, label):
    """Per-module metrics of one traced sequence."""
    calls, total, selfs = tracer.totals(label)
    m = {}
    for name in ("train_task", "evaluate_matrix", "finalize_task"):
        m[f"continual.{name}.s"] = total["continual." + name]
    for name in ("linalg.jacobi_eigh", "fim.ewc_penalty", "optim.adam_step"):
        m[name + ".calls"] = calls[name]
        m[name + ".s"] = total[name]
    sizes = [tracer.spans[i][5] for i in tracer.of(label)
             if tracer.spans[i][1] == "linalg.jacobi_eigh"]
    m["linalg.jacobi_eigh.n_max"] = max(sizes, default=0)
    m["linalg.jacobi_eigh.n3_sum"] = sum(n ** 3 for n in sizes)
    for name in ("accumulate_correlations", "rotate_network"):
        m[f"rotation.{name}.s"] = total["rotation." + name]
    m["rotation.rotate_network.self_s"] = selfs["rotation.rotate_network"]
    m["fim.estimate_diag_fim.s"] = total["fim.estimate_diag_fim"]
    for kind, phases in PASSES:
        for phase in phases:
            m[f"network.{kind}.{phase}.calls"] = 0
            m[f"network.{kind}.{phase}.s"] = 0.0
    samples = 0
    for i in tracer.of(label):
        _, name, _, t0, t1, note = tracer.spans[i]
        if name == "fim.estimate_diag_fim":
            samples += note
        elif name.startswith("network."):
            key = f"{name}.{PHASES.get(tracer.nearest(i, PHASES))}"
            if key + ".calls" in m:  # passes outside the four phases are not split out
                m[key + ".calls"] += 1
                m[key + ".s"] += t1 - t0
    m["fim.backward_per_sample"] = m["network.backward.fim.calls"] / samples if samples else 0.0
    m["runner.run_single.self_s"] = selfs["runner.run_single"]
    return m


def layer_table(w, net, x):
    """Median forward and backward seconds per layer kind at batch 64,
    summed over the network's layers of that kind; 0 for an absent kind."""
    np = w.np
    _, cache = w.network.forward(net, x)
    rng = np.random.default_rng(0)
    table = {f"layers.{k}.{p}": 0.0 for k in TABLE_KINDS for p in ("forward_s", "backward_s")}
    for i, layer in enumerate(net.layers):
        kind = type(layer).__name__
        if kind not in TABLE_KINDS:
            continue
        xin = cache.inputs[i]
        y, aux = layer.forward_cached(xin)
        g = rng.standard_normal(y.shape)
        fwd, bwd = [], []
        for _ in range(TABLE_REPS):
            t0 = time.perf_counter()
            layer.forward_cached(xin)
            t1 = time.perf_counter()
            layer.backward(xin, g, aux=aux, need_input_grad=i > 0)
            t2 = time.perf_counter()
            fwd.append(t1 - t0)
            bwd.append(t2 - t1)
        table[f"layers.{kind}.forward_s"] += statistics.median(fwd)
        table[f"layers.{kind}.backward_s"] += statistics.median(bwd)
    return table


def environment(np):
    blas = "unknown"
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{dep.get('name')} {dep.get('version')}"
    except (TypeError, KeyError):
        pass
    return {"numpy": np.__version__, "blas": blas}


def peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(w, seconds):
    probe = SequenceProbe(w.continual)
    first_matrix = {}
    sequences = []
    longest = 0.0
    t_first = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - t_first
        if len(sequences) > len(w.seeds) and not fits(elapsed, longest, seconds):
            break
        seed = w.seeds[len(sequences) % len(w.seeds)]
        t0 = time.perf_counter()
        sequences.append(run_sequence(w, seed, probe, first_matrix, replays=w.replays))
        longest = max(longest, time.perf_counter() - t0)
    return {"sequences": sequences, "peak_rss_mb": peak_rss_mib()}


def fits(elapsed, longest, seconds):
    """Whether another sequence, as long as the longest so far, would end
    within ``seconds`` (and within the cap) of the first one's start."""
    return elapsed + longest <= min(seconds, MEASURE_CAP_S)


def trace(w, tracer, seconds):
    """Alternate untraced and traced sequences on the first stream until two
    traced ones ran and ``seconds`` passed; counts must repeat exactly."""
    probe = SequenceProbe(w.continual)
    first_matrix = {}
    seed = w.seeds[0]
    untraced, traced, failures = [], [], []
    handoffs = None
    longest = 0.0
    t_first = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - t_first
        if len(traced) >= 2 and not fits(elapsed, longest, seconds):
            break
        t0 = time.perf_counter()
        if len(untraced) <= len(traced):
            res = run_sequence(w, seed, probe, first_matrix)
            untraced.append(res)
        else:
            label = f"traced-{len(traced)}"
            res = run_sequence(w, seed, probe, first_matrix, tracer, label)
            if not res["failures"]:
                res["metrics"] = span_metrics(tracer, label)
                handoffs = handoffs or probe.handoffs
            traced.append(res)
        longest = max(longest, time.perf_counter() - t0)
        failures += res["failures"]
    attempted = len(untraced) + len(traced)
    failed = sum(1 for r in untraced + traced if r["failures"])
    if failed:
        return {"attempted": attempted, "failed": failed, "failures": failures}

    runs = [r["metrics"] for r in traced]
    metrics = {}
    for key in runs[0]:
        values = [r[key] for r in runs]
        if isinstance(values[0], int) or key.endswith("backward_per_sample"):
            if len(set(values)) != 1:
                failures.append(f"count {key} differs between traced runs: {values}")
            metrics[key] = values[0]
        else:
            metrics[key] = statistics.median(values)
    _, setup_total, _ = tracer.totals("setup")
    metrics["data.synthetic_tasks.s"] = setup_total["data.synthetic_tasks"]
    metrics["config.parse_config.s"] = setup_total["config.parse_config"]
    metrics["trace.overhead_s"] = (statistics.median(r["run_s"] for r in traced)
                                   - statistics.median(r["run_s"] for r in untraced))
    x = w.streams[seed][0].train_x[:TABLE_BATCH]
    metrics.update(layer_table(w, handoffs[0][1], x))
    return {
        "attempted": attempted,
        "failed": 1 if failures else 0,
        "failures": failures,
        "metrics": metrics,
        "finalize_self_s": dict(tracer.totals("traced-0", "continual.finalize_task")[2]),
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--spawned-at", type=float, required=True,
                   help="time.monotonic() when the parent started this process")
    args = p.parse_args(argv)

    tracer = Tracer() if args.mode == "trace" else None
    w = Workload(args.workload, args.seed, tracer)
    result = {"setup_s": time.monotonic() - args.spawned_at, "env": environment(w.np)}
    if args.mode == "measure":
        result.update(measure(w, args.seconds))
    elif args.mode == "trace":
        result.update(trace(w, tracer, args.seconds))
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump(tracer.dump(), f)
        result["spans_file"] = os.path.relpath(path, ROOT)
    w.patches.restore()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
