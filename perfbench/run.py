"""Benchmark for rewc: times whole continual-learning task sequences.

Run from the repository root:

    python3 perfbench/run.py --workload lenet-rewc --seed 0 --seconds 50 --trace 0

``--trace 0`` reports the end-to-end metrics of untraced runs; ``--trace 1``
reports the per-module metrics of a traced run. Readable lines come first;
the last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit status is 0 when every
correctness check passed, 1 when one failed and 2 when the benchmark could
not run. The work itself happens in child processes (``worker.py``) whose
BLAS thread count is pinned; see ``perfbench/README.md``.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from worker import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# setup_s samples per run: set-up-only children, at least SETUP_CHILDREN_MIN
# and more while their set-ups took less than SETUP_SECONDS in all (short
# set-ups are the noisiest), at most SETUP_CHILDREN_MAX; plus the measuring one.
SETUP_CHILDREN_MIN = 2
SETUP_CHILDREN_MAX = 8
SETUP_SECONDS = 3.0
# Every child must have ended this many seconds after the run started.
RUN_BUDGET_S = 170.0

UNITS = {
    "run_s": "s",
    "consolidate_s": "s",
    "train_samples_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "final_avg_acc": "fraction",
}


class ChildFailed(Exception):
    pass


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def child_env():
    env = dict(os.environ)
    for var in BLAS_ENV:
        env[var] = str(BLAS_THREADS)
    return env


def spawn(mode, args, deadline):
    """Run one worker to completion and return its JSON result."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise ChildFailed(f"no time left to start the {mode} child")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired as e:
        raise ChildFailed(f"{mode} child did not finish within {remaining:.0f} s") from e
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{mode} child exited with status {proc.returncode}")
    return json.loads(lines[-1])


def summary(values, lower_is_better=True):
    """Best value, median, a tail mark and the sample count. The tail mark is
    the most extreme percentile on the worse side with at least ten samples
    beyond it, or the worst value when there are fewer than twenty samples."""
    values = sorted(values)
    n = len(values)
    if n >= 20:
        pct = int(100 * (1 - 10 / n))
        if not lower_is_better:
            pct = 100 - pct
        tail = statistics.quantiles(values, n=100)[pct - 1]
        label = f"p{pct}"
    else:
        tail, label = (values[-1], "max") if lower_is_better else (values[0], "min")
    best = values[0] if lower_is_better else values[-1]
    return {"best": best, "median": statistics.median(values), "tail": tail,
            "tail_label": label, "n": n}


def end_to_end(args, deadline):
    setups = []
    while len(setups) < SETUP_CHILDREN_MIN or (len(setups) < SETUP_CHILDREN_MAX
                                               and sum(setups) < SETUP_SECONDS):
        setups.append(spawn("setup", args, deadline)["setup_s"])
    res = spawn("measure", args, deadline)
    setups.append(res["setup_s"])
    sequences = res["sequences"]
    ok = [s for s in sequences if not s["failures"]]
    stats = {"setup_s": summary(setups)}
    values = {"setup_s": stats["setup_s"]["median"]}
    if ok:
        # Medians over the whole run: the shared host's speed drifts, for
        # seconds and for minutes, and a median over a run's samples follows
        # that drift less than the fastest sample does (perfbench/README.md).
        stats["run_s"] = summary([s["run_s"] for s in ok])
        stats["consolidate_s"] = summary([t for s in ok
                                          for t in [s["consolidate_s"]] + s["consolidate_replays_s"]])
        stats["train_samples_per_s"] = summary([s["train_samples_per_s"] for s in ok], False)
        for key in ("run_s", "consolidate_s", "train_samples_per_s"):
            values[key] = stats[key]["median"]
        stats["peak_rss_mb"] = summary([res["peak_rss_mb"]])
        # Accuracy is deterministic per stream: average it over the streams.
        per_stream = {s["seed"]: s["final_avg"] for s in ok}
        stats["final_avg_acc"] = summary([statistics.fmean(per_stream.values())])
        values["peak_rss_mb"] = stats["peak_rss_mb"]["best"]
        values["final_avg_acc"] = stats["final_avg_acc"]["best"]
    failures = [f for s in sequences for f in s["failures"]]
    return {
        "env": res["env"],
        "attempted": len(sequences),
        "failed": len(sequences) - len(ok),
        "failures": failures,
        "stats": stats,
        "sequences": sequences,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()},
    }


def traced(args, deadline):
    res = spawn("trace", args, deadline)
    units = {}
    for key in res.get("metrics", {}):
        if key.endswith(".calls"):
            units[key] = "count"
        elif key.endswith("n_max"):
            units[key] = "rows"
        elif key.endswith("n3_sum"):
            units[key] = "n3"
        elif key.endswith("backward_per_sample"):
            units[key] = "calls/sample"
        else:
            units[key] = "s"
    res["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in res.get("metrics", {}).items()}
    return res


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, default=0, help="workload seed (development seed 0)")
    p.add_argument("--seconds", type=float, default=50.0, help="measuring time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "rewc", "__init__.py")):
        print(f"perfbench: no rewc sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        res = traced(args, deadline) if args.trace else end_to_end(args, deadline)
    except ChildFailed as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2

    res["env"].update({
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "blas_threads": BLAS_THREADS,
        "workload": args.workload,
        "seed": args.seed,
        **WORKLOADS[args.workload],
    })
    print("env " + json.dumps(res["env"], sort_keys=True))
    for name, s in res.get("stats", {}).items():
        print(f"{name:20s} {res['metrics'][name]['value']:.6g} {UNITS[name]}  "
              f"(best {s['best']:.6g}  median {s['median']:.6g}  "
              f"{s['tail_label']} {s['tail']:.6g}  n={s['n']})")
    if args.trace:
        for name, m in res["metrics"].items():
            print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    for name, s in sorted(res.get("finalize_self_s", {}).items(), key=lambda kv: -kv[1]):
        print(f"finalize_task self time  {name:34s} {s:.6g} s")
    print(f"error_rate {res['failed']}/{res['attempted']}")
    for f in res["failures"]:
        print("FAILED: " + f.rstrip())

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT_DIR, stem + ".json"), "w", encoding="utf-8") as f:
        json.dump(res, f, indent=1, sort_keys=True)
    correct = not res["failures"]
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": res["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
