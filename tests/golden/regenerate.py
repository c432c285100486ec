"""Regenerate ``tests/golden/records.json``: the run records of five short
runs, without their ``timing``, at one BLAS thread.

    python tests/golden/regenerate.py                 # rewrite the committed file
    python tests/golden/regenerate.py --out PATH      # write elsewhere
    python tests/golden/regenerate.py --threads 2 --out PATH

The cases are ``configs/synthetic-t4.cfg`` at seed 0 under ft, ewc and rewc,
a 3-task 16x16 LeNet stream under rewc with diagonal-energy layers (one
of them, conv2, is over the full-Fisher cap and records its error), and the
same stream under ewc with the expected Fisher, which backpropagates the
``C - 1`` factor columns of the softmax's output Fisher, the conv bias row
included.  Each
entry keeps the config text it ran, the test-split size of every task and
the record.  ``tests/test_golden.py`` runs this script and compares.  A
change that moves a result on purpose reruns it and says in CHANGES.md what
moved and why.
"""

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
GOLDEN = os.path.join(HERE, "records.json")

LENET_STREAM = """\
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


def _override(text, drop=(), **values):
    """Config ``text`` without the keys in ``drop``, with ``values`` set last."""
    skip = set(drop) | set(values)
    kept = [l for l in text.splitlines() if l.partition("=")[0].strip() not in skip]
    return "\n".join(kept + [f"{k} = {v}" for k, v in values.items()]) + "\n"


def _synthetic_t4(method):
    """``configs/synthetic-t4.cfg`` at seed 0 under ``method``, without the
    keys that method does not read: ft has no penalty, and only rewc rotates."""
    unread = {"ft": ("lambda", "scope"), "ewc": ("scope",), "rewc": ()}[method]
    with open(os.path.join(ROOT, "configs", "synthetic-t4.cfg"), encoding="utf-8") as f:
        return _override(f.read(), drop=unread, method=method, seeds=0)


CASES = {
    "synthetic-t4-ft": _synthetic_t4("ft"),
    "synthetic-t4-ewc": _synthetic_t4("ewc"),
    "synthetic-t4-rewc": _synthetic_t4("rewc"),
    "lenet-16-rewc-diag": LENET_STREAM,
    "lenet-16-ewc-expected": _override(LENET_STREAM, drop=("diag_layers",), method="ewc",
                                       fim_mode="expected"),
}


def records():
    from rewc.config import parse_config_text
    from rewc.runner import build_tasks, run_single

    out = {}
    for name, text in CASES.items():
        cfg = parse_config_text(text, source=name)
        seed = cfg["seeds"][0]
        record = run_single(cfg, seed)
        del record["timing"]
        out[name] = {
            "config_text": text,
            "test_sizes": [int(t.test_x.shape[0]) for t in build_tasks(cfg, seed)],
            "record": record,
        }
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out", default=GOLDEN, help=f"where to write (default {GOLDEN})")
    p.add_argument("--threads", type=int, default=1, help="BLAS threads (default 1)")
    args = p.parse_args(argv)
    # Set before numpy loads: the thread count changes the order of a BLAS sum.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(args.threads)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(records(), f, indent=1, sort_keys=True)
        f.write("\n")
    print(args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
