"""The committed golden run records (``tests/golden/records.json``).

Each case is rerun by ``tests/golden/regenerate.py`` in a child process, at
one BLAS thread as recorded.  Where ``runner.environment()`` matches the
recorded one, the record must be bit-exact, ``final_param_sha256``
included.  Anywhere, it must agree within tolerance: each accuracy within
one test sample of its task, and the diagonal-energy ratios within
``RATIO_RTOL``.  The Fisher medians get ``MEDIAN_RTOL``: a sampled label
flips under a roundoff change, and at two BLAS threads the LeNet stream's
second median moves 5.5 %.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).parent / "golden"
GOLDEN = json.loads((HERE / "records.json").read_text(encoding="utf-8"))
RATIO_RTOL = 1e-6
MEDIAN_RTOL = 0.1


def regenerate(tmp_path, threads):
    out = tmp_path / f"records-{threads}.json"
    subprocess.run([sys.executable, str(HERE / "regenerate.py"), "--out", str(out),
                    "--threads", str(threads)],
                   check=True, stdout=subprocess.DEVNULL, timeout=300)
    return json.loads(out.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    return regenerate(tmp_path_factory.mktemp("golden"), 1)


def within_tolerance(got, case):
    """Why ``got`` is outside the tolerance of the golden ``case``, or None."""
    want = case["record"]
    if got["config"] != want["config"] or got["warnings"] != want["warnings"]:
        return "config or warnings differ"
    if [len(r) for r in got["eval_matrix"]] != [len(r) for r in want["eval_matrix"]]:
        return "matrix shape differs"
    for t, (row, ref) in enumerate(zip(got["eval_matrix"], want["eval_matrix"])):
        for k, (a, b) in enumerate(zip(row, ref)):
            if round(abs(a - b) * case["test_sizes"][k]) > 1:
                return f"accuracy [{t}][{k}] {a} is more than one test sample from {b}"
    if len(got["fim_median_per_task"]) != len(want["fim_median_per_task"]):
        return "median count differs"
    for t, (a, b) in enumerate(zip(got["fim_median_per_task"], want["fim_median_per_task"])):
        if (a is None) != (b is None) or (b is not None and abs(a - b) > MEDIAN_RTOL * abs(b)):
            return f"Fisher median of task {t}: {a} against {b}"
    energy, ref = got["diag_energy"], want["diag_energy"]
    if {t: {l: set(e) for l, e in ls.items()} for t, ls in energy.items()} != \
            {t: {l: set(e) for l, e in ls.items()} for t, ls in ref.items()}:
        return "diag_energy entries differ"
    for t, layers in ref.items():
        for l, entry in layers.items():
            for stage, b in entry.items():
                a = energy[t][l][stage]
                if stage == "error" and a != b:
                    return f"task {t} layer {l}: error {a!r} against {b!r}"
                if stage in ("before", "after") and abs(a - b) > RATIO_RTOL * abs(b):
                    return f"task {t} layer {l} {stage}: ratio {a} against {b}"
    return None


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_record_bit_exact(fresh, name):
    got, want = fresh[name]["record"], GOLDEN[name]["record"]
    if got["env"] != want["env"]:
        pytest.skip(f"environment {got['env']} is not the recorded {want['env']}; "
                    "test_golden_record_within_tolerance compares")
    assert fresh[name] == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_record_within_tolerance(fresh, name):
    assert within_tolerance(fresh[name]["record"], GOLDEN[name]) is None


def test_two_blas_threads_stay_within_tolerance(tmp_path):
    # Another BLAS thread count is another environment: it changes the order
    # of sums, and with it the LeNet stream's digest.
    got = regenerate(tmp_path, 2)
    for name, case in GOLDEN.items():
        assert within_tolerance(got[name]["record"], case) is None, name


@pytest.mark.parametrize("path, value, why", [
    (("eval_matrix", 1, 0), lambda v, n: v + 2 / n, "accuracy [1][0]"),
    (("fim_median_per_task", 1), lambda v, n: v * 1.2, "Fisher median of task 1"),
    (("diag_energy", "0", "7", "after"), lambda v, n: v * (1 + 1e-5), "layer 7 after"),
    (("diag_energy", "1", "3", "error"), lambda v, n: "another", "layer 3: error"),
], ids=["two-samples", "median", "ratio", "error"])
def test_tolerance_rejects_a_moved_result(path, value, why):
    case = GOLDEN["lenet-16-rewc-diag"]
    got = json.loads(json.dumps(case["record"]))
    assert within_tolerance(got, case) is None
    *parents, last = path
    node = got
    for key in parents:
        node = node[key]
    node[last] = value(node[last], case["test_sizes"][0])
    assert why in within_tolerance(got, case)
