"""Self-test of the benchmark's output checks.

Runs a few cheap ops (an exact count, a float exponential sum and a CLI
command), checks that each matches its recorded reference, and that the
same result fails the check once the reference is corrupted: one hex
digit of the digest changed, or a float moved by 1e-6 relative, a
thousand times the 1e-9 tolerance.

Usage (from the repository root): python3 bench/selftest.py
Exit status 0 when every check behaves, 1 otherwise.
"""

import copy
import json
import os
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))
os.environ["PYTHONPATH"] = os.path.join(ROOT, "src")

import workloads  # noqa: E402
from worker import run_cli  # noqa: E402

CASES = (
    ("local_series", "local.verify_local_solubility", {"p": 2, "k": 2, "l": 2, "t": 8, "s": 2, "which": "M"}),
    ("local_series", "expsums.s_form", {"q": 49, "a": 3, "k": 2, "l": 2, "t": 8}),
    ("cli_battery", "cli", {"argv": ["sieve", "--l", "2", "--t", "8", "--limit", "2000"]}),
)


def _corruptions(ref: dict):
    bad = copy.deepcopy(ref)
    bad["digest"] = ("0" if ref["digest"][0] != "0" else "1") + ref["digest"][1:]
    yield "digest", bad
    if ref["floats"]:
        bad = copy.deepcopy(ref)
        bad["floats"][0] = ref["floats"][0] * (1 + 1e-6) + 1e-300
        yield "float", bad


def main() -> int:
    with open(os.path.join(BENCH_DIR, "reference.json")) as fh:
        refs = json.load(fh)
    problems = []
    os.makedirs(os.path.join(BENCH_DIR, "_work"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(BENCH_DIR, "_work")) as work:
        for workload, name, params in CASES:
            tol = workloads.SERIES_TOL if name == "expsums.s_form" else workloads.EXACT
            if name == "cli":
                result = run_cli(params["argv"], os.path.join(work, "cache"))
            else:
                result = workloads.run_op(name, params, {})
            ref = refs[workload][workloads.op_key(name, params)]
            verdict = workloads.check(name, result, tol, ref)
            print(f"{name}: reference {'matches' if verdict is None else 'FAILS: ' + verdict}")
            if verdict is not None:
                problems.append(f"{name} fails its true reference")
            for what, bad in _corruptions(ref):
                verdict = workloads.check(name, result, tol, bad)
                print(f"{name}: corrupted {what} -> {verdict or 'PASSES (wrong)'}")
                if verdict is None:
                    problems.append(f"{name} passes a corrupted {what}")
    print("selftest: " + ("ok" if not problems else "; ".join(problems)))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
