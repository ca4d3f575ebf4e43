"""Record reference outputs for every op of every workload pool.

Run from the repository root on the commit whose outputs are the
reference; it rewrites bench/reference.json and prints the time of each
chain so that the alternatives of a slot can be kept equal in cost.

Usage: python3 bench/record.py [workload ...]
"""

import json
import os
import shutil
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))
os.environ["PYTHONPATH"] = os.path.join(ROOT, "src")

import workloads  # noqa: E402
from worker import run_cli  # noqa: E402


def record(workload: str, work_dir: str) -> dict:
    refs = {}
    for chain in workloads.all_chains(workload):
        ctx: dict = {}
        t = time.perf_counter()
        for name, params, _tol in chain:
            if name == "cli":
                cache = tempfile.mkdtemp(dir=work_dir)
                result = run_cli(params["argv"], cache)
            else:
                result = workloads.run_op(name, params, ctx)
            refs[workloads.op_key(name, params)] = workloads.reference_entry(name, result)
        print(f"{workload}: {time.perf_counter() - t:7.3f}s  {workloads.op_key(*chain[0][:2])[:100]}", flush=True)
    return refs


def main() -> int:
    path = os.path.join(BENCH_DIR, "reference.json")
    refs = {}
    if os.path.exists(path):
        with open(path) as fh:
            refs = json.load(fh)
    os.makedirs(os.path.join(BENCH_DIR, "_work"), exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="record-", dir=os.path.join(BENCH_DIR, "_work"))
    try:
        for workload in sys.argv[1:] or list(workloads.WORKLOADS):
            refs[workload] = record(workload, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    with open(path, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
