"""waringtk benchmark: run one workload from a seed and print its metrics.

Usage (from the repository root):

    python3 bench/run.py --workload exact_counts --seed 1 --seconds 50 --trace 0

A run is a series of passes. Each pass is a fresh interpreter
(bench/worker.py) with cold lru_cache tables, as every CLI call and
script pays them, and runs every slot of the workload's pool once as a
closed loop with one caller. Passes repeat until the next one would end
after --seconds, with at least MIN_PASSES of them. numpy/BLAS threads are
held to the number of usable cores.

--trace 0 prints the end-to-end metrics: wall_s (time to run one pass's
op sequence, median over passes), op_p50_ms and op_tail_ms (op latency
over all ops of all passes, at the median and at a high percentile fixed
per workload), setup_s (fresh
interpreter to imported modules and generated inputs, median over all
set-ups), peak_rss_mb (peak RSS of the processes doing the work, median
over passes) and failed_ratio. --trace 1 runs pairs of an untraced and
a traced pass and prints the per-layer metrics of bench/tracer.py,
including the tracing overhead (median over the pairs of traced minus
untraced wall_s).

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. Exit status 2 means the run could not be
made (no waringtk sources beside the benchmark, or a pass that produced
no result); it then prints no result line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, BENCH_DIR)

import tracer  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = {"exact_counts": 3, "local_series": 4, "arc_analytic": 6, "cli_battery": 3}
MIN_SETUPS = 15
SETUPS_PER_PASS = 4
MIN_TRACE_PAIRS = 2
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10
RUN_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = (("wall_s", "s"), ("op_p50_ms", "ms"), ("op_tail_ms", "ms"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


class BenchError(Exception):
    """The run cannot produce a result."""


def _nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = str(_nproc())
    return env


def _run_worker(args, pass_index, env, work_dir, deadline, traced=False, setup_only=False, spans_out=None) -> dict:
    cmd = [
        sys.executable, os.path.join(BENCH_DIR, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--pass-index", str(pass_index),
        "--work-dir", work_dir,
    ]
    if traced:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    if spans_out:
        cmd += ["--spans-out", spans_out]
    timeout = max(5.0, deadline - time.monotonic())
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [*cmd, "--t0", repr(t0)], capture_output=True, text=True, env=env, cwd=ROOT, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass {pass_index} did not finish within {timeout:.0f}s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"pass {pass_index} exited {proc.returncode}: {proc.stderr.strip()[-400:]}")
    return json.loads(lines[-1])


def percentile(values: list[float], p: float) -> float:
    """Linear interpolation between closest ranks."""
    xs = sorted(values)
    rank = p / 100.0 * (len(xs) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (rank - lo)


def tail_percentile(workload: str, seed: int) -> float:
    """Highest ladder percentile with at least TAIL_MIN_BEYOND ops beyond
    it in the smallest run; fixed per workload so that runs compare."""
    n_min = MIN_PASSES[workload] * len(workloads.build_sequence(workload, seed, 0))
    for p in TAIL_LADDER:
        if n_min * (1.0 - p / 100.0) >= TAIL_MIN_BEYOND:
            return p
    return TAIL_LADDER[-1]


def _git_commit() -> str:
    try:
        proc = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def _source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "waringtk")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def run_passes(args) -> dict:
    env = _worker_env()
    os.makedirs(os.path.join(BENCH_DIR, "_work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=os.path.join(BENCH_DIR, "_work"))
    spans_out = None
    if args.trace:
        os.makedirs(os.path.join(BENCH_DIR, "_out"), exist_ok=True)
        spans_out = os.path.join(BENCH_DIR, "_out", f"spans_{args.workload}_seed{args.seed}.json")
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    passes, traced, setups = [], [], []
    min_passes = 2 * MIN_TRACE_PAIRS if args.trace else MIN_PASSES[args.workload]
    try:
        i = 0
        while True:
            is_traced = bool(args.trace) and i % 2 == 1
            pass_dir = os.path.join(work, f"pass{i}")
            os.makedirs(pass_dir)
            t = time.monotonic()
            res = _run_worker(
                args, i, env, pass_dir, deadline, traced=is_traced,
                spans_out=spans_out if is_traced and not traced else None,
            )
            (traced if is_traced else passes).append(res)
            setups.append(res["setup_s"])
            # set-up-only starts between passes, so that the samples are
            # spread over the run rather than taken in one burst
            for _ in range(SETUPS_PER_PASS):
                setups.append(_run_worker(args, i, env, work, deadline, setup_only=True)["setup_s"])
            last = time.monotonic() - t
            i += 1
            elapsed = time.monotonic() - start
            pair_done = not args.trace or i % 2 == 0
            if i >= min_passes and pair_done and (elapsed + last > args.seconds or elapsed + last > RUN_LIMIT_S / 2):
                break
        while len(setups) < MIN_SETUPS:
            setups.append(_run_worker(args, 0, env, work, deadline, setup_only=True)["setup_s"])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {"passes": passes, "traced": traced, "setups": setups}


def pass_wall(res: dict) -> float:
    """Time to run one pass's op sequence (the checks are not timed)."""
    return sum(op["ms"] for op in res["ops"]) / 1e3


def report(args, runs: dict) -> dict:
    passes, traced, setups = runs["passes"], runs["traced"], runs["setups"]
    all_ops = [op for res in passes + traced for op in res["ops"]]
    failures = [op for op in all_ops if op["error"]]
    latencies = [op["ms"] for res in passes for op in res["ops"]]
    tail_p = tail_percentile(args.workload, args.seed)
    beyond = int(len(latencies) * (1.0 - tail_p / 100.0))

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(passes)} untraced + {len(traced)} traced, ops/pass={len(passes[0]['ops'])}")
    for op in failures[:10]:
        print(f"FAILED {workloads.op_key(op['name'], op['params'])[:120]}: {op['error']}")
    e2e = {
        "wall_s": statistics.median(pass_wall(res) for res in passes),
        "op_p50_ms": statistics.median(latencies),
        "op_tail_ms": percentile(latencies, tail_p),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(res["rss_kb"] / 1024.0 for res in passes),
    }
    samples = {
        "wall_s": f"median of {len(passes)} passes",
        "op_p50_ms": f"median of {len(latencies)} ops",
        "op_tail_ms": f"p{tail_p:g} of {len(latencies)} ops, {beyond} beyond",
        "setup_s": f"median of {len(setups)} fresh interpreters",
        "peak_rss_mb": f"median of {len(passes)} per-pass peaks",
    }
    for name, unit in END_TO_END:
        print(f"  {name:<13} = {e2e[name]:12.4f} {unit:<3} ({samples[name]})")
    ratio = len(failures) / len(all_ops)
    print(f"  {'failed_ratio':<13} = {ratio:12.4f}     ({len(failures)} of {len(all_ops)} ops failed)")

    if args.trace:
        layers = {
            name: statistics.median(res["layers"][name] for res in traced) for name, _ in tracer.LAYER_METRICS
        }
        untraced_walls = [pass_wall(res) for res in passes]
        layers["trace.overhead_s"] = statistics.median(
            pass_wall(t) - u for t, u in zip(traced, untraced_walls)
        )
        units = dict(tracer.LAYER_METRICS)
        print(f"  per-layer metrics: median of {len(traced)} traced passes; trace.overhead_s is the median "
              f"of {len(traced)} paired differences, untraced wall_s ranges over "
              f"{max(untraced_walls) - min(untraced_walls):.3f} s")
        for name, _ in tracer.LAYER_METRICS:
            print(f"  {name:<46} = {layers[name]:14.6g} {units[name]}")
        metrics = {name: {"value": layers[name], "unit": units[name]} for name, _ in tracer.LAYER_METRICS}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}

    first = (passes + traced)[0]
    provenance = {
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "python": first["python"],
        "numpy": first["numpy"],
        "nproc": _nproc(),
        "blas_threads": {var: _worker_env()[var] for var in THREAD_VARS},
        "tail_percentile": tail_p,
        "failed_ratio": ratio,
    }
    print(json.dumps({"provenance": provenance}))
    return {"correct": not failures, "attempted": len(all_ops), "failed": len(failures), "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "waringtk", "__init__.py")):
        print(f"bench: no waringtk sources under {SRC}", file=sys.stderr)
        return 2
    try:
        result = report(args, run_passes(args))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
