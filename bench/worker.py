"""One pass of a benchmark workload, in a fresh interpreter.

Set-up runs from the parent's spawn time (--t0, monotonic clock) until
every waringtk module is imported and the pass's op sequence is built.
The pass then issues each op after the previous one returns (a closed
loop with one caller), times it, and checks its output against
reference.json outside the timed call. The result is one JSON line on
stdout.

Usage: python3 bench/worker.py --workload W --seed S --pass-index I --t0 T
           --work-dir D [--trace] [--setup-only] [--spans-out F]
"""

import time  # noqa: I001  (first, so that nothing precedes the set-up clock)

import argparse
import importlib
import json
import os
import platform
import resource
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
CLI_TIMEOUT_S = 120


def run_cli(argv, cache_dir, trace_out=None):
    """Run one CLI command in a fresh interpreter; returns its stdout."""
    env = dict(os.environ)
    if trace_out is None:
        cmd = [sys.executable, "-m", "waringtk.cli"]
    else:
        cmd = [sys.executable, os.path.join(BENCH_DIR, "cli_shim.py")]
        env["BENCH_TRACE_OUT"] = trace_out
        env["BENCH_SPAWN_T0"] = repr(time.monotonic())
    proc = subprocess.run(
        [*cmd, *argv, "--cache-dir", cache_dir],
        capture_output=True, text=True, env=env, timeout=CLI_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}")
    return proc.stdout


def _sieve_table(argv):
    flags = dict(zip(argv[1::2], argv[2::2]))
    return flags["--l"], flags["--t"], flags["--limit"]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pass-index", type=int, default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--spans-out", default=None)
    args = ap.parse_args()

    import numpy

    sys.path.insert(0, BENCH_DIR)
    import tracer as tracing
    import workloads

    for short in tracing.MODULES:
        importlib.import_module(f"waringtk.{short}")
    seq = workloads.build_sequence(args.workload, args.seed, args.pass_index)
    with open(os.path.join(BENCH_DIR, "reference.json")) as fh:
        refs = json.load(fh)[args.workload]
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    is_cli = args.workload == "cli_battery"
    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None and not is_cli:
        tracer.install()
    cache_dir = os.path.join(args.work_dir, "cache")
    children = []
    seen_tables: set = set()
    cache_states = [0, 0]  # hits, misses
    ctx: dict = {}
    ops = []
    for i, (name, params, tol) in enumerate(seq):
        trace_out = None
        if tracer is not None and is_cli:
            trace_out = os.path.join(args.work_dir, f"trace_{i}.json")
        if tracer is not None:
            tracer.op = i
        error = None
        t = time.perf_counter()
        try:
            result = run_cli(params["argv"], cache_dir, trace_out) if is_cli else workloads.run_op(name, params, ctx)
        except Exception as exc:  # a failed op is counted, the pass goes on
            error = f"{type(exc).__name__}: {exc}"
        ms = (time.perf_counter() - t) * 1e3
        if tracer is not None:
            tracer.op = -1
        if error is None:
            error = workloads.check(name, result, tol, refs.get(workloads.op_key(name, params)))
        if error is None and is_cli and params["argv"][0] == "sieve":
            table = _sieve_table(params["argv"])
            want = "hit" if table in seen_tables else "miss"
            got = workloads.cli_cache_state(result)
            seen_tables.add(table)
            cache_states[0 if got == "hit" else 1] += 1
            if got != want:
                error = f"table cache state {got}, expected {want}"
        if trace_out is not None and os.path.exists(trace_out):
            with open(trace_out) as fh:
                children.append((i, json.load(fh)))
            os.remove(trace_out)
        ops.append({"name": name, "params": params, "ms": ms, "error": error})

    usage = resource.RUSAGE_CHILDREN if is_cli else resource.RUSAGE_SELF
    out = {
        "setup_s": setup_s,
        "ops": ops,
        "rss_kb": resource.getrusage(usage).ru_maxrss,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        raw = tracer.raw()
        spans = tracer.span_records(ops)
        for i, child in children:
            tracing.merge(raw, child["raw"])
            offset = len(spans)
            for span in child["spans"]:
                parent = span["parent"] + offset if span["parent"] >= 0 else -1
                span.update(parent=parent, op=i, op_name=ops[i]["name"])
                spans.append(span)
        out["layers"] = tracing.layer_metrics(raw, tuple(cache_states))
        if args.spans_out:
            with open(args.spans_out, "w") as fh:
                json.dump({"ops": ops, "spans": spans}, fh)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
