"""Per-layer tracing of waringtk from outside the program.

The tracer replaces every public function of the named waringtk modules
by a wrapper that records a span (name, start, end, parent span, op id)
and patches the wrapper into every loaded waringtk module that binds the
same function object, so calls made through `from x import f` names are
seen too. Spans stay in memory until the pass ends. One thread calls the
library, so spans nest strictly and no wait time exists: a span's self
time is its duration minus that of its direct children.

Counts that the functions do not report are computed from their
arguments and labelled as computed in bench/README.md: the CRT prime
count, transform points and useful-output ratio of exact_convolve
(following the prime selection rule of waringtk.convolve, with the
primes and the schoolbook cap read from that module), and the phase
terms of hist_dft_all, u_beta and f_alpha. A counter that cannot be
computed is counted in trace.hook_errors and never breaks the call.
lru_cache hit ratios are read from cache_info() of the original
functions.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from collections import defaultdict

MODULES = (
    "arith", "params", "convolve", "powersets", "expsums", "local",
    "singular", "integral", "arcs", "represent", "cli",
)

# metric prefix -> (module, attribute) of an lru_cache-wrapped function
LRU_TABLES = {
    "singular.d_table": ("singular", "_d_table"),
    "singular.form_power_histogram": ("singular", "form_power_histogram"),
    "expsums.omega_table": ("expsums", "omega_table"),
    "local.form_histogram": ("local", "form_histogram"),
}

# (metric, unit): the per-layer metrics a traced run reports
_CALLS_SELF = (
    "convolve.exact_convolve", "convolve.cyclic_convolve", "convolve.float_convolve",
    "powersets.rep_count_table", "powersets.restricted_power_sums",
    "represent.count_theorem13", "represent.count_conje", "singular.truncated_series",
    "expsums.hist_dft_all", "expsums.s_form", "integral.u_beta", "arcs.f_alpha",
    "arith.factorize", "arith.sieve_primes",
)
_SELF_ONLY = (
    "represent.form_power_base", "represent.window_ratio", "singular.s_form_all",
    "local.power_histogram", "local.form_histogram", "integral.j_prime_quadrature",
    "integral.U_major", "arcs.vinogradov_mean_value", "arcs.classify_major",
    "cli.run", "cli.emit_report",
)
_TOTAL_ONLY = ("convolve.convolution_power", "local.m_n", "local.m_star_n")
_OTHER = (
    ("convolve.exact_convolve.ntt_calls", "count"),
    ("convolve.exact_convolve.crt_primes", "count"),
    ("convolve.exact_convolve.transform_points", "count"),
    ("convolve.exact_convolve.useful_ratio", "ratio"),
    ("convolve.exact_convolve.bound_bits_max", "bits"),
    ("expsums.hist_dft_all.terms", "count"),
    ("integral.u_beta.terms", "count"),
    ("arcs.f_alpha.terms", "count"),
    ("powersets.read_table_cache.calls", "count"),
    ("powersets.read_table_cache.s", "s"),
    ("powersets.read_table_cache.bytes", "bytes"),
    ("powersets.write_table_cache.calls", "count"),
    ("powersets.write_table_cache.s", "s"),
    ("powersets.write_table_cache.bytes", "bytes"),
    ("cli.emit_report.bytes", "bytes"),
    ("cli.start_s", "s"),
    ("cli.cache_hit_ratio", "ratio"),
    ("trace.spans", "count"),
    ("trace.hook_errors", "count"),
    ("trace.overhead_s", "s"),
)
LAYER_METRICS: list[tuple[str, str]] = (
    [(f"{f}.calls", "count") for f in _CALLS_SELF]
    + [(f"{f}.self_s", "s") for f in _CALLS_SELF + _SELF_ONLY]
    + [(f"{f}.total_s", "s") for f in _TOTAL_ONLY]
    + [(f"{t}.hit_ratio", "ratio") for t in LRU_TABLES]
    + list(_OTHER)
    + [(f"{m}.errors", "count") for m in MODULES]
)

def _as_ints(v) -> list[int]:
    return v.tolist() if hasattr(v, "tolist") else list(v)


def _next_pow2(n: int) -> int:
    return 1 << max(0, (n - 1).bit_length())


def _hook_exact_convolve(tr, bound):
    a, b = _as_ints(bound["a"]), _as_ints(bound["b"])
    if not a or not b:
        return None
    conv = sys.modules["waringtk.convolve"]
    out_len = len(a) + len(b) - 1
    trunc = bound.get("trunc")
    keep = out_len if trunc is None else min(trunc, out_len)
    if len(a) * len(b) <= conv._SCHOOLBOOK_CAP:
        return None
    need = min(sum(a) * max(b), sum(b) * max(a)) + 1
    primes = [p[0] if isinstance(p, tuple) else p for p in conv.NTT_PRIMES]
    count, mod = 0, 1
    for p in primes:
        if mod >= need:
            break
        count, mod = count + 1, mod * p
    size = _next_pow2(out_len)
    tr.add("convolve.exact_convolve.ntt_calls", 3 * count)
    tr.add("convolve.exact_convolve.transform_points", 3 * count * size)
    tr.add("convolve.exact_convolve.kept", keep)
    tr.add("convolve.exact_convolve.padded", size)
    tr.peak("convolve.exact_convolve.crt_primes", count)
    tr.peak("convolve.exact_convolve.bound_bits_max", need.bit_length())
    return None


def _hook_hist_dft_all(tr, bound):
    support = sum(1 for c in _as_ints(bound["hist"]) if c)
    tr.add("expsums.hist_dft_all.terms", len(bound["units"]) * support)


def _hook_u_beta(tr, bound):
    tr.add("integral.u_beta.terms", int(bound["n"]))


def _hook_f_alpha(tr, bound):
    table = bound["table"]
    cached = tr.support_sizes.get(id(table))
    if cached is None or cached[0] is not table:
        cached = (table, sum(1 for c in _as_ints(table.rho)[1:] if c))
        tr.support_sizes[id(table)] = cached
    tr.add("arcs.f_alpha.terms", cached[1])


def _hook_read_cache(tr, bound):
    tr.add("powersets.read_table_cache.bytes", os.path.getsize(bound["path"]))


def _hook_write_cache(tr, bound):
    path = bound["path"]
    return lambda _result: tr.add("powersets.write_table_cache.bytes", os.path.getsize(path))


def _hook_emit_report(tr, bound):
    out = bound["out"]
    if not hasattr(out, "tell"):
        return None
    start = out.tell()
    return lambda _result: tr.add("cli.emit_report.bytes", out.tell() - start)


def _hook_cli_run(tr, bound):
    if tr.on_cli_entry is not None:
        entry, tr.on_cli_entry = tr.on_cli_entry, None
        entry()


HOOKS = {
    "convolve.exact_convolve": _hook_exact_convolve,
    "expsums.hist_dft_all": _hook_hist_dft_all,
    "integral.u_beta": _hook_u_beta,
    "arcs.f_alpha": _hook_f_alpha,
    "powersets.read_table_cache": _hook_read_cache,
    "powersets.write_table_cache": _hook_write_cache,
    "cli.emit_report": _hook_emit_report,
    "cli.run": _hook_cli_run,
}


def _public_functions(mod):
    for name, obj in vars(mod).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
            continue
        if inspect.isfunction(obj) or hasattr(obj, "cache_info"):
            yield name, obj


class Tracer:
    """Spans and counters of one pass; one instance per process."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.op = -1
        self.sums: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self.errors: dict[str, int] = defaultdict(int)
        self.support_sizes: dict[int, tuple] = {}
        self.on_cli_entry = None
        self._stack: list[int] = []
        self._wrappers: dict[int, object] = {}
        self._originals: dict[str, object] = {}
        self._installed: set[str] = set()

    def add(self, key: str, value: float) -> None:
        self.sums[key] += value

    def peak(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima[key], value)

    def install(self, modules=MODULES) -> None:
        """Wrap the public functions of the given waringtk modules."""
        for short in modules:
            if short in self._installed:
                continue
            self._installed.add(short)
            mod = importlib.import_module(f"waringtk.{short}")
            for name, fn in _public_functions(mod):
                label = f"{short}.{name}"
                self._originals[label] = fn
                self._wrappers[id(fn)] = self._wrap(label, fn)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "waringtk" or mod_name.startswith("waringtk.")):
                continue
            for name, obj in list(vars(mod).items()):
                wrapper = self._wrappers.get(id(obj))
                if wrapper is not None and self._originals.get(wrapper.label) is obj:
                    setattr(mod, name, wrapper)

    def _wrap(self, label, fn):
        module = label.split(".", 1)[0]
        hook = HOOKS.get(label)
        signature = inspect.signature(fn) if hook else None
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            post = None
            if hook is not None:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    post = hook(tracer, bound.arguments)
                except Exception:  # a counter must never break the traced call
                    tracer.add("trace.hook_errors", 1)
            parent = stack[-1] if stack else -1
            span = [label, clock(), 0.0, parent, tracer.op]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception:  # counted, then re-raised; SystemExit is no error
                if parent < 0 or not spans[parent][0].startswith(module + "."):
                    tracer.errors[module] += 1
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if post is not None:
                post(result)
            return result

        wrapper.label = label
        for attr in ("cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    def raw(self) -> dict:
        """Mergeable per-pass aggregate of spans, counters and cache stats."""
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _op in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        for (name, start, end, _parent, _op), cover in zip(self.spans, covered):
            calls[name] += 1
            total[name] += end - start
            self_s[name] += end - start - cover
        lru = {}
        for metric, (mod, attr) in LRU_TABLES.items():
            fn = self._originals.get(f"{mod}.{attr}") or getattr(sys.modules.get(f"waringtk.{mod}"), attr, None)
            if fn is not None and hasattr(fn, "cache_info"):
                info = fn.cache_info()
                lru[metric] = [info.hits, info.misses]
        return {
            "calls": dict(calls), "total": dict(total), "self": dict(self_s),
            "sums": dict(self.sums), "maxima": dict(self.maxima), "errors": dict(self.errors),
            "lru": lru, "start_s": [], "spans": len(self.spans),
        }

    def span_records(self, ops: list[dict]) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "op": o, "op_name": ops[o]["name"] if o >= 0 else None}
            for n, s, e, p, o in self.spans
        ]


def merge(into: dict, other: dict) -> dict:
    """Add a child process's aggregate (a traced CLI run) into a pass's."""
    for field in ("calls", "total", "self", "sums", "errors"):
        for key, value in other[field].items():
            into[field][key] = into[field].get(key, 0) + value
    for key, value in other["maxima"].items():
        into["maxima"][key] = max(into["maxima"].get(key, 0), value)
    for key, (hits, misses) in other["lru"].items():
        h, m = into["lru"].get(key, [0, 0])
        into["lru"][key] = [h + hits, m + misses]
    into["start_s"] += other["start_s"]
    into["spans"] += other["spans"]
    return into


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(raw: dict, cli_cache: tuple[int, int] = (0, 0)) -> dict[str, float]:
    """The LAYER_METRICS values of one traced pass (overhead left at 0)."""
    calls, total, self_s, sums = raw["calls"], raw["total"], raw["self"], raw["sums"]
    out: dict[str, float] = {}
    for metric, _unit in LAYER_METRICS:
        fn, _, field = metric.rpartition(".")
        if field == "calls":
            out[metric] = float(calls.get(fn, 0))
        elif field == "self_s":
            out[metric] = self_s.get(fn, 0.0)
        elif field in ("total_s", "s"):
            out[metric] = total.get(fn, 0.0)
        elif field == "errors":
            out[metric] = float(raw["errors"].get(fn, 0))
        elif field == "hit_ratio":
            hits, misses = raw["lru"].get(fn, [0, 0])
            out[metric] = _ratio(hits, hits + misses)
        elif metric in sums:
            out[metric] = float(sums[metric])
        else:
            out[metric] = float(raw["maxima"].get(metric, 0.0))
    out["convolve.exact_convolve.useful_ratio"] = _ratio(
        sums.get("convolve.exact_convolve.kept", 0), sums.get("convolve.exact_convolve.padded", 0)
    )
    starts = sorted(raw["start_s"])
    out["cli.start_s"] = starts[len(starts) // 2] if starts else 0.0
    out["cli.cache_hit_ratio"] = _ratio(cli_cache[0], cli_cache[0] + cli_cache[1])
    out["trace.spans"] = float(raw["spans"])
    out["trace.overhead_s"] = 0.0
    return out
