"""Command-line interface: one subcommand per capability, CSV or
JSON-lines reports, binary table caching.

Global flags go before or after the command. A --config file's
key=value lines are read as flags placed right after the command path,
so the flags argv gives win.

Exit codes: 0 success, 1 usage error, 2 precondition violation,
3 resource-budget violation.
"""

from __future__ import annotations

import argparse
import csv
import importlib
import itertools
import json
import math
import os
import sys
from collections.abc import Iterable, Iterator

from waringtk.errors import PreconditionError, ResourceError, require_integers

DEFAULT_CACHE_DIR = os.path.expanduser("~/.cache/waringtk")


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here is exit 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _fmt(v):
    if isinstance(v, float):
        return float(f"{v:.12g}")
    return v


def emit_report(rows: Iterable[dict], fmt: str, out, header_lines: list[str] | None = None) -> None:
    """CSV (RFC-4180 quoting, header row from the first row's keys) or
    JSON-lines; floats at 12 significant digits; deterministic bytes for
    fixed inputs. rows may be any iterable, read once, so a long table is
    written without holding all its rows."""
    for line in header_lines or []:
        out.write(f"# {line}\n")
    if fmt == "json":
        for row in rows:
            out.write(json.dumps({k: _fmt(v) for k, v in row.items()}) + "\n")
        return
    rows = iter(rows)
    first = next(rows, None)
    if first is None:
        return
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(first.keys())
    writer.writerows(
        [f"{v:.12g}" if isinstance(v, float) else v for v in row.values()]
        for row in itertools.chain([first], rows)
    )


def cache_path(cache_dir: str, l: int, t: int, N: int) -> str:
    return os.path.join(cache_dir, "tables", f"l{l}_t{t}_N{N}.bin")


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise PreconditionError(f"config file {path!r} is not text: {exc}") from exc
    conf = {}
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise PreconditionError(f"config line not key=value: {line!r}")
        key, val = line.split("=", 1)
        conf[key.strip()] = val.strip()
    return conf


def _add_global_flags(p, leaf: bool) -> None:
    d = argparse.SUPPRESS if leaf else None
    p.add_argument("--format", choices=("csv", "json"), default="csv" if not leaf else d)
    p.add_argument("--out", default=d, help="output path (default stdout)")
    p.add_argument("--cache-dir", default=d)
    p.add_argument("--config", default=d, help="key=value config file")


# ---------------------------------------------------------------------------
# row functions: (module, args, header) -> rows; header collects the
# `#` provenance lines
# ---------------------------------------------------------------------------


def _sieve(powersets, args, header):
    from waringtk.convolve import count_total
    cache_dir = args.cache_dir or os.environ.get("WFC_CACHE_DIR", DEFAULT_CACHE_DIR)
    path = cache_path(cache_dir, args.l, args.t, args.limit)
    try:
        table = powersets.read_table_cache(path) if os.path.exists(path) else None
    except (OSError, PreconditionError):  # a damaged file is a miss and is rewritten
        table = None
    if table is not None and (table.l, table.t, table.limit) == (args.l, args.t, args.limit):
        header.append(f"cache=hit path={path}")
    else:
        table = powersets.rep_count_table(args.l, args.t, args.limit)
        try:
            powersets.write_table_cache(table, path)
        except PreconditionError:  # a header or count past u64 has no cached form; the rows are still exact
            pass
        header.append(f"cache=miss path={path}")
    return [
        {
            "l": args.l,
            "t": args.t,
            "limit": args.limit,
            "distinct": powersets.distinct_count(table, args.limit),
            "mass": count_total(table.rho),
        }
    ]


def _int_list(text: str) -> list[int]:
    """A comma-separated list of integers; empty items are skipped."""
    try:
        return [int(y) for y in text.split(",") if y]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated list of integers: {text!r}") from None


def _density(smooth, args, header):
    grid = args.grid if args.grid is not None else smooth.default_y_grid(args.r, args.l)
    report = smooth.density_report(args.r, args.l, grid, args.eta)
    header.append(f"grid_exponent={smooth.grid_exponent(report):.12g}")
    return [dict(r) for r in report]


def _expsum(expsums, args, header):
    if (args.l is None) != (args.t is None):
        missing = "--t" if args.t is None else "--l"
        raise PreconditionError(f"the form columns need --l and --t, and {missing} is missing")
    sk = expsums.s_k(args.q, args.a, args.k)
    wv = expsums.w_q(args.q, args.a, args.k)
    row = {
        "q": args.q,
        "a": args.a,
        "k": args.k,
        "sk_re": sk.real,
        "sk_im": sk.imag,
        "w_re": wv.real,
        "w_im": wv.imag,
        "wk_weight": expsums.w_k_weight(args.q, args.k),
    }
    if args.l is not None:
        sf = expsums.s_form(args.q, args.a, args.k, args.l, args.t)
        row["form_re"] = sf.real
        row["form_im"] = sf.imag
    return [row]


def _local(local, args, header):
    fn = local.m_star_n if args.star else local.m_n
    count = fn(args.p, args.h, args.n, args.k, args.l, args.t, args.s)
    return [{"p": args.p, "h": args.h, "n": args.n, "which": "Mstar" if args.star else "M", "count": count}]


def _series_trunc(singular, args, header):
    res = singular.truncated_series(
        args.n, args.Q, args.k, args.l, args.t, args.s, series=args.series, variant=args.variant
    )
    return [
        {
            "n": args.n,
            "Q": args.Q,
            "series": args.series,
            "variant": args.variant,
            "value": res.value,
            "tail_estimate": res.tail_estimate,
            "imag_residual": res.imag_residual,
        }
    ]


def _series_snm(singular, args, header):
    residual = singular.snm_identity_check(args.p, args.h, args.n, args.k, args.l, args.t, args.s)
    return [{"p": args.p, "h": args.h, "n": args.n, "residual": residual}]


def _series_positivity(singular, args, header):
    rep = singular.positivity_sweep(
        list(range(args.n_lo, args.n_hi + 1)), args.k, args.l, args.t, args.s, Q=args.Q, series=args.series
    )
    return [
        {
            "min_value": rep.min_value,
            "argmin_n": rep.argmin_n,
            "flagged": len(rep.flagged),
            "prime_failures": ";".join(f"{p}:{why}" for p, why in rep.prime_failures),
        }
    ]


def _integral_jprime(integral, args, header):
    exact = integral.j_prime_exact(args.n, args.s, args.xi, args.k, args.l)
    quad = integral.j_prime_quadrature(args.n, args.s, args.xi, args.k, args.l)
    main, B = integral.j_prime_main_term(args.n, args.s, args.xi, args.k, args.l)
    return [
        {
            "n": args.n,
            "s": args.s,
            "xi": args.xi,
            "exact": exact,
            "quadrature": quad,
            "main": main,
            "B": B,
            "rel_dev": abs(exact - main) / main,
        }
    ]


def _integral_jn(integral, args, header):
    value, envelope = integral.j_singular_exact(args.n, args.s, args.k, args.l, args.t)
    return [{"n": args.n, "s": args.s, "value": value, "envelope": envelope}]


def _integral_udecay(integral, args, header):
    header.append(f"seed={args.seed}")
    ratio = integral.u_decay_check(args.n, args.t, args.k, args.l, args.samples, args.seed)
    return [{"n": args.n, "samples": args.samples, "max_ratio": ratio}]


def _arcs_residual(arcs, args, header):
    header.append(f"seed={args.seed}")
    worst = arcs.major_residual_sweep(args.n, args.k, args.l, args.t, args.Q, args.samples, args.seed)
    return [{"n": args.n, "Q": args.Q, "samples": args.samples, "max_residual": worst}]


def _arcs_weyl(arcs, args, header):
    header.append(f"seed={args.seed}")
    worst = arcs.weyl_bound_sweep(args.n, args.k, args.l, args.t, args.samples, args.seed)
    return [{"n": args.n, "samples": args.samples, "max_ratio": worst}]


def _arcs_classify(rational, args, header):
    require_integers(1, k=args.k)  # --k is read only with --M, but checked with --Q too
    if (args.Q is None) == (args.M is None):
        raise PreconditionError("classify takes exactly one of --Q (major/minor) and --M (mM)")
    if args.Q is not None:
        ap = rational.classify_major(args.alpha, args.n, args.Q)
    else:
        ap = rational.classify_mm(args.alpha, args.n, args.k, args.M)
    return [{"alpha": ap.alpha, "a": ap.a, "q": ap.q, "beta": ap.beta, "classification": ap.classification}]


def _arcs_vmv(smooth, args, header):
    J = smooth.vinogradov_mean_value(args.s, args.ksys, args.r, args.Y, args.l, args.eta)
    return [{"s": args.s, "k_sys": args.ksys, "r": args.r, "Y": args.Y, "J": J}]


def _count_rows(vec, header) -> Iterator[dict]:
    """One row per entry of the count vector, made as it is written."""
    header.append(f"provenance={vec.provenance}")
    return ({"n": n, "count": c} for n, c in enumerate(vec.entries.tolist()))


def _count_conje(represent, args, header):
    return _count_rows(represent.count_conje(args.nmax, args.k, args.l, args.t, args.s, args.r), header)


def _count_thm13(represent, args, header):
    vec = represent.count_theorem13(args.nmax, args.k, args.l, args.xi, args.s, weighted=not args.set)
    return _count_rows(vec, header)


def _count_main_term(represent, args, header):
    vec = represent.count_theorem13(args.n, args.k, args.l, args.xi, args.s)
    mt = represent.main_term(args.n, args.k, args.l, args.xi, args.s, args.Q)
    return [{"n": args.n, "count": vec[args.n], "main_term": mt, "ratio": vec[args.n] / mt if mt > 0 else math.nan}]


def _count_qm(represent, args, header):
    import numpy as np

    from waringtk.params import ProblemParams

    params = ProblemParams(k=args.k, l=args.l, t=args.t, n=args.n)
    vec = represent.q_m_table(params, eta=args.eta)
    support = np.flatnonzero(vec.entries)
    supp = int(support[-1]) if len(support) else 0
    return [{"n": args.n, "max_support": supp, "half_n": args.n // 2, "mass": vec.mass}]


def _count_k2(smooth, args, header):
    diag, off = smooth.k2_mean_value(args.t, args.X, args.l, args.Y)
    return [{"t": args.t, "X": args.X, "diagonal": diag, "offdiagonal": off}]


def _report(singular, args, header):
    from waringtk.params import ProblemParams, varphi, xi0

    params = ProblemParams(k=args.k, l=args.l, t=args.t, n=args.n, xi=args.xi)
    series = singular.truncated_series(args.n, 100, args.k, args.l, args.t, 1).value
    return [
        {
            "k": args.k,
            "l": args.l,
            "t": args.t,
            "xi": args.xi,
            "n": args.n,
            "X": params.X,
            "P": params.P,
            "C1": params.c1,
            "C2": params.c2,
            "C3": params.c3,
            "P1": params.p1,
            "P2": params.p2,
            "varphi": varphi(args.k, params.t1, args.l),
            "xi0": xi0(args.k, args.l),
            "series_Q100_s1": series,
        }
    ]


# ---------------------------------------------------------------------------
# the command tree: path -> (waringtk module the row function receives,
# row function, {flag: add_argument keyword arguments}); argparse lists
# the commands and flags in this order
# ---------------------------------------------------------------------------

_INT = {"type": int, "required": True}
_SERIES = {"choices": ("Sn", "SnPrime"), "default": "Sn"}
_ETA = {"type": float, "default": 0.25}


def _ints(*flags: str) -> dict:
    return {flag: _INT for flag in flags}


def _sampled(samples: int) -> dict:
    return {"--samples": {"type": int, "default": samples}, "--seed": {"type": int, "default": 0}}


COMMANDS: dict[tuple[str, ...], tuple] = {
    ("sieve",): ("powersets", _sieve, _ints("--l", "--t", "--limit")),
    ("density",): ("smooth", _density, {
        **_ints("--r", "--l"),
        "--grid": {"type": _int_list, "default": None,
                   "help": "comma-separated Y values (default: budget-aware doubling grid)"},
        "--eta": _ETA,
    }),
    ("expsum",): ("expsums", _expsum, {
        **_ints("--q", "--a", "--k"), "--l": {"type": int, "default": None}, "--t": {"type": int, "default": None},
    }),
    ("local",): ("local", _local, {
        **_ints("--p", "--h", "--n", "--k", "--l", "--t", "--s"), "--star": {"action": "store_true"},
    }),
    ("series", "trunc"): ("singular", _series_trunc, {
        **_ints("--n", "--Q", "--k", "--l", "--t", "--s"),
        "--series": _SERIES, "--variant": {"choices": ("full", "prime"), "default": "full"},
    }),
    ("series", "snm"): ("singular", _series_snm, _ints("--p", "--h", "--k", "--l", "--t", "--s", "--n")),
    ("series", "positivity"): ("singular", _series_positivity, {
        **_ints("--n-lo", "--n-hi", "--k", "--l", "--t", "--s"),
        "--Q": {"type": int, "default": 200}, "--series": _SERIES,
    }),
    ("integral", "jprime"): ("integral", _integral_jprime, _ints("--n", "--s", "--xi", "--k", "--l")),
    ("integral", "jn"): ("integral", _integral_jn, _ints("--n", "--s", "--k", "--l", "--t")),
    ("integral", "udecay"): ("integral", _integral_udecay, {**_ints("--n", "--t", "--k", "--l"), **_sampled(50)}),
    ("arcs", "residual"): ("arcs", _arcs_residual, {**_ints("--n", "--k", "--l", "--t", "--Q"), **_sampled(24)}),
    ("arcs", "weyl"): ("arcs", _arcs_weyl, {**_ints("--n", "--k", "--l", "--t"), **_sampled(24)}),
    ("arcs", "classify"): ("rational", _arcs_classify, {
        "--alpha": {"type": float, "required": True}, "--n": _INT, "--Q": {"type": int, "default": None},
        "--M": {"type": float, "default": None}, "--k": {"type": int, "default": 2},
    }),
    ("arcs", "vmv"): ("smooth", _arcs_vmv, {
        **_ints("--s", "--ksys", "--r", "--Y"), "--l": {"type": int, "default": 2}, "--eta": _ETA,
    }),
    ("count", "conje"): ("represent", _count_conje, _ints("--nmax", "--k", "--l", "--t", "--s", "--r")),
    ("count", "thm13"): ("represent", _count_thm13, {
        **_ints("--nmax", "--k", "--l", "--xi", "--s"),
        "--set": {"action": "store_true", "help": "unweighted (value-set) counts"},
    }),
    ("count", "main-term"): ("represent", _count_main_term, {
        **_ints("--k", "--l", "--xi", "--s", "--n"), "--Q": {"type": int, "default": 100},
    }),
    ("count", "qm"): ("represent", _count_qm, {**_ints("--n", "--k", "--l", "--t"), "--eta": _ETA}),
    ("count", "k2"): ("smooth", _count_k2, {
        **_ints("--t", "--X"), "--l": {"type": int, "default": 2}, "--Y": {"type": int, "default": None},
    }),
    ("report",): ("singular", _report, _ints("--k", "--l", "--t", "--xi", "--n")),
}


def build_parser() -> _Parser:
    """The argparse tree of COMMANDS."""
    p = _Parser(prog="waringtk", description="circle-method toolkit for diagonal-form powers")
    _add_global_flags(p, leaf=False)
    common = argparse.ArgumentParser(add_help=False)
    _add_global_flags(common, leaf=True)
    # subparsers of each group, keyed by the group's path; every parser
    # below the top carries the global flags
    subs = {(): p.add_subparsers(dest="cmd", required=True)}
    for path, (_, _, flags) in COMMANDS.items():
        group = path[:-1]
        if group not in subs:
            grp = subs[()].add_parser(group[0], parents=[common])
            subs[group] = grp.add_subparsers(dest="sub", required=True)
        leaf = subs[group].add_parser(path[-1], parents=[common])
        for flag, kwargs in flags.items():
            leaf.add_argument(flag, **kwargs)
        leaf.set_defaults(command=path)
    return p


def _dispatch(args) -> tuple[Iterable[dict], list[str]]:
    """Returns (rows, header_lines); imports only the leaf's module."""
    module, rows_of, _ = COMMANDS[args.command]
    header: list[str] = []
    rows = rows_of(importlib.import_module(f"waringtk.{module}"), args, header)
    return rows, header


_TRUE, _FALSE = ("1", "true", "yes", "on"), ("0", "false", "no", "off")


def _parse(argv: list[str]) -> argparse.Namespace:
    """argv, with the flags of its --config file, parsed once by the tree.

    A pre-parse with only the global flags takes them out of argv, reading
    abbreviations (`--conf FILE`, `--co=FILE`, `--fo csv`) and ambiguity
    (`--c`) as the tree does; no command flag shares a prefix with a global
    flag. The same pre-parse takes the global flags out of the file's flags,
    and those argv gives win. The file's other flags go in right after the
    command path, before those of argv, and argparse keeps a flag's last
    value, so argv wins there too. A key names the leaf's flag as argparse
    reads it, by its exact name or else a unique prefix; when that flag is
    a switch (`star=1`, `sta=1`) it goes in bare when true and is left out
    when false."""
    pre = _Parser(prog="waringtk", add_help=False)
    _add_global_flags(pre, leaf=True)
    given, rest = pre.parse_known_args(argv)
    at = next((len(path) for path in COMMANDS if tuple(rest[: len(path)]) == path), len(rest))
    flags = COMMANDS.get(tuple(rest[:at]), (None, None, {}))[2]
    extra: list[str] = []
    for key, val in (_load_config(given.config) if "config" in given else {}).items():
        name = f"--{key}"
        hits = [name] if name in flags else [flag for flag in flags if flag.startswith(name)]
        if len(hits) != 1 or flags[hits[0]].get("action") != "store_true":
            extra += [name, val]
        elif val.lower() in _TRUE:
            extra.append(hits[0])
        elif val.lower() not in _FALSE:
            raise PreconditionError(f"config value {key}={val!r} is not one of {_TRUE + _FALSE}")
    from_file, extra = pre.parse_known_args(extra)
    given = argparse.Namespace(**{**vars(from_file), **vars(given)})
    return build_parser().parse_args(rest[:at] + extra + rest[at:], namespace=given)


def run(argv: list[str]) -> int:
    # Python's cap on an int's decimal digits (0: none; absent before 3.10.7) is
    # lifted while the report is written, so exact counts of any length print
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    try:
        args = _parse(argv)
        rows, header = _dispatch(args)
        if limit:
            sys.set_int_max_str_digits(0)
        if args.out:
            with open(args.out, "w") as fh:
                emit_report(rows, args.format, fh, header)
        else:
            emit_report(rows, args.format, sys.stdout, header)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (PreconditionError, OSError, OverflowError) as exc:  # OverflowError: an integer past the float range
        print(f"precondition violation: {exc}", file=sys.stderr)
        return 2
    except ResourceError as exc:
        print(f"resource budget exceeded: {exc}", file=sys.stderr)
        return 3
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    return 0


def main() -> None:
    raise SystemExit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
