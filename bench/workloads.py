"""Workload pools, op execution and output checks for the waringtk benchmark.

A workload is a fixed pool of slots. Each slot holds one or more
alternative chains, and a chain is a short list of ops run in order (a
count vector followed by the main-term comparisons that read it). The
seed picks one alternative per slot, once per run; each pass runs every
slot once, in an order drawn from the seed and the pass index, so that
a run's medians cover several orders of the same ops. The
alternatives of a slot differ only in parameters that leave the cost
unchanged (n inside one transform size, the n a series is read at, a
sample seed), so every seed measures the same amount of work.

Every op result is reduced to an exact part, compared by SHA-256 digest,
and a float part, compared within the tolerance its module states:
1e-9 relative for exponential sums, series and singular integrals, 1e-6
relative for the arc sweeps (their float phase reduction of alpha*m^k
loses log2(m^k) bits). References live in reference.json, recorded with
record.py.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import re

EXACT = None
SERIES_TOL = 1e-9
ARC_TOL = 1e-6
SNM_RESIDUAL_MAX = 1e-9


def _slot(*chains):
    return [list(c) for c in chains]


def _one(name, tol=EXACT, **params):
    return (name, params, tol)


def _thm13(n_max, k, l, xi, s, weighted=True):
    return _one("represent.count_theorem13", n_max=n_max, k=k, l=l, xi=xi, s=s, weighted=weighted)


def _conje(n_max, k, l, t, s, r):
    return _one("represent.count_conje", n_max=n_max, k=k, l=l, t=t, s=s, r=r)


def _window(n_lo, n_hi, k, l, xi, s):
    return _one("represent.window_ratio", SERIES_TOL, n_lo=n_lo, n_hi=n_hi, k=k, l=l, xi=xi, s=s)


def _main_term(n, k, l, xi, s):
    return _one("represent.main_term", SERIES_TOL, n=n, k=k, l=l, xi=xi, s=s)


# exact_counts: n_max from 1e4 to 2e5; alternatives stay inside one
# transform size so that the NTT work is the same for either choice. The
# two main-term chains use different (k, l, xi) so that neither reuses
# the other's per-q tables and the cost of each op does not depend on
# the order.
EXACT_COUNTS = [
    _slot([_thm13(10000, 2, 2, 5, 6)], [_thm13(9500, 2, 2, 5, 6)]),
    _slot(
        [_thm13(20000, 2, 2, 5, 6), _window(5000, 10000, 2, 2, 5, 6), _main_term(20000, 2, 2, 5, 6)],
        [_thm13(19000, 2, 2, 5, 6), _window(4750, 9500, 2, 2, 5, 6), _main_term(19000, 2, 2, 5, 6)],
    ),
    _slot([_thm13(20000, 2, 2, 5, 4, weighted=False)], [_thm13(19000, 2, 2, 5, 4, weighted=False)]),
    _slot([_thm13(50000, 2, 2, 5, 3)], [_thm13(48000, 2, 2, 5, 3)]),
    _slot([_thm13(200000, 2, 2, 5, 2, weighted=False)], [_thm13(190000, 2, 2, 5, 2, weighted=False)]),
    _slot([_conje(10000, 2, 2, 8, 1, 1)], [_conje(9500, 2, 2, 8, 1, 1)]),
    _slot([_conje(100000, 2, 2, 8, 1, 1)], [_conje(96000, 2, 2, 8, 1, 1)]),
    _slot([_conje(20000, 2, 2, 8, 1, 2)], [_conje(19000, 2, 2, 8, 1, 2)]),
    _slot([_thm13(20000, 3, 2, 5, 4)], [_thm13(19000, 3, 2, 5, 4)]),
    _slot(
        [_thm13(50000, 3, 2, 5, 3), _window(12500, 25000, 3, 2, 5, 3)],
        [_thm13(48000, 3, 2, 5, 3), _window(12000, 24000, 3, 2, 5, 3)],
    ),
    _slot([_thm13(20000, 2, 3, 6, 4)], [_thm13(19000, 2, 3, 6, 4)]),
    _slot([_thm13(30000, 2, 2, 5, 6)], [_thm13(29000, 2, 2, 5, 6)]),
    _slot([_thm13(5000, 2, 2, 5, 6)], [_thm13(4800, 2, 2, 5, 6)]),
]


def _series(n, k, l, t, s, series="Sn", variant="full", Q=200):
    return _one(
        "singular.truncated_series", SERIES_TOL,
        n=n, Q=Q, k=k, l=l, t=t, s=s, series=series, variant=variant,
    )


def _positivity(n_lo, n_hi, k, l, t, s, series="Sn", Q=200):
    return _one(
        "singular.positivity_sweep", SERIES_TOL,
        n_lo=n_lo, n_hi=n_hi, k=k, l=l, t=t, s=s, Q=Q, series=series,
    )


def _local(fn, p, h, n, k, l, t, s):
    return _one(f"local.{fn}", p=p, h=h, n=n, k=k, l=l, t=t, s=s)


def _solubility(p, k, l, t, s, which):
    return _one("local.verify_local_solubility", p=p, k=k, l=l, t=t, s=s, which=which)


def _snm(p, h, n, k, l, t, s):
    return _one("singular.snm_identity_check", p=p, h=h, n=n, k=k, l=l, t=t, s=s)


def _s_form(q, a):
    return _one("expsums.s_form", SERIES_TOL, q=q, a=a, k=2, l=2, t=8)


def _weight_sweep(Q, which):
    return _one("expsums.weight_bound_sweep", SERIES_TOL, Q=Q, k=2, which=which)


# primes of about the same size: S(q, a) by the O(q^2) u-reduction costs
# about the same for each, so the median op sits in a narrow band
_S_FORM_Q_PAIRS = ((787, 797), (809, 811), (821, 823), (827, 829), (839, 853), (857, 859), (863, 877), (881, 883))

# local_series: the tuple (2, 2, 8, 2) recurs across many slots, so its
# per-q tables are built once per pass and then reused; the slots on
# other tuples build fresh tables. The s_form slots put the median op in
# a band of order-independent, mid-sized ops.
LOCAL_SERIES = [
    _slot([_series(100, 2, 2, 8, 2)], [_series(1000, 2, 2, 8, 2)]),
    _slot([_series(101, 2, 2, 8, 2, "SnPrime")], [_series(1001, 2, 2, 8, 2, "SnPrime")]),
    _slot([_series(102, 2, 2, 8, 2, variant="prime")], [_series(1002, 2, 2, 8, 2, variant="prime")]),
    _slot(
        [_series(103, 2, 2, 8, 2, "SnPrime", "prime")],
        [_series(1003, 2, 2, 8, 2, "SnPrime", "prime")],
    ),
    _slot([_series(5000, 2, 2, 8, 2)], [_series(7777, 2, 2, 8, 2)]),
    _slot([_series(12345, 2, 2, 8, 2)], [_series(54321, 2, 2, 8, 2)]),
    _slot([_series(99999, 2, 2, 8, 2, "SnPrime")], [_series(88888, 2, 2, 8, 2, "SnPrime")]),
    _slot([_series(100, 2, 2, 6, 3)], [_series(200, 2, 2, 6, 3)]),
    _slot([_series(100, 3, 2, 8, 4, "SnPrime")], [_series(300, 3, 2, 8, 4, "SnPrime")]),
    _slot([_series(100, 2, 2, 7, 2, variant="prime")], [_series(500, 2, 2, 7, 2, variant="prime")]),
    _slot([_positivity(2, 30, 2, 2, 8, 2)], [_positivity(31, 59, 2, 2, 8, 2)]),
    _slot(
        [_positivity(2, 30, 2, 2, 8, 2, "SnPrime")],
        [_positivity(60, 88, 2, 2, 8, 2, "SnPrime")],
    ),
    _slot([_snm(3, 2, 4, 2, 2, 8, 1)], [_snm(3, 2, 5, 2, 2, 8, 1)]),
    _slot([_snm(5, 2, 7, 2, 2, 8, 2)], [_snm(5, 2, 11, 2, 2, 8, 2)]),
    _slot([_local("m_n", 3, 6, 4, 2, 2, 8, 2)], [_local("m_n", 3, 6, 5, 2, 2, 8, 2)]),
    _slot([_local("m_n", 7, 4, 4, 2, 2, 8, 2)], [_local("m_n", 7, 4, 9, 2, 2, 8, 2)]),
    _slot([_local("m_n", 97, 2, 4, 2, 2, 8, 1)], [_local("m_n", 97, 2, 10, 2, 2, 8, 1)]),
    _slot([_local("m_star_n", 3, 8, 4, 2, 2, 8, 2)], [_local("m_star_n", 3, 8, 7, 2, 2, 8, 2)]),
    _slot([_local("m_star_n", 5, 3, 4, 2, 2, 8, 2)], [_local("m_star_n", 5, 3, 6, 2, 2, 8, 2)]),
    _slot([_solubility(2, 2, 2, 8, 2, "M")], [_solubility(5, 2, 2, 8, 2, "M")]),
    _slot([_solubility(3, 2, 2, 8, 3, "Mstar")], [_solubility(3, 3, 2, 8, 3, "M")]),
    _slot([_s_form(49, 3)], [_s_form(49, 5)]),
    *(_slot([_s_form(q1, 3)], [_s_form(q2, 3)]) for q1, q2 in _S_FORM_Q_PAIRS),
    _slot([_weight_sweep(250, "Sk")], [_weight_sweep(250, "W")]),
    _slot([_weight_sweep(300, "Sk")], [_weight_sweep(300, "W")]),
]


def _residual(n, seed, Q=5):
    return _one("arcs.major_residual_sweep", ARC_TOL, n=n, k=2, l=2, t=8, Q=Q, samples=24, seed=seed)


def _weyl(n, seed):
    return _one("arcs.weyl_bound_sweep", ARC_TOL, n=n, k=2, l=2, t=8, samples=24, seed=seed)


def _udecay(n, samples, seed):
    return _one("integral.u_decay_check", SERIES_TOL, n=n, t=8, k=2, l=2, samples=samples, seed=seed)


def _jprime(fn, n, s, xi):
    return _one(f"integral.{fn}", SERIES_TOL, n=n, s=s, xi=xi, k=2, l=2)


def _classify(alpha, n, Q):
    return _one("arcs.classify_major", SERIES_TOL, alpha=alpha, n=n, Q=Q)


# arc_analytic: float O(n) phase sums and FFTs at n from 6.25e4 to 1e6;
# exact convolution only builds the small rho tables the sweeps read.
# Several ops of 50-90 ms keep the median op inside a band of like ops.
ARC_ANALYTIC = [
    _slot([_residual(10**6, 0)], [_residual(10**6, 1)]),
    _slot([_residual(250000, 0)], [_residual(250000, 1)]),
    _slot([_residual(62500, 0)], [_residual(62500, 1)]),
    _slot([_residual(62500, 2)], [_residual(62500, 3)]),
    _slot([_residual(62500, 4)], [_residual(62500, 5)]),
    _slot([_weyl(10**6, 0)], [_weyl(10**6, 1)]),
    _slot([_weyl(250000, 0)], [_weyl(250000, 1)]),
    _slot([_weyl(62500, 0)], [_weyl(62500, 1)]),
    _slot([_weyl(500000, 0)], [_weyl(500000, 1)]),
    _slot([_udecay(10**6, 10, 0)], [_udecay(10**6, 10, 1)]),
    _slot([_udecay(62500, 50, 0)], [_udecay(62500, 50, 1)]),
    _slot([_udecay(62500, 20, 2)], [_udecay(62500, 20, 3)]),
    _slot([_udecay(62500, 20, 4)], [_udecay(62500, 20, 5)]),
    _slot([_jprime("j_prime_exact", 100000, 3, 5)], [_jprime("j_prime_exact", 100000, 4, 5)]),
    _slot([_jprime("j_prime_exact", 200000, 3, 5)], [_jprime("j_prime_exact", 200000, 3, 6)]),
    _slot([_jprime("j_prime_exact", 500000, 3, 5)], [_jprime("j_prime_exact", 500000, 3, 6)]),
    _slot([_jprime("j_prime_quadrature", 100000, 3, 5)], [_jprime("j_prime_quadrature", 100000, 3, 6)]),
    _slot([_jprime("j_prime_quadrature", 20000, 4, 5)], [_jprime("j_prime_quadrature", 20000, 4, 6)]),
    _slot(
        [_one("integral.j_singular_exact", SERIES_TOL, n=100000, s=2, k=2, l=2, t=8)],
        [_one("integral.j_singular_exact", SERIES_TOL, n=90000, s=2, k=2, l=2, t=8)],
    ),
    _slot(
        [_one("integral.j_singular_exact", SERIES_TOL, n=120000, s=2, k=2, l=2, t=8)],
        [_one("integral.j_singular_exact", SERIES_TOL, n=110000, s=2, k=2, l=2, t=8)],
    ),
    _slot([_classify(0.6181, 100000, 20)], [_classify(0.4142, 100000, 20)]),
    _slot([_classify(0.3333, 1000000, 50)], [_classify(0.7071, 1000000, 50)]),
    _slot([_classify(0.1234, 62500, 5)], [_classify(0.2500, 62500, 5)]),
    _slot(
        [_one("arcs.vinogradov_mean_value", s=2, k_sys=2, r=2, Y=20)],
        [_one("arcs.vinogradov_mean_value", s=2, k_sys=2, r=2, Y=24)],
    ),
    _slot(
        [_one("powersets.density_report", SERIES_TOL, r=2, l=2, grid=[50, 100, 200, 400])],
        [_one("powersets.density_report", SERIES_TOL, r=3, l=2, grid=[50, 100, 200, 400])],
    ),
    _slot(
        [_one("powersets.density_report", SERIES_TOL, r=2, l=3, grid=[21, 42, 85, 170])],
        [_one("powersets.density_report", SERIES_TOL, r=3, l=3, grid=[18, 37, 74, 149])],
    ),
]


def _cli(*argv):
    return _one("cli", argv=list(argv))


_KL28 = ("--k", "2", "--l", "2", "--t", "8")

# cli_battery: the acceptance battery, a larger sieve (run twice in one
# chain, so that every pass first misses the table cache and writes the
# table, then reads it back), local counts by both M and M*, and a count
# table of thousands of JSON rows.
CLI_BATTERY = [
    _slot([_cli("sieve", "--l", "2", "--t", "8", "--limit", "2000")]),
    _slot(
        [_cli("sieve", "--l", "2", "--t", "8", "--limit", "20000")] * 2,
        [_cli("sieve", "--l", "2", "--t", "8", "--limit", "19000")] * 2,
    ),
    _slot([_cli("density", "--r", "2", "--l", "2")]),
    _slot([_cli("expsum", "--q", "49", "--a", "3", *_KL28)], [_cli("expsum", "--q", "49", "--a", "5", *_KL28)]),
    _slot(
        [_cli("local", "--p", "3", "--h", "2", "--n", "4", *_KL28, "--s", "2")],
        [_cli("local", "--p", "3", "--h", "2", "--n", "5", *_KL28, "--s", "2")],
    ),
    _slot(
        [_cli("local", "--p", "3", "--h", "6", "--n", "4", *_KL28, "--s", "2", "--star")],
        [_cli("local", "--p", "3", "--h", "6", "--n", "5", *_KL28, "--s", "2", "--star")],
    ),
    _slot(
        [_cli("series", "trunc", "--n", "100", "--Q", "100", *_KL28, "--s", "2")],
        [_cli("series", "trunc", "--n", "1000", "--Q", "100", *_KL28, "--s", "2")],
    ),
    _slot(
        [_cli("series", "snm", "--p", "3", "--h", "2", *_KL28, "--s", "1", "--n", "4")],
        [_cli("series", "snm", "--p", "3", "--h", "2", *_KL28, "--s", "1", "--n", "5")],
    ),
    _slot([_cli("series", "positivity", "--n-lo", "2", "--n-hi", "30", *_KL28, "--s", "2")]),
    _slot([_cli("integral", "jprime", "--n", "10000", "--s", "3", "--xi", "5", "--k", "2", "--l", "2")]),
    _slot(
        [_cli("integral", "udecay", "--n", "2000", "--t", "8", "--k", "2", "--l", "2", "--samples", "20", "--seed", "1")],
        [_cli("integral", "udecay", "--n", "2000", "--t", "8", "--k", "2", "--l", "2", "--samples", "20", "--seed", "2")],
    ),
    _slot(
        [_cli("arcs", "residual", "--n", "62500", *_KL28, "--Q", "5")],
        [_cli("arcs", "residual", "--n", "62500", *_KL28, "--Q", "5", "--seed", "1")],
    ),
    _slot([_cli("arcs", "weyl", "--n", "10000", *_KL28)], [_cli("arcs", "weyl", "--n", "10000", *_KL28, "--seed", "1")]),
    _slot(
        [_cli("arcs", "classify", "--alpha", "0.6181", "--n", "100000", "--Q", "20")],
        [_cli("arcs", "classify", "--alpha", "0.4142", "--n", "100000", "--Q", "20")],
    ),
    _slot([_cli("arcs", "vmv", "--s", "2", "--ksys", "2", "--r", "2", "--Y", "20")]),
    _slot(
        [_cli("count", "conje", "--nmax", "3000", *_KL28, "--s", "1", "--r", "1")],
        [_cli("count", "conje", "--nmax", "2900", *_KL28, "--s", "1", "--r", "1")],
    ),
    _slot([_cli("count", "thm13", "--nmax", "20000", "--k", "2", "--l", "2", "--xi", "5", "--s", "6")]),
    _slot([_cli("count", "main-term", "--k", "2", "--l", "2", "--xi", "5", "--s", "6", "--n", "20000")]),
    _slot([_cli("count", "k2", "--t", "2", "--X", "30")]),
    _slot([_cli("report", "--k", "2", "--l", "2", "--t", "8", "--xi", "5", "--n", "100000")]),
    _slot(
        [_cli("count", "conje", "--nmax", "10000", *_KL28, "--s", "1", "--r", "1", "--format", "json")],
        [_cli("count", "conje", "--nmax", "9500", *_KL28, "--s", "1", "--r", "1", "--format", "json")],
    ),
]

WORKLOADS = {
    "exact_counts": EXACT_COUNTS,
    "local_series": LOCAL_SERIES,
    "arc_analytic": ARC_ANALYTIC,
    "cli_battery": CLI_BATTERY,
}


def op_key(name: str, params: dict) -> str:
    return f"{name}{json.dumps(params, sort_keys=True, separators=(',', ':'))}"


def build_sequence(workload: str, seed: int, pass_index: int) -> list[tuple[str, dict, float | None]]:
    """The ops of one pass: the seed picks each slot's alternative, the
    seed and the pass index pick the order of the slots."""
    pick = random.Random(f"{workload}:{seed}")
    chains = [slot[pick.randrange(len(slot))] for slot in WORKLOADS[workload]]
    random.Random(f"{workload}:{seed}:{pass_index}").shuffle(chains)
    return [op for chain in chains for op in chain]


def all_chains(workload: str) -> list[list[tuple[str, dict, float | None]]]:
    """Every chain of every slot (for recording references)."""
    return [chain for slot in WORKLOADS[workload] for chain in slot]


# ---------------------------------------------------------------------------
# running an op in process
# ---------------------------------------------------------------------------


def run_op(name: str, params: dict, ctx: dict):
    """Call the library function behind an op; count vectors are kept in
    ctx for the main-term ops that follow them in a chain."""
    from waringtk import arcs, expsums, integral, local, powersets, represent, singular

    p = params
    if name == "represent.count_theorem13":
        ctx["vec"] = represent.count_theorem13(p["n_max"], p["k"], p["l"], p["xi"], p["s"], weighted=p["weighted"])
        return ctx["vec"]
    if name == "represent.count_conje":
        ctx["vec"] = represent.count_conje(p["n_max"], p["k"], p["l"], p["t"], p["s"], p["r"])
        return ctx["vec"]
    if name == "represent.window_ratio":
        return represent.window_ratio(ctx["vec"], p["n_lo"], p["n_hi"], p["k"], p["l"], p["xi"], p["s"])
    if name == "represent.main_term":
        return represent.main_term(p["n"], p["k"], p["l"], p["xi"], p["s"])
    if name == "singular.truncated_series":
        return singular.truncated_series(
            p["n"], p["Q"], p["k"], p["l"], p["t"], p["s"], series=p["series"], variant=p["variant"]
        )
    if name == "singular.positivity_sweep":
        return singular.positivity_sweep(
            list(range(p["n_lo"], p["n_hi"] + 1)), p["k"], p["l"], p["t"], p["s"], Q=p["Q"], series=p["series"]
        )
    if name == "singular.snm_identity_check":
        return singular.snm_identity_check(p["p"], p["h"], p["n"], p["k"], p["l"], p["t"], p["s"])
    if name in ("local.m_n", "local.m_star_n"):
        fn = local.m_n if name == "local.m_n" else local.m_star_n
        return fn(p["p"], p["h"], p["n"], p["k"], p["l"], p["t"], p["s"])
    if name == "local.verify_local_solubility":
        return local.verify_local_solubility(p["p"], p["k"], p["l"], p["t"], p["s"], which=p["which"])
    if name == "expsums.s_form":
        return expsums.s_form(p["q"], p["a"], p["k"], p["l"], p["t"])
    if name == "expsums.weight_bound_sweep":
        return expsums.weight_bound_sweep(p["Q"], p["k"], p["which"])
    if name == "arcs.major_residual_sweep":
        return arcs.major_residual_sweep(p["n"], p["k"], p["l"], p["t"], p["Q"], p["samples"], p["seed"])
    if name == "arcs.weyl_bound_sweep":
        return arcs.weyl_bound_sweep(p["n"], p["k"], p["l"], p["t"], p["samples"], p["seed"])
    if name == "arcs.classify_major":
        return arcs.classify_major(p["alpha"], p["n"], p["Q"])
    if name == "arcs.vinogradov_mean_value":
        return arcs.vinogradov_mean_value(p["s"], p["k_sys"], p["r"], p["Y"])
    if name == "integral.u_decay_check":
        return integral.u_decay_check(p["n"], p["t"], p["k"], p["l"], p["samples"], p["seed"])
    if name in ("integral.j_prime_exact", "integral.j_prime_quadrature"):
        fn = integral.j_prime_exact if name == "integral.j_prime_exact" else integral.j_prime_quadrature
        return fn(p["n"], p["s"], p["xi"], p["k"], p["l"])
    if name == "integral.j_singular_exact":
        return integral.j_singular_exact(p["n"], p["s"], p["k"], p["l"], p["t"])
    if name == "powersets.density_report":
        return powersets.density_report(p["r"], p["l"], p["grid"])
    raise KeyError(f"unknown op {name}")


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

_CACHE_LINE = re.compile(r"^# cache=(hit|miss) path=.*$", re.MULTILINE)


def normalise_cli_stdout(text: str) -> str:
    """Drop the cache state and path from the sieve header line; the state
    is checked on its own against the order of the pass."""
    return _CACHE_LINE.sub("# cache=", text)


def cli_cache_state(text: str) -> str | None:
    m = _CACHE_LINE.search(text)
    return m.group(1) if m else None


def canonical(name: str, result) -> tuple[object, list[float]]:
    """(exact part, float part) of an op result."""
    if name in ("represent.count_theorem13", "represent.count_conje"):
        return [int(x) for x in result.entries], []
    if name in ("local.m_n", "local.m_star_n", "arcs.vinogradov_mean_value"):
        return int(result), []
    if name == "local.verify_local_solubility":
        return [int(result.level), [int(c) for c in result.counts]], []
    if name == "singular.truncated_series":
        return None, [float(result.value)]
    if name == "singular.positivity_sweep":
        exact = [int(result.argmin_n), [int(n) for n in result.flagged], [int(p) for p, _ in result.prime_failures]]
        return exact, [float(result.min_value)]
    if name == "singular.snm_identity_check":
        return bool(result <= SNM_RESIDUAL_MAX), []
    if name == "expsums.s_form":
        return None, [float(result.real), float(result.imag)]
    if name == "arcs.classify_major":
        return [int(result.a), int(result.q), result.classification], [float(result.alpha), float(result.beta)]
    if name == "integral.j_singular_exact":
        return None, [float(x) for x in result]
    if name == "powersets.density_report":
        exact = [[int(r["Y"]), int(r["cardinality"])] for r in result]
        floats = [float(r["pointwise_exponent"]) for r in result]
        floats += [float(r["pair_slope"]) for r in result[1:]]
        floats.append(float(result[0]["reference_exponent"]))
        return exact, floats
    if name == "cli":
        return normalise_cli_stdout(result), []
    return None, [float(result)]


def digest(exact) -> str:
    text = exact if isinstance(exact, str) else json.dumps(exact, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def reference_entry(name: str, result) -> dict:
    exact, floats = canonical(name, result)
    return {"digest": digest(exact), "floats": floats}


def check(name: str, result, tol: float | None, ref: dict | None) -> str | None:
    """None when the result matches its reference, else the reason."""
    if ref is None:
        return "no reference recorded"
    exact, floats = canonical(name, result)
    if digest(exact) != ref["digest"]:
        return "exact part differs from reference"
    want = ref["floats"]
    if len(floats) != len(want):
        return "float part has the wrong length"
    if not floats:
        return None
    scale = max(abs(w) for w in want)
    for got, w in zip(floats, want):
        if not math.isfinite(got) or abs(got - w) > (tol or 0.0) * scale:
            return f"float {got!r} differs from reference {w!r} beyond {tol}"
    return None
