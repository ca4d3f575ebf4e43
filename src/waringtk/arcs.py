"""The generating function f on the arcs, and the sweeps that test it.

The dissections and rational approximation are in waringtk.rational.
The generating function
    f(alpha)  = sum over T_t(z) <= P^l of e(alpha T(z)^k)
is evaluated through the rho table, never by t-fold loops.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

import numpy as np

from waringtk.arith import kth_root
from waringtk.errors import PreconditionError, require_integers, require_within
from waringtk.expsums import coprime_residues
from waringtk.integral import U_major
from waringtk.powersets import PowerSumTable
from waringtk.rational import dirichlet_approx

# bench/workloads.run_op reads these two here
from waringtk.rational import classify_major as classify_major
from waringtk.smooth import vinogradov_mean_value as vinogradov_mean_value


# ---------------------------------------------------------------------------
# generating functions
# ---------------------------------------------------------------------------


def f_alpha(alpha: float, k: int, table: PowerSumTable) -> complex:
    """f(alpha) = sum_m rho_t[m] e(alpha m^k) over the table support."""
    support = np.flatnonzero(table.rho[1:]) + 1
    # exact k-th powers, each rounded once to float64 as float * int rounds it
    mk = (support.astype(object) ** k).astype(np.float64)
    weights = table.rho[support].astype(np.float64)
    return complex(np.dot(weights, np.exp(2j * np.pi * ((alpha * mk) % 1.0))))


def f_alpha_direct(alpha: float, k: int, l: int, t: int, limit: int) -> complex:
    """Oracle: t-nested-loop evaluation of f (tiny instances only)."""
    require_within(10**7, **{"(limit+1)^t": (limit + 1, t)})
    acc = 0j
    bound = int(limit ** (1.0 / l)) + 2
    for z in product(range(1, bound + 1), repeat=t):
        tv = sum(x**l for x in z)
        if tv <= limit:
            acc += complex(np.exp(2j * np.pi * ((alpha * tv**k) % 1.0)))
    return acc


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------


@lru_cache(maxsize=16)
def _rho_table_for(l: int, t: int, limit: int) -> PowerSumTable:
    from waringtk.powersets import rep_count_table

    return rep_count_table(l, t, limit)


def major_residual_sweep(
    n: int,
    k: int,
    l: int,
    t: int,
    Q: int,
    sample_count: int = 24,
    seed: int = 0,
) -> float:
    """max over sampled major-arc alpha of
    |f(alpha) - U(alpha, q, a)| / (q P^(t-1) (1 + n|beta|)).

    Samples are stratified by q: denominators cycle through [1, Q], the
    numerator and offset beta are drawn from the arc around a/q.
    """
    require_integers(1, n=n, k=k, l=l, Q=Q, sample_count=sample_count)
    require_integers(0, seed=seed)
    P = n ** (1.0 / (k * l))
    if Q >= P:
        raise PreconditionError("major-arc approximation needs q <= Q < P")
    rng = np.random.default_rng(seed)
    table = _rho_table_for(l, t, kth_root(n, k))
    worst = 0.0
    for i in range(sample_count):
        q = 1 + i % Q
        units = coprime_residues(q)
        a = int(units[rng.integers(len(units))]) if q > 1 else 0
        beta = float(rng.uniform(-Q / (q * n), Q / (q * n)))
        alpha = a / q + beta
        if not 0 <= alpha < 1:
            alpha %= 1.0
        fval = f_alpha(alpha, k, table)
        uval = U_major(a / q + beta, a, q, n, k, l, t)
        residual = abs(fval - uval) / (q * P ** (t - 1) * (1 + n * abs(beta)))
        worst = max(worst, residual)
    return worst


def weyl_bound_sweep(
    n: int,
    k: int,
    l: int,
    t: int,
    sample_count: int = 24,
    seed: int = 0,
) -> float:
    """max over sampled alpha of |f(alpha)| / (P^t (q^-1 + P^-1 + q P^-kl)^e)
    with e = 2^(1-kl) and (a, q) the Dirichlet pair of alpha."""
    require_integers(1, n=n, k=k, l=l, sample_count=sample_count)
    require_integers(0, seed=seed)
    P = n ** (1.0 / (k * l))
    rng = np.random.default_rng(seed)
    table = _rho_table_for(l, t, kth_root(n, k))
    expo = 2.0 ** (1 - k * l)
    worst = 0.0
    for _ in range(sample_count):
        alpha = float(rng.uniform(0, 1))
        _, q = dirichlet_approx(alpha, n)
        envelope = P**t * (1 / q + 1 / P + q * P ** (-k * l)) ** expo
        worst = max(worst, abs(f_alpha(alpha, k, table)) / envelope)
    return worst
