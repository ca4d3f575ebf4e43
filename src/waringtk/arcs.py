"""Arc dissections, rational approximation, and the generating function f.

The unit interval splits into major arcs M(Q) = union over reduced a/q,
q <= Q, of {alpha : |alpha - a/q| <= Q/(qn)} and their complement m.
A second dissection m_M keeps the alpha whose Dirichlet pair
(q <= 2kX, |beta| <= (2kqX)^-1) additionally satisfies |beta| >= M/(qn)
whenever q <= M.

The generating function
    f(alpha)  = sum over T_t(z) <= P^l of e(alpha T(z)^k)
is evaluated through the rho table, never by t-fold loops.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

from waringtk.errors import PreconditionError, ResourceError
from waringtk.expsums import coprime_residues
from waringtk.integral import U_major
from waringtk.powersets import (
    DEFAULT_ETA,
    PowerSumTable,
    restricted_power_sums,
)

VMV_BUDGET = 4 * 10**6
CLASSIFY_Q_BUDGET = 10**6


# ---------------------------------------------------------------------------
# rational approximation and dissections
# ---------------------------------------------------------------------------


def dirichlet_approx(alpha: float, denom_bound: int) -> tuple[int, int]:
    """Last continued-fraction convergent a/q with q <= denom_bound.

    Guarantees gcd(a, q) = 1 and |alpha - a/q| <= 1/(q * denom_bound).
    """
    if not 0 <= alpha < 1:
        raise PreconditionError("need alpha in [0, 1)")
    if denom_bound < 1:
        raise PreconditionError("need denom_bound >= 1")
    a_prev, q_prev = 1, 0
    a_cur, q_cur = 0, 1  # convergent 0/1 from a0 = 0
    x = alpha
    while True:
        frac = x - math.floor(x)
        if frac < 1e-12:
            break
        x = 1.0 / frac
        digit = math.floor(x)
        a_next = digit * a_cur + a_prev
        q_next = digit * q_cur + q_prev
        if q_next > denom_bound:
            break
        a_prev, q_prev, a_cur, q_cur = a_cur, q_cur, a_next, q_next
    return a_cur, q_cur


@dataclass(frozen=True)
class ArcPoint:
    alpha: float
    a: int
    q: int
    beta: float
    classification: str  # "major" | "minor" | "mM" | "mM-excluded"


def classify_major(alpha: float, n: int, Q: int) -> ArcPoint:
    """Exact membership in M(Q), 1 <= Q <= CLASSIFY_Q_BUDGET, by scanning q <= Q."""
    if not 0 <= alpha < 1:
        raise PreconditionError("need alpha in [0, 1)")
    if n < 1 or Q < 1:
        raise PreconditionError(f"need n, Q >= 1, got n={n}, Q={Q}")
    if Q > CLASSIFY_Q_BUDGET:
        raise ResourceError(f"Q = {Q} exceeds the scan budget {CLASSIFY_Q_BUDGET}")
    best: tuple[float, int, int] | None = None
    for q in range(1, Q + 1):
        a = round(alpha * q)
        if not 0 <= a <= q or math.gcd(a, q) != 1:
            continue
        beta = alpha - a / q
        if abs(beta) <= Q / (q * n):
            if best is None or abs(beta) < best[0]:
                best = (abs(beta), a, q)
    if best is not None:
        _, a, q = best
        return ArcPoint(alpha, a, q, alpha - a / q, "major")
    a, q = dirichlet_approx(alpha, Q)
    return ArcPoint(alpha, a, q, alpha - a / q, "minor")


def classify_mm(alpha: float, n: int, k: int, M: float) -> ArcPoint:
    """Membership in m_M: Dirichlet pair with q <= 2kX, |beta| <= (2kqX)^-1,
    subject to |beta| >= M/(qn) whenever q <= M; n, k >= 1."""
    if n < 1 or k < 1:
        raise PreconditionError(f"need n, k >= 1, got n={n}, k={k}")
    X = n ** (1.0 / k)
    bound = math.floor(2 * k * X)
    a, q = dirichlet_approx(alpha, bound)
    beta = alpha - a / q
    inside = abs(beta) <= 1.0 / (2 * k * q * X)
    if inside and q <= M and abs(beta) < M / (q * n):
        return ArcPoint(alpha, a, q, beta, "mM-excluded")
    return ArcPoint(alpha, a, q, beta, "mM" if inside else "mM-excluded")


# ---------------------------------------------------------------------------
# generating functions
# ---------------------------------------------------------------------------


def f_alpha(alpha: float, k: int, table: PowerSumTable) -> complex:
    """f(alpha) = sum_m rho_t[m] e(alpha m^k) over the table support."""
    rho = np.array(table.rho, dtype=np.float64)
    support = np.nonzero(rho)[0]
    support = support[support >= 1]
    # exact k-th powers, each rounded once to float64 as float * int rounds it
    mk = (support.astype(object) ** k).astype(np.float64)
    return complex(np.dot(rho[support], np.exp(2j * np.pi * ((alpha * mk) % 1.0))))


def f_alpha_direct(alpha: float, k: int, l: int, t: int, limit: int) -> complex:
    """Oracle: t-nested-loop evaluation of f (tiny instances only)."""
    if (limit + 1) ** t > 10**7:
        raise ResourceError("direct f evaluation instance too large")
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
    if min(n, k, l, Q, sample_count) < 1 or seed < 0:
        raise PreconditionError(
            f"need n, k, l, Q, sample_count >= 1 and seed >= 0, got n={n}, k={k}, l={l}, Q={Q}, "
            f"sample_count={sample_count}, seed={seed}"
        )
    P = n ** (1.0 / (k * l))
    if Q >= P:
        raise PreconditionError("major-arc approximation needs q <= Q < P")
    rng = np.random.default_rng(seed)
    table = _rho_table_for(l, t, math.floor(P**l))
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
    if min(n, k, l, sample_count) < 1 or seed < 0:
        raise PreconditionError(
            f"need n, k, l, sample_count >= 1 and seed >= 0, got n={n}, k={k}, l={l}, "
            f"sample_count={sample_count}, seed={seed}"
        )
    P = n ** (1.0 / (k * l))
    rng = np.random.default_rng(seed)
    table = _rho_table_for(l, t, math.floor(P**l))
    expo = 2.0 ** (1 - k * l)
    worst = 0.0
    for _ in range(sample_count):
        alpha = float(rng.uniform(0, 1))
        _, q = dirichlet_approx(alpha, n)
        envelope = P**t * (1 / q + 1 / P + q * P ** (-k * l)) ** expo
        worst = max(worst, abs(f_alpha(alpha, k, table)) / envelope)
    return worst


def vinogradov_mean_value(
    s: int,
    k_sys: int,
    r: int,
    Y: int,
    l: int = 2,
    eta: float = DEFAULT_ETA,
) -> int:
    """Exact J_{s,r}^(k_sys)(Y): solutions of sum x_i^j = sum x_{s+i}^j for
    j = 1..k_sys with all 2s variables in S_r(Y), by meet-in-the-middle."""
    if s < 1 or k_sys < 1 or l < 1:
        raise PreconditionError(f"need s, k_sys, l >= 1, got s={s}, k_sys={k_sys}, l={l}")
    values = restricted_power_sums(r, l, Y, eta).values
    if len(values) ** s > VMV_BUDGET:
        raise ResourceError(f"|S|^s = {len(values) ** s} exceeds budget {VMV_BUDGET}")
    from collections import Counter

    sums: Counter = Counter()
    for tup in product(values, repeat=s):
        sums[tuple(sum(x**j for x in tup) for j in range(1, k_sys + 1))] += 1
    return sum(c * c for c in sums.values())

