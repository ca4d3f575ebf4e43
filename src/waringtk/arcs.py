"""Arc dissections, rational approximation, and generating functions.

The unit interval splits into major arcs M(Q) = union over reduced a/q,
q <= Q, of {alpha : |alpha - a/q| <= Q/(qn)} and their complement m.
Narrower presets: N = M(P^(1/2)), PR = M(log P), N_iota = M(P^(1/2+iota))
with iota = 1/1000.  A second dissection m_M keeps the alpha whose
Dirichlet pair (q <= 2kX, |beta| <= (2kqX)^-1) additionally satisfies
|beta| >= M/(qn) whenever q <= M.

Generating functions:
    f(alpha)  = sum over T_t(z) <= P^l of e(alpha T(z)^k)
                (evaluated through the rho table; never by t-fold loops)
    F(alpha)  = sum_{m in S2} sum_{x in S1} e(alpha (x+m)^k)
    G(alpha)  = sum over primes P/2 < p <= P, x in S of e(alpha (x+p^l)^k)
    g(alpha)  = sum_{X1 < x <= 2X1} e(alpha x^k)
    h(alpha)  = sum over primes p <= X of e(alpha p^k)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

from waringtk.arith import sieve_primes
from waringtk.errors import PreconditionError, ResourceError
from waringtk.integral import U_major
from waringtk.params import ProblemParams
from waringtk.powersets import (
    DEFAULT_ETA,
    PowerSumTable,
    restricted_power_sums,
)

IOTA = 1.0 / 1000.0
VMV_BUDGET = 4 * 10**6


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
    """Exact membership in M(Q) by scanning denominators q <= Q."""
    if not 0 <= alpha < 1:
        raise PreconditionError("need alpha in [0, 1)")
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
    a, q = dirichlet_approx(alpha, max(Q, 1))
    return ArcPoint(alpha, a, q, alpha - a / q, "minor")


def classify_mm(alpha: float, n: int, k: int, M: float) -> ArcPoint:
    """Membership in m_M: Dirichlet pair with q <= 2kX, |beta| <= (2kqX)^-1,
    subject to |beta| >= M/(qn) whenever q <= M."""
    X = n ** (1.0 / k)
    bound = math.floor(2 * k * X)
    a, q = dirichlet_approx(alpha, bound)
    beta = alpha - a / q
    inside = abs(beta) <= 1.0 / (2 * k * q * X)
    if inside and q <= M and abs(beta) < M / (q * n):
        return ArcPoint(alpha, a, q, beta, "mM-excluded")
    return ArcPoint(alpha, a, q, beta, "mM" if inside else "mM-excluded")


def preset_cutoffs(params: ProblemParams) -> dict[str, float]:
    """Named dissection cutoffs: M(P^(1/2)), M(log P), M(P^(1/2+iota))."""
    P = params.P
    return {
        "sqrt": P**0.5,
        "log": math.log(P),
        "sqrt_plus_iota": P ** (0.5 + IOTA),
    }


# ---------------------------------------------------------------------------
# shifted sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShiftedSetPair:
    """S1 = S_{t1}(P1) and S2 = S_l(P2) together with their cutoffs."""

    s1: tuple[int, ...]
    s2: tuple[int, ...]
    c1: float
    c2: float
    p1: int
    p2: int


def shifted_set_pair(params: ProblemParams, eta: float = DEFAULT_ETA) -> ShiftedSetPair:
    if params.p1 < 1 or params.p2 < 1:
        raise PreconditionError("P1 and P2 must be >= 1; increase n")
    s1 = restricted_power_sums(params.t1, params.l, params.p1, eta).values
    s2 = restricted_power_sums(params.l, params.l, params.p2, eta).values
    return ShiftedSetPair(s1=s1, s2=s2, c1=params.c1, c2=params.c2, p1=params.p1, p2=params.p2)


@dataclass(frozen=True)
class PrimeShiftedSet:
    """S = S_{xi1}(floor(P3)) and the primes in (P/2, P]."""

    s: tuple[int, ...]
    primes: tuple[int, ...]
    c3: float
    p3: float


def prime_shifted_set(params: ProblemParams, eta: float = DEFAULT_ETA) -> PrimeShiftedSet:
    y = math.floor(params.p3)
    if y < 1:
        raise PreconditionError("P3 < 1; increase n")
    s = restricted_power_sums(params.xi1, params.l, y, eta).values
    primes = tuple(p for p in sieve_primes(math.floor(params.P)) if p > params.P / 2)
    return PrimeShiftedSet(s=s, primes=primes, c3=params.c3, p3=params.p3)


# ---------------------------------------------------------------------------
# generating functions
# ---------------------------------------------------------------------------


def _phase_sum(alpha: float, values: np.ndarray, weights: np.ndarray | None = None) -> complex:
    ph = np.exp(2j * np.pi * ((alpha * values) % 1.0))
    if weights is None:
        return complex(ph.sum())
    return complex(np.dot(weights, ph))


def f_alpha(alpha: float, k: int, table: PowerSumTable) -> complex:
    """f(alpha) = sum_m rho_t[m] e(alpha m^k) over the table support."""
    rho = np.array(table.rho, dtype=np.float64)
    support = np.nonzero(rho)[0]
    support = support[support >= 1]
    mk = support.astype(object) ** k  # exact k-th powers before reduction mod 1
    vals = np.array([float((alpha * int(v)) % 1.0) for v in mk])
    ph = np.exp(2j * np.pi * vals)
    return complex(np.dot(rho[support], ph))


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


def f_m_alpha(alpha: float, m: int, k: int, s1: tuple[int, ...]) -> complex:
    """f_m(alpha) = sum_{x in S1} e(alpha (x+m)^k)."""
    x = np.array(s1, dtype=np.int64)
    return _phase_sum(alpha, ((x + m).astype(object) ** k).astype(np.float64))


def F_alpha(alpha: float, pair: ShiftedSetPair, k: int) -> complex:
    """F(alpha) = sum_{m in S2} f_m(alpha), evaluated as one outer sum."""
    x = np.array(pair.s1, dtype=np.int64)[:, None]
    m = np.array(pair.s2, dtype=np.int64)[None, :]
    vals = ((x + m).astype(np.float64)) ** k
    return complex(np.exp(2j * np.pi * ((alpha * vals) % 1.0)).sum())


def gamma_shift(alpha: float, k: int, j: int, m: int) -> float:
    """Shift coefficient gamma_j(m) = alpha * C(k, j) * m^(k-j)."""
    if not 1 <= j <= k:
        raise PreconditionError("need 1 <= j <= k")
    return alpha * math.comb(k, j) * m ** (k - j)


def spacing_diagnostic(alpha: float, pair: ShiftedSetPair, k: int, n: int) -> float:
    """min over distinct x, y in S2 of ||gamma_{k-1}(x) - gamma_{k-1}(y)||,
    normalized by X^(-k+1); the recorded constant c."""
    X = n ** (1.0 / k)
    g = np.array([gamma_shift(alpha, k, k - 1, m) for m in pair.s2])
    diffs = np.abs(g[:, None] - g[None, :])[np.triu_indices(len(g), 1)]
    dist = np.minimum(diffs % 1.0, 1.0 - diffs % 1.0)
    if len(dist) == 0:
        raise PreconditionError("S2 needs at least two elements")
    return float(np.min(dist)) / X ** (-(k - 1))


def G_alpha(alpha: float, pset: PrimeShiftedSet, k: int, l: int) -> complex:
    """G(alpha) = sum over primes p in (P/2, P], x in S of e(alpha (x+p^l)^k)."""
    if not pset.primes:
        return 0j
    x = np.array(pset.s, dtype=np.int64)[:, None]
    p = np.array(pset.primes, dtype=np.int64)[None, :]
    vals = ((x + p**l).astype(np.float64)) ** k
    return complex(np.exp(2j * np.pi * ((alpha * vals) % 1.0)).sum())


def g_alpha(alpha: float, k: int, n: int) -> complex:
    """g(alpha) = sum_{X1 < x <= 2X1} e(alpha x^k)."""
    X1 = 0.5 * (2 * k) ** (-1.0 / (k - 1)) * n ** (1.0 / k)
    x = np.arange(math.floor(X1) + 1, math.floor(2 * X1) + 1, dtype=np.int64)
    if len(x) == 0:
        return 0j
    return _phase_sum(alpha, (x.astype(np.float64)) ** k)


def h_alpha(alpha: float, k: int, n: int) -> complex:
    """h(alpha) = sum over primes p <= X of e(alpha p^k)."""
    X = n ** (1.0 / k)
    p = np.array(sieve_primes(math.floor(X)), dtype=np.int64)
    if len(p) == 0:
        return 0j
    return _phase_sum(alpha, (p.astype(np.float64)) ** k)


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
    P = n ** (1.0 / (k * l))
    if Q >= P:
        raise PreconditionError("major-arc approximation needs q <= Q < P")
    rng = np.random.default_rng(seed)
    table = _rho_table_for(l, t, math.floor(P**l))
    worst = 0.0
    for i in range(sample_count):
        q = 1 + i % Q
        units = [a for a in range(q + 1) if math.gcd(a, q) == 1 and (a < q or q == 1)]
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
    budget: int = VMV_BUDGET,
) -> int:
    """Exact J_{s,r}^(k_sys)(Y): solutions of sum x_i^j = sum x_{s+i}^j for
    j = 1..k_sys with all 2s variables in S_r(Y), by meet-in-the-middle."""
    if s < 1 or k_sys < 1:
        raise PreconditionError("need s >= 1 and k_sys >= 1")
    values = restricted_power_sums(r, l, Y, eta).values
    if len(values) ** s > budget:
        raise ResourceError(f"|S|^s = {len(values) ** s} exceeds budget {budget}")
    from collections import Counter

    sums: Counter = Counter()
    for tup in product(values, repeat=s):
        sums[tuple(sum(x**j for x in tup) for j in range(1, k_sys + 1))] += 1
    return sum(c * c for c in sums.values())


def vmv_envelope_constant(
    s: int, k_sys: int, r: int, Y: int, l: int = 2, eta: float = DEFAULT_ETA
) -> float:
    """Recorded constant C in J <= C |S|^(2s) Y^(-lk(k+1)/2 + l Delta_r)."""
    from waringtk.params import capital_delta_r

    J = vinogradov_mean_value(s, k_sys, r, Y, l, eta)
    card = len(restricted_power_sums(r, l, Y, eta).values)
    expo = -l * k_sys * (k_sys + 1) / 2.0 + l * capital_delta_r(r, l, k_sys)
    return J / (card ** (2 * s) * Y**expo)
