"""Rational approximation and the arc classification of one alpha, in
Python numbers only: this module imports nothing that imports numpy, so
`arcs classify` starts without numpy.

The unit interval splits into major arcs M(Q) = union over reduced a/q,
q <= Q, of {alpha : |alpha - a/q| <= Q/(qn)} and their complement m.
A second dissection m_M keeps the alpha whose Dirichlet pair
(q <= 2kX, |beta| <= (2kqX)^-1) additionally satisfies |beta| >= M/(qn)
whenever q <= M.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from waringtk.errors import PreconditionError, require_integers, require_within

CLASSIFY_Q_BUDGET = 10**6


def dirichlet_approx(alpha: float, denom_bound: int) -> tuple[int, int]:
    """Last continued-fraction convergent a/q with q <= denom_bound.

    Guarantees gcd(a, q) = 1 and |alpha - a/q| <= 1/(q * denom_bound).
    """
    if not 0 <= alpha < 1:
        raise PreconditionError("need alpha in [0, 1)")
    require_integers(1, denom_bound=denom_bound)
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
    require_integers(1, n=n, Q=Q)
    require_within(CLASSIFY_Q_BUDGET, Q=Q)
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
    subject to |beta| >= M/(qn) whenever q <= M; n, k >= 1 and M not NaN."""
    require_integers(1, n=n, k=k)
    if math.isnan(M):
        raise PreconditionError("need M to be a number, got nan")
    X = n ** (1.0 / k)
    bound = math.floor(2 * k * X)
    a, q = dirichlet_approx(alpha, bound)
    beta = alpha - a / q
    inside = abs(beta) <= 1.0 / (2 * k * q * X)
    if inside and q <= M and abs(beta) < M / (q * n):
        return ArcPoint(alpha, a, q, beta, "mM-excluded")
    return ArcPoint(alpha, a, q, beta, "mM" if inside else "mM-excluded")
