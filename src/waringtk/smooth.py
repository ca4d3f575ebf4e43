"""Smooth power-sum sets S_r(Y) and the counts built on them, in Python
integers only: this module imports nothing that imports numpy, so the
CLI commands that read only it start without numpy.

S_r(Y) is the set of sums of r l-th powers of R-smooth integers in [1, Y]
with R realised as max(2, floor(Y^eta)).  On it rest the density report
(how |S_r(Y)| grows with Y), the Vinogradov mean value J_{s,r}^(k)(Y) and
the k = 2 mean value of the additive-energy count.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import product

from waringtk.arith import kth_root, smallest_prime_factors
from waringtk.errors import PreconditionError, require_integers, require_within, shown
from waringtk.params import delta_r

N_BUDGET = 10**7
DEFAULT_ETA = 0.25
VMV_BUDGET = 4 * 10**6


def smooth_set(Y: int, R: int) -> list[int]:
    """Sorted R-smooth integers in [1, Y] (1 included vacuously)."""
    require_integers(1, Y=Y, R=R)
    if Y == 1:
        return [1]
    spf = smallest_prime_factors(Y)
    out = [1]
    for m in range(2, Y + 1):
        v = m
        while v > 1 and spf[v] <= R:
            p = spf[v]
            while v % p == 0:
                v //= p
        if v == 1:
            out.append(m)
    return out


def realized_smoothness_bound(Y: int, eta: float) -> int:
    """R = max(2, floor(Y^eta)); never degenerate at desk scale."""
    if not 0 < eta < 1:
        raise PreconditionError(f"eta must lie in (0,1), got {eta}")
    return max(2, math.floor(Y**eta))


def restricted_power_sums(r: int, l: int, Y: int, eta: float = DEFAULT_ETA) -> tuple[int, ...]:
    """S_r(Y): the sorted distinct sums of r l-th powers of R-smooth
    integers in [1, Y], R = realized_smoothness_bound(Y, eta)."""
    require_integers(1, r=r, l=l)
    require_integers(0, Y=Y)
    require_within(N_BUDGET, **{"r Y^l": (Y, l, r)})
    R = realized_smoothness_bound(Y, eta)
    powers = [x**l for x in smooth_set(Y, R)]
    values = set(powers)
    for _ in range(r - 1):
        values = {a + b for a in values for b in powers}
    return tuple(sorted(values))


def default_y_grid(r: int, l: int) -> list[int]:
    """Four-point doubling grid ending at the largest Y with r Y^l within
    N_BUDGET, capped at 400 (so l = 2 gives the standard 50/100/200/400)."""
    require_integers(1, r=r, l=l)
    y_max = min(400, kth_root(N_BUDGET // r, l))
    if y_max < 16:
        raise PreconditionError(f"r Y^l <= N_BUDGET keeps Y below 16, too small for a 4-point grid (r={shown(r)}, l={shown(l)})")
    return [y_max // 8, y_max // 4, y_max // 2, y_max]


def density_report(
    r: int,
    l: int,
    Y_grid: list[int],
    eta: float = DEFAULT_ETA,
) -> list[dict]:
    """One row per Y: cardinality, pointwise exponent log|S|/log Y, the
    consecutive-pair slope, and the reference exponent l - l*delta_r."""
    if len(Y_grid) < 1 or sorted(Y_grid) != list(Y_grid):
        raise PreconditionError("Y_grid must be ascending and nonempty")
    ref = l - l * delta_r(r, l)
    rows = []
    prev: tuple[int, int] | None = None
    for Y in Y_grid:
        card = len(restricted_power_sums(r, l, Y, eta))
        point = math.log(card) / math.log(Y) if Y > 1 and card > 0 else float("nan")
        if prev is not None and Y > prev[0]:
            slope = math.log(card / prev[1]) / math.log(Y / prev[0])
        else:
            slope = float("nan")
        rows.append(
            {
                "Y": Y,
                "cardinality": card,
                "pointwise_exponent": point,
                "pair_slope": slope,
                "reference_exponent": ref,
            }
        )
        prev = (Y, card)
    return rows


def grid_exponent(rows: list[dict]) -> float:
    """Log-log slope between the first and last grid rows."""
    y0, c0 = rows[0]["Y"], rows[0]["cardinality"]
    y1, c1 = rows[-1]["Y"], rows[-1]["cardinality"]
    if y1 == y0:
        raise PreconditionError("grid needs at least two distinct Y values")
    return math.log(c1 / c0) / math.log(y1 / y0)


def vinogradov_mean_value(
    s: int,
    k_sys: int,
    r: int,
    Y: int,
    l: int = 2,
    eta: float = DEFAULT_ETA,
) -> int:
    """Exact J_{s,r}^(k_sys)(Y): solutions of sum x_i^j = sum x_{s+i}^j for
    j = 1..k_sys with all 2s variables in S_r(Y), by meet-in-the-middle:
    |S|^s tuples of s terms, each summed at k_sys powers, within VMV_BUDGET."""
    require_integers(1, s=s, k_sys=k_sys, l=l)
    values = restricted_power_sums(r, l, Y, eta)
    require_within(VMV_BUDGET, **{"|S|^s s k_sys": (len(values), s, s * k_sys)})
    sums = Counter(tuple(sum(x**j for x in tup) for j in range(1, k_sys + 1)) for tup in product(values, repeat=s))
    return sum(c * c for c in sums.values())


def k2_mean_value(t: int, X_cap: int, l: int = 2, Y: int | None = None) -> tuple[int, int]:
    """(diagonal, offdiagonal) counts of x_1^2 + y_1^2 + y_2^2 = x_2^2 + y_3^2 + y_4^2
    with X/2 < x_i <= X and y_i in S_t(Y) at eta = DEFAULT_ETA.

    The count is the additive energy sum_m R[m]^2 (Tao and Vu, Additive
    Combinatorics, 2.3), R[m] = sum of c[v] over x^2 + v = m, where c[v]
    counts the y-pairs with y_1^2 + y_2^2 = v; x_1 = x_2 forces v_1 = v_2,
    so the diagonal is |xs| sum_v c[v]^2. The |S|^2 + |xs| |S|^2 steps stay
    within twice the budget (|S| max(1, |xs|))^2 <= 10^8."""
    require_integers(0, X=X_cap)
    require_integers(1, t=t, l=l)
    if Y is None:
        Y = max(2, kth_root(X_cap, l))
    values = restricted_power_sums(t, l, Y)
    require_within(10**8, **{"(|S| |xs|)^2": (len(values) * max(1, X_cap - X_cap // 2)) ** 2})
    c = Counter(y1**2 + y2**2 for y1 in values for y2 in values)
    xs = range(X_cap // 2 + 1, X_cap + 1)
    R = Counter()
    for x in xs:
        R.update({x * x + v: cv for v, cv in c.items()})
    diagonal = len(xs) * sum(cv * cv for cv in c.values())
    return diagonal, sum(r * r for r in R.values()) - diagonal
