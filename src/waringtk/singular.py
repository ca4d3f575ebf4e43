"""Arithmetic factors S_n(q), S'_n(q), truncated singular series and
Euler products, and the exact finite identity linking them to M_n(p^h).

S_n(q)  = sum over coprime a of (q^-t S(q,a))^s (q^-1 S_k(q,a))^2
          (phi(q)^-1 W(q,a))^2 e_q(-a n)
S'_n(q) = sum over coprime a of (q^-t S(q,a))^s e_q(-a n)

The printed series start at "q = 0"; S_n(0) is undefined and the sum is
implemented from q = 1 with S_n(1) = 1 (classical convention).

For fast sweeps over n, each q contributes through a table
d_q[m] = sum_a coef(a) e_q(-a m); S_n(q) is then d_q[n mod q].  S(q, a)
for all coprime a at once is computed from the exact residue histogram
of T(r)^k mod q (mathematically identical to the u-reduction in
expsums.s_form; the two routes are cross-checked in the test suite).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from waringtk import expsums, local
from waringtk.arith import euler_phi, sieve_primes
from waringtk.errors import PreconditionError
from waringtk.expsums import S_FORM_Q_BUDGET, coprime_residues, hist_dft_all, omega_table

DEFAULT_Q_CUTOFF = 200
DEFAULT_PRIME_CUTOFF = 50
DEFAULT_PH_CUTOFF = 200
POSITIVITY_FLOOR = 0.01


@lru_cache(maxsize=1024)
def form_power_histogram(q: int, k: int, l: int, t: int) -> tuple[int, ...]:
    """counts[m] = #{r in [1,q]^t : T(r)^k = m (mod q)}, exact."""
    base = local.power_histogram(q, l)
    return local.pushforward_power(base.power(t), k).counts


def s_form_all(q: int, k: int, l: int, t: int) -> tuple[np.ndarray, np.ndarray]:
    """(units, S(q, a) for every coprime a), via the exact histogram."""
    units = coprime_residues(q)
    if q == 1:
        return units, np.array([1 + 0j])
    if q > S_FORM_Q_BUDGET:
        raise PreconditionError(f"q = {q} exceeds the budget {S_FORM_Q_BUDGET}")
    hist = form_power_histogram(q, k, l, t)
    return units, hist_dft_all(q, hist, units)


@lru_cache(maxsize=2048)
def _d_table(q: int, k: int, l: int, t: int, s: int, variant: str) -> np.ndarray:
    """d[m] = S_m(q) (variant 'full') or S'_m(q) (variant 'prime_form')."""
    if q == 1:
        return np.array([1 + 0j])
    units, sform = s_form_all(q, k, l, t)
    coef = (sform / q**t) ** s
    if variant == "full":
        _, sk = expsums.s_k_all(q, k)
        _, wv = expsums.w_all(q, k)
        coef = coef * (sk / q) ** 2 * (wv / euler_phi(q)) ** 2
    elif variant != "form_only":
        raise PreconditionError(f"unknown variant {variant!r}")
    om = omega_table(q)
    out = np.empty(q, dtype=np.complex128)
    for i in range(q):
        out[i] = np.dot(coef, om[(-units * i) % q])
    return out


def s_n_q(q: int, n: int, k: int, l: int, t: int, s: int) -> complex:
    """The full arithmetic factor S_n(q); S_n(1) = 1."""
    return complex(_d_table(q, k, l, t, s, "full")[n % q])


def s_n_prime_q(q: int, n: int, k: int, l: int, t: int, s: int) -> complex:
    """S'_n(q): the form-only factor (no S_k / W weights)."""
    return complex(_d_table(q, k, l, t, s, "form_only")[n % q])


@dataclass(frozen=True)
class SeriesTruncation:
    value: float
    Q_cutoff: int
    per_q_terms: tuple[complex, ...]
    tail_estimate: float
    euler_variant: bool = False
    prime_cutoff: int | None = None
    h_cutoff: int | None = None
    imag_residual: float = field(default=0.0)


def truncated_series(
    n: int,
    Q: int,
    k: int,
    l: int,
    t: int,
    s: int,
    series: str = "Sn",
    variant: str = "full",
    prime_cutoff: int = DEFAULT_PRIME_CUTOFF,
    ph_cutoff: int = DEFAULT_PH_CUTOFF,
) -> SeriesTruncation:
    """Truncation of the singular series (series='Sn') or its form-only
    analogue (series='SnPrime').

    variant='full': direct sum over q <= Q.
    variant='prime': Euler product over p <= prime_cutoff, p^h <= ph_cutoff.
    """
    dvariant = "full" if series == "Sn" else "form_only"
    if series not in ("Sn", "SnPrime"):
        raise PreconditionError(f"series must be 'Sn' or 'SnPrime', got {series!r}")
    if variant == "full":
        terms = [complex(_d_table(q, k, l, t, s, dvariant)[n % q]) for q in range(1, Q + 1)]
        total = complex(sum(terms))
        return SeriesTruncation(
            value=total.real,
            Q_cutoff=Q,
            per_q_terms=tuple(terms),
            tail_estimate=Q ** (-1.0 / k),
            imag_residual=abs(total.imag),
        )
    if variant != "prime":
        raise PreconditionError(f"variant must be 'full' or 'prime', got {variant!r}")
    factors = []
    for p in sieve_primes(prime_cutoff):
        sigma = 1 + 0j
        h = 1
        while p**h <= ph_cutoff:
            sigma += complex(_d_table(p**h, k, l, t, s, dvariant)[n % p**h])
            h += 1
        factors.append(sigma)
    total = complex(math.prod(factors))
    return SeriesTruncation(
        value=total.real,
        Q_cutoff=ph_cutoff,
        per_q_terms=tuple(factors),
        tail_estimate=ph_cutoff ** (-1.0 / k),
        euler_variant=True,
        prime_cutoff=prime_cutoff,
        h_cutoff=ph_cutoff,
        imag_residual=abs(total.imag),
    )


def snm_identity_check(p: int, h: int, n: int, k: int, l: int, t: int, s: int) -> float:
    """|sum_{j<=h} S_n(p^j) - M_n(p^h) p^(-h(st+1)) phi(p^h)^(-2)|.

    Both sides are computed by independent routes (complex exponential
    sums vs exact integer histogram counting).
    """
    lhs = 1 + 0j  # j = 0 term
    for j in range(1, h + 1):
        lhs += s_n_q(p**j, n, k, l, t, s)
    count = local.m_n(p, h, n, k, l, t, s)
    rhs = Fraction(count, p ** (h * (s * t + 1)) * euler_phi(p**h) ** 2)
    return abs(lhs - complex(float(rhs)))


@dataclass(frozen=True)
class PositivityReport:
    min_value: float
    argmin_n: int
    flagged: tuple[int, ...]  # n with truncated value <= POSITIVITY_FLOOR
    prime_failures: tuple[tuple[int, str], ...]  # (p, reason) diagnostics


def positivity_sweep(
    n_values: list[int],
    k: int,
    l: int,
    t: int,
    s: int,
    Q: int = DEFAULT_Q_CUTOFF,
    series: str = "Sn",
    check_primes_upto: int = 13,
) -> PositivityReport:
    """Minimum truncated series value over an n-range, with per-prime
    local-solubility diagnostics for the lemma backing positivity."""
    which = "M" if series == "Sn" else "Mstar"
    failures = []
    for p in sieve_primes(check_primes_upto):
        try:
            rep = local.verify_local_solubility(p, k, l, t, s, which=which)
            if not rep.all_positive:
                failures.append((p, f"residues {rep.failing_residues} have no local solution"))
        except PreconditionError as exc:
            failures.append((p, str(exc)))
    best = math.inf
    argmin = -1
    flagged = []
    for n in n_values:
        v = truncated_series(n, Q, k, l, t, s, series=series).value
        if v < best:
            best, argmin = v, n
        if v <= POSITIVITY_FLOOR:
            flagged.append(n)
    return PositivityReport(
        min_value=best, argmin_n=argmin, flagged=tuple(flagged), prime_failures=tuple(failures)
    )
