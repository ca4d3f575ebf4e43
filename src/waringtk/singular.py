"""Arithmetic factors S_n(q), S'_n(q), truncated singular series and
Euler products, and the exact finite identity linking them to M_n(p^h).

S_n(q)  = sum over coprime a of (q^-t S(q,a))^s (q^-1 S_k(q,a))^2
          (phi(q)^-1 W(q,a))^2 e_q(-a n)
S'_n(q) = sum over coprime a of (q^-t S(q,a))^s e_q(-a n)

The printed series start at "q = 0"; S_n(0) is undefined and the sum is
implemented from q = 1 with S_n(1) = 1 (classical convention).

Each q contributes through d_q[m] = sum_a coef(a) e_q(-a m), so that
S_n(q) = d_q[n mod q]. The per-q object (_d_table) holds the units and
coef; an entry is computed on its first read, as one np.dot of coef with
the roots of unity of its residue, and kept. A series at one n reads one
entry per q, and a sweep never computes an entry twice, so no table is
filled beyond what is read and every entry is bit-identical to the
per-residue sum. Window means (represent.window_ratio) read coef alone.
_d_table takes the units of q once and each factor of coef as one
expsums.hist_dft_all of an exact histogram at them: S(q, a) of T(r)^k
mod q (the u-reduction expsums.s_form is its test oracle), and for 'Sn'
S_k(q, a) and W(q, a) of r^k over all r and over the units r. The first
is local.form_power_histogram, which the local counts read too: the
image of the cached cyclic power local.form_histogram at prime powers,
and hist_q[x] = hist_{p^e}[x mod p^e] hist_m[x mod m] at q = p^e m, p ∤ m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from waringtk import local
from waringtk.arith import euler_phi, sieve_primes
from waringtk.errors import PreconditionError, ResourceError, require_integers
from waringtk.expsums import S_FORM_Q_BUDGET, coprime_residues, hist_dft_all, omega_table, power_residue_histogram
from waringtk.local import form_power_histogram

DEFAULT_Q_CUTOFF = 200
DEFAULT_PRIME_CUTOFF = 50
POSITIVITY_FLOOR = 0.01


def _check_q_budget(Q: int) -> None:
    if Q > S_FORM_Q_BUDGET:
        raise ResourceError(f"q = {Q} exceeds the budget {S_FORM_Q_BUDGET}")


def _check_series_args(Q: int, k: int, l: int, t: int, s: int) -> None:
    """A series cut at Q needs Q >= 1 and k >= 1 (its tail estimate is
    Q^(-1/k)), l, t >= 1 and s >= 0, and Q within the budget."""
    if Q < 1 or min(k, l, t) < 1 or s < 0:
        raise PreconditionError(
            f"need Q >= 1, k, l, t >= 1 and s >= 0, got Q={Q}, k={k}, l={l}, t={t}, s={s}"
        )
    _check_q_budget(Q)


class SeriesFactor:
    """d_q[m] = sum over the units a of q of coef(a) e_q(-a m), entries
    computed on first read: d[n] is np.dot(coef, om[(-units * m) % q])
    for m = n mod q, kept in row. One np.dot per residue keeps every float
    bit-identical to that per-residue sum; one matrix product over the
    residues would sum in another order."""

    def __init__(self, q: int, units: np.ndarray, coef: np.ndarray):
        self.q, self.units, self.coef = q, units, coef
        self.row: dict[int, complex] = {}
        self._om = omega_table(q)

    def __getitem__(self, n: int) -> complex:
        m = n % self.q
        value = self.row.get(m)
        if value is None:
            value = self.row[m] = complex(np.dot(self.coef, self._om[(-self.units * m) % self.q]))
        return value


@lru_cache(maxsize=2048)
def _d_table(q: int, k: int, l: int, t: int, s: int, series: str) -> SeriesFactor:
    """The factor d[n] = S_n(q) (series 'Sn') or S'_n(q) (series
    'SnPrime'), empty until read; coef is the weight of each unit."""
    if series not in ("Sn", "SnPrime"):
        raise PreconditionError(f"series must be 'Sn' or 'SnPrime', got {series!r}")
    _check_q_budget(q)
    units = coprime_residues(q)
    coef = (hist_dft_all(q, form_power_histogram(q, k, l, t), units) / q**t) ** s
    if series == "Sn":
        sk = hist_dft_all(q, power_residue_histogram(q, k), units)
        wv = hist_dft_all(q, power_residue_histogram(q, k, units_only=True), units)
        coef = coef * (sk / q) ** 2 * (wv / euler_phi(q)) ** 2
    return SeriesFactor(q, units, coef)


def s_n_q(q: int, n: int, k: int, l: int, t: int, s: int) -> complex:
    """The full arithmetic factor S_n(q); S_n(1) = 1."""
    return _d_table(q, k, l, t, s, "Sn")[n]


def s_n_prime_q(q: int, n: int, k: int, l: int, t: int, s: int) -> complex:
    """S'_n(q): the form-only factor (no S_k / W weights)."""
    return _d_table(q, k, l, t, s, "SnPrime")[n]


@dataclass(frozen=True)
class SeriesTruncation:
    value: float
    per_q_terms: tuple[complex, ...]
    tail_estimate: float
    imag_residual: float


def truncated_series(
    n: int,
    Q: int,
    k: int,
    l: int,
    t: int,
    s: int,
    series: str = "Sn",
    variant: str = "full",
) -> SeriesTruncation:
    """Truncation of the singular series (series='Sn') or its form-only
    analogue (series='SnPrime').

    variant='full': direct sum over q <= Q.
    variant='prime': Euler product over p <= DEFAULT_PRIME_CUTOFF,
    p^h <= Q.
    """
    require_integers(n=n, Q=Q, k=k, l=l, t=t, s=s)
    if series not in ("Sn", "SnPrime"):
        raise PreconditionError(f"series must be 'Sn' or 'SnPrime', got {series!r}")
    if variant not in ("full", "prime"):
        raise PreconditionError(f"variant must be 'full' or 'prime', got {variant!r}")
    _check_series_args(Q, k, l, t, s)
    if variant == "full":
        terms = [_d_table(q, k, l, t, s, series)[n] for q in range(1, Q + 1)]
        total = complex(sum(terms))
    else:
        terms = []
        for p in sieve_primes(DEFAULT_PRIME_CUTOFF):
            sigma = 1 + 0j
            h = 1
            while p**h <= Q:
                sigma += _d_table(p**h, k, l, t, s, series)[n]
                h += 1
            terms.append(sigma)
        total = complex(math.prod(terms))
    return SeriesTruncation(
        value=total.real,
        per_q_terms=tuple(terms),
        tail_estimate=Q ** (-1.0 / k),
        imag_residual=abs(total.imag),
    )


def snm_identity_check(p: int, h: int, n: int, k: int, l: int, t: int, s: int) -> float:
    """|sum_{j<=h} S_n(p^j) - M_n(p^h) p^(-h(st+1)) phi(p^h)^(-2)|.

    Both sides start from the histograms of local.form_power_histogram
    and then part: complex exponential sums of them vs exact integer
    cyclic convolution. The count comes first: local.m_n checks that p
    is prime, h >= 0, k, l, t >= 1 and s >= 0.
    """
    count = local.m_n(p, h, n, k, l, t, s)
    lhs = 1 + 0j  # j = 0 term
    for j in range(1, h + 1):
        lhs += s_n_q(p**j, n, k, l, t, s)
    rhs = count / (p ** (h * (s * t + 1)) * euler_phi(p**h) ** 2)  # int / int rounds once
    return abs(lhs - rhs)


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
) -> PositivityReport:
    """Minimum truncated series value over an n-range, with the
    local-solubility diagnostics at the primes p <= 13 for the lemma
    backing positivity."""
    if not n_values:
        raise PreconditionError("positivity sweep over an empty n range")
    _check_series_args(Q, k, l, t, s)
    which = "M" if series == "Sn" else "Mstar"
    failures = []
    for p in sieve_primes(13):
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
