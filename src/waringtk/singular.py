"""Arithmetic factors S_n(q), S'_n(q), truncated singular series and
Euler products, and the exact finite identity linking them to M_n(p^h).

S_n(q)  = sum over coprime a of (q^-t S(q,a))^s (q^-1 S_k(q,a))^2
          (phi(q)^-1 W(q,a))^2 e_q(-a n)
S'_n(q) = sum over coprime a of (q^-t S(q,a))^s e_q(-a n)

The printed series start at "q = 0"; S_n(0) is undefined and the sum is
implemented from q = 1 with S_n(1) = 1 (classical convention).

Each q contributes through d_q[m] = sum_a coef(a) e_q(-a m), so that
S_n(q) = d_q[n mod q]. _d_table holds the read-only (units, coef) of
each q, and no other module reads it. _d_entry computes one entry, as
one np.dot of coef with the roots of unity of its residue, for s_n_q,
s_n_prime_q and truncated_series: a series at one n computes one entry
per q, and every entry is bit-identical to the per-residue sum.
window_series_sum, the window sum behind represent.window_ratio, takes
one FFT of the window's residue-class weight sums per q, read at the units.
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
from waringtk.errors import PreconditionError, require_integers, require_within
from waringtk.expsums import S_FORM_Q_BUDGET, coprime_residues, hist_dft_all, omega_table, power_residue_histogram
from waringtk.local import form_power_histogram

DEFAULT_Q_CUTOFF = 200
DEFAULT_PRIME_CUTOFF = 50
POSITIVITY_FLOOR = 0.01


def _check_series_args(Q: int, k: int, l: int, t: int, s: int) -> None:
    """A series cut at Q needs Q >= 1 and k >= 1 (its tail estimate is
    Q^(-1/k)), l, t >= 1 and s >= 0, and Q within the budget."""
    require_integers(1, Q=Q, k=k, l=l, t=t)
    require_integers(0, s=s)
    require_within(S_FORM_Q_BUDGET, Q=Q)


@lru_cache(maxsize=2048)
def _d_table(q: int, k: int, l: int, t: int, s: int, series: str) -> tuple[np.ndarray, np.ndarray]:
    """The read-only (units, coef) of the factor S_n(q) (series 'Sn') or
    S'_n(q) (series 'SnPrime'): the units a of q and the weight of each."""
    if series not in ("Sn", "SnPrime"):
        raise PreconditionError(f"series must be 'Sn' or 'SnPrime', got {series!r}")
    require_within(S_FORM_Q_BUDGET, q=q)
    units = coprime_residues(q)
    coef = (hist_dft_all(q, form_power_histogram(q, k, l, t), units) / q**t) ** s
    if series == "Sn":
        sk = hist_dft_all(q, power_residue_histogram(q, k), units)
        wv = hist_dft_all(q, power_residue_histogram(q, k, units_only=True), units)
        coef = coef * (sk / q) ** 2 * (wv / euler_phi(q)) ** 2
    units.setflags(write=False)
    coef.setflags(write=False)
    return units, coef


def _d_entry(q: int, n: int, k: int, l: int, t: int, s: int, series: str) -> complex:
    """d_q[n] = sum over the units a of q of coef(a) e_q(-a n), as one
    np.dot of coef with the roots of unity at -a (n mod q); one matrix
    product over all residues would sum in another order."""
    units, coef = _d_table(q, k, l, t, s, series)
    return complex(np.dot(coef, omega_table(q)[(-units * (n % q)) % q]))


def s_n_q(q: int, n: int, k: int, l: int, t: int, s: int) -> complex:
    """The full arithmetic factor S_n(q); S_n(1) = 1."""
    return _d_entry(q, n, k, l, t, s, "Sn")


def s_n_prime_q(q: int, n: int, k: int, l: int, t: int, s: int) -> complex:
    """S'_n(q): the form-only factor (no S_k / W weights)."""
    return _d_entry(q, n, k, l, t, s, "SnPrime")


@dataclass(frozen=True)
class SeriesTruncation:
    value: float
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
    require_integers(n=n)
    if series not in ("Sn", "SnPrime"):
        raise PreconditionError(f"series must be 'Sn' or 'SnPrime', got {series!r}")
    if variant not in ("full", "prime"):
        raise PreconditionError(f"variant must be 'full' or 'prime', got {variant!r}")
    _check_series_args(Q, k, l, t, s)
    if variant == "full":
        total = complex(sum(_d_entry(q, n, k, l, t, s, series) for q in range(1, Q + 1)))
    else:
        total = 1 + 0j
        for p in sieve_primes(DEFAULT_PRIME_CUTOFF):
            sigma, q = 1 + 0j, p
            while q <= Q:
                sigma += _d_entry(q, n, k, l, t, s, series)
                q *= p
            total *= sigma
    return SeriesTruncation(
        value=total.real,
        tail_estimate=Q ** (-1.0 / k),
        imag_residual=abs(total.imag),
    )


def window_series_sum(n_lo: int, n_hi: int, k: int, l: int, t: int, s: int, Q: int) -> float:
    """sum over n_lo <= n <= n_hi of w_n S'_n cut at Q, w_n = n^(st/kl - 1):
    the window sum of the main term C w_n S'(n) over C.

    It is sum_n w_n + sum_{2<=q<=Q} Re sum_n w_n d_q[n mod q], and
    sum_n w_n d_q[n mod q] = sum_a coef_q(a) sum_r W_q[r] e_q(-a r) with
    W_q[r] the sum of w_n over n = r (mod q): one FFT of W_q per q, read
    at the units, so no d_q entry is computed."""
    require_integers(n_lo=n_lo, n_hi=n_hi)
    if not 1 <= n_lo <= n_hi:
        raise PreconditionError(f"need 1 <= n_lo <= n_hi, got n_lo={n_lo}, n_hi={n_hi}")
    _check_series_args(Q, k, l, t, s)
    weights = np.arange(n_lo, n_hi + 1) ** (s * t / (k * l) - 1.0)
    total = float(np.sum(weights))
    for q in range(2, Q + 1):
        units, coef = _d_table(q, k, l, t, s, "SnPrime")
        offset = n_lo % q
        padded = np.zeros(-(-(offset + len(weights)) // q) * q)
        padded[offset : offset + len(weights)] = weights
        residue_sums = padded.reshape(-1, q).sum(axis=0)
        total += float(np.real(np.dot(coef, np.fft.fft(residue_sums)[units])))
    return total


def snm_identity_check(p: int, h: int, n: int, k: int, l: int, t: int, s: int) -> float:
    """|sum_{j<=h} S_n(p^j) - M_n(p^h) p^(-h(st+1)) phi(p^h)^(-2)|.

    Both sides start from the histograms of local.form_power_histogram
    and then part: complex exponential sums of them vs exact integer
    cyclic convolution. The count comes first: local.m_n checks that p
    is prime, n is an integer, h >= 0, k, l, t >= 1 and s >= 0.
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
