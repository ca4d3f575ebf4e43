"""Exact p-adic solution counts via residue-histogram convolution.

M_n(p^h) counts (y, X) in [1,p^h]^4 x [1,p^h]^(st) with p not dividing
y_1 y_2 and n = y_1^k + ... + y_4^k + sum_i T(x_i)^k (mod p^h).
M*_n(p^h) counts X in [1,p^h]^(st) with p ∤ x_{1,1}, p ∤ T(x_1) and
n = sum_i T(x_i)^k (mod p^h).

Tuple enumeration is hopeless (the M_n space has p^(h(st+4)) points even
at p=3, h=1, t=8); everything flows through cyclic convolution of exact
integer histograms instead, at cost polynomial in p^h.

A histogram is a count array in the convolve.count_array rule (int64,
object past 2^63); the lru-cached ones are read-only. form_histogram
holds the one t-fold cyclic power per (p^h, l, t), and
form_power_histogram, the histogram of T(r)^k mod q, is its pushforward
under m -> m^k at prime powers and a CRT product at composite q. The
local counts here and the singular series both read it, so every k
shares that power.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from waringtk.arith import factorize, gamma_exponent, nu_exponent, p_adic_valuation, require_prime
from waringtk.convolve import count_array, count_total, cyclic_convolve, cyclic_power
from waringtk.errors import PreconditionError, require_integers, require_within
from waringtk.expsums import power_mod, power_residue_histogram

FORM_HIST_BUDGET = 10**5
MN_BUDGET = 10**4


def _frozen(hist: np.ndarray) -> np.ndarray:
    """hist, made read-only: the lru caches hand it to every caller."""
    hist.flags.writeable = False
    return hist


def pushforward_power(hist: np.ndarray, expo: int) -> np.ndarray:
    """Image histogram under m -> m^expo mod q, q = len(hist), summed in
    int64 when the exact total fits and in Python ints otherwise (a bin
    can pass 2^63 when no entry does)."""
    q = len(hist)
    dtype = np.int64 if count_total(hist) < 1 << 63 else object
    out = np.zeros(q, dtype=dtype)
    np.add.at(out, power_mod(np.arange(q), expo, q), hist.astype(dtype, copy=False))
    return count_array(out)


def mask_units(hist: np.ndarray, p: int) -> np.ndarray:
    """Keep only residue classes coprime to p."""
    out = hist.copy()
    out[::p] = 0
    return out


@lru_cache(maxsize=512)
def form_histogram(p: int, h: int, l: int, t: int) -> np.ndarray:
    """Distribution of T(x) = x_1^l + ... + x_t^l mod p^h over x in [0,p^h)^t."""
    require_within(FORM_HIST_BUDGET, **{"p^h": (p, h)})
    q = p**h
    return _frozen(cyclic_power(power_residue_histogram(q, l), t, q))


@lru_cache(maxsize=1024)
def form_power_histogram(q: int, k: int, l: int, t: int) -> np.ndarray:
    """counts[m] = #{r in [1,q]^t : T(r)^k = m (mod q)}, exact.

    At q = p^h the pushforward of form_histogram(p, h, l, t), so every k
    shares that cyclic power; at q = p^e m with gcd(p, m) = 1, r in
    [1,q]^t runs over the pairs (r mod p^e, r mod m) by CRT, so
    counts[x] = counts_{p^e}[x mod p^e] counts_m[x mod m], a product
    taken in int64 when the largest one fits and in Python ints otherwise
    (it can pass 2^63 when neither factor does)."""
    entries = factorize(q)
    if len(entries) <= 1:
        p, h = entries[0] if entries else (1, 1)
        return _frozen(pushforward_power(form_histogram(p, h, l, t), k))
    pe = entries[0][0] ** entries[0][1]
    m, x = q // pe, np.arange(q)
    hist_pe, hist_m = form_power_histogram(pe, k, l, t), form_power_histogram(m, k, l, t)
    if int(hist_pe.max()) * int(hist_m.max()) >= 1 << 63:
        hist_pe = hist_pe.astype(object)
    return _frozen(count_array(hist_pe[x % pe] * hist_m[x % m]))


def _check_local_args(p: int, h: int, k: int, l: int, t: int, s: int) -> None:
    """A local count needs a prime p, h >= 0, k, l, t >= 1 and s >= 0."""
    require_integers(0, h=h, s=s)
    require_integers(1, k=k, l=l, t=t)
    require_prime(p)


def _local_modulus(p: int, h: int) -> int:
    """p^h, formed once MN_BUDGET admits it: the modulus of both local counts."""
    require_within(MN_BUDGET, **{"p^h": (p, h)})
    return p**h


@lru_cache(maxsize=512)
def _m_n_histogram(p: int, h: int, k: int, l: int, t: int, s: int) -> np.ndarray:
    q = _local_modulus(p, h)
    unitpow = power_residue_histogram(q, k, units_only=True)
    allpow = power_residue_histogram(q, k)
    acc = cyclic_convolve(cyclic_convolve(cyclic_convolve(unitpow, unitpow, q), allpow, q), allpow, q)
    if s > 0:
        acc = cyclic_convolve(acc, cyclic_power(form_power_histogram(q, k, l, t), s, q), q)
    return _frozen(acc)


def m_n(p: int, h: int, n: int, k: int, l: int, t: int, s: int) -> int:
    """|M_n(p^h)|, exact."""
    _check_local_args(p, h, k, l, t, s)
    require_integers(n=n)
    if h == 0:
        # trivial modulus: the whole parameter space (one point per tuple class)
        return 1
    return int(_m_n_histogram(p, h, k, l, t, s)[n % p**h])


@lru_cache(maxsize=512)
def _m_star_histogram(p: int, h: int, k: int, l: int, t: int, s: int) -> np.ndarray:
    q = _local_modulus(p, h)
    require_integers(1, s=s)
    # first block: x_{1,1} a unit AND the form value T(x_1) a unit
    first = power_residue_histogram(q, l, units_only=True)
    if t > 1:
        first = cyclic_convolve(first, form_histogram(p, h, l, t - 1), q)
    first = pushforward_power(mask_units(first, p), k)
    if s > 1:
        first = cyclic_convolve(first, cyclic_power(form_power_histogram(q, k, l, t), s - 1, q), q)
    return _frozen(first)


def m_star_n(p: int, h: int, n: int, k: int, l: int, t: int, s: int) -> int:
    """|M*_n(p^h)|, exact."""
    _check_local_args(p, h, k, l, t, s)
    require_integers(n=n)
    if h == 0:
        return 1
    return int(_m_star_histogram(p, h, k, l, t, s)[n % p**h])


@dataclass(frozen=True)
class SolubilityReport:
    p: int
    level: int
    which: str
    counts: tuple[int, ...]  # per residue n mod p^level

    @property
    def all_positive(self) -> bool:
        return all(c > 0 for c in self.counts)

    @property
    def failing_residues(self) -> tuple[int, ...]:
        return tuple(n for n, c in enumerate(self.counts) if c == 0)


def check_lemma_hypotheses(p: int, k: int, l: int, t: int, s: int, which: str) -> None:
    """Raise unless (p, k, s, t) satisfies the printed case thresholds.

    which = "M": the level-gamma lemma (thresholds on s + 3).
    which = "Mstar": the level-nu lemma (thresholds on s directly).
    """
    if t < 4 * l:
        raise PreconditionError(f"lemma hypothesis t >= 4l violated: t={t}, l={l}")
    tau = p_adic_valuation(p, k)
    gamma = gamma_exponent(p, k)
    shift = 3 if which == "M" else 0
    if p == 2 and k == 2:
        need = 2 if which == "M" else 5
        if s < need:
            raise PreconditionError(f"case p=k=2 needs s >= {need}, got s={s}")
    elif gamma == tau + 1:
        g = math.gcd(k, p**tau * (p - 1))
        if (s + shift) * (p - 1) < p * g:
            raise PreconditionError(
                f"case gamma=tau+1 needs s{'+3' if shift else ''} >= p/(p-1)*(k, p^tau(p-1)) = {p * g}/{p - 1}"
            )
    elif gamma == tau + 2 and k > 2:
        if s + shift < 2 ** (tau + 2):
            raise PreconditionError(f"case gamma=tau+2 needs s{'+3' if shift else ''} >= {2 ** (tau + 2)}")
    else:
        raise PreconditionError(
            f"parameters (p={p}, k={k}) fall outside every printed case of the lemma"
        )


def verify_local_solubility(p: int, k: int, l: int, t: int, s: int, which: str = "M") -> SolubilityReport:
    """Positivity of M_n (at level gamma) or M*_n (at level nu, both at
    least 1) for every residue class n.  Hypotheses are checked
    mechanically first."""
    if which not in ("M", "Mstar"):
        raise PreconditionError(f"which must be 'M' or 'Mstar', got {which!r}")
    _check_local_args(p, 0, k, l, t, s)  # h = 0 checks no level; the derived one is at least 1
    check_lemma_hypotheses(p, k, l, t, s, which)
    level = gamma_exponent(p, k) if which == "M" else nu_exponent(p, k, l)
    if which == "M":
        hist = _m_n_histogram(p, level, k, l, t, s)
    else:
        hist = _m_star_histogram(p, level, k, l, t, s)
    return SolubilityReport(p=p, level=level, which=which, counts=tuple(hist.tolist()))
