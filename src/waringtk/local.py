"""Exact p-adic solution counts via residue-histogram convolution.

M_n(p^h) counts (y, X) in [1,p^h]^4 x [1,p^h]^(st) with p not dividing
y_1 y_2 and n = y_1^k + ... + y_4^k + sum_i T(x_i)^k (mod p^h).
M*_n(p^h) counts X in [1,p^h]^(st) with p ∤ x_{1,1}, p ∤ T(x_1) and
n = sum_i T(x_i)^k (mod p^h).

Tuple enumeration is hopeless (the M_n space has p^(h(st+4)) points even
at p=3, h=1, t=8); everything flows through cyclic convolution of exact
integer histograms instead, at cost polynomial in p^h.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from waringtk.arith import gamma_exponent, nu_exponent, p_adic_valuation
from waringtk.convolve import cyclic_convolve, cyclic_power
from waringtk.errors import PreconditionError, ResourceError
from waringtk.expsums import power_residue_histogram

FORM_HIST_BUDGET = 10**5
MN_BUDGET = 10**4


@dataclass(frozen=True)
class ResidueHistogram:
    """Exact count vector over residues mod modulus."""

    modulus: int
    counts: tuple[int, ...]

    def __post_init__(self):
        if len(self.counts) != self.modulus:
            raise PreconditionError("counts length must equal modulus")
        if any(c < 0 for c in self.counts):
            raise PreconditionError("counts must be nonnegative")

    @property
    def mass(self) -> int:
        return sum(self.counts)

    def convolve(self, other: "ResidueHistogram") -> "ResidueHistogram":
        if other.modulus != self.modulus:
            raise PreconditionError("moduli differ")
        return ResidueHistogram(
            self.modulus, tuple(cyclic_convolve(list(self.counts), list(other.counts), self.modulus))
        )

    def power(self, t: int) -> "ResidueHistogram":
        if t == 0:
            delta = [0] * self.modulus
            delta[0] = 1
            return ResidueHistogram(self.modulus, tuple(delta))
        return ResidueHistogram(self.modulus, tuple(cyclic_power(list(self.counts), t, self.modulus)))


def power_histogram(q: int, expo: int, units_only: bool = False) -> ResidueHistogram:
    """Histogram of x^expo mod q over x in [1, q], optionally unit x."""
    return ResidueHistogram(q, power_residue_histogram(q, expo, units_only))


def pushforward_power(hist: ResidueHistogram, expo: int) -> ResidueHistogram:
    """Image histogram under m -> m^expo mod q."""
    q = hist.modulus
    counts = [0] * q
    for m, c in enumerate(hist.counts):
        if c:
            counts[pow(m, expo, q)] += c
    return ResidueHistogram(q, tuple(counts))


def mask_units(hist: ResidueHistogram, p: int) -> ResidueHistogram:
    """Keep only residue classes coprime to p."""
    counts = [c if m % p != 0 else 0 for m, c in enumerate(hist.counts)]
    return ResidueHistogram(hist.modulus, tuple(counts))


@lru_cache(maxsize=512)
def form_histogram(p: int, h: int, l: int, t: int, restrict_first_unit: bool = False) -> ResidueHistogram:
    """Distribution of T(x) = x_1^l + ... + x_t^l mod p^h over x in [0,p^h)^t."""
    q = p**h
    if q > FORM_HIST_BUDGET:
        raise ResourceError(f"p^h = {q} exceeds the histogram budget {FORM_HIST_BUDGET}")
    base = power_histogram(q, l)
    if restrict_first_unit:
        first = power_histogram(q, l, units_only=True)
        out = first if t == 1 else first.convolve(base.power(t - 1))
    else:
        out = base.power(t)
    return out


@lru_cache(maxsize=512)
def _m_n_histogram(p: int, h: int, k: int, l: int, t: int, s: int) -> ResidueHistogram:
    q = p**h
    if q > MN_BUDGET:
        raise ResourceError(f"p^h = {q} exceeds the local-count budget {MN_BUDGET}")
    unitpow = power_histogram(q, k, units_only=True)
    allpow = power_histogram(q, k)
    acc = unitpow.convolve(unitpow).convolve(allpow).convolve(allpow)
    if s > 0:
        formk = pushforward_power(form_histogram(p, h, l, t), k)
        acc = acc.convolve(formk.power(s))
    return acc


def m_n(p: int, h: int, n: int, k: int, l: int, t: int, s: int) -> int:
    """|M_n(p^h)|, exact."""
    if h == 0:
        # trivial modulus: the whole parameter space (one point per tuple class)
        return 1
    hist = _m_n_histogram(p, h, k, l, t, s)
    return hist.counts[n % p**h]


@lru_cache(maxsize=512)
def _m_star_histogram(p: int, h: int, k: int, l: int, t: int, s: int) -> ResidueHistogram:
    q = p**h
    if q > MN_BUDGET:
        raise ResourceError(f"p^h = {q} exceeds the local-count budget {MN_BUDGET}")
    if s < 1:
        raise PreconditionError("M* needs s >= 1")
    # first block: x_{1,1} a unit AND the form value T(x_1) a unit
    first = pushforward_power(mask_units(form_histogram(p, h, l, t, restrict_first_unit=True), p), k)
    if s == 1:
        return first
    formk = pushforward_power(form_histogram(p, h, l, t), k)
    return first.convolve(formk.power(s - 1))


def m_star_n(p: int, h: int, n: int, k: int, l: int, t: int, s: int) -> int:
    """|M*_n(p^h)|, exact."""
    if h == 0:
        return 1
    hist = _m_star_histogram(p, h, k, l, t, s)
    return hist.counts[n % p**h]


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
        import math

        g = math.gcd(k, p**tau * (p - 1))
        if Fraction(s + shift) < Fraction(p, p - 1) * g:
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


def verify_local_solubility(
    p: int, k: int, l: int, t: int, s: int, which: str = "M", level: int | None = None
) -> SolubilityReport:
    """Positivity of M_n (at level gamma) or M*_n (at level nu) for every
    residue class n.  Hypotheses are checked mechanically first."""
    if which not in ("M", "Mstar"):
        raise PreconditionError(f"which must be 'M' or 'Mstar', got {which!r}")
    check_lemma_hypotheses(p, k, l, t, s, which)
    if level is None:
        level = gamma_exponent(p, k) if which == "M" else nu_exponent(p, k, l)
    if level == 0:
        return SolubilityReport(p=p, level=0, which=which, counts=(1,))
    if which == "M":
        hist = _m_n_histogram(p, level, k, l, t, s)
    else:
        hist = _m_star_histogram(p, level, k, l, t, s)
    return SolubilityReport(p=p, level=level, which=which, counts=hist.counts)
