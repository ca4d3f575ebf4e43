"""Exact global representation counting by convolution.

Every count is of ORDERED solution tuples: the n-th Fourier coefficient
of a product of generating functions is the convolution of their
coefficient vectors, so ordered counts are the objects that the circle
method actually estimates.  (The theorems read as unordered existence;
positivity is unaffected.)

Two shapes are counted:
    n = T(x_1)^k + ... + T(x_s)^k + y_1^k + ... + y_r^k    (form blocks
        weighted by rho_t, plus r plain k-th powers)
    n = x_1^k + ... + x_s^k with x_i ranging over the value set of the
        xi-variable form (weighted by rho_xi, or unweighted as a set)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from waringtk.arith import kth_root
from waringtk.convolve import convolution_power, count_total, exact_product, read_only_counts
from waringtk.errors import PreconditionError, require_integers, require_within
from waringtk.integral import c_tl
from waringtk.params import ProblemParams
from waringtk.powersets import power_indicator, rep_count_table
from waringtk.singular import truncated_series, window_series_sum
from waringtk.smooth import DEFAULT_ETA, restricted_power_sums

N_MAX_BUDGET = 10**6
MAIN_TERM_Q = 100


@dataclass(frozen=True, eq=False)
class CountVector:
    """Exact ordered-representation counts indexed 0..n_max.

    entries is a read-only copy of the given counts: an int64 array, or an
    object array of Python ints when an entry reaches 2^63."""

    entries: np.ndarray
    provenance: str

    def __post_init__(self):
        object.__setattr__(self, "entries", read_only_counts(self.entries))

    @property
    def n_max(self) -> int:
        return len(self.entries) - 1

    @property
    def mass(self) -> int:
        return count_total(self.entries)

    def __getitem__(self, n: int) -> int:
        return int(self.entries[n])


def form_power_base(n_max: int, k: int, l: int, t: int) -> np.ndarray:
    """Vector a with a[m^k] = rho_t[m]: one form block's contribution, as
    an int64 array (object when a weight reaches 2^63)."""
    cap = kth_root(n_max, k)
    rho = rep_count_table(l, t, cap).rho
    base = np.zeros(n_max + 1, dtype=rho.dtype)
    base[np.arange(1, cap + 1) ** min(k, 63)] = rho[1:]  # min: as in power_indicator
    return base


def count_conje(n_max: int, k: int, l: int, t: int, s: int, r_extra: int) -> CountVector:
    """Ordered solutions of n = sum_i T_t(x_i)^k + sum_j y_j^k, all
    variables positive integers."""
    require_integers(n_max=n_max, k=k, l=l, t=t, s=s, r_extra=r_extra)
    require_within(N_MAX_BUDGET, n_max=n_max)
    require_integers(0, n_max=n_max, s=s, r_extra=r_extra)
    if s + r_extra < 1:
        raise PreconditionError(f"need s + r_extra >= 1, got s={s}, r_extra={r_extra}")
    require_integers(1, k=k, l=l, t=t)
    trunc = n_max + 1
    acc = None
    if s > 0:
        acc = convolution_power(form_power_base(n_max, k, l, t), s, trunc)
    if r_extra > 0:
        powers = convolution_power(power_indicator(k, n_max), r_extra, trunc)
        acc = powers if acc is None else exact_product(acc, powers, trunc=trunc)
    return CountVector(acc, f"conje k={k} l={l} t={t} s={s} r={r_extra}")


def count_theorem13(
    n_max: int, k: int, l: int, xi: int, s: int, weighted: bool = True
) -> CountVector:
    """Ordered solutions of n = sum_{i<=s} x_i^k with x_i in the value set
    of the xi-variable form; weighted=True counts preimage tuples."""
    require_integers(n_max=n_max, k=k, l=l, xi=xi, s=s)
    require_within(N_MAX_BUDGET, n_max=n_max)
    require_integers(0, n_max=n_max)
    require_integers(1, s=s, k=k)
    base = form_power_base(n_max, k, l, xi)
    if not weighted:
        base = (base > 0).astype(np.int64)
    acc = convolution_power(base, s, n_max + 1)
    tag = "weighted" if weighted else "set"
    return CountVector(acc, f"thm13 k={k} l={l} xi={xi} s={s} {tag}")


def count_oracle(n_max: int, k: int, l: int, t: int, s: int, r_extra: int) -> list[int]:
    """Iterated schoolbook accumulation: a transform-free route to count_conje."""
    out = [0] * (n_max + 1)
    out[0] = 1
    block = form_power_base(n_max, k, l, t).tolist()
    power = power_indicator(k, n_max).tolist()
    for weights in [block] * s + [power] * r_extra:
        nxt = [0] * (n_max + 1)
        for i, c in enumerate(out):
            if c:
                for v in range(1, n_max + 1 - i):
                    if weights[v]:
                        nxt[i + v] += c * weights[v]
        out = nxt
    return out


def count_enumerate(n_max: int, k: int, l: int, t: int, s: int, r_extra: int) -> list[int]:
    """True nested-loop brute force over every individual variable."""
    out = [0] * (n_max + 1)

    def power_vars(depth: int, acc: int):
        if acc > n_max:
            return
        if depth == r_extra:
            out[acc] += 1
            return
        y = 1
        while acc + y**k <= n_max:
            power_vars(depth + 1, acc + y**k)
            y += 1

    def form_vars(block: int, depth: int, tv: int, acc: int):
        if block == s:
            power_vars(0, acc)
            return
        if depth == t:
            if acc + tv**k <= n_max:
                form_vars(block + 1, 0, 0, acc + tv**k)
            return
        z = 1
        while acc + (tv + z**l) ** k <= n_max:
            form_vars(block, depth + 1, tv + z**l, acc)
            z += 1

    form_vars(0, 0, 0, 0)
    return out


# ---------------------------------------------------------------------------
# main-term comparison
# ---------------------------------------------------------------------------


def main_term_constant(k: int, l: int, xi: int, s: int) -> float:
    """C = k^-s c_{xi,l}^s Gamma(xi/kl)^s / Gamma(s xi/kl)."""
    require_integers(1, k=k, l=l, xi=xi, s=s)
    c = xi / (k * l)
    return c_tl(xi, l) ** s * math.gamma(c) ** s / (k**s * math.gamma(s * c))


def main_term(n: int, k: int, l: int, xi: int, s: int, Q: int = MAIN_TERM_Q) -> float:
    """C n^(s xi/kl - 1) S'(n), n >= 1, with the series truncated at Q."""
    require_integers(1, n=n)
    series = truncated_series(n, Q, k, l, xi, s, series="SnPrime").value
    return main_term_constant(k, l, xi, s) * n ** (s * xi / (k * l) - 1.0) * series


def window_ratio(
    vec: CountVector,
    n_lo: int,
    n_hi: int,
    k: int,
    l: int,
    xi: int,
    s: int,
    Q: int = MAIN_TERM_Q,
) -> float:
    """(window average of counts) / (window average of main terms) over
    n in [n_lo, n_hi], the series cut at Q (singular.window_series_sum)."""
    require_integers(n_lo=n_lo, n_hi=n_hi)
    if not 1 <= n_lo <= n_hi <= vec.n_max:
        raise PreconditionError("window out of range")
    total = window_series_sum(n_lo, n_hi, k, l, xi, s, Q)
    denom = main_term_constant(k, l, xi, s) * total / (n_hi - n_lo + 1)
    counts = vec.entries[n_lo : n_hi + 1].astype(np.float64)
    if denom <= 0:
        raise PreconditionError("window-averaged main term is nonpositive")
    return float(np.mean(counts)) / denom


# ---------------------------------------------------------------------------
# auxiliary counts
# ---------------------------------------------------------------------------


def q_m_table(params: ProblemParams, eta: float = DEFAULT_ETA) -> CountVector:
    """Q(m): ordered ways to write m = sum_{i<=H} (y_i + z_i)^k over
    (y, z) in S1 x S2, H = k(k+1); verifies the support claim m <= n/2."""
    k = params.k
    H = k * (k + 1)
    s1 = restricted_power_sums(params.t1, params.l, params.p1, eta)
    s2 = restricted_power_sums(params.l, params.l, params.p2, eta)
    pair_max = (max(s1) + max(s2)) ** k
    if H * pair_max > params.n // 2:
        raise PreconditionError(
            f"support claim fails: H (max S1 + max S2)^k = {H * pair_max} > n/2 = {params.n // 2}"
        )
    base = np.zeros(pair_max + 1, dtype=np.int64)
    np.add.at(base, (np.add.outer(s1, s2) ** k).ravel(), 1)
    acc = convolution_power(base, H, H * pair_max + 1)
    out = np.zeros(params.n + 1, dtype=acc.dtype)
    out[: len(acc)] = acc
    return CountVector(out, f"qm k={k} H={H} P1={params.p1} P2={params.p2}")
