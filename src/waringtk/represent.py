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
from collections import Counter
from dataclasses import dataclass

import numpy as np

from waringtk.convolve import convolution_power, count_array, exact_product
from waringtk.errors import PreconditionError, ResourceError, require_integers
from waringtk.integral import c_tl
from waringtk.params import ProblemParams
from waringtk.powersets import DEFAULT_ETA, _kth_power_cap, power_indicator, rep_count_table, restricted_power_sums
from waringtk.singular import _check_q_budget, _d_table, truncated_series

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
        entries = count_array(self.entries)  # a copy unless self.entries was int64 already
        entries = entries.copy() if entries is self.entries else entries
        if len(entries) and entries.min() < 0:
            raise PreconditionError("counts must be nonnegative")
        entries.flags.writeable = False
        object.__setattr__(self, "entries", entries)

    @property
    def n_max(self) -> int:
        return len(self.entries) - 1

    @property
    def mass(self) -> int:
        return sum(self.entries.tolist())

    def __getitem__(self, n: int) -> int:
        return int(self.entries[n])


def form_power_base(n_max: int, k: int, l: int, t: int) -> np.ndarray:
    """Vector a with a[m^k] = rho_t[m]: one form block's contribution, as
    an int64 array (object when a weight reaches 2^63)."""
    cap = _kth_power_cap(n_max, k)
    rho = rep_count_table(l, t, cap).rho
    weights = count_array(rho[1:])
    base = np.zeros(n_max + 1, dtype=weights.dtype)
    base[np.arange(1, cap + 1) ** k] = weights
    return base


def count_conje(n_max: int, k: int, l: int, t: int, s: int, r_extra: int) -> CountVector:
    """Ordered solutions of n = sum_i T_t(x_i)^k + sum_j y_j^k, all
    variables positive integers."""
    require_integers(n_max=n_max, k=k, l=l, t=t, s=s, r_extra=r_extra)
    if n_max > N_MAX_BUDGET:
        raise ResourceError(f"n_max {n_max} exceeds budget {N_MAX_BUDGET}")
    if n_max < 0:
        raise PreconditionError(f"need n_max >= 0, got {n_max}")
    if s < 0 or r_extra < 0 or s + r_extra < 1:
        raise PreconditionError("need s, r_extra >= 0 and s + r_extra >= 1")
    if k < 1:
        raise PreconditionError(f"need k >= 1, got k={k}")
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
    if n_max > N_MAX_BUDGET:
        raise ResourceError(f"n_max {n_max} exceeds budget {N_MAX_BUDGET}")
    if n_max < 0:
        raise PreconditionError(f"need n_max >= 0, got {n_max}")
    if s < 1 or k < 1:
        raise PreconditionError(f"need s, k >= 1, got s={s}, k={k}")
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
    for _ in range(s):
        nxt = [0] * (n_max + 1)
        for i, c in enumerate(out):
            if c:
                for v in range(1, n_max + 1 - i):
                    if block[v]:
                        nxt[i + v] += c * block[v]
        out = nxt
    power = power_indicator(k, n_max).tolist()
    for _ in range(r_extra):
        nxt = [0] * (n_max + 1)
        for i, c in enumerate(out):
            if c:
                for v in range(1, n_max + 1 - i):
                    if power[v]:
                        nxt[i + v] += c
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
    c = xi / (k * l)
    return c_tl(xi, l) ** s * math.gamma(c) ** s / (k**s * math.gamma(s * c))


def main_term(n: int, k: int, l: int, xi: int, s: int, Q: int = MAIN_TERM_Q) -> float:
    """C n^(s xi/kl - 1) S'(n), n >= 1, with the series truncated at Q."""
    if n < 1:
        raise PreconditionError(f"need n >= 1, got n={n}")
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
    n in [n_lo, n_hi].

    With w_n = n^(s xi/kl - 1), the main-term sum is
    C (sum_n w_n + sum_{2<=q<=Q} Re sum_n w_n d_q[n mod q]), and
    sum_n w_n d_q[n mod q] = sum_a coef_q(a) sum_r W_q[r] e_q(-a r) with
    W_q[r] the sum of w_n over n = r (mod q): one FFT of W_q per q, read
    at the units, so no d_q entry is computed."""
    if not 1 <= n_lo <= n_hi <= vec.n_max:
        raise PreconditionError("window out of range")
    _check_q_budget(Q)
    weights = np.arange(n_lo, n_hi + 1) ** (s * xi / (k * l) - 1.0)
    total = float(np.sum(weights))
    for q in range(2, Q + 1):
        factor = _d_table(q, k, l, xi, s, "SnPrime")
        offset = n_lo % q
        padded = np.zeros(-(-(offset + len(weights)) // q) * q)
        padded[offset : offset + len(weights)] = weights
        residue_sums = padded.reshape(-1, q).sum(axis=0)
        total += float(np.real(np.dot(factor.coef, np.fft.fft(residue_sums)[factor.units])))
    denom = main_term_constant(k, l, xi, s) * total / len(weights)
    counts = vec.entries[n_lo : n_hi + 1].astype(np.float64)
    if denom <= 0:
        raise PreconditionError("window-averaged main term is nonpositive")
    return float(np.mean(counts)) / denom


# ---------------------------------------------------------------------------
# auxiliary counts
# ---------------------------------------------------------------------------


def q_m_table(params: ProblemParams, H: int | None = None, eta: float = DEFAULT_ETA) -> CountVector:
    """Q(m): ordered ways to write m = sum_{i<=H} (y_i + z_i)^k over
    (y, z) in S1 x S2, H = k(k+1); verifies the support claim m <= n/2."""
    k = params.k
    if H is None:
        H = k * (k + 1)
    s1 = restricted_power_sums(params.t1, params.l, params.p1, eta).values
    s2 = restricted_power_sums(params.l, params.l, params.p2, eta).values
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


def k2_mean_value(
    t: int,
    X_cap: int,
    l: int = 2,
    Y: int | None = None,
    eta: float = DEFAULT_ETA,
) -> tuple[int, int]:
    """(diagonal, offdiagonal) counts of x_1^2 + y_1^2 + y_2^2 =
    x_2^2 + y_3^2 + y_4^2 with X/2 <= x_i <= X and y_i in S_t(Y).

    Split by x_1 = x_2 vs x_1 != x_2; the y-pairs enter only through the
    histogram of y_1^2 + y_2^2 values, joined across the two sides.
    """
    if X_cap < 0:
        raise PreconditionError(f"need X >= 0, got {X_cap}")
    if Y is None:
        Y = max(2, math.floor(X_cap ** (1.0 / l)))
    values = restricted_power_sums(t, l, Y, eta).values
    if len(values) ** 2 * X_cap > 10**8:
        raise ResourceError("k=2 mean-value instance too large")
    hist: Counter = Counter()
    for y1 in values:
        for y2 in values:
            hist[y1**2 + y2**2] += 1
    xs = [x for x in range(X_cap // 2 + 1, X_cap + 1)]
    pair_sq = sum(c * c for c in hist.values())
    diagonal = len(xs) * pair_sq
    offdiagonal = 0
    for x1 in xs:
        for x2 in xs:
            if x1 == x2:
                continue
            d = x2 * x2 - x1 * x1  # need v1 = v2 + d
            offdiagonal += sum(c * hist.get(v + d, 0) for v, c in hist.items())
    return diagonal, offdiagonal
