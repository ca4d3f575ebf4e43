"""Complete exponential sums and the multiplicative weight w_k.

The central objects are, for (a, q) = 1,

    S_k(q, a)      = sum_{r=1}^{q} e_q(a r^k)
    S_k(q, a, -u)  = sum_{r=1}^{q} e_q(a r^k - u r)
    S(q, a)        = sum_{r in [1,q]^t} e_q(a T(r)^k)
                   = q^{-1} sum_{u=1}^{q} S_l(q, u)^t S_k(q, a, -u)
    W(q, a)        = sum over units r of e_q(a r^k)

All roots of unity are taken from a single table of exp(2 pi i j / q)
with exactly reduced integer phases, so the only floating error is in the
final accumulation (documented tolerance 1e-9 per summed term).
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

from waringtk.arith import euler_phi, factorize
from waringtk.errors import PreconditionError, require_integers, require_within

S_FORM_Q_BUDGET = 5000
HIST_Q_BUDGET = 10**6
_DIRECT_ENUM_CAP = 2 * 10**6
# OpenBLAS runs a complex matrix-vector product (zgemv) on one thread below
# 4096 matrix entries and hands part of a larger one to a second thread,
# a hand-off that can stall for milliseconds. hist_dft_all keeps each
# block under it; blocks of a multiple of 4 rows keep every output in the
# same 4-column kernel, so the sums are bit-identical to one full product.
_GEMV_SINGLE_THREAD = 4096


@lru_cache(maxsize=2048)
def omega_table(q: int) -> np.ndarray:
    """exp(2 pi i j / q) for j in [0, q), read-only; kept for as many q as singular._d_table."""
    table = np.exp(2j * np.pi * np.arange(q) / q)
    table.flags.writeable = False
    return table


def _check_coprime(q: int, a: int) -> None:
    require_integers(1, q=q)
    require_integers(a=a)
    if q > 1 and math.gcd(a % q, q) != 1:
        raise PreconditionError(f"need gcd(a, q) = 1, got a={a}, q={q}")


def power_mod(r: np.ndarray, k: int, q: int) -> np.ndarray:
    """r^k mod q entrywise for an int64 array r of entries in [0, q], by
    square-and-multiply with a reduction after each product: the
    products stay below q^2, so nothing wraps int64 for q < 3 * 10^9."""
    require_integers(0, k=k)
    out = np.full(len(r), 1 % q, dtype=np.int64)
    square = r % q
    while k:
        if k & 1:
            out = out * square % q
        k >>= 1
        if k:
            square = square * square % q
    return out


@lru_cache(maxsize=512)
def power_residue_histogram(q: int, k: int, units_only: bool = False) -> np.ndarray:
    """counts[m] = #{r in [1, q] : r^k = m (mod q)}, optionally unit r, as
    a read-only int64 array, for q <= HIST_Q_BUDGET."""
    require_within(HIST_Q_BUDGET, q=q)
    r = coprime_residues(q) if units_only else np.arange(1, q + 1, dtype=np.int64)
    counts = np.bincount(power_mod(r, k, q), minlength=q)
    counts.flags.writeable = False
    return counts


def _hist_dft_at(q: int, hist, a: int) -> complex:
    """sum_m hist[m] e_q(a m), exact phases."""
    om = omega_table(q)
    acc_re = []
    acc_im = []
    for m, c in enumerate(hist):
        if c:
            w = om[(a * m) % q]
            acc_re.append(c * w.real)
            acc_im.append(c * w.imag)
    return complex(math.fsum(acc_re), math.fsum(acc_im))


def s_k(q: int, a: int, k: int) -> complex:
    """Complete Weyl sum S_k(q, a) with (a, q) = 1 and k >= 0, checked
    before the cached histogram, whose key reads k = 2.0 as k = 2."""
    _check_coprime(q, a)
    require_integers(0, k=k)
    return _hist_dft_at(q, power_residue_histogram(q, k), a)


def w_q(q: int, a: int, k: int) -> complex:
    """W(q, a): the Weyl sum restricted to units, k >= 0 as in s_k."""
    _check_coprime(q, a)
    require_integers(0, k=k)
    return _hist_dft_at(q, power_residue_histogram(q, k, units_only=True), a)


@lru_cache(maxsize=256)
def _s_l_table(q: int, l: int) -> np.ndarray:
    """S_l(q, u) for u = 0..q-1 (index u % q; u = q means u = 0), read-only."""
    hist = np.array(power_residue_histogram(q, l), dtype=np.float64)
    om = omega_table(q)
    out = np.empty(q, dtype=np.complex128)
    support = np.nonzero(hist)[0]
    weights = hist[support]
    for u in range(q):
        out[u] = np.dot(weights, om[(u * support) % q])
    out.flags.writeable = False
    return out


def s_form(q: int, a: int, k: int, l: int, t: int) -> complex:
    """S(q, a) via the u-orthogonality reduction (cost O(q^2)).

    The u-sum runs over a complete residue system: the u = q term (u = 0)
    is included and carries the main part p^{(t-1)h} S_k. Needs q, l, t >= 1.
    """
    require_integers(1, q=q, l=l, t=t)
    require_within(S_FORM_Q_BUDGET, q=q)
    if q == 1:
        return 1 + 0j
    _check_coprime(q, a)
    sl = _s_l_table(q, l)
    om = omega_table(q)
    rr = np.arange(1, q + 1, dtype=np.int64)
    g = om[(a * power_mod(rr, k, q)) % q]  # e_q(a r^k) for r = 1..q
    acc = 0j
    for u in range(q):
        sklin = np.dot(g, om[(-u * rr) % q])
        acc += sl[u] ** t * sklin
    return acc / q


def s_form_direct(q: int, a: int, k: int, l: int, t: int) -> complex:
    """Oracle: direct t-dimensional enumeration of S(q, a)."""
    require_within(_DIRECT_ENUM_CAP, **{"q^t": (q, t)})
    _check_coprime(q, a)
    om = omega_table(q) if q > 1 else np.array([1 + 0j])
    re = []
    im = []
    for r in itertools.product(range(1, q + 1), repeat=t):
        tv = sum(x**l for x in r)
        w = om[(a * pow(tv, k, q)) % q]
        re.append(w.real)
        im.append(w.imag)
    return complex(math.fsum(re), math.fsum(im))


def w_k_weight(q: int, k: int) -> float:
    """Multiplicative majorant w_k: on p^(uk+v), p^(-u-1) for 2 <= v <= k
    and k p^(-u-1/2) for v = 1; w_k(1) = 1."""
    require_integers(1, q=q, k=k)
    out = 1.0
    for p, e in factorize(q):
        u, v = divmod(e - 1, k)
        v += 1  # e = u*k + v with 1 <= v <= k
        if v == 1:
            out *= k * p ** (-u - 0.5)
        else:
            out *= float(p) ** (-u - 1)
    return out


# ---------------------------------------------------------------------------
# vectorised per-q tables over all coprime a (diagnostics and series work)
# ---------------------------------------------------------------------------


def coprime_residues(q: int) -> np.ndarray:
    r = np.arange(1, q + 1, dtype=np.int64)
    return r[np.gcd(r, q) == 1]


def _block_rows(support_size: int) -> int:
    """Units per block of hist_dft_all: the largest multiple of 4 whose
    block has fewer than _GEMV_SINGLE_THREAD entries, and at least 4."""
    return max(4, (_GEMV_SINGLE_THREAD - 1) // max(support_size, 1) // 4 * 4)


def hist_dft_all(q: int, hist, units: np.ndarray) -> np.ndarray:
    """sum_m hist[m] e_q(a m) for every a in units, one matrix product
    per block of _block_rows(|support|) units."""
    om = omega_table(q)
    h = np.asarray(hist, dtype=np.float64)
    support = np.nonzero(h)[0]
    weights = h[support].astype(np.complex128)
    rows = _block_rows(len(support))
    return np.concatenate(
        [om[np.outer(units[i : i + rows], support) % q] @ weights for i in range(0, len(units), rows)]
    )


def weight_bound_sweep(Q: int, k: int, which: str = "Sk") -> float:
    """Empirical constant in the w_k majorant bounds.

    which='Sk': max over q <= Q, (a,q)=1 of q^-1 |S_k(q,a)| / w_k(q).
    which='W' : same with phi(q)^-1 |W(q,a)|.
    The constant is expected stable (within a small factor) as Q doubles.
    """
    if which not in ("Sk", "W"):
        raise PreconditionError(f"which must be 'Sk' or 'W', got {which!r}")
    require_integers(1, Q=Q, k=k)
    best = 1.0  # q = 1 gives ratio exactly 1
    for q in range(2, Q + 1):
        if which == "Sk":
            hist, norm = power_residue_histogram(q, k), q
        else:
            hist, norm = power_residue_histogram(q, k, units_only=True), euler_phi(q)
        vals = hist_dft_all(q, hist, coprime_residues(q))
        ratio = float(np.max(np.abs(vals))) / (norm * w_k_weight(q, k))
        best = max(best, ratio)
    return best


def weight_sum_growth(Q_grid: list[int], k: int) -> list[dict]:
    """Rows of (Q, sum w_k(q)^2, sum q w_k(q)^s), s = max(4, k + 1), for an
    epsilon-growth check."""
    s = max(4, k + 1)
    if sorted(Q_grid) != list(Q_grid):
        raise PreconditionError("Q_grid must be ascending")
    rows = []
    sq2 = 0.0
    sqs = 0.0
    q = 0
    for Q in Q_grid:
        while q < Q:
            q += 1
            w = w_k_weight(q, k)
            sq2 += w * w
            sqs += q * w**s
        rows.append({"Q": Q, "sum_w2": sq2, "sum_qws": sqs})
    return rows
