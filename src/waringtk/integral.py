"""Weighted generating sums and singular integrals.

u(beta) = k^-1 sum_{m=1}^n m^(t/kl - 1) e(beta m)
v(beta) = k^-1 sum over X1^k < x <= (2 X1)^k of x^(1/k - 1) e(beta x)
w(beta) = k^-1 sum over 2 <= x <= n of x^(1/k - 1) (log x)^-1 e(beta x)

J'_s(n) = int_{-1/2}^{1/2} u(beta)^s e(-beta n) dbeta, which by
orthogonality is the weighted composition count
k^-s sum_{m_1+...+m_s = n} prod m_i^(xi/kl - 1).  Non-integer weights
rule out exact rational convolution; all convolution weights are
positive, so FFT convolution carries no cancellation and the relative
error stays at machine-epsilon scale.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from waringtk.convolve import float_convolve
from waringtk.errors import PreconditionError, require_integers, require_within
from waringtk.expsums import s_form

N_BUDGET = 10**7
J_BUDGET = 10**6  # the largest n of J'_s(n) and J(n)


def _x1(n: int, k: int) -> float:
    """X1 = 2^(-1) (2k)^(-1/(k-1)) n^(1/k), the scale of the v support."""
    require_integers(2, k=k)
    return 0.5 * (2 * k) ** (-1.0 / (k - 1)) * n ** (1.0 / k)


def _u_weights(n: int, xi: int, k: int, l: int) -> np.ndarray:
    """m^(xi/kl - 1) for m = 1..n: the u weights before the factor 1/k."""
    m = np.arange(1, n + 1, dtype=np.float64)
    m **= xi / (k * l) - 1.0
    return m


def _v_weights(lo: int, hi: int, k: int) -> np.ndarray:
    """k^-1 x^(1/k - 1) for lo < x <= hi."""
    x = np.arange(lo + 1, hi + 1, dtype=np.float64)
    x **= 1.0 / k - 1.0
    x /= k
    return x


def _w_weights(n: int, k: int) -> np.ndarray:
    """k^-1 x^(1/k - 1) (log x)^-1 for 2 <= x <= n."""
    x = np.arange(2, n + 1, dtype=np.float64)
    scale = np.log(x)
    scale *= k
    x **= 1.0 / k - 1.0
    x /= scale
    return x


def _on_grid(weights: np.ndarray, hi: int) -> np.ndarray:
    """Weights ending at point hi, zero-padded below: a convolution operand."""
    vec = np.zeros(hi + 1)
    vec[hi + 1 - len(weights) :] = weights
    return vec


def _split_grid(weights: np.ndarray) -> np.ndarray:
    """The weights of points lo, lo + 1, ... as the J x M grid of
    _weighted_exp_sum (M = isqrt(len), at least 1), zero past the last."""
    count = len(weights)
    M = max(1, math.isqrt(count))
    grid = np.zeros(M * -(-count // M))
    grid[:count] = weights
    return grid.reshape(-1, M)


def _turns(phase: np.ndarray) -> np.ndarray:
    """e(phase) = exp(2 pi i phase), each phase reduced mod 1 first."""
    return np.exp(2j * np.pi * np.mod(phase, 1.0))


def _weighted_exp_sum(grid: np.ndarray, lo: int, beta: float) -> complex:
    """sum of grid[j, r] e(beta m) over the points m = lo + M j + r.

    Baby-step/giant-step split: e(beta m) = e(beta lo) e(beta M j) e(beta r),
    so the sum is the giant steps e(beta M j) against grid @ (baby steps
    e(beta r)): M + J exponentials instead of one per point, and the real
    grid meets the real and imaginary parts of the baby steps separately.
    """
    J, M = grid.shape
    baby = _turns(beta * np.arange(M))
    giant = _turns(beta * np.arange(0, M * J, M))
    rows = grid @ baby.real + 1j * (grid @ baby.imag)
    return complex(_turns(beta * lo) * np.dot(giant, rows))


@lru_cache(maxsize=4)
def _u_grid(n: int, t: int, k: int, l: int) -> np.ndarray:
    """The read-only split grid of the u weights k^-1 m^(t/kl - 1), m = 1..n."""
    grid = _split_grid(_u_weights(n, t, k, l))
    grid /= k
    grid.flags.writeable = False
    return grid


def u_beta(beta: float, n: int, t: int, k: int, l: int) -> complex:
    """u(beta) by the baby-step/giant-step split of the n-term sum."""
    require_integers(1, n=n)
    require_within(N_BUDGET, n=n)
    return _weighted_exp_sum(_u_grid(n, t, k, l), 1, beta)


def c_tl(t: int, l: int) -> float:
    """Gamma-ratio constant Gamma(1 + 1/l)^t / Gamma(t/l)."""
    require_integers(1, t=t, l=l)
    return math.gamma(1 + 1 / l) ** t / math.gamma(t / l)


def decay_exponent(t: int, k: int, l: int) -> float:
    """min(1, t/kl), the decay rate of u against (1 + n|beta|)."""
    return min(1.0, t / (k * l))


def u_decay_check(
    n: int, t: int, k: int, l: int, sample_count: int = 50, seed: int = 0
) -> float:
    """max over sampled beta of |u(beta)| (1 + n|beta|)^gamma / P^t."""
    require_integers(10, sample_count=sample_count)
    require_integers(1, t=t, k=k, l=l)
    require_integers(0, seed=seed)
    rng = np.random.default_rng(seed)
    gamma = decay_exponent(t, k, l)
    P = n ** (1.0 / (k * l))
    betas = np.concatenate([[0.0], rng.uniform(-0.5, 0.5, sample_count - 1)])
    best = 0.0
    for b in betas:
        ratio = abs(u_beta(float(b), n, t, k, l)) * (1 + n * abs(b)) ** gamma / P**t
        best = max(best, ratio)
    return best


def U_major(alpha: float, a: int, q: int, n: int, k: int, l: int, t: int) -> complex:
    """Major-arc approximant c_{t,l} q^-t S(q,a) u(alpha - a/q)."""
    require_integers(1, q=q, k=k, l=l, t=t)
    if abs(alpha - a / q) > 0.5:
        raise PreconditionError(f"need |alpha - a/q| <= 1/2, got alpha={alpha}, a={a}, q={q}")
    beta = alpha - a / q
    sq = 1 + 0j if q == 1 else s_form(q, a, k, l, t)
    return c_tl(t, l) * sq / q**t * u_beta(beta, n, t, k, l)


def v_support(n: int, k: int) -> tuple[int, int]:
    """Integer support (lo, hi] of v(beta): X1^k < x <= (2 X1)^k."""
    X1 = _x1(n, k)
    return math.floor(X1**k), math.floor((2 * X1) ** k)


def v_beta(beta: float, n: int, k: int) -> complex:
    lo, hi = v_support(n, k)
    require_within(N_BUDGET, **{"v support end": hi})
    return _weighted_exp_sum(_split_grid(_v_weights(lo, hi, k)), lo + 1, beta)


def w_beta(beta: float, n: int, k: int) -> complex:
    require_integers(1, k=k)
    require_within(N_BUDGET, **{"w support end": n})
    return _weighted_exp_sum(_split_grid(_w_weights(n, k)), 2, beta)


def _check_j_args(n: int, k: int, s: int, *, least: int, least_s: int, **positive: int) -> None:
    """The argument check of J'_s(n) and J(n): n, k >= least, s >= least_s, the
    other integers >= 1, and n <= J_BUDGET, as both work on the points 0..n."""
    require_integers(least_s, s=s)
    require_integers(least, n=n, k=k)
    require_integers(1, **positive)
    require_within(J_BUDGET, n=n)


def j_prime_exact(n: int, s: int, xi: int, k: int, l: int) -> float:
    """J'_s(n) as the weighted composition count: s - 2 FFT convolutions,
    then one dot product for the entry at n (k^-2 (n-1) when s = 2 and
    xi = kl)."""
    _check_j_args(n, k, s, least=1, least_s=2, xi=xi, l=l)
    if n < s:
        return 0.0
    w = _on_grid(_u_weights(n, xi, k, l), n)
    acc = w
    for _ in range(s - 2):
        acc = float_convolve(acc, w, trunc=n + 1)
    # final convolution only needs index n
    return float(np.dot(acc[: n + 1], w[: n + 1][::-1])) / k**s


def j_prime_quadrature(n: int, s: int, xi: int, k: int, l: int) -> float:
    """Trapezoid quadrature of int u(beta)^s e(-beta n) dbeta over a full
    period (at least 8n uniform nodes; equals the rectangle rule by
    periodicity), evaluated through one FFT of the weight vector.

    Every step after the FFT works in place on its output or on the
    phases, and runs the operation of the out-of-place form in the same
    order, so the result is the same to the bit."""
    _check_j_args(n, k, s, least=1, least_s=2, xi=xi, l=l)
    N = 1
    while N < 8 * n:
        N *= 2
    U = np.zeros(N, dtype=complex)
    U.real[1 : n + 1] = _u_weights(n, xi, k, l) / k
    U = np.fft.fft(U)  # U[j] = u(-j/N) conj pattern; u(j/N) = conj(U[j])
    np.conj(U, out=U)
    U **= s
    phases = np.arange(N, dtype=complex)
    phases *= -2j * np.pi
    phases *= n % N
    phases /= N
    U *= np.exp(phases, out=phases)
    return float(np.real(np.mean(U)))


def j_prime_main_term(n: int, s: int, xi: int, k: int, l: int) -> tuple[float, float]:
    """(main, B): main = n^(s xi/kl - 1) k^-s Gamma(xi/kl)^s / Gamma(s xi/kl),
    B(n) = n^-1 + n^(-xi/kl), at the arguments of J'_s(n) but at any n >= 1."""
    require_integers(2, s=s)
    require_integers(1, n=n, xi=xi, k=k, l=l)
    c = xi / (k * l)
    main = n ** (s * c - 1.0) * math.gamma(c) ** s / (k**s * math.gamma(s * c))
    B = 1.0 / n + n ** (-c)
    return main, B


def j_singular_exact(n: int, s: int, k: int, l: int, t: int) -> tuple[float, float]:
    """(J(n), reference envelope P^st X^4 / (n (log n)^2)).

    J(n) is the weighted count over x_1 + ... + x_4 + y_1 + ... + y_s = n
    with two v-weighted, two w-weighted and s u-weighted variables.
    It needs n >= 2 (the envelope divides by log n), k >= 2 (the v
    support by k - 1), l >= 1, s >= 0 and t >= 1.
    """
    _check_j_args(n, k, s, least=2, least_s=0, l=l, t=t)
    lo, hi = v_support(n, k)
    v = _on_grid(_v_weights(lo, min(hi, n), k), min(hi, n))
    wv = _on_grid(_w_weights(n, k), n)
    acc = float_convolve(v, v, trunc=n + 1)
    acc = float_convolve(acc, wv, trunc=n + 1)
    acc = float_convolve(acc, wv, trunc=n + 1)
    if s > 0:
        u = _on_grid(_u_weights(n, t, k, l), n) / k
        for _ in range(s):
            acc = float_convolve(acc, u, trunc=n + 1)
    X = n ** (1.0 / k)
    P = X ** (1.0 / l)
    envelope = P ** (s * t) * X**4 / (n * math.log(n) ** 2)
    return float(acc[n]), envelope
