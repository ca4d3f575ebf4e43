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

import numpy as np

from waringtk.convolve import float_convolve
from waringtk.errors import PreconditionError, ResourceError
from waringtk.expsums import s_form

N_BUDGET = 10**7


def _x1(n: int, k: int) -> float:
    """X1 = 2^(-1) (2k)^(-1/(k-1)) n^(1/k), the scale of the v support."""
    if k < 2:
        raise PreconditionError(f"X1 needs k >= 2, got k={k}")
    return 0.5 * (2 * k) ** (-1.0 / (k - 1)) * n ** (1.0 / k)


def _u_weights(n: int, xi: int, k: int, l: int) -> tuple[np.ndarray, np.ndarray]:
    """(m^(xi/kl - 1), m) for m = 1..n: the u weights before the factor 1/k."""
    m = np.arange(1, n + 1, dtype=np.float64)
    return m ** (xi / (k * l) - 1.0), m


def _v_weights(lo: int, hi: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(k^-1 x^(1/k - 1), x) for lo < x <= hi."""
    x = np.arange(lo + 1, hi + 1, dtype=np.float64)
    return x ** (1.0 / k - 1.0) / k, x


def _w_weights(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(k^-1 x^(1/k - 1) (log x)^-1, x) for 2 <= x <= n."""
    x = np.arange(2, n + 1, dtype=np.float64)
    return x ** (1.0 / k - 1.0) / (k * np.log(x)), x


def _on_grid(weights: np.ndarray, hi: int) -> np.ndarray:
    """Weights ending at point hi, zero-padded below: a convolution operand."""
    vec = np.zeros(hi + 1)
    vec[hi + 1 - len(weights) :] = weights
    return vec


def _weighted_exp_sum(weights: np.ndarray, support: np.ndarray, beta: float) -> complex:
    phase = np.exp(2j * np.pi * beta * support)
    return complex(np.dot(weights, phase))


def u_beta(beta: float, n: int, t: int, k: int, l: int) -> complex:
    """u(beta), direct O(n) summation."""
    if n < 1:
        raise PreconditionError("need n >= 1")
    if n > N_BUDGET:
        raise ResourceError(f"n = {n} exceeds budget {N_BUDGET}")
    weights, m = _u_weights(n, t, k, l)
    return _weighted_exp_sum(weights / k, m, beta)


def c_tl(t: int, l: int) -> float:
    """Gamma-ratio constant Gamma(1 + 1/l)^t / Gamma(t/l)."""
    if t < 1 or l < 1:
        raise PreconditionError("need t, l >= 1")
    return math.gamma(1 + 1 / l) ** t / math.gamma(t / l)


def decay_exponent(t: int, k: int, l: int) -> float:
    """min(1, t/kl), the decay rate of u against (1 + n|beta|)."""
    return min(1.0, t / (k * l))


def u_decay_check(
    n: int, t: int, k: int, l: int, sample_count: int = 50, seed: int = 0
) -> float:
    """max over sampled beta of |u(beta)| (1 + n|beta|)^gamma / P^t."""
    if sample_count < 10:
        raise PreconditionError("need sample_count >= 10")
    if min(t, k, l) < 1 or seed < 0:
        raise PreconditionError(f"need t, k, l >= 1 and seed >= 0, got t={t}, k={k}, l={l}, seed={seed}")
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
    if q < 1 or abs(alpha - a / q) > 0.5:
        raise PreconditionError(f"need q >= 1 and |alpha - a/q| <= 1/2, got alpha={alpha}, a={a}, q={q}")
    beta = alpha - a / q
    sq = 1 + 0j if q == 1 else s_form(q, a, k, l, t)
    return c_tl(t, l) * sq / q**t * u_beta(beta, n, t, k, l)


def v_support(n: int, k: int) -> tuple[int, int]:
    """Integer support (lo, hi] of v(beta): X1^k < x <= (2 X1)^k."""
    X1 = _x1(n, k)
    return math.floor(X1**k), math.floor((2 * X1) ** k)


def v_beta(beta: float, n: int, k: int) -> complex:
    lo, hi = v_support(n, k)
    if hi > N_BUDGET:
        raise ResourceError("v support exceeds budget")
    return _weighted_exp_sum(*_v_weights(lo, hi, k), beta)


def w_beta(beta: float, n: int, k: int) -> complex:
    if k < 1:
        raise PreconditionError(f"need k >= 1, got k={k}")
    if n > N_BUDGET:
        raise ResourceError("w support exceeds budget")
    return _weighted_exp_sum(*_w_weights(n, k), beta)


def _check_jprime_args(n: int, xi: int, k: int, l: int) -> None:
    """The weights m^(xi/kl - 1), m = 1..n, and the main term need
    n, xi, k, l >= 1."""
    if min(n, xi, k, l) < 1:
        raise PreconditionError(f"need n, xi, k, l >= 1, got n={n}, xi={xi}, k={k}, l={l}")


def j_prime_exact(n: int, s: int, xi: int, k: int, l: int) -> float:
    """J'_s(n) as the weighted composition count, exact convolution.

    s = 2 is a direct O(n) sum (and is exactly k^-2 (n-1) when xi = kl);
    s >= 3 goes through the FFT convolution chain.
    """
    if s < 2:
        raise PreconditionError("need s >= 2")
    _check_jprime_args(n, xi, k, l)
    if n > 10**6:
        raise ResourceError("n exceeds the singular-integral budget")
    if n < s:
        return 0.0
    if s == 2:
        w = _u_weights(n - 1, xi, k, l)[0]  # read backwards, the weights of n - m
        return float(np.sum(w * w[::-1])) / k**2
    w = _on_grid(_u_weights(n, xi, k, l)[0], n)
    acc = w
    for _ in range(s - 2):
        acc = float_convolve(acc, w, trunc=n + 1)
    # final convolution only needs index n
    return float(np.dot(acc[: n + 1], w[: n + 1][::-1])) / k**s


def j_prime_quadrature(n: int, s: int, xi: int, k: int, l: int) -> float:
    """Trapezoid quadrature of int u(beta)^s e(-beta n) dbeta over a full
    period (at least 8n uniform nodes; equals the rectangle rule by
    periodicity), evaluated through one FFT of the weight vector."""
    _check_jprime_args(n, xi, k, l)
    N = 1
    while N < 8 * n:
        N *= 2
    w = np.zeros(N)
    w[1 : n + 1] = _u_weights(n, xi, k, l)[0] / k
    U = np.fft.fft(w)  # U[j] = u(-j/N) conj pattern; u(j/N) = conj(U[j])
    u_vals = np.conj(U)
    phases = np.exp(-2j * np.pi * np.arange(N) * (n % N) / N)
    return float(np.real(np.mean(u_vals**s * phases)))


def j_prime_main_term(n: int, s: int, xi: int, k: int, l: int) -> tuple[float, float]:
    """(main, B): main = n^(s xi/kl - 1) k^-s Gamma(xi/kl)^s / Gamma(s xi/kl),
    B(n) = n^-1 + n^(-xi/kl)."""
    if s < 2:
        raise PreconditionError("need s >= 2")
    _check_jprime_args(n, xi, k, l)
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
    if n < 2 or k < 2 or l < 1 or s < 0 or t < 1:
        raise PreconditionError(f"need n, k >= 2, l, t >= 1 and s >= 0, got n={n}, k={k}, l={l}, s={s}, t={t}")
    if n > 10**6:
        raise ResourceError("n exceeds the singular-integral budget")
    lo, hi = v_support(n, k)
    v = _on_grid(_v_weights(lo, min(hi, n), k)[0], min(hi, n))
    wv = _on_grid(_w_weights(n, k)[0], n)
    acc = float_convolve(v, v, trunc=n + 1)
    acc = float_convolve(acc, wv, trunc=n + 1)
    acc = float_convolve(acc, wv, trunc=n + 1)
    if s > 0:
        u = _on_grid(_u_weights(n, t, k, l)[0], n) / k
        for _ in range(s):
            acc = float_convolve(acc, u, trunc=n + 1)
    X = n ** (1.0 / k)
    P = X ** (1.0 / l)
    envelope = P ** (s * t) * X**4 / (n * math.log(n) ** 2)
    return float(acc[n]), envelope
