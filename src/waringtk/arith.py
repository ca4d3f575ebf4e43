"""Exact integer, modular and multiplicative-function machinery.

All arithmetic is exact (Python integers).  Residues are canonicalised to
[0, m); the complete residue systems [1, m] used in the definitions are
identical up to relabelling m -> 0.
"""

from __future__ import annotations

import math
from functools import lru_cache

from waringtk.errors import PreconditionError, require_integers, require_within, shown

# trial division to the square root of 2^40 tries at most 2^19 odd divisors
# (0.07 s with CPython 3.11 on a 2-core x86-64 VM)
FACTOR_BUDGET = 2**40
# Miller-Rabin to the prime bases 2..41 is exact below psi_13 =
# 3317044064679887385961981, the least strong pseudoprime to all of them
# (Sorenson and Webster, Math. Comp. 86, 2017); psi_12, to the bases
# 2..37, is 318665857834031151167461.
PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BUDGET = 3317044064679887385961981 - 1


def is_prime(n: int) -> bool:
    """Exact primality: trial division by PRIME_BASES, then Miller-Rabin
    to those bases, deterministic for n <= PRIME_BUDGET; a larger n that
    no base divides is refused (ResourceError)."""
    if n < 2:
        return False
    for p in PRIME_BASES:
        if n % p == 0:
            return n == p
    require_within(PRIME_BUDGET, **{"prime candidate": n})
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in PRIME_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def require_prime(p: int) -> None:
    """Raise PreconditionError unless p is a prime integer."""
    require_integers(2, p=p)
    if not is_prime(p):
        raise PreconditionError(f"need a prime p, got p={shown(p)}")


def factorize(q: int) -> tuple[tuple[int, int], ...]:
    """Exact prime factorization of 1 <= q <= FACTOR_BUDGET by trial
    division, as strictly increasing (prime, exponent) pairs; q = 1 gives
    the empty product."""
    require_integers(1, q=q)
    require_within(FACTOR_BUDGET, q=q)
    entries = []
    d = 2
    while d * d <= q:
        if q % d == 0:
            e = 0
            while q % d == 0:
                q //= d
                e += 1
            entries.append((d, e))
        d += 1 if d == 2 else 2
    if q > 1:
        entries.append((q, 1))
    return tuple(entries)


def euler_phi(q: int) -> int:
    """Euler's totient, via the factorization."""
    require_integers(1, q=q)
    out = 1
    for p, e in factorize(q):
        out *= p ** (e - 1) * (p - 1)
    return out


def p_adic_valuation(p: int, m: int) -> int:
    """tau with p^tau || m; needs p >= 2 and m >= 1, where the loop ends."""
    require_integers(2, p=p)
    require_integers(1, m=m)
    tau = 0
    while m % p == 0:
        m //= p
        tau += 1
    return tau


def gamma_exponent(p: int, k: int) -> int:
    """Hensel level gamma for x^k: tau+1, except tau+2 when p=2 and tau>0."""
    require_prime(p)
    tau = p_adic_valuation(p, k)
    if p == 2 and tau > 0:
        return tau + 2
    return tau + 1


def nu_exponent(p: int, k: int, l: int) -> int:
    """Level nu = 2*tau1 + 1 with p^tau1 || kl."""
    require_prime(p)
    return 2 * p_adic_valuation(p, k * l) + 1


def kth_root(n: int, k: int) -> int:
    """floor(n^(1/k)) for n >= 0, k >= 1, exactly: integer Newton steps
    x <- ((k-1) x + n // x^(k-1)) // k from 2^ceil(bits/k) >= n^(1/k)
    decrease to the root and stop at the first step that does not
    (Brent and Zimmermann, Modern Computer Arithmetic, 1.5.2); n < 2^k
    gives min(n, 1) at once, with no x^(k-1) of k bits."""
    require_integers(0, n=n)
    require_integers(1, k=k)
    n, k = int(n), int(k)
    if k >= n.bit_length():
        return min(n, 1)
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def sieve_primes(limit: int) -> list[int]:
    """All primes <= limit, read off smallest_prime_factors."""
    require_integers(limit=limit)
    return [p for p, f in enumerate(smallest_prime_factors(max(limit, 1))) if f == p >= 2]


@lru_cache(maxsize=None)
def smallest_prime_factors(limit: int) -> tuple[int, ...]:
    """spf[i] = smallest prime factor of i (spf[1] = 1), as a tuple."""
    spf = list(range(limit + 1))
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == p:
            for m in range(p * p, limit + 1, p):
                if spf[m] == m:
                    spf[m] = p
    return tuple(spf)

