"""Exact integer, modular and multiplicative-function machinery.

All arithmetic is exact (Python integers).  Residues are canonicalised to
[0, m); the complete residue systems [1, m] used in the definitions are
identical up to relabelling m -> 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from waringtk.errors import PreconditionError


@dataclass(frozen=True)
class Factorization:
    """Prime factorization as strictly increasing (prime, exponent) pairs."""

    entries: tuple[tuple[int, int], ...]

    def __post_init__(self):
        last = 1
        for p, e in self.entries:
            if p <= last or e < 1:
                raise PreconditionError(f"bad factorization entries {self.entries}")
            last = p


def _miller_rabin(n: int) -> bool:
    # deterministic for n < 3.3 * 10^24 with these witnesses
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
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


def is_prime(n: int) -> bool:
    return _miller_rabin(n)


def _pollard_rho(n: int) -> int:
    # n odd composite, not a prime power of a small prime
    if n % 2 == 0:
        return 2
    for c in range(1, 100):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
    raise RuntimeError(f"pollard rho failed on {n}")  # pragma: no cover


def factorize(q: int) -> Factorization:
    """Exact prime factorization of q >= 1; q = 1 gives the empty product."""
    if q < 1 or q > 2**63:
        raise PreconditionError(f"factorize needs 1 <= q <= 2^63, got {q}")
    fac: dict[int, int] = {}
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        while q % p == 0:
            fac[p] = fac.get(p, 0) + 1
            q //= p
    stack = [q] if q > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            fac[m] = fac.get(m, 0) + 1
            continue
        # trial division first: cheap and usually done by here
        found = False
        d = 37
        while d * d <= m and d < 10**5:
            if m % d == 0:
                stack.extend([d, m // d])
                found = True
                break
            d += 2
        if not found:
            d = _pollard_rho(m)
            stack.extend([d, m // d])
    return Factorization(tuple(sorted(fac.items())))


def euler_phi(q: int) -> int:
    """Euler's totient, via the factorization."""
    if q < 1:
        raise PreconditionError(f"euler_phi needs q >= 1, got {q}")
    out = 1
    for p, e in factorize(q).entries:
        out *= p ** (e - 1) * (p - 1)
    return out


def p_adic_valuation(p: int, m: int) -> int:
    """tau with p^tau || m (m >= 1)."""
    tau = 0
    while m % p == 0:
        m //= p
        tau += 1
    return tau


def gamma_exponent(p: int, k: int) -> int:
    """Hensel level gamma for x^k: tau+1, except tau+2 when p=2 and tau>0."""
    if not is_prime(p):
        raise PreconditionError(f"{p} is not prime")
    tau = p_adic_valuation(p, k)
    if p == 2 and tau > 0:
        return tau + 2
    return tau + 1


def nu_exponent(p: int, k: int, l: int) -> int:
    """Level nu = 2*tau1 + 1 with p^tau1 || kl."""
    if not is_prime(p):
        raise PreconditionError(f"{p} is not prime")
    return 2 * p_adic_valuation(p, k * l) + 1


def sieve_primes(limit: int) -> list[int]:
    """All primes <= limit."""
    if limit < 2:
        return []
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [i for i in range(limit + 1) if sieve[i]]


@lru_cache(maxsize=None)
def smallest_prime_factors(limit: int) -> list[int]:
    """spf[i] = smallest prime factor of i (spf[1] = 1)."""
    spf = list(range(limit + 1))
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == p:
            for m in range(p * p, limit + 1, p):
                if spf[m] == m:
                    spf[m] = p
    return spf

