import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waringtk.arith import (
    FACTOR_BUDGET,
    PRIME_BUDGET,
    euler_phi,
    factorize,
    gamma_exponent,
    is_prime,
    kth_root,
    nu_exponent,
    p_adic_valuation,
    sieve_primes,
    smallest_prime_factors,
)
from waringtk.errors import PreconditionError, ResourceError


def trial_factor(n):
    out = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return tuple(out)


@given(st.integers(min_value=2, max_value=10**6))
@settings(max_examples=200, deadline=None)
def test_factorize_matches_trial_division(n):
    assert factorize(n) == trial_factor(n)


@given(st.integers(min_value=1, max_value=3000))
@settings(max_examples=100, deadline=None)
def test_euler_phi_brute(n):
    assert euler_phi(n) == sum(1 for a in range(1, n + 1) if math.gcd(a, n) == 1)


def test_is_prime_against_sieve():
    assert sieve_primes(1) == sieve_primes(-5) == []
    primes = set(sieve_primes(2000))
    for n in range(2, 2000):
        assert is_prime(n) == (n in primes)


# the least strong pseudoprimes to the first 12 and 13 prime bases
_PSI_12 = 318665857834031151167461
_PSI_13 = 3317044064679887385961981


def test_is_prime_is_exact_or_refuses():
    """The bases 2..37 pass psi_12; base 41 rejects it, and the test is
    exact up to PRIME_BUDGET = psi_13 - 1. Past it, a number that a base
    divides is still answered, and any other is refused before Miller-Rabin."""
    assert _PSI_12 == 399165290221 * 798330580441 and _PSI_13 == 1287836182261 * 2575672364521
    assert not is_prime(_PSI_12)
    assert is_prime(399165290221) and is_prime(798330580441)
    assert is_prime(2**61 - 1) and not is_prime(2**67 - 1)  # 2^67 - 1 = 193707721 * 761838257287
    assert PRIME_BUDGET == _PSI_13 - 1
    assert not is_prime(10**5000) and not is_prime(41 * (10**4000 + 1)) and is_prime(41)
    for n in (_PSI_13, 10**4000 + 1):
        with pytest.raises(ResourceError):
            is_prime(n)


def test_large_semiprime():
    p, q = 1000003, 1000033
    assert factorize(p * q) == ((p, 1), (q, 1))


def test_p_adic_valuation():
    assert p_adic_valuation(2, 48) == 4
    assert p_adic_valuation(3, 48) == 1
    assert p_adic_valuation(5, 48) == 0


def test_gamma_and_nu_exponents():
    # gamma = tau + 1, or tau + 2 when p = 2 and tau > 0
    assert gamma_exponent(3, 2) == 1  # tau = 0
    assert gamma_exponent(2, 2) == 3  # tau = 1, p = 2
    assert gamma_exponent(2, 3) == 1  # tau = 0 even at p = 2
    assert gamma_exponent(3, 9) == 3  # tau = 2
    # nu = 2 tau1 + 1 with p^tau1 || kl
    assert nu_exponent(2, 2, 2) == 5  # v_2(4) = 2
    assert nu_exponent(3, 2, 2) == 1
    assert nu_exponent(3, 3, 2) == 3


@pytest.mark.parametrize(
    "call",
    [
        lambda: p_adic_valuation(2, 0),
        lambda: p_adic_valuation(1, 8),
        lambda: gamma_exponent(3, 0),
        lambda: nu_exponent(3, 0, 2),
    ],
    ids=["m=0", "p=1", "gamma_k=0", "nu_k=0"],
)
def test_p_adic_valuation_rejects_where_it_would_not_end(call):
    """v_p(0) and v_1(m) have no finite value: the division loop never
    ends, so these calls must raise rather than hang."""
    with pytest.raises(PreconditionError):
        call()


def test_kth_root_small_against_brute_force():
    for k in range(1, 8):
        x = 0
        for n in range(20000):
            while (x + 1) ** k <= n:
                x += 1
            assert kth_root(n, k) == x, (n, k)


def test_kth_root_big_and_at_exact_powers():
    """x = floor(n^(1/k)) is the one integer with x^k <= n < (x+1)^k; at
    n = m^k and m^k - 1 a float root is one off in either direction."""
    rng = random.Random(5)
    for _ in range(300):
        k = rng.randint(1, 7)
        n = rng.getrandbits(rng.randint(1, 700))
        x = kth_root(n, k)
        assert x**k <= n < (x + 1) ** k, (n, k)
        m = rng.randint(2, 10**30)
        assert kth_root(m**k, k) == m and kth_root(m**k - 1, k) == m - 1
    x = kth_root(10**400, 3)
    assert x**3 <= 10**400 < (x + 1) ** 3
    assert kth_root(10**400, 2) == 10**200 and kth_root(10**400, 400) == 10 and kth_root(10**400 - 1, 400) == 9
    assert kth_root(np.int64(169), np.int64(2)) == 13 and kth_root(np.uint64(2**64 - 1), 2) == 2**32 - 1


def test_kth_root_past_the_bit_length():
    """A k of at least n's bit length gives min(n, 1) at once (n < 2^k),
    and the bit length itself is the first such k."""
    for bits in range(2, 80):
        assert kth_root(2 ** (bits - 1), bits - 1) == 2, bits
        assert kth_root(2 ** (bits - 1), bits) == kth_root(2**bits - 1, bits) == 1, bits
    assert kth_root(0, 10**400) == 0 and kth_root(1, 10**400) == 1 and kth_root(10**400, 10**400) == 1


@pytest.mark.parametrize("n, k", [(-1, 2), (4, 0), (4, -1), (4.0, 2), (4, 2.0)])
def test_kth_root_domain(n, k):
    with pytest.raises(PreconditionError):
        kth_root(n, k)


def test_smallest_prime_factors():
    spf = smallest_prime_factors(30)
    assert spf[2] == 2 and spf[15] == 3 and spf[29] == 29 and spf[30] == 2


def test_factorize_rejects_zero():
    with pytest.raises(PreconditionError):
        factorize(0)


def test_factorize_budget():
    """Trial division runs up to FACTOR_BUDGET = 2^40 and refuses above it;
    primality of larger numbers stays with Miller-Rabin."""
    assert factorize(FACTOR_BUDGET) == ((2, 40),)
    assert factorize(1099511627689) == ((1099511627689, 1),)  # the largest prime below 2^40
    with pytest.raises(ResourceError):
        factorize(FACTOR_BUDGET + 1)
    assert is_prime(10**18 + 3) and not is_prime((10**9 + 7) * (10**9 + 9))
