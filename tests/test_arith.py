import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waringtk.arith import (
    euler_phi,
    factorize,
    gamma_exponent,
    is_prime,
    nu_exponent,
    p_adic_valuation,
    sieve_primes,
    smallest_prime_factors,
)
from waringtk.errors import PreconditionError


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
    assert factorize(n).entries == trial_factor(n)


@given(st.integers(min_value=1, max_value=3000))
@settings(max_examples=100, deadline=None)
def test_euler_phi_brute(n):
    assert euler_phi(n) == sum(1 for a in range(1, n + 1) if math.gcd(a, n) == 1)


def test_is_prime_against_sieve():
    primes = set(sieve_primes(2000))
    for n in range(2, 2000):
        assert is_prime(n) == (n in primes)


def test_large_semiprime():
    p, q = 1000003, 1000033
    assert factorize(p * q).entries == ((p, 1), (q, 1))


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


def test_smallest_prime_factors():
    spf = smallest_prime_factors(30)
    assert spf[2] == 2 and spf[15] == 3 and spf[29] == 29 and spf[30] == 2


def test_factorize_rejects_zero():
    with pytest.raises(PreconditionError):
        factorize(0)
