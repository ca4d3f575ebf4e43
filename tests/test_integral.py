import math

import numpy as np
import pytest

from waringtk.errors import PreconditionError
from waringtk.expsums import w_q
from waringtk.integral import (
    U_major,
    c_tl,
    decay_exponent,
    j_prime_exact,
    j_prime_main_term,
    j_prime_quadrature,
    j_singular_exact,
    u_beta,
    u_decay_check,
    v_beta,
    v_support,
    w_beta,
)


def test_u_beta_at_zero_is_weight_mass():
    n, t, k, l = 500, 8, 2, 2
    direct = sum(m ** (t / (k * l) - 1.0) for m in range(1, n + 1)) / k
    assert u_beta(0.0, n, t, k, l) == pytest.approx(direct)


def test_u_beta_conjugate_symmetry():
    v1 = u_beta(0.3, 400, 8, 2, 2)
    v2 = u_beta(-0.3, 400, 8, 2, 2)
    assert v1 == pytest.approx(v2.conjugate())


def test_c_tl_values():
    assert c_tl(8, 2) == pytest.approx(math.gamma(1.5) ** 8 / math.gamma(4))
    assert c_tl(1, 1) == pytest.approx(1.0)


def test_decay_exponent():
    assert decay_exponent(8, 2, 2) == 1.0
    assert decay_exponent(3, 2, 2) == 0.75


def test_u_decay_check_bounded():
    # |u(beta)| (1+n|beta|)^gamma <= C P^t with modest C
    assert u_decay_check(2000, 8, 2, 2, sample_count=30, seed=3) < 2.0


def test_u_decay_seed_reproducible():
    a = u_decay_check(500, 8, 2, 2, sample_count=20, seed=9)
    b = u_decay_check(500, 8, 2, 2, sample_count=20, seed=9)
    assert a == b


def test_U_major_at_center_q1():
    n, k, l, t = 300, 2, 2, 8
    assert U_major(0.0, 0, 1, n, k, l, t) == pytest.approx(c_tl(t, l) * u_beta(0.0, n, t, k, l))


def test_v_support_and_values():
    # k=2, n=10^4: X1 = 12.5, support (156, 625]
    lo, hi = v_support(10**4, 2)
    assert (lo, hi) == (156, 625)
    v0 = v_beta(0.0, 10**4, 2)
    direct = sum(x ** (-0.5) / 2 for x in range(157, 626))
    assert v0.real == pytest.approx(direct)


def test_w_beta_at_zero():
    w0 = w_beta(0.0, 1000, 2)
    direct = sum(x ** (-0.5) / (2 * math.log(x)) for x in range(2, 1001))
    assert w0.real == pytest.approx(direct)


def test_j_prime_closed_form_xi_eq_kl():
    # xi = kl makes the weight constant: J'_2(n) = k^-2 (n-1) exactly
    for k, l, n in [(2, 2, 1000), (3, 2, 777)]:
        assert j_prime_exact(n, 2, k * l, k, l) == pytest.approx((n - 1) / k**2, rel=1e-12)


@pytest.mark.parametrize("s", [2, 3, 4])
def test_j_prime_vs_quadrature(s):
    n = 700
    exact = j_prime_exact(n, s, 5, 2, 2)
    quad = j_prime_quadrature(n, s, 5, 2, 2)
    assert quad == pytest.approx(exact, rel=1e-9)


def test_j_prime_main_term_convergence():
    for n in (10**3, 10**4):
        exact = j_prime_exact(n, 3, 5, 2, 2)
        main, B = j_prime_main_term(n, 3, 5, 2, 2)
        assert abs(exact - main) / main <= 5 * B


def test_j_prime_rejects_s1():
    with pytest.raises(PreconditionError):
        j_prime_exact(100, 1, 4, 2, 2)


def test_j_singular_positive_and_below_envelope():
    value, envelope = j_singular_exact(4000, 2, 2, 2, 8)
    assert 0 < value < envelope


def test_j_singular_scaling():
    # J(n) ~ n^{(st/kl + 4/k + ... )} growth: ratio at 2n over n is finite and > 1
    v1, _ = j_singular_exact(2000, 1, 2, 2, 8)
    v2, _ = j_singular_exact(4000, 1, 2, 2, 8)
    assert 1.0 < v2 / v1 < 2.0 ** 6


@pytest.mark.parametrize("n, s", [(300, 0), (300, 1), (300, 2), (500, 2)])
def test_j_singular_exact_matches_quadrature(n, s):
    """J(n) = N^-1 sum_j v(j/N)^2 w(j/N)^2 u(j/N)^s e(-jn/N) with N = 8n:
    the product's exponents lie in [0, (4 + s) n], so no alias lands on n."""
    k, l, t = 2, 2, 8
    N = 8 * n
    total = 0j
    for j in range(N):
        beta = j / N
        total += (
            v_beta(beta, n, k) ** 2
            * w_beta(beta, n, k) ** 2
            * u_beta(beta, n, t, k, l) ** s
            * np.exp(-2j * np.pi * j * n / N)
        )
    value, _ = j_singular_exact(n, s, k, l, t)
    assert total.real / N == pytest.approx(value, rel=1e-9)


@pytest.mark.parametrize(
    "call",
    [
        lambda: w_q(0, 1, 2),
        lambda: w_q(-4, 1, 2),
        lambda: U_major(0.1, 1, 0, 100, 2, 2, 8),
        lambda: w_beta(0.1, 100, 0),
        lambda: v_support(100, 1),
        lambda: v_beta(0.1, 100, 1),
    ],
    ids=["w_q-q0", "w_q-q-4", "U_major-q0", "w_beta-k0", "v_support-k1", "v_beta-k1"],
)
def test_out_of_domain_arguments_are_precondition_errors(call):
    with pytest.raises(PreconditionError):
        call()
