import cmath
import math
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waringtk.arcs import (
    CLASSIFY_Q_BUDGET,
    F_alpha,
    G_alpha,
    classify_major,
    classify_mm,
    dirichlet_approx,
    f_alpha,
    f_alpha_direct,
    f_m_alpha,
    g_alpha,
    gamma_shift,
    h_alpha,
    major_residual_sweep,
    preset_cutoffs,
    prime_shifted_set,
    shifted_set_pair,
    spacing_diagnostic,
    vinogradov_mean_value,
    vmv_envelope_constant,
    weyl_bound_sweep,
)
from waringtk.arith import sieve_primes
from waringtk.errors import PreconditionError, ResourceError
from waringtk.params import ProblemParams
from waringtk.powersets import rep_count_table, restricted_power_sums


def test_dirichlet_examples():
    # pi - 3 has convergents 0/1, 1/7, 15/106, ...
    assert dirichlet_approx(math.pi - 3, 100) == (1, 7)
    assert dirichlet_approx(math.pi - 3, 200) == (16, 113)
    assert dirichlet_approx(0.5, 10) == (1, 2)
    assert dirichlet_approx(0.0, 10) == (0, 1)


@given(st.floats(min_value=0.0, max_value=1.0, exclude_max=True), st.integers(min_value=2, max_value=5000))
@settings(max_examples=100, deadline=None)
def test_dirichlet_property(alpha, bound):
    a, q = dirichlet_approx(alpha, bound)
    assert 1 <= q <= bound
    assert math.gcd(a, q) == 1
    assert abs(alpha - a / q) <= 1.0 / (q * bound) + 1e-9


def test_classify_major_examples():
    n, Q = 10**4, 10
    pt = classify_major(1 / 3 + 1e-5, n, Q)
    assert pt.classification == "major" and (pt.a, pt.q) == (1, 3)
    # far from every a/q with q <= Q
    pt = classify_major((math.sqrt(5) - 1) / 2, n, Q)
    assert pt.classification == "minor"


def test_classify_major_scan_budget():
    assert classify_major(0.5, 100, CLASSIFY_Q_BUDGET).q == 2
    with pytest.raises(ResourceError):
        classify_major(0.5, 100, CLASSIFY_Q_BUDGET + 1)


def test_classify_mm_exclusion():
    n, k = 10**4, 2
    M = 10.0
    # alpha right on a low rational: inside M(M) so excluded from m_M
    pt = classify_mm(0.5 + 1e-7, n, k, M)
    assert pt.classification == "mM-excluded"
    # a genuine minor-arc point with larger denominator
    pt2 = classify_mm(dirichlet_approx(math.sqrt(2) - 1, 50)[0] / dirichlet_approx(math.sqrt(2) - 1, 50)[1] + 1e-9, n, k, M)
    assert pt2.classification in ("mM", "mM-excluded")


def test_preset_cutoffs_ordering():
    params = ProblemParams(k=2, l=2, t=8, n=10**6)
    cuts = preset_cutoffs(params)
    assert cuts["log"] < cuts["sqrt"] < cuts["sqrt_plus_iota"]
    assert cuts["sqrt"] == pytest.approx(params.P**0.5)


@pytest.mark.parametrize("alpha", [0.0, 0.3, 1 / 7, 0.917])
def test_f_alpha_matches_direct(alpha):
    k, l, t, limit = 2, 2, 2, 60
    table = rep_count_table(l, t, limit)
    got = f_alpha(alpha, k, table)
    want = f_alpha_direct(alpha, k, l, t, limit)
    assert abs(got - want) < 1e-8 * max(1.0, abs(want))


def _f_alpha_by_python_ints(alpha, k, table):
    """f(alpha) with each phase reduced as Python float * int, entry by entry."""
    rho = np.array(table.rho, dtype=np.float64)
    support = np.nonzero(rho)[0]
    support = support[support >= 1]
    vals = np.array([float((alpha * int(m) ** k) % 1.0) for m in support])
    return complex(np.dot(rho[support], np.exp(2j * np.pi * vals)))


@pytest.mark.parametrize("k, limit", [(2, 500), (3, 500), (4, 500), (4, 12000)])
def test_f_alpha_bits_match_python_int_phases(k, limit):
    """f_alpha rounds each exact m^k to float64 once, as float * int does,
    so its bits are those of the per-entry Python-int phases; at limit
    12000, m^4 passes 2^53, where a float64 power would round twice."""
    table = rep_count_table(2, 2, limit)
    alphas = [0.0, -0.37, -1 / 7, *np.random.default_rng(k * limit).uniform(-1, 1, 20).tolist()]
    for alpha in alphas:
        got, want = f_alpha(alpha, k, table), _f_alpha_by_python_ints(alpha, k, table)
        assert (got.real, got.imag) == (want.real, want.imag), alpha


def test_f_alpha_at_zero_is_mass():
    table = rep_count_table(2, 2, 100)
    assert f_alpha(0.0, 2, table).real == pytest.approx(sum(table.rho[1:]))


def test_f_conjugate_symmetry():
    table = rep_count_table(2, 2, 80)
    a = f_alpha(0.37, 2, table)
    b = f_alpha(1 - 0.37, 2, table)
    assert a == pytest.approx(b.conjugate())


def _small_pair():
    params = ProblemParams(k=2, l=2, t=8, n=10**6, xi=5)
    return params, shifted_set_pair(params)


def test_F_is_sum_of_f_m():
    params, pair = _small_pair()
    alpha = 0.123
    total = sum(f_m_alpha(alpha, m, params.k, pair.s1) for m in pair.s2)
    assert F_alpha(alpha, pair, params.k) == pytest.approx(total, rel=1e-9)


def test_binomial_shift_identity_pointwise():
    # e(alpha (x+m)^k) = e(alpha x^k) e(alpha m^k) prod_j e(gamma_j-ish terms);
    # for k = 2: (x+m)^2 = x^2 + m^2 + 2xm, gamma_1(m) = 2 alpha m
    alpha, k = 0.2917, 2
    for x, m in product((3, 10, 41), (1, 4, 9)):
        lhs = cmath.exp(2j * cmath.pi * alpha * (x + m) ** k)
        rhs = (
            cmath.exp(2j * cmath.pi * alpha * x**k)
            * cmath.exp(2j * cmath.pi * alpha * m**k)
            * cmath.exp(2j * cmath.pi * gamma_shift(alpha, k, 1, m) * x)
        )
        assert abs(lhs - rhs) < 1e-9


def test_gamma_shift_bounds():
    assert gamma_shift(0.5, 3, 2, 4) == pytest.approx(0.5 * 3 * 4)
    with pytest.raises(PreconditionError):
        gamma_shift(0.5, 2, 0, 4)


def test_spacing_diagnostic_positive():
    params, pair = _small_pair()
    c = spacing_diagnostic(1 / math.sqrt(2), pair, params.k, params.n)
    assert c > 0


def test_F_conjugate_symmetry():
    params, pair = _small_pair()
    a = F_alpha(0.31, pair, params.k)
    b = F_alpha(1 - 0.31, pair, params.k)
    assert a == pytest.approx(b.conjugate(), rel=1e-9)


def test_G_brute():
    params = ProblemParams(k=2, l=2, t=8, n=10**6, xi=5)
    pset = prime_shifted_set(params)
    alpha = 0.441
    want = sum(
        cmath.exp(2j * cmath.pi * ((alpha * (x + p**params.l) ** params.k) % 1.0))
        for x in pset.s
        for p in pset.primes
    )
    assert G_alpha(alpha, pset, params.k, params.l) == pytest.approx(want, rel=1e-9)


def test_g_alpha_count_at_zero():
    # k=2, n=1e4: X1 = 25, support (12, 25] -> 13 integers
    assert g_alpha(0.0, 2, 10**4).real == pytest.approx(13)


def test_h_alpha_count_at_zero():
    n = 10**4
    assert h_alpha(0.0, 2, n).real == pytest.approx(len(sieve_primes(100)))


def test_major_residual_sweep_small():
    # residual stays well below 1 on a desk-scale instance
    r = major_residual_sweep(62500, 2, 2, 8, Q=5, sample_count=10, seed=1)
    assert 0 < r < 1.0


def test_major_residual_requires_Q_below_P():
    with pytest.raises(PreconditionError):
        major_residual_sweep(10**4, 2, 2, 8, Q=50)


def test_weyl_sweep_below_envelope():
    assert weyl_bound_sweep(10**4, 2, 2, 8, sample_count=12, seed=2) < 1.0


def vmv_brute(s, k_sys, r, Y):
    values = restricted_power_sums(r, 2, Y, 0.25).values
    count = 0
    for lhs in product(values, repeat=s):
        for rhs in product(values, repeat=s):
            if all(
                sum(x**j for x in lhs) == sum(x**j for x in rhs)
                for j in range(1, k_sys + 1)
            ):
                count += 1
    return count


def test_vmv_brute_oracle():
    assert vinogradov_mean_value(2, 2, 2, 8) == vmv_brute(2, 2, 2, 8)


def test_vmv_diagonal_lower_bound():
    # diagonal solutions alone give J >= s! * C(|S|, s) + ... >= |S|^s count
    s, k_sys, r, Y = 2, 2, 2, 12
    card = len(restricted_power_sums(r, 2, Y, 0.25).values)
    J = vinogradov_mean_value(s, k_sys, r, Y)
    assert J >= math.factorial(s) * math.comb(card, s) + card


def test_vmv_power_saving_emerges():
    # the recorded constant is positive, and the normalized count
    # J / |S|^(2s) shrinks as Y grows: the off-diagonal saving is real
    assert vmv_envelope_constant(2, 2, 2, 16) > 0
    ratios = []
    for Y in (16, 32, 64):
        card = len(restricted_power_sums(2, 2, Y, 0.25).values)
        ratios.append(vinogradov_mean_value(2, 2, 2, Y) / card**4)
    assert ratios[0] > ratios[1] > ratios[2]


def test_shifted_sets_land_in_range():
    params, pair = _small_pair()
    assert max(pair.s1) <= params.t1 * params.p1**params.l
    assert max(pair.s2) <= params.l * params.p2**params.l
    assert all(a < b for a, b in zip(pair.s1, pair.s1[1:]))
