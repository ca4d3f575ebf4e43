import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waringtk import arcs
from waringtk.arcs import (
    f_alpha,
    f_alpha_direct,
    major_residual_sweep,
    weyl_bound_sweep,
)
from waringtk.errors import PreconditionError, ResourceError
from waringtk.powersets import rep_count_table
from waringtk.rational import CLASSIFY_Q_BUDGET, classify_major, classify_mm, dirichlet_approx
from waringtk.smooth import restricted_power_sums, vinogradov_mean_value


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


def test_classify_mm_rejects_nan_m():
    """A NaN M fails every comparison, so it would put alpha in m_M."""
    with pytest.raises(PreconditionError):
        classify_mm(0.3, 10, 2, math.nan)


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


def test_major_residual_sweep_small():
    # residual stays well below 1 on a desk-scale instance
    r = major_residual_sweep(62500, 2, 2, 8, Q=5, sample_count=10, seed=1)
    assert 0 < r < 1.0


def test_major_residual_requires_Q_below_P():
    with pytest.raises(PreconditionError):
        major_residual_sweep(10**4, 2, 2, 8, Q=50)


def test_weyl_sweep_below_envelope():
    assert weyl_bound_sweep(10**4, 2, 2, 8, sample_count=12, seed=2) < 1.0


def test_rho_table_reaches_the_exact_root(monkeypatch):
    """f sums over T(z) <= P^l = n^(1/k): at n = 169, k = 2 that is 13
    exactly, where the float P^l = (169^(1/4))^2 falls just below 13."""
    limits = []
    table_for = arcs._rho_table_for
    monkeypatch.setattr(arcs, "_rho_table_for", lambda l, t, limit: limits.append(limit) or table_for(l, t, limit))
    weyl_bound_sweep(169, 2, 2, 2, sample_count=2)
    major_residual_sweep(169, 2, 2, 2, Q=3, sample_count=2)
    assert limits == [13, 13]


def vmv_brute(s, k_sys, r, Y):
    values = restricted_power_sums(r, 2, Y, 0.25)
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
    card = len(restricted_power_sums(r, 2, Y, 0.25))
    J = vinogradov_mean_value(s, k_sys, r, Y)
    assert J >= math.factorial(s) * math.comb(card, s) + card


def test_vmv_power_saving_emerges():
    # the normalized count J / |S|^(2s) shrinks as Y grows: the
    # off-diagonal saving is real
    ratios = []
    for Y in (16, 32, 64):
        card = len(restricted_power_sums(2, 2, Y, 0.25))
        ratios.append(vinogradov_mean_value(2, 2, 2, Y) / card**4)
    assert ratios[0] > ratios[1] > ratios[2]

