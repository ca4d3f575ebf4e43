import math
import random
from collections import Counter
from itertools import product

import numpy as np
import pytest

from waringtk.errors import PreconditionError, ResourceError
from waringtk.params import ProblemParams
from waringtk.powersets import restricted_power_sums
from waringtk.represent import (
    CountVector,
    count_conje,
    count_enumerate,
    count_oracle,
    count_theorem13,
    find_positivity_onset,
    k2_mean_value,
    main_term,
    main_term_ratio,
    q_m_table,
    window_ratio,
)


@pytest.mark.parametrize(
    "n_max,k,l,t,s,r",
    [(300, 2, 2, 2, 1, 1), (200, 2, 2, 2, 2, 0), (400, 3, 2, 2, 1, 2), (150, 2, 3, 2, 1, 1)],
)
def test_count_conje_matches_nested_loops(n_max, k, l, t, s, r):
    vec = count_conje(n_max, k, l, t, s, r)
    assert list(vec.entries) == count_enumerate(n_max, k, l, t, s, r)


def test_count_conje_matches_schoolbook_oracle():
    n_max, k, l, t, s, r = 2000, 2, 2, 4, 2, 1
    vec = count_conje(n_max, k, l, t, s, r)
    assert list(vec.entries) == count_oracle(n_max, k, l, t, s, r)


def test_count_theorem13_weighted_brute():
    n_max, k, l, xi, s = 300, 2, 2, 2, 2
    vec = count_theorem13(n_max, k, l, xi, s)
    brute = [0] * (n_max + 1)
    for z in product(range(1, 20), repeat=xi * s):
        v = sum(
            sum(z[i * xi + j] ** l for j in range(xi)) ** k for i in range(s)
        )
        if v <= n_max:
            brute[v] += 1
    assert list(vec.entries) == brute


def test_theorem13_set_below_weighted():
    w = count_theorem13(500, 2, 2, 5, 2, weighted=True)
    u = count_theorem13(500, 2, 2, 5, 2, weighted=False)
    assert all(a <= b for a, b in zip(u.entries, w.entries))
    # set-count positivity agrees with weighted positivity
    assert all((a > 0) == (b > 0) for a, b in zip(u.entries, w.entries))


def test_count_vector_accessors():
    vec = count_conje(100, 2, 2, 2, 1, 0)
    assert vec.n_max == 100
    assert vec.mass == sum(vec.entries)
    assert vec[0] == 0
    assert "conje" in vec.provenance


def test_budget_and_precondition_gates():
    with pytest.raises(ResourceError):
        count_conje(2 * 10**6, 2, 2, 8, 1, 0)
    with pytest.raises(PreconditionError):
        count_conje(100, 2, 2, 8, 0, 0)
    with pytest.raises(PreconditionError):
        count_theorem13(100, 2, 2, 5, 0)


def test_main_term_positive_and_ratio_finite():
    vec = count_theorem13(20000, 2, 2, 5, 6)
    r = main_term_ratio(vec, 20000, 2, 2, 5, 6, Q=50)
    assert 0 < r < 1.0  # positive-variable deficit keeps this below 1


def test_window_ratio_matches_pointwise_mean():
    vec = count_theorem13(5000, 2, 2, 5, 6)
    lo, hi = 4000, 4200
    got = window_ratio(vec, lo, hi, 2, 2, 5, 6, Q=30)
    counts = sum(vec[n] for n in range(lo, hi + 1))
    mains = sum(main_term(n, 2, 2, 5, 6, Q=30) for n in range(lo, hi + 1))
    assert got == pytest.approx(counts / mains, rel=1e-6)


def test_scaling_exponent_over_a_decade():
    # window averages grow like n^(s xi / kl - 1), approached from below:
    # each positive-variable factor misses its main term by ~ 1 - c m^(-1/2),
    # so the finite-range slope overshoots the limit 6.5 slightly (measured
    # 7.41 over [1e4, 1e5]) and never undershoots it
    k, l, xi, s = 2, 2, 5, 6
    vec = count_theorem13(2 * 10**5, k, l, xi, s)
    lo = sum(vec[n] for n in range(9000, 11001)) / 2001
    hi = sum(vec[n] for n in range(90000, 110001)) / 20001
    slope = math.log(hi / lo) / math.log(10)
    limit = s * xi / (k * l) - 1
    assert limit <= slope <= limit + 1.0


def test_positivity_onset():
    vec = count_conje(3000, 2, 2, 8, 11, 4)
    assert find_positivity_onset(vec, width=1000) == 761
    tiny = CountVector((0, 1, 0, 1), "toy")
    assert find_positivity_onset(tiny, width=1) is None


def test_positivity_onset_matches_running_count():
    """The vectorised onset against a running count of positive entries."""

    def running(entries, width):
        run = 0
        for n in range(1, len(entries)):
            run = run + 1 if entries[n] > 0 else 0
            if run >= width + 1:
                return n - width
        return None

    rng = random.Random(3)
    for _ in range(300):
        entries = [int(rng.random() < 0.8) for _ in range(rng.randrange(1, 40))]
        width = rng.randrange(0, 8)
        assert find_positivity_onset(CountVector(entries, "toy"), width) == running(entries, width)


def test_count_vector_entries():
    vec = CountVector([0, 3, 2], "toy")
    assert vec.entries.dtype == np.int64
    with pytest.raises(ValueError):
        vec.entries[0] = 1
    assert [type(x) for x in (vec.n_max, vec.mass, vec[1])] == [int, int, int]
    assert (vec.n_max, vec.mass, vec[1]) == (2, 5, 3)
    big = CountVector((1, 2**63, 2**70 + 1), "wide")
    assert big.entries.dtype == object
    assert big.entries.tolist() == [1, 2**63, 2**70 + 1]
    assert big.mass == 2 + 2**63 + 2**70 and big[2] == 2**70 + 1
    assert not big.entries.flags.writeable
    for bad in ([0, -1], (2**70, -1)):
        with pytest.raises(PreconditionError):
            CountVector(bad, "negative")


def test_q_m_table_support_and_mass():
    params = ProblemParams(k=2, l=2, t=8, n=10**6, xi=5)
    vec = q_m_table(params)
    s1 = restricted_power_sums(params.t1, params.l, params.p1, 0.25).values
    s2 = restricted_power_sums(params.l, params.l, params.p2, 0.25).values
    H = params.k * (params.k + 1)
    assert vec.mass == (len(s1) * len(s2)) ** H
    support = [m for m, c in enumerate(vec.entries) if c]
    assert max(support) <= params.n // 2
    assert min(support) >= H  # every pair sum is >= 2, raised to k >= 1


def test_q_m_support_claim_gate():
    # n too small to build the shifted sets: precondition trips instead of
    # silently producing an empty table
    with pytest.raises(PreconditionError):
        q_m_table(ProblemParams(k=2, l=2, t=8, n=10**3, xi=5))


def test_k2_mean_value_brute():
    t, X_cap, Y = 2, 6, 4
    diag, off = k2_mean_value(t, X_cap, Y=Y)
    values = restricted_power_sums(t, 2, Y, 0.25).values
    xs = range(X_cap // 2 + 1, X_cap + 1)
    brute_d = brute_o = 0
    for x1, y1, y2, x2, y3, y4 in product(xs, values, values, xs, values, values):
        if x1 * x1 + y1 * y1 + y2 * y2 == x2 * x2 + y3 * y3 + y4 * y4:
            if x1 == x2:
                brute_d += 1
            else:
                brute_o += 1
    assert (diag, off) == (brute_d, brute_o)


def test_k2_diagonal_dominates():
    diag, off = k2_mean_value(2, 40)
    assert diag > off
