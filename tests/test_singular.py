import math
from unittest import mock

import numpy as np
import pytest

from waringtk import expsums, local
from waringtk.arith import euler_phi, factorize
from waringtk.convolve import cyclic_power
from waringtk.errors import PreconditionError, ResourceError
from waringtk.expsums import S_FORM_Q_BUDGET, coprime_residues, hist_dft_all, omega_table, s_form
from waringtk.singular import (
    _d_entry,
    _d_table,
    form_power_histogram,
    positivity_sweep,
    s_n_prime_q,
    s_n_q,
    snm_identity_check,
    truncated_series,
)

K, L, T = 2, 2, 8


def test_form_histogram_dft_matches_u_reduction():
    for q in (2, 3, 4, 6, 9, 12, 25):
        units = coprime_residues(q)
        vals = hist_dft_all(q, form_power_histogram(q, K, L, T), units)
        for a, v in zip(units, vals):
            if math.gcd(int(a), q) == 1:
                assert abs(v - s_form(q, int(a), K, L, T)) < 1e-9 * max(1.0, abs(v))


def test_snm_identity_small():
    for p, h in [(2, 1), (2, 2), (3, 1), (5, 1)]:
        for n in range(p**h):
            assert snm_identity_check(p, h, n, K, L, T, 1) < 1e-8


def test_s_n_multiplicative():
    for n in (0, 1, 5):
        for q1, q2 in [(2, 3), (3, 4), (4, 9), (5, 8)]:
            lhs = s_n_q(q1 * q2, n, K, L, T, 1)
            rhs = s_n_q(q1, n, K, L, T, 1) * s_n_q(q2, n, K, L, T, 1)
            assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))
            lhs = s_n_prime_q(q1 * q2, n, K, L, T, 1)
            rhs = s_n_prime_q(q1, n, K, L, T, 1) * s_n_prime_q(q2, n, K, L, T, 1)
            assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))


def test_s_n_trivial_modulus():
    assert s_n_q(1, 7, K, L, T, 1) == 1
    assert s_n_prime_q(1, 7, K, L, T, 1) == 1


def test_truncation_agrees_with_euler_product():
    # the direct sum over q <= 60 and the Euler product over p <= 50
    # (DEFAULT_PRIME_CUTOFF), p^h <= 60 (Q) differ by terms of tail size
    full = truncated_series(10, 60, K, L, T, 1, variant="full")
    euler = truncated_series(10, 60, K, L, T, 1, variant="prime")
    assert full.imag_residual < 1e-10
    assert euler.imag_residual < 1e-10
    assert abs(full.value - euler.value) < 5 * full.tail_estimate


def test_truncation_convergence_trend():
    vals = [truncated_series(10, Q, K, L, T, 1).value for Q in (50, 100, 200)]
    assert abs(vals[2] - vals[1]) < 5 * 100 ** (-1.0 / K)
    assert abs(vals[1] - vals[0]) < 5 * 50 ** (-1.0 / K)


def test_series_positive_on_range():
    res = truncated_series(7, 100, K, L, T, 2)
    assert res.value > 0.1


def test_positivity_sweep_consistency():
    rep = positivity_sweep([5, 6, 7], K, L, T, 2, Q=50)
    single = truncated_series(rep.argmin_n, 50, K, L, T, 2).value
    assert rep.min_value == pytest.approx(single)
    assert rep.prime_failures == ()


def test_positivity_sweep_reports_bad_prime():
    # s = 1 fails the Mstar hypothesis at p = 2 (needs s >= 5)
    rep = positivity_sweep([5], K, L, T, 1, Q=20, series="SnPrime")
    assert any(p == 2 for p, _ in rep.prime_failures)


def test_bad_series_name():
    with pytest.raises(PreconditionError):
        truncated_series(5, 20, K, L, T, 1, series="bogus")


def test_s_form_budget_is_a_resource_error():
    misses = form_power_histogram.cache_info().misses
    with pytest.raises(ResourceError):
        s_n_prime_q(S_FORM_Q_BUDGET + 1, 0, K, L, T, 1)
    assert form_power_histogram.cache_info().misses == misses
    with pytest.raises(ResourceError):
        s_form(S_FORM_Q_BUDGET + 1, 1, K, L, T)


def test_series_budget_checked_before_any_table():
    _d_table.cache_clear()
    with pytest.raises(ResourceError):
        truncated_series(10, S_FORM_Q_BUDGET + 1, K, L, T, 1)
    assert _d_table.cache_info().misses == 0


def test_d_table_is_read_only():
    units, coef = _d_table(12, K, L, T, 2, "Sn")
    assert units.tolist() == [1, 5, 7, 11]
    assert not units.flags.writeable and not coef.flags.writeable


def _histogram_by_cyclic_power(q, k, l, t):
    return local.pushforward_power(cyclic_power(expsums.power_residue_histogram(q, l), t, q), k).tolist()


@pytest.mark.parametrize("k, l, t", [(2, 2, 8), (3, 2, 5)])
def test_composite_histograms_match_cyclic_powers(k, l, t):
    for q in range(1, 201):
        assert form_power_histogram(q, k, l, t).tolist() == _histogram_by_cyclic_power(q, k, l, t), q


@pytest.mark.parametrize("q, entry_bits", [(300, 62), (360, 65)])
def test_composite_histogram_past_int64(q, entry_bits):
    """At t = 8 the mass q^8 is past 2^63; at q = 360 so is the largest
    entry, and only there is the array of Python ints (object)."""
    hist = form_power_histogram(q, 2, 2, 8)
    counts = hist.tolist()
    assert sum(counts) == q**8 > 1 << 63 and max(counts).bit_length() == entry_bits
    assert hist.dtype == (np.int64 if entry_bits < 64 else object)
    assert counts == _histogram_by_cyclic_power(q, 2, 2, 8)


def test_cyclic_powers_only_at_prime_powers():
    """The series (_d_table) and the local counts (m_n) of k = 2 and
    k = 3 share one cyclic power of the form histogram per prime power."""
    moduli = []
    real = local.cyclic_power

    def spy(base, t, m):
        if t == 6:  # the form's power; m_n also takes the s-th power of its image
            moduli.append(m)
        return real(base, t, m)

    for cached in (local.form_histogram, form_power_histogram, local._m_n_histogram, _d_table):
        cached.cache_clear()
    with mock.patch.object(local, "cyclic_power", spy):
        for k in (2, 3):
            for q in range(1, 101):
                form_power_histogram(q, k, 2, 6)
            s_n_prime_q(49, 0, k, 2, 6, 1)
            local.m_n(7, 2, 4, k, 2, 6, 2)
    prime_powers = [q for q in range(1, 101) if len(factorize(q)) <= 1]
    assert moduli == prime_powers


def _d_table_per_residue(q, k, l, t, s, series):
    """The tables as one np.dot per residue on its own index row."""
    if q == 1:
        return np.array([1 + 0j])
    units = coprime_residues(q)
    coef = (hist_dft_all(q, form_power_histogram(q, k, l, t), units) / q**t) ** s
    if series == "Sn":
        sk = hist_dft_all(q, expsums.power_residue_histogram(q, k), units)
        wv = hist_dft_all(q, expsums.power_residue_histogram(q, k, units_only=True), units)
        coef = coef * (sk / q) ** 2 * (wv / euler_phi(q)) ** 2
    om = omega_table(q)
    out = np.empty(q, dtype=np.complex128)
    for i in range(q):
        out[i] = np.dot(coef, om[(-units * i) % q])
    return out


@pytest.mark.parametrize(
    "k, l, t, s", [(2, 2, 5, 6), (3, 2, 5, 3), (2, 2, 8, 2), (2, 2, 6, 3), (3, 2, 8, 4), (2, 3, 6, 4), (2, 2, 7, 2)]
)
def test_d_table_bits_match_per_residue_loop(k, l, t, s):
    """Every entry, read through _d_entry in a shuffled order at some
    n = m (mod q), most of them past q, is bit-identical to the
    per-residue sum."""
    rng = np.random.default_rng(1000 * k + 100 * l + 10 * t + s)
    for series in ("SnPrime", "Sn"):
        for q in range(1, 201):
            want = _d_table_per_residue(q, k, l, t, s, series)
            order = rng.permutation(q)
            read = np.array([_d_entry(q, int(m) + q * int(m % 3), k, l, t, s, series) for m in order], dtype=np.complex128)
            assert np.array_equal(read.view(np.float64), want[order].view(np.float64)), (q, series)
