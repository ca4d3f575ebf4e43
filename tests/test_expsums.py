import cmath
import math

import numpy as np
import pytest

from waringtk.arith import euler_phi
from waringtk.errors import PreconditionError, ResourceError
from waringtk.expsums import (
    _GEMV_SINGLE_THREAD,
    HIST_Q_BUDGET,
    _block_rows,
    coprime_residues,
    hist_dft_all,
    omega_table,
    power_residue_histogram,
    s_form,
    s_form_direct,
    s_k,
    w_k_weight,
    w_q,
    weight_bound_sweep,
    weight_sum_growth,
)
from waringtk.local import form_power_histogram


def modinv(a, m):
    return pow(a, -1, m)


def test_s_k_brute():
    for q in (3, 4, 5, 7, 8, 9):
        for a in range(1, q):
            if math.gcd(a, q) != 1:
                continue
            for k in (2, 3):
                want = sum(cmath.exp(2j * cmath.pi * a * pow(r, k, q) / q) for r in range(1, q + 1))
                assert abs(s_k(q, a, k) - want) < 1e-9


def test_w_q_brute():
    for q in (4, 5, 9, 12):
        for a in (1, q - 1):
            if math.gcd(a, q) != 1:
                continue
            want = sum(
                cmath.exp(2j * cmath.pi * a * pow(r, 2, q) / q)
                for r in range(1, q + 1)
                if math.gcd(r, q) == 1
            )
            assert abs(w_q(q, a, 2) - want) < 1e-9


def test_gauss_magnitude():
    for p in (3, 5, 7, 11, 13):
        for a in range(1, p):
            assert abs(abs(s_k(p, a, 2)) - math.sqrt(p)) < 1e-9


def test_s_k_rejects_noncoprime():
    with pytest.raises(PreconditionError):
        s_k(6, 3, 2)


@pytest.mark.parametrize("q,k,l,t", [(2, 2, 2, 2), (3, 2, 2, 2), (4, 2, 2, 3), (5, 3, 2, 2), (5, 2, 3, 3)])
def test_s_form_u_reduction_vs_direct(q, k, l, t):
    for a in range(1, q):
        if math.gcd(a, q) == 1:
            assert abs(s_form(q, a, k, l, t) - s_form_direct(q, a, k, l, t)) < 1e-9


def test_crt_quasi_multiplicativity():
    k, l, t = 2, 2, 4
    for q1, q2 in [(3, 4), (5, 9), (7, 8), (4, 25)]:
        q = q1 * q2
        for a in (1, q - 1):
            if math.gcd(a, q) != 1:
                continue
            lhs = s_form(q, a, k, l, t)
            rhs = s_form(q1, a * modinv(q2, q1) % q1, k, l, t) * s_form(
                q2, a * modinv(q1, q2) % q2, k, l, t
            )
            assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(lhs))
            lhs_k = s_k(q, a, k)
            rhs_k = s_k(q1, a * modinv(q2, q1) % q1, k) * s_k(q2, a * modinv(q1, q2) % q2, k)
            assert abs(lhs_k - rhs_k) < 1e-9 * max(1.0, abs(lhs_k))


def test_w_k_weight_prime_power_cases():
    k = 2
    # e = 1 -> u=0, v=1: k * p^{-1/2}
    assert w_k_weight(3, k) == pytest.approx(2 * 3**-0.5)
    # e = 2 -> u=0, v=2: p^{-1}
    assert w_k_weight(9, k) == pytest.approx(1 / 3)
    # e = 3 -> u=1, v=1: k * p^{-3/2}
    assert w_k_weight(27, k) == pytest.approx(2 * 3**-1.5)
    # multiplicative
    assert w_k_weight(45, k) == pytest.approx(w_k_weight(9, k) * w_k_weight(5, k))
    assert w_k_weight(1, k) == 1.0


def test_all_tables_match_pointwise():
    for q in (5, 8, 9, 12):
        units = coprime_residues(q)
        sk = hist_dft_all(q, power_residue_histogram(q, 2), units)
        wv = hist_dft_all(q, power_residue_histogram(q, 2, units_only=True), units)
        for u, v1, v2 in zip(units, sk, wv):
            assert abs(v1 - s_k(q, int(u), 2)) < 1e-9
            assert abs(v2 - w_q(q, int(u), 2)) < 1e-9


def _hist_dft_cases():
    """The histograms the series and the weight sweep read: r^k over all
    r and over the units for q <= 400, T(r)^k for six forms for q <= 200,
    and two primes past 1000."""
    for q in range(1, 401):
        for k in (2, 3, 4):
            yield q, power_residue_histogram(q, k)
        for k in (2, 3):
            yield q, power_residue_histogram(q, k, units_only=True)
        if q <= 200:
            for k, l, t in ((2, 2, 8), (2, 2, 5), (3, 2, 5), (1, 2, 2), (3, 2, 8), (4, 2, 8)):
                yield q, form_power_histogram(q, k, l, t)
    for q in (1031, 1999):
        yield q, form_power_histogram(q, 1, 2, 2)


def test_hist_dft_all_blocks_match_one_matrix_product_bit_for_bit():
    """Row blocks of a multiple of 4 units give the bits of one full
    matrix product, on either side of the 4096-entry threading limit."""
    blocked = 0
    for q, hist in _hist_dft_cases():
        units = coprime_residues(q)
        support = np.nonzero(hist)[0]
        want = omega_table(q)[np.outer(units, support) % q] @ hist[support].astype(np.float64)
        got = hist_dft_all(q, hist, units)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), q
        blocked += len(units) > _block_rows(len(support))
    assert blocked > 1000


def test_block_rows_stay_under_the_threading_limit():
    for size in range(1, 1024):
        rows = _block_rows(size)
        assert rows % 4 == 0 and rows * size < _GEMV_SINGLE_THREAD <= (rows + 4) * size, size
    assert _block_rows(1024) == _block_rows(5000) == 4


def test_hist_dft_all_row_by_row_past_the_matrix_cap():
    """A call past 4 * 10^6 terms (q = 2003) runs in the same blocks as
    any other and stays within 1e-9 of one full matrix product."""
    q = 2003
    hist = form_power_histogram(q, 1, 2, 2)
    units = coprime_residues(q)
    support = np.nonzero(hist)[0]
    assert len(units) * len(support) == 4_010_006
    want = omega_table(q)[np.outer(units, support) % q] @ hist[support].astype(np.float64)
    got = hist_dft_all(q, hist, units)
    assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))


def test_power_residue_histogram_budget():
    """q past HIST_Q_BUDGET raises before any array is allocated."""
    with pytest.raises(ResourceError):
        power_residue_histogram(10**12, 2)
    with pytest.raises(ResourceError):
        s_k(HIST_Q_BUDGET + 1, 1, 2)


def test_coprime_residues():
    assert list(coprime_residues(12)) == [1, 5, 7, 11]
    assert len(coprime_residues(30)) == euler_phi(30)
    for q in range(1, 501):
        units = coprime_residues(q)
        assert units.dtype == np.int64
        assert units.tolist() == [r for r in range(1, q + 1) if math.gcd(r, q) == 1], q


def test_weight_bound_sweep_stability():
    a = weight_bound_sweep(60, 2, "Sk")
    b = weight_bound_sweep(120, 2, "Sk")
    assert b <= a * 1.5 and a <= b * 1.5


def test_weight_sum_growth_epsilon():
    # The sums are asymptotically <= Q^epsilon (polylog growth), but at
    # desk scale log-power growth still dominates Q^0.1; the honest
    # finite-range check is that the per-decade growth factor decreases.
    rows = weight_sum_growth([100, 1000, 10000], 2)
    for key in ("sum_w2", "sum_qws"):
        f1 = rows[1][key] / rows[0][key]
        f2 = rows[2][key] / rows[1][key]
        assert f2 < f1


def test_s_form_trivial_q1():
    assert s_form(1, 0, 2, 2, 8) == 1 + 0j


@pytest.mark.parametrize("units_only", [False, True])
def test_power_residue_histogram_matches_pow_loop(units_only):
    for q in range(1, 501):
        for k in range(7):
            want = [0] * q
            for r in range(1, q + 1):
                if not units_only or math.gcd(r, q) == 1:
                    want[pow(r, k, q)] += 1
            assert power_residue_histogram.__wrapped__(q, k, units_only).tolist() == want, (q, k)
    with pytest.raises(PreconditionError):
        power_residue_histogram.__wrapped__(5, -1, units_only)
