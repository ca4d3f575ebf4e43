import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waringtk.convolve import (
    NTT_PRIMES,
    _SCHOOLBOOK_CAP,
    _bit_reverse,
    _ntt,
    _pow_table,
    convolution_power,
    cyclic_convolve,
    cyclic_power,
    exact_convolve,
    float_convolve,
    schoolbook_convolve,
)

vec = st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=300)


@given(vec, vec)
@settings(max_examples=60, deadline=None)
def test_exact_matches_schoolbook(a, b):
    assert exact_convolve(a, b) == schoolbook_convolve(a, b)


def test_ntt_path_matches_schoolbook_long():
    rng = np.random.default_rng(5)
    a = rng.integers(0, 10**9, 2048).tolist()
    b = rng.integers(0, 10**9, 2048).tolist()
    # 2048*2048 > 2^17 forces the NTT path
    assert exact_convolve(a, b) == schoolbook_convolve(a, b)


def test_huge_entries_escalate_prime_count():
    a = [10**30, 10**31] * 300
    b = [10**30, 1] * 300
    assert exact_convolve(a, b) == schoolbook_convolve(a, b)


@given(vec.filter(lambda v: len(v) >= 2))
@settings(max_examples=30, deadline=None)
def test_cyclic_is_folded_linear(a):
    m = len(a)
    lin = schoolbook_convolve(a, a)
    folded = [0] * m
    for i, v in enumerate(lin):
        folded[i % m] += v
    assert cyclic_convolve(a, a, m) == folded


def test_convolution_power_matches_repeats():
    base = [0, 1, 0, 0, 1, 1]
    trunc = 20
    by_power = convolution_power(base, 4, trunc)
    acc = base
    for _ in range(3):
        acc = exact_convolve(acc, base, trunc=trunc)
    acc = acc + [0] * (trunc - len(acc))
    assert by_power == acc


def test_cyclic_power_mass():
    base = [3, 1, 4, 1, 5]
    out = cyclic_power(base, 3, 5)
    assert sum(out) == sum(base) ** 3


def test_truncation_is_exact_prefix():
    a = list(range(1, 50))
    full = exact_convolve(a, a)
    assert exact_convolve(a, a, trunc=10) == full[:10]


def test_float_convolve_matches_exact():
    rng = np.random.default_rng(1)
    a = rng.integers(0, 1000, 300).tolist()
    b = rng.integers(0, 1000, 300).tolist()
    got = float_convolve(np.array(a, float), np.array(b, float))
    want = np.array(schoolbook_convolve(a, b), float)
    assert np.allclose(got, want, rtol=1e-12, atol=1e-6)


def test_empty_inputs():
    assert exact_convolve([], [1, 2]) == []


@pytest.mark.parametrize("t", [1, 2, 3, 7])
def test_power_mass_conservation(t):
    base = [1, 2, 0, 3]
    out = convolution_power(base, t, trunc=len(base) * t)
    # truncation keeps the full support here, so mass multiplies exactly
    assert sum(out) == sum(base) ** t


# lengths of at least 400 put len(a) * len(b) above _SCHOOLBOOK_CAP, so
# every example below runs the NTT + CRT path; 2^70 entries are beyond
# int64 and take the per-entry residue conversion
def _vector(rng: random.Random, length: int, bits: int) -> list[int]:
    return [rng.getrandbits(bits) if bits else 0 for _ in range(length)]


@given(
    st.integers(min_value=0, max_value=2**32),
    st.integers(min_value=400, max_value=700),
    st.integers(min_value=400, max_value=700),
    st.sampled_from([0, 1, 20, 40, 70]),
    st.sampled_from([1, 20, 40, 70]),
    st.one_of(st.none(), st.integers(min_value=1, max_value=1500)),
)
@settings(max_examples=25, deadline=None)
def test_ntt_path_matches_schoolbook(seed, len_a, len_b, bits_a, bits_b, trunc):
    assert 400 * 400 > _SCHOOLBOOK_CAP
    rng = random.Random(seed)
    a, b = _vector(rng, len_a, bits_a), _vector(rng, len_b, bits_b)
    want = schoolbook_convolve(a, b)
    assert exact_convolve(a, b) == want
    assert exact_convolve(a, b, trunc=trunc) == want[:trunc]
    # a square passes the same object twice and skips one forward transform
    assert exact_convolve(a, a, trunc=trunc) == schoolbook_convolve(a, a)[:trunc]


@pytest.mark.parametrize("k", range(13))
def test_bit_reverse_matches_naive(k):
    n = 1 << k
    naive = [int(format(i, f"0{k}b")[::-1], 2) if k else 0 for i in range(n)]
    assert _bit_reverse(n).tolist() == naive


@pytest.mark.parametrize("p, g", NTT_PRIMES)
def test_pow_table_matches_naive(p, g):
    base = pow(g, (p - 1) >> 12, p)  # a 2^12-th root of unity
    naive = [pow(base, j, p) for j in range(1 << 12)]
    assert _pow_table(base, 0, p).tolist() == []
    for length in range(1, (1 << 12) + 1):
        assert _pow_table(base, length, p).tolist() == naive[:length]


@pytest.mark.parametrize("p, g", NTT_PRIMES)
@pytest.mark.parametrize("k", [1, 2, 3, 5, 6])
def test_ntt_matches_naive_dft(p, g, k):
    """The lazily reduced butterflies give the exact DFT mod p, also for
    entries p - 1, where the unreduced sums are largest."""
    n = 1 << k
    w = pow(g, (p - 1) // n, p)
    rng = random.Random(k)
    for a in ([p - 1] * n, [rng.randrange(p) for _ in range(n)]):
        naive = [sum(x * pow(w, i * j, p) for j, x in enumerate(a)) % p for i in range(n)]
        assert _ntt(np.array(a, dtype=np.int64), p, g, invert=False).tolist() == naive
        back = _ntt(np.array(naive, dtype=np.int64), p, g, invert=True)
        assert (back * pow(n, p - 2, p) % p).tolist() == a
