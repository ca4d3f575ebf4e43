import contextlib
import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from waringtk import convolve
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
from waringtk.errors import PreconditionError

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
    """Every t = 1 ... 12 against repeated products with the base, for the
    truncated linear power and the cyclic one; the second base reaches
    entries past 2^63, kept exactly in an object array."""
    for base in ([0, 1, 0, 0, 1, 1], [2**40, 0, 3, 2**20]):
        m = len(base)
        for t in range(1, 13):
            for trunc in (1, 7, 20, 70):
                acc = base
                for _ in range(t - 1):
                    acc = exact_convolve(acc, base, trunc=trunc)
                acc = acc[:trunc] + [0] * (trunc - len(acc))
                assert convolution_power(base, t, trunc).tolist() == acc, (base, t, trunc)
            cyc = base
            for _ in range(t - 1):
                cyc = cyclic_convolve(cyc, base, m)
            assert cyclic_power(base, t, m) == cyc, (base, t)
    assert convolution_power([2**40, 1], 2, 3).dtype == object
    assert convolution_power([2**20, 1], 2, 3).dtype == np.int64


def test_powering_is_left_to_right():
    """Every product is a square (the same object twice) or has the base as
    an operand, and t takes floor(log2 t) + popcount(t) - 1 of them."""
    base = [1]
    for t in range(1, 17):
        calls = []

        def mul(a, b):
            calls.append((a, b))
            return [a[0] + b[0]]

        assert convolve._binary_power(base, t, mul) == [t]
        assert all(a is b or base is a or base is b for a, b in calls)
        assert len(calls) == t.bit_length() - 1 + bin(t).count("1") - 1

    products = []
    real = convolve._product

    def spy(a, b, trunc):
        products.append((a, b))
        return real(a, b, trunc)

    with mock.patch.object(convolve, "_product", spy):
        convolution_power([0, 1, 1, 0, 1], 13, trunc=40)
    first = products[0][0]
    assert len(products) == 5
    assert all(a is b or first is a or first is b for a, b in products)


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
    assert convolution_power([], 3, trunc=4).tolist() == [0, 0, 0, 0]


def test_short_product_beyond_the_crt_capacity():
    """A short product goes to the schoolbook whatever its bound, also past
    the product of all NTT primes."""
    a, b = [2**300, 1], [2**300]
    assert exact_convolve(a, b) == schoolbook_convolve(a, b)


@pytest.mark.parametrize("t", [1, 2, 3, 7])
def test_power_mass_conservation(t):
    base = [1, 2, 0, 3]
    out = convolution_power(base, t, trunc=len(base) * t)
    # truncation keeps the full support here, so mass multiplies exactly
    assert sum(out) == sum(base) ** t


def _vector(rng: random.Random, length: int, bits: int) -> list[int]:
    return [rng.getrandbits(bits) if bits else 0 for _ in range(length)]


@contextlib.contextmanager
def _kernel(name: str):
    """Send every long product to one kernel, by setting the dispatch's
    crossover weight to an extreme (the direct kernel still leaves the
    products with an output bound of 2^63 or more to the NTT); yields the
    list of _ntt calls made."""
    calls = []
    real = convolve._ntt

    def spy(*args, **kwargs):
        calls.append(args[0].shape[0])
        return real(*args, **kwargs)

    weight = {"ntt": 0, "direct": 10**30}[name]
    with mock.patch.object(convolve, "_NTT_COST", weight), mock.patch.object(convolve, "_ntt", spy):
        yield calls


# lengths of at least 400 put len(a) * len(b) above _SCHOOLBOOK_CAP, so
# every example below is a long product, sent to the NTT + CRT kernel;
# 2^70 entries are beyond int64 and take the per-entry residue conversion


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
    with _kernel("ntt") as ntt_calls:
        assert exact_convolve(a, b) == want
        assert exact_convolve(a, b, trunc=trunc) == want[:trunc]
        # a square passes the same object twice and skips one forward transform
        assert exact_convolve(a, a, trunc=trunc) == schoolbook_convolve(a, a)[:trunc]
    # all-zero operands need no prime, so only they skip the transforms
    assert bool(ntt_calls) == any(a)


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


@st.composite
def _sparse(draw, max_len: int) -> list[int]:
    """A vector of up to max_len entries with at most 10 nonzeros."""
    length = draw(st.integers(min_value=1, max_value=max_len))
    bits = draw(st.sampled_from([1, 20, 30, 40, 70]))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    out = [0] * length
    for i in draw(st.lists(st.integers(min_value=0, max_value=length - 1), max_size=10)):
        out[i] = rng.getrandbits(bits) | 1
    return out


@st.composite
def _dense(draw, max_len: int) -> list[int]:
    length = draw(st.integers(min_value=1, max_value=max_len))
    bits = draw(st.sampled_from([1, 20, 30, 40, 70]))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    return _vector(rng, length, bits)


def _wide_and_long(a: list[int], b: list[int]) -> bool:
    """The product's output bound is 2^63 or more and it is not short:
    the one kind of product the direct kernel leaves to the NTT."""
    bound = min(sum(a) * max(b), sum(b) * max(a)) + 1
    return bound > 1 << 63 and len(a) * len(b) > _SCHOOLBOOK_CAP


# a dense operand (up to 600 entries) beside a long sparse one gives
# shifted rows, two sparse ones give the outer product; entries of 30
# bits and more put some output bounds at 2^63 or above, where a short
# product goes to the schoolbook and a long one to the NTT kernel
@given(
    _sparse(200_000),
    st.one_of(_sparse(200_000), _dense(600)),
    st.one_of(st.none(), st.integers(min_value=0, max_value=400_000)),
)
@example([0] * 150_000, [0] * 1000, None)
@example([0] * 150_000, [3] + [0] * 149_999, 7)
@example([2**62, 2**62], [3], None)  # sum(a) and the output just past int64
@example([0] * 1000 + [2**30 - 1] * 8, [2**30 - 1] * 600, None)  # 8 overlapping rows, bound just below 2^63
@example([0] * 1000 + [2**70 - 1] * 8, [2**70 - 1] * 600, None)  # the same beyond int64: the NTT
@settings(max_examples=25, deadline=None)
def test_direct_path_matches_schoolbook(a, b, trunc):
    want = schoolbook_convolve(a, b)
    with _kernel("direct") as ntt_calls:
        assert exact_convolve(a, b) == want
        assert exact_convolve(a, b, trunc=trunc) == want[:trunc]
        assert exact_convolve(a, a, trunc=trunc) == schoolbook_convolve(a, a)[:trunc]
    assert bool(ntt_calls) == (_wide_and_long(a, b) or _wide_and_long(a, a))


def test_garner_result_is_int64_exactly_when_entries_fit():
    """Output bounds just past 2^63 take three CRT primes; the result stays
    int64 when every entry fits and turns object when one reaches 2^63."""
    a = [2**40] + [0] * 998 + [2**40]  # the two rows never overlap
    for top, dtype in ((2**22, np.int64), (2**23, object)):
        b = [2**22] * 499 + [top]
        out = convolve._product(np.array(a), np.array(b), None)
        assert out.dtype == dtype
        assert out.tolist() == schoolbook_convolve(a, b)


def test_cyclic_matches_folded_schoolbook():
    """Every length 1 ... 400: short products (the direct kernel, or the
    schoolbook for output bounds of 2^63 and more) and, from m = 363 on,
    long ones. Then three products whose linear entries fit int64 while a
    folded sum does not: a short one (the schoolbook, from a bound past
    2^63), a short one with negative entries, and a long one through
    Garner."""
    rng = random.Random(400)
    cases = []
    for m in range(1, 401):
        bits = (1, 20, 40, 70)[m % 4]
        cases.append((_vector(rng, m, bits), _vector(rng, m, bits), m))
    p = 3037000499  # p^2 < 2^63 <= 2 p^2
    cases += [
        ([p, p, 0], [p, 0, p], 3),
        ([-p, p, 0], [p, 0, -p], 3),
        ([p, p] + [0] * 398, [p] + [0] * 398 + [p], 400),
    ]
    for a, b, m in cases:
        folded = [0] * m
        for i, v in enumerate(schoolbook_convolve(a, b)):
            folded[i % m] += v
        assert cyclic_convolve(a, b, m) == folded, m


def test_sparse_square_skips_the_ntt(monkeypatch):
    """The squares up to 2e5 have 447 nonzeros: their square is an outer
    product of 447 x 447 pairs, far below a 2^19-point transform."""
    n = 200_000
    squares = [0] * (n + 1)
    for x in range(math.isqrt(n) + 1):
        squares[x * x] = 1
    want = [0] * (n + 1)
    for x in range(math.isqrt(n) + 1):
        for y in range(math.isqrt(n - x * x) + 1):
            want[x * x + y * y] += 1

    def no_ntt(*args, **kwargs):
        raise AssertionError("_ntt called for a sparse square")

    monkeypatch.setattr(convolve, "_ntt", no_ntt)
    assert exact_convolve(squares, squares, trunc=n + 1) == want
    assert convolution_power(squares, 2, n + 1).tolist() == want


def test_negative_trunc_is_a_precondition_error():
    with pytest.raises(PreconditionError):
        exact_convolve([1, 2], [3, 4], trunc=-1)
    with pytest.raises(PreconditionError):
        convolution_power([1, 2], 2, trunc=-1)
