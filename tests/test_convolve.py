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
    """Outputs of about 2^200 need a modulus past 2^63: Garner takes its
    Python-int pass."""
    a = [10**30, 10**31] * 300
    b = [10**30, 1] * 300
    moduli = []
    real = convolve._garner

    def spy(rows, primes):
        moduli.append(math.prod(primes))
        return real(rows, primes)

    with mock.patch.object(convolve, "_garner", spy):
        assert exact_convolve(a, b) == schoolbook_convolve(a, b)
    assert len(moduli) == 1 and moduli[0] >= 1 << 63


def test_cauchy_schwarz_bound_drops_a_prime():
    """Ten spikes of 10 s over a floor of s: the bound sum(a) * max(b) is
    past 2^63 and needs three primes, sqrt(sum(a^2) * sum(b^2)) is below
    the product of the first two, and the entries fit in int64."""
    s = 34_641_016
    a = [10 * s if i % 100 == 0 else s for i in range(1000)]
    b = a[50:] + a[:50]
    old_bound = min(sum(a) * max(b), sum(b) * max(a)) + 1
    cs_bound = math.isqrt(sum(x * x for x in a) * sum(x * x for x in b)) + 1
    two = NTT_PRIMES[0][0] * NTT_PRIMES[1][0]
    assert old_bound > 1 << 63 and cs_bound <= two
    primes = []
    real = convolve._ntt

    def spy(arr, p, g, invert):
        primes.append(p)
        return real(arr, p, g, invert)

    with mock.patch.object(convolve, "_ntt", spy):
        assert exact_convolve(a, b) == schoolbook_convolve(a, b)
    assert sorted(set(primes)) == sorted(p for p, _ in NTT_PRIMES[:2])
    assert len(primes) == 6  # two forward transforms and one inverse per prime
    # the bound is tight: the square of a flat vector peaks at sum(a^2),
    # here just past the first prime, so it takes two (a zero crossover
    # weight sends this product, bound below 2^63, to the NTT)
    flat = [1450] * 1000
    assert NTT_PRIMES[0][0] < sum(x * x for x in flat) < 2 * NTT_PRIMES[0][0]
    del primes[:]
    with mock.patch.object(convolve, "_ntt", spy), mock.patch.object(convolve, "_NTT_COST", 0):
        assert exact_convolve(flat, flat) == schoolbook_convolve(flat, flat)
    assert len(set(primes)) == 2


def _squares_summing_to(total, length):
    """A vector of the given length whose squares sum to total (greedy,
    zero-padded)."""
    out = []
    while total:
        out.append(math.isqrt(total))
        total -= out[-1] ** 2
    return out + [0] * (length - len(out))


@pytest.mark.parametrize("offset", [0, 1])
@pytest.mark.parametrize("count", [1, 2])
def test_cauchy_schwarz_primes_at_the_moduli(count, offset):
    """A square whose sum of squares S sits at the product of the first
    count primes (S + 1 is that product, or one past it): the primes are
    those of min(bound, isqrt(S^2) + 1), taken from the exact sums."""
    modulus = math.prod(p for p, _ in NTT_PRIMES[:count])
    a = _squares_summing_to(modulus - 1 + offset, 400)
    want = count + offset
    primes, sums = [], []
    real_ntt, real_sum = convolve._ntt, convolve._square_sum

    def ntt_spy(arr, p, g, invert):
        primes.append(p)
        return real_ntt(arr, p, g, invert)

    def sum_spy(arr):
        sums.append(len(arr))
        return real_sum(arr)

    with (
        mock.patch.object(convolve, "_ntt", ntt_spy),
        mock.patch.object(convolve, "_square_sum", sum_spy),
        mock.patch.object(convolve, "_NTT_COST", 0),
    ):
        assert exact_convolve(a, a) == schoolbook_convolve(a, a)
    assert sorted(set(primes)) == sorted(p for p, _ in NTT_PRIMES[:want])
    assert sums == [400]  # the estimate saves a prime on the bound, so the exact sum is taken


def test_cauchy_schwarz_sums_skipped_when_no_prime_drops():
    """Dense entries below 10^6: the bound and the Cauchy-Schwarz bound
    both need two primes, so the exact sums of squares are not taken."""
    rng = np.random.default_rng(11)
    a = rng.integers(0, 10**6, 1000).tolist()
    b = rng.integers(0, 10**6, 1000).tolist()
    bound = min(sum(a) * max(b), sum(b) * max(a)) + 1
    cs_bound = math.isqrt(sum(x * x for x in a) * sum(x * x for x in b)) + 1
    assert convolve._prime_count(bound) == convolve._prime_count(cs_bound) == 2
    primes = []
    real = convolve._ntt

    def spy(arr, p, g, invert):
        primes.append(p)
        return real(arr, p, g, invert)

    def no_sum(arr):
        raise AssertionError("exact sums of squares taken where no prime drops")

    with (
        mock.patch.object(convolve, "_ntt", spy),
        mock.patch.object(convolve, "_square_sum", no_sum),
        mock.patch.object(convolve, "_NTT_COST", 0),
    ):
        assert exact_convolve(a, b) == schoolbook_convolve(a, b)
    assert sorted(set(primes)) == sorted(p for p, _ in NTT_PRIMES[:2])


@given(
    st.integers(min_value=0, max_value=2**32),
    st.integers(min_value=1, max_value=2000),
    st.integers(min_value=1, max_value=120),
    st.integers(min_value=1, max_value=120),
)
@settings(max_examples=60, deadline=None)
def test_cauchy_schwarz_estimate_is_a_lower_bound(seed, length, bits_a, bits_b):
    rng = random.Random(seed)
    a = [rng.getrandbits(rng.randint(0, bits_a)) for _ in range(length)]
    b = [rng.getrandbits(rng.randint(0, bits_b)) for _ in range(rng.randint(1, length))]
    exact = math.isqrt(sum(x * x for x in a) * sum(x * x for x in b))
    arr_a, arr_b = convolve.count_array(a), convolve.count_array(b)
    assert convolve._cauchy_schwarz_estimate(arr_a, arr_b) <= exact + 1
    assert convolve._cauchy_schwarz_estimate(arr_a, arr_a) <= sum(x * x for x in a)


@given(vec.filter(lambda v: len(v) >= 2))
@settings(max_examples=30, deadline=None)
def test_cyclic_is_folded_linear(a):
    m = len(a)
    lin = schoolbook_convolve(a, a)
    folded = [0] * m
    for i, v in enumerate(lin):
        folded[i % m] += v
    assert cyclic_convolve(a, a, m).tolist() == folded


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
            assert cyclic_power(base, t, m).tolist() == list(cyc), (base, t)
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
    assert sum(out.tolist()) == sum(base) ** 3


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
@pytest.mark.parametrize("k", range(1, 9))
def test_ntt_matches_naive_dft(p, g, k):
    """The lazily reduced butterflies give the exact DFT mod p, also for
    entries p - 1, where the unreduced sums are largest; k = 1 ... 8 runs
    the stages of size 2 to 16 as column loops and the later ones on rows."""
    n = 1 << k
    w = pow(g, (p - 1) // n, p)
    powers = [pow(w, j, p) for j in range(n)]
    rng = random.Random(k)
    for a in ([p - 1] * n, [rng.randrange(p) for _ in range(n)]):
        naive = [sum(x * powers[i * j % n] for j, x in enumerate(a)) % p for i in range(n)]
        assert _ntt(np.array(a, dtype=np.int64), p, g, invert=False).tolist() == naive
        back = _ntt(np.array(naive, dtype=np.int64), p, g, invert=True)
        assert (back * pow(n, p - 2, p) % p).tolist() == a


@pytest.mark.parametrize("p, g", NTT_PRIMES)
def test_mod_matches_remainder(p, g):
    """_mod's floor division equals % on the values the butterflies
    reduce: sums in (-2p, 3p), products of an entry in (-p, 2p) and a
    twiddle in [0, p), so in (-p^2, 2p^2), and entries p - 1."""
    rng = np.random.default_rng(p)
    edges = [-2 * p + 1, -p, -1, 0, 1, p - 1, p, 2 * p - 1, 3 * p - 1, -p * p + 1, 2 * p * p - 1, (p - 1) ** 2]
    x = np.concatenate(
        [
            np.array(edges, dtype=np.int64),
            rng.integers(-2 * p + 1, 3 * p, 10_000),
            rng.integers(-p * p + 1, 2 * p * p, 10_000),
            rng.integers(-p + 1, 2 * p, 10_000) * (p - 1),
        ]
    )
    want = (x % p).tolist()
    assert convolve._mod(x.copy(), p).tolist() == want
    assert convolve._mod(x.copy(), p, np.empty_like(x)).tolist() == want


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
        assert cyclic_convolve(a, b, m).tolist() == folded, m


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


@given(
    st.integers(min_value=0, max_value=2**32),
    st.integers(min_value=400, max_value=700),
    st.sampled_from(["small", "past 2^62", "object"]),
    st.integers(min_value=1, max_value=1399),
)
@example(0, 600, "past 2^62", 683)  # the largest keep whose product fits 2^10 points
@example(0, 600, "past 2^62", 684)  # one more needs 2^11, the size of the full square
@settings(max_examples=20, deadline=None)
def test_truncated_square_on_half_size_transforms(seed, length, entries, keep):
    """A square kept to keep entries runs as a0 (a0 + 2 x^half a1) on
    3 transforms per prime of next_pow2(half + keep - 1) points whenever
    that is below next_pow2(2 len - 1), else as 2 transforms at full size.
    Entries past 2^62 would wrap int64 if a1 were doubled before the
    reduction; entries past 2^63 make an object array."""
    rng = random.Random(seed)
    low = {"small": 0, "past 2^62": 1 << 62, "object": 1 << 70}[entries]
    a = [low + rng.getrandbits(30 if entries == "small" else 62) for _ in range(length)]
    keep = min(keep, 2 * length - 1)
    calls = []
    real = convolve._ntt

    def spy(arr, p, g, invert):
        calls.append((arr.shape[0], p))
        return real(arr, p, g, invert)

    with mock.patch.object(convolve, "_NTT_COST", 0), mock.patch.object(convolve, "_ntt", spy):
        assert exact_convolve(a, a, trunc=keep) == schoolbook_convolve(a, a)[:keep]
    full, half = 1 << (2 * length - 2).bit_length(), (keep + 1) // 2
    short = 1 << (half + keep - 2).bit_length()
    primes = {p for _, p in calls}
    if keep < 2 * length - 1 and short < full:
        assert {size for size, _ in calls} == {short} and len(calls) == 3 * len(primes)
    else:
        assert {size for size, _ in calls} == {full} and len(calls) == 2 * len(primes)


def test_negative_trunc_is_a_precondition_error():
    with pytest.raises(PreconditionError):
        exact_convolve([1, 2], [3, 4], trunc=-1)
    with pytest.raises(PreconditionError):
        convolution_power([1, 2], 2, trunc=-1)
