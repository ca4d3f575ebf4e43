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
    _SCHOOLBOOK_CAP,
    convolution_power,
    cyclic_convolve,
    cyclic_power,
    exact_product,
    float_convolve,
    schoolbook_convolve,
)
from waringtk.errors import PreconditionError

vec = st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=300)


def exact_list(a, b, trunc=None):
    return exact_product(a, b, trunc).tolist()


@given(vec, vec)
@settings(max_examples=60, deadline=None)
def test_exact_matches_schoolbook(a, b):
    assert exact_list(a, b) == schoolbook_convolve(a, b)


def test_fft_path_matches_schoolbook_long():
    rng = np.random.default_rng(5)
    a = rng.integers(0, 10**9, 2048).tolist()
    b = rng.integers(0, 10**9, 2048).tolist()
    # 2048*2048 > 2^17 and the dense rows send it to the FFT kernel
    assert exact_list(a, b) == schoolbook_convolve(a, b)


def test_huge_entries_split_into_int64_words():
    """Outputs of about 2^200 go to the FFT kernel, which splits the object
    operands into int64 words and joins its output words in one
    Python-int pass."""
    a = [10**30, 10**31] * 300
    b = [10**30, 1] * 300
    bounds = []
    real = convolve._fft_product

    def spy(arr_a, arr_b, keep, bound, plan):
        bounds.append(bound)
        return real(arr_a, arr_b, keep, bound, plan)

    with mock.patch.object(convolve, "_fft_product", spy):
        assert exact_list(a, b) == schoolbook_convolve(a, b)
    assert len(bounds) == 1 and bounds[0] >= 1 << 63


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
                    acc = exact_list(acc, base, trunc=trunc)
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
    full = exact_list(a, a)
    assert exact_list(a, a, trunc=10) == full[:10]


def test_float_convolve_matches_exact():
    rng = np.random.default_rng(1)
    a = rng.integers(0, 1000, 300).tolist()
    b = rng.integers(0, 1000, 300).tolist()
    got = float_convolve(np.array(a, float), np.array(b, float))
    want = np.array(schoolbook_convolve(a, b), float)
    assert np.allclose(got, want, rtol=1e-12, atol=1e-6)


def test_empty_inputs():
    assert exact_list([], [1, 2]) == []
    assert convolution_power([], 3, trunc=4).tolist() == [0, 0, 0, 0]


def test_short_product_beyond_int64():
    """A short product whose output bound passes 2^63 runs on object
    arrays, here past 2^600."""
    a, b = [2**300, 1], [2**300]
    assert exact_list(a, b) == schoolbook_convolve(a, b)


def test_uint64_counts_past_int64_stay_exact():
    """A uint64 entry at or past 2^63 becomes a Python int, not a wrapped
    negative int64; smaller uint64 counts become int64."""
    big = np.array([2**63 + 5, 1], dtype=np.uint64)
    arr = convolve.count_array(big)
    assert arr.dtype == object and arr.tolist() == [2**63 + 5, 1]
    assert exact_list(np.array([3], dtype=np.uint64), big) == [3 * (2**63 + 5), 3]
    small = convolve.count_array(np.array([2**63 - 1, 0], dtype=np.uint64))
    assert small.dtype == np.int64 and small.tolist() == [2**63 - 1, 0]
    assert convolve.count_array(np.array([], dtype=np.uint64)).dtype == np.int64


@pytest.mark.parametrize(
    "a, b, object_calls",
    [
        ([2**62, 2**62 - 1], [1, 1], 0),  # bound min(sum(a) max(b), sum(b) max(a)) = 2^63 - 1
        ([2**62, 2**62], [1, 1], 1),  # bound 2^63: past int64
        ([math.isqrt((2**63 - 1) // 300)] * 300, None, 0),  # a dense square just below 2^63
    ],
)
def test_short_product_on_np_convolve_up_to_the_int64_bound(a, b, object_calls):
    """A short product runs on np.convolve in int64 while its output bound
    is at most 2^63 - 1 and on object arrays from 2^63 on; it is int64
    exactly when every entry fits."""
    b = a if b is None else b
    dtypes = []
    real = np.convolve

    def spy(x, y, *args):
        dtypes.append((x.dtype, y.dtype))
        return real(x, y, *args)

    with mock.patch.object(convolve.np, "convolve", spy):
        out = convolve.exact_product(a, b)
    want = schoolbook_convolve(a, b)
    assert dtypes == [(np.dtype(object if object_calls else np.int64),) * 2]
    assert out.tolist() == want
    assert out.dtype == (np.int64 if max(want) < 1 << 63 else object)


class _CountedSpectrum(np.ndarray):
    """A limb spectrum that counts the products formed from it."""

    products = 0

    def __mul__(self, other):
        _CountedSpectrum.products += 1
        return np.multiply(np.asarray(self), np.asarray(other)).view(_CountedSpectrum)


@pytest.mark.parametrize("limbs, pairs", [(3, 6), (6, 21)])
def test_square_forms_each_limb_pair_once(limbs, pairs):
    """A square forms limbs (limbs + 1) / 2 limb-pair spectra instead of
    limbs^2, and its output limbs equal those of the product of two equal
    operands."""
    rng = np.random.default_rng(limbs)
    size, keep = 64, 60
    fa = [np.fft.rfft(rng.integers(0, 2**9, 30).astype(np.float64), size).view(_CountedSpectrum) for _ in range(limbs)]
    _CountedSpectrum.products = 0
    square = [convolve._output_limb(fa, fa, k, size, keep) for k in range(2 * limbs - 1)]
    assert _CountedSpectrum.products == pairs
    product = [convolve._output_limb(fa, list(fa), k, size, keep) for k in range(2 * limbs - 1)]
    assert _CountedSpectrum.products == pairs + limbs**2
    for got, want in zip(square, product):
        assert got.tolist() == want.tolist()


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
    products with an output bound of 2^63 or more to the FFT kernel);
    yields the list of kept lengths of the FFT kernel's calls."""
    calls = []
    real = convolve._fft_product

    def spy(a, b, keep, bound, plan):
        calls.append(keep)
        return real(a, b, keep, bound, plan)

    weight = {"fft": 0, "direct": 10**30}[name]
    with mock.patch.object(convolve, "_FFT_COST", weight), mock.patch.object(convolve, "_fft_product", spy):
        yield calls


def _kronecker(a: list[int], b: list[int]) -> list[int]:
    """a*b by one Python-int multiply (Kronecker substitution): each vector
    is packed into one int in byte slots wider than any output entry."""
    slot = (max(a) * max(b) * min(len(a), len(b))).bit_length() // 8 + 1

    def pack(v):
        return int.from_bytes(b"".join(x.to_bytes(slot, "little") for x in v), "little")

    raw = (pack(a) * pack(b)).to_bytes(slot * (len(a) + len(b)), "little")
    return [int.from_bytes(raw[slot * i : slot * (i + 1)], "little") for i in range(len(a) + len(b) - 1)]


# lengths of at least 400 put len(a) * len(b) above _SCHOOLBOOK_CAP, so
# every example below is a long product, sent to the FFT kernel; 2^70
# entries are beyond int64 and are cut into int64 words first


@given(
    st.integers(min_value=0, max_value=2**32),
    st.integers(min_value=400, max_value=700),
    st.integers(min_value=400, max_value=700),
    st.sampled_from([0, 1, 20, 40, 70]),
    st.sampled_from([1, 20, 40, 70]),
    st.one_of(st.none(), st.integers(min_value=1, max_value=1500)),
)
@settings(max_examples=25, deadline=None)
def test_fft_path_matches_schoolbook(seed, len_a, len_b, bits_a, bits_b, trunc):
    assert 400 * 400 > _SCHOOLBOOK_CAP
    rng = random.Random(seed)
    a, b = _vector(rng, len_a, bits_a), _vector(rng, len_b, bits_b)
    want = schoolbook_convolve(a, b)
    with _kernel("fft") as fft_calls:
        assert exact_list(a, b) == want
        assert exact_list(a, b, trunc=trunc) == want[:trunc]
        # a square passes the same object twice and takes one set of forward transforms
        assert exact_list(a, a, trunc=trunc) == schoolbook_convolve(a, a)[:trunc]
    # the direct kernel's work on an all-zero operand is 0, so only it skips the transforms
    assert bool(fft_calls) == any(a)


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
    the one kind of product the direct kernel leaves to the FFT kernel."""
    if not a or not b:
        return False
    bound = min(sum(a) * max(b), sum(b) * max(a)) + 1
    return bound > 1 << 63 and len(a) * len(b) > _SCHOOLBOOK_CAP


# a dense operand (up to 600 entries) beside a long sparse one gives
# shifted rows, two sparse ones give the outer product; entries of 30
# bits and more put some output bounds at 2^63 or above, where a short
# product goes to the schoolbook and a long one to the FFT kernel
@given(
    _sparse(200_000),
    st.one_of(_sparse(200_000), _dense(600)),
    st.one_of(st.none(), st.integers(min_value=0, max_value=400_000)),
)
@example([0] * 150_000, [0] * 1000, None)
@example([0] * 150_000, [3] + [0] * 149_999, 7)
@example([2**62, 2**62], [3], None)  # sum(a) and the output just past int64
@example([0] * 1000 + [2**30 - 1] * 8, [2**30 - 1] * 600, None)  # 8 overlapping rows, bound just below 2^63
@example([0] * 1000 + [2**70 - 1] * 8, [2**70 - 1] * 600, None)  # the same beyond int64: the FFT kernel
@example([2**70 - 1] * 600, [2**70 - 1] * 600, 0)  # kept to no entry, or to one: a short product
@example([2**70 - 1] * 600, [2**70 - 1] * 600, 1)
@example([2**40] + [0] * 999 + [2**40], [1], 0)  # a wide, long square kept to no entry
@settings(max_examples=25, deadline=None)
def test_direct_path_matches_schoolbook(a, b, trunc):
    want = schoolbook_convolve(a, b)
    with _kernel("direct") as fft_calls:
        assert exact_list(a, b) == want
        assert exact_list(a, b, trunc=trunc) == want[:trunc]
        assert exact_list(a, a, trunc=trunc) == schoolbook_convolve(a, a)[:trunc]
    # a product kept to trunc entries is routed on its operands' first trunc
    # entries; the truncated a * b is wide and long only if the full one is
    assert bool(fft_calls) == (_wide_and_long(a, b) or _wide_and_long(a[:trunc], a[:trunc]))


def test_fft_result_is_int64_exactly_when_entries_fit():
    """Output bounds just past 2^63 send a long product to the FFT kernel's
    output words; the result stays int64 when every entry fits and turns
    object when one reaches 2^63."""
    a = [2**40] + [0] * 998 + [2**40]  # the two rows never overlap
    for top, dtype in ((2**22, np.int64), (2**23, object)):
        b = [2**22] * 499 + [top]
        out = convolve._product(np.array(a), np.array(b), None)
        assert out.dtype == dtype
        assert out.tolist() == schoolbook_convolve(a, b)


_NTT_PRIMES = (2013265921, 1811939329, 469762049, 2113929217, 1711276033, 167772161, 754974721, 998244353)
# each prime of _NTT_PRIMES with a generator of its multiplicative group
_NTT_ROOTS = tuple(zip(_NTT_PRIMES, (31, 13, 3, 5, 29, 3, 11, 3)))


@pytest.mark.parametrize("p, g", _NTT_ROOTS)
@pytest.mark.parametrize("k", range(1, 9))
def test_ntt_matches_naive_dft(p, g, k):
    """The FFT kernel's product agrees mod p with the convolution theorem
    of the naive number-theoretic DFT of n = 2^k points: folded mod x^n
    and reduced mod p, a*b is the inverse DFT of the pointwise product of
    the DFTs of a and b. Entries p - 1 (outputs past 2^63 from k = 2 on,
    joined in Python ints) as a square, and random residues as two
    operands."""
    n = 1 << k
    w = pow(g, (p - 1) // n, p)
    assert pow(w, n // 2, p) == p - 1  # a primitive n-th root of unity
    powers = [pow(w, j, p) for j in range(n)]

    def dft(v, sign):
        return [sum(x * powers[sign * i * j % n] for j, x in enumerate(v)) % p for i in range(n)]

    rng = random.Random(k)
    full = np.array([p - 1] * n, dtype=np.int64)
    pair = [np.array([rng.randrange(p) for _ in range(n)], dtype=np.int64) for _ in range(2)]
    for a, b in ((full, full), pair):
        la, lb = a.tolist(), b.tolist()
        bound = min(sum(la) * max(lb), sum(lb) * max(la)) + 1
        plan = convolve._fft_plan(n, n, max(1, max(la).bit_length()), max(1, max(lb).bit_length()))
        out = convolve._fft_product(a, b, 2 * n - 1, bound, plan).tolist()
        assert out == schoolbook_convolve(la, lb)
        folded = [0] * n
        for i, v in enumerate(out):
            folded[i % n] += v
        spectrum = [x * y % p for x, y in zip(dft(la, 1), dft(lb, 1))]
        inverse = pow(n, p - 2, p)
        assert [v % p for v in folded] == [x * inverse % p for x in dft(spectrum, -1)]


def test_cyclic_matches_folded_schoolbook():
    """Every length 1 ... 400: short products (the direct kernel, or the
    schoolbook for output bounds of 2^63 and more) and, from m = 363 on,
    long ones. Then three products whose linear entries fit int64 while a
    folded sum does not: a short one (the schoolbook, from a bound past
    2^63), a short one with negative entries, and a long one through the
    FFT kernel's output words."""
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


def test_sparse_square_skips_the_fft(monkeypatch):
    """The squares up to 2e5 have 447 nonzeros: their square is an outer
    product of 447 x 447 pairs, far below the FFT kernel's transforms of
    4e5 points."""
    n = 200_000
    squares = [0] * (n + 1)
    for x in range(math.isqrt(n) + 1):
        squares[x * x] = 1
    want = [0] * (n + 1)
    for x in range(math.isqrt(n) + 1):
        for y in range(math.isqrt(n - x * x) + 1):
            want[x * x + y * y] += 1

    def no_fft(*args, **kwargs):
        raise AssertionError("the FFT kernel called for a sparse square")

    monkeypatch.setattr(convolve, "_fft_product", no_fft)
    assert exact_list(squares, squares, trunc=n + 1) == want
    assert convolution_power(squares, 2, n + 1).tolist() == want


def test_negative_trunc_is_a_precondition_error():
    with pytest.raises(PreconditionError):
        exact_list([1, 2], [3, 4], trunc=-1)
    with pytest.raises(PreconditionError):
        convolution_power([1, 2], 2, trunc=-1)


def test_fft_size_is_the_least_5_smooth_size():
    smooth = [n for n in range(1, 5001) if _is_5_smooth(n)]
    for n in range(1, 4097):
        assert convolve._fft_size(n) == min(m for m in smooth if m >= n), n


def _is_5_smooth(n: int) -> bool:
    for p in (2, 3, 5):
        while n % p == 0:
            n //= p
    return n == 1


# (len_a, len_b, bits): up to a transform of 2^17 points, a product of
# unequal lengths, and entries of 2^300, past the capacity of any fixed
# set of CRT primes; the schoolbook would take minutes on the longest
@pytest.mark.parametrize(
    "len_a, len_b, bits",
    [(65536, 65000, 12), (30000, 2000, 60), (8000, 6000, 40), (700, 500, 300)],
)
def test_long_products_match_kronecker(len_a, len_b, bits):
    rng = random.Random(len_a + bits)
    a, b = _vector(rng, len_a, bits), _vector(rng, len_b, bits)
    if bits == 300:
        a = [x | 1 << 300 for x in a]
    square = a[:2000]
    with _kernel("fft") as fft_calls:
        assert exact_list(a, b) == _kronecker(a, b)
        assert exact_list(square, square, trunc=1500) == _kronecker(square, square)[:1500]
    assert len(fft_calls) == 2
    assert convolve._fft_size(len_a + len_b - 1) <= 1 << 17


def _longest_length(limbs: int, w: int) -> int:
    """The longest length at which a square of entries of limbs * w bits
    still gets limbs of w bits (the plan's width falls as length grows)."""
    lo, hi = 363, 1 << 18
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if convolve._fft_plan(mid, mid, limbs * w, limbs * w)[1] >= w:
            lo = mid
        else:
            hi = mid - 1
    return lo


# the widths 12 to 16 the plan gives long squares of 363 to about
# 115,000 entries; 3 limbs of 16 bits would need one shorter than 363
@pytest.mark.parametrize("limbs, w", [(limbs, w) for limbs in (1, 2, 3) for w in range(12, 17) if limbs * w < 48])
def test_all_limbs_at_their_maximum(limbs, w):
    """The worst case for the rounding bound: a square of the longest
    constant vector whose plan keeps w-bit limbs, every limb at 2^w - 1,
    so that each output limb sums up to `limbs` limb-pair products of
    the largest norm. The square of a constant c of length n is
    c^2 * min(i + 1, 2n - 1 - i)."""
    n = _longest_length(limbs, w)
    assert convolve._fft_plan(n, n, limbs * w, limbs * w)[1] == w
    assert convolve._fft_plan(n + 1, n + 1, limbs * w, limbs * w)[1] < w
    c = (1 << limbs * w) - 1
    arr = np.full(n, c, dtype=np.int64)
    with _kernel("fft") as fft_calls:
        out = convolve._product(arr, arr, None)
    assert fft_calls == [2 * n - 1]
    assert out.tolist() == [c * c * min(i + 1, 2 * n - 1 - i) for i in range(2 * n - 1)]


def test_rounding_check_raises_when_limbs_are_too_wide():
    """Limbs of 20 bits where the plan allows 14 put the rounding error
    past 1/4 while every output stays below 2^52, where float64 still
    tells fractions apart: the kernel raises instead of rounding."""
    n, bits = 1000, 40
    size, w, _, _ = convolve._fft_plan(n, n, bits, bits)
    assert w == 14
    a = [(1 << bits) - 1] * n
    wide = mock.patch.object(convolve, "_fft_plan", lambda *args: (size, 20, 2, 2))
    with _kernel("fft"), wide, pytest.raises(FloatingPointError):
        exact_list(a, a)


def test_square_takes_one_set_of_forward_transforms():
    """L limbs per operand: a square takes L forward transforms, a product
    of two operands 2L, and both take 2L - 1 inverse ones."""
    rng = random.Random(3)
    a, b = _vector(rng, 1000, 40), _vector(rng, 1000, 40)
    _, _, limbs, _ = convolve._fft_plan(1000, 1000, 40, 40)
    counts = {"rfft": 0, "irfft": 0}

    def counting(name):
        real = getattr(np.fft, name)

        def spy(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        return mock.patch.object(np.fft, name, spy)

    with _kernel("fft"), counting("rfft"), counting("irfft"):
        exact_list(a, a)
        assert counts == {"rfft": limbs, "irfft": 2 * limbs - 1}
        exact_list(a, b)
        assert counts == {"rfft": 3 * limbs, "irfft": 4 * limbs - 2}


# inputs of former tests of the NTT kernel's prime choice and its halved
# truncated square, kept as output checks of the FFT kernel: ten spikes
# over a floor, a flat square, squares of a vector whose squares sum to
# just below and at 2013265921 and 2013265921 * 1811939329, dense entries
# below 10^6, and truncated squares of entries past 2^62 and 2^70
_SPIKES = [346_410_160 if i % 100 == 0 else 34_641_016 for i in range(1000)]


def _squares_summing_to(total, length):
    """A vector of the given length whose squares sum to total (greedy,
    zero-padded)."""
    out = []
    while total:
        out.append(math.isqrt(total))
        total -= out[-1] ** 2
    return out + [0] * (length - len(out))


def _edge_cases() -> list[tuple[list[int], list[int] | None, int | None]]:
    """(a, b, keep), b None for a square."""
    rng = np.random.default_rng(11)
    dense = rng.integers(0, 10**6, 1000).tolist(), rng.integers(0, 10**6, 1000).tolist()
    bits = random.Random(0)
    past62 = [(1 << 62) + bits.getrandbits(62) for _ in range(600)]
    past70 = [(1 << 70) + bits.getrandbits(62) for _ in range(600)]
    p0, p1 = 2013265921, 1811939329
    return [
        (_SPIKES, _SPIKES[50:] + _SPIKES[:50], None),
        ([1450] * 1000, None, None),
        *((_squares_summing_to(m - 1 + offset, 400), None, None) for m in (p0, p0 * p1) for offset in (0, 1)),
        (*dense, None),
        *((entries, None, keep) for keep in (683, 684, 1000) for entries in (past62, past70)),
    ]


@pytest.mark.parametrize("case", range(13))
def test_long_product_edges_match_schoolbook(case):
    a, b, keep = _edge_cases()[case]
    b = a if b is None else b
    with _kernel("fft") as fft_calls:
        assert exact_list(a, b, trunc=keep) == schoolbook_convolve(a, b)[:keep]
    assert fft_calls
