import itertools
import random
from collections import Counter

import numpy as np
import pytest

from waringtk import local
from waringtk.arith import factorize
from waringtk.convolve import cyclic_convolve
from waringtk.errors import PreconditionError, ResourceError
from waringtk.expsums import power_residue_histogram
from waringtk.local import (
    check_lemma_hypotheses,
    form_histogram,
    form_power_histogram,
    m_n,
    m_star_n,
    mask_units,
    pushforward_power,
    verify_local_solubility,
)


def m_n_oracle(p, h, n, k, l, t, s):
    """Split enumeration: y-part (4 vars) x form-part (s blocks of t vars)."""
    q = p**h
    ys = Counter()
    for y in itertools.product(range(1, q + 1), repeat=4):
        if y[0] % p == 0 or y[1] % p == 0:
            continue
        ys[sum(pow(v, k, q) for v in y) % q] += 1
    forms = Counter({0: 1})
    block = Counter()
    for x in itertools.product(range(1, q + 1), repeat=t):
        block[pow(sum(v**l for v in x), k, q)] += 1
    for _ in range(s):
        nxt = Counter()
        for a, ca in forms.items():
            for b, cb in block.items():
                nxt[(a + b) % q] += ca * cb
        forms = nxt
    return sum(ys[a] * forms[(n - a) % q] for a in range(q))


@pytest.mark.parametrize("p,h,k,l,t,s", [(3, 1, 2, 2, 2, 1), (2, 2, 2, 2, 2, 1), (5, 1, 2, 2, 2, 2)])
def test_m_n_against_split_enumeration(p, h, k, l, t, s):
    q = p**h
    for n in range(q):
        assert m_n(p, h, n, k, l, t, s) == m_n_oracle(p, h, n, k, l, t, s)


def m_star_oracle(p, h, n, k, l, t, s):
    q = p**h
    block = Counter()
    first = Counter()
    for x in itertools.product(range(1, q + 1), repeat=t):
        tv = sum(v**l for v in x)
        block[pow(tv, k, q)] += 1
        if x[0] % p != 0 and tv % p != 0:
            first[pow(tv, k, q)] += 1
    acc = first
    for _ in range(s - 1):
        nxt = Counter()
        for a, ca in acc.items():
            for b, cb in block.items():
                nxt[(a + b) % q] += ca * cb
        acc = nxt
    return acc[n % q]


@pytest.mark.parametrize("p,h,k,l,t,s", [(3, 1, 2, 2, 2, 2), (2, 2, 2, 2, 2, 2)])
def test_m_star_against_enumeration(p, h, k, l, t, s):
    q = p**h
    for n in range(q):
        assert m_star_n(p, h, n, k, l, t, s) == m_star_oracle(p, h, n, k, l, t, s)


def test_mass_conservation():
    p, h, k, l, t, s = 3, 2, 2, 2, 8, 1
    q = p**h
    total = sum(m_n(p, h, n, k, l, t, s) for n in range(q))
    # |space| = phi-restricted y1,y2 x free y3,y4 x s form blocks
    units = q - q // p
    assert total == units**2 * q**2 * q ** (s * t)


def test_histogram_convolve_is_cyclic():
    a = np.array([1, 2, 0, 0, 3])
    b = np.array([0, 1, 1, 0, 0])
    c = cyclic_convolve(a, b, 5)
    assert c.sum() == a.sum() * b.sum()
    brute = [0] * 5
    for i, ca in enumerate(a.tolist()):
        for j, cb in enumerate(b.tolist()):
            brute[(i + j) % 5] += ca * cb
    assert c.tolist() == brute


def test_power_histogram_units():
    h = power_residue_histogram(9, 2, units_only=True)
    assert h.sum() == 6
    assert h[0] == 0


def test_pushforward_and_mask():
    h = power_residue_histogram(5, 2)
    g = pushforward_power(h, 2)  # x -> x^4 mod 5
    assert g.sum() == h.sum()
    m = mask_units(g, 5)
    assert m[0] == 0


def test_pushforward_and_mask_match_loops():
    """Against the per-residue Python loops for q <= 200, on int64
    histograms and on object ones whose bins pass 2^63."""
    rng = random.Random(200)
    for q in range(1, 201):
        bits = (20, 62, 70)[q % 3]
        counts = [rng.getrandbits(bits) if rng.random() < 0.7 else 0 for _ in range(q)]
        hist = np.array(counts, dtype=np.int64 if bits < 63 else object)
        for expo in (1, 2, 3, 6):
            want = [0] * q
            for m, c in enumerate(counts):
                want[pow(m, expo, q)] += c
            got = pushforward_power(hist, expo)
            assert got.tolist() == want, (q, expo)
            assert got.dtype == (np.int64 if max(want) < 1 << 63 else object), (q, expo)
        for p in {2, 3, q}:
            assert mask_units(hist, p).tolist() == [c if m % p else 0 for m, c in enumerate(counts)], (q, p)


@pytest.mark.parametrize(
    "hist, dtype",
    [
        # 3 * 2^63 - 5 in all, which wraps in int64; the largest bin is 2^63 - 1
        ([2**63 - 1, 2**62, 2**62 - 3, 2**62, 2**62 - 1], np.int64),
        # 2^64 + 10 in all, 10 after the int64 wrap; bin 1 is 2^63 + 5
        ([2**62, 2**62 + 3, 2**61, 2**61 + 5, 2**62 + 2], object),
    ],
)
def test_pushforward_whose_int64_sum_wraps(hist, dtype):
    """m -> m^2 mod 5 sends 1, 4 to 1 and 2, 3 to 4: the int64 route is
    taken only when the exact total fits, whatever the wrapped sum says."""
    arr = np.array(hist, dtype=np.int64)
    assert int(arr.sum()) != sum(hist)
    want = [0] * 5
    for m, c in enumerate(hist):
        want[m * m % 5] += c
    got = pushforward_power(arr, 2)
    assert got.tolist() == want
    assert got.dtype == dtype == (np.int64 if max(want) < 1 << 63 else object)


def _form_power_oracle(q, k, l, t):
    """counts[m] = #{r in [0,q)^t : T(r)^k = m (mod q)} by t Python-int
    cyclic convolutions of the one-variable histogram and a pushforward,
    with no CRT and no int64."""
    one = [0] * q
    for x in range(q):
        one[pow(x, l, q)] += 1
    acc = [1] + [0] * (q - 1)
    for _ in range(t):
        acc = [sum(acc[j] * one[(i - j) % q] for j in range(q)) for i in range(q)]
    out = [0] * q
    for m, c in enumerate(acc):
        out[pow(m, k, q)] += c
    return out


# max(hist_{p^e}) * max(hist_m) is 0.17 and 1.03 times 2^63 at q = 6 and
# t = 24, 25, and 0.96 and 11.5 times 2^63 at q = 12 and t = 18, 19
@pytest.mark.parametrize("q, t", [(6, 24), (6, 25), (12, 18), (12, 19)])
def test_crt_product_across_the_int64_bound(q, t):
    """The CRT product at composite q is int64 when the product of the two
    factors' largest entries is below 2^63 and object otherwise; by CRT
    that product is the largest entry."""
    entries = factorize(q)
    pe = entries[0][0] ** entries[0][1]
    factors = int(form_power_histogram(pe, 2, 2, t).max()) * int(form_power_histogram(q // pe, 2, 2, t).max())
    want = _form_power_oracle(q, 2, 2, t)
    got = form_power_histogram(q, 2, 2, t)
    assert got.tolist() == want
    assert max(want) == factors
    assert got.dtype == (np.int64 if factors < 1 << 63 else object)


def test_cached_histograms_are_read_only():
    hists = [
        power_residue_histogram(9, 2),
        form_histogram(3, 2, 2, 4),
        local._m_star_histogram(3, 2, 2, 2, 1, 1),
        form_power_histogram(9, 2, 2, 4),
        form_power_histogram(36, 2, 2, 4),
        local._m_n_histogram(3, 2, 2, 2, 4, 1),
        local._m_star_histogram(3, 2, 2, 2, 4, 1),
        local._m_star_histogram(3, 2, 2, 2, 4, 2),
    ]
    for hist in hists:
        with pytest.raises(ValueError):
            hist[0] = 1


@pytest.mark.parametrize(
    "p, h, k, l, t, s",
    [(0, 1, 2, 2, 2, 1), (4, 1, 2, 2, 2, 1), (-3, 1, 2, 2, 2, 1), (3, -1, 2, 2, 2, 1), (3, 1, 0, 2, 2, 1),
     (3, 1, 2, 0, 2, 1), (3, 1, 2, 2, 0, 1), (3, 1, 2, 2, 2, -1)],
)
def test_local_counts_check_their_arguments(p, h, k, l, t, s):
    for count in (m_n, m_star_n):
        with pytest.raises(PreconditionError):
            count(p, h, 1, k, l, t, s)


def test_form_histogram_budget():
    with pytest.raises(ResourceError):
        form_histogram(11, 6, 2, 8)


def test_lemma_hypotheses_gates():
    # p=k=2 needs s >= 2 for M, s >= 5 for Mstar
    check_lemma_hypotheses(2, 2, 2, 8, 2, "M")
    with pytest.raises(PreconditionError):
        check_lemma_hypotheses(2, 2, 2, 8, 1, "M")
    check_lemma_hypotheses(2, 2, 2, 8, 5, "Mstar")
    with pytest.raises(PreconditionError):
        check_lemma_hypotheses(2, 2, 2, 8, 4, "Mstar")
    # t >= 4l standing assumption
    with pytest.raises(PreconditionError):
        check_lemma_hypotheses(3, 2, 2, 7, 2, "M")


def test_verify_solubility_reports():
    rep = verify_local_solubility(3, 2, 2, 8, 2, which="M")
    assert rep.level == 1 and rep.all_positive
    rep = verify_local_solubility(2, 2, 2, 8, 5, which="Mstar")
    assert rep.level == 5 and len(rep.counts) == 32 and rep.all_positive


def test_counts_are_python_ints():
    assert type(m_n(3, 2, 4, 2, 2, 8, 2)) is int and type(m_star_n(3, 2, 4, 2, 2, 8, 2)) is int
    rep = verify_local_solubility(2, 2, 2, 8, 5, which="Mstar")
    assert all(type(c) is int for c in rep.counts)
