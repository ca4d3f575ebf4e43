import itertools
from collections import Counter

import pytest

from waringtk.errors import PreconditionError, ResourceError
from waringtk.local import (
    ResidueHistogram,
    check_lemma_hypotheses,
    form_histogram,
    m_n,
    m_star_n,
    mask_units,
    power_histogram,
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
    a = ResidueHistogram(5, (1, 2, 0, 0, 3))
    b = ResidueHistogram(5, (0, 1, 1, 0, 0))
    c = a.convolve(b)
    assert c.mass == a.mass * b.mass
    brute = [0] * 5
    for i, ca in enumerate(a.counts):
        for j, cb in enumerate(b.counts):
            brute[(i + j) % 5] += ca * cb
    assert list(c.counts) == brute


def test_power_histogram_units():
    h = power_histogram(9, 2, units_only=True)
    assert h.mass == 6
    assert h.counts[0] == 0


def test_pushforward_and_mask():
    h = power_histogram(5, 2)
    g = pushforward_power(h, 2)  # x -> x^4 mod 5
    assert g.mass == h.mass
    m = mask_units(g, 5)
    assert m.counts[0] == 0


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


def test_level_zero_vacuous():
    rep = verify_local_solubility(3, 2, 2, 8, 2, which="M", level=0)
    assert rep.all_positive and rep.counts == (1,)
