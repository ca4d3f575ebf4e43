"""Exact integer convolution: schoolbook for short vectors, multi-prime
number-theoretic transforms with CRT reconstruction for long ones.

The NTT primes are < 2^31 so that modular products fit in int64 and the
transforms vectorise with numpy; exactness for arbitrarily large counts
comes from using as many primes as the a-priori output bound requires.
Results are bit-identical between the two paths (property-tested).
"""

from __future__ import annotations

import numpy as np

from waringtk.errors import PreconditionError

# (prime, generator); each prime is c * 2^e + 1 with 2-adic order e >= 23
NTT_PRIMES: tuple[tuple[int, int], ...] = (
    (2013265921, 31),  # 15 * 2^27 + 1
    (1811939329, 13),  # 27 * 2^26 + 1
    (469762049, 3),  # 7 * 2^26 + 1
    (2113929217, 5),  # 63 * 2^25 + 1
    (1711276033, 29),  # 51 * 2^25 + 1
    (167772161, 3),  # 5 * 2^25 + 1
    (754974721, 11),  # 45 * 2^24 + 1
    (998244353, 3),  # 119 * 2^23 + 1
)

_SCHOOLBOOK_CAP = 1 << 17  # len(a)*len(b) below this: quadratic big-int path


def schoolbook_convolve(a: list[int], b: list[int]) -> list[int]:
    """Exact quadratic convolution over Python integers."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            if y:
                out[i + j] += x * y
    return out


def _pow_table(base: int, length: int, p: int) -> np.ndarray:
    """[base^0, ..., base^(length-1)] mod p, vectorised over the bits of j."""
    j = np.arange(length, dtype=np.int64)
    out = np.ones(length, dtype=np.int64)
    sq = base % p
    bit = 0
    while (1 << bit) < length:
        mask = (j >> bit) & 1 == 1
        out[mask] = out[mask] * sq % p
        sq = sq * sq % p
        bit += 1
    return out


def _bit_reverse(n: int) -> np.ndarray:
    levels = n.bit_length() - 1
    idx = np.arange(n, dtype=np.int64)
    rev = np.zeros(n, dtype=np.int64)
    for i in range(levels):
        rev = (rev << 1) | ((idx >> i) & 1)
    return rev


def _ntt(a: np.ndarray, p: int, g: int, invert: bool) -> np.ndarray:
    n = a.shape[0]
    a = a[_bit_reverse(n)].copy()
    # c * 2^e + 1 decomposition of p
    e = 0
    c = p - 1
    while c % 2 == 0:
        c //= 2
        e += 1
    if n > (1 << e):
        raise PreconditionError(f"transform size {n} too large for prime {p}")
    size = 2
    while size <= n:
        half = size // 2
        wn = pow(g, c << (e - size.bit_length() + 1), p)
        if invert:
            wn = pow(wn, p - 2, p)
        w = _pow_table(wn, half, p)
        view = a.reshape(n // size, size)
        left = view[:, :half].copy()
        tmp = view[:, half:] * w % p
        view[:, :half] = (left + tmp) % p
        view[:, half:] = (left - tmp) % p
        size *= 2
    if invert:
        a = a * pow(n, p - 2, p) % p
    return a


def _ntt_convolve_mod(a: list[int], b: list[int], p: int, g: int, out_len: int) -> np.ndarray:
    size = 1
    while size < out_len:
        size *= 2
    fa = np.zeros(size, dtype=np.int64)
    fb = np.zeros(size, dtype=np.int64)
    fa[: len(a)] = np.array([x % p for x in a], dtype=np.int64)
    fb[: len(b)] = np.array([x % p for x in b], dtype=np.int64)
    fa = _ntt(fa, p, g, invert=False)
    fb = _ntt(fb, p, g, invert=False)
    return _ntt(fa * fb % p, p, g, invert=True)[:out_len]


def _garner(residue_rows: list[np.ndarray], primes: list[int], length: int) -> list[int]:
    """CRT-reconstruct each index from its residues (mixed-radix)."""
    mods = [1]
    for p in primes[:-1]:
        mods.append(mods[-1] * p)
    invs = [pow(m % p, p - 2, p) for m, p in zip(mods, primes)]
    out = [0] * length
    for i in range(length):
        x = 0
        for row, p, m, inv in zip(residue_rows, primes, mods, invs):
            tcoef = (int(row[i]) - x) % p * inv % p
            x += tcoef * m
        out[i] = x
    return out


def exact_convolve(a: list[int], b: list[int], trunc: int | None = None) -> list[int]:
    """Exact convolution of nonnegative integer vectors.

    trunc keeps only the first trunc output entries (those are still
    exact: truncation only discards high-index terms).
    """
    if not a or not b:
        return []
    out_len = len(a) + len(b) - 1
    if trunc is not None:
        out_len_keep = min(trunc, out_len)
    else:
        out_len_keep = out_len
    if len(a) * len(b) <= _SCHOOLBOOK_CAP:
        return schoolbook_convolve(a, b)[:out_len_keep]
    if min(a) < 0 or min(b) < 0:
        raise PreconditionError("NTT path requires nonnegative entries")
    bound = min(sum(a) * max(b), sum(b) * max(a)) + 1
    primes: list[tuple[int, int]] = []
    mod = 1
    for pg in NTT_PRIMES:
        if mod >= bound:
            break
        primes.append(pg)
        mod *= pg[0]
    if mod < bound:
        raise PreconditionError("output bound exceeds the CRT capacity of the prime set")
    rows = [_ntt_convolve_mod(a, b, p, g, out_len) for p, g in primes]
    return _garner(rows, [p for p, _ in primes], out_len_keep)


def cyclic_convolve(a: list[int], b: list[int], m: int) -> list[int]:
    """Exact cyclic convolution modulo index m (histogram composition)."""
    if len(a) != m or len(b) != m:
        raise PreconditionError("cyclic_convolve needs both vectors of length m")
    lin = exact_convolve(a, b)
    out = [0] * m
    for i, v in enumerate(lin):
        out[i % m] += v
    return out


def _binary_power(base: list[int], t: int, mul) -> list[int]:
    """The t-fold product of base under mul, by binary powering."""
    if t < 1:
        raise PreconditionError(f"a convolution power needs t >= 1, got t={t}")
    result: list[int] | None = None
    sq = base
    while t:
        if t & 1:
            result = sq if result is None else mul(result, sq)
        t >>= 1
        if t:
            sq = mul(sq, sq)
    return result


def convolution_power(base: list[int], t: int, trunc: int) -> list[int]:
    """base^(*t) truncated to trunc entries, by binary powering."""
    result = _binary_power(list(base[:trunc]), t, lambda a, b: exact_convolve(a, b, trunc=trunc))
    return result + [0] * (trunc - len(result))


def cyclic_power(base: list[int], t: int, m: int) -> list[int]:
    """t-fold cyclic convolution power of a length-m histogram."""
    return _binary_power(list(base), t, lambda a, b: cyclic_convolve(a, b, m))


def float_convolve(a: np.ndarray, b: np.ndarray, trunc: int | None = None) -> np.ndarray:
    """FFT convolution of real vectors (positive-weight use only; relative
    error is machine-epsilon scale since no cancellation occurs)."""
    out_len = len(a) + len(b) - 1
    size = 1
    while size < out_len:
        size *= 2
    fa = np.fft.rfft(a, size)
    fb = np.fft.rfft(b, size)
    out = np.fft.irfft(fa * fb, size)[:out_len]
    if trunc is not None:
        out = out[:trunc]
    return out
