"""Exact integer convolution: schoolbook for short vectors, multi-prime
number-theoretic transforms with CRT reconstruction for long ones.

The NTT primes are < 2^31 so that modular products fit in int64 and the
transforms vectorise with numpy; exactness for arbitrarily large counts
comes from using as many primes as the a-priori output bound requires.
Each transform builds its tables in O(n): one table of the powers of the
n-th root of unity (every stage's twiddles are a strided view of it) and
the bit-reversal permutation, both by doubling a filled prefix; its
butterflies reduce the sums every second stage only. A square (the same
object passed twice, as binary powering does) costs one forward
transform per prime instead of two. The residues are combined by Garner's
mixed-radix method in int64, with one Python-int pass at the end only
when the primes' product exceeds 2^63. Nothing is cached across calls.
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
    """[base^0, ..., base^(length-1)] mod p in O(length): each pass fills
    the next block from the filled prefix, out[f:2f] = out[:f] * base^f."""
    out = np.empty(length, dtype=np.int64)
    out[:1] = 1
    f = 1
    while f < length:
        m = min(f, length - f)
        np.multiply(out[:m], pow(base, f, p), out=out[f : f + m])
        out[f : f + m] %= p
        f *= 2
    return out


def _bit_reverse(n: int) -> np.ndarray:
    """The bit-reversal permutation of range(n), n a power of two, in O(n):
    the permutation for 2m is the one for m doubled, then doubled plus one."""
    rev = np.zeros(n, dtype=np.int64)
    m = 1
    while m < n:
        rev[:m] *= 2
        np.add(rev[:m], 1, out=rev[m : 2 * m])
        m *= 2
    return rev


def _ntt(a: np.ndarray, p: int, g: int, invert: bool) -> np.ndarray:
    """Iterative radix-2 transform of a (length n, a power of two, entries
    in [0, p)) mod p; with invert, n times the inverse transform.

    One table of the powers of the n-th root of unity serves every stage:
    the twiddles of a size-s stage are every (n/s)-th entry of it. Sums
    are reduced every second stage only: after an unreduced stage the
    entries lie in (-p, 2p), so the next stage's products stay below
    2p^2 < 2^63 (p < 2^31) and its sums in (-2p, 3p)."""
    n = a.shape[0]
    e = ((p - 1) & (1 - p)).bit_length() - 1  # p = c * 2^e + 1, c odd
    if n > (1 << e):
        raise PreconditionError(f"transform size {n} too large for prime {p}")
    a = a[_bit_reverse(n)]
    w = pow(g, (p - 1) // n, p)
    if invert:
        w = pow(w, p - 2, p)
    roots = _pow_table(w, n // 2, p)
    buf = np.empty(n // 2, dtype=np.int64)
    size = 2
    while size <= n:
        half = size // 2
        view = a.reshape(n // size, size)
        lo, hi = view[:, :half], view[:, half:]
        tmp = buf.reshape(n // size, half)
        if size == 2:  # the twiddle is 1
            np.copyto(tmp, hi)
        else:
            np.multiply(hi, roots[:: n // size], out=tmp)
            tmp %= p
        np.subtract(lo, tmp, out=hi)
        lo += tmp
        if size.bit_length() % 2 == 1 or size == n:  # size 4, 16, ... or the last
            a %= p
        size *= 2
    return a


def _int64_or_none(a: list[int]) -> np.ndarray | None:
    """a as an int64 array, or None when an entry is 2^63 or more."""
    try:
        return np.array(a, dtype=np.int64)
    except OverflowError:
        return None


def _residues(a: list[int], arr: np.ndarray | None, p: int, size: int) -> np.ndarray:
    """a mod p, zero-padded to size."""
    out = np.zeros(size, dtype=np.int64)
    if arr is not None:
        np.remainder(arr, p, out=out[: len(a)])
    else:
        out[: len(a)] = [x % p for x in a]
    return out


def _garner(residue_rows: list[np.ndarray], primes: list[int]) -> list[int]:
    """CRT-reconstruct each index from its residues.

    The mixed-radix digits v_i (x = v_0 + v_1 p_0 + v_2 p_0 p_1 + ...) are
    int64 arrays: every factor is below 2^31, so every product fits. The
    digits are summed in int64 while the modulus stays below 2^63, and in
    one object-array (Python int) pass beyond that."""
    digits: list[np.ndarray] = []
    for row, p in zip(residue_rows, primes):
        t = row
        for v, q in zip(digits, primes):
            t = (t - v) % p * pow(q, p - 2, p) % p
        digits.append(t)
    x, m = digits[0], primes[0]
    for v, p in zip(digits[1:], primes[1:]):
        if m * p >= 1 << 63:
            x, v = np.asarray(x, dtype=object), v.astype(object)
        x = x + v * m
        m *= p
    return x.tolist()


def exact_convolve(a: list[int], b: list[int], trunc: int | None = None) -> list[int]:
    """Exact convolution of nonnegative integer vectors.

    trunc keeps only the first trunc output entries (those are still
    exact: truncation only discards high-index terms). Passing the same
    object as a and b (a square) costs one forward transform per prime
    instead of two.
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
    if not primes:  # bound 1: a or b is all zeros
        return [0] * out_len_keep
    size = 1 << (out_len - 1).bit_length()
    square = b is a
    arr_a = _int64_or_none(a)
    arr_b = arr_a if square else _int64_or_none(b)
    rows = []
    for p, g in primes:
        fa = _ntt(_residues(a, arr_a, p, size), p, g, invert=False)
        fb = fa if square else _ntt(_residues(b, arr_b, p, size), p, g, invert=False)
        row = _ntt(fa * fb % p, p, g, invert=True)[:out_len_keep]
        rows.append(row * pow(size, p - 2, p) % p)
    return _garner(rows, [p for p, _ in primes])


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
