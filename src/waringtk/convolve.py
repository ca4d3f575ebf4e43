"""Exact integer convolution with two kernels, and float convolution.

The direct kernel works on int64 numpy arrays. For each nonzero of the
operand with fewer nonzeros it adds a shifted, scaled copy of the other
operand (a row); when the other operand is sparse too it scatter-adds
the outer product of the two nonzero sets instead. It truncates as it
goes, so its work is about
nnz_small * min(nnz_other * _PAIR_COST, kept row length + _ROW_COST)
multiply-adds, _ROW_COST being the fixed cost of one row's numpy calls.
The NTT kernel runs multi-prime number-theoretic transforms: 3 transforms
(2 for a square, the same object passed twice) of size * log2(size)
butterfly points per prime.

Powers are taken left to right (Knuth, TAOCP vol. 2, 4.6.3): every
product is a square or a product with the base, so the sparse base of a
count goes to the direct kernel and a long square to the NTT kernel at
two transforms per prime. convolution_power carries int64 arrays (object
past 2^63) from product to product and returns one.

Both kernels work from the a-priori bound on the output entries,
min(sum(a) * max(b), sum(b) * max(a)). Below 2^63 the direct kernel
accumulates in plain int64 (every partial sum of nonnegative terms is at
most the bound), and the dispatch (_product, behind exact_convolve,
cyclic_convolve and the powers) takes it for every short product
(len(a) * len(b) <= _SCHOOLBOOK_CAP) and for a long one whose work is at
most the NTT kernel's, counting a butterfly point as _NTT_COST
multiply-adds. From 2^63 on, a short product goes to
schoolbook_convolve and a long one to the NTT kernel, which works per
CRT prime in residues, with as many of NTT_PRIMES as the bound needs,
and combines them by Garner's mixed-radix method (in int64, with one
Python-int pass when the primes' product exceeds 2^63). Every route
returns int64 when each entry fits and object otherwise; cyclic_convolve
folds in Python ints when a folded sum could pass int64.
schoolbook_convolve is also the reference the tests compare against,
and the route for short products with negative entries. Results are
bit-identical across the routes (property-tested).

The NTT primes are < 2^31 so that modular products fit in int64. Each
transform builds its tables in O(n): one table of the powers of the n-th
root of unity (every stage's twiddles are a strided view of it) and the
bit-reversal permutation, both by doubling a filled prefix; its
butterflies reduce the sums every second stage only. Nothing is cached
across calls.
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

_SCHOOLBOOK_CAP = 1 << 17  # len(a)*len(b) at most this: a short product
# Work weights of the dispatch, in int64 multiply-adds of the direct
# kernel's rows (about 0.6 ns each; measured with numpy 2.4 on a 2-core
# x86-64 VM, where a butterfly point costs 12-16 ns, a row's numpy calls
# 2.5-4 us and a scatter-added pair 10-35 ns). The values minimise the
# summed time of the chosen routes over the exact products of the
# benchmark workloads and a sweep of dense and sparse products of
# length 400-100000:
_NTT_COST = 20  # one butterfly point of one stage, for one prime
_ROW_COST = 4000  # the fixed cost of one row
_PAIR_COST = 16  # one scatter-added pair of the outer product


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


def count_array(a: list[int] | np.ndarray) -> np.ndarray:
    """a (a list or an array) as an int64 array, or as an object array when
    an entry is outside int64; an int64 array is returned as it is."""
    try:
        return np.asarray(a, dtype=np.int64)
    except OverflowError:
        return np.array(a, dtype=object)


def _total(arr: np.ndarray) -> int:
    """sum(arr) as a Python int; int64 summation only where it cannot wrap."""
    if arr.dtype == object or int(arr.max()) * len(arr) >= 1 << 63:
        return sum(arr.tolist())
    return int(arr.sum())


def _residues(arr: np.ndarray, p: int, size: int) -> np.ndarray:
    """arr mod p as int64, zero-padded to size."""
    out = np.zeros(size, dtype=np.int64)
    out[: len(arr)] = arr % p
    return out


def _crt_primes(bound: int) -> list[tuple[int, int]]:
    """The leading NTT primes, as few as make a modulus of at least bound."""
    primes: list[tuple[int, int]] = []
    mod = 1
    for pg in NTT_PRIMES:
        if mod >= bound:
            break
        primes.append(pg)
        mod *= pg[0]
    if mod < bound:
        raise PreconditionError("output bound exceeds the CRT capacity of the prime set")
    return primes


def _garner(residue_rows: list[np.ndarray], primes: list[int]) -> np.ndarray:
    """CRT-reconstruct each index from its residues.

    The mixed-radix digits v_i (x = v_0 + v_1 p_0 + v_2 p_0 p_1 + ...) are
    int64 arrays: every factor is below 2^31, so every product fits. The
    digits are summed in int64 while the modulus stays below 2^63, and in
    one object-array (Python int) pass beyond that; the result is then
    int64 again when every entry fits."""
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
    return count_array(x)


def _direct(a: np.ndarray, b: np.ndarray, keep: int) -> np.ndarray:
    """The first keep entries of a*b from the nonzeros of the sparser
    operand, as int64; the caller guarantees the output bound is below
    2^63, and every partial sum is at most the final entry.

    Each nonzero a[i] adds the row a[i] * b shifted by i; when b is
    sparse enough that its pairs cost less than a row, the outer product
    of the two nonzero sets is scatter-added in blocks of at most
    _SCHOOLBOOK_CAP pairs instead."""
    ia, ib = np.flatnonzero(a[:keep]), np.flatnonzero(b[:keep])
    if len(ia) > len(ib):
        a, b, ia, ib = b, a, ib, ia
    out = np.zeros(keep, dtype=np.int64)
    if len(ib) * _PAIR_COST < min(len(b), keep) + _ROW_COST:
        vb = b[ib]
        step = max(1, _SCHOOLBOOK_CAP // max(1, len(ib)))
        for lo in range(0, len(ia), step):
            rows = ia[lo : lo + step]
            pos = (rows[:, None] + ib).ravel()
            val = (a[rows][:, None] * vb).ravel()
            inside = pos < keep
            np.add.at(out, pos[inside], val[inside])
    else:
        buf = np.empty(min(len(b), keep), dtype=np.int64)
        for i in ia.tolist():
            n = min(len(b), keep - i)
            row = buf[:n]
            np.multiply(b[:n], a[i], out=row)
            out[i : i + n] += row
    return out


def _direct_work(arr_a: np.ndarray, arr_b: np.ndarray, keep: int) -> int:
    """The direct kernel's work on a product, in int64 multiply-adds."""
    na, nb = np.count_nonzero(arr_a[:keep]), np.count_nonzero(arr_b[:keep])
    small, other = (na, arr_b) if na <= nb else (nb, arr_a)
    return small * min(max(na, nb) * _PAIR_COST, min(len(other), keep) + _ROW_COST)


def _schoolbook(a: np.ndarray, b: np.ndarray, keep: int) -> np.ndarray:
    """schoolbook_convolve of two arrays, truncated to keep entries; it
    works on Python ints, since products of int64 entries could wrap."""
    la = a.tolist()
    return count_array(schoolbook_convolve(la, la if b is a else b.tolist())[:keep])


def _product(a: np.ndarray, b: np.ndarray, trunc: int | None) -> np.ndarray:
    """The first trunc entries (all when None) of the exact product of two
    int64 or object arrays: int64 when every entry fits, object otherwise."""
    if not len(a) or not len(b):
        return np.zeros(0, dtype=np.int64)
    out_len = len(a) + len(b) - 1
    keep = out_len if trunc is None else min(trunc, out_len)
    square = b is a
    short = len(a) * len(b) <= _SCHOOLBOOK_CAP
    if a.min() < 0 or b.min() < 0:
        if not short:
            raise PreconditionError("exact_convolve needs nonnegative entries beyond the schoolbook cap")
        return _schoolbook(a, b, keep)
    bound = min(_total(a) * int(b.max()), _total(b) * int(a.max())) + 1
    if short and bound > 1 << 63:
        return _schoolbook(a, b, keep)
    primes = _crt_primes(bound)
    size = 1 << (out_len - 1).bit_length()
    if bound <= 1 << 63:
        points = (2 if square else 3) * size * (size.bit_length() - 1) * len(primes)
        if short or _direct_work(a, b, keep) <= points * _NTT_COST:
            return _direct(a, b, keep)
    rows = []
    for p, g in primes:
        fa = _ntt(_residues(a, p, size), p, g, invert=False)
        fb = fa if square else _ntt(_residues(b, p, size), p, g, invert=False)
        row = _ntt(fa * fb % p, p, g, invert=True)[:keep]
        rows.append(row * pow(size, p - 2, p) % p)
    return _garner(rows, [p for p, _ in primes])


def _operands(a: list[int], b: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """a and b as arrays for _product, a square kept as one object."""
    arr_a = count_array(a)
    return arr_a, arr_a if b is a else count_array(b)


def exact_convolve(a: list[int], b: list[int], trunc: int | None = None) -> list[int]:
    """Exact convolution of integer vectors (nonnegative beyond the
    schoolbook cap).

    trunc keeps only the first trunc output entries (those are still
    exact: truncation only discards high-index terms). Passing the same
    object as a and b (a square) costs one forward transform per prime
    instead of two on the NTT kernel.
    """
    if trunc is not None and trunc < 0:
        raise PreconditionError(f"trunc must be nonnegative, got {trunc}")
    return _product(*_operands(a, b), trunc).tolist()


def cyclic_convolve(a: list[int], b: list[int], m: int) -> list[int]:
    """Exact cyclic convolution modulo index m (histogram composition)."""
    if len(a) != m or len(b) != m:
        raise PreconditionError("cyclic_convolve needs both vectors of length m")
    if not m:
        return []
    lin = _product(*_operands(a, b), None)
    if lin.dtype != object and (lin.max() >= 1 << 62 or lin.min() < -(1 << 62)):
        # the fold adds two entries; below 2^62 in magnitude the sum fits
        lin = lin.astype(object)
    out = lin[:m].copy()
    out[: m - 1] += lin[m:]
    return out.tolist()


def _binary_power(base, t: int, mul):
    """The t-fold product of base under mul, by left-to-right binary
    powering: for each bit of t after the leading one, square, then
    multiply by base if the bit is set. That makes floor(log2 t) +
    popcount(t) - 1 products, each a square or a product with base."""
    if t < 1:
        raise PreconditionError(f"a convolution power needs t >= 1, got t={t}")
    result = base
    for bit in bin(t)[3:]:
        result = mul(result, result)
        if bit == "1":
            result = mul(result, base)
    return result


def convolution_power(base: list[int] | np.ndarray, t: int, trunc: int) -> np.ndarray:
    """base^(*t) truncated and zero-padded to trunc entries, by binary
    powering, as an int64 array (object when an entry reaches 2^63)."""
    if trunc < 0:
        raise PreconditionError(f"trunc must be nonnegative, got {trunc}")
    result = _binary_power(count_array(base[:trunc]), t, lambda a, b: _product(a, b, trunc))
    out = np.zeros(trunc, dtype=result.dtype)
    out[: len(result)] = result
    return out


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
