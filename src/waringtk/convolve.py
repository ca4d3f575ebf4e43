"""Exact integer convolution with two kernels, and float convolution.

Short products run on np.convolve, numpy's compiled multiply-add loop:
in int64 while their output bound is below 2^63, and on object arrays
of Python ints otherwise. The direct kernel works on int64 numpy
arrays. For each nonzero of the operand with fewer nonzeros it adds a
shifted, scaled copy of the other operand (a row); when the other
operand is sparse too it scatter-adds the outer product of the two
nonzero sets instead. It truncates as it goes, so its work is about
nnz_small * min(nnz_other * _PAIR_COST, kept row length + _ROW_COST)
multiply-adds, _ROW_COST being the fixed cost of one row's numpy calls.

The split-limb FFT kernel writes each operand as a = sum_i a_i 2^(w i)
with L limbs a_i of w bits and takes one numpy real FFT per limb (one
set for a square, the same object passed twice) at the least 5-smooth
size N at least the output length. Output limb k is one inverse FFT of
the summed limb-pair spectra with i + j = k (a square forms each pair
i < j once and doubles it); every kept output of it
must lie within 1/4 of an integer, else the kernel raises
FloatingPointError instead of rounding. The rounded output limbs are
carried into int64 words of whole limbs, which pass to Python ints in
one object pass only when an entry reaches 2^63; an object operand is
cut into such words before its limbs are taken.

The width w comes from an a-priori rounding bound (Percival, Math.
Comp. 72 (2003); Brent and Zimmermann, Modern Computer Arithmetic, CUP
2010, 3.3): for limbs x_i, y_j of operands of lengths n_a, n_b, the
float64 error of output limb k is at most
sum_{i+j=k} ||x_i||_2 ||y_j||_2 * c * log2(N) * 2^-53, c = _FFT_ERROR
(generous: the largest error seen, on constant vectors of limbs all at
their maximum, is 1/128 of it). As ||x_i||_2 <= (2^w - 1) sqrt(n_a), w
is the widest width with
min(L_a, L_b) (2^w - 1)^2 sqrt(n_a n_b) c log2(N) 2^-53 <= 1/4,
which also keeps every exact output limb below 2^53.

The dispatch (_product, behind exact_product, cyclic_convolve and the
powers) cuts both operands to the kept length
and works from the a-priori bound on the output entries,
min(sum(a) * max(b), sum(b) * max(a)). Below 2^63 np.convolve and the
direct kernel accumulate in plain int64 (every partial sum of
nonnegative terms is at most the bound): the direct kernel takes a long
product whose work is at most the FFT kernel's, counting a point of one
transform stage (N log2 N per transform) as _FFT_COST multiply-adds.
From 2^63 on, a long product goes to the FFT kernel. np.convolve takes
every short product, on object arrays from 2^63 on or when an entry is
negative. Powers
are taken left to right (Knuth, TAOCP vol. 2, 4.6.3), so every product
is a square or takes the sparse base.

Every route returns int64 when each entry fits and object otherwise;
convolution_power, cyclic_convolve and cyclic_power carry such count
arrays from product to product, cyclic_convolve folding in Python ints
when a folded sum could pass int64. schoolbook_convolve is the
reference the tests compare against. Results are bit-identical across
the routes (property-tested).
"""

from __future__ import annotations

import math

import numpy as np

from waringtk.errors import PreconditionError, require_integers

_FFT_ERROR = 64  # c of the rounding bound in the module docstring
_SCHOOLBOOK_CAP = 1 << 17  # len(a)*len(b) at most this: a short product
# Work weights of the dispatch, in int64 multiply-adds of the direct
# kernel's rows (0.4-0.5 ns each; measured with numpy 2.4 on a 2-core
# x86-64 VM, where a row's numpy calls cost 2.5-4 us and a scatter-added
# pair 10-35 ns). They minimise the summed time of the chosen routes over
# the long products below 2^63 of exact_counts and local_series and a
# sweep of dense and sparse squares of length 400-100000 (_FFT_COST 1 and
# 2 give an 11% and a 3% larger sum than 1.5):
_FFT_COST = 1.5  # one point of one stage of one transform of the FFT kernel
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


def count_array(a: list[int] | np.ndarray) -> np.ndarray:
    """a (a list or an array) as an int64 array, or as an object array when
    an entry is outside int64; an int64 array is returned as it is."""
    if isinstance(a, np.ndarray) and a.dtype.kind == "u" and len(a) and a.max() >= 1 << 63:
        return a.astype(object)  # the int64 cast below would wrap these entries
    try:
        return np.asarray(a, dtype=np.int64)
    except OverflowError:
        return np.array(a, dtype=object)


def read_only_counts(a: list[int] | np.ndarray) -> np.ndarray:
    """A read-only copy of the nonnegative counts a, as count_array gives
    them."""
    counts = count_array(a)
    counts = counts.copy() if counts is a else counts
    if len(counts) and counts.min() < 0:
        raise PreconditionError("counts must be nonnegative")
    counts.flags.writeable = False
    return counts


def count_total(counts: np.ndarray) -> int:
    """The exact total of counts as a Python int (0 if empty); int64 summation only where it cannot wrap."""
    if counts.dtype == object or (len(counts) and int(counts.max()) * len(counts) >= 1 << 63):
        return sum(counts.tolist())
    return int(counts.sum())


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


def _fft_size(n: int) -> int:
    """The least 5-smooth integer >= n, a size pocketfft transforms fast:
    the least f * 2^i >= n over the f = 3^j 5^k below the next power of 2."""
    best = 1 << (n - 1).bit_length()
    f5 = 1
    while f5 < best:
        f = f5
        while f < best:
            best = min(best, f << (-(-n // f) - 1).bit_length())
            f *= 3
        f5 *= 5
    return best


def _fft_plan(len_a: int, len_b: int, bits_a: int, bits_b: int) -> tuple[int, int, int, int]:
    """(N, w, L_a, L_b) for the FFT kernel: the transform size, the widest
    limb width that meets the rounding bound of the module docstring, and
    the limbs per operand; w = 1 if none does (the rounding check then
    decides)."""
    size = _fft_size(len_a + len_b - 1)
    scale = math.sqrt(len_a * len_b) * _FFT_ERROR * math.log2(size)
    for w in range(25, 0, -1):  # the bound needs 2w <= 51 at any length
        limbs_a, limbs_b = -(-bits_a // w), -(-bits_b // w)
        if min(limbs_a, limbs_b) * (2**w - 1) ** 2 * scale <= 2.0**51:
            break
    return size, w, limbs_a, limbs_b


def _limbs(arr: np.ndarray, w: int, count: int):
    """The count w-bit limbs of a nonnegative count array, low first, as
    float64; an object array is first cut into int64 words of whole limbs."""
    if arr.dtype == object:
        step = 62 // w
        span = w * step
        words = [((arr >> (span * j)) & ((1 << span) - 1)).astype(np.int64) for j in range(-(-count // step))]
    else:
        step, words = count, [arr]
    for i in range(count):
        yield ((words[i // step] >> (w * (i % step))) & ((1 << w) - 1)).astype(np.float64)


def _join(words: list[np.ndarray], span: int) -> np.ndarray:
    """sum_j words[j] * 2^(span j) for int64 words of span <= 62 bits, as a
    count array: int64 when every entry fits, else one object pass."""
    if len(words) == 1:
        return words[0]
    if words[1].max() < 1 << (63 - span) and not any(word.any() for word in words[2:]):
        return (words[1] << span) | words[0]
    out = words[-1].astype(object)
    for word in reversed(words[:-1]):
        out = (out << span) | word.astype(object)
    return out


def _output_limb(fa: list[np.ndarray], fb: list[np.ndarray], k: int, size: int, keep: int) -> np.ndarray:
    """Output limb k of the FFT kernel, sum_{i+j=k} x_i * y_j, from the limb
    spectra: the first keep entries as int64, each checked to lie within
    1/4 of an integer before it is rounded."""
    lo, hi = max(0, k - len(fb) + 1), min(k, len(fa) - 1)
    twice = fa is fb and lo < k - lo  # a square: each pair i < k - i once, doubled exactly
    spectrum = fa[lo] * fb[k - lo]
    for i in range(lo + 1, (k - 1) // 2 + 1 if twice else hi + 1):
        spectrum += fa[i] * fb[k - i]
    if twice:
        spectrum *= 2
        if k % 2 == 0:
            spectrum += fa[k // 2] * fa[k // 2]
    limb = np.fft.irfft(spectrum, size)[:keep]
    rounded = np.rint(limb)
    limb -= rounded
    if np.abs(limb, out=limb).max() > 0.25:
        raise FloatingPointError(f"FFT rounding error past 1/4 in output limb {k}")
    return rounded.astype(np.int64)


def _fft_product(a: np.ndarray, b: np.ndarray, keep: int, bound: int, plan: tuple[int, int, int, int]) -> np.ndarray:
    """The first keep entries of a*b by the split-limb FFT kernel under
    plan (_fft_plan's), for nonnegative operands of at most keep entries
    every product entry of which is below bound.

    Each output limb is carried into the words as it comes, so that one
    output limb at a time is held, and the spectra are freed before the
    words are joined."""
    size, w, limbs_a, limbs_b = plan
    fa = [np.fft.rfft(x, size) for x in _limbs(a, w, limbs_a)]
    fb = fa if b is a else [np.fft.rfft(y, size) for y in _limbs(b, w, limbs_b)]
    step = 62 // w
    words, carry = [], 0
    for k in range(max(limbs_a + limbs_b - 1, -(-(bound - 1).bit_length() // w))):
        if k < limbs_a + limbs_b - 1:
            carry = carry + _output_limb(fa, fb, k, size, keep)
        if k % step == 0:
            words.append(np.zeros(keep, dtype=np.int64))
        words[-1] |= (carry & ((1 << w) - 1)) << (w * (k % step))
        carry >>= w
    del fa, fb
    return _join(words, w * step)


def _product(a: np.ndarray, b: np.ndarray, trunc: int | None) -> np.ndarray:
    """The first trunc entries (all when None) of the exact product of two
    int64 or object arrays: int64 when every entry fits, object otherwise."""
    if not len(a) or not len(b) or trunc == 0:
        return np.zeros(0, dtype=np.int64)
    out_len = len(a) + len(b) - 1
    keep = out_len if trunc is None else min(trunc, out_len)
    # entries past keep reach no kept output; a square stays one object
    a, b = (a[:keep],) * 2 if b is a else (a[:keep], b[:keep])
    short = len(a) * len(b) <= _SCHOOLBOOK_CAP
    negative = a.min() < 0 or b.min() < 0
    if negative and not short:
        raise PreconditionError("an exact product needs nonnegative entries beyond the schoolbook cap")
    max_a, max_b = int(a.max()), int(b.max())
    bound = None if negative else min(count_total(a) * max_b, count_total(b) * max_a) + 1
    if short:
        if bound is None or bound > 1 << 63:  # int64 products or sums could wrap
            a, b = a.astype(object), b.astype(object)
        return count_array(np.convolve(a, b)[:keep])
    plan = _fft_plan(len(a), len(b), max(1, max_a.bit_length()), max(1, max_b.bit_length()))
    size, _, limbs_a, limbs_b = plan
    transforms = (limbs_a if b is a else limbs_a + limbs_b) + limbs_a + limbs_b - 1
    if bound <= 1 << 63 and _direct_work(a, b, keep) <= transforms * size * math.log2(size) * _FFT_COST:
        return _direct(a, b, keep)
    return _fft_product(a, b, keep, bound, plan)


def _operands(a: list[int], b: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """a and b as arrays for _product, a square kept as one object."""
    arr_a = count_array(a)
    return arr_a, arr_a if b is a else count_array(b)


def exact_product(a: list[int] | np.ndarray, b: list[int] | np.ndarray, trunc: int | None = None) -> np.ndarray:
    """Exact convolution of integer vectors (nonnegative beyond the
    schoolbook cap), as an int64 array (object when an entry reaches 2^63).

    trunc keeps only the first trunc output entries (those are still
    exact: truncation only discards high-index terms). Passing the same
    object as a and b (a square) costs one set of forward transforms
    instead of two on the FFT kernel.
    """
    if trunc is not None:
        require_integers(0, trunc=trunc)
    return _product(*_operands(a, b), trunc)


def cyclic_convolve(a: list[int] | np.ndarray, b: list[int] | np.ndarray, m: int) -> np.ndarray:
    """Exact cyclic convolution modulo index m (histogram composition) of
    two count vectors, as an int64 array (object when an entry reaches
    2^63)."""
    if len(a) != m or len(b) != m:
        raise PreconditionError("cyclic_convolve needs both vectors of length m")
    if not m:
        return np.zeros(0, dtype=np.int64)
    lin = _product(*_operands(a, b), None)
    if lin.dtype != object and (lin.max() >= 1 << 62 or lin.min() < -(1 << 62)):
        # the fold adds two entries; below 2^62 in magnitude the sum fits
        lin = lin.astype(object)
    out = lin[:m].copy()
    out[: m - 1] += lin[m:]
    return count_array(out)


def _binary_power(base, t: int, mul):
    """The t-fold product of base under mul, by left-to-right binary
    powering: for each bit of t after the leading one, square, then
    multiply by base if the bit is set. That makes floor(log2 t) +
    popcount(t) - 1 products, each a square or a product with base."""
    require_integers(1, t=t)
    result = base
    for bit in bin(t)[3:]:
        result = mul(result, result)
        if bit == "1":
            result = mul(result, base)
    return result


def convolution_power(base: list[int] | np.ndarray, t: int, trunc: int) -> np.ndarray:
    """base^(*t) truncated and zero-padded to trunc entries, by binary
    powering, as an int64 array (object when an entry reaches 2^63)."""
    require_integers(0, trunc=trunc)
    result = _binary_power(count_array(base[:trunc]), t, lambda a, b: _product(a, b, trunc))
    out = np.zeros(trunc, dtype=result.dtype)
    out[: len(result)] = result
    return out


def cyclic_power(base: list[int] | np.ndarray, t: int, m: int) -> np.ndarray:
    """t-fold cyclic convolution power (t >= 1) of a length-m histogram,
    as cyclic_convolve returns it."""
    return _binary_power(count_array(base), t, lambda a, b: cyclic_convolve(a, b, m))


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
