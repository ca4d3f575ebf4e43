"""Power-sum value sets: the representation-count table and its cache.

rho[m] counts ordered tuples x in N_{>=1}^t with x_1^l + ... + x_t^l = m,
i.e. the t-fold convolution of the indicator of positive l-th powers.
The smooth sets S_r(Y) and their density report live in waringtk.smooth.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from waringtk.arith import kth_root
from waringtk.convolve import convolution_power, count_array, read_only_counts
from waringtk.errors import PreconditionError, require_integers, require_within
from waringtk.smooth import N_BUDGET
from waringtk.smooth import density_report as density_report  # bench/workloads.run_op reads it here

CACHE_MAGIC = b"WFC1"
CACHE_VERSION = 1
CACHE_HEADER_BYTES = 32  # magic, version u32, l/t/limit u64
_U64 = np.dtype("<u8")  # a cached count


@dataclass(frozen=True, eq=False)
class PowerSumTable:
    """Exact ordered-representation counts rho over [0..limit].

    rho is a read-only copy of the given counts, in the count_array rule:
    an int64 array, or an object array of Python ints when an entry
    reaches 2^63."""

    l: int
    t: int
    limit: int
    rho: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rho", read_only_counts(self.rho))
        if len(self.rho) != self.limit + 1:
            raise PreconditionError("rho length must be limit + 1")


def power_indicator(l: int, limit: int) -> np.ndarray:
    """Vector with 1 at x^l for x >= 1, x^l <= limit, as an int64 array
    (empty when limit < 0)."""
    base = np.zeros(max(limit + 1, 0), dtype=np.int64)
    # numpy takes no exponent past a C long; an l past 62 leaves x = 1 alone
    base[np.arange(1, kth_root(max(limit, 0), l) + 1) ** min(l, 63)] = 1
    return base


def rep_count_table(l: int, t: int, limit: int) -> PowerSumTable:
    """rho via t successive convolutions of the single-power indicator."""
    require_integers(1, t=t, l=l)
    if t > 64:
        raise PreconditionError(f"need t <= 64, got t={t}")
    require_integers(0, limit=limit)
    require_within(N_BUDGET, limit=limit)
    base = power_indicator(l, limit)
    rho = convolution_power(base, t, trunc=limit + 1)
    return PowerSumTable(l=l, t=t, limit=limit, rho=rho)


def rep_count_enumerate(l: int, t: int, limit: int) -> list[int]:
    """Direct nested enumeration oracle (small instances only)."""
    require_within(10**8, **{"(limit+1)^t": (limit + 1, t)})
    rho = [0] * (limit + 1)

    def rec(depth: int, acc: int):
        if depth == t:
            rho[acc] += 1
            return
        x = 1
        while acc + x**l <= limit:
            rec(depth + 1, acc + x**l)
            x += 1

    rec(0, 0)
    if limit >= 0:
        rho[0] = 1 if t == 0 else rho[0]
    return rho


def distinct_count(table: PowerSumTable, limit: int) -> int:
    """#{m <= limit : rho[m] > 0}."""
    require_integers(0, limit=limit)
    if limit > table.limit:
        raise PreconditionError("limit exceeds table coverage")
    return int(np.count_nonzero(table.rho[1 : limit + 1]))


def write_table_cache(table: PowerSumTable, path: str) -> None:
    """Binary cache: magic, version u32, l/t/N u64 LE, then u64 counts.

    The file is written under a temporary name and renamed into place,
    so a reader never sees a partly written table."""
    if max(table.l, table.t, table.limit, table.rho.max(initial=0)) >= 1 << 64:
        raise PreconditionError("l, t, limit or a count exceeds u64; refusing to write cache")
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(CACHE_MAGIC)
        fh.write(struct.pack("<I", CACHE_VERSION))
        fh.write(struct.pack("<QQQ", table.l, table.t, table.limit))
        fh.write(table.rho.astype(_U64).tobytes())
    os.replace(tmp, path)


def read_table_cache(path: str) -> PowerSumTable:
    """Inverse of write_table_cache; PreconditionError unless the file is
    one whole table (header, then exactly limit + 1 counts)."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != CACHE_MAGIC:
        raise PreconditionError(f"bad cache magic {data[:4]!r}")
    if len(data) < CACHE_HEADER_BYTES:
        raise PreconditionError(f"cache file {path} ends inside its header")
    (version,) = struct.unpack_from("<I", data, 4)
    if version != CACHE_VERSION:
        raise PreconditionError(f"unsupported cache version {version}")
    l, t, limit = struct.unpack_from("<QQQ", data, 8)
    want = CACHE_HEADER_BYTES + 8 * (limit + 1)
    if len(data) != want:
        raise PreconditionError(f"cache file {path} has {len(data)} bytes, its header needs {want}")
    rho = count_array(np.frombuffer(data, dtype=_U64, offset=CACHE_HEADER_BYTES))
    return PowerSumTable(l=l, t=t, limit=limit, rho=rho)
