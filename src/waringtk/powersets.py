"""Power-sum value sets and smooth-number machinery.

rho[m] counts ordered tuples x in N_{>=1}^t with x_1^l + ... + x_t^l = m,
i.e. the t-fold convolution of the indicator of positive l-th powers.
S_r(Y) is the set of sums of r l-th powers of R-smooth integers in [1, Y]
with R realised as max(2, floor(Y^eta)).
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from waringtk.arith import kth_root, smallest_prime_factors
from waringtk.convolve import convolution_power, count_array, read_only_counts
from waringtk.errors import PreconditionError, require_integers, require_within, shown
from waringtk.params import delta_r

N_BUDGET = 10**7
DEFAULT_ETA = 0.25
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


def smooth_set(Y: int, R: int) -> list[int]:
    """Sorted R-smooth integers in [1, Y] (1 included vacuously)."""
    require_integers(1, Y=Y, R=R)
    if Y == 1:
        return [1]
    spf = smallest_prime_factors(Y)
    out = [1]
    for m in range(2, Y + 1):
        v = m
        while v > 1 and spf[v] <= R:
            p = spf[v]
            while v % p == 0:
                v //= p
        if v == 1:
            out.append(m)
    return out


def realized_smoothness_bound(Y: int, eta: float) -> int:
    """R = max(2, floor(Y^eta)); never degenerate at desk scale."""
    if not 0 < eta < 1:
        raise PreconditionError(f"eta must lie in (0,1), got {eta}")
    return max(2, math.floor(Y**eta))


def restricted_power_sums(r: int, l: int, Y: int, eta: float = DEFAULT_ETA) -> tuple[int, ...]:
    """S_r(Y): the sorted distinct sums of r l-th powers of R-smooth
    integers in [1, Y], R = realized_smoothness_bound(Y, eta)."""
    require_integers(1, r=r, l=l)
    require_integers(0, Y=Y)
    require_within(N_BUDGET, **{"r Y^l": (Y, l, r)})
    R = realized_smoothness_bound(Y, eta)
    powers = [x**l for x in smooth_set(Y, R)]
    values = set(powers)
    for _ in range(r - 1):
        values = {a + b for a in values for b in powers}
    return tuple(sorted(values))


def default_y_grid(r: int, l: int) -> list[int]:
    """Four-point doubling grid ending at the largest Y with r Y^l within
    N_BUDGET, capped at 400 (so l = 2 gives the standard 50/100/200/400)."""
    require_integers(1, r=r, l=l)
    y_max = min(400, kth_root(N_BUDGET // r, l))
    if y_max < 16:
        raise PreconditionError(f"r Y^l <= N_BUDGET keeps Y below 16, too small for a 4-point grid (r={shown(r)}, l={shown(l)})")
    return [y_max // 8, y_max // 4, y_max // 2, y_max]


def density_report(
    r: int,
    l: int,
    Y_grid: list[int],
    eta: float = DEFAULT_ETA,
) -> list[dict]:
    """One row per Y: cardinality, pointwise exponent log|S|/log Y, the
    consecutive-pair slope, and the reference exponent l - l*delta_r."""
    if len(Y_grid) < 1 or sorted(Y_grid) != list(Y_grid):
        raise PreconditionError("Y_grid must be ascending and nonempty")
    ref = l - l * delta_r(r, l)
    rows = []
    prev: tuple[int, int] | None = None
    for Y in Y_grid:
        card = len(restricted_power_sums(r, l, Y, eta))
        point = math.log(card) / math.log(Y) if Y > 1 and card > 0 else float("nan")
        if prev is not None and Y > prev[0]:
            slope = math.log(card / prev[1]) / math.log(Y / prev[0])
        else:
            slope = float("nan")
        rows.append(
            {
                "Y": Y,
                "cardinality": card,
                "pointwise_exponent": point,
                "pair_slope": slope,
                "reference_exponent": ref,
            }
        )
        prev = (Y, card)
    return rows


def grid_exponent(rows: list[dict]) -> float:
    """Log-log slope between the first and last grid rows."""
    y0, c0 = rows[0]["Y"], rows[0]["cardinality"]
    y1, c1 = rows[-1]["Y"], rows[-1]["cardinality"]
    if y1 == y0:
        raise PreconditionError("grid needs at least two distinct Y values")
    return math.log(c1 / c0) / math.log(y1 / y0)


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
