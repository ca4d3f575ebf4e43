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

from waringtk.arith import smallest_prime_factors
from waringtk.convolve import convolution_power
from waringtk.errors import PreconditionError, ResourceError
from waringtk.params import delta_r  # noqa: F401  (re-exported convenience)

N_BUDGET = 10**7
DEFAULT_ETA = 0.25
CACHE_MAGIC = b"WFC1"
CACHE_VERSION = 1
CACHE_HEADER_BYTES = 32  # magic, version u32, l/t/limit u64


@dataclass(frozen=True)
class PowerSumTable:
    """Exact ordered-representation counts rho over [0..limit]."""

    l: int
    t: int
    limit: int
    rho: tuple[int, ...]

    def __post_init__(self):
        if len(self.rho) != self.limit + 1:
            raise PreconditionError("rho length must be limit + 1")


@dataclass(frozen=True)
class SmoothPowerSumSet:
    """The distinct values of x_1^l + ... + x_r^l over R-smooth x_i <= Y."""

    r: int
    l: int
    Y: int
    R: int
    values: tuple[int, ...]


def power_indicator(l: int, limit: int) -> np.ndarray:
    """Vector with 1 at x^l for x >= 1, x^l <= limit, as an int64 array."""
    base = np.zeros(limit + 1, dtype=np.int64)
    x = 1
    while x**l <= limit:
        base[x**l] = 1
        x += 1
    return base


def rep_count_table(l: int, t: int, limit: int, budget: int = N_BUDGET) -> PowerSumTable:
    """rho via t successive convolutions of the single-power indicator."""
    if not 1 <= t <= 64:
        raise PreconditionError(f"need 1 <= t <= 64, got t={t}")
    if l < 1 or limit < 0:
        raise PreconditionError("need l >= 1 and limit >= 0")
    if limit > budget:
        raise ResourceError(f"limit {limit} exceeds budget {budget}")
    base = power_indicator(l, limit)
    rho = convolution_power(base, t, trunc=limit + 1)
    return PowerSumTable(l=l, t=t, limit=limit, rho=tuple(rho.tolist()))


def rep_count_enumerate(l: int, t: int, limit: int) -> list[int]:
    """Direct nested enumeration oracle (small instances only)."""
    if (limit + 1) ** t > 10**8:
        raise ResourceError("enumeration oracle instance too large")
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
    if limit > table.limit:
        raise PreconditionError("limit exceeds table coverage")
    return sum(1 for m in range(1, limit + 1) if table.rho[m] > 0)


def smooth_set(Y: int, R: int) -> list[int]:
    """Sorted R-smooth integers in [1, Y] (1 included vacuously)."""
    if Y < 1 or R < 1:
        raise PreconditionError("need Y >= 1 and R >= 1")
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


def restricted_power_sums(
    r: int,
    l: int,
    Y: int,
    eta: float = DEFAULT_ETA,
    R: int | None = None,
    budget: int = N_BUDGET,
) -> SmoothPowerSumSet:
    """S_r(Y): distinct sums of r l-th powers of smooth integers."""
    if r < 1 or Y < 0:
        raise PreconditionError(f"need r >= 1 and Y >= 0, got r={r}, Y={Y}")
    if r * Y**l > budget:
        raise ResourceError(f"r * Y^l = {r * Y ** l} exceeds budget")
    if R is None:
        R = realized_smoothness_bound(Y, eta)
    powers = [x**l for x in smooth_set(Y, R)]
    values = set(powers)
    for _ in range(r - 1):
        values = {a + b for a in values for b in powers}
    return SmoothPowerSumSet(r=r, l=l, Y=Y, R=R, values=tuple(sorted(values)))


def default_y_grid(r: int, l: int, budget: int = N_BUDGET) -> list[int]:
    """Four-point doubling grid ending at the largest Y with r Y^l within
    budget, capped at 400 (so l = 2 gives the standard 50/100/200/400)."""
    y_max = min(400, math.floor((budget / r) ** (1.0 / l)))
    if y_max < 16:
        raise PreconditionError("budget too small for a 4-point grid")
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
        card = len(restricted_power_sums(r, l, Y, eta).values)
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
    if any(c >= 1 << 64 for c in table.rho):
        raise PreconditionError("a count exceeds u64; refusing to write cache")
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(CACHE_MAGIC)
        fh.write(struct.pack("<I", CACHE_VERSION))
        fh.write(struct.pack("<QQQ", table.l, table.t, table.limit))
        fh.write(struct.pack(f"<{len(table.rho)}Q", *table.rho))
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
    rho = struct.unpack_from(f"<{limit + 1}Q", data, CACHE_HEADER_BYTES)
    return PowerSumTable(l=l, t=t, limit=limit, rho=rho)
