import math
import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waringtk.errors import PreconditionError, ResourceError
from waringtk.powersets import (
    CACHE_MAGIC,
    CACHE_VERSION,
    PowerSumTable,
    distinct_count,
    power_indicator,
    read_table_cache,
    rep_count_enumerate,
    rep_count_table,
    write_table_cache,
)
from waringtk.smooth import (
    default_y_grid,
    density_report,
    grid_exponent,
    realized_smoothness_bound,
    restricted_power_sums,
    smooth_set,
)


def test_rho_small_example():
    # l=2, t=2: rho[2] = 1 via (1,1); rho[5] = 2 via (1,2),(2,1)
    table = rep_count_table(2, 2, 10)
    assert table.rho[2] == 1
    assert table.rho[5] == 2
    assert table.rho[3] == 0
    assert table.rho[8] == 1  # (2,2)


@pytest.mark.parametrize("l,t,N", [(2, 1, 100), (2, 2, 400), (2, 3, 200), (3, 2, 500), (4, 3, 300)])
def test_convolution_equals_enumeration(l, t, N):
    assert list(rep_count_table(l, t, N).rho) == rep_count_enumerate(l, t, N)


def test_distinct_count_monotone_in_t():
    # adding a variable with value 1 shifts values by 1
    for t in (1, 2, 3):
        big = rep_count_table(2, t + 1, 300)
        small = rep_count_table(2, t, 300)
        assert distinct_count(big, 300) >= distinct_count(small, 299)


@pytest.mark.parametrize("limit", [-3, -40])
def test_distinct_count_rejects_a_negative_limit(limit):
    """rho[1 : limit + 1] would count from the end of the table."""
    with pytest.raises(PreconditionError):
        distinct_count(rep_count_table(2, 2, 50), limit)


def test_smooth_set_by_factorization():
    got = smooth_set(50, 3)
    want = [
        m
        for m in range(1, 51)
        if all(p in (2, 3) for p in _prime_factors(m))
    ]
    assert got == want


def _prime_factors(m):
    out = set()
    d = 2
    while d * d <= m:
        while m % d == 0:
            out.add(d)
            m //= d
        d += 1
    if m > 1:
        out.add(m)
    return out


def test_realized_smoothness_bound():
    assert realized_smoothness_bound(4, 0.25) == 2  # floor(4^0.25) = 1 -> clamp
    assert realized_smoothness_bound(10**4, 0.25) == 10


def test_restricted_power_sums_tiny():
    # r=1, l=2, Y=4, R=2: smooth = {1,2,4}; squares {1,4,16}
    out = restricted_power_sums(1, 2, 4)
    assert realized_smoothness_bound(4, 0.25) == 2 and out == (1, 4, 16)
    # r=2: pairwise sums
    out2 = restricted_power_sums(2, 2, 4)
    assert out2 == (2, 5, 8, 17, 20, 32)


def test_restricted_power_sums_budget():
    """r Y^l = 4 * 10^9 is past N_BUDGET, and is refused before any work."""
    with pytest.raises(ResourceError):
        restricted_power_sums(4, 3, 10**3)


@given(st.integers(min_value=5, max_value=200), st.integers(min_value=5, max_value=200))
@settings(max_examples=20, deadline=None)
def test_smooth_sums_monotone_in_y(y1, y2):
    # R = max(2, floor(Y^eta)) never falls as Y grows
    lo, hi = sorted((y1, y2))
    a = set(restricted_power_sums(2, 2, lo))
    b = set(restricted_power_sums(2, 2, hi))
    assert a <= b


def test_density_report_shape():
    rows = density_report(3, 2, [50, 100, 200])
    cards = [r["cardinality"] for r in rows]
    assert cards == sorted(cards)
    assert math.isnan(rows[0]["pair_slope"])
    assert rows[1]["pair_slope"] > 0
    assert rows[0]["reference_exponent"] == pytest.approx(2 - 2 * math.exp(1 - 3))


def test_grid_exponent_two_points():
    rows = density_report(2, 2, [100, 400])
    g = grid_exponent(rows)
    assert g == pytest.approx(
        math.log(rows[1]["cardinality"] / rows[0]["cardinality"]) / math.log(4)
    )


def test_power_indicator_matches_loop():
    for l in range(1, 5):
        for limit in range(-1, 2001):
            want = [0] * max(limit + 1, 0)
            x = 1
            while x**l <= limit:
                want[x**l] = 1
                x += 1
            got = power_indicator(l, limit)
            assert got.dtype == np.int64 and got.tolist() == want, (l, limit)


def test_default_y_grid_ends_at_the_exact_root():
    """r Y^l <= N_BUDGET at r = 10, l = 3 gives Y <= 100 exactly; a float
    cube root of 10^6 falls just below 100."""
    assert default_y_grid(10, 3) == [12, 25, 50, 100]


def test_default_y_grid_respects_budget():
    for r, l in [(2, 2), (3, 2), (2, 3), (3, 3)]:
        grid = default_y_grid(r, l)
        assert len(grid) == 4 and grid == sorted(grid)
        assert r * grid[-1] ** l <= 10**7


def test_cache_round_trip(tmp_path):
    table = rep_count_table(2, 8, 500)
    path = os.path.join(tmp_path, "tables", "l2_t8_N500.bin")
    write_table_cache(table, path)
    back = read_table_cache(path)
    assert (back.l, back.t, back.limit) == (2, 8, 500)
    assert back.rho.dtype == np.int64 and back.rho.tolist() == table.rho.tolist()
    assert not back.rho.flags.writeable


def test_cache_bytes_follow_the_struct_layout(tmp_path):
    """magic, version u32, l/t/limit u64 little-endian, then one u64 per count."""
    table = rep_count_table(2, 3, 40)
    path = os.path.join(tmp_path, "t.bin")
    write_table_cache(table, path)
    rho = table.rho.tolist()
    want = CACHE_MAGIC + struct.pack("<I", CACHE_VERSION) + struct.pack("<QQQ", 2, 3, 40)
    with open(path, "rb") as fh:
        assert fh.read() == want + struct.pack(f"<{len(rho)}Q", *rho)


def test_cache_round_trips_counts_past_int64(tmp_path):
    """An entry in [2^63, 2^64) is written as its u64 and read back as a Python int."""
    rho = [1, 0, 2**63, 2**64 - 1, 5]
    path = os.path.join(tmp_path, "t.bin")
    write_table_cache(PowerSumTable(l=2, t=40, limit=4, rho=rho), path)
    back = read_table_cache(path)
    assert back.rho.dtype == object and back.rho.tolist() == rho
    with pytest.raises(PreconditionError):
        write_table_cache(PowerSumTable(l=2, t=40, limit=0, rho=[2**64]), path)


@pytest.mark.parametrize("l, t, limit", [(2**64, 1, 0), (2, 2**64, 0), (10**46, 1, 0)])
def test_cache_refuses_a_header_past_u64(tmp_path, l, t, limit):
    """The header holds l, t and limit as u64, so a table with one past u64
    has no cached form, and no file is left."""
    with pytest.raises(PreconditionError):
        write_table_cache(PowerSumTable(l=l, t=t, limit=limit, rho=[1]), os.path.join(tmp_path, "t.bin"))
    assert not os.listdir(tmp_path)


def test_cache_rejects_bad_magic(tmp_path):
    path = os.path.join(tmp_path, "bad.bin")
    with open(path, "wb") as fh:
        fh.write(b"NOPE" + b"\0" * 64)
    with pytest.raises(PreconditionError):
        read_table_cache(path)
