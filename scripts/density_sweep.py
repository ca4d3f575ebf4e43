"""Sweep |S_r(Y)| across the default grids and compare the empirical
log-log exponent with the reference l - l*delta_r.

Usage: python scripts/density_sweep.py [eta]
"""

import sys

from waringtk import smooth

eta = float(sys.argv[1]) if len(sys.argv) > 1 else smooth.DEFAULT_ETA

print("r,l,Y,cardinality,pointwise_exponent,pair_slope,reference_exponent,grid_exponent")
for r, l in [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3)]:
    grid = smooth.default_y_grid(r, l)
    rows = smooth.density_report(r, l, grid, eta)
    ge = smooth.grid_exponent(rows)
    for row in rows:
        print(
            f"{r},{l},{row['Y']},{row['cardinality']},{row['pointwise_exponent']:.6g},"
            f"{row['pair_slope']:.6g},{row['reference_exponent']:.6g},{ge:.6g}"
        )
