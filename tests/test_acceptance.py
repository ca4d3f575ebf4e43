"""Acceptance gate: eleven pass/fail criteria, one printed line each.

Criterion 8 is a known honest failure at desk scale; see the README
(Tests) and ROADMAP open item 4 for the analysis and the measured windows.
Every other criterion passes at the stated tolerance.
"""

import math
import os
import random
import subprocess
import sys
import time
from itertools import product

import pytest

import waringtk
from waringtk.arcs import major_residual_sweep, weyl_bound_sweep
from waringtk.convolve import exact_product, schoolbook_convolve
from waringtk.expsums import s_form, s_form_direct, s_k, w_q, weight_bound_sweep
from waringtk.integral import j_prime_exact, j_prime_main_term
from waringtk.local import verify_local_solubility
from waringtk.params import delta_r
from waringtk.represent import (
    count_conje,
    count_enumerate,
    count_theorem13,
    window_ratio,
)
from waringtk.singular import snm_identity_check
from waringtk.smooth import default_y_grid, density_report, grid_exponent


def _report(capsys, idx, ok, detail):
    with capsys.disabled():
        print(f"[criterion {idx:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {idx}: {detail}"


def test_criterion_01_snm_identity(capsys):
    worst = 0.0
    for p in (2, 3, 5, 7):
        for h in (1, 2, 3):
            q = p**h
            if q > 200:
                continue
            for k, l, t, s in ((2, 2, 8, 1), (2, 2, 8, 2), (3, 2, 8, 1)):
                for n in range(q):
                    worst = max(worst, snm_identity_check(p, h, n, k, l, t, s))
    _report(capsys, 1, worst <= 1e-8, f"partial-sum identity, worst residual {worst:.3g} <= 1e-8")


def test_criterion_02_u_reduction(capsys):
    worst = 0.0
    for q in range(2, 6):
        for t in (1, 2, 3):
            for k in (2, 3):
                for l in (2, 3):
                    for a in range(1, q):
                        if math.gcd(a, q) != 1:
                            continue
                        d = abs(s_form(q, a, k, l, t) - s_form_direct(q, a, k, l, t))
                        worst = max(worst, d)
    _report(capsys, 2, worst <= 1e-9, f"u-sum reduction vs enumeration, worst {worst:.3g} <= 1e-9")


def test_criterion_03_crt_multiplicativity(capsys):
    # the sums are unnormalized (|S(q,a)| reaches ~1e10 at q ~ 750), so the
    # 1e-9 tolerance is per term: |lhs - rhs| <= 1e-9 * (term count)
    from waringtk.arith import euler_phi

    k, l, t = 2, 2, 4
    worst = 0.0
    for q1 in range(2, 31):
        for q2 in range(q1 + 1, 31):
            if math.gcd(q1, q2) != 1:
                continue
            q = q1 * q2
            for a in (1, q - 1):
                if math.gcd(a, q) != 1:
                    continue
                a1 = a * pow(q2, -1, q1) % q1
                a2 = a * pow(q1, -1, q2) % q2
                for f, terms in (
                    (lambda qq, aa: s_form(qq, aa, k, l, t), q**t),
                    (lambda qq, aa: s_k(qq, aa, k), q),
                    (lambda qq, aa: w_q(qq, aa, k), euler_phi(q)),
                ):
                    lhs = f(q, a)
                    rhs = f(q1, a1) * f(q2, a2)
                    worst = max(worst, abs(lhs - rhs) / terms)
    # exact multiplicativity of the (normalized) local sums S_n, S'_n
    from waringtk.singular import s_n_prime_q, s_n_q

    for q1, q2 in ((3, 4), (5, 9), (7, 8), (4, 25), (27, 28), (29, 30)):
        for n in (0, 1, 5):
            for g in (s_n_q, s_n_prime_q):
                lhs = g(q1 * q2, n, k, l, t, 1)
                rhs = g(q1, n, k, l, t, 1) * g(q2, n, k, l, t, 1)
                worst = max(worst, abs(lhs - rhs))
    _report(capsys, 3, worst <= 1e-9, f"CRT (quasi-)multiplicativity, worst per-term {worst:.3g} <= 1e-9")


def test_criterion_04_gauss_magnitude(capsys):
    worst = 0.0
    p = 3
    while p <= 200:
        if all(p % d for d in range(2, p)):
            for a in range(1, p):
                worst = max(worst, abs(abs(s_k(p, a, 2)) - math.sqrt(p)))
        p += 2
    _report(capsys, 4, worst <= 1e-9, f"Gauss sum |S_2(p,a)| = sqrt(p), worst {worst:.3g} <= 1e-9")


def test_criterion_05_analytic_factor(capsys):
    ok = True
    worst_pair = None
    for k, l, xi in ((2, 2, 5), (2, 2, 8), (3, 2, 9)):
        for s in (2, 3):
            for n in (10**3, 10**4, 10**5):
                exact = j_prime_exact(n, s, xi, k, l)
                main, B = j_prime_main_term(n, s, xi, k, l)
                dev = abs(exact - main) / main
                if dev > 5 * B:
                    ok = False
                    worst_pair = (k, l, xi, s, n, dev, 5 * B)
        # closed form at xi = kl
        for n in (10**3, 10**4):
            if abs(j_prime_exact(n, 2, k * l, k, l) - (n - 1) / k**2) > 1e-9 * n:
                ok = False
    _report(capsys, 5, ok, "analytic factor within 5 B(n) of its main term" if ok else f"deviation exceeds bound at {worst_pair}")


def test_criterion_06_local_solubility(capsys):
    ok = True
    for p in (2, 3, 5, 7, 11, 13):
        rep = verify_local_solubility(p, 2, 2, 8, 2, which="M")
        ok = ok and rep.all_positive
        # s = 5 satisfies the restricted-variable hypothesis at every p
        # (and is required at p = k = 2)
        rep = verify_local_solubility(p, 2, 2, 8, 5, which="Mstar")
        ok = ok and rep.all_positive
    _report(capsys, 6, ok, "local counts positive in every residue class, p <= 13")


def test_criterion_07_counting_oracles(capsys):
    ok = True
    for n_max, k, l, t, s, r in (
        (5000, 2, 2, 2, 1, 0),
        (2000, 2, 2, 2, 1, 1),
        (600, 2, 2, 2, 2, 0),
        (400, 2, 2, 4, 1, 1),
        (1500, 3, 2, 2, 1, 0),
        (300, 2, 3, 2, 1, 1),
    ):
        assert s * t <= 16
        ok = ok and list(count_conje(n_max, k, l, t, s, r).entries) == count_enumerate(n_max, k, l, t, s, r)
    for n_max, k, l, xi, s in ((800, 2, 2, 2, 2), (2000, 2, 2, 3, 1)):
        brute = [0] * (n_max + 1)
        bound = int(n_max ** (1 / k)) + 1
        for z in product(range(1, bound), repeat=xi * s):
            v = sum(sum(z[i * xi + j] ** l for j in range(xi)) ** k for i in range(s))
            if v <= n_max:
                brute[v] += 1
        ok = ok and list(count_theorem13(n_max, k, l, xi, s).entries) == brute
    rng = random.Random(11)
    for _ in range(5):
        a = [rng.randrange(10**12) for _ in range(rng.randrange(200, 1200))]
        b = [rng.randrange(10**12) for _ in range(rng.randrange(200, 1200))]
        ok = ok and exact_product(a, b).tolist() == schoolbook_convolve(a, b)
    _report(capsys, 7, ok, "convolution counts equal nested-loop brute force; FFT route equals schoolbook")


def test_criterion_08_main_term_window(capsys):
    """KNOWN FAILURE (honest red) — see ROADMAP open item 4 and CHANGES.md.

    Each of the s = 6 positive-variable factors undershoots its main term
    by a boundary deficit ~ 1 - c m^(-1/2); compounded, the window ratio
    over [1e5, 2e5] is ~ 0.127, far below the required [0.5, 2.0].  The
    trend clause (deviation shrinking as n doubles) does hold.
    """
    k, l, xi, s = 2, 2, 5, 6
    vec = count_theorem13(2 * 10**5, k, l, xi, s)
    ratio = window_ratio(vec, 10**5, 2 * 10**5, k, l, xi, s)
    r_lo = window_ratio(vec, 95000, 105000, k, l, xi, s)
    r_hi = window_ratio(vec, 190000, 200000, k, l, xi, s)
    trend_ok = abs(r_hi - 1) <= abs(r_lo - 1)
    bracket_ok = 0.5 <= ratio <= 2.0
    detail = (
        f"window ratio {ratio:.4f} in [0.5, 2.0]: {bracket_ok}; "
        f"deviation shrinks ({abs(r_hi - 1):.3f} <= {abs(r_lo - 1):.3f}): {trend_ok} "
        "(known desk-scale failure, see ROADMAP open item 4 and CHANGES.md)"
    )
    _report(capsys, 8, bracket_ok and trend_ok, detail)


def test_criterion_09_diagnostic_stability(capsys):
    ok = True
    details = []
    for which in ("Sk", "W"):
        a, b = weight_bound_sweep(60, 2, which), weight_bound_sweep(120, 2, which)
        ok = ok and max(a, b) < 2 * min(a, b)
        details.append(f"{which} {b / a:.3f}")
    a = major_residual_sweep(62500, 2, 2, 8, Q=5, sample_count=16, seed=0)
    b = major_residual_sweep(10**6, 2, 2, 8, Q=5, sample_count=16, seed=0)
    ok = ok and max(a, b) < 2 * min(a, b)
    details.append(f"residual {b / a:.3f}")
    a = weyl_bound_sweep(10**4, 2, 2, 8, sample_count=16, seed=0)
    b = weyl_bound_sweep(16 * 10**4, 2, 2, 8, sample_count=16, seed=0)
    ok = ok and max(a, b) < 2 * min(a, b)
    details.append(f"weyl {b / a:.3f}")
    _report(capsys, 9, ok, "range-doubling factors " + ", ".join(details) + " all < 2")


def test_criterion_10_density_exponent(capsys):
    ok = True
    details = []
    for r, l in ((2, 2), (3, 2), (2, 3)):
        rows = density_report(r, l, default_y_grid(r, l))
        g = grid_exponent(rows)
        need = l - l * delta_r(r, l) - 0.5
        ok = ok and g >= need
        details.append(f"(r={r},l={l}) {g:.3f} >= {need:.3f}")
    _report(capsys, 10, ok, "; ".join(details))


CLI_BATTERY = [
    ["sieve", "--l", "2", "--t", "8", "--limit", "2000"],
    ["density", "--r", "2", "--l", "2"],
    ["expsum", "--q", "49", "--a", "3", "--k", "2", "--l", "2", "--t", "8"],
    ["local", "--p", "3", "--h", "2", "--n", "4", "--k", "2", "--l", "2", "--t", "8", "--s", "2"],
    ["series", "trunc", "--n", "100", "--Q", "100", "--k", "2", "--l", "2", "--t", "8", "--s", "2"],
    ["series", "snm", "--p", "3", "--h", "2", "--k", "2", "--l", "2", "--t", "8", "--s", "1", "--n", "4"],
    ["series", "positivity", "--n-lo", "2", "--n-hi", "30", "--k", "2", "--l", "2", "--t", "8", "--s", "2"],
    ["integral", "jprime", "--n", "10000", "--s", "3", "--xi", "5", "--k", "2", "--l", "2"],
    ["integral", "udecay", "--n", "2000", "--t", "8", "--k", "2", "--l", "2", "--samples", "20", "--seed", "1"],
    ["arcs", "residual", "--n", "62500", "--k", "2", "--l", "2", "--t", "8", "--Q", "5"],
    ["arcs", "weyl", "--n", "10000", "--k", "2", "--l", "2", "--t", "8"],
    ["arcs", "classify", "--alpha", "0.6181", "--n", "100000", "--Q", "20"],
    ["arcs", "vmv", "--s", "2", "--ksys", "2", "--r", "2", "--Y", "20"],
    ["count", "conje", "--nmax", "3000", "--k", "2", "--l", "2", "--t", "8", "--s", "1", "--r", "1"],
    ["count", "thm13", "--nmax", "20000", "--k", "2", "--l", "2", "--xi", "5", "--s", "6"],
    ["count", "main-term", "--k", "2", "--l", "2", "--xi", "5", "--s", "6", "--n", "20000"],
    ["count", "k2", "--t", "2", "--X", "30"],
    ["report", "--k", "2", "--l", "2", "--t", "8", "--xi", "5", "--n", "100000"],
]


def test_criterion_11_cli_suite(capsys, tmp_path):
    src = os.path.dirname(os.path.dirname(waringtk.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    t0 = time.time()
    failed = []
    for argv in CLI_BATTERY:
        proc = subprocess.run(
            [sys.executable, "-m", "waringtk.cli", *argv, "--cache-dir", str(tmp_path)],
            capture_output=True,
            text=True,
            env=env,
        )
        if proc.returncode != 0 or not proc.stdout.strip():
            failed.append((argv[0], proc.returncode, proc.stderr.strip()[:120]))
    elapsed = time.time() - t0
    ok = not failed and elapsed < 1800
    detail = f"{len(CLI_BATTERY)} CLI invocations in {elapsed:.1f}s" if ok else f"failures: {failed}"
    _report(capsys, 11, ok, detail)
