"""Acceptance criteria, one test per criterion.

Each test prints one `[acceptance] criterion N ...: PASS/FAIL` line (run
pytest with -s or -rA to see them) and then asserts.  Tolerances are the
contract values; nothing is recalibrated here.
"""

import math
import time

import numpy as np
import pytest

from kuiper_hoe.baselines import modified_quantile, stephens_cdf_small_v, stephens_utp
from kuiper_hoe.gof import EdfScheme, SampleSet, compute_vn
from kuiper_hoe.montecarlo import SimConfig, normal_cdf, simulate_type1
from kuiper_hoe.series import b_series, cdf_kn, cdf_vn
from kuiper_hoe.solver import (f_nlm, kuiper_inv_cdf, kuiper_ltq,
                               kuiper_pair_solver, kuiper_utq)

from conftest import empirical_cdf, empirical_tail
from table_data import PAIR_TABLES, type1_value
from test_series import kuiper_limit_a, kuiper_limit_b

ACCEPTANCE_SEED = 20240611


def report(num, name, failures, detail=""):
    status = "PASS" if not failures else "FAIL"
    line = f"[acceptance] criterion {num} ({name}): {status}"
    if detail:
        line += f" -- {detail}"
    print(line)
    for item in failures[:20]:
        print(f"    {item}")
    assert not failures, (f"criterion {num} ({name}): {len(failures)} failing "
                          f"checks, first: {failures[0]}")


def test_criterion_1_table_reproduction():
    failures = []
    start = time.perf_counter()
    for alpha, rows in PAIR_TABLES.items():
        for n, pairs in rows.items():
            for k, (c_ref, v_ref) in enumerate(pairs, start=1):
                pair = kuiper_pair_solver(alpha, n, k)
                if abs(pair.c - c_ref) > 1e-4 or abs(pair.v - v_ref) > 1e-4:
                    failures.append(
                        f"alpha={alpha} n={n} k={k}: got ({pair.c:.5f}, "
                        f"{pair.v:.5f}) want ({c_ref}, {v_ref})")
    elapsed = time.perf_counter() - start
    corrected = kuiper_pair_solver(0.01, 30, 1)
    if abs(corrected.c - 1.9252) > 1e-4 or abs(corrected.v - 0.3515) > 1e-4:
        failures.append("corrected entry (0.01, 30, 1) missed")
    if elapsed >= 10.0:
        failures.append(f"sweep took {elapsed:.1f}s, budget 10s")
    report(1, "table reproduction", failures,
           f"465 cells in {elapsed:.2f}s")


def test_criterion_2_guards():
    failures = []
    for alpha in (0.9999, 0.99995, 1.0):
        for n, k in ((6, 1), (10, 3), (100, 5)):
            if kuiper_utq(alpha, n, k) != 0.0:
                failures.append(f"utq({alpha}, {n}, {k}) != 0")
    for alpha in (0.0001, 0.00005):
        for n, k in ((6, 1), (10, 3), (100, 5)):
            if kuiper_ltq(alpha, n, k) != 0.0:
                failures.append(f"ltq({alpha}, {n}, {k}) != 0")
    report(2, "quantile guards", failures)


def test_criterion_3_solver_cross_validation():
    failures = []
    for n, pairs in PAIR_TABLES[0.05].items():
        for k in range(1, 6):
            newton = kuiper_pair_solver(0.05, n, k)
            direct = kuiper_pair_solver(0.05, n, k, method="direct")
            if abs(newton.c - direct.c) > 1e-4 or abs(newton.v - direct.v) > 1e-4:
                failures.append(f"methods disagree at n={n} k={k}")
            for pair in (newton, direct):
                if abs(f_nlm(pair.c, 0.05, n, k)) > 1e-4:
                    failures.append(f"residual {pair.residual:.2e} at n={n} k={k}")
    report(3, "direct vs newton", failures)


def test_criterion_4_series_vs_monte_carlo(vn_mc):
    failures = []
    start = time.perf_counter()
    grid = np.arange(1.0, 2.4001, 0.2)

    kn10 = vn_mc(10, reps=200_000, seed=ACCEPTANCE_SEED) * math.sqrt(10)
    sup10 = max(abs(float(cdf_kn(c, 10, 5)) - empirical_cdf(kn10, c))
                for c in grid)
    if sup10 > 0.005:
        failures.append(f"n=10 k=5 sup-deviation {sup10:.4f} > 0.005")

    kn6 = vn_mc(6, reps=200_000, seed=ACCEPTANCE_SEED) * math.sqrt(6)
    dev1 = max(abs(float(cdf_kn(c, 6, 1)) - empirical_cdf(kn6, c))
               for c in grid)
    dev5 = max(abs(float(cdf_kn(c, 6, 5)) - empirical_cdf(kn6, c))
               for c in grid)
    if not dev1 > dev5:
        failures.append(f"n=6: max-dev k=1 ({dev1:.4f}) not above k=5 "
                        f"({dev5:.4f})")
    elapsed = time.perf_counter() - start
    if elapsed >= 120.0:
        failures.append(f"took {elapsed:.0f}s, budget 120s")
    report(4, "series vs exact-statistic MC", failures,
           f"sup10={sup10:.4f} dev1={dev1:.4f} dev5={dev5:.4f} "
           f"in {elapsed:.1f}s")


def test_criterion_5_type1_calibration():
    failures = []
    start = time.perf_counter()
    details = []
    for n, k in ((6, 5), (10, 1), (10, 5), (100, 2), (180, 3)):
        cfg = SimConfig(n=n, alpha=0.05, k_set=(k,), n_rep=10_000,
                        seed=ACCEPTANCE_SEED, scheme=EdfScheme.SCHEME0)
        est = simulate_type1(cfg).p_type1[f"hoe_k{k}"]
        ref = type1_value(n, k)
        tol = 3.0 * math.sqrt(est * (1.0 - est) / 10_000) + 0.003
        details.append(f"({n},{k}): est={est:.4f} ref={ref:.4f} tol={tol:.4f}")
        if est > 0.05:
            failures.append(f"({n},{k}): estimate {est:.4f} above alpha")
        if abs(est - ref) > tol:
            failures.append(f"({n},{k}): |{est:.4f} - {ref:.4f}| > {tol:.4f}")
    elapsed = time.perf_counter() - start
    if elapsed >= 300.0:
        failures.append(f"took {elapsed:.0f}s, budget 300s")
    report(5, "Type I error calibration", failures,
           "; ".join(details) + f" in {elapsed:.1f}s")


def test_criterion_6_duality_and_round_trip():
    failures = []
    # lower-tail levels whose complements are solvable upper-tail levels
    for alpha in (0.3, 0.4, 0.5, 0.6, 0.8, 0.9, 0.95, 0.99, 0.995):
        for n, k in ((6, 1), (20, 3), (100, 5)):
            if kuiper_ltq(alpha, n, k) != kuiper_utq(1.0 - alpha, n, k):
                failures.append(f"duality broken at alpha={alpha} n={n} k={k}")
    for x in (0.6, 0.9, 0.95, 0.99):
        for n in (6, 20, 100):
            v = kuiper_inv_cdf(x, n, 5)
            gap = abs(float(cdf_vn(v, n, 5)) - x)
            if gap > 1e-3:
                failures.append(f"round trip x={x} n={n}: gap {gap:.2e}")
    report(6, "duality and CDF round trip", failures)


def test_criterion_7_baseline_limit():
    failures = []
    for alpha, c_ref in ((0.05, 1.7469), (0.01, 2.0006)):
        got = modified_quantile(alpha)
        if abs(got - c_ref) > 5e-4:
            failures.append(f"alpha={alpha}: {got:.5f} vs {c_ref}")
    report(7, "modified-statistic quantile limit", failures)


def test_criterion_8_property_suites(vn_mc):
    failures = []

    # CDF monotonicity on the contract grid, every order, n >= 6
    grid = np.arange(1.0, 3.0001, 0.01)
    for n in (6, 7, 8, 9, 10, 20, 50, 10**6):
        for k in range(1, 6):
            values = [float(cdf_kn(c, n, k)) for c in grid]
            drops = [(grid[i], values[i + 1] - values[i])
                     for i in range(len(values) - 1)
                     if values[i + 1] < values[i]]
            if drops:
                c_bad, delta = min(drops, key=lambda item: item[1])
                failures.append(f"monotonicity: n={n} k={k} dips {delta:.1e} "
                                f"near c={c_bad:.2f}")

    # B_0/B_1 equivalence with independently coded limit functions
    for c in np.linspace(0.6, 3.0, 49):
        if abs(b_series(0, c) - kuiper_limit_a(c)) > 1e-12 or \
           abs(b_series(1, c) - kuiper_limit_b(c)) > 1e-12:
            failures.append(f"limit function mismatch at c={c:.3f}")

    # permutation and monotone-transform invariance on randomized fixtures
    rng = np.random.default_rng(ACCEPTANCE_SEED)
    for trial in range(50):
        n = int(rng.integers(2, 40))
        data = rng.normal(size=n) * 3.0
        base = compute_vn(SampleSet(tuple(data)), normal_cdf)
        perm = rng.permutation(data)
        if compute_vn(SampleSet(tuple(perm)), normal_cdf) != base:
            failures.append(f"permutation invariance broken on trial {trial}")
        a = float(rng.uniform(0.1, 4.0))
        b = float(rng.uniform(-5.0, 5.0))
        mapped = tuple(a * x + b for x in data)
        got = compute_vn(SampleSet(mapped), lambda y: normal_cdf((y - b) / a))
        if any(abs(g - r) > 1e-12 for g, r in zip(got, base)):
            failures.append(f"transform invariance broken on trial {trial}")

    # simulate determinism: the same configuration, run twice
    cfg = SimConfig(n=10, k_set=(1, 5), n_rep=300, seed=ACCEPTANCE_SEED)
    if simulate_type1(cfg).p_type1 != simulate_type1(cfg).p_type1:
        failures.append("simulate changed between two runs of one config")

    report(8, "property suites", failures)


def test_criterion_9_stephens_formulas(vn_mc):
    failures = []
    for n in range(4, 13):
        seam = 2.0 / n
        below = float(stephens_cdf_small_v(seam * (1 - 1e-12), n))
        above = float(stephens_cdf_small_v(seam * (1 + 1e-12), n))
        if abs(above - below) > 1e-9:
            failures.append(f"seam discontinuity {above - below:.2e} at n={n}")
    v10 = vn_mc(10, reps=200_000, seed=ACCEPTANCE_SEED)
    details = []
    for v in (0.5, 0.6, 0.7):
        mc = empirical_tail(v10, v)
        got = float(stephens_utp(v, 10))
        details.append(f"v={v}: formula={got:.4f} mc={mc:.4f}")
        if abs(got - mc) > 0.01:
            failures.append(f"tail at v={v}: |{got:.4f} - {mc:.4f}| > 0.01")
    report(9, "Stephens formulas", failures, "; ".join(details))
