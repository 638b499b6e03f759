"""Independent references the benchmark checks the library's outputs against.

Nothing here imports kuiper_hoe.  The coefficient functions are written
out again from the paper's expansion

    Pr{K_n <= c} ~= sum_{i=0}^{k} B_i(c) / n^(i/2),
    B_i(c) = C_i + sum_{j>=1} b_ij(c) e^{-2 j^2 c^2},

so one formula serves both float arithmetic (fast checks) and mpmath
(checks at 1e-10).  The solver's two-exponential tail form is the j = 1, 2
part of the same sum, plus one correction: the published tables were
computed with a k >= 4 constant of A_2 that is 1920/972 above the series
value.
"""

from __future__ import annotations

import math

import numpy as np

# Constant term C_i of B_i, as exact fractions (numerator, denominator).
_B_CONSTANTS = ((1, 1), (0, 1), (-1, 18), (0, 1), (1, 648), (0, 1))

# Significance levels of the published critical-value tables.
REFERENCE_LEVELS = (0.01, 0.05, 0.10, 0.15, 0.20, 0.30, 0.40)


def b_term(i: int, j: int, c, exp=math.exp):
    """The j-th term b_ij(c) e^{-2 j^2 c^2} of B_i, in c's number type."""
    j2 = j * j
    c2 = c * c
    e = exp(-2 * j2 * c2)
    if i == 0:
        return -2 * (4 * j2 * c2 - 1) * e
    if i == 1:
        return 8 * c * j2 * (4 * c2 * j2 - 3) * e / 3
    j4 = j2 * j2
    if i == 2:
        return (4 * c2 * j2 * (-16 * c2 * j4 + 24 * j2 + 1) - 12 * j2 - 1) * e / 9
    j6 = j4 * j2
    if i == 3:
        return (16 * c * j2 * (16 * c2 * c2 * j6 - 40 * c2 * j4 - 4 * c2 * j2
                               + 15 * j2 + 3) * e / 81)
    if i == 4:
        c4 = c2 * c2
        return (16 * c4 * j4 * (-64 * c2 * j6 + 240 * j4 + 40 * j2 + 1)
                - 24 * c2 * j2 * (120 * j4 + 40 * j2 + 1)
                + 120 * j2 * (2 * j2 + 1) + 3) * e / 972
    c3 = c2 * c
    c5 = c3 * c2
    return 32 * (16 * c5 * j6 * (32 * c2 * j6 - 168 * j4 - 40 * j2 - 3)
                 + 40 * c3 * j4 * (84 * j4 + 40 * j2 + 3)
                 - 15 * c * j2 * (56 * j4 + 40 * j2 + 3)) * e / 3645


def _scales(n: int, k: int, sqrt) -> list:
    """n^(-i/2) for i = 0..k."""
    root = sqrt(n)
    return [root ** -i for i in range(k + 1)]


def cdf_partial_sums(c, n: int, k: int, j_max: int, exp=math.exp, sqrt=math.sqrt) -> list:
    """Unclamped order-k CDF with the inner sum truncated at j = 1..j_max."""
    scales = _scales(n, k, sqrt)
    total = c * 0
    for i in range(k + 1):
        num, den = _B_CONSTANTS[i]
        total += (c * 0 + num) / den * scales[i]
    sums = []
    for j in range(1, j_max + 1):
        for i in range(k + 1):
            total += b_term(i, j, c, exp) * scales[i]
        sums.append(total)
    return sums


def converged_terms(c: float) -> int:
    """Terms of the j sum after which e^{-2 j^2 c^2} < 1e-40: the rest of
    the series is then below 1e-25 for every B_i on c >= 0.3."""
    return math.ceil(6.8 / float(c))


def tail_base(n: int, k: int) -> float:
    """1 + A_0(n, k): the large-c limit of the order-k upper tail."""
    base = 0.0
    if k >= 2:
        base += 1.0 / (18.0 * n)
    if k >= 4:
        base -= 1.0 / (648.0 * n * n)
    return base


def tail_excess(c, n: int, k: int, exp=math.exp, sqrt=math.sqrt):
    """A_1 e^{-2c^2} + A_2 e^{-8c^2}: the two-exponential tail above its
    large-c limit, summed without that limit so that its sign holds far out."""
    total = c * 0
    for i, scale in enumerate(_scales(n, k, sqrt)):
        total -= (b_term(i, 1, c, exp) + b_term(i, 2, c, exp)) * scale
    if k >= 4:
        total += 1920 * exp(-8 * c * c) / (972 * n * n)
    return total


def utp_two_exp(c, n: int, k: int, exp=math.exp, sqrt=math.sqrt):
    """Unclamped two-exponential upper tail [1 + A_0] + A_1 e^{-2c^2} + A_2 e^{-8c^2}."""
    return tail_base(n, k) + tail_excess(c, n, k, exp, sqrt)


def alpha_gap(alpha: float, n: int, k: int) -> float:
    """alpha - 1 - A_0: positive exactly when alpha is reachable at (n, k)."""
    return alpha - tail_base(n, k)


def tail_residual(c: float, alpha: float, n: int, k: int) -> float:
    """The solver's log residual f_nlm(c), from the reference tail form.

    Infinite when the tail form leaves the domain of the logarithm.
    """
    gap = alpha_gap(alpha, n, k)
    excess = tail_excess(c, n, k)
    if gap <= 0.0 or excess <= 0.0:
        return math.inf
    return math.log(gap) - math.log(excess)


# How far below the domain edge (the c where A_1 + A_2 e^{-6c^2} turns
# non-positive) a root of the tail equation can lie and still come back
# unsolved: the solver's Newton steps and bisection fallback can cross the
# edge.  Scanning roots on a 5e-4 grid over every cell of the default table
# grid, the seed's solver failed on roots up to 0.26 below the edge, and on
# roots above 4.5, where alpha lies within 1e-15 of 1 + A_0 and the gap is
# rounding noise; the tables workload never draws alpha that close.
EDGE_REACH = 0.3
_EDGE_GRID = np.arange(0.3, 6.0, 1e-3)


def near_domain_edge(alpha: float, n: int, k: int, reach: float = EDGE_REACH) -> bool:
    """True when, at a reachable alpha, the tail form turns non-positive
    within ``reach`` above the root of the tail equation (on a 1e-3 grid).

    Only there can the known solver defect (an iterate leaving the log's
    domain) turn a reachable cell into ``x``.
    """
    gap = alpha_gap(alpha, n, k)
    excess = tail_excess(_EDGE_GRID, n, k, np.exp, np.sqrt)
    above = np.flatnonzero(excess > gap)  # where the residual is negative
    if gap <= 0.0 or above.size == 0:
        return False
    start = above[0]
    crossed = np.flatnonzero(excess[start:] <= gap)
    if crossed.size == 0:
        return False
    root = start + crossed[0]
    window = excess[root:root + int(round(reach / 1e-3)) + 1]
    return bool((window <= 0.0).any())


def clamp01(x: float) -> float:
    return min(1.0, max(0.0, float(x)))


def exact_vn(values) -> tuple[float, float, float]:
    """(D+, D-, V_n) of a sample against N(0, 1), vectorised."""
    from scipy.special import erfc

    x = np.sort(np.asarray(values, dtype=float))
    q = 0.5 * erfc(-x / math.sqrt(2.0))
    n = x.size
    t = np.arange(1.0, n + 1.0)
    d_plus = max(float((t / n - q).max()), 0.0)
    d_minus = max(float((q - (t - 1.0) / n).max()), 0.0)
    return d_plus, d_minus, d_plus + d_minus


def _log_choose(a: int, b: int) -> float:
    return math.lgamma(a + 1) - math.lgamma(b + 1) - math.lgamma(a - b + 1)


def equal_rate_p_value(x: int, n_x: int, y: int, n_y: int) -> float:
    """Two-sided conditional (Fisher) test that x/n_x and y/n_y share one rate.

    Given x + y rejections, x is hypergeometric under equal rates; the
    p-value doubles the smaller one-sided tail, which keeps the test
    conservative: a true null is rejected with probability at most the
    threshold.
    """
    s = x + y
    lo, hi = max(0, s - n_y), min(s, n_x)
    log_norm = _log_choose(n_x + n_y, s)
    pmf = [math.exp(_log_choose(n_x, t) + _log_choose(n_y, s - t) - log_norm)
           for t in range(lo, hi + 1)]
    lower = sum(pmf[:x - lo + 1])
    upper = sum(pmf[x - lo:])
    return min(1.0, 2.0 * min(lower, upper))
