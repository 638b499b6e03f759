"""Historical finite-sample formulas used for cross-checks and comparisons.

Covers Stephens' 1965 finite-n tail sum and small-v CDF, Stephens' 1970
modified statistic with its capacity-independent quantile, and a standard
asymptotic Kolmogorov-Smirnov tail for comparison runs.
"""

from __future__ import annotations

import math
import numpy as np

from .series import Probability, _check_capacity, _check_level, _check_real
from .solver import _iterate, _newton_step, get_init_value

__all__ = [
    "stephens_utp",
    "stephens_cdf_small_v",
    "modified_statistic",
    "modified_quantile",
    "ks_utp_asymptotic",
]


def stephens_utp(v: float, n: int) -> Probability:
    """Stephens' finite-n tail sum for Pr{V_n >= v}.

    Stephens (1965, Biometrika 52, 309-321):

        sum_{t=0}^{floor(n(1-v))} C(n, t) (1 - v - t/n)^(n-t-1) y^(t-3)
            [y^3 n - y^2 t g + y t (t-1) g / n - t (t-1) (t-2) / n^2]

    with y = v + t/n and g = 3 - 2/n.  Valid for v >= 1/2 when n is even
    and v >= 1/2 - 1/(2n) when n is odd.  Binomials go through log-gamma;
    raw factorials overflow for large n.
    """
    _check_capacity(n)
    v = _check_real(v, "v")
    if not math.isfinite(v):  # NaN and inf pass the floor test below
        raise ValueError(f"stephens_utp requires a finite v, got {v}")
    floor = 0.5 if n % 2 == 0 else (n - 1) / (2 * n)
    if v < floor:
        raise ValueError(f"stephens_utp requires v >= {floor} for n={n}, got {v}")
    t_max = math.floor(n * (1.0 - v))
    if t_max < 0:
        return Probability(0.0)
    if n == 1:
        return Probability(1.0)  # V_1 = 1 exactly
    # The t = n - 1 term (power 0) enters only at v <= 1/n, which the floors
    # admit at n = 2 (where it is zero) and at n = 3, v = 1/3.  Pr{V_n = 1/n}
    # is 0, and the other terms already sum to Pr{V_n >= 1/n} = 1.
    t_max = min(t_max, n - 2)
    g = 3.0 - 2.0 / n
    total = 0.0
    for t in range(t_max + 1):
        base = 1.0 - v - t / n
        y = v + t / n
        w = y ** (t - 3) * (y ** 3 * n - y * y * t * g + y * t * (t - 1) * g / n
                            - t * (t - 1) * (t - 2) / (n * n))
        log_binom = (math.lgamma(n + 1) - math.lgamma(t + 1)
                     - math.lgamma(n - t + 1))
        if base > 0.0:
            total += math.exp(log_binom + (n - t - 1) * math.log(base)) * w
    return Probability(total)


def stephens_cdf_small_v(v: float, n: int) -> Probability:
    """Stephens' closed-form CDF Pr{V_n <= v} on the corner 1/n <= v <= 3/n.

    The first branch covers v <= 2/n; the second uses the two roots of
    t^2 - (nv - 1) t + (nv - 2)^2 / 2 = 0.  Both branches are evaluated in
    log space to dodge factorial overflow.
    """
    _check_capacity(n)
    v = _check_real(v, "v")
    if not (1.0 / n <= v <= 3.0 / n):
        raise ValueError(
            f"stephens_cdf_small_v is defined on [{1.0 / n:.6g}, {3.0 / n:.6g}] "
            f"for n={n}, got v={v}")
    w = n * v
    if w <= 2.0:
        if n == 1:
            return Probability(1.0)  # (v - 1)^0 with 1! in front
        x = v - 1.0 / n
        if x <= 0.0:
            return Probability(0.0)
        return Probability(math.exp(math.lgamma(n + 1) + (n - 1) * math.log(x)))
    # the discriminant is 2 - (w - 3)^2 >= 1 for w in (2, 3]
    s = math.sqrt((w - 1.0) ** 2 - 2.0 * (w - 2.0) ** 2)
    t1 = ((w - 1.0) - s) / 2.0
    t2 = ((w - 1.0) + s) / 2.0
    prefactor = math.exp(math.lgamma(n) - (n - 2) * math.log(n))
    bracket = t2 ** (n - 1) * (1.0 - t1) - t1 ** (n - 1) * (1.0 - t2)
    return Probability(prefactor * bracket / (t2 - t1))


def modified_statistic(v_n: float, n: int) -> float:
    """Stephens' modified statistic T_n = V_n (sqrt(n) + 0.155 + 0.24/sqrt(n))."""
    v_n = _check_real(v_n, "v_n")
    if not 0.0 <= v_n < math.inf:
        raise ValueError(f"v_n must be nonnegative and finite, got {v_n}")
    _check_capacity(n)
    sqrt_n = math.sqrt(n)
    return v_n * (sqrt_n + 0.155 + 0.24 / sqrt_n)


# (8c^2 - 2) e^{-2c^2} rises to its maximum 4 e^{-3/2} at c = sqrt(3/4) and
# falls monotonically beyond it, so each level up to the peak has one root
# on [sqrt(3/4), inf).
MODIFIED_C_PEAK = math.sqrt(0.75)
MODIFIED_ALPHA_MAX = 4.0 * math.exp(-1.5)


def _check_modified_level(alpha: float) -> None:
    """Raise ValueError for a level above the peak, which has no quantile."""
    if alpha > MODIFIED_ALPHA_MAX:
        raise ValueError(f"modified_quantile needs alpha <= 4 e^(-3/2) = "
                         f"{MODIFIED_ALPHA_MAX:.6f}, got {alpha}")


def modified_quantile(alpha: float) -> float:
    """Capacity-independent quantile c solving (8c^2 - 2) e^{-2c^2} = alpha.

    Newton iteration seeded by bisection on [sqrt(3/4), 3.0], where the
    left side falls monotonically; this is the limit of the order-1
    critical value as n grows.  Levels above its peak 4 e^{-3/2} ~ 0.892521
    have no root and raise ValueError.
    """
    alpha = _check_level(alpha)
    _check_modified_level(alpha)

    def residual(c):
        return (8.0 * c * c - 2.0) * math.exp(-2.0 * c * c) - alpha

    c0 = get_init_value(residual, MODIFIED_C_PEAK, 3.0, 0.05)
    return _iterate(lambda c: _newton_step(residual, c), c0, 1e-9)[0]


# Below this exponent rate 2 n d^2 the tail is 1 to double precision.  By
# the dual (theta-function) form of the series, with lambda^2 = rate / 2,
#   1 - Q = sqrt(2 pi) / lambda * sum_{j>=1} e^{-(2j-1)^2 pi^2 / (8 lambda^2)},
# which is 5.9e-21 at rate 0.05, while the alternating sum would need
# sqrt(27.6 / rate) terms to get there (37k at d = 1e-4, n = 1).
_KS_FLAT_RATE = 0.05


def ks_utp_asymptotic(d, n: int):
    """Asymptotic two-sided Kolmogorov tail 2 sum_j (-1)^{j-1} e^{-2 j^2 n d^2}.

    Terms after the first are dropped below 1e-12; an exponent rate below
    _KS_FLAT_RATE returns the limit value 1.  A float d gives a Probability
    of the unclamped sum; an ndarray of d gives the clamped tails as an
    array, each summed with the same terms.
    """
    if not isinstance(d, np.ndarray) or d.dtype == bool:
        d = _check_real(d, "statistic d")  # raises for a bool array
    arr = np.asarray(d, dtype=float)
    bad = ~((arr >= 0.0) & (arr < math.inf))  # NaN fails both comparisons
    if bad.any():
        raise ValueError(f"statistic d must be nonnegative and finite, "
                         f"got {arr[bad][0]}")
    _check_capacity(n)
    rate = 2.0 * n * arr * arr
    live = rate >= _KS_FLAT_RATE
    total = np.zeros_like(rate)
    sign = 1.0
    j = 1
    while True:
        term = np.exp(-j * j * rate)
        live &= (j == 1) | (term >= 1e-12)  # terms fall, so dropped stays out
        if not live.any():
            break
        total += np.where(live, sign * term, 0.0)
        sign = -sign
        j += 1
    raw = np.where(rate < _KS_FLAT_RATE, 1.0, 2.0 * total)
    if isinstance(d, np.ndarray):
        return np.clip(raw, 0.0, 1.0)
    return Probability(float(raw))
