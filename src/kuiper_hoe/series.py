"""High-order series expansion of the Kuiper statistic distribution.

The scaled statistic ``K_n = sqrt(n) * V_n`` satisfies, at expansion
order ``k``,

    Pr{K_n <= c}  ~=  sum_{i=0}^{k}  B_i(c) / n^(i/2)

and the paper claims an approximation error of order ``n^(-(k+1)/2)``.
For k >= 2, though, the approximant tends to 1 - 1/(18n) (plus
1/(648n^2) for k >= 4) as c grows, so its sup error against the exact
law is never below about 1/(18n).  The coefficient
functions ``B_i`` are rapidly convergent exponential series in ``c``;
``B_0`` and ``B_1`` are Kuiper's classical limit functions.  This module
evaluates the full series with a configurable truncation of the inner sum
over ``j``, plus the polynomial coefficients ``A_j(c, n, k)`` of the
two-exponential tail form

    alpha = [1 + A_0(n,k)] + A_1(c,n,k) e^{-2c^2} + A_2(c,n,k) e^{-8c^2}

used by the quantile solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "SeriesConfig",
    "Probability",
    "DEFAULT_SERIES",
    "b_series",
    "fun_a0",
    "fun_aj",
    "cdf_kn",
    "cdf_vn",
    "utp",
]


@dataclass(frozen=True)
class SeriesConfig:
    """Evaluation knobs for the coefficient series.

    j_max is the truncation point of the inner exponential sum; c_min_warn
    is the argument below which results carry an accuracy advisory (the
    asymptotic series is not trustworthy near zero).
    """

    j_max: int = 10
    c_min_warn: float = 0.6

    def __post_init__(self) -> None:
        if self.j_max < 1:
            raise ValueError(f"j_max must be >= 1, got {self.j_max}")


DEFAULT_SERIES = SeriesConfig()


class Probability(float):
    """A probability clamped into [0, 1] that keeps its raw value.

    ``raw`` is the series value before clamping, ``clamped`` says whether
    clamping changed it, and ``warning`` carries an accuracy advisory when
    the evaluation point was below the series trust floor.
    """

    raw: float
    clamped: bool
    warning: str | None

    def __new__(cls, raw: float, warning: str | None = None) -> "Probability":
        value = min(1.0, max(0.0, float(raw)))
        self = super().__new__(cls, value)
        self.raw = float(raw)
        self.clamped = value != float(raw)
        self.warning = warning
        return self


def _check_order(k: int) -> None:
    if not isinstance(k, int) or not 1 <= k <= 5:
        raise ValueError(f"expansion order k must be an integer in 1..5, got {k!r}")


def _check_capacity(n: int) -> None:
    if n < 1:
        raise ValueError(f"sample capacity n must be >= 1, got {n}")


# Standalone constants of B_i (the value each series tends to as c grows).
_B_CONSTANTS = (1.0, 0.0, -1.0 / 18.0, 0.0, 1.0 / 648.0, 0.0)


def _b_term(i: int, j: int, c: float) -> float:
    """The j-th term of the exponential series of B_i."""
    j2 = float(j * j)
    c2 = c * c
    e = math.exp(-2.0 * j2 * c2)
    if i == 0:
        return -2.0 * (4.0 * j2 * c2 - 1.0) * e
    if i == 1:
        return (8.0 / 3.0) * c * j2 * (4.0 * c2 * j2 - 3.0) * e
    j4 = j2 * j2
    if i == 2:
        return (1.0 / 9.0) * (4.0 * c2 * j2 * (-16.0 * c2 * j4 + 24.0 * j2 + 1.0)
                              - 12.0 * j2 - 1.0) * e
    j6 = j4 * j2
    if i == 3:
        return (16.0 / 81.0) * c * j2 * (16.0 * c2 * c2 * j6 - 40.0 * c2 * j4
                                         - 4.0 * c2 * j2 + 15.0 * j2 + 3.0) * e
    if i == 4:
        c4 = c2 * c2
        return (1.0 / 972.0) * (16.0 * c4 * j4 * (-64.0 * c2 * j6 + 240.0 * j4
                                                  + 40.0 * j2 + 1.0)
                                - 24.0 * c2 * j2 * (120.0 * j4 + 40.0 * j2 + 1.0)
                                + 120.0 * j2 * (2.0 * j2 + 1.0) + 3.0) * e
    # i == 5
    c3 = c2 * c
    c5 = c3 * c2
    return (32.0 / 3645.0) * (16.0 * c5 * j6 * (32.0 * c2 * j6 - 168.0 * j4
                                                - 40.0 * j2 - 3.0)
                              + 40.0 * c3 * j4 * (84.0 * j4 + 40.0 * j2 + 3.0)
                              - 15.0 * c * j2 * (56.0 * j4 + 40.0 * j2 + 3.0)) * e


def b_series(i: int, c: float, cfg: SeriesConfig = DEFAULT_SERIES) -> float:
    """Coefficient function B_i(c), inner sum truncated at cfg.j_max.

    B_0 and B_1 reproduce Kuiper's classical limit functions; higher
    orders refine the finite-n CDF.
    """
    if not isinstance(i, int) or not 0 <= i <= 5:
        raise ValueError(f"coefficient index i must be an integer in 0..5, got {i!r}")
    if c <= 0.0:
        raise ValueError(f"statistic argument c must be positive, got {c}")
    total = _B_CONSTANTS[i]
    for j in range(1, cfg.j_max + 1):
        total += _b_term(i, j, c)
    return total


def fun_a0(n: int, k: int) -> float:
    """Constant coefficient A_0(n, k) of the two-exponential tail form.

    The corrections are pure floats on purpose: with integer arithmetic
    1/(18*n) truncates to zero.
    """
    _check_capacity(n)
    _check_order(k)
    a0 = -1.0
    if k > 1:
        a0 += 1.0 / (18.0 * n)
    if k > 3:
        a0 -= 1.0 / (648.0 * n * n)
    return a0


def fun_aj(j: int, c: float, n: int, k: int) -> float:
    """Polynomial coefficient A_j(c, n, k) of e^{-2 j^2 c^2}, j in {1, 2}.

    Accumulates one term per order, gated by k.  These blocks are kept
    exactly as the reference critical-value tables were computed with;
    the k=4 constant of A_2 and the k=5 terms differ slightly from the
    exact series coefficients in b_series (see _b_term).
    """
    if j not in (1, 2):
        raise ValueError(f"coefficient index j must be 1 or 2, got {j!r}")
    if c <= 0.0:
        raise ValueError(f"statistic argument c must be positive, got {c}")
    _check_capacity(n)
    _check_order(k)

    sqrt_n = math.sqrt(n)
    n_1 = float(n)
    n_32 = n_1 * sqrt_n
    n_2 = n_1 * n_1
    n_52 = n_2 * sqrt_n

    c2 = c * c
    c3 = c2 * c
    c4 = c2 * c2
    c5 = c4 * c
    c6 = c4 * c2
    c7 = c6 * c

    if j == 1:
        a = (8.0 * c2 - 2.0) - 8.0 * (4.0 * c3 - 3.0 * c) / (3.0 * sqrt_n)
        if k > 1:
            a += (64.0 * c4 - 100.0 * c2 + 13.0) / (9.0 * n_1)
        if k > 2:
            a -= 32.0 * (8.0 * c5 - 22.0 * c3 + 9.0 * c) / (81.0 * n_32)
        if k > 3:
            a += (1024.0 * c6 - 4496.0 * c4 + 3864.0 * c2 - 363.0) / (972.0 * n_2)
        if k > 4:
            a -= 32.0 * (512.0 * c7 - 3376.0 * c5 + 5080.0 * c3
                         - 1485.0 * c) / (3645.0 * n_52)
        return a

    a = (32.0 * c2 - 2.0) - 32.0 * (16.0 * c3 - 3.0 * c) / (3.0 * sqrt_n)
    if k > 1:
        a += (4096.0 * c4 - 1552.0 * c2 + 49.0) / (9.0 * n_1)
    if k > 2:
        a -= 64.0 * (1024.0 * c5 - 656.0 * c3 + 63.0 * c) / (81.0 * n_32)
    if k > 3:
        a += (1048576.0 * c6 - 1024256.0 * c4 + 199776.0 * c2
              - 2403.0) / (972.0 * n_2)
    if k > 4:
        a -= 32.0 * (2097152.0 * c7 - 2919424.0 * c5 + 964480.0 * c3
                     - 63540.0 * c) / (3645.0 * n_52)
    return a


def _floor_warning(c: float, cfg: SeriesConfig) -> str | None:
    if c < cfg.c_min_warn:
        return (f"c={c:.6g} is below the series trust floor "
                f"{cfg.c_min_warn}; the asymptotic expansion is unreliable there")
    return None


def cdf_kn(c: float, n: int, k: int, cfg: SeriesConfig = DEFAULT_SERIES) -> Probability:
    """CDF Pr{K_n <= c} at expansion order k, clamped into [0, 1].

    Note that for k >= 2 the approximant's large-c limit is
    1 - 1/(18n) + 1/(648n^2) rather than exactly 1; the residue is the
    order-n^{-1} constant of the expansion itself.
    """
    _check_capacity(n)
    _check_order(k)
    sqrt_n = math.sqrt(n)
    raw = 0.0
    scale = 1.0
    for i in range(k + 1):
        raw += b_series(i, c, cfg) * scale
        scale /= sqrt_n
    return Probability(raw, warning=_floor_warning(c, cfg))


def cdf_vn(v: float, n: int, k: int, cfg: SeriesConfig = DEFAULT_SERIES) -> Probability:
    """CDF Pr{V_n <= v}, evaluated as cdf_kn(v*sqrt(n), n, k)."""
    return cdf_kn(v * math.sqrt(n), n, k, cfg)


def utp(c: float, n: int, k: int, cfg: SeriesConfig = DEFAULT_SERIES,
        truncated: bool = False) -> Probability:
    """Upper tail probability Pr{K_n > c}, clamped into [0, 1].

    With truncated=True the two-exponential solver form
    [1 + A_0] + A_1 e^{-2c^2} + A_2 e^{-8c^2} is evaluated instead of the
    full series; useful for cross-checking solver residuals.
    """
    if truncated:
        a0 = fun_a0(n, k)
        a1 = fun_aj(1, c, n, k)
        a2 = fun_aj(2, c, n, k)
        c2 = c * c
        raw = (1.0 + a0) + a1 * math.exp(-2.0 * c2) + a2 * math.exp(-8.0 * c2)
        return Probability(raw, warning=_floor_warning(c, cfg))
    full = cdf_kn(c, n, k, cfg)
    return Probability(1.0 - full.raw, warning=full.warning)
