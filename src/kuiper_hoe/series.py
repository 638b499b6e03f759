"""High-order series expansion of the Kuiper statistic distribution.

The scaled statistic ``K_n = sqrt(n) * V_n`` satisfies, at expansion
order ``k``,

    Pr{K_n <= c}  ~=  sum_{i=0}^{k}  B_i(c) / n^(i/2),
    B_i(c)  =  C_i + sum_{j=1}^{J_MAX} P_i(c, j^2) e^{-2 j^2 c^2},

and the paper claims an approximation error of order ``n^(-(k+1)/2)``.
For k >= 2, though, the approximant tends to 1 - 1/(18n) (plus
1/(648n^2) for k >= 4) as c grows, so its sup error against the exact
law is never below about 1/(18n).  ``B_0`` and ``B_1`` are Kuiper's
classical limit functions.

The expansion is written down once, in ``_TABLE``: per order i the
constant C_i and the polynomial P_i in c and J = j^2, and ``_ROWS`` holds
it as floats, per j and power of c the nonzero coefficients of
factor_i P_i(c, j^2) with their order i.  An (n, k) expansion weights
order i by n^(-i/2) and adds the orders in index order from 0.0, one
rounding per step, in a plain Python loop: no BLAS product and no builtin
``sum``, so its bits do not depend on the BLAS kernel or the Python
version, and the module imports no NumPy.  They still depend on libm's
``exp``, ``log`` and ``erfc``.  The inner sum is truncated at
``J_MAX = 10``; the terms beyond it add less than 1e-25 to any B_i for
c >= 0.6.  The evaluation stops the sum earlier, at the first j where a
proven bound on all the terms left (``_TAIL_BOUND``, see ``_evaluate``)
is below 2^-56 of the running total: those terms would round away one by
one, so every result equals the 10-term sum bit for bit.  A term whose
exponential underflows to 0 adds nothing, even where its polynomial has
overflowed.  The solver's two-exponential tail form

    alpha = [1 + A_0(n,k)] + A_1(c,n,k) e^{-2c^2} + A_2(c,n,k) e^{-8c^2}

is the j = 1, 2 part of the same sum, A_0 = -C and A_j = -P_j, with one
exception: the published critical-value tables were computed with a
k >= 4 constant of A_2 that lies ``_A2_TABLE_SHIFT / n^2`` above the
series value.  ``fun_aj``, the truncated ``utp`` and the solver add that
shift (see ``_expansion``), so that they reproduce those tables.
"""

from __future__ import annotations

import functools
import math
import numbers
import sys

__all__ = [
    "Probability",
    "b_series",
    "fun_a0",
    "fun_aj",
    "cdf_kn",
    "cdf_vn",
    "utp",
]

J_MAX = 10          # truncation of the inner sum over j
TRUST_FLOOR = 0.6   # below this c results carry an accuracy advisory
_CACHE_SIZE = 128   # (n, k) keys whose combined expansion is kept
_FLOAT_MAX = sys.float_info.max  # the largest n that float(n) can hold

# One row per order i: (C_i, rational factor, P_i as
# {(power of c, power of J = j^2): integer coefficient}), so that the j-th
# term of B_i is factor * P_i(c, j^2) * e^{-2 j^2 c^2}.
_TABLE = (
    (1.0, 1.0, {(2, 1): -8, (0, 0): 2}),
    (0.0, 8 / 3, {(3, 2): 4, (1, 1): -3}),
    (-1 / 18, 1 / 9, {(4, 3): -64, (2, 2): 96, (2, 1): 4, (0, 1): -12, (0, 0): -1}),
    (0.0, 16 / 81, {(5, 4): 16, (3, 3): -40, (3, 2): -4, (1, 2): 15, (1, 1): 3}),
    (1 / 648, 1 / 972, {(6, 5): -1024, (4, 4): 3840, (4, 3): 640, (4, 2): 16,
                        (2, 3): -2880, (2, 2): -960, (2, 1): -24,
                        (0, 2): 240, (0, 1): 120, (0, 0): 3}),
    (0.0, 32 / 3645, {(7, 6): 512, (5, 5): -2688, (5, 4): -640, (5, 3): -48,
                      (3, 4): 3360, (3, 3): 1600, (3, 2): 120,
                      (1, 3): -840, (1, 2): -600, (1, 1): -45}),
)

# The published tables' k >= 4 constant of A_2 (-2403/972) lies this far
# above the series value -(240*16 + 120*4 + 3)/972.
_A2_TABLE_SHIFT = 1920 / 972

_ORDERS = len(_TABLE)
_J2 = tuple(float(j * j) for j in range(1, J_MAX + 1))
_UNBUILT = tuple((j2, None) for j2 in _J2[2:])  # the slots of j = 3..J_MAX


def _sparse_rows(w: int) -> tuple:
    """[j - 1][d]: per power c^(w + 1 - d), the nonzero (i, factor_i * the
    coefficient in P_i(c, j^2)) of the orders i < w in index order.  Each
    coefficient is an exact integer below 2^53, so it is rounded once."""
    rows = []
    for j in range(1, J_MAX + 1):
        per_power = [[] for _ in range(w + 2)]
        for i, (_, factor, poly) in enumerate(_TABLE[:w]):
            exact = [0] * (w + 2)
            for (p, q), coef in poly.items():
                exact[w + 1 - p] += coef * j ** (2 * q)
            for d, a in enumerate(exact):
                if a:
                    per_power[d].append((i, a * factor))
        rows.append(tuple(map(tuple, per_power)))
    return tuple(rows)


# One table per number of weighted orders w, the orders 0..w-1.
_ROWS = {w: _sparse_rows(w) for w in range(1, _ORDERS + 1)}

# The largest sum_p |coefficient of c^p| of one (i, j) term, times the
# number of orders and of terms: with weights <= 1 this bounds the
# remaining j terms of any expansion over max(1, c)^(_ORDERS + 1) and the
# first of their exponentials (see _evaluate).
_TAIL_BOUND = J_MAX * _ORDERS * max(
    math.fsum(abs(a) for entries in row for i, a in entries if i == order)
    for row in _ROWS[_ORDERS] for order in range(_ORDERS))


def _row(weights: list[float], j: int) -> tuple:
    """The coefficients of the polynomial in c of term j + 1 of
    sum_i weights[i] B_i(c), from the highest power down, each added over i
    in index order from 0.0, one rounding per step."""
    coeffs = []
    for entries in _ROWS[len(weights)][j]:
        acc = 0.0
        for i, a in entries:
            acc += weights[i] * a
        coeffs.append(acc)
    return tuple(coeffs)


def _combine(weights: list[float]) -> tuple[float, list, list[float]]:
    """sum_i weights[i] B_i(c) as (C, slots, weights): its constant, added
    over i in index order, its J_MAX (j^2, coefficients) term slots with
    j = 1, 2 built (see _row) and the rest None until ``_evaluate`` first
    reaches them, and the weights it builds them from."""
    const = 0.0
    for weight, row in zip(weights, _TABLE):
        const += weight * row[0]
    return const, [(_J2[0], _row(weights, 0)), (_J2[1], _row(weights, 1)),
                   *_UNBUILT], weights


_SINGLE_ORDERS = tuple(_combine([0.0] * i + [1.0]) for i in range(_ORDERS))


def _is_integer(x) -> bool:
    """int or a NumPy integer, but not bool."""
    return type(x) is int or (isinstance(x, numbers.Integral)
                              and not isinstance(x, bool))


def _check_capacity(n: int) -> None:
    if not _is_integer(n) or not 1 <= n <= _FLOAT_MAX:
        raise ValueError(f"sample capacity n must be an integer >= 1, got {n!r}")


def _check_real(level, name: str) -> float:
    """``level`` as a float, so that a NumPy float32 is computed in double
    precision.  Rejects a Python or NumPy bool, which the range checks read
    as 0 or 1, and a level that is not a real number, which they cannot
    compare.  A float returns after one type test."""
    if type(level) is float:
        return level
    if isinstance(level, bool) or getattr(level, "dtype", None) == bool:
        raise ValueError(f"{name} must be a real number, not a bool, got {level!r}")
    if not isinstance(level, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {level!r}")
    return float(level)


def _check_level(level, name: str = "alpha") -> float:
    """``level`` by _check_real, in (0, 1); a float takes one type test."""
    level = level if type(level) is float else _check_real(level, name)
    if not 0.0 < level < 1.0:
        raise ValueError(f"{name} must be in (0, 1), got {level}")
    return level


def _statistic(x, name: str = "c") -> float:
    """The statistic argument x as a float, checked positive and finite.
    The callers test a float in (0, inf) first and skip this call."""
    value = _check_real(x, f"statistic argument {name}")
    if not 0.0 < value < math.inf:
        raise ValueError(f"statistic argument {name} must be positive and "
                         f"finite, got {x}")
    return value


@functools.lru_cache(maxsize=_CACHE_SIZE, typed=True)
def _expansion(n: int, k: int) -> tuple[float, list, list[float], tuple, float]:
    """The order-k expansion at capacity n, its orders weighted by n^(-i/2),
    as (C, slots, weights, pairs, shift): the record of _combine, per power
    of c from the highest down the coefficients of (-A_1, -A_2) from its
    j = 1, 2 slots, and the shift added to A_2 (-0.0 below k = 4, which
    leaves every A_2, zeros included).  (n, k) is checked on a cache miss,
    and a key that raises is not cached, so its message is the same on
    every call; typed=True keeps True, 10.0 and np.float64(10.0) out of the
    entries of 1 and 10, which they hash alike."""
    _check_capacity(n)
    if not _is_integer(k) or not 1 <= k <= 5:
        raise ValueError(f"expansion order k must be an integer in 1..5, got {k!r}")
    n = float(n)  # a NumPy integer n would overflow in n * n
    root = math.sqrt(n)
    powers = (1.0, root, n, n * root, n * n, n * n * root)
    const, slots, weights = _combine([1.0 / p for p in powers[:k + 1]])
    shift = _A2_TABLE_SHIFT / (n * n) if k >= 4 else -0.0
    return const, slots, weights, tuple(zip(slots[0][1], slots[1][1])), shift


def _evaluate(expansion: tuple, c: float) -> float:
    """C + sum_j P_j(c) e^{-2 j^2 c^2}, one exp per j, stopped where the
    terms left cannot change the float total.

    Every weight n^(-i/2) is at most 1 and P_j has degree at most
    _ORDERS + 1, so with m = max(1, c), |P_j(c)| <= _ORDERS * max_{i,j}
    sum_p |coef| * m^(_ORDERS + 1); e_j = e^{-2 j^2 c^2} decreases in j, so
    the terms from j on sum to at most _TAIL_BOUND * m^(_ORDERS + 1) * e_j.
    The sum stops before term j once that is below 2^-56 |total|, under
    1/8 ULP of the total: each term left, even with the rounding of its
    Horner pass, is under the half-spacing below the total and would leave
    it unchanged, so the result equals the full J_MAX-term sum bit for bit.
    m^(_ORDERS + 1) is a product, which saturates to inf where float **
    would raise; a term whose exponential is 0 (and every later one) adds
    nothing, so an overflowed P_j never makes inf * 0 = NaN.
    """
    total, rows = expansion[:2]
    c2 = c * c
    m = c if c > 1.0 else 1.0
    m3 = m * m * m
    scale = _TAIL_BOUND * 2.0 ** 56 * (m3 * m3 * m)  # the bound over 2^-56
    for j2, coeffs in rows:
        e = math.exp(-2.0 * j2 * c2)
        if e == 0.0 or e * scale < abs(total):
            break
        if coeffs is None:  # the first use of this term: build and keep it
            j = _J2.index(j2)
            coeffs = _row(expansion[2], j)
            rows[j] = j2, coeffs  # a thread there first kept an equal term
        p = 0.0
        for a in coeffs:
            p = p * c + a
        total += p * e
    return total


class Probability(float):
    """A probability clamped into [0, 1] that keeps its raw value.

    ``raw`` is the series value before clamping, ``clamped`` says whether
    clamping changed it, and ``warning`` carries an accuracy advisory when
    the evaluation point was below the series trust floor.  NaN clamps to
    0.0 (clamped) and -0.0 to +0.0 (not clamped).  These three slots are
    the only attributes.
    """

    __slots__ = ("raw", "clamped", "warning")
    raw: float
    clamped: bool
    warning: str | None

    def __new__(cls, raw: float, warning: str | None = None) -> "Probability":
        raw = float(raw)
        value = raw if 0.0 < raw <= 1.0 else 1.0 if raw > 1.0 else 0.0
        self = float.__new__(cls, value)
        self.raw = raw
        self.clamped = value != raw
        self.warning = warning
        return self


def b_series(i: int, c: float) -> float:
    """Coefficient function B_i(c), inner sum truncated at J_MAX.

    B_0 and B_1 reproduce Kuiper's classical limit functions; higher
    orders refine the finite-n CDF.
    """
    if not _is_integer(i) or not 0 <= i <= 5:
        raise ValueError(f"coefficient index i must be an integer in 0..5, got {i!r}")
    if type(c) is not float or not 0.0 < c < math.inf:
        c = _statistic(c)
    return _evaluate(_SINGLE_ORDERS[i], c)


def fun_a0(n: int, k: int) -> float:
    """Constant coefficient A_0(n, k) = -sum_{i<=k} C_i / n^(i/2) of the
    two-exponential tail form."""
    return -_expansion(n, k)[0]


def _tail_coefficients(expansion: tuple, c: float) -> tuple[float, float]:
    """(A_1(c), A_2(c)) of the tail form, one Horner pass over the pairs."""
    _, _, _, pairs, shift = expansion
    h1 = h2 = 0.0
    for p1, p2 in pairs:
        h1 = h1 * c + p1
        h2 = h2 * c + p2
    return -h1, shift - h2


def fun_aj(j: int, c: float, n: int, k: int) -> float:
    """Polynomial coefficient A_j(c, n, k) of e^{-2 j^2 c^2}, j in {1, 2}.

    A_j = -sum_{i<=k} factor_i P_i(c, j^2) / n^(i/2), plus _A2_TABLE_SHIFT
    / n^2 for j = 2 at k >= 4, the constant the reference critical-value
    tables were computed with.
    """
    if not _is_integer(j) or j not in (1, 2):
        raise ValueError(f"coefficient index j must be 1 or 2, got {j!r}")
    if type(c) is not float or not 0.0 < c < math.inf:
        c = _statistic(c)
    return _tail_coefficients(_expansion(n, k), c)[j - 1]


def _floor_warning(c: float) -> str:
    """The advisory for a c below TRUST_FLOOR, which the callers test."""
    return (f"c={c:.6g} is below the series trust floor "
            f"{TRUST_FLOOR}; the asymptotic expansion is unreliable there")


def cdf_kn(c: float, n: int, k: int) -> Probability:
    """CDF Pr{K_n <= c} at expansion order k, clamped into [0, 1].

    Note that for k >= 2 the approximant's large-c limit is
    1 - 1/(18n) + 1/(648n^2) rather than exactly 1; the residue is the
    order-n^{-1} constant of the expansion itself.
    """
    if type(c) is not float or not 0.0 < c < math.inf:
        c = _statistic(c)
    return Probability(_evaluate(_expansion(n, k), c),
                       _floor_warning(c) if c < TRUST_FLOOR else None)


def _scale_v(v: float, n: int) -> float:
    """c = v * sqrt(n), after checking n and v; a v whose c overflows is
    rejected by a message naming v and n."""
    if not (type(n) is int and 1 <= n <= _FLOAT_MAX):
        _check_capacity(n)
    if type(v) is not float or not 0.0 < v < math.inf:
        v = _statistic(v, "v")
    c = v * math.sqrt(n)
    if c == math.inf:
        raise ValueError(f"statistic argument v={v} overflows c = v * sqrt(n) "
                         f"at n={n}")
    return c


def cdf_vn(v: float, n: int, k: int) -> Probability:
    """CDF Pr{V_n <= v}, evaluated as cdf_kn(v*sqrt(n), n, k)."""
    return cdf_kn(_scale_v(v, n), n, k)


def utp(c: float, n: int, k: int, truncated: bool = False) -> Probability:
    """Upper tail probability Pr{K_n > c}, clamped into [0, 1].

    With truncated=True the two-exponential solver form
    [1 + A_0] + A_1 e^{-2c^2} + A_2 e^{-8c^2} is evaluated instead of the
    full series; useful for cross-checking solver residuals.
    """
    if type(c) is not float or not 0.0 < c < math.inf:
        c = _statistic(c)
    if truncated:
        expansion = _expansion(n, k)
        c2 = c * c
        e1 = math.exp(-2.0 * c2)
        raw = 1.0 - expansion[0]
        if e1:  # else both exponentials underflow to 0 and add nothing
            a1, a2 = _tail_coefficients(expansion, c)
            raw = raw + a1 * e1 + a2 * math.exp(-8.0 * c2)
    else:
        raw = 1.0 - _evaluate(_expansion(n, k), c)
    return Probability(raw, _floor_warning(c) if c < TRUST_FLOOR else None)
