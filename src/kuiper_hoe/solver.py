"""Kuiper critical values and tail quantiles by fixed-point iteration.

The order-k upper tail equation is solved in its two-exponential form
either by direct contraction iteration on ``f_ctm`` or by Newton steps on
the log-residual ``f_nlm``.  A converged solve yields the pair
``(c, v = c / sqrt(n))``: the critical value of the scaled statistic and
the quantile of the raw one.
"""

from __future__ import annotations

import collections
import functools
import math

from .series import _check_real, _expansion, _statistic

__all__ = [
    "KuiperPair",
    "ConvergenceError",
    "DegenerateDerivativeError",
    "FixedPointDomainError",
    "get_init_value",
    "f_nlm",
    "f_ctm",
    "kuiper_pair_solver",
    "kuiper_utq",
    "kuiper_ltq",
    "kuiper_inv_cdf",
]

EPSILON = 1e-5          # convergence tolerance on successive iterates
H = 1e-5                # forward-difference step of the Newton slope
C_GUESS = 1.8           # start value of the first try
MAX_ITER = 200          # update cap per try
BRACKET = (0.6, 3.0, 0.05)  # bisection interval and resolution of the retry


class ConvergenceError(RuntimeError):
    """Iteration cap reached before successive iterates got close enough."""

    def __init__(self, message: str, last_x: float | None = None,
                 last_distance: float | None = None) -> None:
        super().__init__(message)
        self.last_x = last_x
        self.last_distance = last_distance


class DegenerateDerivativeError(RuntimeError):
    """Forward-difference slope too close to zero for a Newton step."""


class FixedPointDomainError(ValueError):
    """A log or sqrt argument left its domain.

    ``argument`` names the failing expression: "alpha_gap" for
    alpha - 1 - A_0 (alpha incompatible with n at this order), and "c",
    "tail_coefficient" or "radicand" for iterates outside the contraction
    basin.  ``steps`` counts the update attempts of the iteration that hit
    the error, the failing one included (0 outside an iteration).
    """

    def __init__(self, message: str, argument: str) -> None:
        super().__init__(message)
        self.argument = argument
        self.steps = 0


class _DataclassFields:
    """A class's ``__dataclass_fields__``, made on first use, so that the
    ``dataclasses`` helpers (``replace``, ``fields``, ``asdict``) take the
    class without this module importing ``dataclasses`` and, through it,
    ``inspect``."""

    def __get__(self, obj, owner):
        import dataclasses
        fields = dataclasses.make_dataclass(
            owner.__name__, owner._fields).__dataclass_fields__
        owner.__dataclass_fields__ = fields
        return fields


class KuiperPair(collections.namedtuple(
        "KuiperPair", "c v alpha n k iterations residual")):
    """A solved (critical value, quantile) pair at level alpha, capacity n,
    expansion order k, with the iteration count and the log-residual at the
    returned point.  A named tuple: read-only, compared and hashed by value."""

    __slots__ = ()
    __dataclass_fields__ = _DataclassFields()


def _alpha_gap(alpha: float, a0: float, n: int, k: int) -> float:
    """alpha - 1 - A_0, the positive constant part of the tail equation."""
    gap = alpha - 1.0 - a0
    if gap <= 0.0:
        raise FixedPointDomainError(
            f"order k={k} cannot reach alpha below {1.0 + a0:.6g} at n={n} "
            f"(got alpha={alpha})", argument="alpha_gap")
    return gap


def _residual(alpha: float, n: int, k: int):
    """f_nlm at (alpha, n, k) as a function of c (f_ctm with contraction=True),
    checks and messages kept; f_nlm and f_ctm are thin wrappers over it.

    The cached tail record, the alpha-gap check and log(gap) are taken once
    per solve; each call then does only the work that depends on c: one
    Horner pass over the coefficient pairs, one exp and one log."""
    const, _, _, pairs, shift = _expansion(n, k)
    log_gap = math.log(_alpha_gap(alpha, -const, n, k))

    def f_nlm(c, contraction=False):
        # series._tail_coefficients inlined: 449 calls per `table --alpha 0.05`
        h1 = h2 = 0.0
        for p1, p2 in pairs:
            h1 = h1 * c + p1
            h2 = h2 * c + p2
        if not 0.0 < c < math.inf:
            if c <= 0.0:
                raise FixedPointDomainError(
                    f"iterate c={c:.6g} <= 0 left the contraction basin", argument="c")
            _statistic(c)  # raises: a NaN iterate must not come back solved
        tail = -h1 + (shift - h2) * math.exp(-6.0 * c * c)  # A1 + A2 exp(-6c^2)
        if tail <= 0.0:
            raise FixedPointDomainError(
                f"A1 + A2*exp(-6c^2) = {tail:.4g} <= 0 at c={c:.6g}: iterate left "
                f"the contraction basin", argument="tail_coefficient")
        if contraction:
            radicand = (math.log(tail) - log_gap) / 2.0
            if radicand < 0.0:
                raise FixedPointDomainError(f"negative radicand {radicand:.4g} at "
                                            f"c={c:.6g}", argument="radicand")
            return math.sqrt(radicand)
        return 2.0 * c * c + log_gap - math.log(tail)

    return f_nlm


def f_nlm(c: float, alpha: float, n: int, k: int) -> float:
    """Log-form tail residual; zero exactly at the order-k quantile."""
    return _residual(_check_real(alpha, "alpha"), n, k)(
        _check_real(c, "statistic argument c"))


def f_ctm(c: float, alpha: float, n: int, k: int) -> float:
    """Contraction map whose fixed point is the order-k quantile."""
    return _residual(_check_real(alpha, "alpha"), n, k)(
        _check_real(c, "statistic argument c"), contraction=True)


def _newton_step(f, c: float) -> float:
    """One Newton step on f(c), with the forward-difference slope of step H.

    f is a function of c alone, as for get_init_value; a caller with other
    parameters binds them in a closure, as baselines.modified_quantile
    binds alpha."""
    f0 = f(c)
    slope = (f(c + H) - f0) / H
    if abs(slope) < 1e-14:
        raise DegenerateDerivativeError(
            f"forward-difference slope {slope:.4g} at c={c:.6g} is too small")
    return c - f0 / slope


def _iterate(step, x0: float, epsilon: float) -> tuple[float, int]:
    """Iterate x <- step(x) from x0 until successive iterates differ by
    less than epsilon; return the last iterate and the number of steps.

    Raises ConvergenceError after MAX_ITER steps.  A FixedPointDomainError
    from a step leaves the steps attempted so far on its ``steps``.
    """
    steps = 1
    try:
        x = step(x0)
        while abs(x - x0) >= epsilon:
            if steps >= MAX_ITER:
                raise ConvergenceError(
                    f"no convergence after {steps} updates: last iterate "
                    f"{x:.8g}, last distance {abs(x - x0):.4g}",
                    last_x=x, last_distance=abs(x - x0))
            x0 = x
            steps += 1
            x = step(x0)
    except FixedPointDomainError as exc:
        exc.steps = steps
        raise
    return x, steps


def get_init_value(f, a: float, b: float, h: float) -> float:
    """Bisection preconditioner: a midpoint within h of a sign change of f(c).

    f(a) must evaluate; a midpoint where f raises FixedPointDomainError
    counts as past the sign change and moves the upper end down.  Each
    point costs one f call.
    """
    fa = f(a)
    delta = abs(a - b)
    x_guess = (a + b) / 2.0
    while delta > h:
        try:
            fx = f(x_guess)
            before_root = fx * fa > 0.0
        except FixedPointDomainError:  # past the domain edge, so past the root
            before_root = False
        if before_root:
            a, fa = x_guess, fx
        else:
            b = x_guess
        delta /= 2.0
        x_guess = (a + b) / 2.0
    return x_guess


def kuiper_pair_solver(alpha: float, n: int, k: int,
                       method: str = "newton") -> KuiperPair:
    """Solve the Kuiper pair (c, v) at level alpha, capacity n, order k.

    ``method`` is "newton" (Newton steps on f_nlm) or "direct" (contraction
    iteration on f_ctm).  An alpha below the order-k floor 1 + A_0 raises
    FixedPointDomainError before any iteration.  A domain error while
    iterating from C_GUESS triggers one retry from the bisection
    initializer on BRACKET; ``iterations`` counts the updates of both tries.
    """
    if method not in ("direct", "newton"):
        raise ValueError(f"method must be 'direct' or 'newton', got {method!r}")
    alpha = _check_real(alpha, "alpha")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    f = _residual(alpha, n, k)
    step = (functools.partial(f, contraction=True) if method == "direct"
            else functools.partial(_newton_step, f))
    try:
        c, iterations = _iterate(step, C_GUESS, EPSILON)
    except FixedPointDomainError as exc:
        x0 = get_init_value(f, *BRACKET)
        c, steps = _iterate(step, x0, EPSILON)
        iterations = exc.steps + steps

    return KuiperPair(c, c / math.sqrt(n), alpha, n, k, iterations, f(c))


def kuiper_utq(alpha: float, n: int, k: int) -> float:
    """Upper tail quantile of V_n by the Newton iteration; 0.0 outright for
    alpha >= 0.9999."""
    alpha = _check_real(alpha, "alpha")
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    if alpha >= 0.9999:
        return 0.0
    return kuiper_pair_solver(alpha, n, k).v


def _utq_at_complement(level: float, name: str, n: int, k: int) -> float:
    level = _check_real(level, name)
    if not 0.0 <= level < 1.0:
        raise ValueError(f"{name} must be in [0, 1), got {level}")
    return kuiper_utq(1.0 - level, n, k)


def kuiper_ltq(alpha: float, n: int, k: int) -> float:
    """Lower tail quantile of V_n, alpha in [0, 1): the upper tail quantile at
    1 - alpha (same code path, exact duality), so 0.0 for alpha <= 0.0001."""
    return _utq_at_complement(alpha, "alpha", n, k)


def kuiper_inv_cdf(x: float, n: int, k: int) -> float:
    """Inverse CDF of V_n at probability x, via the upper tail at 1 - x."""
    return _utq_at_complement(x, "probability x", n, k)
