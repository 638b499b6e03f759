"""Goodness-of-fit testing with the Kuiper statistic.

Computes the one-sided deviations D+ and D- between the empirical
distribution of a sample and a fully specified hypothesized CDF, their sum
V_n, and an accept/reject decision against the solved critical quantile.
"""

from __future__ import annotations

import enum
import math
import struct
import warnings
from dataclasses import dataclass, field

import numpy as np

from .series import Probability, _check_capacity, _check_level, utp
from .solver import kuiper_utq

__all__ = [
    "EdfScheme",
    "TiesWarning",
    "SampleSet",
    "TestResult",
    "edf_probs",
    "vn_from_probs",
    "compute_vn",
    "kuiper_test",
]


class TiesWarning(UserWarning):
    """The sample contains tied values; a continuous population has none."""


class EdfScheme(enum.Enum):
    """Plotting-position schemes for the empirical probability of the t-th
    order statistic.

    STEPHENS_MIXED pairs t/n for the upward deviation with (t-1)/n for the
    downward one, which reproduces the exact supremum statistic of the
    empirical step function.  kuiper_test uses it; the other schemes serve
    the statistic (vn_from_probs, compute_vn, edf_probs) and the simulator.
    """

    SCHEME0 = "scheme0"
    SCHEME1 = "scheme1"
    SCHEME2 = "scheme2"
    SCHEME3 = "scheme3"
    SCHEME4 = "scheme4"
    STEPHENS_MIXED = "stephens_mixed"

    @classmethod
    def from_string(cls, name: str) -> "EdfScheme":
        try:
            return cls(name.strip().lower())
        except ValueError:
            valid = ", ".join(s.value for s in cls)
            raise ValueError(f"unknown EDF scheme {name!r}; expected one of {valid}")


@dataclass(frozen=True, eq=False)
class SampleSet:
    """A finite real sample with its order statistics; NaN, inf and text raise.

    ``values`` (in the given order) and ``sorted`` are read-only float64
    arrays.  Instances compare and hash by identity: arrays have no
    single truth value to compare fields by.
    """

    values: np.ndarray
    sorted: np.ndarray = field(init=False, repr=False)
    n: int = field(init=False)

    def __post_init__(self) -> None:
        vals = _floats(self.values)
        if not vals.size:
            raise ValueError("sample must contain at least one value")
        if not np.isfinite(vals).all():
            raise ValueError("sample values must be finite, not NaN or inf")
        srt = np.sort(vals)
        vals.flags.writeable = srt.flags.writeable = False
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "sorted", srt)
        object.__setattr__(self, "n", srt.size)
        if (srt[1:] == srt[:-1]).any():
            warnings.warn("sample contains tied values; the test assumes a "
                          "continuous population", TiesWarning, stacklevel=2)


def _floats(values) -> np.ndarray:
    """The values as float64, read as np.fromiter reads them, except that
    text, or a text element, raises ValueError: np.fromiter reads "1" as 1.0."""
    text = (str, bytes, bytearray)
    if not isinstance(values, (list, tuple, *text)):  # read twice on a failure
        values = values.tolist() if isinstance(values, np.ndarray) else list(values)
    try:
        if not isinstance(values, text):
            # struct takes real numbers only, in half np.fromiter's time
            return np.frombuffer(struct.pack(f"{len(values)}d", *values))
    except struct.error:
        if not any(isinstance(v, text) for v in values):
            return np.fromiter(values, float)  # it raises, or reads None as NaN
    raise ValueError(f"sample must be numbers, not text, got {values!r}")


@dataclass(frozen=True)
class TestResult:
    d_plus: float
    d_minus: float
    v_n: float
    v_critical: float
    p_value: Probability
    reject: bool
    alpha: float
    k: int
    scheme: EdfScheme


# Plotting positions (t - a)/(n + b) of the t-th order statistic, as
# (a for D+, a for D-, b), one row per scheme, which vn_from_probs and
# edf_probs both read; SCHEME4 is the ISO 5479 position.  a and b are
# multiples of 1/8, so t - a and n + b are exact.
_POSITIONS = {
    EdfScheme.SCHEME0: (0.0, 0.0, 0.0),
    EdfScheme.SCHEME1: (1.0, 1.0, 0.0),
    EdfScheme.SCHEME2: (0.5, 0.5, 0.0),
    EdfScheme.SCHEME3: (0.0, 0.0, 1.0),
    EdfScheme.SCHEME4: (0.375, 0.375, 0.25),
    EdfScheme.STEPHENS_MIXED: (0.0, 1.0, 0.0),
}


def _positions(n: int, scheme: EdfScheme) -> tuple[np.ndarray, np.ndarray]:
    """The n plotting positions against which D+ and D- are taken; one
    array, twice, where the two share positions."""
    try:
        a_plus, a_minus, b = _POSITIONS[scheme]
    except (KeyError, TypeError):  # TypeError: an unhashable scheme
        raise ValueError(f"scheme must be an EdfScheme, got {scheme!r}") from None
    upper = np.arange(1.0 - a_plus, n + 1.0 - a_plus) / (n + b)
    if a_minus == a_plus:
        return upper, upper
    return upper, np.arange(1.0 - a_minus, n + 1.0 - a_minus) / (n + b)


def edf_probs(n: int, scheme: EdfScheme) -> list:
    """Plotting positions [q_1, ..., q_n] for a single scheme."""
    _check_capacity(n)
    if scheme is EdfScheme.STEPHENS_MIXED:
        raise ValueError("stephens_mixed pairs two plotting positions; "
                         "use compute_vn or vn_from_probs directly")
    return _positions(n, scheme)[0].tolist()


# The longest row of a 2-D block that vn_from_probs reduces along the
# block rather than row by row (the measured crossover).
_SHORT_ROW_MAX = 100


def vn_from_probs(q, scheme: EdfScheme = EdfScheme.STEPHENS_MIXED):
    """(D+, D-, V_n) from hypothesized CDF values at the order statistics.

    q must be the sorted sequence F(X_(1)), ..., F(X_(n)).  Deviations whose
    maximum is negative floor at zero: the supremum of an empirical step
    function against a CDF is never negative.

    A 2-D array of shape (m, n) holds m samples, one per row, and gives
    three arrays of m per-row values; a 1-D sequence gives three floats.

    D- is taken as 0.0 minus the minimum of p - q, which is the maximum of
    q - p (IEEE subtraction gives q - p == -(p - q) exactly), so where D+
    and D- share positions (every scheme but STEPHENS_MIXED) one difference
    array gives both, and STEPHENS_MIXED makes two.  The floor makes a zero
    of either sign +0.0.

    A 2-D block whose rows hold at most _SHORT_ROW_MAX = 100 values
    reduces along the block: it is copied once into C order as (n, m), so
    that each max and min runs down m contiguous values per position
    instead of once per short row, whose fixed cost dominates there; the
    last subtraction overwrites the copy, so the block allocates no more
    (m, n) arrays than row by row; CHANGES.md gives the timings that set
    the crossover.  Longer rows, 1-D input and more dimensions reduce along
    the last axis.  Each difference is the same subtraction and max and min
    are exact, so both layouts give the same bits.

    An empty row, a NaN or infinite value in q, or a row whose first value
    is below 0 or whose last is above 1 raises ValueError.  Only those ends
    are checked: an unsorted row is the caller's to avoid, as [0.9, 0.1]
    gives V_n = 1.8.
    """
    q = np.atleast_1d(np.asarray(q, dtype=float))
    if not q.shape[-1]:
        raise ValueError("q must hold at least one CDF value per sample")
    upper, lower = _positions(q.shape[-1], scheme)
    shared = lower is upper
    block, axis, spare = q, -1, None
    if q.ndim == 2 and q.shape[1] <= _SHORT_ROW_MAX:
        # a copy of our own, so the last subtraction can overwrite it
        block = spare = q.T.copy()
        axis = 0
        upper, lower = upper[:, None], lower[:, None]
    diff = np.subtract(upper, block, out=spare if shared else None)
    d_plus = np.maximum(diff.max(axis=axis), 0.0)
    if not shared:
        diff = np.subtract(lower, block, out=spare)
    d_minus = np.maximum(0.0 - diff.min(axis=axis), 0.0)
    v_n = d_plus + d_minus
    # V_n >= 0, so this test of the m sums fails only where q holds a NaN,
    # which every max and min passes on, or an inf, which makes D+ or D- inf
    if not (v_n if q.ndim == 1 else v_n.max(initial=0.0)) < math.inf:
        raise ValueError("q must be finite, not NaN or inf")
    # a sorted row lies within its ends; a 1-D q is indexed, not reduced,
    # which is the cheaper of the two
    low, high = ((q[0], q[-1]) if q.ndim == 1 else
                 (q[..., 0].min(initial=0.0), q[..., -1].max(initial=1.0)))
    if low < 0.0 or high > 1.0:
        raise ValueError(f"q must be CDF values within [0, 1], got "
                         f"{float(low if low < 0.0 else high)!r}")
    if q.ndim == 1:
        return float(d_plus), float(d_minus), float(v_n)
    return d_plus, d_minus, v_n


def compute_vn(sample: SampleSet, hypothesized_cdf,
               scheme: EdfScheme = EdfScheme.STEPHENS_MIXED):
    """(D+, D-, V_n) of a sample against a fully specified CDF.

    The CDF is called once, on the array of order statistics.  If that
    call raises TypeError or ValueError, or does not give one value per
    point, it is called once per point on Python floats instead, so a
    scalar-only callable works too.
    """
    x, n = sample.sorted, sample.n
    try:
        q = np.asarray(hypothesized_cdf(x), dtype=float)
    except (TypeError, ValueError):
        q = None
    if q is None or q.shape != (n,):
        q = np.fromiter(map(hypothesized_cdf, x.tolist()), float, n)
    bad = ~((q >= 0.0) & (q <= 1.0))  # NaN fails both comparisons
    if bad.any():
        i = int(bad.argmax())
        raise ValueError(f"hypothesized CDF returned {float(q[i])!r} at "
                         f"x={float(x[i])!r}; a CDF must map into [0, 1]")
    return vn_from_probs(q, scheme)


def kuiper_test(sample: SampleSet, hypothesized_cdf, alpha: float = 0.05,
                k: int = 5) -> TestResult:
    """Run the Kuiper goodness-of-fit test at level alpha and order k.

    Rejects when the exact V_n (STEPHENS_MIXED), whose law the critical
    quantile describes, exceeds it; the p-value uses the full coefficient
    series.  V_n >= 1/n for every sample, since at t = n D+ >= 1 - q_n
    and D- >= q_n - (n-1)/n, so the series is always taken at a positive c.
    """
    alpha = _check_level(alpha)
    d_plus, d_minus, v_n = compute_vn(sample, hypothesized_cdf)
    v_critical = kuiper_utq(alpha, sample.n, k)
    return TestResult(d_plus=d_plus, d_minus=d_minus, v_n=v_n,
                      v_critical=v_critical, reject=v_n > v_critical,
                      p_value=utp(v_n * math.sqrt(sample.n), sample.n, k),
                      alpha=alpha, k=k, scheme=EdfScheme.STEPHENS_MIXED)
