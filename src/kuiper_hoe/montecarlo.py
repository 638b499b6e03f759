"""Monte Carlo calibration of the Kuiper test's Type I error.

Draws samples under the null, runs the order-k tests (and optional
comparators) on the same data, and reports per-method rejection rates.

Replications run in blocks of BLOCK_REPS.  Block b draws (m, n) uniforms
from the substream SeedSequence(seed, spawn_key=(b,)), with m =
min(BLOCK_REPS, replications left), and sorts each row.  It draws them with
``random(out=)`` into a leading view of one buffer of 8 min(n_rep,
BLOCK_REPS) n bytes (1.4 MiB at n = 180), the largest seen, up to 8 MiB,
kept between calls so that its pages are not faulted in anew (a larger
block draws into an array of its own, freed on return); the draws, and so
every count, are those of ``random((m, n))``.  The sorted uniforms serve
as the hypothesized CDF values F(X_(t)): a standard-normal sample mapped
back through its own CDF is that uniform sample again.  One
``vn_from_probs`` pass per block gives every replication's V_n under the
configured scheme.  The comparators need the exact statistic
(STEPHENS_MIXED: D+ at t/n, D- at (t-1)/n).  Under scheme0 that is the
block's D+ and, as max_t(q_t - (t-1)/n) = max_t(q_t - t/n) + 1/n, its D-
plus 1/n, within 2^-51 of a STEPHENS_MIXED pass (each side rounds at most
three times, on values below 1): one (m, n) subtraction per block, and
that pass only on rows whose D- floored at 0, or under any other scheme.

A given (seed, n, n_rep) reproduces the same rejection counts on every run.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .baselines import (
    _KS_FLAT_RATE,
    _check_modified_level,
    ks_utp_asymptotic,
    modified_quantile,
    modified_statistic,
)
from .gof import EdfScheme, vn_from_probs
from .series import _check_level, _is_integer, fun_a0
from .solver import kuiper_utq

__all__ = [
    "BLOCK_REPS",
    "SimConfig",
    "SimResult",
    "normal_cdf",
    "simulate_type1",
]

KNOWN_COMPARATORS = ("ks", "stephens")

# Replications per substream; fixed so that results depend on the seed only.
BLOCK_REPS = 1024
SUBSTREAMS = (f"SeedSequence(seed, spawn_key=(block,)), "
              f"{BLOCK_REPS} replications per block")
_BUFFER = []  # the kept draw buffer; a call takes it out, so none shares it
_KEPT_FLOATS = BLOCK_REPS * BLOCK_REPS  # 8 MiB: every full block up to n = 1024


def _take_buffer(size: int) -> np.ndarray:
    """The kept buffer, taken out, if it holds size floats; else a new one."""
    try:
        buffer = _BUFFER.pop() if size <= _KEPT_FLOATS else np.empty(size)
    except IndexError:
        return np.empty(size)
    return buffer if buffer.size >= size else np.empty(size)


def normal_cdf(x):
    """Standard normal CDF, 0.5 erfc(-x / sqrt 2); within 2.2e-16 of scipy's
    ndtr on [-38, 9].

    An ndarray gives an array of the same shape, each element computed with
    the scalar path's operations, so the two agree bit for bit.  Both read x
    in double precision, as float(x) or a float64 array."""
    if isinstance(x, np.ndarray):
        z = (-x.astype(float, copy=False) / math.sqrt(2.0)).ravel().tolist()
        erfc = np.fromiter(map(math.erfc, z), float, x.size)
        return 0.5 * erfc.reshape(x.shape)
    return 0.5 * math.erfc(-float(x) / math.sqrt(2.0))


@dataclass(frozen=True)
class SimConfig:
    """One Type-I-error experiment: capacity, level, orders, replication
    count, seed, and the plotting-position scheme of the test statistic.

    ``seed`` must be an integer >= 0 and ``scheme`` an ``EdfScheme``."""

    n: int
    alpha: float = 0.05
    k_set: tuple = (1, 2, 3, 4, 5)
    n_rep: int = 1000
    seed: int = 0
    scheme: EdfScheme = EdfScheme.SCHEME0
    comparators: tuple = ()

    def __post_init__(self) -> None:
        for name in ("k_set", "comparators"):
            value = getattr(self, name)
            if (isinstance(value, (str, bytes, bytearray))
                    or not isinstance(value, Iterable)):
                raise ValueError(f"{name} must be a non-str iterable such as a "
                                 f"tuple, got {value!r}")
            object.__setattr__(self, name, tuple(value))
        if not self.k_set:
            raise ValueError("k_set needs at least one order")
        for k in self.k_set:
            fun_a0(self.n, k)  # checks (n, k) through the expansion cache
        object.__setattr__(self, "alpha", _check_level(self.alpha))
        if not _is_integer(self.n_rep) or self.n_rep < 1:
            raise ValueError(f"n_rep must be an integer >= 1, got {self.n_rep!r}")
        if not _is_integer(self.seed) or self.seed < 0:
            raise ValueError(f"seed must be an integer >= 0, got {self.seed!r}")
        if not isinstance(self.scheme, EdfScheme):
            raise ValueError(f"scheme must be an EdfScheme, got {self.scheme!r}")
        for name in self.comparators:
            if name not in KNOWN_COMPARATORS:
                raise ValueError(f"unknown comparator {name!r}; "
                                 f"expected subset of {KNOWN_COMPARATORS}")
        if "stephens" in self.comparators:
            _check_modified_level(self.alpha)
        for name in ("k_set", "comparators"):
            for i, item in enumerate(value := getattr(self, name)):
                if item in value[:i]:
                    raise ValueError(f"{name} repeats {item!r}: {value!r}")


@dataclass(frozen=True)
class SimResult:
    """Per-method rejection rates with binomial 95% half-widths; ``n_rep`` is
    read by perfbench's tracer as its ``montecarlo.reps`` metric."""

    config: SimConfig
    rejections: dict
    p_type1: dict = field(init=False)
    ci_halfwidth: dict = field(init=False)
    n_rep: int = field(init=False)
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        n_rep = self.config.n_rep
        p = {m: r / n_rep for m, r in self.rejections.items()}
        ci = {m: 1.96 * math.sqrt(v * (1.0 - v) / n_rep) for m, v in p.items()}
        object.__setattr__(self, "p_type1", p)
        object.__setattr__(self, "ci_halfwidth", ci)
        object.__setattr__(self, "n_rep", n_rep)


def _method_metadata(cfg: SimConfig) -> dict:
    meta = {"hoe": f"V_n with plotting scheme {cfg.scheme.value} against the "
                   f"order-k upper tail quantile",
            "substreams": SUBSTREAMS}
    if "ks" in cfg.comparators:
        meta["ks"] = ("exact one-sample KS statistic with the asymptotic "
                      "Kolmogorov tail as p-value")
    if "stephens" in cfg.comparators:
        meta["stephens"] = ("modified statistic V_n*(sqrt(n)+0.155+0.24/sqrt(n)) "
                            "from the exact (mixed) V_n, against the "
                            "capacity-independent quantile")
    return meta


_KS_MARGIN = 1e-9  # far above the computed tail's error; see _ks_rejections


def _ks_rejections(d: np.ndarray, alpha: float, n: int) -> int:
    """The number of d with ks_utp_asymptotic(d, n) < alpha.

    With h = e^(-2nd^2), the tail 2 sum_j (-1)^(j-1) h^(j^2) has falling
    alternating terms, so lower = 2(h - h^4 + h^9 - h^16) <= tail <=
    upper = 2(h - h^4 + h^9).  The computed tail is within 3e-12 of the
    true one (up to 2e-12 from the terms it drops, the rest rounding), so a
    row with upper < alpha - _KS_MARGIN is rejected, and one with lower >
    alpha + _KS_MARGIN or a rate 2nd^2 under the flat rate (computed tail
    exactly 1) is kept; only the rows left get the full sum."""
    rate = 2.0 * n * d * d  # as ks_utp_asymptotic computes it
    h = np.exp(-rate)
    h4 = np.square(np.square(h))
    upper = 2.0 * (h - h4 + h4 * h4 * h)
    lower = upper - 2.0 * np.square(np.square(h4))
    reject = upper < alpha - _KS_MARGIN
    unsure = ~reject & (lower <= alpha + _KS_MARGIN) & (rate >= _KS_FLAT_RATE)
    count = np.count_nonzero(reject)
    if unsure.any():
        count += np.count_nonzero(ks_utp_asymptotic(d[unsure], n) < alpha)
    return int(count)


def _exact_from_scheme0(q: np.ndarray, stat: tuple) -> tuple:
    """A sorted (m, n) block's STEPHENS_MIXED (D+, D-, V_n) from its scheme0 ones."""
    d_plus, d_minus = stat[0], stat[1] + 1.0 / q.shape[1]
    floored = stat[1] == 0.0  # raw D- <= 0: the +1/n identity needs the raw value
    d_minus[floored] = vn_from_probs(q[floored], EdfScheme.STEPHENS_MIXED)[1]
    return d_plus, d_minus, d_plus + d_minus


def simulate_type1(cfg: SimConfig) -> SimResult:
    """Estimate Pr{reject | H0 true} for each configured method.

    All methods see the same replication data (paired design), drawn block
    by block as the module docstring describes.
    """
    crit = {k: kuiper_utq(cfg.alpha, cfg.n, k) for k in cfg.k_set}
    rejections = dict.fromkeys([f"hoe_k{k}" for k in cfg.k_set]
                               + list(cfg.comparators), 0)
    use_ks = "ks" in cfg.comparators
    use_stephens = "stephens" in cfg.comparators
    if use_stephens:
        c_mk = modified_quantile(cfg.alpha)
        t_mult = modified_statistic(1.0, cfg.n)

    buffer = _take_buffer(min(cfg.n_rep, BLOCK_REPS) * cfg.n)
    for block, start in enumerate(range(0, cfg.n_rep, BLOCK_REPS)):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=cfg.seed, spawn_key=(block,)))
        m = min(BLOCK_REPS, cfg.n_rep - start)
        q = rng.random(out=buffer[:m * cfg.n].reshape(m, cfg.n))
        q.sort(axis=1)
        stat = vn_from_probs(q, cfg.scheme)
        for k, v_crit in crit.items():
            rejections[f"hoe_k{k}"] += int(np.count_nonzero(stat[2] > v_crit))
        if use_ks or use_stephens:
            if cfg.scheme is EdfScheme.SCHEME0:
                stat = _exact_from_scheme0(q, stat)
            elif cfg.scheme is not EdfScheme.STEPHENS_MIXED:
                stat = vn_from_probs(q, EdfScheme.STEPHENS_MIXED)
            d_plus, d_minus, v_exact = stat
            if use_ks:
                rejections["ks"] += _ks_rejections(
                    np.maximum(d_plus, d_minus), cfg.alpha, cfg.n)
            if use_stephens:
                rejections["stephens"] += int(
                    np.count_nonzero(v_exact * t_mult > c_mk))

    if buffer.size <= _KEPT_FLOATS:
        _BUFFER.append(max(buffer, _take_buffer(0), key=len))  # keep the larger
    return SimResult(config=cfg, rejections=rejections,
                     metadata=_method_metadata(cfg))
