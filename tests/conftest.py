"""Shared fixtures and helpers: cached Monte Carlo draws of the exact Kuiper
statistic, and the statistic of each plotting scheme by the plain formula."""

import math

import numpy as np
import pytest


def exact_vn_samples(n: int, reps: int, seed: int) -> np.ndarray:
    """Sorted draws of the exact V_n statistic for uniform samples.

    The exact statistic pairs the t/n plotting position for the upward
    deviation with (t-1)/n for the downward one.
    """
    rng = np.random.default_rng(seed)
    out = np.empty(reps)
    t = np.arange(1.0, n + 1.0)
    chunk = max(1, 2_000_000 // n)
    done = 0
    while done < reps:
        m = min(chunk, reps - done)
        u = np.sort(rng.random((m, n)), axis=1)
        d_plus = (t / n - u).max(axis=1)
        d_minus = (u - (t - 1.0) / n).max(axis=1)
        out[done:done + m] = d_plus + d_minus
        done += m
    out.sort()
    return out


# (a for D+, a for D-, b) of each EdfScheme value's plotting positions
# (t - a)/(n + b) of the t-th order statistic
SCHEME_POSITIONS = {
    "scheme0": (0.0, 0.0, 0.0),
    "scheme1": (1.0, 1.0, 0.0),
    "scheme2": (0.5, 0.5, 0.0),
    "scheme3": (0.0, 0.0, 1.0),
    "scheme4": (0.375, 0.375, 0.25),
    "stephens_mixed": (0.0, 1.0, 0.0),
}


def scheme_positions(n: int, scheme) -> tuple:
    """The positions against which D+ and D- are taken, for an EdfScheme."""
    a_plus, a_minus, b = SCHEME_POSITIONS[scheme.value]
    t = np.arange(1, n + 1).astype(float)
    return (t - a_plus) / (n + b), (t - a_minus) / (n + b)


def inline_vn(q: np.ndarray, scheme) -> tuple:
    """(D+, D-, V_n) of sorted CDF values q (one sample per row) by the
    plain formula, one subtraction per side."""
    upper, lower = scheme_positions(q.shape[-1], scheme)
    d_plus = np.maximum((upper - q).max(-1), 0.0)
    d_minus = np.maximum((q - lower).max(-1), 0.0)
    return d_plus, d_minus, d_plus + d_minus


@pytest.fixture(scope="session")
def vn_mc():
    """Factory for cached exact-statistic Monte Carlo samples."""
    cache = {}

    def get(n: int, reps: int = 200_000, seed: int = 20240611) -> np.ndarray:
        key = (n, reps, seed)
        if key not in cache:
            cache[key] = exact_vn_samples(n, reps, seed)
        return cache[key]

    return get


def empirical_cdf(sorted_samples: np.ndarray, x: float) -> float:
    return np.searchsorted(sorted_samples, x, side="right") / sorted_samples.size


def empirical_tail(sorted_samples: np.ndarray, x: float) -> float:
    return 1.0 - empirical_cdf(sorted_samples, x)
