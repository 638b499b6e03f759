"""Tests for the coefficient series, the CDF/UTP evaluators, and the
truncated coefficient blocks."""

import copy
import functools
import hashlib
import math
import os
import pickle
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest

from kuiper_hoe import series
from kuiper_hoe.series import (
    Probability,
    b_series,
    cdf_kn,
    cdf_vn,
    fun_a0,
    fun_aj,
    utp,
)

# --------------------------------------------------------------------------
# independent re-implementations used as oracles
# --------------------------------------------------------------------------

def kuiper_limit_a(c, terms=80):
    """Kuiper's classical limit CDF component, coded from its own series."""
    total = 1.0
    for j in range(1, terms + 1):
        total -= 2.0 * (4.0 * j * j * c * c - 1.0) * math.exp(-2.0 * j * j * c * c)
    return total


def kuiper_limit_b(c, terms=80):
    """Kuiper's classical 1/sqrt(n) correction, coded from its own series."""
    total = 0.0
    for j in range(1, terms + 1):
        total += (8.0 / 3.0) * c * j * j * (4.0 * j * j * c * c - 3.0) \
            * math.exp(-2.0 * j * j * c * c)
    return total


def b_term_oracle(i, j, c):
    """The j-th term of the exponential series of B_i, typed out per order."""
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
    c3 = c2 * c
    c5 = c3 * c2
    return (32.0 / 3645.0) * (16.0 * c5 * j6 * (32.0 * c2 * j6 - 168.0 * j4
                                                - 40.0 * j2 - 3.0)
                              + 40.0 * c3 * j4 * (84.0 * j4 + 40.0 * j2 + 3.0)
                              - 15.0 * c * j2 * (56.0 * j4 + 40.0 * j2 + 3.0)) * e


B_CONSTANTS = (1.0, 0.0, -1.0 / 18.0, 0.0, 1.0 / 648.0, 0.0)


def b_oracle(i, c, terms=50):
    """B_i(c) from the typed-out terms, summed over j = 1..terms."""
    return B_CONSTANTS[i] + sum(b_term_oracle(i, j, c) for j in range(1, terms + 1))


# Re-typed truncated coefficient sets: the coefficient of e^{-2 j^2 c^2}
# contributed by each order i, for j = 1 and j = 2.
def _b1_coeffs(c):
    return (
        -(8 * c**2 - 2),
        (8.0 / 3.0) * c * (4 * c**2 - 3),
        -(1.0 / 9.0) * (4 * c**2 * (16 * c**2 - 25) + 13),
        (32.0 / 81.0) * c * (8 * c**4 - 22 * c**2 + 9),
        (1.0 / 972.0) * (16 * c**4 * (-64 * c**2 + 281) - 3864 * c**2 + 363),
        (32.0 / 3645.0) * (16 * c**5 * (32 * c**2 - 211) + 5080 * c**3 - 1485 * c),
    )


def _b2_coeffs(c):
    return (
        -(32 * c**2 - 2),
        (32.0 / 3.0) * c * (16 * c**2 - 3),
        -(1.0 / 9.0) * (16 * c**2 * (256 * c**2 - 97) + 49),
        (64.0 / 81.0) * c * (1024 * c**4 - 656 * c**2 + 63),
        (1.0 / 972.0) * (256 * c**4 * (-4096 * c**2 + 4001) - 199776 * c**2 + 2403),
        (32.0 / 3645.0) * (1024 * c**5 * (2048 * c**2 - 2851)
                           + 964480 * c**3 - 63540 * c),
    )


def aj_oracle(j, c, n, k):
    coeffs = _b1_coeffs(c) if j == 1 else _b2_coeffs(c)
    total = 0.0
    scale = 1.0
    sqrt_n = math.sqrt(n)
    for i in range(k + 1):
        total -= coeffs[i] * scale
        scale /= sqrt_n
    return total


def a1_closed_k5(c, n):
    """One-shot transcription of the full order-5 block for A_1."""
    return ((8 * c**2 - 2)
            - (8.0 / (3.0 * math.sqrt(n))) * (4 * c**3 - 3 * c)
            + (1.0 / (9.0 * n)) * (64 * c**4 - 100 * c**2 + 13)
            - (32.0 / (81.0 * n**1.5)) * (8 * c**5 - 22 * c**3 + 9 * c)
            + (1.0 / (972.0 * n**2)) * (1024 * c**6 - 4496 * c**4
                                        + 3864 * c**2 - 363)
            - (32.0 / (3645.0 * n**2.5)) * (512 * c**7 - 3376 * c**5
                                            + 5080 * c**3 - 1485 * c))


def a2_closed_k5(c, n):
    """One-shot transcription of the full order-5 block for A_2."""
    return ((32 * c**2 - 2)
            - (32.0 / (3.0 * math.sqrt(n))) * (16 * c**3 - 3 * c)
            + (1.0 / (9.0 * n)) * (4096 * c**4 - 1552 * c**2 + 49)
            - (64.0 / (81.0 * n**1.5)) * (1024 * c**5 - 656 * c**3 + 63 * c)
            + (1.0 / (972.0 * n**2)) * (1048576 * c**6 - 1024256 * c**4
                                        + 199776 * c**2 - 2403)
            - (32.0 / (3645.0 * n**2.5)) * (2097152 * c**7 - 2919424 * c**5
                                            + 964480 * c**3 - 63540 * c))


# --------------------------------------------------------------------------
# b_series
# --------------------------------------------------------------------------

class TestBSeries:
    def test_limits_at_large_c(self):
        assert b_series(0, 10.0) == pytest.approx(1.0, abs=1e-12)
        assert b_series(1, 10.0) == pytest.approx(0.0, abs=1e-12)

    def test_b0_at_asymptotic_one_percent_point(self):
        # at the asymptotic 1% critical value, B_0 alone carries the CDF
        assert b_series(0, 2.0006) == pytest.approx(0.99, abs=5e-4)

    @pytest.mark.parametrize("i", range(6))
    @pytest.mark.parametrize("c", [0.8, 1.0, 1.5, 2.2])
    def test_extended_truncation_oracle(self, i, c):
        assert b_series(i, c) == pytest.approx(b_oracle(i, c), abs=1e-12)

    @pytest.mark.parametrize("c", np.linspace(0.6, 3.0, 25).tolist())
    def test_matches_classical_limit_functions(self, c):
        assert b_series(0, c) == pytest.approx(kuiper_limit_a(c), abs=1e-12)
        assert b_series(1, c) == pytest.approx(kuiper_limit_b(c), abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            b_series(6, 1.0)
        with pytest.raises(ValueError):
            b_series(-1, 1.0)
        with pytest.raises(ValueError):
            b_series(0, 0.0)
        with pytest.raises(ValueError):
            b_series(0, -1.0)
        with pytest.raises(ValueError):
            b_series(True, 1.0)


# --------------------------------------------------------------------------
# truncated coefficient blocks
# --------------------------------------------------------------------------

class TestCoefficientBlocks:
    def test_a0_values(self):
        for n in (1, 5, 17, 1000):
            assert fun_a0(n, 1) == -1.0
        assert fun_a0(1, 2) == pytest.approx(-1.0 + 1.0 / 18.0, abs=1e-15)
        assert fun_a0(1, 4) == pytest.approx(-1.0 + 1.0 / 18.0 - 1.0 / 648.0,
                                             abs=1e-15)

    def test_a1_hand_value(self):
        # (8 - 2) - 8*(4 - 3)/(3*2) at c=1, n=4, k=1
        assert fun_aj(1, 1.0, 4, 1) == pytest.approx(6.0 - 8.0 / 6.0, rel=1e-15)

    def test_a2_hand_value(self):
        # 30 - 32*13/(3*2) at c=1, n=4, k=1
        assert fun_aj(2, 1.0, 4, 1) == pytest.approx(30.0 - 32.0 * 13.0 / 6.0,
                                                     rel=1e-15)

    def test_invalid_j(self):
        with pytest.raises(ValueError):
            fun_aj(0, 1.0, 4, 1)
        with pytest.raises(ValueError):
            fun_aj(3, 1.0, 4, 1)

    def test_against_retyped_coefficients(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            j = int(rng.integers(1, 3))
            c = float(rng.uniform(0.5, 3.0))
            n = int(rng.integers(1, 2000))
            k = int(rng.integers(1, 6))
            got = fun_aj(j, c, n, k)
            want = aj_oracle(j, c, n, k)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("n", [1, 6, 10, 1000])
    def test_a2_table_shift(self, n, k):
        # A_2 is the j = 2 part of the series, except for the published
        # tables' k >= 4 constant, which lies 1920/(972 n^2) above it
        shift = 1920.0 / (972.0 * n * n) if k >= 4 else 0.0
        for c in (0.7, 1.3, 2.1):
            series_part = -sum(b_term_oracle(i, 2, c) * math.exp(8.0 * c * c)
                               / math.sqrt(n) ** i for i in range(k + 1))
            assert fun_aj(2, c, n, k) - series_part == pytest.approx(
                shift, abs=1e-10 * max(1.0, abs(series_part)))

    @pytest.mark.parametrize("n", [4, 6, 10, 100])
    @pytest.mark.parametrize("c", [0.8, 1.2, 1.8, 2.6])
    def test_accumulation_equals_closed_form(self, n, c):
        # gated accumulation and the one-shot order-5 block are identities
        assert fun_aj(1, c, n, 5) == pytest.approx(a1_closed_k5(c, n),
                                                   rel=1e-13, abs=1e-10)
        assert fun_aj(2, c, n, 5) == pytest.approx(a2_closed_k5(c, n),
                                                   rel=1e-13, abs=1e-10)


def horner(coeffs, c):
    total = 0.0
    for a in coeffs:
        total = total * c + a
    return total


class TestTailRecord:
    """The expansion cache keeps the tail form's coefficient pairs and the
    k >= 4 shift of A_2, built once per (n, k)."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("n", [1, 6, 10, 10**6, np.int64(2**40)])
    def test_pairs_and_shift(self, n, k):
        _, rows, _, pairs, shift = series._expansion(n, k)
        assert pairs == tuple(zip(rows[0][1], rows[1][1]))
        want = series._A2_TABLE_SHIFT / (float(n) * float(n)) if k >= 4 else -0.0
        assert shift.hex() == want.hex()  # -0.0 keeps a zero A_2 as it is

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_coefficients_equal_one_horner_pass_per_row(self, k):
        for n in (1, 2, 6, 10, 1000):
            _, rows, _, _, shift = series._expansion(n, k)
            for c in np.linspace(0.05, 6.0, 120).tolist():
                assert fun_aj(1, c, n, k).hex() == (-horner(rows[0][1], c)).hex()
                assert fun_aj(2, c, n, k).hex() == \
                    (shift - horner(rows[1][1], c)).hex()


# --------------------------------------------------------------------------
# CDF / UTP
# --------------------------------------------------------------------------

class TestCdf:
    def test_large_c_limit(self):
        # for k >= 2 the approximant saturates at 1 - 1/(18n) + 1/(648 n^2)
        n = 10
        limit = 1.0 - 1.0 / (18.0 * n) + 1.0 / (648.0 * n * n)
        assert float(cdf_kn(10.0, n, 5)) == pytest.approx(limit, abs=1e-9)

    def test_asymptotic_five_percent_point(self):
        assert float(cdf_kn(1.7469, 10**6, 1)) == pytest.approx(0.95, abs=5e-4)

    def test_table_values_round_trip(self):
        assert float(cdf_vn(0.5080, 10, 1)) == pytest.approx(0.95, abs=5e-4)
        assert float(cdf_vn(0.8948, 6, 5)) == pytest.approx(0.99, abs=1e-3)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("n", [2, 6, 10, 1000])
    def test_matches_per_order_oracle(self, n, k):
        # the orders are combined once per (n, k); summing them one by one
        # in another order may differ only by rounding
        for c in np.linspace(0.6, 3.5, 59):
            want = sum(b_oracle(i, c, terms=10) / math.sqrt(n) ** i
                       for i in range(k + 1))
            assert cdf_kn(c, n, k).raw == pytest.approx(want, abs=1e-13)

    def test_cdf_vn_delegates_exactly(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            v = float(rng.uniform(0.2, 1.2))
            n = int(rng.integers(2, 500))
            k = int(rng.integers(1, 6))
            assert float(cdf_vn(v, n, k)) == float(cdf_kn(v * math.sqrt(n), n, k))

    _TAIL_DIP = pytest.mark.xfail(
        reason="the order-5 tail term makes the approximant dip by ~4e-8 "
               "beyond c=2.8 when n <= 7", strict=True)

    @pytest.mark.parametrize("n,k", [
        pytest.param(6, 5, marks=_TAIL_DIP),
        pytest.param(7, 5, marks=_TAIL_DIP),
        *[(n, k) for n in (6, 7, 10, 50, 10**6) for k in (1, 2, 3, 4, 5)
          if not (k == 5 and n in (6, 7))],
    ])
    def test_monotone_on_grid(self, n, k):
        grid = np.arange(1.0, 3.0001, 0.01)
        values = [float(cdf_kn(c, n, k)) for c in grid]
        assert all(b >= a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_limit_consistency_bound(self, k):
        n = 10**6
        for c in np.arange(0.8, 3.0, 0.2):
            gap = abs(float(cdf_kn(c, n, k)) - b_series(0, c))
            bound = 2.0 / math.sqrt(n) * max(abs(b_series(i, c))
                                             for i in range(6))
            assert gap <= bound

    def test_truncation_stability(self):
        for c in np.arange(0.8, 3.01, 0.2):
            for i in range(6):
                assert abs(b_series(i, c) - b_oracle(i, c)) < 1e-12

    def test_clamping_flags(self):
        # far below the trust floor the raw series leaves [0, 1]
        p = cdf_kn(0.18, 4, 5)
        assert 0.0 <= float(p) <= 1.0
        assert p.clamped
        assert p.raw != float(p)

    def test_floor_warning(self):
        assert cdf_kn(0.5, 10, 3).warning is not None
        assert cdf_kn(0.7, 10, 3).warning is None


class TestUtp:
    def test_reference_table_value(self):
        assert float(utp(1.9721, 20, 3)) == pytest.approx(0.01, abs=1e-3)

    def test_far_tail(self):
        # order 1 has no constant residue, so the tail vanishes
        assert float(utp(50.0, 10, 1)) == pytest.approx(0.0, abs=1e-12)
        # higher orders keep the 1/(18n) - 1/(648 n^2) residue
        assert float(utp(50.0, 10, 5)) == pytest.approx(
            1.0 / 180.0 - 1.0 / 64800.0, abs=1e-12)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("n", [6, 10, 100])
    def test_truncated_matches_full_series(self, n, k):
        for c in np.arange(1.2, 3.01, 0.1):
            full = float(utp(c, n, k))
            trunc = float(utp(c, n, k, truncated=True))
            assert abs(full - trunc) < 1e-6

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("n", [1, 6, 10, 1000])
    def test_truncated_is_the_public_tail_form(self, n, k):
        # one tail form serves utp and the solver; the public coefficients
        # (with the k >= 4 shift of A_2) must give it bit for bit
        for c in np.linspace(0.3, 3.5, 33):
            want = ((1.0 + fun_a0(n, k)) + fun_aj(1, c, n, k) * math.exp(-2.0 * c * c)
                    + fun_aj(2, c, n, k) * math.exp(-8.0 * c * c))
            assert utp(c, n, k, truncated=True).raw == want

    def test_probability_type(self):
        p = utp(1.5, 10, 5)
        assert isinstance(p, Probability)
        assert 0.0 <= float(p) <= 1.0


class TestProbabilityValue:
    """The clamp and the fields of a Probability, pinned by their bits."""

    # (raw argument, float(p).hex(), p.raw.hex(), p.clamped): NaN clamps to
    # 0.0 and counts as clamped; -0.0 becomes +0.0 and does not
    CASES = (
        (math.nan, "0x0.0p+0", "nan", True),
        (0.0, "0x0.0p+0", "0x0.0p+0", False),
        (-0.0, "0x0.0p+0", "-0x0.0p+0", False),
        (math.inf, "0x1.0000000000000p+0", "inf", True),
        (-math.inf, "0x0.0p+0", "-inf", True),
        (5e-324, "0x0.0000000000001p-1022", "0x0.0000000000001p-1022", False),
        (-1e-300, "0x0.0p+0", "-0x1.56e1fc2f8f359p-997", True),
        (1.0, "0x1.0000000000000p+0", "0x1.0000000000000p+0", False),
        (math.nextafter(1.0, 2.0), "0x1.0000000000000p+0",
         "0x1.0000000000001p+0", True),
        (1.5, "0x1.0000000000000p+0", "0x1.8000000000000p+0", True),
        (3, "0x1.0000000000000p+0", "0x1.8000000000000p+1", True),
        (0, "0x0.0p+0", "0x0.0p+0", False),
        (True, "0x1.0000000000000p+0", "0x1.0000000000000p+0", False),
        (False, "0x0.0p+0", "0x0.0p+0", False),
        (np.float64(0.25), "0x1.0000000000000p-2", "0x1.0000000000000p-2", False),
        (np.float64(-2.0), "0x0.0p+0", "-0x1.0000000000000p+1", True),
    )

    @staticmethod
    def fields(p):
        return float(p).hex(), p.raw.hex(), p.clamped, p.warning

    @pytest.mark.parametrize("raw,value,raw_hex,clamped", CASES,
                             ids=[repr(case[0]) for case in CASES])
    def test_clamp(self, raw, value, raw_hex, clamped):
        p = Probability(raw)
        assert type(p) is Probability and type(p.raw) is float
        assert self.fields(p) == (value, raw_hex, clamped, None)

    @pytest.mark.parametrize("raw,warning,want", [
        (0.5, "advisory", ("0x1.0000000000000p-1", "0x1.0000000000000p-1", False,
                           "advisory")),
        (math.nan, "advisory", ("0x0.0p+0", "nan", True, "advisory")),
        (2.0, None, ("0x1.0000000000000p+0", "0x1.0000000000000p+1", True, None)),
    ])
    def test_warning_keyword(self, raw, warning, want):
        assert self.fields(Probability(raw, warning=warning)) == want

    @pytest.mark.parametrize("copy_of", [
        lambda p: pickle.loads(pickle.dumps(p, protocol=2)),
        lambda p: pickle.loads(pickle.dumps(p)),
        copy.copy,
        copy.deepcopy,
    ], ids=["pickle-2", "pickle-default", "copy", "deepcopy"])
    def test_copies_keep_every_field(self, copy_of):
        for p in (Probability(1.5, warning="advisory"), Probability(math.nan),
                  Probability(-0.0), Probability(0.25), cdf_kn(0.18, 4, 5)):
            q = copy_of(p)
            assert type(q) is Probability
            assert self.fields(q) == self.fields(p)

    def test_no_other_attributes(self):
        # __slots__: the three fields and nothing else
        p = Probability(0.5)
        with pytest.raises(AttributeError):
            p.note = "x"
        assert not hasattr(p, "__dict__")


# --------------------------------------------------------------------------
# the early exit of the j sum
# --------------------------------------------------------------------------

SWEEP_CAPACITIES = (1, 2, 3, 6, 7, 10, 20, 50, 100, 1000, 10**6)
SWEEP_C = np.linspace(0.05, 12.0, 4400).tolist()


def full_sum(expansion, c):
    """The expansion summed over all J_MAX terms, the loop before the cut.
    The term slots of a cached expansion are all filled first, through
    _evaluate at c = 0.05, where no term is cut."""
    total, rows = expansion[:2]
    if isinstance(rows, list):  # a cached expansion, not the reference
        series._evaluate(expansion, 0.05)
    c2 = c * c
    for j2, coeffs in rows:
        p = 0.0
        for a in coeffs:
            p = p * c + a
        total += p * math.exp(-2.0 * j2 * c2)
    return total


class TestEarlyExit:
    @pytest.mark.parametrize("n", SWEEP_CAPACITIES)
    def test_bit_identical_to_full_sum(self, n):
        for k in range(1, 6):
            expansion = series._expansion(n, k)
            for c in SWEEP_C:
                assert series._evaluate(expansion, c).hex() == \
                    full_sum(expansion, c).hex(), (n, k, c)

    @pytest.mark.parametrize("i", range(6))
    def test_b_series_bit_identical_to_full_sum(self, i):
        # odd orders have C = 0, so their total is tiny at large c and the
        # cut must be relative to it
        expansion = series._SINGLE_ORDERS[i]
        for c in SWEEP_C:
            assert b_series(i, c).hex() == full_sum(expansion, c).hex(), c

    def test_nothing_cut_near_smallest_c(self, monkeypatch):
        calls = []
        exp = math.exp
        monkeypatch.setattr(series.math, "exp", lambda x: calls.append(x) or exp(x))
        for c in np.linspace(0.05, 0.06, 11).tolist():
            for n, k in ((1, 5), (10, 3), (10**6, 1)):
                calls.clear()
                expansion = series._expansion(n, k)
                got = series._evaluate(expansion, c)
                assert len(calls) == series.J_MAX
                assert got.hex() == full_sum(expansion, c).hex()

    def test_sum_is_cut_at_large_c(self, monkeypatch):
        calls = []
        exp = math.exp
        monkeypatch.setattr(series.math, "exp", lambda x: calls.append(x) or exp(x))
        for c in np.linspace(2.0, 12.0, 41).tolist():
            for n, k in ((1, 5), (6, 4), (1000, 2), (10**6, 1)):
                calls.clear()
                cdf_kn(c, n, k)
                assert len(calls) < series.J_MAX, (c, n, k)
            for i in range(6):
                calls.clear()
                b_series(i, c)
                assert len(calls) < series.J_MAX, (c, i)


@functools.cache
def reference_entries():
    """[i][j - 1][p]: factor_i times the exact integer coefficient of c^p in
    P_i(c, j^2)."""
    entries = []
    for _, factor, poly in series._TABLE:
        per_j = []
        for j in range(1, series.J_MAX + 1):
            exact = [0] * (len(series._TABLE) + 2)
            for (p, q), coef in poly.items():
                exact[p] += coef * j ** (2 * q)
            per_j.append([factor * a for a in exact])
        entries.append(per_j)
    return entries


def reference_expansion(n, k):
    """The order-k expansion at n, added left to right in plain Python: per
    j and power of c, sum_i w_i * entry_i, and the constant sum_i w_i C_i,
    each from 0.0 in index order."""
    n = float(n)
    root = math.sqrt(n)
    weights = [1.0 / p for p in (1.0, root, n, n * root, n * n, n * n * root)[:k + 1]]
    const = 0.0
    for w, (c_i, _, _) in zip(weights, series._TABLE):
        const += w * c_i
    rows = []
    for j, per_order in enumerate(zip(*reference_entries()), start=1):
        coeffs = []
        for p in range(k + 2, -1, -1):
            total = 0.0
            for w, entries in zip(weights, per_order):
                total += w * entries[p]
            coeffs.append(total)
        rows.append((float(j * j), tuple(coeffs)))
    return const, tuple(rows)


def built(rows):
    """The number of term slots whose coefficients are built."""
    return sum(coeffs is not None for _, coeffs in rows)


def expansion_hex(expansion):
    """Hex of the constant and of every term.  The term slots of a cached
    expansion are all filled first, through _evaluate at c = 0.05, where no
    term is cut."""
    const, rows = expansion[:2]
    if isinstance(rows, list):  # a cached expansion, not the reference
        series._evaluate(expansion, 0.05)
    assert built(rows) == len(rows) == series.J_MAX
    return [const.hex()] + [" ".join(map(float.hex, (j2, *coeffs)))
                            for j2, coeffs in rows]


def expansion_digest():
    """sha256 of every (n, k) expansion for n = 1..2000, k = 1..5, all
    J_MAX terms of each (see expansion_hex)."""
    digest = hashlib.sha256()
    for n in range(1, 2001):
        for k in range(1, 6):
            digest.update("\n".join(expansion_hex(series._expansion(n, k)))
                          .encode() + b"\n")
    return digest.hexdigest()


class TestFixedOrderSum:
    """The expansion adds its orders in index order, one rounding per step,
    so its bits depend neither on the BLAS kernel nor on how the Python
    version sums floats."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_equals_left_to_right_reference(self, k):
        for n in range(1, 2001):
            assert expansion_hex(series._expansion(n, k)) == \
                expansion_hex(reference_expansion(n, k)), (n, k)

    def test_same_digest_under_another_blas_kernel(self):
        tests = os.path.dirname(os.path.abspath(__file__))
        src = os.path.dirname(os.path.dirname(os.path.abspath(series.__file__)))
        env = dict(os.environ, OPENBLAS_CORETYPE="Prescott",
                   PYTHONPATH=os.pathsep.join([src, tests]))
        child = subprocess.run(
            [sys.executable, "-c",
             "from test_series import expansion_digest; print(expansion_digest())"],
            env=env, capture_output=True, text=True, check=True)
        assert child.stdout.strip() == expansion_digest()


class TestLazyTerms:
    """A cache miss builds the terms j = 1, 2 and holds a slot for each
    later term; _evaluate builds and keeps each later term the first time
    it reaches it."""

    @pytest.mark.parametrize("cs", [(3.0, 0.3), (0.3,), (3.0, 1.2, 0.3, 0.3)],
                             ids=["large-then-small", "small", "stepwise"])
    def test_growth_order_is_irrelevant(self, cs):
        for n in (1, 2, 6, 10, 1000, 10**6):
            for k in range(1, 6):
                expansion = series._expansion.__wrapped__(n, k)  # a fresh key
                rows = expansion[1]
                assert built(rows) == 2
                for c in cs:
                    series._evaluate(expansion, c)
                assert built(rows) == series.J_MAX
                assert [j2 for j2, _ in rows] == \
                    [(j + 1) ** 2 for j in range(series.J_MAX)]
                assert expansion_hex(expansion) == \
                    expansion_hex(reference_expansion(n, k)), (n, k, cs)

    def test_threads_growing_one_expansion_agree(self):
        # threads grow the same fresh expansions at once, each through its
        # own sequence of c; a term added twice or skipped changes the bits
        sequences = [(0.05,), (1.5, 0.05), (2.5, 1.0, 0.3), (0.3, 0.05)]
        keys = [(n, k) for n in range(7, 67) for k in (1, 5)]
        expansions = [series._expansion.__wrapped__(*key) for key in keys]
        barrier = threading.Barrier(len(sequences), timeout=60)
        got, errors = [], []

        def work(seq):
            try:
                for expansion in expansions:
                    barrier.wait()
                    got.append([series._evaluate(expansion, c) for c in seq])
            except BaseException as exc:  # reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(seq,))
                       for seq in sequences]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(got) == len(sequences) * len(keys)
        want = [[full_sum(reference_expansion(*key), c) for c in seq]
                for seq in sequences for key in keys]
        assert sorted(got) == sorted(want)
        for key, expansion in zip(keys, expansions):
            assert expansion_hex(expansion) == \
                expansion_hex(reference_expansion(*key)), key

    def test_record_holds_its_weights(self):
        # the slots are a plain list, and the weights a later term is built
        # from are a field of the record
        expansion = series._expansion.__wrapped__(10, 3)
        _, slots, weights, _, _ = expansion
        assert type(expansion) is tuple and type(slots) is list
        root = math.sqrt(10.0)
        assert weights == [1.0, 1.0 / root, 1.0 / 10.0, 1.0 / (10.0 * root)]
        for i, (_, slots, weights) in enumerate(series._SINGLE_ORDERS):
            assert type(slots) is list and weights == [0.0] * i + [1.0]

    def test_large_c_builds_no_term_it_cuts(self):
        expansion = series._expansion.__wrapped__(10, 5)
        series._evaluate(expansion, 3.0)
        assert built(expansion[1]) == 2


class TestLargeArgument:
    """Past c ~ 27 every exponential underflows to 0 and only the constant
    is left, even where a polynomial overflows to inf (from c ~ 1e42 at
    k = 5 and ~ 6e102 at k = 1), whose inf * 0 used to give NaN."""

    HUGE_C = (30.0, 1e40, 1e45, 1e60, 6e102, 1e200, sys.float_info.max)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("n", [1, 10, 10**6])
    def test_cdf_and_utp_tend_to_the_constant(self, n, k):
        const = -fun_a0(n, k)
        for c in self.HUGE_C:
            assert cdf_kn(c, n, k).raw == const
            assert utp(c, n, k).raw == 1.0 - const
            assert utp(c, n, k, truncated=True).raw == 1.0 + fun_a0(n, k)
            assert cdf_vn(c / math.sqrt(n), n, k).raw == const

    def test_b_series_tends_to_its_constant(self):
        constants = (1.0, 0.0, -1.0 / 18.0, 0.0, 1.0 / 648.0, 0.0)
        for i, const in enumerate(constants):
            for c in self.HUGE_C:
                assert b_series(i, c) == const


class TestMalformedInput:
    @pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_bad_argument_raises(self, c):
        with pytest.raises(ValueError, match="positive and finite"):
            cdf_kn(c, 10, 5)
        with pytest.raises(ValueError, match="positive and finite"):
            utp(c, 10, 5)
        with pytest.raises(ValueError, match="positive and finite"):
            utp(c, 10, 5, truncated=True)
        with pytest.raises(ValueError, match="positive and finite"):
            b_series(2, c)

    @pytest.mark.parametrize("n,k", [(True, 5), (10, True), (10.5, 5), (10.0, 5),
                                     (10, 5.0), (0, 5), (10, 0), (10, 6),
                                     (np.bool_(True), 5)])
    def test_bad_key_raises(self, n, k):
        for f in (lambda: cdf_kn(1.5, n, k), lambda: fun_a0(n, k),
                  lambda: fun_aj(1, 1.5, n, k)):
            with pytest.raises(ValueError, match="must be an integer"):
                f()

    def test_bad_key_raises_after_its_twin_is_cached(self):
        # True == 1 and 10.0 == 10 hash alike, so the check inside the cached
        # expansion would be skipped here if the cache were not typed
        cdf_kn(1.5, 1, 1)
        cdf_kn(1.5, 10, 5)
        with pytest.raises(ValueError):
            cdf_kn(1.5, True, 1)
        with pytest.raises(ValueError):
            cdf_kn(1.5, 1, True)
        with pytest.raises(ValueError):
            cdf_kn(1.5, 10.0, 5)
        with pytest.raises(ValueError):
            cdf_kn(1.5, np.float64(10.0), 5)
        with pytest.raises(ValueError):
            cdf_kn(1.5, np.float64(1.0), 1)
        with pytest.raises(ValueError):
            cdf_kn(1.5, 1, np.float64(1.0))

    @pytest.mark.parametrize("n", [-3, 0, True, 10.0])
    def test_cdf_vn_checks_capacity_first(self, n):
        # checked before sqrt(n), which would raise a math domain error at
        # n = -3 and blame c at n = 0
        with pytest.raises(ValueError) as err:
            cdf_vn(0.5, n, 1)
        assert str(err.value) == f"sample capacity n must be an integer >= 1, got {n!r}"

    @pytest.mark.parametrize("v", [math.nan, math.inf, -math.inf, 0.0, -0.5])
    def test_cdf_vn_names_a_bad_v(self, v):
        with pytest.raises(ValueError) as err:
            cdf_vn(v, 10, 1)
        assert str(err.value) == ("statistic argument v must be positive and "
                                  f"finite, got {v}")

    def test_cdf_vn_names_the_v_whose_c_overflows(self):
        with pytest.raises(ValueError) as err:
            cdf_vn(1e308, 10**6, 1)
        assert str(err.value) == ("statistic argument v=1e+308 overflows "
                                  "c = v * sqrt(n) at n=1000000")
        assert cdf_vn(1e308, 1, 1).raw == cdf_kn(1e308, 1, 1).raw

    def test_capacity_beyond_float_range_raises(self):
        # float(n) in the expansion would raise OverflowError
        n = 10**400
        for f in (lambda: cdf_kn(1.0, n, 1), lambda: fun_a0(n, 1),
                  lambda: cdf_vn(0.5, n, 1)):
            with pytest.raises(ValueError) as err:
                f()
            assert str(err.value) == ("sample capacity n must be an integer >= 1, "
                                      f"got {n!r}")

    def test_largest_float_capacity_accepted(self):
        top = int(sys.float_info.max)
        assert fun_a0(top, 1) == -1.0
        with pytest.raises(ValueError, match="sample capacity"):
            fun_a0(top + 1, 1)

    def test_numpy_integers_accepted(self):
        want = float(cdf_kn(1.5, 10, 5))
        assert float(cdf_kn(1.5, np.int64(10), 5)) == want
        assert float(cdf_kn(1.5, 10, np.int32(5))) == want
        assert fun_aj(2, 1.5, np.int64(10), 5) == fun_aj(2, 1.5, 10, 5)
        assert fun_aj(np.int64(2), 1.5, 10, 5) == fun_aj(2, 1.5, 10, 5)

    @pytest.mark.parametrize("j", [True, False, 1.0, 2.0, np.bool_(True)])
    def test_bad_exponent_index_raises(self, j):
        with pytest.raises(ValueError, match="must be 1 or 2"):
            fun_aj(j, 1.5, 10, 5)

    @pytest.mark.parametrize("n", [4_000_000_000, 2**32])
    def test_large_numpy_capacity_does_not_overflow(self, n):
        # n * n exceeds the int64 range here; 2**32 squares to exactly 0.
        # The NumPy key is looked up first, so an overflowed entry would
        # also reach the equal-hashing plain int afterwards.
        from kuiper_hoe.series import _expansion
        _expansion.cache_clear()
        want_a0 = -(1.0 - 1.0 / (18.0 * n) + 1.0 / (648.0 * float(n) ** 2))
        want_cdf = sum(b_oracle(i, 1.5, terms=10) / math.sqrt(n) ** i
                       for i in range(6))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for key in (np.int64(n), n):
                assert fun_a0(key, 5) == pytest.approx(want_a0, rel=1e-15, abs=0)
                assert cdf_kn(1.5, key, 5).raw == pytest.approx(want_cdf, abs=1e-13)


# Invalid calls to the scalar entry points and the ValueError each raises:
# every bad value alone, then bad values together, so that the check that
# fires first is pinned (cdf_vn checks n before v; fun_aj checks j, c, n, k).
ERROR_CASES = (
    ('cdf_kn(0.0, 10, 5)',
     'ValueError', 'statistic argument c must be positive and finite, got 0.0'),
    ('cdf_kn(-1.0, 10, 5)',
     'ValueError', 'statistic argument c must be positive and finite, got -1.0'),
    ('cdf_kn(nan, 10, 5)',
     'ValueError', 'statistic argument c must be positive and finite, got nan'),
    ('cdf_kn(inf, 10, 5)',
     'ValueError', 'statistic argument c must be positive and finite, got inf'),
    ('cdf_kn(1.5, 0, 5)',
     'ValueError', 'sample capacity n must be an integer >= 1, got 0'),
    ('cdf_kn(1.5, True, 5)',
     'ValueError', 'sample capacity n must be an integer >= 1, got True'),
    ('cdf_kn(1.5, 10.0, 5)',
     'ValueError', 'sample capacity n must be an integer >= 1, got 10.0'),
    ('cdf_kn(1.5, np.float64(10), 5)',
     'ValueError', 'sample capacity n must be an integer >= 1, got np.float64(10.0)'),
    ('cdf_kn(1.5, 10, 0)',
     'ValueError', 'expansion order k must be an integer in 1..5, got 0'),
    ('cdf_kn(1.5, 10, 6)',
     'ValueError', 'expansion order k must be an integer in 1..5, got 6'),
    ('cdf_kn(1.5, 10, True)',
     'ValueError', 'expansion order k must be an integer in 1..5, got True'),
    ('cdf_kn(nan, 0, 5)',
     'ValueError', 'statistic argument c must be positive and finite, got nan'),
    ('cdf_kn(nan, 10, 6)',
     'ValueError', 'statistic argument c must be positive and finite, got nan'),
    ('cdf_kn(1.5, 0, 6)',
     'ValueError', 'sample capacity n must be an integer >= 1, got 0'),
    ('cdf_kn(nan, 0, 6)',
     'ValueError', 'statistic argument c must be positive and finite, got nan'),
    ('cdf_vn(0.0, 10, 5)',
     'ValueError', 'statistic argument v must be positive and finite, got 0.0'),
    ('cdf_vn(-1.0, 10, 5)',
     'ValueError', 'statistic argument v must be positive and finite, got -1.0'),
    ('cdf_vn(nan, 10, 5)',
     'ValueError', 'statistic argument v must be positive and finite, got nan'),
    ('cdf_vn(inf, 10, 5)',
     'ValueError', 'statistic argument v must be positive and finite, got inf'),
    ('cdf_vn(1e308, 10, 5)',
     'ValueError', 'statistic argument v=1e+308 overflows c = v * sqrt(n) at n=10'),
    ('cdf_vn(0.5, 0, 5)',
     'ValueError', 'sample capacity n must be an integer >= 1, got 0'),
    ('cdf_vn(0.5, True, 5)',
     'ValueError', 'sample capacity n must be an integer >= 1, got True'),
    ('cdf_vn(0.5, 10.0, 5)',
     'ValueError', 'sample capacity n must be an integer >= 1, got 10.0'),
    ('cdf_vn(0.5, np.float64(10), 5)',
     'ValueError', 'sample capacity n must be an integer >= 1, got np.float64(10.0)'),
    ('cdf_vn(0.5, 10, 0)',
     'ValueError', 'expansion order k must be an integer in 1..5, got 0'),
    ('cdf_vn(0.5, 10, 6)',
     'ValueError', 'expansion order k must be an integer in 1..5, got 6'),
    ('cdf_vn(0.5, 10, True)',
     'ValueError', 'expansion order k must be an integer in 1..5, got True'),
    ('cdf_vn(-1.0, True, 5)',
     'ValueError', 'sample capacity n must be an integer >= 1, got True'),
    ('cdf_vn(-1.0, 10, 0)',
     'ValueError', 'statistic argument v must be positive and finite, got -1.0'),
    ('cdf_vn(0.5, True, 0)',
     'ValueError', 'sample capacity n must be an integer >= 1, got True'),
    ('cdf_vn(-1.0, True, 0)',
     'ValueError', 'sample capacity n must be an integer >= 1, got True'),
    ('cdf_vn(1e308, 10, 0)',
     'ValueError', 'statistic argument v=1e+308 overflows c = v * sqrt(n) at n=10'),
    ('cdf_vn(1e308, 0, 5)',
     'ValueError', 'sample capacity n must be an integer >= 1, got 0'),
    ('utp(0.0, 10, 5)',
     'ValueError', 'statistic argument c must be positive and finite, got 0.0'),
    ('utp(-1.0, 10, 5)',
     'ValueError', 'statistic argument c must be positive and finite, got -1.0'),
    ('utp(nan, 10, 5)',
     'ValueError', 'statistic argument c must be positive and finite, got nan'),
    ('utp(inf, 10, 5)',
     'ValueError', 'statistic argument c must be positive and finite, got inf'),
    ('utp(1.5, 0, 5)',
     'ValueError', 'sample capacity n must be an integer >= 1, got 0'),
    ('utp(1.5, True, 5)',
     'ValueError', 'sample capacity n must be an integer >= 1, got True'),
    ('utp(1.5, 10.0, 5)',
     'ValueError', 'sample capacity n must be an integer >= 1, got 10.0'),
    ('utp(1.5, np.float64(10), 5)',
     'ValueError', 'sample capacity n must be an integer >= 1, got np.float64(10.0)'),
    ('utp(1.5, 10, 0)',
     'ValueError', 'expansion order k must be an integer in 1..5, got 0'),
    ('utp(1.5, 10, 6)',
     'ValueError', 'expansion order k must be an integer in 1..5, got 6'),
    ('utp(1.5, 10, True)',
     'ValueError', 'expansion order k must be an integer in 1..5, got True'),
    ('utp(inf, 10.0, 5)',
     'ValueError', 'statistic argument c must be positive and finite, got inf'),
    ('utp(inf, 10, True)',
     'ValueError', 'statistic argument c must be positive and finite, got inf'),
    ('utp(1.5, 10.0, True)',
     'ValueError', 'sample capacity n must be an integer >= 1, got 10.0'),
    ('utp(inf, 10.0, True)',
     'ValueError', 'statistic argument c must be positive and finite, got inf'),
    ('utp(0.0, 10, 5, truncated=True)',
     'ValueError', 'statistic argument c must be positive and finite, got 0.0'),
    ('utp(-1.0, 10, 5, truncated=True)',
     'ValueError', 'statistic argument c must be positive and finite, got -1.0'),
    ('utp(nan, 10, 5, truncated=True)',
     'ValueError', 'statistic argument c must be positive and finite, got nan'),
    ('utp(inf, 10, 5, truncated=True)',
     'ValueError', 'statistic argument c must be positive and finite, got inf'),
    ('utp(1.5, 0, 5, truncated=True)',
     'ValueError', 'sample capacity n must be an integer >= 1, got 0'),
    ('utp(1.5, True, 5, truncated=True)',
     'ValueError', 'sample capacity n must be an integer >= 1, got True'),
    ('utp(1.5, 10.0, 5, truncated=True)',
     'ValueError', 'sample capacity n must be an integer >= 1, got 10.0'),
    ('utp(1.5, np.float64(10), 5, truncated=True)',
     'ValueError', 'sample capacity n must be an integer >= 1, got np.float64(10.0)'),
    ('utp(1.5, 10, 0, truncated=True)',
     'ValueError', 'expansion order k must be an integer in 1..5, got 0'),
    ('utp(1.5, 10, 6, truncated=True)',
     'ValueError', 'expansion order k must be an integer in 1..5, got 6'),
    ('utp(1.5, 10, True, truncated=True)',
     'ValueError', 'expansion order k must be an integer in 1..5, got True'),
    ('utp(0.0, np.float64(10), 5, truncated=True)',
     'ValueError', 'statistic argument c must be positive and finite, got 0.0'),
    ('utp(0.0, 10, 0, truncated=True)',
     'ValueError', 'statistic argument c must be positive and finite, got 0.0'),
    ('utp(1.5, np.float64(10), 0, truncated=True)',
     'ValueError', 'sample capacity n must be an integer >= 1, got np.float64(10.0)'),
    ('utp(0.0, np.float64(10), 0, truncated=True)',
     'ValueError', 'statistic argument c must be positive and finite, got 0.0'),
    ('b_series(-1, 1.5)',
     'ValueError', 'coefficient index i must be an integer in 0..5, got -1'),
    ('b_series(6, 1.5)',
     'ValueError', 'coefficient index i must be an integer in 0..5, got 6'),
    ('b_series(True, 1.5)',
     'ValueError', 'coefficient index i must be an integer in 0..5, got True'),
    ('b_series(2, 0.0)',
     'ValueError', 'statistic argument c must be positive and finite, got 0.0'),
    ('b_series(2, -1.0)',
     'ValueError', 'statistic argument c must be positive and finite, got -1.0'),
    ('b_series(2, nan)',
     'ValueError', 'statistic argument c must be positive and finite, got nan'),
    ('b_series(2, inf)',
     'ValueError', 'statistic argument c must be positive and finite, got inf'),
    ('b_series(6, nan)',
     'ValueError', 'coefficient index i must be an integer in 0..5, got 6'),
    ('fun_aj(0, 1.5, 10, 5)',
     'ValueError', 'coefficient index j must be 1 or 2, got 0'),
    ('fun_aj(3, 1.5, 10, 5)',
     'ValueError', 'coefficient index j must be 1 or 2, got 3'),
    ('fun_aj(True, 1.5, 10, 5)',
     'ValueError', 'coefficient index j must be 1 or 2, got True'),
    ('fun_aj(1, 0.0, 10, 5)',
     'ValueError', 'statistic argument c must be positive and finite, got 0.0'),
    ('fun_aj(1, -1.0, 10, 5)',
     'ValueError', 'statistic argument c must be positive and finite, got -1.0'),
    ('fun_aj(1, nan, 10, 5)',
     'ValueError', 'statistic argument c must be positive and finite, got nan'),
    ('fun_aj(1, inf, 10, 5)',
     'ValueError', 'statistic argument c must be positive and finite, got inf'),
    ('fun_aj(1, 1.5, 0, 5)',
     'ValueError', 'sample capacity n must be an integer >= 1, got 0'),
    ('fun_aj(1, 1.5, True, 5)',
     'ValueError', 'sample capacity n must be an integer >= 1, got True'),
    ('fun_aj(1, 1.5, 10.0, 5)',
     'ValueError', 'sample capacity n must be an integer >= 1, got 10.0'),
    ('fun_aj(1, 1.5, np.float64(10), 5)',
     'ValueError', 'sample capacity n must be an integer >= 1, got np.float64(10.0)'),
    ('fun_aj(1, 1.5, 10, 0)',
     'ValueError', 'expansion order k must be an integer in 1..5, got 0'),
    ('fun_aj(1, 1.5, 10, 6)',
     'ValueError', 'expansion order k must be an integer in 1..5, got 6'),
    ('fun_aj(1, 1.5, 10, True)',
     'ValueError', 'expansion order k must be an integer in 1..5, got True'),
    ('fun_aj(3, -1.0, 10, 5)',
     'ValueError', 'coefficient index j must be 1 or 2, got 3'),
    ('fun_aj(3, 1.5, 0, 5)',
     'ValueError', 'coefficient index j must be 1 or 2, got 3'),
    ('fun_aj(3, 1.5, 10, True)',
     'ValueError', 'coefficient index j must be 1 or 2, got 3'),
    ('fun_aj(1, -1.0, 0, 5)',
     'ValueError', 'statistic argument c must be positive and finite, got -1.0'),
    ('fun_aj(1, -1.0, 10, True)',
     'ValueError', 'statistic argument c must be positive and finite, got -1.0'),
    ('fun_aj(1, 1.5, 0, True)',
     'ValueError', 'sample capacity n must be an integer >= 1, got 0'),
    ('fun_aj(3, -1.0, 0, 5)',
     'ValueError', 'coefficient index j must be 1 or 2, got 3'),
    ('fun_aj(3, -1.0, 10, True)',
     'ValueError', 'coefficient index j must be 1 or 2, got 3'),
    ('fun_aj(3, 1.5, 0, True)',
     'ValueError', 'coefficient index j must be 1 or 2, got 3'),
    ('fun_aj(1, -1.0, 0, True)',
     'ValueError', 'statistic argument c must be positive and finite, got -1.0'),
    ('fun_aj(3, -1.0, 0, True)',
     'ValueError', 'coefficient index j must be 1 or 2, got 3'),
    ('fun_a0(0, 5)',
     'ValueError', 'sample capacity n must be an integer >= 1, got 0'),
    ('fun_a0(True, 5)',
     'ValueError', 'sample capacity n must be an integer >= 1, got True'),
    ('fun_a0(10.0, 5)',
     'ValueError', 'sample capacity n must be an integer >= 1, got 10.0'),
    ('fun_a0(np.float64(10), 5)',
     'ValueError', 'sample capacity n must be an integer >= 1, got np.float64(10.0)'),
    ('fun_a0(10, 0)',
     'ValueError', 'expansion order k must be an integer in 1..5, got 0'),
    ('fun_a0(10, 6)',
     'ValueError', 'expansion order k must be an integer in 1..5, got 6'),
    ('fun_a0(10, True)',
     'ValueError', 'expansion order k must be an integer in 1..5, got True'),
    ('fun_a0(True, 6)',
     'ValueError', 'sample capacity n must be an integer >= 1, got True'),
)
ERROR_NAMESPACE = {"nan": math.nan, "inf": math.inf, "np": np, "cdf_kn": cdf_kn,
                   "cdf_vn": cdf_vn, "utp": utp, "b_series": b_series,
                   "fun_aj": fun_aj, "fun_a0": fun_a0}


class TestErrorOrder:
    @pytest.mark.parametrize("call,kind,message", ERROR_CASES,
                             ids=[case[0] for case in ERROR_CASES])
    def test_first_failing_check_and_its_message(self, call, kind, message):
        with pytest.raises(Exception) as err:
            eval(call, dict(ERROR_NAMESPACE))
        assert (type(err.value).__name__, str(err.value)) == (kind, message)

    def test_valid_twins_of_the_cases_pass(self):
        # the same calls with every argument valid return a value
        for call in ("cdf_kn(1.5, 10, 5)", "cdf_vn(0.5, 10, 5)", "utp(1.5, 10, 5)",
                     "utp(1.5, 10, 5, truncated=True)", "b_series(2, 1.5)",
                     "fun_aj(1, 1.5, 10, 5)", "fun_a0(10, 5)",
                     "cdf_vn(0.5, np.int64(10), np.int32(5))"):
            assert math.isfinite(eval(call, dict(ERROR_NAMESPACE)))


class TestSeriesAccuracy:
    """Characterization of the finite-n accuracy of the expansion against
    exact-statistic Monte Carlo (documented envelope, not the headline
    tolerance; see the acceptance suite)."""

    def test_tracks_exact_distribution_at_moderate_n(self, vn_mc):
        kn = vn_mc(10) * math.sqrt(10)
        sup = max(abs(float(cdf_kn(c, 10, 5))
                      - np.searchsorted(kn, c, side="right") / kn.size)
                  for c in np.arange(1.0, 2.41, 0.2))
        assert sup < 0.03

    def test_tracks_exact_distribution_at_large_n(self, vn_mc):
        kn = vn_mc(2000, reps=100_000) * math.sqrt(2000)
        sup = max(abs(float(cdf_kn(c, 2000, 5))
                      - np.searchsorted(kn, c, side="right") / kn.size)
                  for c in np.arange(1.0, 2.41, 0.2))
        assert sup < 0.005
