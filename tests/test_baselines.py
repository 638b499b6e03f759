"""Tests for the Stephens formulas, the modified statistic, and the KS tail."""

import math

import mpmath as mp
import numpy as np
import pytest

from kuiper_hoe.baselines import (
    ks_utp_asymptotic,
    modified_quantile,
    modified_statistic,
    stephens_cdf_small_v,
    stephens_utp,
)
from kuiper_hoe.series import utp
from conftest import empirical_cdf, empirical_tail


def stephens_utp_mp(v, n, dps=50):
    """The same tail sum in 50-digit arithmetic, as a rounding oracle."""
    with mp.workdps(dps):
        v = mp.mpf(v)
        total = mp.mpf(0)
        t_max = int(mp.floor(n * (1 - v)))
        for t in range(t_max + 1):
            base = 1 - v - mp.mpf(t) / n
            y = v + mp.mpf(t) / n
            g = 3 - mp.mpf(2) / n
            w = y ** (t - 3) * (y ** 3 * n - y ** 2 * t * g + y * t * (t - 1) * g / n
                                - mp.mpf(t * (t - 1) * (t - 2)) / n ** 2)
            total += mp.binomial(n, t) * base ** (n - t - 1) * w
        return float(total)


class TestStephensUtp:
    def test_empty_sum_region(self):
        assert float(stephens_utp(1.0, 10)) == 0.0
        assert float(stephens_utp(1.2, 7)) == 0.0

    def test_validity_floor(self):
        with pytest.raises(ValueError):
            stephens_utp(0.3, 10)
        # odd n allows slightly lower v
        stephens_utp(0.5 - 0.5 / 9 + 1e-9, 9)
        with pytest.raises(ValueError):
            stephens_utp(0.5 - 0.5 / 9 - 1e-9, 9)

    @pytest.mark.parametrize("v", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, v):
        # inf once raised OverflowError and nan a bare conversion error
        with pytest.raises(ValueError, match=f"requires a finite v, got {v}"):
            stephens_utp(v, 10)

    def test_against_extended_precision(self):
        assert float(stephens_utp(0.6, 50)) == pytest.approx(
            stephens_utp_mp(0.6, 50), abs=1e-10)
        assert float(stephens_utp(0.52, 36)) == pytest.approx(
            stephens_utp_mp(0.52, 36), abs=1e-10)

    @pytest.mark.parametrize("v", [0.5, 0.6, 0.7])
    def test_against_monte_carlo(self, vn_mc, v):
        mc_tail = empirical_tail(vn_mc(10), v)
        assert float(stephens_utp(v, 10)) == pytest.approx(mc_tail, abs=0.01)

    def test_against_monte_carlo_at_odd_floor(self, vn_mc):
        # odd n takes its own floor v = 1/2 - 1/(2n) = 4/9 at n = 9
        v = 0.5 - 0.5 / 9
        mc_tail = empirical_tail(vn_mc(9), v)
        assert float(stephens_utp(v, 9)) == pytest.approx(mc_tail, abs=0.01)

    def test_certain_at_the_smallest_floors(self):
        # V_n >= 1/n always, so the tail is 1 at n = 3, v = 1/3 (the odd
        # floor, also as 1/2 - 1/(2n) rounds it), n = 2, v = 1/2 and n = 1
        for v, n in ((0.5 - 0.5 / 3, 3), (1.0 / 3.0, 3), (0.5, 2), (1.0, 1)):
            assert stephens_utp(v, n).raw == pytest.approx(1.0, abs=1e-12)

    def test_agrees_with_series_tail_at_larger_n(self):
        for n in (20, 50):
            for v in np.arange(0.5, 0.62, 0.02):
                series = float(utp(v * math.sqrt(n), n, 5))
                assert float(stephens_utp(v, n)) == pytest.approx(series,
                                                                  abs=0.01)


class TestStephensSmallV:
    def test_left_edge_is_zero(self):
        for n in (2, 5, 9):
            assert float(stephens_cdf_small_v(1.0 / n, n)) == 0.0

    def test_single_point_sample(self):
        # V_1 = 1 always, and [1, 3] is the domain at n = 1
        assert float(stephens_cdf_small_v(1.0, 1)) == 1.0

    def test_branch_one_hand_value(self):
        assert float(stephens_cdf_small_v(0.55, 3)) == pytest.approx(
            6.0 * (0.55 - 1.0 / 3.0) ** 2, rel=1e-12)

    def test_branch_one_against_monte_carlo(self, vn_mc):
        mc = empirical_cdf(vn_mc(3), 0.55)
        assert float(stephens_cdf_small_v(0.55, 3)) == pytest.approx(mc, abs=0.01)

    @pytest.mark.parametrize("n", range(4, 13))
    def test_branch_continuity_at_seam(self, n):
        seam = 2.0 / n
        below = float(stephens_cdf_small_v(seam * (1.0 - 1e-12), n))
        above = float(stephens_cdf_small_v(seam * (1.0 + 1e-12), n))
        assert abs(above - below) < 1e-9

    @pytest.mark.parametrize("n", [3, 5, 8, 12])
    def test_nondecreasing(self, n):
        grid = np.linspace(1.0 / n, 3.0 / n, 60)
        vals = [float(stephens_cdf_small_v(v, n)) for v in grid]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            stephens_cdf_small_v(0.5 / 5, 5)
        with pytest.raises(ValueError):
            stephens_cdf_small_v(3.5 / 5, 5)


class TestModifiedStatistic:
    def test_zero(self):
        assert modified_statistic(0.0, 17) == 0.0

    def test_multiplier_n100(self):
        t_n = modified_statistic(1.0, 100)
        assert type(t_n) is float
        assert t_n == pytest.approx(10.0 + 0.155 + 0.024, rel=1e-12)

    def test_hand_value_n4(self):
        assert modified_statistic(0.5, 4) == pytest.approx(
            0.5 * (2.0 + 0.155 + 0.12), rel=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            modified_statistic(-0.1, 4)

    @pytest.mark.parametrize("v_n", [math.nan, math.inf])
    def test_non_finite_rejected(self, v_n):
        with pytest.raises(ValueError, match="nonnegative and finite"):
            modified_statistic(v_n, 4)


@pytest.mark.parametrize("value", [True, np.False_], ids=["True", "np.False_"])
@pytest.mark.parametrize("call, name", [
    (lambda value: modified_statistic(value, 10), "v_n"),
    (lambda value: stephens_utp(value, 10), "v"),
    (lambda value: stephens_cdf_small_v(value, 1), "v"),
    (lambda value: ks_utp_asymptotic(value, 10), "statistic d"),
], ids=["modified_statistic", "stephens_utp", "stephens_cdf_small_v",
        "ks_utp_asymptotic"])
def test_bool_statistic_rejected(call, name, value):
    # each read a bool as 0 or 1 and returned a number
    with pytest.raises(ValueError) as err:
        call(value)
    assert str(err.value) == (f"{name} must be a real number, not a bool, "
                              f"got {value!r}")


def test_bool_array_statistic_rejected():
    # a bool array was read as 0 and 1 and gave the tails [4.1e-09, 1.0]
    d = np.array([True, False])
    with pytest.raises(ValueError) as err:
        ks_utp_asymptotic(d, 10)
    assert str(err.value) == (f"statistic d must be a real number, not a bool, "
                              f"got {d!r}")


class TestModifiedQuantile:
    # The tabulated large-n order-1 entries still carry the 1/sqrt(n)
    # correction, which shifts c by ~3.3e-4 at n = 10^6; the quantile of the
    # limit equation therefore matches them at 5e-4, not tighter.
    def test_five_percent(self):
        assert modified_quantile(0.05) == pytest.approx(1.7469, abs=5e-4)

    def test_one_percent(self):
        assert modified_quantile(0.01) == pytest.approx(2.0006, abs=5e-4)

    def test_residual_is_tiny(self):
        for alpha in (0.01, 0.05, 0.10, 0.25):
            c = modified_quantile(alpha)
            assert abs((8.0 * c * c - 2.0) * math.exp(-2.0 * c * c)
                       - alpha) < 1e-8

    @pytest.mark.parametrize("alpha,c_ref", [(0.01, 2.0006), (0.05, 1.7469),
                                             (0.10, 1.6193)])
    def test_matches_large_n_order1_limit(self, alpha, c_ref):
        assert modified_quantile(alpha) == pytest.approx(c_ref, abs=5e-4)

    @pytest.mark.parametrize("alpha,c_hex", [
        (0.01, "0x1.001e15be2b64ap+1"), (0.05, "0x1.bf4c6d61a684bp+0"),
        (0.10, "0x1.9e9e536ae0d5ep+0"), (0.43, "0x1.45b1a86ad3866p+0"),
        (0.89, "0x1.c6a898a1c7701p-1")])
    def test_bits(self, alpha, c_hex):
        # the stephens comparator reads these bits; the bounds above would
        # let a changed bisection or Newton step move them
        assert modified_quantile(alpha).hex() == c_hex

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            modified_quantile(0.0)

    @pytest.mark.parametrize("alpha,c_ref", [(0.43, 1.27224), (0.89, 0.88801)])
    def test_levels_above_the_old_bracket(self, alpha, c_ref):
        c = modified_quantile(alpha)
        assert c == pytest.approx(c_ref, abs=1e-5)
        assert abs((8.0 * c * c - 2.0) * math.exp(-2.0 * c * c)
                   - alpha) < 1e-8

    def test_root_lies_on_the_falling_branch(self):
        # the left side also equals alpha once below c = sqrt(3/4)
        for alpha in (0.3, 0.5, 0.7, 0.85):
            assert modified_quantile(alpha) > math.sqrt(0.75)

    def test_peak_level_is_the_limit(self):
        peak = 4.0 * math.exp(-1.5)
        assert modified_quantile(peak) == pytest.approx(math.sqrt(0.75),
                                                        abs=1e-4)
        with pytest.raises(ValueError, match="0.892521"):
            modified_quantile(math.nextafter(peak, 1.0))
        with pytest.raises(ValueError, match="0.892521"):
            modified_quantile(0.95)


class TestKsTail:
    def test_zero_statistic(self):
        assert float(ks_utp_asymptotic(0.0, 100)) == 1.0

    def test_large_statistic(self):
        assert float(ks_utp_asymptotic(0.9, 100)) == pytest.approx(0.0,
                                                                   abs=1e-12)

    def test_monotone_in_d(self):
        grid = np.linspace(0.01, 0.3, 40)
        vals = [float(ks_utp_asymptotic(d, 100)) for d in grid]
        assert all(b <= a for a, b in zip(vals, vals[1:]))

    def test_array_matches_scalar_path(self):
        d = np.concatenate([[0.0, 1e-6, 1e-5], np.linspace(0.001, 0.4, 400),
                            [0.9, 2.0]])
        for n in (1, 10, 100, 5000):
            got = ks_utp_asymptotic(d, n)
            assert isinstance(got, np.ndarray) and got.shape == d.shape
            want = [float(ks_utp_asymptotic(float(x), n)) for x in d]
            assert got.tolist() == want

    @pytest.mark.parametrize("d", [-0.1, math.nan, math.inf],
                             ids=["negative", "nan", "inf"])
    def test_array_rejects_negative(self, d):
        # a NaN must not come back as a tail of 0.0
        with pytest.raises(ValueError, match="nonnegative and finite"):
            ks_utp_asymptotic(np.array([0.1, d]), 10)

    @pytest.mark.parametrize("d", [-0.1, math.nan, math.inf],
                             ids=["negative", "nan", "inf"])
    def test_scalar_rejects_negative(self, d):
        # a NaN would never meet the stop test of the alternating sum
        with pytest.raises(ValueError, match="nonnegative and finite"):
            ks_utp_asymptotic(d, 10)

    @pytest.mark.parametrize("d", [[0.1, 0.2], "0.1", None],
                             ids=["list", "str", "None"])
    def test_rejects_d_neither_real_nor_array(self, d):
        # a list died in NumPy's conversion of a 1-d array to a float
        with pytest.raises(ValueError) as err:
            ks_utp_asymptotic(d, 10)
        assert str(err.value) == f"statistic d must be a real number, got {d!r}"

    @staticmethod
    def dual_form(rate):
        """Q from the dual (theta) series: 1 - sqrt(2 pi)/lambda *
        sum_j e^{-(2j-1)^2 pi^2 / (8 lambda^2)}, lambda^2 = rate / 2."""
        lam2 = rate / 2.0
        tail = sum(math.exp(-(2 * j - 1) ** 2 * math.pi ** 2 / (8.0 * lam2))
                   for j in range(1, 40))
        return 1.0 - math.sqrt(2.0 * math.pi / lam2) * tail

    def test_matches_dual_form(self):
        n = 7
        for rate in np.linspace(0.05, 2.0, 80):
            d = math.sqrt(rate / (2.0 * n))
            want = self.dual_form(rate)
            assert float(ks_utp_asymptotic(d, n)) == pytest.approx(want, abs=1e-11)
            assert ks_utp_asymptotic(np.array([d]), n)[0] == pytest.approx(
                want, abs=1e-11)

    def test_first_term_kept_below_the_cutoff(self):
        # once exactly 0.0 wherever e^(-2nd^2) fell below 1e-12
        assert 0.0 < float(ks_utp_asymptotic(0.6, 50)) < 1e-12
        want = 2.0 * math.exp(-2.0 * 50 * 0.5322 ** 2)
        assert float(ks_utp_asymptotic(0.5322, 50)) == pytest.approx(
            want, rel=1e-14, abs=0.0)
        assert ks_utp_asymptotic(np.array([0.5322]), 50)[0] == pytest.approx(
            want, rel=1e-14, abs=0.0)

    def test_one_below_the_flat_rate(self):
        d = np.sqrt(np.linspace(0.0, 0.0499, 50) / 2.0)
        assert all(float(ks_utp_asymptotic(float(x), 1)) == 1.0 for x in d)
        assert (ks_utp_asymptotic(d, 1) == 1.0).all()
        # d = 1e-4 at n = 1 once took ~37k terms of the alternating sum
        assert float(ks_utp_asymptotic(1e-4, 1)) == 1.0

    def test_empirical_rejection_rate(self):
        # exact KS statistic of standard-normal data, asymptotic p-value
        from scipy.special import ndtr, ndtri
        n, reps, alpha = 100, 10_000, 0.05
        rng = np.random.default_rng(99)
        t = np.arange(1.0, n + 1.0)
        rejected = 0
        done = 0
        while done < reps:
            m = min(2000, reps - done)
            q = ndtr(np.sort(ndtri(rng.random((m, n))), axis=1))
            d = np.maximum((t / n - q).max(axis=1),
                           (q - (t - 1.0) / n).max(axis=1))
            rejected += sum(float(ks_utp_asymptotic(float(x), n)) < alpha
                            for x in d)
            done += m
        assert rejected / reps == pytest.approx(0.048, abs=0.01)
