"""Tests for EDF schemes, the statistic computation, and the test runner."""

import math
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kuiper_hoe.gof import (
    _SHORT_ROW_MAX,
    EdfScheme,
    SampleSet,
    TiesWarning,
    compute_vn,
    edf_probs,
    kuiper_test,
    vn_from_probs,
)
from kuiper_hoe.montecarlo import normal_cdf
from conftest import empirical_tail, inline_vn, scheme_positions

identity = lambda x: min(1.0, max(0.0, x))

finite_samples = st.lists(
    st.floats(min_value=-50.0, max_value=50.0, allow_nan=False,
              allow_infinity=False),
    min_size=1, max_size=40, unique=True)


class TestEdfProbs:
    def test_scheme0(self):
        assert edf_probs(4, EdfScheme.SCHEME0) == pytest.approx(
            [0.25, 0.5, 0.75, 1.0])

    def test_scheme4(self):
        expected = [(t - 0.375) / 4.25 for t in range(1, 5)]
        assert edf_probs(4, EdfScheme.SCHEME4) == pytest.approx(expected)

    def test_scheme2_single(self):
        assert edf_probs(1, EdfScheme.SCHEME2) == pytest.approx([0.5])

    def test_all_schemes_map_into_unit_interval(self):
        for scheme in EdfScheme:
            if scheme is EdfScheme.STEPHENS_MIXED:
                continue
            for n in (1, 2, 7, 40):
                q = edf_probs(n, scheme)
                assert all(0.0 <= x <= 1.0 for x in q)

    @pytest.mark.parametrize("n", [2.5, True, 0, np.bool_(True), 4.0])
    def test_capacity_must_be_a_positive_integer(self, n):
        # 2.5 once gave [0.4, 0.8, 1.2] and True gave [1.0]
        with pytest.raises(ValueError, match="sample capacity n"):
            edf_probs(n, EdfScheme.SCHEME0)

    def test_mixed_is_rejected(self):
        with pytest.raises(ValueError):
            edf_probs(5, EdfScheme.STEPHENS_MIXED)

    def test_from_string(self):
        assert EdfScheme.from_string("scheme3") is EdfScheme.SCHEME3
        assert EdfScheme.from_string("STEPHENS_MIXED".lower()) is \
            EdfScheme.STEPHENS_MIXED
        with pytest.raises(ValueError):
            EdfScheme.from_string("scheme9")


class TestSampleSet:
    def test_orders_values(self):
        s = SampleSet((3.0, 1.0, 2.0))
        assert tuple(s.sorted) == (1.0, 2.0, 3.0)
        assert s.n == 3
        assert tuple(s.values) == (3.0, 1.0, 2.0)

    def test_arrays_are_read_only(self):
        s = SampleSet((3.0, 1.0, 2.0))
        for arr in (s.values, s.sorted):
            assert arr.dtype == np.float64
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0

    def test_generator_accepted(self):
        s = SampleSet(x / 4 for x in (3, 1, 2))
        assert tuple(s.values) == (0.75, 0.25, 0.5)
        assert tuple(s.sorted) == (0.25, 0.5, 0.75)
        assert s.n == 3

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            SampleSet(())

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        # a NaN once sorted as (1.0, nan, 0.2, 0.5) and gave a V_n of 1.37
        with pytest.raises(ValueError, match="must be finite"):
            SampleSet((1.0, bad, 0.5, 0.2))

    def test_ties_warn(self):
        with pytest.warns(TiesWarning):
            SampleSet((1.0, 1.0, 2.0))

    @pytest.mark.parametrize("text, shown", [
        ("123", "'123'"), (b"123", "b'123'"),
        (bytearray(b"123"), "bytearray(b'123')"),
        (["1", "2.5"], "['1', '2.5']"), (np.array(["1", "2.5"]), "['1', '2.5']"),
        ([b"1", b"2"], "[b'1', b'2']"), ((0.5, "2"), "(0.5, '2')"),
        (np.array([0.5, b"2"], dtype=object), "[0.5, b'2']"),
        ((x for x in (0.5, "2")), "[0.5, '2']")],
        ids=["str", "bytes", "bytearray", "str-elements", "str-array",
             "bytes-elements", "mixed-tuple", "object-array", "generator"])
    def test_text_rejected(self, text, shown):
        # "123" once gave the sample [1, 2, 3] and b"123" gave [49, 50, 51];
        # text elements such as "1" or b"1" were read as numbers
        with pytest.raises(ValueError) as err:
            SampleSet(text)
        assert str(err.value) == f"sample must be numbers, not text, got {shown}"

    @pytest.mark.parametrize("values, error, message", [
        ([0.5, None], ValueError, "must be finite"),
        ([0.5, 1j], TypeError, "not 'complex'"),
        ([[0.5]], ValueError, "with a sequence")], ids=["none", "complex", "nested"])
    def test_non_number_element_read_by_fromiter(self, values, error, message):
        # an element that is neither a number nor text meets np.fromiter's
        # reading: None becomes NaN
        with pytest.raises(error, match=message):
            SampleSet(values)

    @pytest.mark.parametrize("values", [
        np.array([3, 1, 2]), np.array([3.0, 1.0, 2.0], dtype=np.float32),
        [np.int64(3), 1, np.float64(2.0)], np.array([3, 1, 2], dtype=object)],
        ids=["int-array", "float32-array", "numpy-scalars", "object-array"])
    def test_numeric_inputs_read_as_floats(self, values):
        s = SampleSet(values)
        assert s.values.dtype == np.float64
        assert s.values.tolist() == [3.0, 1.0, 2.0]


class TestSchemeChecked:
    """A scheme that is not an EdfScheme once raised a bare KeyError."""

    @pytest.mark.parametrize("scheme, shown", [
        ("scheme0", "'scheme0'"), (None, "None"), (0, "0"),
        (["scheme0"], "['scheme0']")], ids=["str", "none", "int", "unhashable"])
    @pytest.mark.parametrize("call", [
        lambda scheme: vn_from_probs([0.2, 0.6], scheme),
        lambda scheme: compute_vn(SampleSet((0.2, 0.6)), identity, scheme),
        lambda scheme: edf_probs(4, scheme),
        lambda scheme: kuiper_test(SampleSet((0.2, 0.6)), identity, scheme=scheme)],
        ids=["vn_from_probs", "compute_vn", "edf_probs", "kuiper_test"])
    def test_message_names_the_scheme(self, call, scheme, shown):
        with pytest.raises(ValueError) as err:
            call(scheme)
        assert str(err.value) == f"scheme must be an EdfScheme, got {shown}"


class TestComputeVn:
    def test_hand_case_mixed_n2(self):
        s = SampleSet((0.25, 0.75))
        d_plus, d_minus, v_n = compute_vn(s, identity)
        assert d_plus == pytest.approx(0.25)
        assert d_minus == pytest.approx(0.25)
        assert v_n == pytest.approx(0.5)

    def test_hand_case_scheme0_n1(self):
        # q=0.5 against qhat=1.0: the downward max is negative and floors
        s = SampleSet((0.5,))
        d_plus, d_minus, v_n = compute_vn(s, identity, EdfScheme.SCHEME0)
        assert d_plus == pytest.approx(0.5)
        assert d_minus == 0.0
        assert v_n == pytest.approx(0.5)

    def test_perfect_fit_plus_side(self):
        n = 5
        s = SampleSet(tuple(t / n for t in range(1, n + 1)))
        d_plus, _, _ = compute_vn(s, identity, EdfScheme.SCHEME0)
        assert d_plus == 0.0

    def test_cdf_contract_enforced(self):
        with pytest.raises(ValueError):
            compute_vn(SampleSet((0.5,)), lambda x: 1.5)

    def test_deciles_fixture(self):
        s = SampleSet(tuple((t - 0.5) / 10 for t in range(1, 11)))
        d_plus, d_minus, v_n = compute_vn(s, identity)
        assert d_plus == pytest.approx(0.05)
        assert d_minus == pytest.approx(0.05)
        assert v_n == pytest.approx(0.10)

    @given(finite_samples)
    @settings(max_examples=100, deadline=None)
    def test_permutation_invariance(self, values):
        cdf = lambda x: normal_cdf(x / 10.0)
        base = compute_vn(SampleSet(tuple(values)), cdf)
        rng = np.random.default_rng(0)
        shuffled = list(values)
        rng.shuffle(shuffled)
        assert compute_vn(SampleSet(tuple(shuffled)), cdf) == base

    @pytest.mark.filterwarnings("ignore::kuiper_hoe.gof.TiesWarning")
    @given(finite_samples,
           st.floats(min_value=0.1, max_value=5.0),
           st.floats(min_value=-10.0, max_value=10.0))
    @settings(max_examples=100, deadline=None)
    def test_monotone_transform_invariance(self, values, scale, shift):
        cdf = lambda x: normal_cdf(x / 60.0)
        base = compute_vn(SampleSet(tuple(values)), cdf)
        mapped = tuple(scale * x + shift for x in values)
        mapped_cdf = lambda y: cdf((y - shift) / scale)
        got = compute_vn(SampleSet(mapped), mapped_cdf)
        assert got[0] == pytest.approx(base[0], abs=1e-12)
        assert got[1] == pytest.approx(base[1], abs=1e-12)
        assert got[2] == pytest.approx(base[2], abs=1e-12)

    @given(st.lists(st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
                    min_size=1, max_size=25, unique=True))
    @settings(max_examples=200, deadline=None)
    def test_mixed_deviations_nonnegative(self, probs):
        q = sorted(probs)
        d_plus, d_minus, v_n = vn_from_probs(q)
        assert d_plus > 0.0
        assert d_minus > 0.0
        assert v_n == d_plus + d_minus

    def test_mixed_statistic_bounded(self):
        # an exhaustive corner search cannot push V_n past 1 + 1/n
        rng = np.random.default_rng(3)
        for n in (1, 2, 3, 5, 8):
            worst = 0.0
            for _ in range(2000):
                q = np.sort(rng.random(n))
                worst = max(worst, vn_from_probs(q)[2])
            for q in ([1e-12] * n, [1.0 - 1e-12] * n,
                      np.linspace(1e-9, 1 - 1e-9, n)):
                worst = max(worst, vn_from_probs(np.sort(q))[2])
            assert worst <= 1.0 + 1.0 / n

    @pytest.mark.parametrize("scheme", list(EdfScheme))
    @pytest.mark.parametrize("n", [1, 2, 7, 60])
    def test_rows_match_one_dimensional_calls(self, scheme, n):
        # small n makes rows whose scheme deviations floor at zero
        q = np.sort(np.random.default_rng(n).random((300, n)), axis=1)
        d_plus, d_minus, v_n = vn_from_probs(q, scheme)
        assert d_plus.shape == d_minus.shape == v_n.shape == (300,)
        for i, row in enumerate(q):
            assert (d_plus[i], d_minus[i], v_n[i]) == vn_from_probs(row, scheme)

    def test_one_dimensional_input_gives_floats(self):
        for q in ([0.2, 0.7], np.array([0.2, 0.7])):
            assert all(type(x) is float for x in vn_from_probs(q))

    @pytest.mark.parametrize("q", [
        [0.1, math.nan, 0.9], [0.1, math.inf], [-math.inf, 0.5], [math.nan],
        [[0.2, 0.6], [0.1, math.nan]], [[0.2, 0.6], [0.3, math.inf]]],
        ids=["nan", "inf", "minus-inf", "only-nan", "nan-row", "inf-row"])
    @pytest.mark.parametrize("scheme", [EdfScheme.SCHEME0, EdfScheme.STEPHENS_MIXED])
    def test_non_finite_q_rejected(self, q, scheme):
        # [0.1, nan, 0.9] once gave (nan, nan, nan) and [0.1, inf] (0.4, inf, inf)
        with pytest.raises(ValueError) as err:
            vn_from_probs(q, scheme)
        assert str(err.value) == "q must be finite, not NaN or inf"

    @pytest.mark.parametrize("q, value", [
        ([-3.0], "-3.0"), ([0.2, 1.5], "1.5"),
        ([[0.1, 0.5], [-0.25, 0.5], [0.2, 0.9]], "-0.25")],
        ids=["below-0", "above-1", "one-bad-row"])
    @pytest.mark.parametrize("scheme", [EdfScheme.SCHEME0, EdfScheme.STEPHENS_MIXED])
    def test_q_outside_unit_interval_rejected(self, q, value, scheme):
        # [-3.0] once gave (4.0, 0.0, 4.0)
        with pytest.raises(ValueError) as err:
            vn_from_probs(q, scheme)
        assert str(err.value) == f"q must be CDF values within [0, 1], got {value}"

    @pytest.mark.parametrize("q", [[], np.zeros((3, 0)), np.zeros((1024, 0)),
                                   np.zeros((0, 0)), np.zeros((2, 3, 0))],
                             ids=["1-d", "2-d", "block", "no-rows", "3-d"])
    def test_empty_q_rejected(self, q):
        # once numpy's "zero-size array to reduction operation maximum"
        with pytest.raises(ValueError) as err:
            vn_from_probs(q)
        assert str(err.value) == "q must hold at least one CDF value per sample"


def hexes(values):
    return [x.hex() for x in np.atleast_1d(values).tolist()]


class TestKernelBits:
    @pytest.mark.parametrize("scheme", list(EdfScheme))
    @pytest.mark.parametrize("n", [1, 2, 7, 60, 180])
    def test_matches_inline_formula_bit_for_bit(self, scheme, n):
        upper, lower = scheme_positions(n, scheme)
        t = np.arange(1, n + 1).astype(float)
        # rows on the exact grids (zero differences), on this scheme's
        # positions, just below its D- positions (but not below 0), where D-
        # floors at 0, and that row from a -0.0 CDF value, where q - p is
        # -0.0 at t = 1
        special = np.array([t / n, (t - 1.0) / n, upper, lower,
                            np.maximum(lower - 0.25 / n, 0.0),
                            np.concatenate([[-0.0], lower[1:] - 0.25 / n])])
        random = np.sort(np.random.default_rng(n).random((200, n)), axis=1)
        q = np.concatenate([special, random])
        got = vn_from_probs(q, scheme)
        want = inline_vn(q, scheme)
        assert [hexes(x) for x in got] == [hexes(x) for x in want]
        assert hexes(got[1][4:6]) == hexes([0.0, 0.0])
        for row in q:
            assert [hexes(x) for x in vn_from_probs(row, scheme)] == [
                hexes(x) for x in inline_vn(row, scheme)]

    @pytest.mark.parametrize("n", [1, 3, 50, 180])
    def test_mixed_is_scheme0_plus_and_scheme1_minus(self, n):
        q = np.sort(np.random.default_rng(100 + n).random((300, n)), axis=1)
        q[0] = np.arange(1.0, n + 1.0) / n
        q[1] = np.arange(0.0, n) / n
        d_plus, d_minus, v_n = vn_from_probs(q, EdfScheme.STEPHENS_MIXED)
        plus0 = vn_from_probs(q, EdfScheme.SCHEME0)[0]
        minus1 = vn_from_probs(q, EdfScheme.SCHEME1)[1]
        assert hexes(d_plus) == hexes(plus0)
        assert hexes(d_minus) == hexes(minus1)
        assert hexes(v_n) == hexes(plus0 + minus1)


def int64_views(stats):
    """The bits of each of (D+, D-, V_n), as int64 lists."""
    return [np.asarray(x, dtype=float).view(np.int64).tolist() for x in stats]


def sorted_block(m, n, seed):
    """m sorted uniform rows of n, the first three on the grids t/n and
    (t-1)/n (zero differences) and one starting at -0.0."""
    q = np.sort(np.random.default_rng(seed).random((m, n)), axis=1)
    t = np.arange(1.0, n + 1.0)
    for row, values in zip(q, [t / n, (t - 1.0) / n,
                               np.concatenate([[-0.0], t[1:] / n])]):
        row[:] = values
    return q


# rows up to _SHORT_ROW_MAX reduce along the block, longer ones row by row
LAYOUT_NS = [1, 2, 10, _SHORT_ROW_MAX, _SHORT_ROW_MAX + 1, 180]


class TestBlockLayout:
    @pytest.mark.parametrize("scheme", list(EdfScheme))
    @pytest.mark.parametrize("n", LAYOUT_NS)
    @pytest.mark.parametrize("m", [1, 1024])
    def test_matches_inline_formula_bit_for_bit(self, scheme, n, m):
        q = sorted_block(m, n, seed=7 * n + m)
        got = vn_from_probs(q, scheme)
        assert all(x.shape == (m,) for x in got)
        assert int64_views(got) == int64_views(inline_vn(q, scheme))

    @pytest.mark.parametrize("scheme", list(EdfScheme))
    @pytest.mark.parametrize("n", LAYOUT_NS)
    def test_memory_order_does_not_matter(self, scheme, n):
        wide = sorted_block(600, n + 2, seed=n)
        wide[:, 1:-1] = sorted_block(600, n, seed=n + 1)
        views = {"fortran": np.asfortranarray(wide[:, 1:-1]),
                 "row-slice": wide[::3, 1:-1], "columns": wide[:, 1:-1]}
        for name, q in views.items():
            before = q.copy()
            want = inline_vn(before, scheme)
            assert int64_views(vn_from_probs(q, scheme)) == int64_views(want), name
            assert (q == before).all(), name  # the kernel writes to its copy

    @pytest.mark.parametrize("scheme", list(EdfScheme))
    @pytest.mark.parametrize("n", [1, 10, 180])
    def test_three_dimensional_input_reduces_its_last_axis(self, scheme, n):
        q = sorted_block(3 * 128, n, seed=n).reshape(3, 128, n)
        got = vn_from_probs(q, scheme)
        assert all(x.shape == (3, 128) for x in got)
        assert int64_views(got) == int64_views(inline_vn(q, scheme))
        for block, *stats in zip(q, *got):
            assert int64_views(vn_from_probs(block, scheme)) == int64_views(stats)

    @pytest.mark.parametrize("n", [10, _SHORT_ROW_MAX, _SHORT_ROW_MAX + 1])
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("value, at, message", [
        (math.nan, (500, 3), "q must be finite, not NaN or inf"),
        (math.inf, (1023, -1), "q must be finite, not NaN or inf"),
        (-math.inf, (0, 0), "q must be finite, not NaN or inf"),
        (-0.25, (700, 0), "q must be CDF values within [0, 1], got -0.25"),
        (1.5, (12, -1), "q must be CDF values within [0, 1], got 1.5"),
    ], ids=["nan", "inf", "minus-inf", "below-0", "above-1"])
    def test_errors_hold_in_both_layouts(self, n, order, value, at, message):
        q = np.sort(np.random.default_rng(n).random((1024, n)), axis=1)
        q[at] = value
        with pytest.raises(ValueError) as err:
            vn_from_probs(np.asarray(q, order=order))
        assert str(err.value) == message


def per_point_vn(values, cdf, scheme=EdfScheme.STEPHENS_MIXED):
    """(D+, D-, V_n) with one CDF call per order statistic, on Python floats."""
    q = [float(cdf(x)) for x in sorted(float(v) for v in values)]
    return vn_from_probs(q, scheme)


def scalar_only_normal_cdf(x):
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


class TestCdfCalls:
    @pytest.mark.parametrize("scheme", list(EdfScheme))
    @pytest.mark.parametrize("n", [1, 2, 7, 5000])
    def test_one_array_call_matches_per_point_loop(self, scheme, n):
        values = np.random.default_rng(n).normal(0.2, 1.1, n).tolist()
        calls = []

        def cdf(x):
            calls.append(x)
            return normal_cdf(x)

        got = compute_vn(SampleSet(values), cdf, scheme)
        assert got == per_point_vn(values, normal_cdf, scheme)
        assert len(calls) == 1 and isinstance(calls[0], np.ndarray)

    @pytest.mark.parametrize("n", [1, 2, 7, 300])
    def test_scalar_only_cdf_falls_back(self, n):
        values = np.random.default_rng(n).normal(0.0, 1.3, n).tolist()
        calls = []

        def cdf(x):
            calls.append(x)
            return scalar_only_normal_cdf(x)

        got = compute_vn(SampleSet(values), cdf)
        assert got == per_point_vn(values, scalar_only_normal_cdf)
        # one refused array call, then one call per point on a Python float
        assert len(calls) == n + 1
        assert all(type(x) is float for x in calls[1:])

    @pytest.mark.parametrize("n", [1, 2, 7, 300])
    def test_wrong_shape_falls_back(self, n):
        values = np.random.default_rng(n).normal(0.0, 1.3, n).tolist()

        def cdf(x):  # an array gives one number, not one per point
            return float(np.mean(normal_cdf(np.asarray(x, dtype=float))))

        assert compute_vn(SampleSet(values), cdf) == per_point_vn(values, cdf)

    @pytest.mark.parametrize("bad", [1.5, -0.25, math.nan, math.inf])
    @pytest.mark.parametrize("cdf_kind", ["array", "scalar"])
    def test_range_message_names_first_bad_point(self, bad, cdf_kind):
        if cdf_kind == "array":
            cdf = lambda x: np.where(x > 0.5, bad, 0.3)
        else:
            cdf = lambda x: bad if x > 0.5 else 0.3
        message = (f"hypothesized CDF returned {bad!r} at x=0.6; "
                   f"a CDF must map into [0, 1]")
        with pytest.raises(ValueError) as info:
            compute_vn(SampleSet((0.9, 0.75, 0.1, 0.6)), cdf)
        assert str(info.value) == message


class TestKuiperTest:
    def test_decile_fixture_accepts(self):
        s = SampleSet(tuple((t - 0.5) / 10 for t in range(1, 11)))
        result = kuiper_test(s, identity, alpha=0.05, k=5)
        assert result.v_n == pytest.approx(0.10)
        assert result.v_critical == pytest.approx(0.5259, abs=1e-4)
        assert not result.reject
        assert result.v_n == result.d_plus + result.d_minus

    def test_guard_level_always_rejects(self):
        s = SampleSet(tuple((t - 0.5) / 10 for t in range(1, 11)))
        result = kuiper_test(s, identity, alpha=0.9999, k=5)
        assert result.v_critical == 0.0
        assert result.reject

    def test_shifted_data_rejects(self):
        rng = np.random.default_rng(5)
        data = rng.normal(3.0, 1.0, size=40)
        result = kuiper_test(SampleSet(tuple(data)), normal_cdf, alpha=0.05, k=5)
        assert result.reject
        assert float(result.p_value) < 0.01

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            kuiper_test(SampleSet((0.5,)), identity, alpha=1.2)

    def test_zero_statistic_has_p_value_1(self):
        # under scheme0 the points t/8 sit exactly on their positions
        result = kuiper_test(SampleSet(range(1, 9)), lambda x: x / 8,
                             scheme=EdfScheme.SCHEME0)
        assert (result.d_plus, result.d_minus, result.v_n) == (0.0, 0.0, 0.0)
        assert result.p_value == 1.0 and result.p_value.raw == 1.0
        assert not result.p_value.clamped and result.p_value.warning is None
        assert not result.reject

    def test_p_value_super_uniform_under_null(self, vn_mc):
        # with the t/n scheme the statistic is stochastically smaller than
        # the exact one, so rejection by p <= alpha stays below alpha
        n, alpha, reps = 20, 0.05, 2000
        rng = np.random.default_rng(11)
        rejected = 0
        for _ in range(reps):
            sample = SampleSet(tuple(map(NormalDist().inv_cdf, rng.random(n))))
            r = kuiper_test(sample, normal_cdf, alpha=alpha, k=5,
                            scheme=EdfScheme.SCHEME0)
            rejected += float(r.p_value) <= alpha
        limit = alpha + 3.0 * math.sqrt(alpha * (1 - alpha) / reps)
        assert rejected / reps <= limit
