"""Tests for the Type-I-error simulator."""

import math
from statistics import NormalDist

import numpy as np
import pytest

from kuiper_hoe import montecarlo
from kuiper_hoe.baselines import (
    _KS_FLAT_RATE,
    MODIFIED_ALPHA_MAX,
    ks_utp_asymptotic,
    modified_quantile,
)
from kuiper_hoe.gof import EdfScheme, vn_from_probs
from kuiper_hoe.montecarlo import (
    _KS_MARGIN,
    BLOCK_REPS,
    SimConfig,
    _exact_from_scheme0,
    _ks_rejections,
    normal_cdf,
    simulate_type1,
)
from kuiper_hoe.solver import kuiper_utq
from conftest import inline_vn


class TestNormalCdf:
    def test_median(self):
        assert normal_cdf(0.0) == 0.5

    def test_upper_quantile(self):
        assert normal_cdf(1.959964) == pytest.approx(0.975, abs=1e-6)

    def test_symmetry(self):
        for x in (0.3, 1.1, 2.7, 5.0):
            assert normal_cdf(x) + normal_cdf(-x) == pytest.approx(1.0,
                                                                   abs=1e-12)

    def test_ppf_round_trip(self):
        for p in (0.025, 0.31, 0.5, 0.84, 0.999):
            assert normal_cdf(NormalDist().inv_cdf(p)) == pytest.approx(p, abs=1e-12)

    def test_far_lower_tail(self):
        # Phi(-10) = 7.6198530241605260e-24 (Abramowitz and Stegun 26.2.12)
        assert normal_cdf(-10.0) == pytest.approx(7.619853024160526e-24,
                                                  rel=1e-12)


class TestNormalCdfArrays:
    def test_array_matches_scalar_path(self):
        x = np.concatenate([
            np.linspace(-38.5, 9.5, 4001),
            [-38.0, np.nextafter(-38.0, -np.inf), np.nextafter(-38.0, 0.0),
             9.0, np.nextafter(9.0, 0.0), np.nextafter(9.0, np.inf),
             0.0, -0.0, 1e-300, -1e-300],
            np.random.default_rng(2).normal(0.0, 3.0, 2000)])
        got = normal_cdf(x)
        assert type(got) is np.ndarray and got.shape == x.shape
        assert got.tolist() == [normal_cdf(v) for v in x.tolist()]

    def test_shape_is_kept(self):
        x = np.linspace(-3.0, 3.0, 12).reshape(3, 4)
        got = normal_cdf(x)
        assert got.shape == (3, 4)
        assert got.ravel().tolist() == [normal_cdf(v) for v in x.ravel().tolist()]

    def test_empty_array(self):
        got = normal_cdf(np.array([]))
        assert type(got) is np.ndarray and got.shape == (0,)


class TestSimulate:
    def test_single_replication_is_indicator(self):
        r = simulate_type1(SimConfig(n=10, k_set=(5,), n_rep=1, seed=3))
        assert r.p_type1["hoe_k5"] in (0.0, 1.0)

    def test_deterministic_under_seed(self):
        cfg = SimConfig(n=10, k_set=(1, 5), n_rep=500, seed=123,
                        comparators=("ks", "stephens"))
        a = simulate_type1(cfg)
        b = simulate_type1(cfg)
        assert a.p_type1 == b.p_type1
        assert a.rejections == b.rejections

    def test_seed_changes_results(self):
        a = simulate_type1(SimConfig(n=10, k_set=(1,), n_rep=400, seed=1))
        b = simulate_type1(SimConfig(n=10, k_set=(1,), n_rep=400, seed=2))
        assert a.rejections != b.rejections

    def test_rates_are_exact_fractions(self):
        r = simulate_type1(SimConfig(n=8, k_set=(1, 2, 3), n_rep=250, seed=21))
        for method, p in r.p_type1.items():
            assert p == r.rejections[method] / 250
            assert 0.0 <= p <= 1.0

    def test_paired_monotonicity_in_order(self):
        # larger critical values reject less on the same data
        r = simulate_type1(SimConfig(n=10, n_rep=2000, seed=31))
        for k in (2, 3, 4, 5):
            assert r.p_type1[f"hoe_k{k}"] <= r.p_type1["hoe_k1"]

    def test_conservative_at_level(self):
        r = simulate_type1(SimConfig(n=10, n_rep=2000, seed=77))
        for k in (1, 2, 3, 4, 5):
            assert r.p_type1[f"hoe_k{k}"] <= 0.05

    def test_invalid_comparator(self):
        with pytest.raises(ValueError):
            SimConfig(n=10, comparators=("bogus",))

    def test_stephens_comparator_above_old_bracket_level(self):
        # alpha = 0.5 has its modified quantile left of the old bracket
        r = simulate_type1(SimConfig(n=10, alpha=0.5, k_set=(1,), n_rep=50,
                                     seed=4, comparators=("stephens",)))
        assert 0.0 <= r.p_type1["stephens"] <= 1.0


def _reference_rejections(cfg: SimConfig) -> dict:
    """The documented block layout as a plain per-replication loop: rows of
    one block are consecutive draws of the block's own generator, and the
    statistics come from the plain formula, not from the library's kernel."""
    crit = {k: kuiper_utq(cfg.alpha, cfg.n, k) for k in cfg.k_set}
    if "stephens" in cfg.comparators:
        c_mk = modified_quantile(cfg.alpha)
        t_mult = math.sqrt(cfg.n) + 0.155 + 0.24 / math.sqrt(cfg.n)
    counts = dict.fromkeys([f"hoe_k{k}" for k in cfg.k_set]
                           + list(cfg.comparators), 0)
    blocks = math.ceil(cfg.n_rep / BLOCK_REPS)
    for b in range(blocks):
        rng = np.random.default_rng(
            np.random.SeedSequence(cfg.seed, spawn_key=(b,)))
        for _ in range(min(BLOCK_REPS, cfg.n_rep - b * BLOCK_REPS)):
            q = np.sort(rng.random(cfg.n))
            v = inline_vn(q, cfg.scheme)[2]
            for k in cfg.k_set:
                counts[f"hoe_k{k}"] += v > crit[k]
            d_plus, d_minus, v_exact = inline_vn(q, EdfScheme.STEPHENS_MIXED)
            if "ks" in cfg.comparators:
                counts["ks"] += float(ks_utp_asymptotic(max(d_plus, d_minus),
                                                        cfg.n)) < cfg.alpha
            if "stephens" in cfg.comparators:
                counts["stephens"] += v_exact * t_mult > c_mk
    return counts


class TestBlockLayout:
    @pytest.mark.parametrize("scheme", list(EdfScheme))
    def test_counts_match_plain_reference_loop(self, scheme):
        # 2500 replications: two full blocks and one partial block
        cfg = SimConfig(n=12, k_set=(1, 3, 5), n_rep=2500, seed=2024,
                        scheme=scheme, comparators=("ks", "stephens"))
        assert simulate_type1(cfg).rejections == _reference_rejections(cfg)

    @pytest.mark.parametrize("n, k_set", [(1, (1,)), (180, (1, 3, 5))])
    def test_scheme0_counts_match_plain_reference_loop_at_more_n(self, n,
                                                                 k_set):
        # at n = 1 every row's scheme0 D- floors at 0, so the comparators'
        # whole block gets the kernel; n = 180 reduces row by row
        cfg = SimConfig(n=n, k_set=k_set, n_rep=2500, seed=2024,
                        comparators=("ks", "stephens"))
        assert simulate_type1(cfg).rejections == _reference_rejections(cfg)

    @pytest.mark.parametrize("scheme", [EdfScheme.SCHEME0,
                                        EdfScheme.STEPHENS_MIXED])
    @pytest.mark.parametrize("alpha, comparators", [
        (0.5, ("ks", "stephens")),
        (0.95, ("ks",)),  # above the Stephens quantile's peak level
    ])
    def test_counts_match_plain_reference_loop_at_more_levels(
            self, alpha, comparators, scheme):
        cfg = SimConfig(n=12, alpha=alpha, k_set=(1, 3, 5), n_rep=1100,
                        seed=7, scheme=scheme, comparators=comparators)
        assert simulate_type1(cfg).rejections == _reference_rejections(cfg)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.05, 1.5, math.nan])
    def test_alpha_must_lie_in_the_open_unit_interval(self, alpha):
        with pytest.raises(ValueError) as err:
            SimConfig(n=10, alpha=alpha)
        assert str(err.value) == f"alpha must be in (0, 1), got {alpha}"

    def test_workers_keyword_rejected(self):
        # workers was once accepted and ignored: every block runs in one thread
        with pytest.raises(TypeError, match="workers"):
            SimConfig(n=10, workers=2)

    @pytest.mark.parametrize("kwargs, message", [
        # these once constructed: seed=True ran as seed 1, and seed=1.5 or a
        # scheme name died in simulate_type1
        ({"seed": True}, "seed must be an integer >= 0, got True"),
        ({"seed": 1.5}, "seed must be an integer >= 0, got 1.5"),
        ({"seed": -1}, "seed must be an integer >= 0, got -1"),
        ({"scheme": "scheme0"}, "scheme must be an EdfScheme, got 'scheme0'"),
        # a str was iterated by character ("unknown comparator 'k'") and an
        # int raised a bare TypeError from tuple()
        ({"comparators": "ks"}, "comparators must be a non-str iterable such "
                                "as a tuple, got 'ks'"),
        ({"comparators": 1}, "comparators must be a non-str iterable such as "
                             "a tuple, got 1"),
        ({"k_set": 5}, "k_set must be a non-str iterable such as a tuple, "
                       "got 5"),
        ({"k_set": "12"}, "k_set must be a non-str iterable such as a tuple, "
                          "got '12'"),
        # bytes ran as their byte values: b"\x01" as order 1, and b"ks" raised
        # "unknown comparator 107"
        ({"k_set": b"\x01"}, "k_set must be a non-str iterable such as a "
                             "tuple, got b'\\x01'"),
        ({"comparators": b"ks"}, "comparators must be a non-str iterable such "
                                 "as a tuple, got b'ks'"),
        ({"comparators": bytearray(b"ks")}, "comparators must be a non-str "
                                            "iterable such as a tuple, got "
                                            "bytearray(b'ks')"),
    ], ids=["seed-bool", "seed-float", "seed-negative", "scheme-str",
            "comparators-str", "comparators-int", "k_set-int", "k_set-str",
            "k_set-bytes", "comparators-bytes", "comparators-bytearray"])
    def test_seed_workers_and_scheme_checked_at_construction(self, kwargs,
                                                             message):
        with pytest.raises(ValueError) as err:
            SimConfig(**{"n": 10, "k_set": (1,), **kwargs})
        assert str(err.value) == message

    def test_numpy_integer_seed_accepted(self):
        cfg = SimConfig(n=10, k_set=(1,), n_rep=300, seed=np.int64(5))
        plain = SimConfig(n=10, k_set=(1,), n_rep=300, seed=5)
        assert simulate_type1(cfg).rejections == simulate_type1(plain).rejections

    @pytest.mark.parametrize("n_rep", [True, 2.5, 10.0, 0, np.bool_(True)])
    def test_n_rep_must_be_a_positive_integer(self, n_rep):
        # True would run one replication and 2.5 fail inside simulate_type1
        with pytest.raises(ValueError, match="n_rep must be an integer >= 1"):
            SimConfig(n=10, n_rep=n_rep)

    @pytest.mark.parametrize("kwargs, message", [
        ({"n": True}, "sample capacity n"),
        ({"n": 10.5}, "sample capacity n"),
        ({"n": 0}, "sample capacity n"),
        ({"n": 10, "k_set": (7,)}, "expansion order k"),
        ({"n": 10, "k_set": (1, 2.0)}, "expansion order k"),
        ({"n": 10, "k_set": ()}, "k_set needs at least one order"),
    ], ids=["n-bool", "n-float", "n-zero", "k-7", "k-float", "k-empty"])
    def test_n_and_k_set_checked_at_construction(self, kwargs, message):
        # these once constructed; k_set=() even ran and returned {}
        with pytest.raises(ValueError, match=message):
            SimConfig(**kwargs)

    def test_stephens_level_above_its_peak_rejected_at_construction(self):
        # alpha 0.95 once constructed, and simulate_type1 solved five
        # quantiles before modified_quantile raised
        with pytest.raises(ValueError) as want:
            modified_quantile(0.95)
        with pytest.raises(ValueError) as err:
            SimConfig(n=10, alpha=0.95, comparators=("stephens",))
        assert str(err.value) == str(want.value)
        SimConfig(n=10, alpha=MODIFIED_ALPHA_MAX, comparators=("stephens",))
        SimConfig(n=10, alpha=0.95, comparators=("ks",))

    @pytest.mark.parametrize("kwargs, message", [
        ({"k_set": (1, 1)}, "k_set repeats 1: (1, 1)"),
        ({"k_set": [5, 5, 1]}, "k_set repeats 5: (5, 5, 1)"),
        ({"k_set": (1, np.int64(1))},
         f"k_set repeats {np.int64(1)!r}: (1, {np.int64(1)!r})"),
        ({"comparators": ("stephens", "stephens")},
         "comparators repeats 'stephens': ('stephens', 'stephens')"),
        ({"comparators": ("ks", "stephens", "ks")},
         "comparators repeats 'ks': ('ks', 'stephens', 'ks')"),
    ], ids=["k_set-pair", "k_set-list", "k_set-int64", "comparators-pair",
            "comparators-apart"])
    def test_repeated_items_rejected(self, kwargs, message):
        # these once ran each method once, quietly dropping the repeat
        with pytest.raises(ValueError) as err:
            SimConfig(**{"n": 10, "k_set": (1,), **kwargs})
        assert str(err.value) == message

    def test_result_n_rep_is_the_configured_count(self):
        # perfbench's tracer reads n_rep for its montecarlo.reps metric
        cfg = SimConfig(n=10, k_set=(1,), n_rep=1500, seed=3)
        assert simulate_type1(cfg).n_rep == cfg.n_rep == 1500

    def test_numpy_integer_n_rep_accepted(self):
        cfg = SimConfig(n=10, k_set=(1,), n_rep=np.int64(300), seed=5)
        plain = SimConfig(n=10, k_set=(1,), n_rep=300, seed=5)
        assert simulate_type1(cfg).rejections == simulate_type1(plain).rejections


class TestExactFromScheme0:
    """Under scheme0 the comparators' D- is the block's D- plus 1/n, except
    on the rows where that D- floored at 0."""

    @pytest.mark.parametrize("n", [1, 2, 10, 100, 101, 180, 1000])
    def test_matches_a_stephens_mixed_pass(self, n):
        q = np.random.default_rng(n).random((BLOCK_REPS, n))
        q.sort(axis=1)
        scheme0 = vn_from_probs(q, EdfScheme.SCHEME0)
        floored = scheme0[1] == 0.0
        d_plus, d_minus, v_n = _exact_from_scheme0(q, scheme0)
        want = vn_from_probs(q, EdfScheme.STEPHENS_MIXED)
        assert np.array_equal(d_plus, want[0])
        assert np.abs(d_minus - want[1]).max() <= 2.0 ** -51
        assert np.array_equal(d_minus[floored], want[1][floored])
        assert np.array_equal(v_n, d_plus + d_minus)
        assert floored.all() if n == 1 else 0 < np.count_nonzero(floored) < len(q)

    def test_block_without_a_floored_row(self):
        # every q_1 >= 0.5 lies above 1/n, so no row's D- floors
        q = 0.5 + 0.5 * np.sort(np.random.default_rng(7).random((3, 20)), axis=1)
        d_plus, d_minus, v_n = vn_from_probs(q, EdfScheme.SCHEME0)
        assert (d_minus > 0.0).all()
        assert np.array_equal(_exact_from_scheme0(q, (d_plus, d_minus, v_n))[1],
                              d_minus + 1.0 / 20)


def _bracket(d: float, n: int) -> tuple:
    """(lower, upper): the alternating KS tail summed to four and three terms."""
    h = math.exp(-2.0 * n * d * d)
    upper = 2.0 * (h - h ** 4 + h ** 9)
    return upper - 2.0 * h ** 16, upper


def _switches(test, lo: float, hi: float, steps: int = 4000) -> list:
    """Adjacent float pairs (a, b) in [lo, hi] where test(a) != test(b),
    found on a grid of steps and narrowed by bisection."""
    grid = np.linspace(lo, hi, steps + 1).tolist()
    pairs = []
    for a, b in zip(grid, grid[1:]):
        side = test(a)
        if test(b) == side:
            continue
        while math.nextafter(a, b) < b:
            mid = a + (b - a) / 2.0
            mid = mid if a < mid < b else math.nextafter(a, b)
            if test(mid) == side:
                a = mid
            else:
                b = mid
        pairs.append((a, b))
    return pairs


def _flat_edge(n: int) -> float:
    """The largest d whose rate 2 n d^2 is under the flat rate."""
    edge = math.sqrt(_KS_FLAT_RATE / (2.0 * n))
    while 2.0 * n * edge * edge >= _KS_FLAT_RATE:
        edge = math.nextafter(edge, 0.0)
    while 2.0 * n * math.nextafter(edge, 1.0) ** 2 < _KS_FLAT_RATE:
        edge = math.nextafter(edge, 1.0)
    return edge


class TestKsWindow:
    """The rows _ks_rejections leaves to the full tail: those its bracket
    does not decide.  Every count equals a tail per row."""

    @pytest.mark.parametrize("alpha", [1e-12, 1e-4, 0.05, 0.5, 0.9,
                                       1 - 1e-12])
    @pytest.mark.parametrize("n", [1, 2, 10, 180, 400])
    def test_counts_match_a_tail_per_row(self, alpha, n):
        top = 1.5 * math.sqrt(-math.log(alpha / 2.0) / (2.0 * n))  # 1.5 d0
        edges = [_flat_edge(n)]
        for test in (lambda x: _bracket(x, n)[1] < alpha - _KS_MARGIN,
                     lambda x: _bracket(x, n)[0] > alpha + _KS_MARGIN):
            edges += [x for pair in _switches(test, 0.0, top) for x in pair]
        planted = sorted({y for x in edges for y in
                          (math.nextafter(x, 0.0), x, math.nextafter(x, 2.0))})
        rejects = [float(ks_utp_asymptotic(x, n)) < alpha for x in planted]
        for x, reject in zip(planted, rejects):
            assert _ks_rejections(np.array([x]), alpha, n) == reject
        grid = np.linspace(0.0, top, 401)
        assert _ks_rejections(np.concatenate([planted, grid]), alpha, n) == (
            sum(rejects) + np.count_nonzero(ks_utp_asymptotic(grid, n) < alpha))
        # seeded sorted blocks, the statistic the KS comparator sees
        q = np.random.default_rng(n).random((BLOCK_REPS, n))
        q.sort(axis=1)
        d_plus, d_minus, _ = vn_from_probs(q, EdfScheme.STEPHENS_MIXED)
        d = np.maximum(d_plus, d_minus)
        assert _ks_rejections(d, alpha, n) == np.count_nonzero(
            ks_utp_asymptotic(d, n) < alpha)

    def test_tail_just_above_a_tiny_alpha_is_kept(self):
        # 2 e^(-2nd^2) is 1.01e-12 at d = 0.532, n = 50; the tail once read
        # 0.0 there, and the row was rejected at alpha 1e-12
        assert float(ks_utp_asymptotic(0.532, 50)) > 1e-12
        assert _ks_rejections(np.array([0.532, 0.54]), 1e-12, 50) == 1

    def test_lower_bound_stops_at_the_flat_edge_near_alpha_1(self, monkeypatch):
        # the lower bracket never reaches alpha + 1e-9 there; rows below the
        # edge, where the rate 2 n d^2 is under the flat rate 0.05 and the
        # tail is exactly 1, are kept without the full sum, and the first
        # row above it gets the full sum, which keeps it too
        summed = []

        def tail(d, n):
            summed.extend(d.tolist())
            return ks_utp_asymptotic(d, n)

        monkeypatch.setattr(montecarlo, "ks_utp_asymptotic", tail)
        for n in (1, 10, 400):
            edge = _flat_edge(n)
            below = np.array([0.0, edge / 2.0, edge])
            assert ks_utp_asymptotic(below, n).tolist() == [1.0, 1.0, 1.0]
            assert _ks_rejections(below, 1 - 1e-12, n) == 0
            assert summed == []
            up = math.nextafter(edge, 1.0)
            assert _bracket(up, n)[0] < 1 - 1e-12 + _KS_MARGIN
            assert _ks_rejections(np.array([up]), 1 - 1e-12, n) == 0
            assert summed == [up]
            summed.clear()

    @pytest.mark.parametrize("alpha", [0.05, 0.5])
    def test_bracket_decides_every_row_of_a_block(self, alpha, monkeypatch):
        calls = []
        monkeypatch.setattr(montecarlo, "ks_utp_asymptotic",
                            lambda d, n: calls.append(d))
        q = np.random.default_rng(2024).random((BLOCK_REPS, 50))
        q.sort(axis=1)
        d_plus, d_minus, _ = vn_from_probs(q, EdfScheme.STEPHENS_MIXED)
        _ks_rejections(np.maximum(d_plus, d_minus), alpha, 50)
        assert calls == []


class TestSerialization:
    def test_ci_halfwidth_formula(self):
        r = simulate_type1(SimConfig(n=10, k_set=(1,), n_rep=500, seed=13))
        p = r.p_type1["hoe_k1"]
        assert r.ci_halfwidth["hoe_k1"] == pytest.approx(
            1.96 * math.sqrt(p * (1 - p) / 500), rel=1e-12)
