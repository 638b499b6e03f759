"""Tests for the solver loop and the Kuiper pair solvers."""

import collections
import itertools
import math
import warnings

import numpy as np
import pytest

from kuiper_hoe.solver import (
    ConvergenceError,
    DegenerateDerivativeError,
    FixedPointDomainError,
    KuiperPair,
    _iterate,
    _newton_step,
    f_ctm,
    f_nlm,
    get_init_value,
    kuiper_inv_cdf,
    kuiper_ltq,
    kuiper_pair_solver,
    kuiper_utq,
)
from kuiper_hoe import series, solver
from kuiper_hoe.baselines import modified_quantile
from kuiper_hoe.gof import SampleSet, kuiper_test
from kuiper_hoe.montecarlo import SimConfig, normal_cdf
from kuiper_hoe.series import cdf_vn, fun_a0, fun_aj, utp

from table_data import PAIR_TABLES


class TestFrameworkOnClassics:
    def test_cosine_fixed_point(self):
        got, steps = _iterate(math.cos, 1.0, 1e-8)
        assert got == pytest.approx(0.7390851332151607, abs=1e-6)
        assert 1 < steps < 200

    def test_identity_updater_returns_guess(self):
        assert _iterate(lambda x: x, 1.234, 1e-5) == (1.234, 1)

    def test_newton_sqrt2(self):
        got, _ = _iterate(lambda x: _newton_step(lambda y: y * y - 2.0, x),
                          1.5, 1e-10)
        assert got == pytest.approx(math.sqrt(2.0), abs=1e-6)

    def test_newton_exact_on_affine(self):
        got = _newton_step(lambda x: 2.0 * x - 3.0, 10.0)
        assert got == pytest.approx(1.5, abs=1e-4)

    def test_degenerate_slope(self):
        with pytest.raises(DegenerateDerivativeError):
            _newton_step(lambda x: 1.0, 0.5)

    def test_nonconvergence_reports_state(self):
        # x -> 1 - x oscillates with period two and never contracts
        with pytest.raises(ConvergenceError) as err:
            _iterate(lambda x: 1.0 - x, 0.2, 1e-8)
        assert err.value.last_x is not None
        assert err.value.last_distance == pytest.approx(0.6, abs=1e-12)

    def test_domain_error_reports_steps(self):
        def step(x):
            if x > 3.0:
                raise FixedPointDomainError("left the domain", argument="c")
            return 2.0 * x
        with pytest.raises(FixedPointDomainError) as err:
            _iterate(step, 1.0, 1e-5)
        assert err.value.steps == 3  # 1 -> 2 -> 4, then the failing step


def _nlm(alpha, n, k):
    """f_nlm at (alpha, n, k) as a function of c, as the solver's helpers
    take it."""
    return lambda c: f_nlm(c, alpha, n, k)


def _two_calls_per_halving(f, a, b, h):
    """The reference midpoint search: f(a) is evaluated again next to every
    midpoint, and every point must evaluate."""
    delta = abs(a - b)
    x_guess = (a + b) / 2.0
    while delta > h:
        if f(x_guess) * f(a) > 0.0:
            a = x_guess
        else:
            b = x_guess
        delta /= 2.0
        x_guess = (a + b) / 2.0
    return x_guess


class TestBisectionInit:
    def test_linear_root(self):
        got = get_init_value(lambda x: x - 2.0, 0.0, 3.0, 0.05)
        assert abs(got - 2.0) <= 0.05

    def test_kuiper_root(self):
        got = get_init_value(_nlm(0.05, 10, 5), 0.6, 3.0, 0.05)
        assert abs(got - 1.6630) <= 0.05

    def test_result_stays_inside(self):
        for root in (0.7, 1.3, 2.9):
            got = get_init_value(lambda x, r=root: x - r, 0.6, 3.0, 0.05)
            assert 0.6 < got < 3.0

    @pytest.mark.parametrize("alpha,n,k", [(0.05, 10, 5), (0.00792, 7, 5),
                                           (0.9998, 50, 1), (0.05, 6, 1)])
    def test_one_call_per_point_and_the_old_midpoint(self, alpha, n, k):
        calls = []

        def counted(x):
            calls.append(x)
            return f_nlm(x, alpha, n, k)

        got = get_init_value(counted, *solver.BRACKET)
        new_calls, calls[:] = list(calls), []
        want = _two_calls_per_halving(counted, *solver.BRACKET)
        halvings = len(calls) // 2
        assert got.hex() == want.hex()
        assert len(new_calls) == 1 + halvings
        assert len(set(new_calls)) == len(new_calls)  # no point evaluated twice

    def test_failing_left_end_raises_before_any_midpoint(self):
        calls = []

        def f(x):
            calls.append(x)
            if x < 1.0:
                raise FixedPointDomainError("left the domain", argument="c")
            return x - 2.0

        with pytest.raises(FixedPointDomainError):
            get_init_value(f, 0.6, 3.0, 0.05)
        assert calls == [0.6]

    def test_raising_midpoint_moves_the_upper_end_down(self):
        # f has its root at 1.5 and leaves its domain beyond 2: the first
        # midpoint 1.8 raises and the second, 1.2, is below the root
        calls = []

        def f(x):
            calls.append(x)
            if x > 2.0:
                raise FixedPointDomainError("left the domain", argument="c")
            return x - 1.5

        got = get_init_value(f, 0.6, 3.0, 0.05)
        assert abs(got - 1.5) <= 0.05
        assert calls[:3] == [0.6, 1.8, 1.2]


class TestResidualFunctions:
    def test_f_nlm_roots_at_table_entries(self):
        assert f_nlm(1.6066, 0.05, 10, 1) == pytest.approx(0.0, abs=2e-3)
        assert f_nlm(1.9939, 0.01, 2000, 5) == pytest.approx(0.0, abs=2e-3)

    def test_f_nlm_single_sign_change(self):
        grid = np.arange(0.6, 3.0001, 0.05)
        signs = [math.copysign(1.0, f_nlm(c, 0.05, 10, 5)) for c in grid]
        flips = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
        assert flips == 1

    def test_f_ctm_fixed_point_at_table_entries(self):
        assert f_ctm(1.6066, 0.05, 10, 1) == pytest.approx(1.6066, abs=2e-3)
        for alpha in (0.01, 0.10, 0.40):
            for n in (6, 10, 50):
                c_ref = PAIR_TABLES[alpha][n][4][0]
                assert f_ctm(c_ref, alpha, n, 5) == pytest.approx(c_ref, abs=2e-3)

    def test_f_ctm_contracts_toward_root(self):
        root = kuiper_pair_solver(0.05, 10, 5).c
        c1 = f_ctm(1.8, 0.05, 10, 5)
        c2 = f_ctm(c1, 0.05, 10, 5)
        assert abs(c1 - root) < abs(1.8 - root)
        assert abs(c2 - root) < abs(c1 - root)

    def test_newton_step_halves_residual(self):
        before = abs(f_nlm(1.8, 0.05, 10, 5))
        c1 = _newton_step(_nlm(0.05, 10, 5), 1.8)
        assert abs(f_nlm(c1, 0.05, 10, 5)) <= 0.5 * before

    def test_newton_iteration_reaches_table_entry(self):
        c, f = 1.8, _nlm(0.05, 10, 5)
        for _ in range(50):
            c = _newton_step(f, c)
        assert c == pytest.approx(1.6630, abs=1e-4)
        assert c / math.sqrt(10) == pytest.approx(0.5259, abs=1e-4)

    def test_residuals_are_the_series_tail_form(self):
        # bit for bit: log(alpha - 1 - A_0), A1 + A2 exp(-6c^2) from fun_aj
        for n in (1, 3, 10, 1000):
            for k in range(1, 6):
                for alpha in (0.01, 0.05, 0.4):
                    if alpha - 1.0 - fun_a0(n, k) <= 0.0:
                        continue
                    log_gap = math.log(alpha - 1.0 - fun_a0(n, k))
                    for c in (0.9, 1.3, 1.7, 2.1, 2.6):
                        a1, a2 = fun_aj(1, c, n, k), fun_aj(2, c, n, k)
                        tail = a1 + a2 * math.exp(-6.0 * c * c)
                        if tail <= 0.0:
                            continue
                        nlm = 2.0 * c * c + log_gap - math.log(tail)
                        assert f_nlm(c, alpha, n, k).hex() == nlm.hex()
                        ctm = (math.log(tail) - log_gap) / 2.0
                        if ctm >= 0.0:
                            assert f_ctm(c, alpha, n, k).hex() == math.sqrt(ctm).hex()

    @pytest.mark.parametrize("f,c,alpha,argument,message", [
        (f_nlm, -1.0, 0.05, "c", "iterate c=-1 <= 0 left the contraction basin"),
        (f_ctm, 0.0, 0.05, "c", "iterate c=0 <= 0 left the contraction basin"),
        (f_nlm, 3.5, 0.05, "tail_coefficient", "A1 + A2*exp(-6c^2) = -79.27 <= 0 "
         "at c=3.5: iterate left the contraction basin"),
        (f_ctm, 0.3, 0.9, "radicand", "negative radicand -0.04617 at c=0.3")])
    def test_domain_error_messages(self, f, c, alpha, argument, message):
        n = 6 if argument == "tail_coefficient" else 10
        with pytest.raises(FixedPointDomainError) as err:
            f(c, alpha, n, 1)
        assert (err.value.argument, str(err.value)) == (argument, message)

    @pytest.mark.parametrize("c", [math.nan, math.inf])
    def test_non_finite_iterate_is_a_value_error(self, c):
        with pytest.raises(ValueError, match="positive and finite"):
            f_nlm(c, 0.05, 10, 1)

    def test_alpha_gap_domain_error(self):
        # at order >= 2 a tiny alpha is unreachable for small n
        with pytest.raises(FixedPointDomainError) as err:
            f_nlm(1.8, 0.001, 6, 2)
        assert err.value.argument == "alpha_gap"

    def test_tail_coefficient_domain_error(self):
        with pytest.raises(FixedPointDomainError) as err:
            f_nlm(3.5, 0.05, 6, 1)
        assert err.value.argument == "tail_coefficient"


class TestPairSolver:
    @pytest.mark.parametrize("alpha,n,k,c_ref,v_ref", [
        (0.01, 10, 1, 1.8401, 0.5819),
        (0.01, 6, 5, 2.1918, 0.8948),
        (0.10, 20, 2, 1.5505, 0.3467),
        (0.01, 30, 1, 1.9252, 0.3515),
    ])
    def test_published_pairs(self, alpha, n, k, c_ref, v_ref):
        pair = kuiper_pair_solver(alpha, n, k)
        assert pair.c == pytest.approx(c_ref, abs=1e-4)
        assert pair.v == pytest.approx(v_ref, abs=1e-4)

    def test_methods_agree_on_five_percent_table(self):
        for n, pairs in PAIR_TABLES[0.05].items():
            for k in range(1, 6):
                newton = kuiper_pair_solver(0.05, n, k)
                direct = kuiper_pair_solver(0.05, n, k, method="direct")
                assert newton.c == pytest.approx(direct.c, abs=1e-4)
                assert newton.v == pytest.approx(direct.v, abs=1e-4)

    def test_residual_contract(self):
        for method in ("newton", "direct"):
            for alpha in (0.01, 0.05, 0.20, 0.40):
                for n in (6, 10, 50, 1000):
                    pair = kuiper_pair_solver(alpha, n, 5, method)
                    assert abs(pair.residual) <= 10.0 * solver.EPSILON
                    assert pair.v == pair.c / math.sqrt(n)
                    assert pair.iterations >= 1

    @pytest.mark.parametrize("method", ["newton", "direct"])
    def test_residual_is_f_nlm_at_the_root(self, method):
        for alpha in (0.01, 0.05, 0.20, 0.40):
            for n in (6, 10, 1000):
                for k in (1, 3, 4, 5):
                    pair = kuiper_pair_solver(alpha, n, k, method)
                    assert pair.residual == f_nlm(pair.c, alpha, n, k)

    def test_truncated_tail_round_trip(self):
        for alpha in (0.01, 0.05, 0.10, 0.40):
            pair = kuiper_pair_solver(alpha, 10, 5)
            assert float(utp(pair.c, 10, 5, truncated=True)) == pytest.approx(
                alpha, abs=1e-6)

    def test_bisection_recovery_from_bad_guess(self):
        # Newton from 1.8 leaves the basin at n=7, k=5; the solver retries
        # from the bisection initializer and counts the updates of both tries
        f = _nlm(0.00792, 7, 5)
        with pytest.raises(FixedPointDomainError) as err:
            _iterate(lambda c: _newton_step(f, c), solver.C_GUESS, solver.EPSILON)
        pair = kuiper_pair_solver(0.00792, 7, 5)
        assert pair.c == pytest.approx(2.5821568, abs=1e-7)
        assert pair.iterations == 5
        assert pair.iterations > err.value.steps
        assert abs(pair.residual) < 1e-10

    @pytest.mark.parametrize("n, c_ref", [(1, 1.18920), (2, 1.33909),
                                          (3, 1.42884)])
    def test_order_one_solves_below_the_domain_edge(self, n, c_ref):
        # the tail form is negative at c = 1.8, where both tries start; the
        # retry's bisection steps down past the domain edge to the root
        pair = kuiper_pair_solver(0.05, n, 1)
        assert pair.c == pytest.approx(c_ref, abs=1e-5)
        assert abs(pair.residual) < 1e-5

    def test_bisection_init_path(self):
        # the retry's path: Newton from the bisection midpoint
        f = _nlm(0.05, 10, 5)
        x0 = get_init_value(f, *solver.BRACKET)
        c, _ = _iterate(lambda c: _newton_step(f, c), x0, solver.EPSILON)
        assert c == pytest.approx(1.6630, abs=1e-4)

    def test_invalid_alpha(self):
        for alpha in (1.5, 0.0, math.nan):
            with pytest.raises(ValueError) as err:
                kuiper_pair_solver(alpha, 10, 1)
            assert str(err.value) == f"alpha must be in (0, 1), got {alpha}"

    def test_unreachable_alpha_propagates(self):
        with pytest.raises(FixedPointDomainError):
            kuiper_pair_solver(0.001, 6, 2)

    def test_unreachable_alpha_names_the_floor(self):
        with pytest.raises(FixedPointDomainError) as err:
            kuiper_pair_solver(0.001, 6, 2)
        assert err.value.argument == "alpha_gap"
        floor = f"{1.0 + fun_a0(6, 2):.6g}"
        assert f"order k=2 cannot reach alpha below {floor} at n=6" in str(err.value)

    def test_unreachable_alpha_skips_bisection(self, monkeypatch):
        def no_bisection(*args):
            raise AssertionError("bisection ran for an unreachable alpha")
        monkeypatch.setattr(solver, "get_init_value", no_bisection)
        for method in ("newton", "direct"):
            with pytest.raises(FixedPointDomainError) as err:
                kuiper_pair_solver(0.001, 6, 2, method)
            assert err.value.argument == "alpha_gap"

    def test_nonpositive_iterate_is_a_domain_error(self):
        # a Newton iterate reaches c <= 0 here; the bisection retry runs
        # and also leaves the basin
        f = _nlm(0.9998, 50, 1)
        with pytest.raises(FixedPointDomainError) as err:
            _iterate(lambda c: _newton_step(f, c), solver.C_GUESS, solver.EPSILON)
        assert err.value.argument == "c"
        with pytest.raises(FixedPointDomainError):
            kuiper_pair_solver(0.9998, 50, 1)


def _reference_pair(alpha, n, k, method):
    """The pair solve composed from the public pieces, one f_nlm or f_ctm
    call (with its own key and gap checks) per residual evaluation."""
    if method not in ("direct", "newton"):
        raise ValueError(method)
    if not 0.0 < alpha < 1.0:
        raise ValueError(alpha)
    solver._alpha_gap(alpha, fun_a0(n, k), n, k)
    f = _nlm(alpha, n, k)
    if method == "direct":
        def step(c):
            return f_ctm(c, alpha, n, k)
    else:
        def step(c):
            return _newton_step(f, c)
    try:
        c, iterations = _iterate(step, solver.C_GUESS, solver.EPSILON)
    except FixedPointDomainError as exc:
        x0 = get_init_value(f, *solver.BRACKET)
        c, steps = _iterate(step, x0, solver.EPSILON)
        iterations = exc.steps + steps
    return c, iterations, f_nlm(c, alpha, n, k)


def _outcome(solve):
    """A solve's result or failure, with the warnings it emitted."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            c, iterations, residual = solve()
            got = ("ok", c.hex(), iterations, residual.hex())
        except Exception as exc:
            got = (type(exc), str(exc), getattr(exc, "argument", None),
                   getattr(exc, "steps", None))
    return got, [(w.category, str(w.message)) for w in caught]


def _step_outcome(step, c):
    """One Newton update's value as hex, or its error's type, message,
    ``argument`` and ``steps``."""
    try:
        return ("ok", step(c).hex())
    except Exception as exc:
        return (type(exc), str(exc), getattr(exc, "argument", None),
                getattr(exc, "steps", None))


def _tail_edge(alpha, n, k, lo, hi):
    """A c whose f_nlm evaluates while f_nlm at c + H leaves the domain:
    bisection on [lo, hi] for the first c where the tail turns <= 0."""
    f = _nlm(alpha, n, k)
    while hi - lo > solver.H / 4:
        mid = (lo + hi) / 2
        try:
            f(mid)
            lo = mid
        except FixedPointDomainError:
            hi = mid
    return lo


class TestFusedNewtonStep:
    """The solver's Newton update, f at c and c + H from one pass (and from
    the per-(n, k) cache at C_GUESS), against _newton_step(f_nlm, c)."""

    @pytest.fixture(autouse=True)
    def empty_cache(self):
        solver._first_log_tails.cache_clear()

    @staticmethod
    def both(alpha, n, k):
        fused = solver._residual(alpha, n, k)[1]
        return fused, lambda c: _newton_step(_nlm(alpha, n, k), c)

    def test_matches_newton_step_on_a_grid(self):
        points = np.linspace(0.05, 3.5, 70).tolist() + [solver.C_GUESS]
        kinds = collections.Counter()
        for alpha, n, k in itertools.product((0.01, 0.3), (1, 2, 6, 10, 1000),
                                             range(1, 6)):
            if alpha - 1.0 - fun_a0(n, k) <= 0.0:
                continue  # no residual at an unreachable level
            fused, reference = self.both(alpha, n, k)
            for c in points:
                got = _step_outcome(fused, c)
                assert got == _step_outcome(reference, c), (alpha, n, k, c)
                kinds[got[0] if got[0] == "ok" else got[2]] += 1
        assert {"ok", "tail_coefficient"} <= set(kinds)

    def test_c_guess_from_the_cache_and_past_it(self):
        fused, reference = self.both(0.05, 10, 5)
        want = _step_outcome(reference, solver.C_GUESS)
        assert want[0] == "ok"
        assert _step_outcome(fused, solver.C_GUESS) == want  # cache missed
        assert solver._first_log_tails.cache_info()[:2] == (0, 1)
        assert _step_outcome(fused, solver.C_GUESS) == want  # cache hit
        assert solver._first_log_tails.cache_info()[:2] == (1, 1)
        # a new level reads the same entry and still forms its own step
        fused, reference = self.both(0.01, 10, 5)
        assert _step_outcome(fused, solver.C_GUESS) == _step_outcome(
            reference, solver.C_GUESS)
        assert solver._first_log_tails.cache_info()[:2] == (2, 1)

    def test_edge_crossed_at_c_plus_h_is_reported_there(self):
        c = _tail_edge(0.05, 6, 1, 2.0, 3.5)
        f = _nlm(0.05, 6, 1)
        f(c)
        with pytest.raises(FixedPointDomainError):
            f(c + solver.H)
        fused, reference = self.both(0.05, 6, 1)
        got = _step_outcome(fused, c)
        assert got == _step_outcome(reference, c)
        assert f"{c:.6g}" != f"{c + solver.H:.6g}"
        assert got[0] is FixedPointDomainError and got[2] == "tail_coefficient"
        assert got[1].endswith(f"at c={c + solver.H:.6g}: iterate left the "
                               f"contraction basin")

    @pytest.mark.parametrize("c", [0.0, -0.0, -1.0, -math.inf, math.nan,
                                   math.inf])
    def test_iterate_outside_the_domain(self, c):
        fused, reference = self.both(0.05, 10, 1)
        got = _step_outcome(fused, c)
        assert got == _step_outcome(reference, c)
        assert got[0] is (FixedPointDomainError if c <= 0.0 else ValueError)

    def test_steps_of_a_failed_iteration(self):
        # the first try leaves the basin; both count its updates alike
        fused, reference = self.both(0.9998, 50, 1)
        outcomes = [_step_outcome(lambda c0: _iterate(step, c0, solver.EPSILON)[0],
                                  solver.C_GUESS) for step in (fused, reference)]
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][2] == "c" and outcomes[0][3] >= 1

    def test_key_that_raises_at_c_guess_is_not_cached(self):
        # order 1 at n = 3 has A1 + A2 exp(-6c^2) < 0 at C_GUESS
        fused, reference = self.both(0.05, 3, 1)
        want = _step_outcome(reference, solver.C_GUESS)
        assert want[2] == "tail_coefficient"
        for _ in range(2):
            assert _step_outcome(fused, solver.C_GUESS) == want
        info = solver._first_log_tails.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 2, 0)

    def test_keys_are_typed(self):
        for key in ((1, 2), (10, 2), (10, 1)):
            solver._first_log_tails(*key)
        for key in ((True, 2), (10.0, 2), (np.float64(10.0), 2), (10, True)):
            with pytest.raises(ValueError):
                solver._first_log_tails(*key)
        info = solver._first_log_tails.cache_info()
        assert (info.hits, info.currsize) == (0, 3)

    def test_cache_holds_at_most_128_keys(self):
        for n in range(4, 44):
            for k in range(1, 6):
                solver._first_log_tails(n, k)
        info = solver._first_log_tails.cache_info()
        assert (info.maxsize, info.currsize) == (128, 128)
        assert info.maxsize == series._CACHE_SIZE  # one sizing decision


class TestResidualBuiltOnce:
    """kuiper_pair_solver against the composition of f_nlm, f_ctm,
    _newton_step, _iterate and get_init_value: same numbers, same errors,
    same warnings."""

    ALPHAS = sorted(set(np.geomspace(5e-4, 0.9995, 25).tolist())
                    | {0.8, 0.9, 0.95, 0.99})

    @pytest.mark.parametrize("method", ["newton", "direct"])
    def test_matches_the_composition(self, method):
        kinds = collections.Counter()
        for alpha in self.ALPHAS:
            for n in (1, 2, 3, 7, 10, 1000):
                for k in range(1, 6):
                    def pair():
                        p = kuiper_pair_solver(alpha, n, k, method)
                        return p.c, p.iterations, p.residual
                    got = _outcome(pair)
                    want = _outcome(lambda: _reference_pair(alpha, n, k, method))
                    assert got == want, (alpha, n, k)
                    kinds[got[0][0] if got[0][0] == "ok" else got[0][2]] += 1
        assert {"ok", "alpha_gap", "tail_coefficient"} <= set(kinds)


# Every entry point that takes a level, with the name its messages give it.
LEVEL_CALLS = [
    (lambda level: kuiper_utq(level, 10, 5), "alpha"),
    (lambda level: kuiper_ltq(level, 10, 5), "alpha"),
    (lambda level: kuiper_inv_cdf(level, 10, 5), "probability x"),
    (lambda level: kuiper_pair_solver(level, 10, 1), "alpha"),
    (lambda level: kuiper_test(SampleSet([0.1, -0.3, 0.5]), normal_cdf,
                               alpha=level), "alpha"),
    (lambda level: SimConfig(n=10, alpha=level), "alpha"),
    (modified_quantile, "alpha"),
]
LEVEL_CALL_IDS = ["utq", "ltq", "inv_cdf", "pair_solver", "kuiper_test",
                  "SimConfig", "modified_quantile"]


class TestQuantiles:
    def test_utq_guard(self):
        assert kuiper_utq(0.99995, 10, 1) == 0.0
        assert kuiper_utq(1.0, 7, 3) == 0.0

    @pytest.mark.parametrize("alpha", [0.0, -0.05, 1.5, math.inf, math.nan])
    def test_utq_rejects_alpha_outside_half_open_interval(self, alpha):
        with pytest.raises(ValueError) as err:
            kuiper_utq(alpha, 10, 1)
        assert str(err.value) == f"alpha must be in (0, 1], got {alpha}"

    def test_ltq_guard(self):
        assert kuiper_ltq(0.00005, 10, 1) == 0.0

    def test_utq_table_values(self):
        assert kuiper_utq(0.05, 10**6, 1) == pytest.approx(0.0017, abs=1e-4)
        assert kuiper_utq(0.40, 6, 3) == pytest.approx(0.4751, abs=1e-4)

    def test_duality_is_bit_exact(self):
        # the first four lie at or next to the 0.0 guard at alpha = 1e-4
        for alpha in (0.0, 1e-5, 1e-4, math.nextafter(1e-4, 1.0),
                      0.5, 0.6, 0.8, 0.9, 0.95, 0.99):
            for n in (6, 20, 100):
                for k in (1, 5):
                    assert kuiper_ltq(alpha, n, k) == kuiper_utq(1.0 - alpha, n, k)

    def test_ltq_example(self):
        assert kuiper_ltq(0.95, 10, 1) == kuiper_utq(1.0 - 0.95, 10, 1)
        assert kuiper_ltq(0.95, 10, 1) == pytest.approx(0.5080, abs=1e-4)

    def test_ltq_at_half(self):
        for n in (6, 30):
            for k in (1, 3, 5):
                assert kuiper_ltq(0.5, n, k) == kuiper_utq(0.5, n, k)

    def test_monotone_in_alpha(self):
        alphas = (0.01, 0.05, 0.10, 0.15, 0.20, 0.30, 0.40)
        for n in (6, 10, 100):
            for k in (1, 3, 5):
                qs = [kuiper_utq(a, n, k) for a in alphas]
                assert all(b < a for a, b in zip(qs, qs[1:]))

    def test_inv_cdf(self):
        assert kuiper_inv_cdf(0.95, 10, 1) == pytest.approx(0.5080, abs=1e-4)
        assert kuiper_inv_cdf(0.0001, 10, 1) == 0.0
        with pytest.raises(ValueError):
            kuiper_inv_cdf(1.5, 10, 1)

    @pytest.mark.parametrize("alpha", [-5.0, -1e-12, 1.0, 1.5, math.nan, math.inf])
    def test_ltq_rejects_alpha_outside_unit_interval(self, alpha):
        with pytest.raises(ValueError) as err:
            kuiper_ltq(alpha, 10, 1)
        assert str(err.value) == f"alpha must be in [0, 1), got {alpha}"

    def test_ltq_accepts_zero(self):
        assert kuiper_ltq(0.0, 10, 1) == 0.0

    @pytest.mark.parametrize("x", [-0.5, 1.0, 1.5, math.nan])
    def test_inv_cdf_rejects_x_outside_unit_interval(self, x):
        with pytest.raises(ValueError) as err:
            kuiper_inv_cdf(x, 10, 1)
        assert str(err.value) == f"probability x must be in [0, 1), got {x}"

    @pytest.mark.parametrize("level", [True, False, np.True_, np.False_],
                             ids=["True", "False", "np.True_", "np.False_"])
    @pytest.mark.parametrize("call, name", LEVEL_CALLS, ids=LEVEL_CALL_IDS)
    def test_bool_level_rejected(self, call, name, level):
        # the range checks would read it as 0 or 1
        with pytest.raises(ValueError) as err:
            call(level)
        assert str(err.value) == (f"{name} must be a real number, not a bool, "
                                  f"got {level!r}")

    @pytest.mark.parametrize("level", ["0.05", None], ids=["str", "None"])
    @pytest.mark.parametrize("call, name", LEVEL_CALLS, ids=LEVEL_CALL_IDS)
    def test_non_real_level_rejected(self, call, name, level):
        # the range checks raised a bare TypeError from the comparison
        with pytest.raises(ValueError) as err:
            call(level)
        assert str(err.value) == f"{name} must be a real number, got {level!r}"

    def test_numpy_real_levels_accepted(self):
        assert kuiper_utq(np.float64(0.05), 10, 5) == kuiper_utq(0.05, 10, 5)
        assert kuiper_ltq(np.int64(0), 10, 5) == 0.0
        assert kuiper_inv_cdf(np.float64(0.5), 10, 5) == kuiper_inv_cdf(
            0.5, 10, 5)

    def test_inv_cdf_round_trip(self):
        for x in (0.6, 0.9, 0.95, 0.99):
            for n in (6, 20, 100):
                v = kuiper_inv_cdf(x, n, 5)
                assert float(cdf_vn(v, n, 5)) == pytest.approx(x, abs=1e-3)


class TestConfigValidation:
    def test_bad_method(self):
        with pytest.raises(ValueError):
            kuiper_pair_solver(0.05, 10, 5, method="bisect")

    @pytest.mark.parametrize("n,k", [(True, 5), (10, True), (10.5, 5), (10.0, 5),
                                     (10, 5.0), (np.bool_(True), 1)])
    def test_bad_key(self, n, k):
        fun_a0(10, 5)
        fun_a0(1, 1)  # the twins of 10.0 and True, now cached
        with pytest.raises(ValueError, match="must be an integer"):
            kuiper_pair_solver(0.05, n, k)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf])
    def test_bad_alpha(self, alpha):
        with pytest.raises(ValueError):
            kuiper_pair_solver(alpha, 10, 5)

    @pytest.mark.parametrize("k", [4, 5])
    def test_capacity_whose_square_overflows(self, k):
        pair = kuiper_pair_solver(0.05, 10**200, k)
        assert pair.c == kuiper_pair_solver(0.05, 10**200, 3).c
        assert pair.c == pytest.approx(1.7473, abs=1e-4)

    def test_capacity_beyond_float_range(self):
        n = 10**400
        with pytest.raises(ValueError) as err:
            kuiper_pair_solver(0.05, n, 1)
        assert str(err.value) == f"sample capacity n must be an integer >= 1, got {n!r}"

    def test_numpy_integers_accepted(self):
        want = kuiper_pair_solver(0.05, 10, 5)
        assert kuiper_pair_solver(0.05, np.int64(10), np.int64(5)).c == want.c


class TestKuiperPairValue:
    """The value semantics of a solved pair: keyword construction, repr,
    equality and hash between pairs, read-only fields, and the dataclasses
    helpers that callers use on it."""

    FIELDS = dict(c=1.5, v=0.5, alpha=0.05, n=9, k=5, iterations=4,
                  residual=-1e-17)

    def test_keyword_construction_and_repr(self):
        pair = KuiperPair(**self.FIELDS)
        assert [getattr(pair, name) for name in self.FIELDS] == list(
            self.FIELDS.values())
        assert repr(pair) == ("KuiperPair(c=1.5, v=0.5, alpha=0.05, n=9, "
                              "k=5, iterations=4, residual=-1e-17)")

    def test_equal_pairs_compare_and_hash_equal(self):
        a, b = KuiperPair(**self.FIELDS), KuiperPair(**self.FIELDS)
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != KuiperPair(**{**self.FIELDS, "iterations": 5})
        assert kuiper_pair_solver(0.05, 10, 5) == kuiper_pair_solver(0.05, 10, 5)

    @pytest.mark.parametrize("name", ["c", "residual", "extra"])
    def test_assignment_raises_attribute_error(self, name):
        pair = KuiperPair(**self.FIELDS)
        with pytest.raises(AttributeError):
            setattr(pair, name, 2.0)
        assert pair == KuiperPair(**self.FIELDS)

    def test_dataclasses_replace_and_fields(self):
        import dataclasses
        pair = kuiper_pair_solver(0.05, 10, 5)
        moved = dataclasses.replace(pair, c=pair.c + 1e-3)
        assert type(moved) is KuiperPair
        assert moved.c == pair.c + 1e-3 and moved.v == pair.v
        assert [f.name for f in dataclasses.fields(pair)] == list(self.FIELDS)
        assert dataclasses.asdict(pair)["iterations"] == pair.iterations
