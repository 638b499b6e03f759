"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench
"""

from __future__ import annotations

import dataclasses
import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout

import pytest

import reference as ref
import run
import workloads

LIB, TABLES = run.load_library()
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAMES = sorted(workloads.WORKLOADS)
# Op seconds of a tiny run: each timed phase stops after its first op or few.
TINY = 0.01


def make(name: str, seed: int = 1):
    return workloads.WORKLOADS[name](LIB, seed, TABLES)


def bindings() -> dict:
    """Every attribute of every loaded kuiper_hoe module, plus the traced method."""
    found = {(m.__name__, attr): value
             for m in list(sys.modules.values())
             if m is not None and m.__name__.split(".")[0] == "kuiper_hoe"
             for attr, value in vars(m).items()}
    found["SampleSet.__init__"] = LIB.gof.SampleSet.__init__
    return found


def report_line(result) -> dict:
    out = io.StringIO()
    return run.report(result, [], out)


@pytest.fixture
def no_setup(monkeypatch):
    monkeypatch.setattr(run, "measure_setup", lambda: (0.5, 0.5))


def test_spec_matches_the_code():
    assert sorted(w["name"] for w in SPEC["workloads"]) == NAMES
    assert all(workloads.WORKLOADS[name].op for name in NAMES)
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.END_TO_END_UNITS)
    for metric in SPEC["end_to_end"]:
        assert metric["unit"] == run.END_TO_END_UNITS[metric["name"]]


@pytest.mark.parametrize("name", NAMES)
def test_each_workload_runs_at_a_tiny_size(name):
    result = run.run_untraced(make(name), TINY)
    assert result["loop"].failed == 0
    assert result["info"]["error_ratio"] == 0.0
    assert all(value > 0 for value in result["metrics"].values())

    traced = run.run_traced(make(name), TINY)
    assert traced["loop"].failed == 0
    assert sorted(traced["metrics"]) == sorted(m["name"] for m in SPEC["per_layer"])


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_same_inputs(name):
    def first(seed, count=6):
        stream = make(name, seed).inputs()
        return [next(stream) for _ in range(count)]

    assert first(7) == first(7)
    assert first(7) != first(8)


def _shift_vn(original):
    def wrong(*args, **kwargs):
        d_plus, d_minus, v = original(*args, **kwargs)
        return d_plus, d_minus, v + 0.5
    return wrong


def _shift_pair(original):
    def wrong(*args, **kwargs):
        pair = original(*args, **kwargs)
        return dataclasses.replace(pair, c=pair.c + 1e-3)
    return wrong


def _shift_probability(original):
    def wrong(*args, **kwargs):
        return float(original(*args, **kwargs)) * 0.5
    return wrong


def _give_up(original):
    def unsolved(alpha, n, k, *args, **kwargs):
        raise ValueError(f"gave up at alpha={alpha}, n={n}, k={k}")
    return unsolved


# Workload -> (module, attribute, wrong version): one binding each workload
# reaches, made to return a wrong value.
INJECTIONS = {
    "calibrate": (LIB.montecarlo, "vn_from_probs", _shift_vn),
    "tables": (LIB.cli, "kuiper_pair_solver", _shift_pair),
    "gof": (LIB.gof, "vn_from_probs", _shift_vn),
    "cdf_curve": (LIB, "utp", _shift_probability),
}


@pytest.mark.parametrize("name", NAMES)
def test_injected_wrong_output_is_counted(name, monkeypatch, no_setup):
    module, attr, corrupt = INJECTIONS[name]
    monkeypatch.setattr(module, attr, corrupt(getattr(module, attr)))
    result = run.run_untraced(make(name), TINY)
    assert result["info"]["error_ratio"] > 0.0
    assert not report_line(result)["correct"]


def test_tables_fails_a_solver_that_gives_up(monkeypatch):
    # An op at a fresh alpha, past the levels with published cells: there a
    # table of x passes only at unreachable cells and next to the tail
    # form's domain edge.
    workload = make("tables")
    inputs = workload.inputs()
    for _ in workload.FIXED_LEVELS:
        next(inputs)
    inp = next(inputs)
    assert inp[0] not in TABLES.PAIR_TABLES
    assert workload.check(inp, workload.run(inp))
    monkeypatch.setattr(LIB.cli, "kuiper_pair_solver", _give_up(None))
    assert not workload.check(inp, workload.run(inp))


def test_traced_run_removes_its_wrappers():
    before = bindings()
    result = run.run_traced(make("tables"), TINY)
    # cli calls the solver through its own ``from .solver import`` binding.
    assert result["metrics"]["solver.pair.calls"] > 0
    assert result["metrics"]["cli.main.self_ms"] > 0
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_traced_run_reaches_bindings_in_importing_modules():
    result = run.run_traced(make("calibrate"), TINY)
    # montecarlo binds vn_from_probs, ks_utp_asymptotic and kuiper_utq itself;
    # a tiny run traces one op, after one untraced op that is not counted.
    assert result["metrics"]["gof.vn_from_probs.calls"] == 2000
    assert result["metrics"]["baselines.ks_utp.calls"] == 2000
    assert result["metrics"]["solver.pair.calls"] == 5
    assert result["metrics"]["montecarlo.reps"] == 2000


def test_untraced_run_has_no_wrappers(no_setup):
    workload = make("gof")
    originals = bindings()
    seen = []
    plain_run = workload.run

    def run_and_look(inp):
        seen.append(bindings() == originals
                    and all(v is originals[k] for k, v in bindings().items()))
        return plain_run(inp)

    workload.run = run_and_look
    run.run_untraced(workload, TINY)
    assert seen and all(seen)


def test_result_line(tmp_path):
    for trace, spec_key in ((0, "end_to_end"), (1, "per_layer")):
        out = io.StringIO()
        with redirect_stdout(out):
            code = run.main(["--workload", "cdf_curve", "--seed", "3", "--seconds", str(TINY),
                             "--trace", str(trace)])
        assert code == 0
        line = json.loads(out.getvalue().splitlines()[-1])
        assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
        assert sorted(line["metrics"]) == sorted(m["name"] for m in SPEC[spec_key])
        printed = out.getvalue()
        for name, metric in line["metrics"].items():
            assert f"{name} " in printed
            assert metric["unit"] in printed


def test_fails_without_the_library(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "gof",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""


def test_tail_percentile():
    latencies = [float(i) for i in range(1, 101)]
    assert run.tail(latencies) == (90.0, 90.0)
    assert run.tail([3.0, 1.0, 2.0]) == (100.0, 3.0)
    assert run.blocked_tail(latencies) == (90.0, 90.0, 1)
    # Three full blocks of 500 (the rest is left out): the middle block's tail.
    blocks = [float(i) for i in range(500)] * 3 + [1e9] * 20
    blocks[600] = blocks[601] = 1e6  # a burst inside one block moves only it
    assert run.blocked_tail(blocks) == (98.0, 489.0, 3)


def test_equal_rate_p_value():
    assert ref.equal_rate_p_value(100, 20000, 5, 1000) > 0.5
    assert ref.equal_rate_p_value(1000, 20000, 5, 1000) < 1e-6
    assert ref.equal_rate_p_value(0, 20000, 0, 1000) == 1.0


def test_domain_edge_allowance_is_narrow():
    # The seed's solver prints x here: the root (c ~ 2.54) lies 0.16 below
    # the c where the tail form turns non-positive (c ~ 2.70).
    assert ref.near_domain_edge(0.009233102022321181, 6, 5)
    # Roots far below the edge, and cells with no edge, get no allowance.
    assert not ref.near_domain_edge(0.0125, 6, 5)
    assert not ref.near_domain_edge(0.05, 6, 5)
    assert not ref.near_domain_edge(0.001, 50, 3)
    # Unreachable alpha is judged elsewhere.
    assert not ref.near_domain_edge(0.009, 6, 5)


def test_reference_matches_published_tables_residual():
    # A published critical value solves the reference tail form.
    for alpha, by_n in TABLES.PAIR_TABLES.items():
        for n, row in by_n.items():
            for k, (c, _) in enumerate(row, start=1):
                assert abs(ref.tail_residual(c, alpha, n, k)) < 2e-3
