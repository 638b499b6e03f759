"""The A/B helpers of scripts/bench.py; no perfbench run is started."""

import importlib.util
import statistics
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "bench.py"
_SPEC = importlib.util.spec_from_file_location("bench_script", _PATH)
bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench)


def test_alternate_swaps_the_first_side_each_round():
    calls = []

    def measure(tree, r):
        calls.append((tree, r))
        return f"{tree}{r}"

    runs = bench.alternate({"parent": "P", "checkout": "C"}, 4, measure)
    assert calls == [("P", 0), ("C", 0), ("C", 1), ("P", 1),
                     ("P", 2), ("C", 2), ("C", 3), ("P", 3)]
    assert runs == {"parent": ["P0", "P1", "P2", "P3"],
                    "checkout": ["C0", "C1", "C2", "C3"]}


@pytest.mark.parametrize("values, median, q1, q3", [
    ([5.0, 1.0, 4.0, 2.0, 3.0], 3.0, 2.0, 4.0),
    ([4.0, 1.0, 3.0, 2.0], 2.5, 1.75, 3.25),
    ([7.0], 7.0, 7.0, 7.0),
])
def test_summary_inclusive_quartiles_and_min(values, median, q1, q3):
    assert bench.summary(values) == {"median": median, "q1": q1, "q3": q3,
                                     "min": min(values), "runs": values}


def test_compare_counts_pairs_by_direction():
    parent = bench.summary([10.0, 12.0, 14.0])  # quartiles 11 and 13
    checkout = bench.summary([9.0, 13.0, 11.0])
    lower = bench.compare(parent, checkout, "lower")
    assert lower == {"median_ratio": 11.0 / 12.0, "min_ratio": 9.0 / 10.0,
                     "pairs_better": 2, "pairs": 3,
                     "median_gap_exceeds_parent_iqr": False,
                     "verdict": "unresolved"}
    assert bench.compare(parent, checkout, "higher")["pairs_better"] == 1


def test_compare_flags_a_median_gap_beyond_the_parent_iqr():
    parent = bench.summary([10.0, 12.0, 14.0])
    assert bench.compare(parent, bench.summary([15.5, 15.0, 16.0]),
                         "higher")["median_gap_exceeds_parent_iqr"]
    assert not bench.compare(parent, bench.summary([14.0, 14.0, 14.0]),
                             "higher")["median_gap_exceeds_parent_iqr"]


_PARENT = [100.0, 101.0, 102.0, 103.0, 104.0,
           105.0, 106.0, 107.0, 108.0, 109.0]  # quartiles 102.25 and 106.75


def _verdict(checkout: list, direction: str = "higher") -> str:
    return bench.compare(bench.summary(_PARENT), bench.summary(checkout),
                         direction)["verdict"]


@pytest.mark.parametrize("direction, shift, verdict", [
    ("higher", 10.0, "better"), ("higher", -10.0, "worse"),
    ("lower", -10.0, "better"), ("lower", 10.0, "worse"),
])
def test_verdict_needs_nine_pairs_and_a_gap_beyond_the_iqr(direction, shift,
                                                           verdict):
    moved = [x + shift for x in _PARENT]
    assert _verdict(moved, direction) == verdict
    # nine pairs of ten move; the tenth goes the other way
    assert _verdict(moved[:9] + [_PARENT[9] - shift], direction) == verdict
    # eight of ten are not enough, however far the median moves
    assert _verdict(moved[:8] + [x - shift for x in _PARENT[8:]],
                    direction) == "unresolved"


def test_verdict_unresolved_on_a_gap_inside_the_iqr_or_a_2_in_10_split():
    # every pair better by 1, but the median moved less than the IQR 4.5
    assert _verdict([x + 1.0 for x in _PARENT]) == "unresolved"
    # 2 of 10 pairs better: the median gap alone flags it, the verdict not
    split = [x + 20.0 for x in _PARENT[:2]] + [x - 10.0 for x in _PARENT[2:]]
    change = bench.compare(bench.summary(_PARENT), bench.summary(split),
                           "higher")
    assert change["pairs_better"] == 2
    assert change["median_gap_exceeds_parent_iqr"]
    assert change["verdict"] == "unresolved"


def test_verdict_ties_count_for_neither_side():
    # nine pairs worse and one tied: the tie is no loss, so 9 losses of 10
    worse = [x - 10.0 for x in _PARENT[:9]] + [_PARENT[9]]
    assert _verdict(worse) == "worse"
    # eight worse and two tied: 8 of 10
    assert _verdict(worse[:8] + _PARENT[8:]) == "unresolved"


def test_report_is_side_major_with_the_change():
    runs = {"parent": [{"t": 2.0}, {"t": 4.0}],
            "checkout": [{"t": 1.0}, {"t": 3.0}]}
    out = bench.report(runs, {"t": "lower"})
    assert list(out) == ["parent", "checkout", "change"]
    assert out["checkout"]["t"]["runs"] == [1.0, 3.0]
    assert out["change"]["t"]["pairs_better"] == 2
    assert out["change"]["t"]["median_ratio"] == statistics.median(
        [1.0, 3.0]) / statistics.median([2.0, 4.0])


def test_run_python_returns_stdout_and_imports_the_tree(tmp_path):
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "probe_module.py").write_text("NAME = 'tree'\n")
    argv = ["-c", "import probe_module; print(probe_module.NAME)"]
    assert bench.run_python(tmp_path, argv) == "tree\n"


def test_run_python_raises_with_argv_and_exit_code(tmp_path):
    argv = ["-c", "import sys; print('boom', file=sys.stderr); sys.exit(3)"]
    with pytest.raises(RuntimeError) as err:
        bench.run_python(tmp_path, argv)
    message = str(err.value)
    assert " ".join(argv) in message
    assert f"in {tmp_path} exited 3: boom" in message
