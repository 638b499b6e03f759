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
                     "median_gap_exceeds_parent_iqr": False}
    assert bench.compare(parent, checkout, "higher")["pairs_better"] == 1


def test_compare_flags_a_median_gap_beyond_the_parent_iqr():
    parent = bench.summary([10.0, 12.0, 14.0])
    assert bench.compare(parent, bench.summary([15.5, 15.0, 16.0]),
                         "higher")["median_gap_exceeds_parent_iqr"]
    assert not bench.compare(parent, bench.summary([14.0, 14.0, 14.0]),
                             "higher")["median_gap_exceeds_parent_iqr"]


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
