"""The record streams of scripts/solver_sweep.py and the driver that hashes
them; the real parts run on shrunk grids only."""

import hashlib
import importlib.util
from pathlib import Path

import numpy as np

from kuiper_hoe.solver import kuiper_pair_solver

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "solver_sweep.py"
_SPEC = importlib.util.spec_from_file_location("solver_sweep", _PATH)
sweep = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(sweep)


def sha256(*texts: str) -> str:
    return hashlib.sha256("".join(texts).encode()).hexdigest()


def test_main_prints_one_line_per_part(monkeypatch, capsys):
    solves = [("ok", "a\n"), ("FixedPointDomainError", "b\n"), ("ok", "c\n"),
              ("ConvergenceError", "d\nUserWarning: w\n"),
              ("FixedPointDomainError", "e\n"), ("FixedPointDomainError", "f\n")]
    stats = [(3, "0x1p-1 0x1p-2 0x1.8p-1\n"), (3, "0x0p+0 0x0p+0 0x0p+0\n")]
    positions = [(2, "0x1p-1 0x1p+0\n"), (5, "0x1p-3\n")]
    calls = ["$ pair\nexit 0\n"]

    def stream(records):
        return lambda: iter(records)

    monkeypatch.setattr(sweep, "PARTS", (
        ("solver", "solves", stream([(o, 1, text) for o, text in solves])),
        ("gof", "values", stream([(None, n, text) for n, text in stats])),
        ("wrappers", "values", stream([(None, n, text) for n, text in positions])),
        ("cli", "calls", stream([(None, 1, text) for text in calls])),
        ("empty", "values", stream([]))))
    sweep.main()
    assert capsys.readouterr().out == (
        "solver 6 solves: FixedPointDomainError 3, ok 2, ConvergenceError 1; "
        f"sha256 {sha256(*(text for _, text in solves))}\n"
        f"gof 6 values; sha256 {sha256(*(text for _, text in stats))}\n"
        f"wrappers 7 values; sha256 {sha256(*(text for _, text in positions))}\n"
        f"cli 1 calls; sha256 {sha256(*calls)}\n"
        f"empty 0 values; sha256 {sha256()}\n")


def test_parts_print_in_order_with_their_units():
    assert [(name, unit) for name, unit, _ in sweep.PARTS] == [
        ("solver", "solves"), ("series", "values"), ("gof", "values"),
        ("wrappers", "values"), ("series-wide", "values"), ("cli", "calls")]


def test_solver_part_repeats_its_records(monkeypatch):
    monkeypatch.setattr(sweep, "ALPHAS", np.array([0.0026, 0.05, 0.9]))
    monkeypatch.setattr(sweep, "CAPACITIES", (5, 100))
    monkeypatch.setattr(sweep, "ORDERS", range(1, 3))
    records = list(sweep.solver_part())
    assert records == list(sweep.solver_part())
    assert len(records) == 2 * 3 * 2 * 2
    assert {outcome for outcome, _, _ in records} == {
        "ok", "FixedPointDomainError", "ConvergenceError"}
    pair = kuiper_pair_solver(0.0026, 5, 1, "newton")
    assert records[0] == ("ok", 1, f"{pair.c.hex()} {pair.iterations} "
                                   f"{pair.residual.hex()}\n")


def test_cli_part_writes_its_directory_as_tmp(monkeypatch):
    # each run has its own temporary directory; the records match only
    # because the part writes it as <tmp>
    monkeypatch.setattr(sweep, "CLI_CALLS", (
        "test --file {tmp}/empty.csv --csv-column 1 --dist normal(0,1)",))
    records = list(sweep.cli_part())
    assert records == list(sweep.cli_part())
    assert records == [(None, 1, "$ test --file {tmp}/empty.csv --csv-column 1 "
                                 "--dist normal(0,1)\n"
                                 "error: <tmp>/empty.csv: empty CSV file\n"
                                 "exit 2\n")]
