"""The benchmark's four workloads.

Each workload turns a seed into an endless, reproducible stream of op
inputs (``inputs``), performs one op (``run``, the only timed part) and
checks its output against the references in reference.py (``check``).
Checks never call the library, so they add no spans to a traced run.
``finish`` applies checks that need the whole run, and returns the number
of ops they fail.

Ops never repeat a key (alpha, n, k) unless the workload says so, so that a
memo cannot fake a gain.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import re

import numpy as np

import reference as ref

ORDERS = (1, 2, 3, 4, 5)


def _stream(seed: int, name: str) -> np.random.Generator:
    """A generator private to (seed, workload), so workloads draw independently."""
    key = [ord(ch) for ch in name]
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


class Workload:
    name = ""
    op = ""

    def __init__(self, lib, seed: int, tables) -> None:
        self.lib = lib
        self.seed = seed
        self.tables = tables
        self.notes: list[str] = []

    def inputs(self):
        raise NotImplementedError

    def run(self, inp):
        raise NotImplementedError

    def check(self, inp, out) -> bool:
        raise NotImplementedError

    def counters(self, inp, out) -> dict:
        """Per-op counts a traced run adds to the layer metrics."""
        return {}

    def finish(self) -> int:
        return 0

    def stats(self) -> dict:
        """Workload properties reported with the layer metrics."""
        return {}


class Calibrate(Workload):
    name = "calibrate"
    op = ("one simulate_type1 call: n_rep=2000, k_set 1..5, comparators ks and "
          "stephens, scheme0, default workers, n cycling over 10, 50, 180, a "
          "fresh seed per op")

    N_CYCLE = (10, 50, 180)
    N_REP = 2000
    COMPARATORS = ("ks", "stephens")
    # A correct program fails the pooled check with probability below this.
    FALSE_ALARM = 1e-6

    def __init__(self, lib, seed, tables) -> None:
        super().__init__(lib, seed, tables)
        self.methods = [f"hoe_k{k}" for k in ORDERS] + list(self.COMPARATORS)
        self.pooled = {n: {m: 0 for m in self.methods} for n in self.N_CYCLE}
        self.ops_at = {n: 0 for n in self.N_CYCLE}

    def inputs(self):
        rng = _stream(self.seed, self.name)
        i = 0
        while True:
            yield self.N_CYCLE[i % 3], int(rng.integers(0, 2**63 - 1))
            i += 1

    def run(self, inp):
        n, sim_seed = inp
        lib = self.lib
        cfg = lib.SimConfig(n=n, alpha=0.05, k_set=ORDERS, n_rep=self.N_REP,
                            seed=sim_seed, scheme=lib.EdfScheme.SCHEME0,
                            comparators=self.COMPARATORS)
        return lib.simulate_type1(cfg)

    def check(self, inp, out) -> bool:
        n, _ = inp
        rejections = getattr(out, "rejections", None)
        if not isinstance(rejections, dict) or sorted(rejections) != sorted(self.methods):
            return False
        for method, count in rejections.items():
            if not (isinstance(count, int) and 0 <= count <= self.N_REP):
                return False
            if out.p_type1[method] != count / self.N_REP:
                return False
        for method, count in rejections.items():
            self.pooled[n][method] += count
        self.ops_at[n] += 1
        return True

    def finish(self) -> int:
        """Pooled rates against TYPE1_TABLE by a conditional binomial test.

        The table holds 1000-rep estimates; conditioning on the total count
        makes the test exact for both sources of noise, and the threshold is
        split over every (n, method) pair tested.
        """
        ns = [n for n in self.N_CYCLE if self.ops_at[n]]
        tested = len(ns) * len(self.methods)
        failed = 0
        for n in ns:
            reps = self.ops_at[n] * self.N_REP
            bad = []
            for method in self.methods:
                key = int(method[5:]) if method.startswith("hoe_k") else method
                ref_count = round(self.tables.TYPE1_TABLE[key][self.tables.TYPE1_NS.index(n)] * 1000)
                p = ref.equal_rate_p_value(self.pooled[n][method], reps, ref_count, 1000)
                if p < self.FALSE_ALARM / tested:
                    bad.append(f"{method} {self.pooled[n][method]}/{reps} vs "
                               f"{ref_count}/1000 (p={p:.2g})")
            if bad:
                failed += self.ops_at[n]
                self.notes.append(f"calibrate n={n}: " + "; ".join(bad))
        return failed


class Tables(Workload):
    name = "tables"
    op = ("one cli.main(['table', '--alpha', a, '--format', f, '--precision', "
          "'10']) over the default grid of 11 n x 5 k; formats rotate "
          "table, csv, json")

    GRID_N = (6, 7, 8, 9, 10, 20, 30, 40, 50, 100, 1000000)
    FORMATS = ("table", "csv", "json")
    ALPHA_RANGE = (0.001, 0.4)
    FIXED_LEVELS = ref.REFERENCE_LEVELS + (0.001, 0.005)
    TABLE_TOL = 1e-4
    PRINT_TOL = 1e-9  # values are printed with 10 decimals
    SOLVER_TOL = 1e-5
    _CELL = re.compile(r"\(\s*([-+0-9.eE]+),\s*([-+0-9.eE]+)\)|x")

    def __init__(self, lib, seed, tables) -> None:
        super().__init__(lib, seed, tables)
        self.reachable_x = 0

    def inputs(self):
        rng = _stream(self.seed, self.name)
        fixed = [self.FIXED_LEVELS[i] for i in rng.permutation(len(self.FIXED_LEVELS))]
        lo, hi = (math.log(a) for a in self.ALPHA_RANGE)
        i = 0
        while True:
            alpha = fixed[i] if i < len(fixed) else float(math.exp(rng.uniform(lo, hi)))
            yield alpha, self.FORMATS[i % 3]
            i += 1

    def run(self, inp):
        alpha, fmt = inp
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.lib.cli.main(["table", "--alpha", repr(alpha), "--format",
                                      fmt, "--precision", "10"])
        return code, buf.getvalue()

    def counters(self, inp, out) -> dict:
        return {"cli.output_bytes": len(out[1].encode())}

    def _parse(self, fmt: str, text: str) -> dict:
        cells = {}
        if fmt == "json":
            for cell in json.loads(text)["cells"]:
                cells[cell["n"], cell["k"]] = (None if cell["c"] is None
                                               else (cell["c"], cell["v"]))
        elif fmt == "csv":
            rows = list(csv.reader(io.StringIO(text)))
            if rows[0] != ["alpha", "n", "k", "c", "v"]:
                raise ValueError(f"csv header {rows[0]}")
            for _, n, k, c, v in rows[1:]:
                cells[int(n), int(k)] = None if c == "" else (float(c), float(v))
        else:
            lines = text.splitlines()
            ks = [int(h[2:]) for h in lines[1].split()[1:]]
            for line in lines[2:]:
                n = int(line.split()[0])
                found = self._CELL.findall(line[9:])
                if len(found) != len(ks):
                    raise ValueError(f"row {line!r}")
                for k, (c, v) in zip(ks, found):
                    cells[n, k] = None if c == "" else (float(c), float(v))
        return cells

    def check(self, inp, out) -> bool:
        alpha, fmt = inp
        if isinstance(out, BaseException):
            return False
        code, text = out
        try:
            cells = self._parse(fmt, text)
        except (ValueError, KeyError, IndexError, TypeError):
            return False
        if code != 0 or sorted(cells) != [(n, k) for n in self.GRID_N for k in ORDERS]:
            return False
        published = self.tables.PAIR_TABLES.get(alpha, {})
        for (n, k), cell in cells.items():
            expected = published[n][k - 1] if n in published else None
            if ref.alpha_gap(alpha, n, k) <= 0.0:
                if cell is not None:  # unreachable alpha must print x
                    return False
                continue
            if cell is None:
                # A reachable cell printed as x is a failure, except for a
                # known solver defect: an iterate crossed the edge where the
                # tail form leaves the log's domain.  That can happen only for
                # roots just below the edge; those cells are counted, not failed.
                if expected is not None or not ref.near_domain_edge(alpha, n, k):
                    return False
                self.reachable_x += 1
                continue
            c, v = cell
            if abs(v - c / math.sqrt(n)) > self.PRINT_TOL:
                return False
            if expected is not None:
                if (abs(c - expected[0]) > self.TABLE_TOL + self.PRINT_TOL
                        or abs(v - expected[1]) > self.TABLE_TOL + self.PRINT_TOL):
                    return False
            elif not abs(ref.tail_residual(c, alpha, n, k)) < self.SOLVER_TOL:
                return False
        return True

    def stats(self) -> dict:
        return {"tables.reachable_x_cells": self.reachable_x}


class Gof(Workload):
    name = "gof"
    op = ("SampleSet(values) then kuiper_test(sample, normal_cdf, alpha, k): n "
          "log-uniform in 5..5000, half N(0,1) and half N(0.3, 1.2^2) "
          "samples, k cycling 1..5, alpha from the seven table levels")

    N_RANGE = (5, 5000)
    SHIFTED = (0.3, 1.2)
    VN_TOL = 1e-12

    def __init__(self, lib, seed, tables) -> None:
        super().__init__(lib, seed, tables)
        # One byte per possible key, so memory does not grow with the op count.
        self.seen = bytearray(len(ref.REFERENCE_LEVELS) * (self.N_RANGE[1] + 1) * len(ORDERS))
        self.repeats = 0
        self.ops = 0

    def inputs(self):
        rng = _stream(self.seed, self.name)
        lo, hi = (math.log(a) for a in self.N_RANGE)
        i = 0
        while True:
            n = int(round(math.exp(rng.uniform(lo, hi))))
            x = rng.standard_normal(n)
            if i % 2:
                x = self.SHIFTED[0] + self.SHIFTED[1] * x
            alpha = float(rng.choice(ref.REFERENCE_LEVELS))
            yield tuple(x.tolist()), alpha, ORDERS[i % 5]
            i += 1

    def run(self, inp):
        values, alpha, k = inp
        lib = self.lib
        sample = lib.SampleSet(values)
        return lib.kuiper_test(sample, lib.normal_cdf, alpha, k)

    def check(self, inp, out) -> bool:
        values, alpha, k = inp
        n = len(values)
        key = ((ref.REFERENCE_LEVELS.index(alpha) * (self.N_RANGE[1] + 1) + n)
               * len(ORDERS) + k - 1)
        self.ops += 1
        self.repeats += self.seen[key]
        self.seen[key] = 1
        reachable = ref.alpha_gap(alpha, n, k) > 0.0
        if isinstance(out, BaseException):
            # An unreachable alpha must be reported as a domain error.
            return isinstance(out, ValueError) and not reachable
        if not reachable:
            return False
        expected = ref.exact_vn(values)
        got = (out.d_plus, out.d_minus, out.v_n)
        if any(not abs(a - b) <= self.VN_TOL for a, b in zip(got, expected)):
            return False
        return (out.reject == (out.v_n > out.v_critical)
                and 0.0 <= float(out.p_value) <= 1.0)

    def stats(self) -> dict:
        return {"gof.key_repeat_ratio": self.repeats / self.ops if self.ops else 0.0}


class CdfCurve(Workload):
    name = "cdf_curve"
    op = ("cdf_vn and utp(truncated=True) on a 200-point jittered grid of c "
          "in [0.3, 3.5] for one (n, k); (n, k) cycles over n in 6, 10, 50, "
          "1000 and k in 1..5")

    GRID = (0.3, 3.5, 200)
    NS = (6, 10, 50, 1000)
    TOL = 1e-10
    J_SERIES = 10  # the library's documented truncation of the j sum
    CHECKED_POINTS = 1

    def inputs(self):
        rng = _stream(self.seed, self.name)
        lo, hi, m = self.GRID
        step = (hi - lo) / m
        combos = [(n, k) for n in self.NS for k in ORDERS]
        i = 0
        while True:
            n, k = combos[i % len(combos)]
            grid = lo + (np.arange(m) + rng.random(m)) * step
            sample = rng.choice(m, size=self.CHECKED_POINTS, replace=False)
            yield n, k, tuple(grid.tolist()), tuple(int(j) for j in sample)
            i += 1

    def run(self, inp):
        n, k, grid, _ = inp
        lib = self.lib
        root_n = math.sqrt(n)
        cdf = [lib.cdf_vn(c / root_n, n, k) for c in grid]
        tail = [lib.utp(c, n, k, truncated=True) for c in grid]
        return cdf, tail

    def check(self, inp, out) -> bool:
        import mpmath

        n, k, grid, sample = inp
        if isinstance(out, BaseException):
            return False
        cdf, tail = ([float(x) for x in part] for part in out)
        if len(cdf) != len(grid) or len(tail) != len(grid):
            return False
        if not all(0.0 <= x <= 1.0 for x in cdf + tail):
            return False
        with mpmath.workdps(30):
            for j in sample:
                c = mpmath.mpf(grid[j])
                j_conv = ref.converged_terms(grid[j])
                sums = ref.cdf_partial_sums(c, n, k, j_conv, mpmath.exp, mpmath.sqrt)
                # Either the library's j <= 10 truncation or the converged
                # sum; they differ only where j_conv > 10.
                series = [sums[-1]]
                if j_conv > self.J_SERIES:
                    series.append(sums[self.J_SERIES - 1])
                if min(abs(cdf[j] - ref.clamp01(s)) for s in series) > self.TOL:
                    return False
                two_exp = ref.clamp01(ref.utp_two_exp(c, n, k, mpmath.exp, mpmath.sqrt))
                if abs(tail[j] - two_exp) > self.TOL:
                    return False
        return True


WORKLOADS = {w.name: w for w in (Calibrate, Tables, Gof, CdfCurve)}
