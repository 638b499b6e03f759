"""Spans around the library's public functions, installed from outside.

The tracer replaces each traced function by a wrapper in every kuiper_hoe
module that binds it: a name imported with ``from .x import y`` is a
separate binding, and patching only the defining module would miss calls
made through it.  Spans (name, start, end, parent, outcome) are kept in
flat arrays while the run lasts and written out when it ends; self time is
derived from them afterwards.  Leaving the ``with`` block restores every
original binding.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

# Span name -> (module, attribute path).  A missing attribute is skipped,
# so its metrics read 0 instead of breaking the traced run.  Spans without
# metrics of their own (cdf_vn, utq) keep their time out of their caller's
# self time.
SPANS = (
    ("series.b_series", "series", "b_series"),
    ("series.cdf_kn", "series", "cdf_kn"),
    ("series.cdf_vn", "series", "cdf_vn"),
    ("series.utp", "series", "utp"),
    ("series.fun_aj", "series", "fun_aj"),
    ("solver.pair", "solver", "kuiper_pair_solver"),
    ("solver.utq", "solver", "kuiper_utq"),
    ("solver.fallback", "solver", "get_init_value"),
    ("gof.sampleset", "gof", "SampleSet.__init__"),
    ("gof.compute_vn", "gof", "compute_vn"),
    ("gof.vn_from_probs", "gof", "vn_from_probs"),
    ("gof.kuiper_test", "gof", "kuiper_test"),
    ("baselines.ks_utp", "baselines", "ks_utp_asymptotic"),
    ("baselines.modified_quantile", "baselines", "modified_quantile"),
    ("montecarlo.simulate", "montecarlo", "simulate_type1"),
    ("cli.main", "cli", "main"),
)

# Counter name -> (module, attribute): calls counted without a span, for
# functions too small and too frequent to time one by one.
COUNTED = (
    ("gof.cdf_evals", "montecarlo", "normal_cdf"),
)

# Span name -> (counter, value taken from the returned object).
RESULT_COUNTERS = {
    "solver.pair": ("solver.pair.iterations", lambda out: getattr(out, "iterations", 0)),
    "montecarlo.simulate": ("montecarlo.reps", lambda out: getattr(out, "n_rep", 0)),
}

OK, VALUE_ERROR, OTHER_ERROR = 0, 1, 2


class Tracer:
    """Installs span wrappers on entry and removes them on exit."""

    def __init__(self, package_name: str = "kuiper_hoe") -> None:
        self.package_name = package_name
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.outcome = array("b")
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        """fn, recording one span per call."""
        nid = self._id(name)
        result_counter = RESULT_COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1])
            self.outcome.append(OK)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(clock())
            try:
                out = fn(*args, **kwargs)
            except ValueError:
                self.outcome[idx] = VALUE_ERROR
                raise
            except BaseException:
                self.outcome[idx] = OTHER_ERROR
                raise
            finally:
                self.end[idx] = clock()
                self._stack.pop()
            if result_counter is not None:
                self.counts[result_counter[0]] += result_counter[1](out)
            return out

        return traced

    def wrap_counted(self, name: str, fn):
        """fn, counting calls under ``name`` without a span."""
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def add(self, name: str, value) -> None:
        self.counts[name] += value

    # -- installing ------------------------------------------------------

    def _modules(self):
        prefix = self.package_name + "."
        return [m for key, m in list(sys.modules.items())
                if m is not None and (key == self.package_name or key.startswith(prefix))]

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _install(self, module_name: str, path: str, make) -> None:
        module = sys.modules.get(f"{self.package_name}.{module_name}")
        head, _, method = path.partition(".")
        original = getattr(module, head, None)
        if original is None:
            return
        if method:  # a method: the class object is shared by every binding
            if hasattr(original, method):
                self._patch(original, method, make(getattr(original, method)))
            return
        wrapper = make(original)
        for mod in self._modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, wrapper)

    def __enter__(self) -> "Tracer":
        try:
            for name, module_name, path in SPANS:
                self._install(module_name, path,
                              functools.partial(self.wrap, name))
            for name, module_name, path in COUNTED:
                self._install(module_name, path,
                              functools.partial(self.wrap_counted, name))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names, dtype=str),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "outcome": np.frombuffer(self.outcome, dtype=np.int8).copy(),
        }

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, **self.arrays())


def span_summary(spans: dict) -> dict:
    """Per span name: calls and self time in ms, from the span arrays.

    A span's self time is its duration minus the durations of its direct
    children; one process and no threads means children nest strictly.
    """
    dur = spans["end"] - spans["start"]
    parent = spans["parent"]
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=dur[has_parent],
                             minlength=dur.size)
    self_time = dur - child_time
    out = {}
    for nid, name in enumerate(spans["names"]):
        mask = spans["name_id"] == nid
        out[str(name)] = {"calls": int(mask.sum()),
                          "self_ms": float(self_time[mask].sum() * 1e3)}
    return out


def _mask(spans: dict, name: str) -> np.ndarray:
    """Which spans carry ``name``."""
    names = [str(n) for n in spans["names"]]
    if name not in names:
        return np.zeros(spans["name_id"].size, dtype=bool)
    return spans["name_id"] == names.index(name)


def fallback_useful_ratio(spans: dict) -> float:
    """Share of bisection fallbacks whose caller went on to return a result."""
    mask = _mask(spans, "solver.fallback")
    calls = int(mask.sum())
    if calls == 0:
        return 0.0
    parents = spans["parent"][mask]
    useful = (parents >= 0) & (spans["outcome"][np.maximum(parents, 0)] == OK)
    return float(useful.sum()) / calls


def domain_errors(spans: dict, name: str) -> int:
    """Calls of span ``name`` that ended in a ValueError (domain error)."""
    return int((spans["outcome"][_mask(spans, name)] == VALUE_ERROR).sum())
