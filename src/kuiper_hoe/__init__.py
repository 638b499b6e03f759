"""Kuiper V_n statistic via high-order series expansion.

CDF and tail evaluation, fixed-point/Newton solvers for critical values
and quantiles, a goodness-of-fit test, historical baselines, and a Monte
Carlo Type-I-error harness.  The package exports the names of the README
quick start and of the simulation harness; every other public name is
imported from its module (``kuiper_hoe.series``, ``.solver``, ``.gof``,
``.baselines``, ``.montecarlo``).

Importing the package loads the series and the solver only.  The names
that need NumPy (the goodness-of-fit test and the simulation harness)
and the submodules ``gof``, ``montecarlo`` and ``baselines`` are loaded
on first access.
"""

import importlib

from .series import Probability, cdf_vn, utp
from .solver import kuiper_pair_solver, kuiper_utq

__version__ = "0.1.0"

# Name -> the submodule that defines it, imported on first access.
_LAZY = {
    "EdfScheme": "gof", "SampleSet": "gof", "kuiper_test": "gof",
    "SimConfig": "montecarlo", "normal_cdf": "montecarlo",
    "simulate_type1": "montecarlo",
}
_SUBMODULES = ("gof", "montecarlo", "baselines")
__all__ = ["Probability", "cdf_vn", "utp", "kuiper_pair_solver", "kuiper_utq",
           *_LAZY]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name in _LAZY:
        value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list:
    return sorted({*globals(), *_LAZY, *_SUBMODULES})
