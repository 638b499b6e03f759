"""Kuiper V_n statistic via high-order series expansion.

CDF and tail evaluation, fixed-point/Newton solvers for critical values
and quantiles, a goodness-of-fit test, historical baselines, and a Monte
Carlo Type-I-error harness.  The package exports the names of the README
quick start and of the simulation harness; every other public name is
imported from its module (``kuiper_hoe.series``, ``.solver``, ``.gof``,
``.baselines``, ``.montecarlo``).
"""

from .series import Probability, cdf_vn, utp
from .solver import kuiper_pair_solver, kuiper_utq
from .gof import EdfScheme, SampleSet, kuiper_test
from .montecarlo import SimConfig, normal_cdf, simulate_type1

__version__ = "0.1.0"
