"""Kuiper V_n statistic via high-order series expansion.

CDF and tail evaluation, fixed-point/Newton solvers for critical values
and quantiles, a goodness-of-fit test, historical baselines, and a Monte
Carlo Type-I-error harness.
"""

from .series import (
    Probability,
    b_series,
    cdf_kn,
    cdf_vn,
    fun_a0,
    fun_aj,
    utp,
)
from .solver import (
    BracketWarning,
    ConvergenceError,
    DegenerateDerivativeError,
    FixedPointDomainError,
    KuiperPair,
    f_ctm,
    f_nlm,
    get_init_value,
    kuiper_inv_cdf,
    kuiper_ltq,
    kuiper_pair_solver,
    kuiper_utq,
)
from .gof import (
    EdfScheme,
    SampleSet,
    TestResult,
    TiesWarning,
    compute_vn,
    edf_probs,
    kuiper_test,
    vn_from_probs,
)
from .baselines import (
    ModifiedStatistic,
    ks_utp_asymptotic,
    modified_quantile,
    modified_statistic,
    stephens_cdf_small_v,
    stephens_utp,
)
from .montecarlo import (
    SimConfig,
    SimResult,
    normal_cdf,
    normal_ppf,
    simulate_type1,
)

__version__ = "0.1.0"
