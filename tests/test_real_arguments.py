"""Real arguments of the public entry points are read as Python floats:
a NumPy float32 is computed in double precision, and a bool statistic
raises."""

import dataclasses

import numpy as np
import pytest

from kuiper_hoe.baselines import (ks_utp_asymptotic, modified_quantile,
                                  modified_statistic, stephens_cdf_small_v,
                                  stephens_utp)
from kuiper_hoe.gof import SampleSet, kuiper_test
from kuiper_hoe.montecarlo import SimConfig, normal_cdf
from kuiper_hoe.series import Probability, b_series, cdf_kn, cdf_vn, fun_aj, utp
from kuiper_hoe.solver import (f_ctm, f_nlm, kuiper_inv_cdf, kuiper_ltq,
                               kuiper_pair_solver, kuiper_utq)

SAMPLE = SampleSet([-1.3, -0.6, -0.2, 0.1, 0.4, 0.9, 1.7, 0.05, -0.9, 1.1])

# (name, argument, call): each call takes the argument in one real position
ENTRY_POINTS = [
    ("cdf_kn", 1.2, lambda x: cdf_kn(x, 10, 5)),
    ("cdf_vn", 0.38, lambda x: cdf_vn(x, 10, 5)),
    ("utp", 1.2, lambda x: utp(x, 10, 5)),
    ("utp-truncated", 1.2, lambda x: utp(x, 10, 5, truncated=True)),
    ("b_series", 1.2, lambda x: b_series(2, x)),
    ("fun_aj", 1.2, lambda x: fun_aj(2, x, 10, 5)),
    ("f_nlm-c", 1.8, lambda x: f_nlm(x, 0.05, 10, 5)),
    ("f_nlm-alpha", 0.05, lambda x: f_nlm(1.8, x, 10, 5)),
    ("f_ctm-c", 1.8, lambda x: f_ctm(x, 0.05, 10, 5)),
    ("f_ctm-alpha", 0.05, lambda x: f_ctm(1.8, x, 10, 5)),
    ("kuiper_pair_solver", 0.05, lambda x: kuiper_pair_solver(x, 10, 1)),
    ("kuiper_utq", 0.05, lambda x: kuiper_utq(x, 10, 1)),
    ("kuiper_ltq", 0.95, lambda x: kuiper_ltq(x, 10, 1)),
    ("kuiper_inv_cdf", 0.95, lambda x: kuiper_inv_cdf(x, 10, 1)),
    ("kuiper_test", 0.05, lambda x: kuiper_test(SAMPLE, normal_cdf, alpha=x)),
    ("SimConfig", 0.05, lambda x: SimConfig(n=10, alpha=x).alpha),
    ("modified_quantile", 0.05, modified_quantile),
    ("modified_statistic", 0.4, lambda x: modified_statistic(x, 10)),
    ("stephens_utp", 0.6, lambda x: stephens_utp(x, 10)),
    ("stephens_cdf_small_v", 0.25, lambda x: stephens_cdf_small_v(x, 10)),
    ("ks_utp_asymptotic", 0.3, lambda x: ks_utp_asymptotic(x, 10)),
    ("normal_cdf", 0.3, normal_cdf),
]


def floats(result) -> list:
    """The float results of a call: the value itself, or the float fields
    of a named tuple or a dataclass."""
    if dataclasses.is_dataclass(result):
        result = dataclasses.astuple(result)
    if isinstance(result, tuple):
        return [value for value in result if isinstance(value, float)]
    return [result]


@pytest.mark.parametrize("x, call", [entry[1:] for entry in ENTRY_POINTS],
                         ids=[entry[0] for entry in ENTRY_POINTS])
def test_float32_argument_is_read_in_double_precision(x, call):
    single = np.float32(x)
    got = floats(call(single))
    want = floats(call(float(single)))
    assert [value.hex() for value in got] == [value.hex() for value in want]
    assert {type(value) for value in got} <= {float, Probability}
    assert [type(value) for value in got] == [type(value) for value in want]


def test_float32_array_is_read_in_double_precision():
    # each element gets the bits of its float, as the scalar path does
    x = np.array([[0.3, -1.7], [2.2, -0.05]], dtype=np.float32)
    got = normal_cdf(x)
    assert got.dtype == np.float64 and got.shape == x.shape
    assert [v.hex() for v in got.ravel().tolist()] == [
        normal_cdf(float(v)).hex() for v in x.ravel().tolist()]


@pytest.mark.parametrize("c", [True, np.False_], ids=["True", "np.False_"])
@pytest.mark.parametrize("call, name", [
    (lambda c: cdf_kn(c, 10, 5), "c"),
    (lambda c: cdf_vn(c, 10, 5), "v"),
    (lambda c: utp(c, 10, 5), "c"),
    (lambda c: utp(c, 10, 5, truncated=True), "c"),
    (lambda c: b_series(2, c), "c"),
    (lambda c: fun_aj(2, c, 10, 5), "c"),
    (lambda c: f_nlm(c, 0.05, 10, 5), "c"),
    (lambda c: f_ctm(c, 0.05, 10, 5), "c"),
], ids=["cdf_kn", "cdf_vn", "utp", "utp-truncated", "b_series", "fun_aj",
        "f_nlm", "f_ctm"])
def test_bool_statistic_raises(call, name, c):
    # the range check read True as 1 and returned a number
    with pytest.raises(ValueError) as err:
        call(c)
    assert str(err.value) == (f"statistic argument {name} must be a real "
                              f"number, not a bool, got {c!r}")
