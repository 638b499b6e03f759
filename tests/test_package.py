"""The names the package itself exports."""

import types

import kuiper_hoe

QUICK_START = {"SampleSet", "kuiper_test", "kuiper_utq", "kuiper_pair_solver",
               "cdf_vn", "normal_cdf"}
HARNESS = {"Probability", "SimConfig", "EdfScheme", "simulate_type1", "utp"}


def test_exports_only_the_quick_start_and_harness_names():
    public = {name for name, value in vars(kuiper_hoe).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert public == QUICK_START | HARNESS
