"""The names the package itself exports, what importing it loads, and the
README's Python example."""

import json
import os
import re
import subprocess
import sys
import types

import pytest

import kuiper_hoe

QUICK_START = {"SampleSet", "kuiper_test", "kuiper_utq", "kuiper_pair_solver",
               "cdf_vn", "normal_cdf"}
HARNESS = {"Probability", "SimConfig", "EdfScheme", "simulate_type1", "utp"}


def test_exports_only_the_quick_start_and_harness_names():
    # dir(), not vars(): the names that need NumPy are served on first access
    public = {name for name in dir(kuiper_hoe)
              if not name.startswith("_")
              and not isinstance(getattr(kuiper_hoe, name), types.ModuleType)}
    assert public == QUICK_START | HARNESS


def test_star_import_gives_the_exported_names():
    namespace = {}
    exec("from kuiper_hoe import *", namespace)
    assert set(namespace) - {"__builtins__"} == QUICK_START | HARNESS


def run_child(code: str, *args: str, stdin: str | None = None) -> str:
    """stdout of ``python -c code *args``, this package's source first on
    the path."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(kuiper_hoe.__file__)))
    return subprocess.run([sys.executable, "-c", code, *args], input=stdin,
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, check=True).stdout


# Prints, as JSON, whether NumPy was loaded before the first access of the
# submodule sys.argv[1], and whether the access gave its sys.modules entry.
SUBMODULE_CHILD = """
import json, sys
import kuiper_hoe
before = "numpy" in sys.modules
module = getattr(kuiper_hoe, sys.argv[1])
print(json.dumps([before, module is sys.modules["kuiper_hoe." + sys.argv[1]]]))
"""


@pytest.mark.parametrize("name", ["gof", "montecarlo", "baselines"])
def test_submodules_resolve(name):
    # a fresh process: in this one, earlier imports have set the attribute,
    # and the package's __getattr__ would never be asked
    assert json.loads(run_child(SUBMODULE_CHILD, name)) == [False, True]


def test_lazy_name_imports_from_its_module():
    from kuiper_hoe import SampleSet
    from kuiper_hoe.gof import SampleSet as defined
    assert SampleSet is defined


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        kuiper_hoe.no_such_name
    assert not hasattr(kuiper_hoe, "no_such_name")


NUMPY_FREE_COMMANDS = [
    ["pair", "--alpha", "0.05", "--n", "10", "--k", "5"],
    ["utq", "--alpha", "0.05", "--n", "10", "--k", "3"],
    ["ltq", "--alpha", "0.05", "--n", "10"],
    ["invcdf", "--x", "0.5", "--n", "10"],
    ["cdf", "--v", "0.5", "--n", "10"],
    ["table", "--alpha", "0.05"],
]

# Runs each argv of sys.argv[1] through cli.main in one process and prints,
# as JSON, whether NumPy was loaded after the import and after each call.
CHILD = """
import contextlib, io, json, sys
import kuiper_hoe, kuiper_hoe.cli
seen = [[None, "numpy" in sys.modules]]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        seen.append([kuiper_hoe.cli.main(argv), "numpy" in sys.modules])
print(json.dumps(seen))
"""


def test_scalar_commands_never_import_numpy(tmp_path):
    sample = tmp_path / "sample.txt"
    sample.write_text("".join(f"{(t - 0.5) / 20!r}\n" for t in range(1, 21)))
    argvs = NUMPY_FREE_COMMANDS + [
        ["test", "--file", str(sample), "--dist", "uniform(0,1)"],
        ["simulate", "--n", "10", "--k", "1", "--nrep", "50"],
    ]
    seen = json.loads(run_child(CHILD, json.dumps(argvs)))
    assert seen[:len(NUMPY_FREE_COMMANDS) + 1] == \
        [[None, False]] + [[0, False]] * len(NUMPY_FREE_COMMANDS)
    # test and simulate still run, and they are what loads NumPy
    assert seen[len(NUMPY_FREE_COMMANDS) + 1:] == [[0, True], [0, True]]


README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "README.md")

# Runs the code on stdin, then prints the values the README's comments state.
README_CHILD = """
import json, sys
namespace = {}
exec(sys.stdin.read(), namespace)
print(json.dumps([namespace["pair"].c, namespace["pair"].v, namespace["v_crit"]]))
"""


def test_readme_python_example_runs():
    with open(README, encoding="utf-8") as fh:
        blocks = re.findall(r"^```python\n(.*?)^```$", fh.read(), re.M | re.S)
    assert len(blocks) == 1
    out = run_child(README_CHILD, stdin=blocks[0])
    c, v, v_crit = json.loads(out.splitlines()[-1])
    assert (round(c, 4), round(v, 4), round(v_crit, 4)) == (1.6630, 0.5259, 0.5259)
