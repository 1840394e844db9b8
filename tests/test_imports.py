"""Which entry points load numpy and scipy.

The package imports its standard-library modules eagerly and each solver
module on first use, so parsing, validating and enumerating load neither
numpy nor scipy, and direct search loads no scipy.  Every case runs in a
fresh interpreter, since this test process has loaded both already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import metabox as mb

SRC = str(Path(mb.__file__).resolve().parent.parent)
MLP = str(mb.bundled_problem_path("mlp"))
TOY = str(mb.bundled_problem_path("toy"))

# Printed last by every child: the numeric stacks it has loaded.
LOADED = """
import json as _json, sys as _sys
print(_json.dumps(sorted({m.partition(".")[0] for m in _sys.modules} & {"numpy", "scipy"})))
"""


def run_fresh(code, *args):
    """Run ``code`` (with ``args`` in ``sys.argv[1:]``) in a fresh interpreter
    that imports metabox from this checkout; the stacks it left loaded."""
    path = [SRC, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    proc = subprocess.run([sys.executable, "-c", code + LOADED, *args],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(path)})
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_parsing_the_bundled_problems_loads_neither_numpy_nor_scipy():
    code = """
import sys
import metabox
for path in sys.argv[1:]:
    metabox.parse_problem_file(path)
"""
    assert run_fresh(code, MLP, TOY) == set()


@pytest.mark.parametrize("command", ["validate", "enumerate"])
def test_validate_and_enumerate_load_neither_numpy_nor_scipy(command):
    code = """
import sys
from metabox.cli import cli_main
assert cli_main(sys.argv[1:]) == 0
"""
    assert run_fresh(code, command, MLP) == set()


def test_direct_search_loads_no_scipy():
    code = """
import sys
import metabox as mb
parsed = mb.parse_problem_file(sys.argv[1])
result = mb.run_direct_search(parsed.problem, mb.SearchConfig(budget=50, seed=0),
                              progress=False)
assert result.evaluator.budget.used == 50
"""
    assert "scipy" not in run_fresh(code, MLP)


def test_cli_direct_solve_loads_no_scipy(tmp_path):
    code = """
import sys
from metabox.cli import cli_main
assert cli_main(["solve", sys.argv[1], "--solver", "direct", "--budget", "50",
                 "--out", sys.argv[2], "--quiet"]) == 0
"""
    assert "scipy" not in run_fresh(code, MLP, str(tmp_path / "history.csv"))


def test_every_public_name_is_its_defining_modules_binding():
    code = """
import sys, types
import metabox
for name in metabox.__all__:
    value = getattr(metabox, name)
    if isinstance(value, types.ModuleType):
        assert value is sys.modules[f"metabox.{name}"], name
    else:
        assert getattr(sys.modules[value.__module__], name) is value, name
assert set(metabox.__all__) <= set(dir(metabox))
# Solver names are served, never bound, so each access reads the defining
# module's current binding.
assert "run_bo" not in vars(metabox) and "SearchConfig" not in vars(metabox)
"""
    assert run_fresh(code) == {"numpy", "scipy"}


def test_an_unknown_name_raises_attribute_error():
    code = """
import metabox
try:
    metabox.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc)
else:
    raise AssertionError("no AttributeError")
assert not hasattr(metabox, "MixedKernel")
"""
    assert run_fresh(code) == set()
