from __future__ import annotations

import inspect
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import relcalc
from relcalc import Atom, Model, Word
from relcalc.engine import AX6

SRC = Path(relcalc.__file__).resolve().parents[1]
SUBMODULES = {"terms", "engine", "freegroup", "models", "peano", "relsets", "suites"}

# Prints the relcalc submodules that have run, read through type(), which
# a lazy module does not answer by loading itself.
_RAN = """
import json, sys, types
print(json.dumps(sorted(name.rpartition(".")[2] for name, m in sys.modules.items()
                        if name.startswith("relcalc.") and type(m) is types.ModuleType)))
"""


def _fresh(code: str) -> str:
    """The standard output of `code` run in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-W", "error", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_all_lists_every_public_name_once():
    # every public name of the package that is not a submodule, and only those
    names = relcalc.__all__
    assert len(names) == len(set(names))
    public = {name for name in dir(relcalc)
              if not name.startswith("_")
              and not isinstance(getattr(relcalc, name), types.ModuleType)}
    assert set(names) == public | {"__version__"}
    assert "members" in names
    assert "RelSet" not in names and "Numeral" not in names


def test_each_name_is_read_off_its_home_module_on_every_access():
    for name, home in relcalc._HOMES.items():
        assert home is getattr(relcalc, home.__name__.rpartition(".")[2])
        assert getattr(relcalc, name) is getattr(home, name)
        assert name not in vars(relcalc)   # nothing is cached in the package


_W = Word((Atom("x"),))
# a value each required parameter of the public API accepts, by its name
_GOOD = {"name": "S", "rules": (), "roles": ("x",), "w": _W, "rule": AX6, "pos": 0,
         "system": "dit", "goal": (_W, _W), "u": _W, "v": _W, "samples": 1, "seed": 0,
         "size": 1, "table": ((0,),), "designated": {}, "m": Model(1, ((0,),), {}),
         "n": 1, "n_max": 1, "q": Atom("0"), "x": _W, "b": 0, "a": 0, "f": 0}
# plain records: they hold what they are given and check nothing
_RECORDS = {"Node", "ProofStep", "Proof", "NotFound", "CheckResult", "Violation",
            "SuiteReport"}


def _boundaries():
    for name in relcalc.__all__:
        call = getattr(relcalc, name)
        if name in _RECORDS or not callable(call) \
                or isinstance(call, type) and issubclass(call, Exception):
            continue
        params = [p for p in inspect.signature(call).parameters.values()
                  if p.kind is p.POSITIONAL_OR_KEYWORD and p.default is p.empty]
        for i, p in enumerate(params):
            yield pytest.param(call, params, i, id=f"{name}-{p.name}")


@pytest.mark.parametrize("call, params, i", _boundaries())
def test_each_boundary_refuses_a_wrongly_typed_argument(call, params, i):
    args = [object() if j == i else _GOOD[p.name] for j, p in enumerate(params)]
    # an `Atom | int` argument is a model element, which element_of looks up
    expected = LookupError if params[i].annotation == "Atom | int" else ValueError
    with pytest.raises(expected):
        call(*args)


def test_import_registers_every_submodule_and_runs_none():
    out = _fresh("import relcalc, sys" + _RAN + """
print(json.dumps(sorted(name.rpartition(".")[2] for name in sys.modules
                        if name.startswith("relcalc."))))
print(json.dumps(sorted(k for k, v in vars(relcalc).items()
                        if isinstance(v, types.ModuleType))))
""")
    ran, registered, bound = map(json.loads, out.splitlines())
    assert ran == []
    assert set(registered) == set(bound) == SUBMODULES


def test_parse_runs_no_model_numeral_decider_or_set_code():
    out = _fresh("from relcalc.cli import main\nmain(['parse', 'x (y z)'])" + _RAN)
    printed, ran = out.splitlines()
    assert printed == "x y z"
    assert set(json.loads(ran)) == {"cli", "engine", "suites", "terms"}


def test_a_first_use_runs_only_that_module_and_its_imports():
    out = _fresh("import relcalc\nrelcalc.equal_dgss" + _RAN)
    assert json.loads(out) == ["freegroup", "terms"]
