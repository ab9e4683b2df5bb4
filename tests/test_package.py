from __future__ import annotations

import ast
import inspect
import json
import os
import subprocess
import sys
import types
from pathlib import Path
from unittest import mock

import pytest

import relcalc
from relcalc import Atom, Model, Word
from relcalc.systems import AX6

SRC = Path(relcalc.__file__).resolve().parents[1]
SUBMODULES = {"terms", "systems", "engine", "freegroup", "models", "peano", "relsets",
              "suites"}

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


def test_a_patch_through_the_package_writes_through_and_leaves_nothing(monkeypatch):
    original = relcalc.engine.prove_equal

    def fake(*args, **kwargs):
        return relcalc.NotFound(0, None)

    monkeypatch.setattr(relcalc, "prove_equal", fake)
    assert relcalc.engine.prove_equal is fake   # written in the home module
    monkeypatch.undo()
    assert "prove_equal" not in vars(relcalc)
    assert relcalc.engine.prove_equal is original
    # so the package goes on following its home module
    monkeypatch.setattr(relcalc.engine, "prove_equal", fake)
    assert relcalc.prove_equal is fake
    monkeypatch.undo()
    assert relcalc.prove_equal is original


def test_a_mock_patch_round_trip_restores_the_original():
    original = relcalc.prove_equal
    with mock.patch("relcalc.prove_equal") as fake:
        assert relcalc.prove_equal is relcalc.engine.prove_equal is fake
    # patch deletes the name on exit, then sets the original back
    assert relcalc.prove_equal is relcalc.engine.prove_equal is original
    assert "prove_equal" not in vars(relcalc)


def test_a_module_first_run_during_a_patch_keeps_no_fake():
    # suites first runs inside the patch; the restored search proves again
    out = _fresh("""
import relcalc
original = relcalc.prove_equal
relcalc.prove_equal = lambda *args: relcalc.NotFound(0, None)
print(relcalc.run_suite("dits").summary())
relcalc.prove_equal = original
print(relcalc.run_suite("dits").summary())
""")
    assert out.splitlines() == ["0/3 proved", "3/3 proved"]


def test_a_decider_patched_around_first_reads_is_restored_for_sets_and_numerals():
    out = _fresh("""
import relcalc
from relcalc import Atom, parse_word
original, calls = relcalc.equal_dgss, []
relcalc.equal_dgss = lambda u, v: calls.append((u, v)) or "FAKE"
relcalc.is_member, relcalc.verify_peano
relcalc.equal_dgss = original
print(relcalc.is_member(Atom("e"), parse_word("a")), relcalc.is_member(Atom("q"), parse_word("x")))
print(relcalc.verify_peano(2).all_passed, len(calls))
""")
    # e is the identity of dgss, so e a = a; q x = x does not hold
    assert out.splitlines() == ["True False", "True 0"]


def test_no_module_imports_an_exported_function_by_name():
    # a name bound when its module first runs keeps whatever was patched in
    # then, so another module's exported function is called through its module
    functions = {name for name, home in relcalc._HOMES.items()
                 if isinstance(getattr(home, name), types.FunctionType)}
    assert {"prove_equal", "equal_dgss", "make_system", "print_word"} <= functions
    by_name = [(path.name, node.lineno, alias.name)
               for path in sorted((SRC / "relcalc").glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.ImportFrom)
               and (node.level or (node.module or "").startswith("relcalc"))
               for alias in node.names if alias.name in functions]
    assert by_name == []


# Runs the bench oracle tests with each class's methods in reverse order.
_REVERSED = """
import sys, unittest
loader = unittest.TestLoader()
loader.sortTestMethodsUsing = lambda a, b: (a < b) - (a > b)
result = unittest.TextTestRunner().run(loader.discover("bench", pattern="test_*.py"))
sys.exit(not result.wasSuccessful())
"""


@pytest.mark.parametrize("args", [["-m", "unittest", "discover", "-s", "bench",
                                   "-p", "test_*.py"], ["-c", _REVERSED]],
                         ids=["default", "reversed"])
def test_the_bench_oracle_tests_pass_in_either_method_order(args):
    # a fresh process, so no earlier test has run a module the oracles patch
    done = subprocess.run([sys.executable, *args], cwd=SRC.parent, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stderr.rstrip().endswith("OK")


def test_each_class_and_function_is_mapped_to_the_module_that_defines_it():
    # a name mapped to a module that only imports it would run that module too
    stray = [(name, home.__name__) for name, home in relcalc._HOMES.items()
             if isinstance(obj := getattr(home, name), (type, types.FunctionType))
             and obj.__module__ != home.__name__]
    assert stray == []


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
    # an `Atom | int` argument of a reader of a model `m` is an element of m,
    # which element_of looks up; is_member's `q` is checked before any universe
    in_m = params[i].annotation == "Atom | int" and any(p.name == "m" for p in params)
    expected = LookupError if in_m else ValueError
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
    assert set(json.loads(ran)) == {"cli", "engine", "suites", "systems", "terms"}


def test_counting_models_runs_no_search_code():
    out = _fresh("import relcalc\nrelcalc.count_models('dgs', 3)" + _RAN)
    assert json.loads(out) == ["models", "systems", "terms"]


def test_a_first_use_runs_only_that_module_and_its_imports():
    out = _fresh("import relcalc\nrelcalc.equal_dgss" + _RAN)
    assert json.loads(out) == ["freegroup", "terms"]


# the proof checker and the script functions around it, in engine.py
_CHECKER = {"apply_rule", "check_proof", "proof_to_dict", "proof_to_json", "_equation",
            "proof_from_dict", "check_proof_data"}
# the search side of engine.py: its core, its helpers and its entry points
_SEARCH = {"_Core", "_growth", "_reducers", "_walk", "_join", "_invert_chain", "neighbors",
           "normalize", "prove_equal", "SearchConfig", "NotFound",
           "_SPAN", "_DROP", "_INSERT", "_PAIRS"}


def _sibling_imports(module: str) -> set[str]:
    """The relcalc modules that `module`'s source imports."""
    tree = ast.parse((SRC / "relcalc" / f"{module}.py").read_text(encoding="utf-8"))
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            out |= {node.module} if node.module else {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("relcalc"):
            out.add(node.module)
        elif isinstance(node, ast.Import):
            out |= {a.name for a in node.names if a.name.startswith("relcalc")}
    return {name.removeprefix("relcalc.").partition(".")[0] for name in out}


def test_the_system_table_and_the_models_load_no_search_or_decider():
    assert _sibling_imports("systems") == {"terms"}
    assert _sibling_imports("models") & {"engine", "freegroup"} == set()


def test_the_checker_names_nothing_from_the_search():
    tree = ast.parse((SRC / "relcalc" / "engine.py").read_text(encoding="utf-8"))
    defs = {node.name: node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert _CHECKER <= defs.keys()
    # the checker's functions and every module-level def they reach
    reached, todo = set(), list(_CHECKER)
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        if name in defs:
            todo += [n.id for n in ast.walk(defs[name]) if isinstance(n, ast.Name)]
    assert reached & _SEARCH == set()
