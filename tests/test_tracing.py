"""The benchmark tracer (`bench/tracing.py`) wraps relcalc functions by
name, and only `bench/run.py --trace 1` runs it; these tests make a
renamed or removed function fail here instead."""

from __future__ import annotations

import importlib
import inspect
import json
import os
import pathlib
import subprocess
import sys

import pytest

import relcalc

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("tracing")


def _targets(tracing):
    """Each traced (layer, name) with what its home module binds now."""
    return {(layer, name): getattr(getattr(relcalc, layer), name, None)
            for layer, names in tracing.TARGETS.items() for name in names}


def test_every_traced_name_is_a_function_of_its_module(tracing):
    assert [k for k, f in _targets(tracing).items() if not inspect.isfunction(f)] == []


def test_install_then_uninstall_restores_every_original(tracing):
    modules = [m for name, m in sys.modules.items()
               if name == "relcalc" or name.startswith("relcalc.")]
    before = [(m, dict(vars(m))) for m in modules]
    inits = [(cls, cls.__post_init__) for cls in (relcalc.Word, relcalc.Atom)]
    originals = _targets(tracing)
    tracer = tracing.Tracer()
    tracer.install()
    try:    # every target is wrapped in its home module, and so are both counters
        assert [k for k, f in _targets(tracing).items() if f is originals[k]] == []
        assert [cls for cls, init in inits if cls.__post_init__ is init] == []
    finally:
        tracer.uninstall()
    for m, attrs in before:
        assert [k for k, v in attrs.items() if vars(m).get(k) is not v] == []
    assert [cls for cls, init in inits if cls.__post_init__ is not init] == []


def test_a_script_round_trip_is_seen_by_each_layer_it_crosses(tracing):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.active = True
        proof = relcalc.prove_equal(relcalc.parse_equation("z y y = y"), "dit")
        script = json.loads(json.dumps(relcalc.proof_to_dict(proof)))
        assert relcalc.check_proof_data(script).ok
    finally:
        tracer.active = False
        tracer.uninstall()
    metrics, _ = tracer.metrics(1)
    names = ("engine.script_s", "engine.check_s", "terms.atoms_built")
    assert [name for name in names if not metrics[name][0] > 0] == []
    assert metrics["engine.check_steps"][0] == 2


# Run in a fresh interpreter that imports only relcalc and the tracer, so
# no submodule has run before `install`.  Prints the unwrapped targets, the
# package names that do not give the wrapper, the calls counted for two
# traced calls, and after `uninstall` every binding still wrapped and every
# target whose home binding is not its original.
_FRESH_INSTALL = """
import json, sys
import relcalc, tracing

def bindings():
    return [(name, attr, value) for name, mod in sorted(sys.modules.items())
            if name.startswith("relcalc") for attr, value in vars(mod).items()
            if getattr(value, "__module__", None) == "tracing"]

tracer = tracing.Tracer()
tracer.install()
homes = {(layer, name): getattr(getattr(relcalc, layer), name)
         for layer, names in tracing.TARGETS.items() for name in names}
print(json.dumps([k for k, f in homes.items() if f.__module__ != "tracing"]))
print(json.dumps([name for (_, name), f in homes.items()
                  if name in relcalc.__all__ and getattr(relcalc, name) is not f]))
tracer.active = True
relcalc.equal_dgss(relcalc.parse_word("a b"), relcalc.parse_word("a e b"))
tracer.active = False
print(json.dumps([tracer.calls["terms.parse_word"], tracer.calls["freegroup.equal_dgss"]]))
wrapped = len(bindings())
tracer.uninstall()
print(json.dumps([wrapped, [f"{name}.{attr}" for name, attr, _ in bindings()]]))
print(json.dumps([k for k in homes
                  if getattr(getattr(relcalc, k[0]), k[1]).__module__ != f"relcalc.{k[0]}"]))
"""


def test_install_in_a_fresh_interpreter_wraps_every_target(tracing):
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(pathlib.Path(relcalc.__file__).parents[1]),
                                         str(BENCH)])}
    done = subprocess.run([sys.executable, "-W", "error", "-c", _FRESH_INSTALL], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    unwrapped, unseen, calls, (wrapped, left), restored = map(json.loads,
                                                             done.stdout.splitlines())
    assert unwrapped == [] and unseen == []
    assert calls == [2, 1]
    # every target's home binding and no other, as no module imports one by name
    assert wrapped == sum(map(len, tracing.TARGETS.values()))
    assert left == [] and restored == []
