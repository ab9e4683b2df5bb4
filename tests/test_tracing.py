"""The benchmark tracer (`bench/tracing.py`) wraps relcalc functions by
name, and only `bench/run.py --trace 1` runs it; these tests make a
renamed or removed function fail here instead."""

from __future__ import annotations

import importlib
import inspect
import json
import pathlib
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
