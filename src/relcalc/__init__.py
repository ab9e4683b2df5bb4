"""relcalc: a workbench for an application-only relational calculus.

Terms are applications of atoms; association carries no information,
so everything reduces to flat words.  On top of that sit six small
equational systems, a bidirectional proof search with a replay
checker, a free-reduction decider for the strongest system, a finite
model enumerator, and readings of relational sets and numerals.

Submodules load on first use.  ``import relcalc`` registers each one
in ``sys.modules`` through ``importlib.util.LazyLoader`` and binds it
here, but runs none: a submodule's code runs when one of its
attributes is first read.  Each name of ``__all__`` is read off its
home module by the module ``__getattr__`` on every access and is never
stored here, so a function replaced in its home module (as
``bench/tracing.py`` does) is what ``relcalc.<name>`` gives.  On
Python 3.11 a first load takes no lock, so two threads that touch a
submodule for the first time at once can see it half run: a threaded
caller should use relcalc once from one thread before starting others.
``cli`` is left out, as ``python -m relcalc.cli`` warns about a module
that the package has already put in ``sys.modules``.
"""

__version__ = "0.1.0"


def _register(name: str):
    """Put submodule `name` in sys.modules unrun; it runs on first use."""
    import importlib.util
    import sys

    spec = importlib.util.find_spec(f"{__name__}.{name}")
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    loader.exec_module(module)
    return module


# in import order, each bound here as an import would bind it
terms = _register("terms")
systems = _register("systems")
engine = _register("engine")
freegroup = _register("freegroup")
models = _register("models")
peano = _register("peano")
relsets = _register("relsets")
suites = _register("suites")


# public name -> the submodule that defines it, in the order of __all__
_HOMES = {
    **dict.fromkeys(("Atom", "Node", "ParseError", "Word", "flatten", "parse",
                     "parse_equation", "parse_word", "print_word"), terms),
    **dict.fromkeys(("Rule", "RuleSystem", "make_system", "ProofStep", "Proof"), systems),
    **dict.fromkeys(("apply_rule", "neighbors", "normalize", "SearchConfig", "NotFound",
                     "prove_equal", "CheckResult", "check_proof", "proof_to_dict",
                     "proof_to_json", "proof_from_dict", "check_proof_data"), engine),
    **dict.fromkeys(("free_reduce", "invert", "is_reduced", "equal_dgss",
                     "verify_dgss_lemmas"), freegroup),
    **dict.fromkeys(("Model", "ModelQuery", "Violation", "check_model", "iter_models",
                     "enumerate_models", "count_models", "find_min_model",
                     "format_model"), models),
    **dict.fromkeys(("UNDECIDED", "members", "is_member", "is_subset", "subset_report",
                     "is_function_rel", "russell_report"), relsets),
    **dict.fromkeys(("numeral", "succ", "eval_zero", "verify_peano",
                     "zero_contradiction_demo"), peano),
    **dict.fromkeys(("SuiteReport", "run_suite"), suites),
}

__all__ = [*_HOMES, "__version__"]


def __getattr__(name: str):
    try:
        home = _HOMES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(home, name)


def __dir__():
    return sorted({*globals(), *_HOMES})
