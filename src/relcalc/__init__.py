"""relcalc: a workbench for an application-only relational calculus.

Terms are applications of atoms; association carries no information,
so everything reduces to flat words.  On top of that sit six small
equational systems, a bidirectional proof search with a replay
checker, a free-reduction decider for the strongest system, a finite
model enumerator, and readings of relational sets and numerals.

Submodules load on first use.  ``import relcalc`` registers each one
in ``sys.modules`` through ``importlib.util.LazyLoader`` and binds it
here, but runs none: a submodule's code runs when one of its
attributes is first read.  Each name of ``__all__`` is an alias of
that name in its home module: ``relcalc.<name>`` reads, writes and
deletes it there and nothing is stored here, so a function replaced in
its home module (as ``bench/tracing.py`` does) is what
``relcalc.<name>`` gives, and one replaced through ``relcalc`` (as
``unittest.mock.patch("relcalc.<name>")`` does) is replaced at home.
On Python 3.11 a first load takes no lock, so two threads that touch a
submodule for the first time at once can see it half run: a threaded
caller should use relcalc once from one thread before starting others.
``cli`` is left out, as ``python -m relcalc.cli`` warns about a module
that the package has already put in ``sys.modules``.
"""

__version__ = "0.1.0"


def _register(name: str):
    """Put submodule `name` in sys.modules unrun, and bind it here as an
    import would; it runs on first use."""
    import importlib.util
    import sys

    spec = importlib.util.find_spec(f"{__name__}.{name}")
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = globals()[name] = module
    loader.exec_module(module)
    return module


# submodule -> the public names it defines, in the order of __all__; each
# submodule is registered in this order
_HOMES = {name: home for sub, names in {
    "terms": ("Atom", "Node", "ParseError", "Word", "flatten", "parse", "parse_equation",
              "parse_word", "print_word"),
    "systems": ("Rule", "RuleSystem", "make_system", "ProofStep", "Proof"),
    "engine": ("apply_rule", "neighbors", "normalize", "SearchConfig", "NotFound",
               "prove_equal", "CheckResult", "check_proof", "proof_to_dict", "proof_to_json",
               "proof_from_dict", "check_proof_data"),
    "freegroup": ("free_reduce", "invert", "is_reduced", "equal_dgss", "verify_dgss_lemmas"),
    "models": ("Model", "ModelQuery", "Violation", "check_model", "iter_models",
               "enumerate_models", "count_models", "find_min_model", "format_model"),
    "relsets": ("UNDECIDED", "members", "is_member", "is_subset", "subset_report",
                "is_function_rel", "russell_report"),
    "peano": ("numeral", "succ", "eval_zero", "verify_peano", "zero_contradiction_demo"),
    "suites": ("SuiteReport", "run_suite"),
}.items() for home in [_register(sub)] for name in names}

__all__ = [*_HOMES, "__version__"]


def _alias_each_name():
    """Give the package a class with one property per public name, which
    reads, writes and deletes that name in its home module, so that no
    name is ever stored here."""
    import sys
    import types

    def alias(home, name):
        return property(lambda _: getattr(home, name), lambda _, value: setattr(home, name, value),
                        lambda _: delattr(home, name))

    sys.modules[__name__].__class__ = type(__name__, (types.ModuleType,), {
        **{name: alias(home, name) for name, home in _HOMES.items()},
        "__dir__": lambda self: sorted({*vars(self), *_HOMES})})


_alias_each_name()
