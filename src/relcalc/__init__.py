"""relcalc: a workbench for an application-only relational calculus.

Terms are applications of atoms; association carries no information,
so everything reduces to flat words.  On top of that sit six small
equational systems, a bidirectional proof search with a replay
checker, a free-reduction decider for the strongest system, a finite
model enumerator, and readings of relational sets and numerals.
"""

from .engine import (CheckResult, NotFound, Proof, ProofStep, Rule,
                     RuleSystem, SearchConfig, apply_rule, check_proof,
                     check_proof_data, make_system, neighbors, normalize,
                     proof_from_dict, proof_to_dict, proof_to_json,
                     prove_equal, reverse_proof)
from .freegroup import equal_dgss, free_reduce, invert, is_reduced, verify_dgss_lemmas
from .models import (Model, ModelQuery, Violation, check_model, count_models,
                     enumerate_models, find_min_model, format_model, iter_models)
from .peano import (eval_zero, numeral, succ, verify_peano,
                    zero_contradiction_demo)
from .relsets import (UNDECIDED, is_function_rel, is_member, is_subset,
                      members, russell_report, subset_report)
from .suites import SuiteReport, run_suite
from .terms import (Atom, Node, ParseError, Word, flatten, parse,
                    parse_equation, parse_word, print_word)

__version__ = "0.1.0"

__all__ = [
    "Atom", "Node", "ParseError", "Word", "flatten", "parse",
    "parse_equation", "parse_word", "print_word",
    "Rule", "RuleSystem", "make_system", "apply_rule", "neighbors",
    "normalize", "ProofStep", "Proof", "SearchConfig", "NotFound",
    "prove_equal", "reverse_proof", "CheckResult", "check_proof",
    "proof_to_dict", "proof_to_json", "proof_from_dict", "check_proof_data",
    "free_reduce", "invert", "is_reduced", "equal_dgss", "verify_dgss_lemmas",
    "Model", "ModelQuery", "Violation", "check_model", "iter_models",
    "enumerate_models", "count_models", "find_min_model", "format_model",
    "UNDECIDED", "members", "is_member", "is_subset", "subset_report",
    "is_function_rel", "russell_report",
    "numeral", "succ", "eval_zero", "verify_peano",
    "zero_contradiction_demo",
    "SuiteReport", "run_suite",
    "__version__",
]
