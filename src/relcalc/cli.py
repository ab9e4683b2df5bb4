"""Command line front end.

Exit codes: 0 success/proved, 2 a well-posed question answered "no"
(proof not found, check rejected, suite failed), 1 usage or input
errors.  All output is line-oriented and deterministic for a fixed
invocation.
"""

from __future__ import annotations

import argparse
import json
import sys

# Handlers call other modules' functions through the module, so only the
# models and peano commands run those two (submodules run on first use);
# building the parser runs systems, suites and engine.
from . import engine, models, peano, suites, terms
from .engine import NotFound, SearchConfig
from .suites import SUITE_IDS
from .systems import SYSTEMS, system_id
from .terms import ParseError


class _Parser(argparse.ArgumentParser):
    # the exit-code contract wants 1 for usage errors, argparse uses 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


class _Ids(tuple):
    """Choices that admit an id in any case and with surrounding blanks.
    argparse keeps the value as typed, so an unknown id is echoed as
    typed; make_system and run_suite normalise a known one."""

    def __contains__(self, value):
        return tuple.__contains__(self, system_id(value))


def _build_parser() -> _Parser:
    p = _Parser(prog="relcalc", description="relational calculus workbench")
    sub = p.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("parse", help="flatten a term to a word")
    sp.add_argument("expr")

    sp = sub.add_parser("prove", help="search for an equational proof")
    sp.add_argument("--system", required=True, choices=_Ids(SYSTEMS))
    sp.add_argument("--hyp", action="append", default=[], metavar="EQ",
                    help="ground hypothesis equation, repeatable")
    sp.add_argument("--max-depth", type=int, default=SearchConfig.max_depth)
    sp.add_argument("--max-len", type=int, default=SearchConfig.max_word_len)
    sp.add_argument("--max-nodes", type=int, default=SearchConfig.max_nodes)
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.add_argument("equation")

    sp = sub.add_parser("check", help="verify a proof script")
    sp.add_argument("file")

    sp = sub.add_parser("suite", help="run a derivation suite")
    sp.add_argument("suite_id", choices=_Ids(SUITE_IDS))

    sp = sub.add_parser("models", help="enumerate finite models")
    sp.add_argument("--system", required=True, choices=_Ids(SYSTEMS))
    sp.add_argument("--size", required=True, type=int)
    sp.add_argument("--count-only", action="store_true")
    sp.add_argument("--limit", type=int, default=None)

    sp = sub.add_parser("peano", help="numeral tools")
    psub = sp.add_subparsers(dest="peano_cmd", required=True)
    pe = psub.add_parser("eval", help="evaluate away zero marks")
    pe.add_argument("expr")
    pv = psub.add_parser("verify", help="run the five numeral checks")
    pv.add_argument("--max", type=int, default=64)
    psub.add_parser("zero-demo", help="why 0 is not a numeral")

    return p


def _cmd_parse(args) -> int:
    print(terms.print_word(terms.parse_word(args.expr)))
    return 0


def _cmd_prove(args) -> int:
    goal = terms.parse_equation(args.equation)
    hyps = tuple(terms.parse_equation(t) for t in args.hyp)
    config = SearchConfig(max_word_len=args.max_len, max_nodes=args.max_nodes,
                          max_depth=args.max_depth)
    res = engine.prove_equal(goal, args.system, hyps, config)
    if isinstance(res, NotFound):
        bound = res.bound_hit or "none (reachable words exhausted)"
        print("no proof found within bounds", file=sys.stderr)
        print(f"nodes expanded: {res.nodes_expanded}", file=sys.stderr)
        print(f"bound hit: {bound}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(engine.proof_to_json(res))
        return 0
    print(f"system: {res.system.name}")
    for i, (l, r) in enumerate(res.hypotheses, start=1):
        print(f"hyp{i}: {terms.print_word(l)} = {terms.print_word(r)}")
    print(f"goal: {terms.print_word(goal[0])} = {terms.print_word(goal[1])}")
    print(f"proved in {len(res.steps)} steps ({res.nodes_expanded} nodes expanded)")
    print(f"  {terms.print_word(goal[0])}")
    for st in res.steps:
        print(f"  = {st.result}   [{st.rule} {st.dir} @{st.pos}]")
    return 0


def _cmd_check(args) -> int:
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        print(f"cannot read {args.file}: {exc}", file=sys.stderr)
        return 1
    # RecursionError: nested too deeply; UnicodeDecodeError: bytes that are not UTF-8
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        print(f"not valid JSON: {exc}", file=sys.stderr)
        return 1
    result = engine.check_proof_data(data)
    if result.ok:
        print("ok")
        return 0
    where = "" if result.failed_step is None else f" at step {result.failed_step}"
    print(f"rejected{where}: {result.reason}")
    return 2


def _cmd_suite(args) -> int:
    report = suites.run_suite(args.suite_id)
    for line in report.lines():
        print(line)
    return 0 if report.ok else 2


def _cmd_models(args) -> int:
    q = models.ModelQuery(args.system, args.size, limit=args.limit)
    if args.count_only:
        count = models.count_models(q.system, q.size)
        print(count if q.limit is None else min(count, q.limit))
        return 0
    for i, m in enumerate(models.iter_models(q)):
        if i:
            print()
        print(models.format_model(m))
    return 0


def _cmd_peano(args) -> int:
    if args.peano_cmd == "eval":
        w = peano.eval_zero(terms.parse_word(args.expr))
        print(terms.print_word(w))
        num = peano.as_numeral(w)
        if num is not None:
            print(f"= {num}")
        return 0
    if args.peano_cmd == "verify":
        report = peano.verify_peano(args.max)
        for line in report.lines():
            print(line)
        return 0 if report.all_passed else 2
    for line in peano.zero_contradiction_demo():
        print(line)
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {
        "parse": _cmd_parse,
        "prove": _cmd_prove,
        "check": _cmd_check,
        "suite": _cmd_suite,
        "models": _cmd_models,
        "peano": _cmd_peano,
    }[args.cmd]
    try:
        return handler(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
