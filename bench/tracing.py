"""Per-layer tracing from outside the package.

``Tracer.install`` replaces public functions of ``relcalc`` with timing
wrappers in every module that binds them, so calls between modules
(``suites`` calling ``prove_equal``) and inside one (``prove_equal``
calling ``neighbors``) are both seen.  Each call is timed; its self time
is its duration minus the time of the wrapped calls it made.  The
``Word`` and ``Atom`` constructors are counted, not timed.

Spans (name, start, end, parent span, job id) are kept in memory for
every wrapped call except the hot leaves in ``AGGREGATED``, which run
tens of thousands of times a pass and are only summed; ``write`` saves
the spans when the run ends.  ``uninstall`` puts the originals back.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

import relcalc

# layer -> public functions wrapped in it
TARGETS = {
    "terms": ("parse", "parse_word", "parse_equation", "flatten"),
    "engine": ("apply_rule", "neighbors", "normalize", "prove_equal", "check_proof",
               "check_proof_data", "proof_to_dict", "proof_from_dict"),
    "freegroup": ("free_reduce", "invert", "equal_dgss", "verify_dgss_lemmas"),
    "models": ("enumerate_models", "check_model"),
    "suites": ("run_suite",),
}
AGGREGATED = {"engine.apply_rule", "freegroup.free_reduce", "freegroup.invert",
              "freegroup.equal_dgss", "models.check_model", "terms.flatten", "terms.parse"}
_PARSE = {"terms.parse", "terms.parse_word", "terms.parse_equation", "terms.flatten"}
_VIOLATION_KINDS = ("assoc", "identity", "inverse", "equation", "distinct")


class _Frame:
    __slots__ = ("span", "child", "replay", "enumerating", "parsing")

    def __init__(self, name, span, parent):
        self.span = span if span is not None else (parent.span if parent else None)
        self.child = 0.0
        self.replay = name == "engine.check_proof" or bool(parent and parent.replay)
        self.enumerating = name == "models.enumerate_models" or bool(parent and parent.enumerating)
        self.parsing = name in _PARSE or bool(parent and parent.parsing)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.count = defaultdict(int)
        self.job_id = None
        self.active = False  # True only while a traced job runs
        self._stack: list[_Frame] = []
        self._patched: list[tuple] = []

    # -- installation ------------------------------------------------------

    def install(self):
        modules = [mod for name, mod in list(sys.modules.items())
                   if name == "relcalc" or name.startswith("relcalc.")]
        for layer, names in TARGETS.items():
            home = getattr(relcalc, layer)
            for fn_name in names:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{layer}.{fn_name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patched.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
        for cls, key in ((relcalc.Word, "terms.words_built"), (relcalc.Atom, "terms.atoms_built")):
            original = cls.__post_init__
            self._patched.append((cls, "__post_init__", original))
            setattr(cls, "__post_init__", self._counting(key, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _counting(self, key, original):
        count = self.count

        def post_init(obj):
            if self.active:
                count[key] += 1
            original(obj)
        return post_init

    def _wrap(self, name, fn):
        stack, spans = self._stack, self.spans
        keep = name not in AGGREGATED
        split = name == "engine.apply_rule"  # most calls raise NoMatch
        observe = getattr(self, "_on_" + name.replace(".", "_"), None)

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            span_id = None
            if keep:
                span_id = len(spans)
                spans.append(None)
            frame = _Frame(name, span_id, parent)
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                dur = t1 - t0
                if parent is not None:
                    parent.child += dur
                self.calls[name] += 1
                self.total[name] += dur
                self.self_time[name] += dur - frame.child
                if split:
                    side = "replay" if frame.replay else "search"
                    self.count[f"{name}_calls.{side}"] += 1
                    self.total[f"{name}.{side}"] += dur
                if keep:
                    spans[span_id] = (name, t0, t1, parent.span if parent else None, self.job_id)
            if observe is not None:
                observe(frame, dur, args, result)
            return result
        return wrapper

    def job_span(self, job_id, t0, t1):
        self.spans.append(("job", t0, t1, None, job_id))

    # -- counts from arguments and results ---------------------------------

    def _on_engine_neighbors(self, frame, dur, args, result):
        self.count["engine.neighbors_out"] += len(result)

    def _on_engine_normalize(self, frame, dur, args, result):
        self.count["engine.normalize_steps"] += len(result[1])

    def _on_engine_prove_equal(self, frame, dur, args, result):
        self.count["engine.nodes_expanded"] += result.nodes_expanded
        if isinstance(result, relcalc.NotFound):
            self.count[f"engine.notfound_{result.bound_hit or 'exhausted'}"] += 1
        elif result.nodes_expanded == 0 and result.goal[0] != result.goal[1]:
            self.count["engine.settled_by_normalize"] += 1

    def _on_engine_check_proof(self, frame, dur, args, result):
        self.count["engine.check_steps"] += len(args[0].steps)

    def _on_freegroup_free_reduce(self, frame, dur, args, result):
        self.count["freegroup.reduce_atoms"] += len(args[0])

    def _on_models_check_model(self, frame, dur, args, result):
        if not frame.enumerating:
            return
        self.count["models.leaves"] += 1
        for kind in {v.kind for v in result}:
            self.count[f"models.rejected.{kind}"] += 1

    def _on_models_enumerate_models(self, frame, dur, args, result):
        self.count["models.models_emitted"] += len(result)

    def _parse_top(self, frame, dur):
        parent = self._stack[-1] if self._stack else None
        if parent is None or not parent.parsing:
            self.count["terms.parse_calls"] += 1
            self.total["terms.parse_top"] += dur

    def _on_terms_parse_word(self, frame, dur, args, result):
        self._parse_top(frame, dur)

    def _on_terms_parse_equation(self, frame, dur, args, result):
        self._parse_top(frame, dur)

    # -- report ------------------------------------------------------------

    def metrics(self, passes: int) -> tuple[dict, list[str]]:
        """Per-layer metrics as (name -> (value, unit)), counts and times
        per pass, and notes on the ratios whose base is zero on this
        workload."""
        c, tot, own = self.count, self.total, self.self_time
        notes = []
        ratios = set()

        def ratio(name, num, den, scale=1.0):
            ratios.add(name)
            if den == 0:
                notes.append(f"{name}: its base is 0 on this workload, reported as 0")
                return 0.0
            return scale * num / den

        m = {}
        m["engine.neighbors_calls"] = (self.calls["engine.neighbors"], "count")
        m["engine.neighbors_s"] = (tot["engine.neighbors"], "s")
        m["engine.neighbors_us_per_call"] = (ratio("engine.neighbors_us_per_call",
                                                   tot["engine.neighbors"],
                                                   self.calls["engine.neighbors"], 1e6), "us")
        m["engine.neighbors_out"] = (c["engine.neighbors_out"], "count")
        m["engine.nodes_expanded"] = (c["engine.nodes_expanded"], "count")
        m["engine.nodes_per_s"] = (ratio("engine.nodes_per_s", c["engine.nodes_expanded"],
                                         tot["engine.prove_equal"]), "1/s")
        m["engine.prove_calls"] = (self.calls["engine.prove_equal"], "count")
        m["engine.prove_self_s"] = (own["engine.prove_equal"], "s")
        m["engine.normalize_calls"] = (self.calls["engine.normalize"], "count")
        m["engine.normalize_s"] = (tot["engine.normalize"], "s")
        m["engine.normalize_steps"] = (c["engine.normalize_steps"], "count")
        m["engine.settled_by_normalize"] = (c["engine.settled_by_normalize"], "count")
        m["engine.apply_rule_calls"] = (self.calls["engine.apply_rule"], "count")
        m["engine.apply_rule_s"] = (tot["engine.apply_rule"], "s")
        for side in ("replay", "search"):
            m[f"engine.apply_rule_calls.{side}"] = (c[f"engine.apply_rule_calls.{side}"], "count")
            m[f"engine.apply_rule_s.{side}"] = (tot[f"engine.apply_rule.{side}"], "s")
        m["engine.check_calls"] = (self.calls["engine.check_proof"], "count")
        m["engine.check_steps"] = (c["engine.check_steps"], "count")
        m["engine.check_s"] = (tot["engine.check_proof"], "s")
        m["engine.check_us_per_step"] = (ratio("engine.check_us_per_step",
                                               tot["engine.check_proof"],
                                               c["engine.check_steps"], 1e6), "us")
        m["engine.script_s"] = (tot["engine.proof_to_dict"] + tot["engine.proof_from_dict"], "s")
        for bound in ("exhausted", "max_nodes", "max_depth"):
            m[f"engine.notfound_{bound}"] = (c[f"engine.notfound_{bound}"], "count")
        m["terms.parse_calls"] = (c["terms.parse_calls"], "count")
        m["terms.parse_s"] = (tot["terms.parse_top"], "s")
        m["terms.words_built"] = (c["terms.words_built"], "count")
        m["terms.atoms_built"] = (c["terms.atoms_built"], "count")
        m["freegroup.reduce_calls"] = (self.calls["freegroup.free_reduce"], "count")
        m["freegroup.reduce_s"] = (tot["freegroup.free_reduce"], "s")
        m["freegroup.reduce_atoms"] = (c["freegroup.reduce_atoms"], "count")
        m["freegroup.atoms_per_s"] = (ratio("freegroup.atoms_per_s", c["freegroup.reduce_atoms"],
                                            tot["freegroup.free_reduce"]), "1/s")
        m["freegroup.equal_calls"] = (self.calls["freegroup.equal_dgss"], "count")
        m["freegroup.equal_s"] = (tot["freegroup.equal_dgss"], "s")
        m["freegroup.lemma_self_s"] = (own["freegroup.verify_dgss_lemmas"], "s")
        leaves = c["models.leaves"]
        m["models.enumerate_calls"] = (self.calls["models.enumerate_models"], "count")
        m["models.enumerate_s"] = (tot["models.enumerate_models"], "s")
        m["models.search_s"] = (own["models.enumerate_models"], "s")
        m["models.leaves"] = (leaves, "count")
        m["models.models_emitted"] = (c["models.models_emitted"], "count")
        m["models.useful_leaf_ratio"] = (ratio("models.useful_leaf_ratio",
                                               c["models.models_emitted"], leaves), "ratio")
        m["models.us_per_leaf"] = (ratio("models.us_per_leaf", tot["models.enumerate_models"],
                                         leaves, 1e6), "us")
        for kind in _VIOLATION_KINDS:
            m[f"models.rejected.{kind}"] = (c[f"models.rejected.{kind}"], "count")
        m["models.check_s"] = (tot["models.check_model"], "s")
        m["suites.run_calls"] = (self.calls["suites.run_suite"], "count")
        m["suites.run_self_s"] = (own["suites.run_suite"], "s")
        m["trace.spans"] = (len(self.spans), "count")
        return {k: (v if k in ratios else v / passes, u) for k, (v, u) in m.items()}, notes

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "job"],
                       "spans": self.spans}, fh)
            fh.write("\n")
