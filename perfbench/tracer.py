"""Spans and counters around sill's functions, installed from outside.

Nothing under ``src/`` knows about tracing.  A wrapper is installed by
rebinding a function's name in every sill module that imported it (or a
method on its class) for the duration of one traced repetition, and the
old bindings are restored afterwards.  Spans live in flat arrays until the
run ends; self time is computed from them then.
"""

from __future__ import annotations

import statistics
import sys
from array import array
from collections import Counter
from time import perf_counter
from typing import Callable

# Metric name -> unit, in the order BENCHMARK.json lists them.
LAYER_METRICS = {
    "msr.rules.match_rule.calls": "count",
    "msr.rules.match_rule.self_s": "s",
    "msr.rules.equiv_key.calls": "count",
    "msr.rules.equiv_key.self_s": "s",
    "msr.rules.inst_applicable.calls": "count",
    "msr.rules.apply_inst.self_s": "s",
    "msr.trace.extend.self_s": "s",
    "msr.trace.retained_facts": "count",
    "msr.canon.find_renaming.calls": "count",
    "msr.canon.find_renaming.self_s": "s",
    "fairness.check_fairness.self_s": "s",
    "fairness.mrs_applicable.calls": "count",
    "fairness.fair_execute.self_s": "s",
    "fairness.queue_depth_p50": "insts",
    "fairness.queue_depth_max": "insts",
    "dynamics.applicable.calls": "count",
    "dynamics.applicable.self_s": "s",
    "dynamics.applicable.insts_per_step": "insts/step",
    "dynamics.classify_fact.calls_per_step": "calls/step",
    "dynamics.enc_proc.self_s": "s",
    "dynamics.eval_term.calls": "count",
    "dynamics.eval_term.self_s": "s",
    "lang.parser.parse.self_s": "s",
    "lang.check.check_config.calls": "count",
    "lang.check.check_config.self_s": "s",
    "obs.observe.calls": "count",
    "obs.observe.self_s": "s",
    "equiv.runs_per_verdict": "runs/verdict",
    "equiv.plug_experiment.self_s": "s",
    "equiv.experiments_generated": "count",
    "trace.overhead_s": "s",
}

# Span name -> where the function is defined, as "module:attr" or
# "module:Class.attr".
SPANS = {
    "msr.rules.match_rule": "sill.msr.rules:match_rule",
    "msr.rules.equiv_key": "sill.msr.rules:_equiv_key",
    "msr.rules.apply_inst": "sill.msr.rules:apply_inst",
    "msr.rules.mrs_applicable": "sill.msr.rules:Mrs.applicable",
    "msr.trace.extend": "sill.msr.trace:Trace.extend",
    "msr.canon.find_renaming": "sill.msr.canon:find_renaming",
    "fairness.check_fairness": "sill.fairness:check_fairness",
    "dynamics.enc_proc": "sill.dynamics:enc_proc",
    "dynamics.eval_term": "sill.dynamics:eval_term",
    "dynamics.run": "sill.dynamics:run",
    "lang.parser.parse": "sill.lang.parser:parse",
    "lang.check.check_config": "sill.lang.check:check_config",
    "obs.observe": "sill.obs:observe",
    "equiv.equiv_check": "sill.equiv:equiv_check",
    "equiv.plug_experiment": "sill.equiv:plug_experiment",
}
# Called too often for a span each; only their calls are counted.
COUNTED = {
    "msr.rules.inst_applicable": "sill.msr.rules:Inst.applicable",
    "dynamics.classify_fact": "sill.dynamics:classify_fact",
}


def sill_modules() -> list:
    return [mod for name, mod in sorted(sys.modules.items())
            if name == "sill" or name.startswith("sill.")]


def binding_sites(where: str) -> list[tuple[object, str]]:
    """Every (namespace, name) through which sill code reaches the function
    or method at where; empty when it no longer exists."""
    modname, _, attr = where.partition(":")
    owner = sys.modules.get(modname)
    if "." in attr:
        cls_name, attr = attr.split(".")
        cls = getattr(owner, cls_name, None)
        return [(cls, attr)] if cls is not None and attr in vars(cls) else []
    if owner is None or not hasattr(owner, attr):
        return []
    target = getattr(owner, attr)
    return [(mod, name) for mod in sill_modules()
            for name, value in list(vars(mod).items()) if value is target]


class Patches:
    """Rebindings, undone in reverse order of installation."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def wrap(self, where: str, make: Callable[[Callable], Callable]) -> None:
        """Bind make(current) at every binding site of where.

        One wrapper serves all sites, so a later wrap of the same function
        finds every site again by identity.
        """
        sites = binding_sites(where)
        if not sites:
            self.missing.append(where)
            return
        owner, attr = sites[0]
        wrapper = make(vars(owner)[attr])
        for owner, attr in sites:
            self._undo.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, wrapper)

    def undo(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


class Tracer:
    """Spans (name, start, end, parent) and call counts for one run."""

    def __init__(self):
        self._names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open: list[int] = []
        self.counts: Counter = Counter()
        self.queue_depths: list[int] = []
        self.sill_steps = 0
        self.insts_returned = 0
        self.retained_facts = 0
        self._traces: list = []
        self.missing: set[str] = set()

    def span(self, name: str, fn: Callable) -> Callable:
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self._names):
            self._names.append(name)
        names, parents, starts, ends, open_ = (
            self.name, self.parent, self.start, self.end, self._open)

        def call(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(open_[-1] if open_ else -1)
            ends.append(0.0)
            open_.append(i)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                open_.pop()

        return call

    def counted(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        def call(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return call

    def install(self) -> Patches:
        """Wrap every traced function of the currently imported sill."""
        p = Patches()
        for name, where in SPANS.items():
            p.wrap(where, lambda fn, name=name: self.span(name, fn))
        for name, where in COUNTED.items():
            p.wrap(where, lambda fn, name=name: self.counted(name, fn))
        p.wrap("sill.dynamics:SillSystem.applicable",
               lambda fn: self.span("dynamics.applicable", self._applicable(fn)))
        p.wrap("sill.fairness:fair_execute",
               lambda fn: self.span("fairness.fair_execute", self._fair_execute(fn)))
        for side in ("R", "L"):
            p.wrap(f"sill.equiv:gen_experiments_{side}", self._generated)
        self.missing.update(p.missing)
        return p

    def _applicable(self, fn: Callable) -> Callable:
        def call(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.insts_returned += len(out)
            return out

        return call

    def _fair_execute(self, fn: Callable) -> Callable:
        sill_system = getattr(sys.modules.get("sill.dynamics"), "SillSystem", ())

        def call(*args, **kwargs):
            kwargs["record_queue_depths"] = True
            tr = fn(*args, **kwargs)
            self.queue_depths.extend(tr.meta.get("queue_depths", ()))
            if isinstance(tr.mrs, sill_system):
                self.sill_steps += len(tr.steps)
            self._traces.append(tr)
            return tr

        return call

    def _generated(self, fn: Callable) -> Callable:
        def call(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.counts["equiv.experiments_generated"] += len(out)
            return out

        return call

    def end_rep(self) -> None:
        """Count the fact entries the repetition's traces kept, then let the
        traces go."""
        for tr in self._traces:
            self.retained_facts += sum(
                1 for st in tr.states for _ in st.eph_support())
        self._traces.clear()

    # -- reading the spans ------------------------------------------------------

    def _self_times(self) -> tuple[Counter, Counter]:
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        self_s: Counter = Counter()
        calls: Counter = Counter()
        for i in range(n):
            name = self._names[self.name[i]]
            self_s[name] += self.end[i] - self.start[i] - child[i]
            calls[name] += 1
        return self_s, calls

    def _calls_under(self, names: set[str], ancestor: str) -> int:
        """Spans named in names with an enclosing span named ancestor."""
        ids = {self._ids[n] for n in names if n in self._ids}
        anc = self._ids.get(ancestor)
        total = 0
        for i in range(len(self.start)):
            if self.name[i] not in ids:
                continue
            p = self.parent[i]
            while p >= 0 and self.name[p] != anc:
                p = self.parent[p]
            total += p >= 0
        return total

    def metrics(self, reps: int, setup: "Tracer", setups: int,
                overhead_s: float) -> dict[str, float]:
        """The per-layer metrics; counts and times are per repetition."""
        self_s, calls = self._self_times()
        setup_self, _ = setup._self_times()
        steps = self.sill_steps
        verdicts = calls["equiv.equiv_check"]
        depths = self.queue_depths
        runs_in_verdicts = self._calls_under({"dynamics.run"}, "equiv.equiv_check")
        out = {
            "msr.rules.match_rule.calls": calls["msr.rules.match_rule"] / reps,
            "msr.rules.match_rule.self_s": self_s["msr.rules.match_rule"] / reps,
            "msr.rules.equiv_key.calls": calls["msr.rules.equiv_key"] / reps,
            "msr.rules.equiv_key.self_s": self_s["msr.rules.equiv_key"] / reps,
            "msr.rules.inst_applicable.calls":
                self.counts["msr.rules.inst_applicable"] / reps,
            "msr.rules.apply_inst.self_s": self_s["msr.rules.apply_inst"] / reps,
            "msr.trace.extend.self_s": self_s["msr.trace.extend"] / reps,
            "msr.trace.retained_facts": self.retained_facts / reps,
            "msr.canon.find_renaming.calls": calls["msr.canon.find_renaming"] / reps,
            "msr.canon.find_renaming.self_s": self_s["msr.canon.find_renaming"] / reps,
            "fairness.check_fairness.self_s": self_s["fairness.check_fairness"] / reps,
            "fairness.mrs_applicable.calls": self._calls_under(
                {"msr.rules.mrs_applicable", "dynamics.applicable"},
                "fairness.check_fairness") / reps,
            "fairness.fair_execute.self_s": self_s["fairness.fair_execute"] / reps,
            "fairness.queue_depth_p50": statistics.median(depths) if depths else 0,
            "fairness.queue_depth_max": max(depths, default=0),
            "dynamics.applicable.calls": calls["dynamics.applicable"] / reps,
            "dynamics.applicable.self_s": self_s["dynamics.applicable"] / reps,
            "dynamics.applicable.insts_per_step":
                self.insts_returned / steps if steps else 0,
            "dynamics.classify_fact.calls_per_step":
                self.counts["dynamics.classify_fact"] / steps if steps else 0,
            "dynamics.enc_proc.self_s": self_s["dynamics.enc_proc"] / reps,
            "dynamics.eval_term.calls": calls["dynamics.eval_term"] / reps,
            "dynamics.eval_term.self_s": self_s["dynamics.eval_term"] / reps,
            "lang.parser.parse.self_s": setup_self["lang.parser.parse"] / setups,
            "lang.check.check_config.calls": calls["lang.check.check_config"] / reps,
            "lang.check.check_config.self_s": self_s["lang.check.check_config"] / reps,
            "obs.observe.calls": calls["obs.observe"] / reps,
            "obs.observe.self_s": self_s["obs.observe"] / reps,
            "equiv.runs_per_verdict": runs_in_verdicts / verdicts if verdicts else 0,
            "equiv.plug_experiment.self_s": self_s["equiv.plug_experiment"] / reps,
            "equiv.experiments_generated":
                self.counts["equiv.experiments_generated"] / reps,
            "trace.overhead_s": overhead_s,
        }
        assert out.keys() == LAYER_METRICS.keys()
        return out
