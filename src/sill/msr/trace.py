"""Recorded executions: construction, replay, serialization, permutation.

A trace records the initial state and every applied step (rule,
instantiation, fresh-name assignment).  Intermediate states are kept so
checks can inspect them; serialization can omit them since replay
reconstructs everything.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

from .canon import find_renaming
from .multiset import Fact, Multiset, fact_key, fact_to_str
from .rules import Inst, Mrs, Signature, apply_inst, is_generated_name
from .terms import term_to_str
from .text import parse_fact, parse_system, parse_term


@dataclass(frozen=True)
class Step:
    inst: Inst
    xi: tuple[tuple[str, str], ...]
    # the distinct facts the step produced, as the objects held by the
    # successor state; a fresh copy would miss identity-based shortcuts in
    # the caches keyed on facts and fall into deep equality
    produced: tuple[Fact, ...] = field(default=(), compare=False, repr=False)

    def xi_map(self) -> dict[str, str]:
        return dict(self.xi)

    def to_str(self) -> str:
        s = self.inst.to_str()
        if self.xi:
            s += " fresh " + ", ".join(f"{v} := {n}" for v, n in self.xi)
        return s


class Invalid(Exception):
    """A step in a replayed or permuted trace is not applicable."""

    def __init__(self, index: int, reason: str):
        self.index = index
        self.reason = reason
        super().__init__(f"step {index}: {reason}")


class Trace:
    def __init__(self, mrs: Optional[Mrs], initial: Multiset, sig: Optional[Signature] = None):
        self.mrs = mrs
        self.initial = initial
        if sig is None:
            declared = initial.consts()
            if mrs is not None:
                declared |= set(mrs.declared)
            sig = Signature(frozenset(declared), 0)
        self.sig0 = sig
        self.sig = sig
        self.steps: list[Step] = []
        self.states: list[Multiset] = [initial]
        self.meta: dict = {}

    def __len__(self) -> int:
        return len(self.steps)

    def final(self) -> Multiset:
        return self.states[-1]

    def extend(self, inst: Inst, xi: Optional[Mapping[str, str]] = None) -> Step:
        produced: list[Fact] = []
        nxt, self.sig, names = apply_inst(self.states[-1], inst, self.sig, xi, produced)
        step = Step(inst, tuple((v, names[v]) for v in inst.rule.evars), tuple(produced))
        self.steps.append(step)
        self.states.append(nxt)
        return step

    def supp(self) -> Multiset:
        """Union of the supports of all states, as a set-like multiset."""
        eph: set[Fact] = set()
        for st in self.states:
            eph |= set(st.eph_support())
        return Multiset.of(eph, self.final().pers)

    # -- serialization -----------------------------------------------------

    def to_json(
        self, include_states: bool = False, loop_start: Optional[int] = None
    ) -> dict:
        data: dict = {
            "declared": sorted(self.sig0.declared),
            "initial": _state_json(self.initial),
            "steps": [
                {
                    "rule": s.inst.rule.name,
                    "theta": {v: term_to_str(t) for v, t in s.inst.theta},
                    "xi": {v: n for v, n in s.xi},
                }
                for s in self.steps
            ],
        }
        if self.mrs is not None and self.mrs.source is not None:
            data["system"] = self.mrs.source
        if loop_start is not None:
            data["loop_start"] = loop_start
        if include_states:
            data["states"] = [_state_json(st) for st in self.states]
        return data

    @staticmethod
    def from_json(data: dict, mrs: Optional[Mrs] = None) -> tuple["Trace", Optional[int]]:
        if mrs is None:
            src = data.get("system")
            if src is None:
                raise ValueError("trace has no embedded system; pass one explicitly")
            mrs = parse_system(src)
        eph = [parse_fact(s) for s in data["initial"]["ephemeral"]]
        pers = [parse_fact(s) for s in data["initial"]["persistent"]]
        initial = Multiset.of(eph, pers)
        declared = frozenset(data.get("declared", [])) | mrs.declared | initial.consts()
        tr = Trace(mrs, initial, Signature(declared, 0))
        for i, sd in enumerate(data["steps"]):
            try:
                rule = mrs.rule(sd["rule"])
            except KeyError:
                raise Invalid(i, f"unknown rule {sd['rule']!r}")
            theta = {}
            for v in rule.uvars:
                if v not in sd["theta"]:
                    raise Invalid(i, f"theta missing variable {v!r}")
                theta[v] = parse_term(sd["theta"][v])
            xi = sd.get("xi", {})
            for v in rule.evars:
                if v not in xi:
                    raise Invalid(i, f"xi missing variable {v!r}")
            inst = Inst.make(rule, theta)
            if not inst.applicable(tr.final()):
                raise Invalid(i, f"{inst.to_str()} not applicable")
            tr.extend(inst, xi)
        return tr, data.get("loop_start")


def _state_json(st: Multiset) -> dict:
    eph: list[str] = []
    for f in sorted(st.eph_support(), key=fact_key):
        eph.extend([fact_to_str(f)] * st.count(f))
    return {
        "ephemeral": eph,
        "persistent": [fact_to_str(f) for f in sorted(st.pers, key=fact_key)],
    }


def permute_trace(tr: Trace, perm: Sequence[int]) -> Trace:
    """Replay the trace's steps in a new order, reusing the recorded fresh
    names.  Raises Invalid at the first position whose step cannot fire."""
    if sorted(perm) != list(range(len(tr.steps))):
        raise ValueError("not a permutation of the step indices")
    out = Trace(tr.mrs, tr.initial, tr.sig0)
    for i, j in enumerate(perm):
        step = tr.steps[j]
        if not step.inst.applicable(out.final()):
            raise Invalid(i, f"{step.inst.to_str()} not applicable after permutation")
        out.extend(step.inst, step.xi_map())
    return out


def union_equivalent(t1: Trace, t2: Trace) -> bool:
    """Same initial state and same union of supports up to renaming the
    generated constants."""
    if t1.initial != t2.initial:
        raise ValueError("traces start from different states")
    rigid = lambda c: not is_generated_name(c)
    return find_renaming(t1.supp(), t2.supp(), rigid) is not None
