"""Recorded executions: construction, replay, serialization, permutation.

A trace records the initial state and every applied step (rule,
instantiation, fresh-name assignment, produced facts), plus the current
state.  That is all it stores: a step's delta is its instantiation's
ephemeral antecedent (consumed) and its produced facts, so a trace costs
O(steps), not O(steps x state).  The current state (``Trace.live``) is
updated in place, so a step costs what it consumed and produced, not the
size of the state; ``final()`` hands out a snapshot of it, which no later
step changes.  Readers that only need the facts a run ever held walk
``Trace.facts``; the intermediate states are rebuilt by replay the first
time ``Trace.states`` is read.  Serialization can omit them for the same
reason.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .canon import find_renaming
from .multiset import Fact, Multiset, fact_key, fact_to_str
from .rules import Inst, Mrs, NotApplicable, Signature, apply_inst, fire, is_generated_name
from .terms import term_to_str
from .text import parse_fact, parse_system, parse_term


@dataclass(frozen=True)
class Step:
    """One applied instantiation and its delta.

    The step consumed ``inst.eph_ant_g()`` and produced ``produced``: the
    distinct facts of the instantiated consequent, persistent ones first.
    ``xi`` records the fresh names, so the step replays exactly.  A step
    that ``changed`` nothing left the state as it was; an ``idle`` one
    also bound no fresh name, and leaves the state as it is wherever it
    applies later in its trace: persistent facts stay.
    """

    inst: Inst
    xi: tuple[tuple[str, str], ...]
    produced: tuple[Fact, ...] = field(compare=False, repr=False)
    changed: bool = field(default=True, compare=False, repr=False)
    idle: bool = field(default=False, compare=False, repr=False)

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
    """A run's initial state, its steps, and its current state.

    ``live`` is the current state, which each step rewrites in place: read
    it while the run goes on, and keep ``final()`` instead.  The initial
    state is copied once, since runs share it.
    """

    def __init__(self, mrs: Optional[Mrs], initial: Multiset, sig: Optional[Signature] = None):
        self.mrs = mrs
        self.initial = initial
        if sig is None:
            declared = initial.consts()
            if mrs is not None:
                declared |= set(mrs.declared)
            # fresh names must also avoid the generated ones already present
            sig = Signature(frozenset(declared), 0).absorb_all(declared)
        self.sig0 = sig
        self.sig = sig
        self.steps: list[Step] = []
        self.meta: dict = {}
        # what readers derive from the recorded steps, keyed by the reader,
        # each entry with the step count it describes
        self.memo: dict = {}
        self.live = initial.copy()
        # final()'s snapshot of live, None once a step changed live
        self._final: Optional[Multiset] = initial
        self._states: Optional[list[Multiset]] = None

    def __len__(self) -> int:
        return len(self.steps)

    def final(self) -> Multiset:
        """The current state as a snapshot that later steps leave as it
        is: copied on the first read after a step that changed the state,
        and the same object until the next such step."""
        if self._final is None:
            self._final = self.live.copy()
        return self._final

    def extend(self, inst: Inst, xi: Optional[Mapping[str, str]] = None) -> Step:
        produced: list[Fact] = []
        self.sig, names, con = fire(self.live, inst, self.sig, xi, produced)
        if con is not None:
            self.live.rewrite_in_place(inst.eph_ant_g(), con)
            self._final = None
        # the step keeps its rule and theta, not the matcher's grounding
        inst.release()
        step = Step(inst, tuple(names.items()), tuple(produced),
                    changed=con is not None, idle=con is None and not names)
        self.steps.append(step)
        if self._states is not None:
            self._states.append(self._states[-1] if con is None else self.final())
        return step

    def repeat(self, step: Step) -> None:
        """Record again an idle step of this trace, as applying it again
        would, without ``fire`` or a new ``Step``.  Its applicability is
        checked in O(consumed), raising ``NotApplicable``; a step that is
        not idle raises ``ValueError``."""
        if not step.idle:
            raise ValueError(f"{step.to_str()} is not idle")
        if not step.inst.applicable(self.live):
            raise NotApplicable(step.inst.to_str())
        self.steps.append(step)
        if self._states is not None:
            self._states.append(self._states[-1])

    @property
    def states(self) -> list[Multiset]:
        """The initial state and the state after each step, in order, as
        snapshots that later steps leave as they are.

        Nothing keeps these while the trace is recorded.  The first read
        replays the recorded steps from the initial state with their
        recorded fresh names, which costs one rule application and one
        copy of the state per changing step, and keeps the list; later
        reads return that list, and each later step appends to it, a new
        snapshot after a step that changed the state.  The last entry is
        ``final()`` itself.  Treat the list as read-only.  The library
        reads it only to serialize a trace with its states: the lasso
        analysis replays the steps in place on one state instead, and the
        other readers walk ``facts``.
        """
        if self._states is None:
            states, sig = [self.initial], self.sig0
            for step in self.steps[:-1]:
                st, sig, _ = apply_inst(states[-1], step.inst, sig, step.xi_map())
                states.append(st)
            if self.steps:
                states.append(self.final())
            self._states = states
        return self._states

    def facts(self) -> Iterator[Fact]:
        """Every ephemeral fact some state of the trace held, as the states'
        own objects: the initial state's, then each step's produced ones,
        in order.  A fact that was produced more than once comes more than
        once."""
        yield from self.initial.eph_support()
        for step in self.steps:
            for f in step.produced:
                if not f.persistent:
                    yield f

    def supp(self) -> Multiset:
        """Union of the supports of all states, as a set-like multiset."""
        return Multiset.of(set(self.facts()), self.live.pers)

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
            try:
                tr.extend(inst, xi)
            except NotApplicable:
                raise Invalid(i, f"{inst.to_str()} not applicable") from None
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
        try:
            out.extend(step.inst, step.xi_map())
        except NotApplicable:
            raise Invalid(i, f"{step.inst.to_str()} not applicable after permutation") from None
    return out


def union_equivalent(t1: Trace, t2: Trace) -> bool:
    """Same initial state and same union of supports up to renaming the
    generated constants."""
    if t1.initial != t2.initial:
        raise ValueError("traces start from different states")
    rigid = lambda c: not is_generated_name(c)
    return find_renaming(t1.supp(), t2.supp(), rigid) is not None
