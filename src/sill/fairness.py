"""Fairness: lasso-trace checking and the fair round-robin scheduler.

An eventually periodic infinite run is given as a finite trace plus the
index where the loop starts; the states at the loop boundaries must agree
up to a renaming of generated constants.  That recurrence renaming drives
the whole analysis: a ground object (fact, instantiation) recurs in the
unrolled infinite trace exactly when all its generated constants lie on
cycles of the renaming, and then its occurrences sweep through the orbit
under the renaming.  Constants born inside the loop and not returning are
transient: they appear in finitely many rounds only.

Varieties of fairness quantify over rules, facts, or instantiations; each
comes in a weak (almost-always applicable/enabled implies applied) and a
strong (infinitely-often implies applied) form.  The über form demands
that anything ever applicable is eventually applied up to instantiation
equivalence.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from .msr.canon import find_renaming
from .msr.multiset import Fact, Multiset, fact_consts, fact_key, fact_to_str
from .msr.rules import Inst, Mrs, Signature, _equiv_key
from .msr.terms import rename_consts, term_consts, term_to_str
from .msr.trace import Trace

VARIETIES = ("rule", "fact", "inst")
STRENGTHS = ("weak", "strong", "uber")


class InvalidLasso(Exception):
    """The designated loop does not return to its starting state up to
    renaming of generated constants."""


@dataclass(frozen=True)
class LassoTrace:
    trace: Trace
    loop_start: Optional[int] = None

    def __post_init__(self):
        if self.loop_start is not None and not (
            0 <= self.loop_start < len(self.trace.steps)
        ):
            raise InvalidLasso(
                f"loop start {self.loop_start} outside step range 0..{len(self.trace.steps) - 1}"
            )


@dataclass(frozen=True)
class Verdict:
    variety: str
    strength: str
    fair: bool
    witness: Optional[dict] = None

    def to_json(self) -> dict:
        out = {"variety": self.variety, "strength": self.strength, "fair": self.fair}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


class _Analysis:
    """Recurrence structure of a validated lasso."""

    def __init__(self, lt: LassoTrace):
        tr = lt.trace
        if tr.mrs is None:
            raise ValueError("trace carries no rewriting system")
        self.trace = tr
        self.states = tr.states
        self.mrs = tr.mrs
        self.k = lt.loop_start
        self.L = len(tr.steps)
        declared = tr.sig0.declared
        self.rigid = lambda c: c in declared
        assert self.k is not None
        rho = find_renaming(self.states[self.k], self.states[self.L], self.rigid)
        if rho is None:
            raise InvalidLasso(
                "loop endpoint is not the loop start up to renaming generated constants"
            )
        self.rho = rho
        # constants whose orbit under rho returns to them
        self.cyc: dict[str, int] = {}
        for c in rho:
            cur, n = rho[c], 1
            while cur != c and cur in rho:
                cur = rho[cur]
                n += 1
            if cur == c:
                self.cyc[c] = n
        self._applicable: dict[int, list[Inst]] = {}
        self._enabled_facts: dict[int, set[Fact]] = {}
        self._applied_keys: Optional[set] = None

    # -- orbit machinery ----------------------------------------------------

    def is_recurrent(self, consts: Iterable[str]) -> bool:
        return all(self.rigid(c) or c in self.cyc for c in consts)

    def period(self, consts: Iterable[str]) -> int:
        p = 1
        for c in consts:
            if not self.rigid(c):
                p = math.lcm(p, self.cyc[c])
        return p

    def shift_inst(self, inst: Inst, m: int) -> Inst:
        rho_m = {}
        for _, t in inst.theta:
            for c in term_consts(t):
                if not self.rigid(c):
                    cur = c
                    for _ in range(m):
                        cur = self.rho[cur]
                    rho_m[c] = cur
        if not rho_m:
            return inst
        return Inst(
            inst.rule, tuple((v, rename_consts(t, rho_m)) for v, t in inst.theta)
        )

    def inst_consts(self, inst: Inst) -> set[str]:
        out: set[str] = set()
        for _, t in inst.theta:
            out |= term_consts(t)
        return out

    def inst_orbit(self, inst: Inst) -> list[Inst]:
        return [self.shift_inst(inst, m) for m in range(self.period(self.inst_consts(inst)))]

    def fact_orbit(self, f: Fact) -> list[Fact]:
        consts = fact_consts(f)
        out = []
        cur = f
        for _ in range(self.period(consts)):
            out.append(cur)
            cur = cur.rename(self.rho)
        return out

    def loop_positions(self) -> range:
        assert self.k is not None
        return range(self.k, self.L)

    def applicable_at(self, j: int) -> list[Inst]:
        if j not in self._applicable:
            self._applicable[j] = self.mrs.applicable(self.states[j])
        return self._applicable[j]

    # -- predicates on the unrolled infinite trace ---------------------------

    def inst_applicable_io(self, inst: Inst) -> bool:
        if not self.is_recurrent(self.inst_consts(inst)):
            return False
        orbit = self.inst_orbit(inst)
        return any(o.applicable(self.states[j]) for j in self.loop_positions() for o in orbit)

    def inst_applicable_aa(self, inst: Inst) -> bool:
        if not self.is_recurrent(self.inst_consts(inst)):
            return False
        orbit = self.inst_orbit(inst)
        return all(o.applicable(self.states[j]) for j in self.loop_positions() for o in orbit)

    def _loop_steps_cyclic(self) -> list[Inst]:
        out = []
        for j in self.loop_positions():
            step = self.trace.steps[j].inst
            if self.is_recurrent(self.inst_consts(step)):
                out.append(step)
        return out

    def inst_applied_io_equiv(self, inst: Inst) -> bool:
        if self._applied_keys is None:
            self._applied_keys = {
                _equiv_key(o) for step in self._loop_steps_cyclic() for o in self.inst_orbit(step)
            }
        return _equiv_key(inst) in self._applied_keys

    def inst_applied_io_equal(self, inst: Inst) -> bool:
        for step in self._loop_steps_cyclic():
            if step.rule.name != inst.rule.name:
                continue
            if any(o.theta == inst.theta for o in self.inst_orbit(step)):
                return True
        return False

    def fact_enabled_at(self, f: Fact, j: int) -> bool:
        if j not in self._enabled_facts:
            self._enabled_facts[j] = {
                g for i in self.applicable_at(j) for g in i.active().support()
            }
        return f in self._enabled_facts[j]

    def fact_enabled_io(self, f: Fact) -> bool:
        if not self.is_recurrent(fact_consts(f)):
            return False
        orbit = self.fact_orbit(f)
        return any(self.fact_enabled_at(o, j) for j in self.loop_positions() for o in orbit)

    def fact_enabled_aa(self, f: Fact) -> bool:
        if not self.is_recurrent(fact_consts(f)):
            return False
        orbit = self.fact_orbit(f)
        return all(self.fact_enabled_at(o, j) for j in self.loop_positions() for o in orbit)

    def fact_active_io(self, f: Fact) -> bool:
        if not self.is_recurrent(fact_consts(f)):
            return False
        orbit = self.fact_orbit(f)
        for j in self.loop_positions():
            act = self.trace.steps[j].inst.active()
            if any(act.count(o) > 0 for o in orbit):
                return True
        return False

    def rule_applicable_at(self, name: str, j: int) -> bool:
        return any(i.rule.name == name for i in self.applicable_at(j))

    def rule_applied_in_loop(self, name: str) -> bool:
        return any(
            self.trace.steps[j].inst.rule.name == name for j in self.loop_positions()
        )


def _inst_witness(inst: Inst) -> dict:
    return {
        "kind": "instantiation",
        "rule": inst.rule.name,
        "theta": {v: term_to_str(t) for v, t in inst.theta},
    }


def _candidate_insts(an: _Analysis) -> list[Inst]:
    """Applicable instantiations at loop states, one representative per
    orbit, sorted theta-first so witnesses come out in a stable order."""
    seen: set = set()
    out: list[Inst] = []
    for j in an.loop_positions():
        for inst in an.applicable_at(j):
            orbit = an.inst_orbit(inst) if an.is_recurrent(an.inst_consts(inst)) else [inst]
            key = min((i.rule.name, i.theta_key()) for i in orbit)
            if key in seen:
                continue
            seen.add(key)
            out.append(min(orbit, key=lambda i: (i.theta_key(), i.rule.name)))
    out.sort(key=lambda i: (i.theta_key(), i.rule.name))
    return out


def check_fairness(lt: LassoTrace, variety: str, strength: str) -> Verdict:
    """Decide a fairness property of the infinite unrolling of a lasso.

    A finite trace (no loop) is fair by definition.  The verdict carries
    the least offending candidate as a witness when unfair.
    """
    if variety not in VARIETIES:
        raise ValueError(f"unknown variety {variety!r}")
    if strength not in STRENGTHS:
        raise ValueError(f"unknown strength {strength!r}")
    if lt.loop_start is None:
        return Verdict(variety, strength, True)
    an = _Analysis(lt)

    if strength == "uber":
        return _check_uber(an, variety)

    witnesses: list[tuple[tuple, dict]] = []
    if variety == "rule":
        for r in an.mrs.rules:
            if strength == "weak":
                premise = all(an.rule_applicable_at(r.name, j) for j in an.loop_positions())
            else:
                premise = any(an.rule_applicable_at(r.name, j) for j in an.loop_positions())
            if premise and not an.rule_applied_in_loop(r.name):
                witnesses.append(((r.name,), {"kind": "rule", "rule": r.name}))
    elif variety == "fact":
        for f in sorted(an.trace.supp().support(), key=fact_key):
            premise = an.fact_enabled_aa(f) if strength == "weak" else an.fact_enabled_io(f)
            if premise and not an.fact_active_io(f):
                witnesses.append(((fact_key(f),), {"kind": "fact", "fact": fact_to_str(f)}))
    else:
        for inst in _candidate_insts(an):
            if strength == "weak":
                if an.inst_applicable_aa(inst) and not an.inst_applied_io_equiv(inst):
                    witnesses.append(((inst.theta_key(), inst.rule.name), _inst_witness(inst)))
            else:
                if an.inst_applicable_io(inst) and not an.inst_applied_io_equal(inst):
                    witnesses.append(((inst.theta_key(), inst.rule.name), _inst_witness(inst)))

    if witnesses:
        witnesses.sort(key=lambda w: w[0])
        return Verdict(variety, strength, False, witnesses[0][1])
    return Verdict(variety, strength, True)


def _check_uber(an: _Analysis, variety: str) -> Verdict:
    """Everything applicable at any reached state must eventually be applied
    up to instantiation equivalence, in the recorded part or in the loop's
    future rounds."""
    # equivalence key -> the last position of a recorded step with that key
    last = {_equiv_key(step.inst): s for s, step in enumerate(an.trace.steps)}
    for i in range(an.L):
        for inst in an.applicable_at(i):
            recorded = last.get(_equiv_key(inst), -1) >= i
            if recorded or an.inst_applied_io_equiv(inst):
                continue
            w = _inst_witness(inst)
            w.update({"kind": "obligation", "state_index": i})
            return Verdict(variety, "uber", False, w)
    return Verdict(variety, "uber", True)


# -- the fair scheduler --------------------------------------------------------


def fair_execute(
    mrs: Mrs,
    start: Multiset,
    sig: Optional[Signature] = None,
    budget: int = 1000,
    seed: Optional[int] = None,
    observer: Optional[Callable[[Trace], None]] = None,
    record_queue_depths: bool = False,
) -> Trace:
    """Run the FIFO scheduler over distinct applicable instantiations.

    The queue always holds exactly the applicable instantiations, oldest
    first, one per instantiation-equivalence class, each with its
    equivalence key; after each step the survivors keep their order and the
    newly applicable ones join at the back (shuffled when a seed is given,
    otherwise in enumeration order).  Anything applicable is therefore
    applied within queue-length steps, which makes every completed run über
    fair, and a run that empties its queue is a maximal execution.

    Only the start state is enumerated in full.  An instantiation that is
    applicable after a step but not in the queue must have an antecedent
    fact the step touched: a fact it produced, or one of the applied
    instantiation's antecedent facts that is still present.  Otherwise it
    was applicable before the step, so it or an equivalent one was queued
    and still is.  The system's enabled set (``mrs.enabled(start)``)
    proposes exactly the applicable instantiations with a touched
    antecedent fact, in enumeration order, each with its equivalence key
    (``delta`` returns (key, instantiation) pairs), so the scheduler
    computes no key itself after the start.  The SILL enabled set keeps the
    keyed steps of each fact whose steps depend on it alone; the MRS one
    keys every candidate it matches.  Likewise only the queued
    instantiations that consume a fact the step consumed are re-checked.
    So a step costs what it touched, not the size of the state or of the
    queue, and the run is the one a full re-enumeration after every step
    would give.

    meta["sched"] counts the full enumerations, the candidates the enabled
    set proposed, the fresh instantiations that joined the queue after a
    step, and of the candidates, the steps the enabled set derived and
    keyed (``steps_derived``) and those it handed out again from its cache
    (``steps_reused``).
    """
    tr = Trace(mrs, start, sig)
    rng = random.Random(seed) if seed is not None else None
    # key -> (queued instantiation, the distinct ephemeral facts it consumes)
    queue: dict[tuple, tuple[Inst, tuple[Fact, ...]]] = {}
    # ephemeral fact -> keys of the queued instantiations that consume it;
    # a step can disable only the entries that need a fact it consumed
    needs: dict[Fact, dict[tuple, None]] = {}

    def admit(entries: Iterable[tuple[tuple, Inst]]) -> None:
        for k, i in entries:
            eph = tuple(i.eph_ant_g().eph_support())
            queue[k] = (i, eph)
            for f in eph:
                needs.setdefault(f, {})[k] = None

    def drop(k: tuple) -> tuple[Inst, tuple[Fact, ...]]:
        i, eph = queue.pop(k)
        for f in eph:
            del needs[f][k]
            if not needs[f]:
                del needs[f]
        return i, eph

    initial = list(mrs.applicable(start))
    if rng is not None:
        rng.shuffle(initial)
    admit((_equiv_key(i), i) for i in initial)
    enabled = mrs.enabled(start)
    sched = {"full_enumerations": 1, "delta_candidates": 0, "fresh_admitted": 0}
    depths: list[int] = []
    while queue and len(tr.steps) < budget:
        if record_queue_depths:
            depths.append(len(queue))
        inst, eph = drop(next(iter(queue)))
        step = tr.extend(inst)
        if observer is not None:
            observer(tr)
        state = tr.final()
        for f in eph:
            for k in [k for k in needs.get(f, ()) if not queue[k][0].applicable(state)]:
                drop(k)
        gone = [f for f in eph if not state.count(f)]
        touched = list(dict.fromkeys(
            [*step.produced, *(f for f in eph if state.count(f)), *inst.pers_ant_g()]))
        candidates = enabled.delta(state, gone, touched)
        fresh: dict[tuple, Inst] = {}
        for k, c in candidates:
            if k not in queue and k not in fresh:
                fresh[k] = c
        admitted = list(fresh.items())
        if rng is not None:
            rng.shuffle(admitted)
        admit(admitted)
        sched["delta_candidates"] += len(candidates)
        sched["fresh_admitted"] += len(admitted)
    sched["steps_derived"] = enabled.derived
    sched["steps_reused"] = enabled.reused
    tr.meta["maximal"] = not queue
    tr.meta["sched"] = sched
    if record_queue_depths:
        tr.meta["queue_depths"] = depths
    return tr
