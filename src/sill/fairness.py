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

A lasso has one analysis (``_Analysis``), built by its first verdict and
kept with the ``LassoTrace``.  It describes the trace at the step count it
was built for: every later verdict on the same lasso reads it, and a
verdict on a trace extended in the meantime builds a fresh one.  The
analysis enumerates the applicable instantiations of the first state in
full and replays every other position's by delta, advancing the system's
enabled set through the recorded steps the way ``fair_execute`` advances
its queue.  Each position's instantiations are kept with their
equivalence keys, which also carry their antecedent facts; what is
applicable or enabled at some loop state, and at every one, is collected
once, so each verdict's predicate is a set lookup per candidate and orbit
member.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Iterator, Optional

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
    """A trace whose steps from loop_start on repeat forever, or a finite
    run when loop_start is None."""

    trace: Trace
    loop_start: Optional[int] = None
    # the lasso's analysis, built by the first verdict (see _analysis_of)
    _analysis: Optional["_Analysis"] = field(
        default=None, init=False, repr=False, compare=False)

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


def _ant_facts(key: tuple) -> Iterator[Fact]:
    """The antecedent facts of an instantiation, read off its equivalence
    key: ``rules._equiv_key`` puts the ground persistent antecedent first
    and the ground ephemeral one, as (fact, multiplicity) pairs, second."""
    ant_p, ant_e, _ = key
    yield from ant_p
    for f, _ in ant_e:
        yield f


class _Analysis:
    """Recurrence structure of a validated lasso, and the applicable
    instantiations at each of its positions.

    It describes the trace as it was when built, ``L`` steps long, and is
    shared by every verdict on the lasso, so everything in it is computed
    at most once: the states, the recurrence renaming and the recorded
    steps' equivalence keys when it is built, the rest on first use.

    The applicable sets (``keyed``) come from one full enumeration of the
    first state; every later position is reached by replaying the recorded
    step through the system's enabled set (``mrs.enabled``), as
    ``fair_execute`` advances its queue: the instantiations that need a
    fact the step consumed are re-checked, and the enabled set proposes
    those with an antecedent fact the step produced.  Equivalent
    instantiations consume the same facts, so an equivalence class is
    applicable at a state as a whole, and its key tells whether an
    instantiation, or any fact it consumes or requires, is applicable or
    enabled there.  Each position keeps one representative per applicable
    class under its key, the least in rule order, then theta, listed in
    that order: the list ``mrs.applicable`` gives for an ``Mrs``.  (The
    generated rules of a ``SillSystem`` have no such order; its classes
    keep the order of the first enumeration, then of their arrival.)
    """

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
        self.step_keys = [_equiv_key(s.inst) for s in tr.steps]

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

    # -- applicable sets, replayed by delta ----------------------------------

    @cached_property
    def keyed(self) -> list[dict[tuple, Inst]]:
        """For each state j < L, its applicable instantiations, one per
        equivalence class, under their keys, in enumeration order."""
        rank: dict = {}
        for i, r in enumerate(self.mrs.rules):
            rank.setdefault(r, i)
        # key -> (enumeration order, representative)
        live: dict[tuple, tuple[tuple, Inst]] = {}
        # ephemeral fact -> keys of the live instantiations that consume it;
        # a key's second part holds the consumed facts with multiplicities
        needs: dict[Fact, set] = {}

        def admit(key: tuple, inst: Inst) -> None:
            live[key] = ((rank.get(inst.rule, len(rank)), inst.theta_key()), inst)
            for f, _ in key[1]:
                needs.setdefault(f, set()).add(key)

        def drop(key: tuple) -> None:
            del live[key]
            for f, _ in key[1]:
                needs[f].discard(key)

        for inst in self.mrs.applicable(self.states[0]):
            admit(_equiv_key(inst), inst)
        enabled = self.mrs.enabled(self.states[0])
        out = []
        for j, step in enumerate(self.trace.steps):
            out.append({key: inst for key, (_, inst)
                        in sorted(live.items(), key=lambda e: e[1][0])})
            if j + 1 == self.L:
                break
            state = self.states[j + 1]
            eph = [f for f, _ in self.step_keys[j][1]]
            for f in eph:
                for key in [key for key in needs.get(f, ())
                            if any(state.count(g) < m for g, m in key[1])]:
                    drop(key)
            # a class not live before the step needs a fact the step produced
            gone = [f for f in eph if not state.count(f)]
            for key, inst in enabled.delta(state, gone, step.produced):
                if key not in live:
                    admit(key, inst)
        return out

    def applicable_at(self, j: int) -> list[Inst]:
        """The applicable instantiations at state j < L, as a list."""
        return list(self.keyed[j].values())

    def _over_loop(self, per_position: Callable[[dict[tuple, Inst]], set]) -> tuple[set, set]:
        """What holds at some loop position, and what holds at every one."""
        sets = [per_position(self.keyed[j]) for j in self.loop_positions()]
        return set().union(*sets), sets[0].intersection(*sets[1:])

    @cached_property
    def loop_keys(self) -> tuple[set, set]:
        """Keys of the instantiations applicable at some loop state, and at
        every loop state."""
        return self._over_loop(set)

    @cached_property
    def loop_enabled(self) -> tuple[set, set]:
        """Facts enabled at some loop state, and at every loop state."""
        return self._over_loop(lambda keyed: {f for key in keyed for f in _ant_facts(key)})

    @cached_property
    def loop_rules(self) -> tuple[set, set]:
        """Names of the rules applicable at some loop state, and at every
        loop state."""
        return self._over_loop(lambda keyed: {i.rule.name for i in keyed.values()})

    @cached_property
    def loop_steps_cyclic(self) -> list[Inst]:
        """The loop steps whose constants all recur."""
        return [self.trace.steps[j].inst for j in self.loop_positions()
                if self.is_recurrent(self.inst_consts(self.trace.steps[j].inst))]

    @cached_property
    def applied_keys(self) -> set[tuple]:
        """Equivalence keys of the instantiations the loop applies
        infinitely often: the orbits of its recurring steps."""
        return {_equiv_key(o) for step in self.loop_steps_cyclic for o in self.inst_orbit(step)}

    @cached_property
    def applied_insts(self) -> set[Inst]:
        """The instantiations the loop applies infinitely often."""
        return {o for step in self.loop_steps_cyclic for o in self.inst_orbit(step)}

    @cached_property
    def loop_active(self) -> set[Fact]:
        """Facts some loop step consumes or requires."""
        return {f for j in self.loop_positions() for f in _ant_facts(self.step_keys[j])}

    # -- predicates on the unrolled infinite trace ---------------------------

    def _orbit_keys(self, inst: Inst) -> Optional[list[tuple]]:
        """The equivalence keys of inst's orbit; None when inst is transient."""
        if not self.is_recurrent(self.inst_consts(inst)):
            return None
        return [_equiv_key(o) for o in self.inst_orbit(inst)]

    def inst_applicable_io(self, inst: Inst) -> bool:
        keys = self._orbit_keys(inst)
        return keys is not None and any(key in self.loop_keys[0] for key in keys)

    def inst_applicable_aa(self, inst: Inst) -> bool:
        keys = self._orbit_keys(inst)
        return keys is not None and all(key in self.loop_keys[1] for key in keys)

    def inst_applied_io_equal(self, inst: Inst) -> bool:
        return inst in self.applied_insts

    def fact_enabled_io(self, f: Fact) -> bool:
        if not self.is_recurrent(fact_consts(f)):
            return False
        return any(o in self.loop_enabled[0] for o in self.fact_orbit(f))

    def fact_enabled_aa(self, f: Fact) -> bool:
        if not self.is_recurrent(fact_consts(f)):
            return False
        return all(o in self.loop_enabled[1] for o in self.fact_orbit(f))

    def fact_active_io(self, f: Fact) -> bool:
        if not self.is_recurrent(fact_consts(f)):
            return False
        return any(o in self.loop_active for o in self.fact_orbit(f))

    def rule_applied_in_loop(self, name: str) -> bool:
        return any(
            self.trace.steps[j].inst.rule.name == name for j in self.loop_positions()
        )

    @cached_property
    def uber_obligation(self) -> Optional[tuple[int, Inst]]:
        """The first instantiation applicable at a reached state that is
        never applied later up to equivalence, in the recorded part or in
        the loop's future rounds, with that state's index; None if there
        is none."""
        # equivalence key -> the last position of a recorded step with that key
        last = {key: s for s, key in enumerate(self.step_keys)}
        for i in range(self.L):
            for key, inst in self.keyed[i].items():
                if last.get(key, -1) < i and key not in self.applied_keys:
                    return i, inst
        return None


def _analysis_of(lt: LassoTrace) -> _Analysis:
    """The lasso's analysis, built on first use and again once the trace
    has grown past the step count it describes."""
    an = lt._analysis
    if an is None or an.L != len(lt.trace.steps):
        an = _Analysis(lt)
        object.__setattr__(lt, "_analysis", an)
    return an


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
    done: set = set()
    out: list[Inst] = []
    for j in an.loop_positions():
        for k, inst in an.keyed[j].items():
            # a class has the same representative at every position
            if k in done:
                continue
            done.add(k)
            orbit = an.inst_orbit(inst) if an.is_recurrent(an.inst_consts(inst)) else [inst]
            # the orbit itself: distinct steps of a SillSystem share their
            # rule's name and an empty theta
            key = frozenset(orbit)
            if key in seen:
                continue
            seen.add(key)
            out.append(min(orbit, key=lambda i: (i.theta_key(), i.rule.name)))
    out.sort(key=lambda i: (i.theta_key(), i.rule.name))
    return out


def check_fairness(lt: LassoTrace, variety: str, strength: str) -> Verdict:
    """Decide a fairness property of the infinite unrolling of a lasso.

    A finite trace (no loop) is fair by definition, and no analysis is
    built for it.  Otherwise the verdict evaluates its own predicate on the
    lasso's one analysis, which the first verdict builds (raising
    ``InvalidLasso`` when the loop does not close) and later verdicts
    share, as long as the trace keeps the step count the analysis
    describes.  The verdict carries the least offending candidate as a
    witness when unfair.
    """
    if variety not in VARIETIES:
        raise ValueError(f"unknown variety {variety!r}")
    if strength not in STRENGTHS:
        raise ValueError(f"unknown strength {strength!r}")
    if lt.loop_start is None:
        return Verdict(variety, strength, True)
    an = _analysis_of(lt)

    if strength == "uber":
        if an.uber_obligation is None:
            return Verdict(variety, "uber", True)
        i, inst = an.uber_obligation
        w = _inst_witness(inst)
        w.update({"kind": "obligation", "state_index": i})
        return Verdict(variety, "uber", False, w)

    witnesses: list[tuple[tuple, dict]] = []
    if variety == "rule":
        some, every = an.loop_rules
        for r in an.mrs.rules:
            premise = r.name in (every if strength == "weak" else some)
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
                if an.inst_applicable_aa(inst) and _equiv_key(inst) not in an.applied_keys:
                    witnesses.append(((inst.theta_key(), inst.rule.name), _inst_witness(inst)))
            else:
                if an.inst_applicable_io(inst) and not an.inst_applied_io_equal(inst):
                    witnesses.append(((inst.theta_key(), inst.rule.name), _inst_witness(inst)))

    if witnesses:
        witnesses.sort(key=lambda w: w[0])
        return Verdict(variety, strength, False, witnesses[0][1])
    return Verdict(variety, strength, True)


def fairness_report(lt: LassoTrace) -> dict[tuple[str, str], Verdict]:
    """All nine verdicts on a lasso, keyed by (variety, strength): the
    ``check_fairness`` results, which share the lasso's one analysis."""
    return {(v, s): check_fairness(lt, v, s) for v in VARIETIES for s in STRENGTHS}


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
    instantiations that consume a fact whose count the step lowered are
    re-checked.  So a step costs what it touched, not the size of the state
    or of the queue, and the run is the one a full re-enumeration after
    every step would give.

    A step that changes nothing, such as a process stepping to itself,
    leaves the state object itself (see ``apply_inst``).  Every queued
    instantiation is then still applicable and none has become so, so the
    applied one alone is re-admitted at the back, and the step costs O(1):
    the enabled set is not asked.  A one-element shuffle draws no random
    number, so seeded runs keep their order.

    meta["sched"] counts the full enumerations, the candidates the enabled
    set proposed, the fresh instantiations that joined the queue after a
    step, the steps that changed nothing (``unchanged_steps``), and of the
    candidates, the steps the enabled set derived and keyed
    (``steps_derived``) and those it handed out again from its cache
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
    sched = {"full_enumerations": 1, "delta_candidates": 0, "fresh_admitted": 0,
             "unchanged_steps": 0}
    depths: list[int] = []
    while queue and len(tr.steps) < budget:
        if record_queue_depths:
            depths.append(len(queue))
        first = next(iter(queue))
        inst, eph = queue[first]
        prev = tr.final()
        step = tr.extend(inst)
        if observer is not None:
            observer(tr)
        state = tr.final()
        if state is prev:
            # nothing changed: everything queued stays applicable and
            # nothing new became so; the step goes to the back
            queue[first] = queue.pop(first)
            sched["unchanged_steps"] += 1
            continue
        drop(first)
        for f in eph:
            if state.count(f) < prev.count(f):
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
