"""Fairness: lasso-trace checking and the fair round-robin scheduler.

An eventually periodic infinite run is given as a finite trace plus the
index where the loop starts; the states at the loop boundaries must agree
up to a renaming of generated constants.  That recurrence renaming drives
the whole analysis through one walk: a ground object (a fact, or an
instantiation, whose names sit in theta or, for a ground rule, in the
rule's facts) is renamed round after round while its generated constants
lie in the renaming's domain.  The renaming is injective, so the walk
either returns to the object, which then recurs in the unrolled infinite
trace with the walk as its orbit, or leaves the domain: the object names
a constant born inside the loop and is transient, present in finitely
many rounds only.  A loop step's images along its walk, recurrent or not,
are what the later rounds apply, and they meet the über obligations of
the recorded states.

Varieties of fairness quantify over rules, facts, or instantiations; each
comes in a weak (almost-always applicable/enabled implies applied) and a
strong (infinitely-often implies applied) form.  The über form demands
that anything ever applicable is eventually applied up to instantiation
equivalence.

A lasso has one analysis (``_Analysis``), built by its first verdict and
kept in its trace's ``memo`` under its loop start.  It describes the
trace at the step count it was built for: every later verdict on the same
lasso reads it, and a verdict on a trace extended in the meantime builds
a fresh one.  The analysis and the fair scheduler keep the applicable
instantiations of the current state in one structure (``_Applicable``),
which takes the start's from the run's one index of its state and
advances them by one update, shared by the scheduler and the replay.
The analysis is built by one
in-place replay of the recorded steps, which holds one state and
never reads ``Trace.states``; it keeps each position's instantiations
with their equivalence keys, which also carry their antecedent facts.
What the verdicts read is collected once, on first use: what is
applicable or enabled at some loop state and at every one, the steps of
the loop's later rounds, and each fact and instantiation orbit with the
predicates the weak and strong verdicts test.  So the first verdict of
a variety walks the orbits, and every other verdict of that variety
filters precomputed flags in O(candidates) and formats its witness.  The
über verdict reads no variety's candidates: it is one obligation,
computed once for all three.  The scheduler records every step it
takes from its queue by ``Trace.extend`` and counts the idle steps in a
row (steps that left the state as it was and bound no fresh name).  Once
that count reaches the queue's length, every live class has just taken
an idle step, no step can change the state again, and the queue only
rotates: the run's loop has closed, and the scheduler records the rest
of its fuel from that cycle of steps, checked once, in O(1) per step.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, Optional

from .msr.canon import find_renaming
from .msr.multiset import Fact, Multiset, fact_key, fact_to_str
from .msr.rules import Inst, Mrs, _equiv_key, fire
from .msr.terms import term_to_str
from .msr.trace import Step, Trace

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
    key: in both of its forms (a validated rule's, with the consequent's
    variants, and a ``Rule.ground`` rule's, with None for them)
    ``rules._equiv_key`` puts the ground persistent antecedent first and
    the ground ephemeral one, as (fact, multiplicity) pairs, second."""
    ant_p, ant_e, _ = key
    yield from ant_p
    for f, _ in ant_e:
        yield f


class _Applicable:
    """The applicable instantiations of a run's current state, one per
    equivalence class, kept under their equivalence keys in admission
    order, and advanced step by step through the system's enabled set.

    The run indexes its state once, in the enabled set
    (``mrs.enabled(start)``), which proposes, in enumeration order and
    with their keys, the applicable instantiations with an antecedent fact
    among the facts it is given.  Each one has such a fact in the start or
    has no antecedent, so proposing for every fact of the start enumerates
    it.  ``after``, the one update, which the scheduler and the lasso
    replay share, follows a step that changed the state: only the live
    instantiations that consume a fact the step consumed can stop being
    applicable, each re-checked against the counts its key records, and
    an instantiation applicable after the step but not live has an
    antecedent fact the step touched.  So a step costs what it touched,
    not the size of the state, and the live set is the one a full
    re-enumeration would give.  Equivalent instantiations consume the same
    facts, the second part of their key, so a class is applicable as a
    whole.  ``proposed`` counts the candidates proposed after the start.
    """

    def __init__(self, mrs: Mrs, start: Multiset, rng: Optional[random.Random] = None):
        self.live: dict[tuple, Inst] = {}
        # ephemeral fact -> keys of the live instantiations that consume it
        self.needs: dict[Fact, dict[tuple, None]] = {}
        self.rng = rng
        self.enabled = mrs.enabled(start)
        self._admit(self.enabled.delta(start, (), [*start.pers, *start.eph_support()]))
        self.proposed = 0

    def drop(self, key: tuple) -> None:
        del self.live[key]
        for f, _ in key[1]:
            keys = self.needs[f]
            del keys[key]
            if not keys:
                del self.needs[f]

    def after(self, key: tuple, step: Step, state: Multiset) -> list[tuple[tuple, Inst]]:
        """Move to state, which step, an application of the live class key,
        made by changing the state before: drop that class and those the
        step disabled, propose from the facts it touched (produced, consumed
        and still present, or required), and return what ``_admit`` admits."""
        self.drop(key)
        consumed = [f for f, _ in key[1]]
        for f in consumed:
            for k in [k for k in self.needs.get(f, ())
                      if any(state.count(g) < m for g, m in k[1])]:
                self.drop(k)
        kept = [f for f in consumed if state.count(f)]
        touched = list(dict.fromkeys([*step.produced, *kept, *key[0]]))
        candidates = self.enabled.delta(state, [f for f in consumed if f not in kept], touched)
        self.proposed += len(candidates)
        return self._admit(candidates)

    def _admit(self, candidates: list[tuple[tuple, Inst]]) -> list[tuple[tuple, Inst]]:
        """Admit the candidates that are not live, one per key, in
        enumeration order or shuffled under the rng; return them."""
        fresh: dict[tuple, Inst] = {}
        for key, inst in candidates:
            if key not in self.live:
                fresh.setdefault(key, inst)
        out = list(fresh.items())
        if self.rng is not None:
            self.rng.shuffle(out)
        for key, inst in out:
            self.live[key] = inst
            for f, _ in key[1]:
                self.needs.setdefault(f, {})[key] = None
        return out


class _Analysis:
    """Recurrence structure of a validated lasso, the applicable
    instantiations at each of its positions, and the orbits the verdicts
    test.

    It describes the trace as it was when built, ``L`` steps long, and is
    shared by every verdict on the lasso, so everything in it is computed
    at most once.  Building it replays the recorded steps once, in place,
    on one copy of the initial state, with ``rules.fire`` and the recorded
    fresh names: the pass advances one ``_Applicable`` into each position's
    applicable set (``keyed``), and at the loop start it finds the
    recurrence renaming ``rho`` onto the final state, raising
    ``InvalidLasso`` when there is none.  No state but the replayed one is
    held, and ``Trace.states`` is not read, so the analysis costs O(steps)
    in memory beside the applicable sets.  The rest is lazy and cached:
    what is applicable or enabled at some loop state and at every one, the
    steps of the loop's later rounds, the über obligation, and the fact
    and instantiation orbits with the predicates the verdicts test
    (``fact_orbits``, ``inst_orbits``).  The first verdict of a variety
    computes those; the other verdicts filter the flags and format a
    witness.

    One walk (``images``) follows a fact or an instantiation through the
    rounds of the unrolled trace: its images under ``rho``.  An object
    recurs when the walk returns to it, and then it and its images are its
    orbit; a walk that leaves rho's domain marks a transient object.  Weak
    and strong verdicts read orbits.  The über obligation of an
    instantiation applicable at a recorded state is met by a later recorded
    step of its class or by an image of a loop step (``later_steps``),
    recurrent or not: a loop step whose next-round image acts on a name
    born in this round is transient, yet that image is applied.

    The replay's ``_Applicable`` takes the start's classes from the one
    index of the replayed state, and each recorded step that changed the
    state advances it by the scheduler's own update (``_Applicable.after``).
    Each position keeps one representative per applicable class under its
    key, in rule order, then theta, then, for a ground step, the facts it
    consumes: for an ``Mrs`` the list ``mrs.applicable`` gives.  (The
    generated rules of a ``SillSystem`` have no rule order.)
    """

    def __init__(self, lt: LassoTrace):
        tr = lt.trace
        if tr.mrs is None:
            raise ValueError("trace carries no rewriting system")
        assert lt.loop_start is not None
        self.trace = tr
        self.mrs = tr.mrs
        self.k = lt.loop_start
        self.L = len(tr.steps)
        declared = tr.sig0.declared
        self.rigid = lambda c: c in declared
        self.step_keys = [_equiv_key(s.inst) for s in tr.steps]
        self.keyed = self._replay()

    def _replay(self) -> list[dict[tuple, Inst]]:
        """For each state j < L, its applicable instantiations, one per
        equivalence class, under their keys, in enumeration order; sets
        ``rho`` on the way."""
        tr = self.trace
        rank: dict = {}
        for i, r in enumerate(self.mrs.rules):
            rank.setdefault(r, i)

        def order(inst: Inst) -> tuple:
            # a SillSystem has no rules, and hashing a step's rule would
            # build its template's consequent only for this lookup
            return (rank.get(inst.rule, len(rank)) if rank else 0, inst.theta_key(),
                    [fact_key(f) for f in _consumed(inst)])

        state, sig = tr.initial.copy(), tr.sig0
        app = _Applicable(self.mrs, state)
        # each live class's place in the order, taken when it is admitted
        orders = {key: order(inst) for key, inst in app.live.items()}
        out = []
        for j, step in enumerate(tr.steps):
            if j == self.k:
                rho = find_renaming(state, tr.final(), self.rigid)
                if rho is None:
                    raise InvalidLasso(
                        "loop endpoint is not the loop start up to renaming generated constants"
                    )
                self.rho = rho
            out.append(dict(sorted(app.live.items(), key=lambda entry: orders[entry[0]])))
            if j == self.L - 1:
                break
            sig, _, con = fire(state, step.inst, sig, step.xi_map())
            if con is not None:
                applied = self.step_keys[j]
                # the step's key holds its ephemeral antecedent, already grounded
                state.rewrite_in_place(Multiset._make(dict(applied[1]), frozenset()), con)
                for key, inst in app.after(applied, step, state):
                    orders[key] = order(inst)
        # no representative is fired, so none keeps the matcher's grounding
        for keyed in out:
            for inst in keyed.values():
                inst.release()
        return out

    def images(self, x) -> tuple[list, bool]:
        """The walk of x, a fact or an instantiation, under rho:
        x.rename(rho)^m for m = 1, 2, ..., taken while the generated
        constants of the last image lie in rho's domain, and stopped when x
        returns, which is not listed; and whether x returned.  rho is
        injective, so the walk either returns, and then x recurs with x and
        the images as its orbit, or leaves rho's domain, and then x is
        transient.  Either way the images are what later rounds of the loop
        make of x, as far as they name constants of the recorded trace."""
        rho, names = self.rho, {c for c in x.consts() if not self.rigid(c)}
        if not names:
            return [], True  # rho moves generated constants only: x is fixed
        out, y = [], x
        while names <= rho.keys():
            y = y.rename(rho)
            if y == x:
                return out, True
            out.append(y)
            names = {rho[c] for c in names}
        return out, False

    def loop_positions(self) -> range:
        return range(self.k, self.L)

    # -- what the loop states hold -------------------------------------------

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
    def loop_applied(self) -> set[str]:
        """Names of the rules some loop step applies."""
        return {self.trace.steps[j].inst.rule.name for j in self.loop_positions()}

    @cached_property
    def loop_active(self) -> set[Fact]:
        """Facts some loop step consumes or requires."""
        return {f for j in self.loop_positions() for f in _ant_facts(self.step_keys[j])}

    # -- what the unrolled infinite trace applies ----------------------------

    @cached_property
    def later_steps(self) -> dict[Inst, tuple]:
        """The steps of the loop's later rounds that name only constants of
        the recorded trace, with their equivalence keys: the orbits of the
        recurrent loop steps and the images of the transient ones."""
        out: dict[Inst, tuple] = {}
        for j in self.loop_positions():
            x = self.trace.steps[j].inst
            walk, recurrent = self.images(x)
            if recurrent:
                out[x] = self.step_keys[j]
            for y in walk:
                if y not in out:
                    out[y] = _equiv_key(y)
        return out

    @cached_property
    def later_keys(self) -> set[tuple]:
        return set(self.later_steps.values())

    @cached_property
    def uber_obligation(self) -> Optional[tuple[int, Inst]]:
        """The first instantiation applicable at a reached state that is
        never applied later up to equivalence, in the recorded part or in
        the loop's later rounds, with that state's index; None if there
        is none."""
        # equivalence key -> the last position of a recorded step with that key
        last = {key: s for s, key in enumerate(self.step_keys)}
        for i in range(self.L):
            for key, inst in self.keyed[i].items():
                if last.get(key, -1) < i and key not in self.later_keys:
                    return i, inst
        return None

    # -- the orbits the weak and strong verdicts test ------------------------

    @cached_property
    def fact_orbits(self) -> list[tuple[Fact, bool, bool, bool, bool]]:
        """Each fact of the trace's support, in fact order, with what the
        fact verdicts test of its orbit: whether it recurs, whether some
        member is active (``loop_active``), whether every member is enabled
        at every loop state, and whether some member is enabled at some
        loop state.  The members of a recurrent orbit share one walk."""
        some, every = self.loop_enabled
        flags: dict[Fact, tuple[bool, bool, bool, bool]] = {}
        out = []
        for f in sorted(self.trace.supp().support(), key=fact_key):
            if f not in flags:
                walk, recurrent = self.images(f)
                orbit = {f, *walk}
                tested = (recurrent, not orbit.isdisjoint(self.loop_active), orbit <= every,
                          not orbit.isdisjoint(some))
                flags.update(dict.fromkeys(orbit if recurrent else [f], tested))
            out.append((f, *flags[f]))
        return out

    @cached_property
    def inst_orbits(self) -> list[tuple[Inst, bool, bool]]:
        """The recurrent instantiations applicable at loop states, one per
        orbit, in witness order: the orbit's least member, and whether the
        orbit is starved weakly (every member is applicable at every loop
        state, and the class found first is never applied in a later
        round) and strongly (some member is applicable at some loop state,
        and the least member is never applied in a later round).  A
        transient instantiation is applicable at finitely many states of
        the unrolled trace, so it is no candidate."""
        some, every = self.loop_keys
        done: set = set()
        out = []
        for j in self.loop_positions():
            for k, inst in self.keyed[j].items():
                # a class has the same representative at every position
                if k in done:
                    continue
                done.add(k)
                walk, recurrent = self.images(inst)
                if recurrent:
                    keys = [k, *map(_equiv_key, walk)]
                    done.update(keys)
                    least = min([inst, *walk], key=_inst_order)
                    weak = all(key in every for key in keys) and k not in self.later_keys
                    strong = any(key in some for key in keys) and least not in self.later_steps
                    out.append((least, weak, strong))
        out.sort(key=lambda c: _inst_order(c[0]))
        return out


def _analysis_of(lt: LassoTrace) -> _Analysis:
    """The lasso's analysis, kept in its trace's ``memo`` under its loop
    start with the step count it describes (``_Analysis.L``): built on
    first use and again once the trace has grown."""
    memo, key = lt.trace.memo, (_Analysis, lt.loop_start)
    an = memo.get(key)
    if an is None or an.L != len(lt.trace.steps):
        an = memo[key] = _Analysis(lt)
    return an


def _consumed(inst: Inst) -> list[Fact]:
    """What tells apart the ground steps of one rule name, which have no
    theta: the facts they consume, in fact order; empty for other steps."""
    return [] if inst.theta else sorted(inst.rule.eph_ant, key=fact_key)


def _inst_order(inst: Inst) -> tuple:
    """The order of instantiation witnesses."""
    return inst.theta_key(), inst.rule.name, [fact_key(f) for f in _consumed(inst)]


def _inst_witness(inst: Inst) -> dict:
    w = {
        "kind": "instantiation",
        "rule": inst.rule.name,
        "theta": {v: term_to_str(t) for v, t in inst.theta},
    }
    if not inst.theta:
        w["consumed"] = [fact_to_str(f) for f in _consumed(inst)]
    return w


def check_fairness(lt: LassoTrace, variety: str, strength: str) -> Verdict:
    """Decide a fairness property of the infinite unrolling of a lasso.

    A finite trace (no loop) is fair by definition, and no analysis is
    built for it.  Otherwise the verdict reads the lasso's one analysis,
    which the first verdict builds (raising ``InvalidLasso`` when the loop
    does not close) and later verdicts share, as long as the trace keeps
    the step count the analysis describes.  A weak or strong verdict
    filters its variety's candidates, in witness order, by the flags the
    analysis computed for them once (``loop_rules``, ``fact_orbits``,
    ``inst_orbits``); an über verdict reads the one obligation.  The
    verdict carries the least offending candidate as a witness when
    unfair, formatted anew for each verdict.
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

    weak = strength == "weak"
    if variety == "rule":
        some, every = an.loop_rules
        starved = [r.name for r in an.mrs.rules
                   if r.name in (every if weak else some) and r.name not in an.loop_applied]
        if starved:
            return Verdict(variety, strength, False, {"kind": "rule", "rule": min(starved)})
    elif variety == "fact":
        for f, recurrent, active, always, sometimes in an.fact_orbits:
            if recurrent and not active and (always if weak else sometimes):
                return Verdict(variety, strength, False, {"kind": "fact", "fact": fact_to_str(f)})
    else:
        for inst, starved_weak, starved_strong in an.inst_orbits:
            if starved_weak if weak else starved_strong:
                return Verdict(variety, strength, False, _inst_witness(inst))
    return Verdict(variety, strength, True)


def fairness_report(lt: LassoTrace) -> dict[tuple[str, str], Verdict]:
    """All nine verdicts on a lasso, keyed by (variety, strength): the
    ``check_fairness`` results, which share the lasso's one analysis."""
    return {(v, s): check_fairness(lt, v, s) for v in VARIETIES for s in STRENGTHS}


# -- the fair scheduler --------------------------------------------------------


def fair_execute(
    mrs: Mrs,
    start: Multiset,
    budget: int = 1000,
    seed: Optional[int] = None,
    observer: Optional[Callable[[Trace], None]] = None,
    record_queue_depths: bool = False,
) -> Trace:
    """Run the FIFO scheduler over distinct applicable instantiations.

    The queue is the run's ``_Applicable``: exactly the applicable
    instantiations, oldest first, one per instantiation-equivalence class.
    The start's come from the run's one index of its state, the enabled
    set.  After a step that changed the state, the update the lasso replay
    shares (``_Applicable.after``) drops the applied instantiation and the
    disabled ones; the survivors keep their order and the newly applicable
    ones, the applied one again if it still applies, join at the back
    (shuffled when a seed is given, otherwise in enumeration order).
    Anything that stays applicable is therefore applied within
    queue-length steps, and a run that empties its queue is a maximal
    execution.  A run is über fair when no step disables another class;
    where steps conflict, a class disabled before its turn is never
    applied.

    The queue and the enabled set read the trace's live state, which no
    step copies, and every step the queue hands out is recorded by
    ``Trace.extend``.  A step that changes nothing (``Step.changed``),
    such as a process stepping to itself, leaves every queued
    instantiation applicable and makes none so, so the applied one alone
    goes to the back, and the enabled set is not asked.  A one-element
    shuffle draws no random number, so seeded runs keep their order.

    ``quiet`` counts the idle steps (``Step.idle``) in a row, and any
    other step resets it.  The run's loop closes when ``quiet`` equals the
    queue's length: an idle step leaves the state as it is, so during
    those steps the queue has only rotated, they are one idle step of
    each live class in queue order, and no step changes the state again.
    The scheduler hands that cycle to ``Trace.rotate``, which checks it
    once and records the rest of the fuel from it round-robin, O(1) per
    step: the steps and observer calls of the rotating queue.  The
    counters and queue depths of those steps are added at once.
    meta["loop"] is then {"start": the index of the first step the
    rotation records, "period": the number of live classes}; it is None
    for a run that ended maximal or ran out of fuel before the loop
    closed.

    meta["sched"] counts the candidates the enabled set proposed after the
    start (the start is enumerated once), the fresh instantiations that
    joined the queue after a step, and the steps that changed nothing
    (``unchanged_steps``).  The enabled set derives every candidate it
    proposes, so ``delta_candidates`` is also the number of steps derived
    after the start.
    """
    tr = Trace(mrs, start)
    app = _Applicable(mrs, tr.live, random.Random(seed) if seed is not None else None)
    queue = app.live
    sched = {"delta_candidates": 0, "fresh_admitted": 0, "unchanged_steps": 0}
    depths: list[int] = []
    loop = None
    quiet = 0
    while queue and len(tr.steps) < budget:
        if record_queue_depths:
            depths.append(len(queue))
        first = next(iter(queue))
        step = tr.extend(queue[first])
        if observer is not None:
            observer(tr)
        if not step.changed:
            # nothing changed: everything queued stays applicable and
            # nothing new became so; the step goes to the back
            queue[first] = queue.pop(first)
            sched["unchanged_steps"] += 1
            quiet = quiet + 1 if step.idle else 0
            if quiet == len(queue):
                # every live class has just taken an idle step: no step
                # changes the state again, so the queue only rotates
                loop = {"start": len(tr.steps), "period": quiet}
                rest = budget - len(tr.steps)
                tr.rotate(tr.steps[-quiet:], budget, observer)
                sched["unchanged_steps"] += rest
                if record_queue_depths:
                    depths += [len(queue)] * rest
                break
            continue
        quiet = 0
        sched["fresh_admitted"] += len(app.after(first, step, tr.live))
    sched["delta_candidates"] = app.proposed
    tr.meta["maximal"] = not queue
    tr.meta["loop"] = loop
    tr.meta["sched"] = sched
    if record_queue_depths:
        tr.meta["queue_depths"] = depths
    return tr
