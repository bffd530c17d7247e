"""Two references for the lasso fairness checker.

``reference_check_fairness`` is the checker as it was before the lasso
analysis was shared between verdicts: every verdict builds its own
analysis and enumerates each loop state in full with ``Mrs.applicable``.
Its verdicts and witnesses are the ones ``check_fairness`` must give.  It
renames a ground step (every SILL step is one) through its facts, keys
instantiations by the definition of equivalence (``definitional_key``),
not by the engine's key, and takes the images of transient loop steps as
applied in the loop's later rounds.

``definitional_fair`` applies the definitions literally to a finite
unrolling of the lasso.  It knows nothing of orbits: it replays the loop
round after round with its constants renamed as the loop's recurrence
renaming dictates and fresh names generated anew, enumerates every state
with ``Mrs.applicable``, tests instantiations with ``Inst.applicable``,
keys them with ``definitional_key``, and reads "infinitely often" as "in
each of the last windows" and "almost always" as "at every position of
the last windows", a window being one period (the lcm of the renaming's
cycle lengths) of rounds.

Both find a lasso's recurrence renaming with ``find_renaming`` from
``canon_oracle``, the renaming search as it was before it shared one
engine with ``canonical_form``, so the differential tests also compare
the renaming the checker under test finds.
"""

import dataclasses
import itertools
import math
from typing import Iterable, Optional

from canon_oracle import find_renaming
from helpers import active

from sill.fairness import InvalidLasso, LassoTrace, Verdict
from sill.msr import Rule, Trace
from sill.msr.multiset import Fact, fact_consts, fact_key, fact_to_str
from sill.msr.rules import Inst
from sill.msr.terms import Const, rename_consts, term_consts, term_to_str

FACT_PARTS = ("pers_ant", "eph_ant", "pers_con", "eph_con")


def validated(inst: Inst) -> Inst:
    """inst over the validated rule of its rule's fields: a ground rule
    (no universal variables, as every SILL step) is built again from its
    facts, its consequent read over variables."""
    r = inst.rule
    if r.uvars:
        return inst
    return Inst(Rule(r.name, r.uvars, r.pers_ant, r.eph_ant, r.evars, r.pers_con, r.eph_con,
                     r.fresh_hints, r.cost), ())


def definitional_key(inst: Inst) -> tuple:
    """Instantiation equivalence by its definition: two instantiations are
    equivalent when they consume the same facts and produce the same facts
    up to renaming their fresh constants, the persistent consequent taken
    with the persistent antecedent.  The key is the ground antecedent and
    the set of consequents under every assignment of distinct placeholder
    constants to the existential variables, read off the rule's facts
    (``validated``)."""
    inst = validated(inst)
    ant_p = inst.pers_ant_g()
    evars = inst.rule.evars
    variants = set()
    for perm in itertools.permutations(range(len(evars))):
        pers, eph = inst.consequent({v: Const(f"\x00{i}") for v, i in zip(evars, perm)})
        variants.add((pers | ant_p, frozenset(eph.eph_items())))
    return ant_p, frozenset(inst.eph_ant_g().eph_items()), frozenset(variants)


def renamed_ground(rule: Rule, rho: dict[str, str]) -> Rule:
    """A ground rule (every SILL step is one) with the names in its facts,
    and the fresh-name hints read off them, renamed by rho."""
    hints = tuple((v, (rho.get(h, h), style)) for v, (h, style) in rule.fresh_hints)
    return dataclasses.replace(rule, fresh_hints=hints, **{
        part: tuple(f.rename(rho) for f in getattr(rule, part)) for part in FACT_PARTS})


def inst_order(inst: Inst) -> tuple:
    """The order of instantiation witnesses: theta, the rule's name, and
    for a step without theta the facts it consumes."""
    consumed = [] if inst.theta else sorted(fact_key(f) for f in inst.rule.eph_ant)
    return inst.theta_key(), inst.rule.name, consumed


# -- the checker with one analysis per verdict ----------------------------------------


class _ReferenceAnalysis:
    def __init__(self, lt: LassoTrace):
        tr = lt.trace
        self.trace = tr
        self.states = tr.states
        self.mrs = tr.mrs
        self.k = lt.loop_start
        self.L = len(tr.steps)
        declared = tr.sig0.declared
        self.rigid = lambda c: c in declared
        rho = find_renaming(self.states[self.k], self.states[self.L], self.rigid)
        if rho is None:
            raise InvalidLasso("loop endpoint is not the loop start up to renaming")
        self.rho = rho
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
        for c in self.inst_consts(inst):
            if not self.rigid(c):
                cur = c
                for _ in range(m):
                    cur = self.rho[cur]
                rho_m[c] = cur
        if not rho_m:
            return inst
        rule = inst.rule
        if rule.uvars:
            return Inst(rule, tuple((v, rename_consts(t, rho_m)) for v, t in inst.theta))
        return Inst(renamed_ground(rule, rho_m), ())

    def inst_consts(self, inst: Inst) -> set[str]:
        out: set[str] = set()
        if not inst.rule.uvars:
            for part in FACT_PARTS:
                for f in getattr(inst.rule, part):
                    out |= fact_consts(f)
        for _, t in inst.theta:
            out |= term_consts(t)
        return out

    def later_images(self, inst: Inst) -> list[Inst]:
        """What the loop's later rounds apply of a loop step, as far as it
        names constants of the recorded trace: its images under rho^m,
        m >= 1, while its generated constants lie in rho's domain."""
        names = {c for c in self.inst_consts(inst) if not self.rigid(c)}
        out = []
        for m in range(1, len(self.rho) + 2):
            if not names <= self.rho.keys():
                break
            out.append(self.shift_inst(inst, m))
            names = {self.rho[c] for c in names}
        return out

    def inst_orbit(self, inst: Inst) -> list[Inst]:
        return [self.shift_inst(inst, m) for m in range(self.period(self.inst_consts(inst)))]

    def fact_orbit(self, f: Fact) -> list[Fact]:
        out, cur = [], f
        for _ in range(self.period(fact_consts(f))):
            out.append(cur)
            cur = cur.rename(self.rho)
        return out

    def loop_positions(self) -> range:
        return range(self.k, self.L)

    def applicable_at(self, j: int) -> list[Inst]:
        if j not in self._applicable:
            self._applicable[j] = self.mrs.applicable(self.states[j])
        return self._applicable[j]

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
        return [self.trace.steps[j].inst for j in self.loop_positions()
                if self.is_recurrent(self.inst_consts(self.trace.steps[j].inst))]

    def inst_applied_io_equiv(self, inst: Inst) -> bool:
        """Whether a later round applies an instantiation equivalent to
        inst: the orbit of a recurrent loop step, or an image of a
        transient one."""
        if self._applied_keys is None:
            self._applied_keys = {
                definitional_key(o) for j in self.loop_positions()
                for o in self.later_images(self.trace.steps[j].inst)}
        return definitional_key(inst) in self._applied_keys

    def inst_applied_io_equal(self, inst: Inst) -> bool:
        return any(o == inst for step in self._loop_steps_cyclic()
                   for o in self.inst_orbit(step))

    def fact_enabled_at(self, f: Fact, j: int) -> bool:
        if j not in self._enabled_facts:
            self._enabled_facts[j] = {
                g for i in self.applicable_at(j) for g in active(i).support()
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
            act = active(self.trace.steps[j].inst)
            if any(act.count(o) > 0 for o in orbit):
                return True
        return False

    def rule_applicable_at(self, name: str, j: int) -> bool:
        return any(i.rule.name == name for i in self.applicable_at(j))

    def rule_applied_in_loop(self, name: str) -> bool:
        return any(self.trace.steps[j].inst.rule.name == name for j in self.loop_positions())


def _inst_witness(inst: Inst) -> dict:
    w = {"kind": "instantiation", "rule": inst.rule.name,
         "theta": {v: term_to_str(t) for v, t in inst.theta}}
    if not inst.theta:
        # a ground step is named by the facts it consumes
        consumed = sorted(inst.eph_ant_g().eph_items(), key=lambda fn: fact_key(fn[0]))
        w["consumed"] = [fact_to_str(f) for f, n in consumed for _ in range(n)]
    return w


def _candidate_insts(an: _ReferenceAnalysis) -> list[Inst]:
    """One instantiation per orbit of equivalence classes applicable at a
    loop state, its least member, in witness order."""
    seen: set = set()
    out: list[Inst] = []
    for j in an.loop_positions():
        for inst in an.applicable_at(j):
            orbit = an.inst_orbit(inst) if an.is_recurrent(an.inst_consts(inst)) else [inst]
            key = frozenset(definitional_key(i) for i in orbit)
            if key in seen:
                continue
            seen.add(key)
            out.append(min(orbit, key=inst_order))
    out.sort(key=inst_order)
    return out


def reference_check_fairness(lt: LassoTrace, variety: str, strength: str) -> Verdict:
    if lt.loop_start is None:
        return Verdict(variety, strength, True)
    an = _ReferenceAnalysis(lt)
    if strength == "uber":
        last = {definitional_key(step.inst): s for s, step in enumerate(an.trace.steps)}
        for i in range(an.L):
            for inst in an.applicable_at(i):
                if last.get(definitional_key(inst), -1) >= i or an.inst_applied_io_equiv(inst):
                    continue
                w = _inst_witness(inst)
                w.update({"kind": "obligation", "state_index": i})
                return Verdict(variety, "uber", False, w)
        return Verdict(variety, "uber", True)
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
                    witnesses.append((inst_order(inst), _inst_witness(inst)))
            elif an.inst_applicable_io(inst) and not an.inst_applied_io_equal(inst):
                witnesses.append((inst_order(inst), _inst_witness(inst)))
    if witnesses:
        witnesses.sort(key=lambda w: w[0])
        return Verdict(variety, strength, False, witnesses[0][1])
    return Verdict(variety, strength, True)


# -- the definitions, literally, on an unrolled lasso ---------------------------------


class Unrolled:
    """The lasso replayed for ``rounds`` rounds of its loop.

    Round 0 is the recorded loop.  Round r + 1 applies the recorded loop
    steps with their constants renamed by ``cur``: the loop start's
    constants go where the previous round took their images under the
    recurrence renaming, and names born inside the loop go to the names
    born in their place this round.  A step's theta is renamed, or, for a
    ground rule (no universal variables), the facts of the rule itself
    (``renamed_ground``).
    """

    def __init__(self, lt: LassoTrace, rounds: int):
        src = lt.trace
        self.k, self.n = lt.loop_start, len(src.steps) - lt.loop_start
        declared = src.sig0.declared
        rho = find_renaming(src.states[self.k], src.states[-1], lambda c: c in declared)
        assert rho is not None
        self.tr = Trace(src.mrs, src.initial, src.sig0)
        for s in src.steps:
            self.tr.extend(s.inst, s.xi_map())
        # round-0 name -> its name in the round being built
        m = dict(rho)
        for _ in range(1, rounds):
            cur = dict(m)
            for s in src.steps[self.k:]:
                rule = s.inst.rule
                if rule.uvars:
                    theta = {v: rename_consts(t, cur) for v, t in s.inst.theta}
                    step = self.tr.extend(Inst.make(rule, theta))
                else:
                    step = self.tr.extend(Inst.make(renamed_ground(rule, cur), {}))
                for v, name in s.xi:
                    cur[name] = step.xi_map()[v]
            m = {c: cur[rho[c]] for c in rho}
        self.cycle_lcm = 1
        for c in rho:
            d, n = rho[c], 1
            while d != c and d in rho:
                d, n = rho[d], n + 1
            if d == c:
                self.cycle_lcm = math.lcm(self.cycle_lcm, n)
        # a transient name lives fewer rounds than the loop start has names
        self.transient_rounds = len(rho) + 2


def _windows(un: Unrolled, count: int, size: int) -> list[range]:
    """The last count windows of size rounds each, as step positions."""
    end = len(un.tr.steps)
    w = size * un.n
    return [range(end - (count - i) * w, end - (count - i - 1) * w) for i in range(count)]


def unroll_for_check(lt: LassoTrace) -> tuple[Unrolled, list[range], int]:
    """Unroll far enough that every transient object has died out within
    the inspected windows and the über obligations of a full period after
    that are checked with room to be met."""
    probe = Unrolled(lt, 1)
    p, b = probe.cycle_lcm, probe.transient_rounds
    windows = b + 2
    rounds = max(windows * p, 2 * (b + p + 1))
    un = Unrolled(lt, rounds)
    return un, _windows(un, windows, p), (b + p + 1) * un.n


def definitional_report(lt: LassoTrace) -> dict[tuple[str, str], bool]:
    """Whether the lasso is fair in each (variety, strength) sense."""
    un, windows, lookahead = unroll_for_check(lt)
    tr, mrs = un.tr, lt.trace.mrs
    states = tr.states
    positions = [j for w in windows for j in w]
    app = {j: mrs.applicable(states[j]) for j in range(len(tr.steps))}
    step_keys = [definitional_key(s.inst) for s in tr.steps]
    enabled = {j: {g for i in app[j] for g in active(i).support()} for j in positions}

    uber = all(definitional_key(inst) in step_keys[i:]
               for i in range(len(tr.steps) - lookahead) for inst in app[i])
    out = {(v, "uber"): uber for v in ("rule", "fact", "inst")}
    for strength in ("weak", "strong"):

        def premise(holds_at) -> bool:
            if strength == "weak":
                return all(holds_at(j) for j in positions)
            return all(any(holds_at(j) for j in w) for w in windows)

        def applied_io(used_at) -> bool:
            return all(any(used_at(j) for j in w) for w in windows)

        out["rule", strength] = not any(
            premise(lambda j: any(i.rule.name == r.name for i in app[j]))
            and not applied_io(lambda j: tr.steps[j].inst.rule.name == r.name)
            for r in mrs.rules)
        out["fact", strength] = not any(
            premise(lambda j: f in enabled[j])
            and not applied_io(lambda j: active(tr.steps[j].inst).count(f) > 0)
            for f in set().union(*enabled.values()))
        if strength == "weak":
            used = lambda inst: lambda j: step_keys[j] == definitional_key(inst)
        else:
            used = lambda inst: lambda j: tr.steps[j].inst == inst
        out["inst", strength] = not any(
            premise(lambda j: inst.applicable(states[j])) and not applied_io(used(inst))
            for inst in {i for j in positions for i in app[j]})
    return out
