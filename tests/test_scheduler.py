"""The fair scheduler's delta-driven enabled sets against a full rescan.

The oracle below is the scheduler as it was before enabled sets: after
every step it re-enumerates the whole state (SILL step generation, or MRS
matching by sorted pools and backtracking) and recomputes every
equivalence key with the old key built from sorted deep fact keys
(``helpers.old_equiv_key``).  The scheduler must take byte-identical steps,
since the FIFO order is part of the fairness argument.
"""

import random

from ast_oracle import subst_chan
from helpers import active, old_equiv_key, random_mrs
from test_dynamics import corpus

from sill.dynamics import SillSystem, classify_fact, config_state, initial_config, proc_fact, run
from sill.equiv import divergent
from sill.fairness import fair_execute
from sill.lang.ast import (
    Close,
    Fix,
    FVar,
    Interface,
    One,
    Plus,
    ProcF,
    Quote,
    Rec,
    SendLabel,
    SendUnfold,
    TVar,
    Unquote,
    Wait,
    fc,
)
from sill.lang.check import check_config
from sill.msr import Const, Fact, Multiset, Rule, Trace, Var, parse_system
from sill.msr.multiset import fact_key
from sill.msr.rules import Inst, Mrs, _equiv_key, _match_fact

SEEDS = (None, 0, 1, 2, 7)


# -- the oracle ----------------------------------------------------------------------


def rescan_execute(system, start, enumerate_, budget, seed=None):
    """The scheduler with a full re-enumeration after every step.

    Returns the trace and every state the run went through, kept eagerly.
    """
    tr = Trace(system, start)
    states = [start]
    rng = random.Random(seed) if seed is not None else None
    queue = list(enumerate_(start))
    if rng is not None:
        rng.shuffle(queue)
    while queue and len(tr.steps) < budget:
        inst = queue.pop(0)
        tr.extend(inst)
        state = tr.final()
        states.append(state)
        survivors = [q for q in queue if q.applicable(state)]
        known = {old_equiv_key(q) for q in survivors}
        fresh = [i for i in enumerate_(state) if old_equiv_key(i) not in known]
        if rng is not None:
            rng.shuffle(fresh)
        queue = survivors + fresh
    tr.meta["maximal"] = not queue
    return tr, states


def sill_rescan(system):
    def enumerate_(state):
        msgs, procs = {}, []
        for f in state.eph_support():
            pred, _, _, info = classify_fact(f)
            if pred == "msg":
                if info is not None:
                    msgs.setdefault(info.carrier, []).append((f, info))
            else:
                procs.append(f)
        procs.sort(key=fact_key)
        for bucket in msgs.values():
            bucket.sort(key=lambda t: fact_key(t[0]))
        out, seen = [], set()
        for f in procs:
            for inst in system._steps(f, msgs):
                k = old_equiv_key(inst)
                if k not in seen:
                    seen.add(k)
                    out.append(inst)
        return out

    return enumerate_


def _fits(pat, f):
    return f.pred == pat.pred and len(f.args) == len(pat.args)


def _rescan_match_rule(rule, state):
    pers_pool = sorted(state.pers, key=fact_key)
    eph_pool = sorted(state.eph_support(), key=fact_key)
    thetas = []

    def go_pers(i, theta):
        if i == len(rule.pers_ant):
            go_eph(0, theta, {f: state.count(f) for f in eph_pool})
            return
        for f in pers_pool:
            th = dict(theta)
            if _fits(rule.pers_ant[i], f) and _match_fact(rule.pers_ant[i], f, th) is not None:
                go_pers(i + 1, th)

    def go_eph(j, theta, avail):
        if j == len(rule.eph_ant):
            thetas.append(theta)
            return
        for f in eph_pool:
            th = dict(theta)
            if (avail[f] and _fits(rule.eph_ant[j], f)
                    and _match_fact(rule.eph_ant[j], f, th) is not None):
                avail[f] -= 1
                go_eph(j + 1, th, avail)
                avail[f] += 1

    go_pers(0, {})
    by_theta = {}
    for th in thetas:
        inst = Inst.make(rule, th)
        by_theta.setdefault(inst.theta_key(), inst)
    return [by_theta[k] for k in sorted(by_theta)]


def mrs_rescan(mrs):
    def enumerate_(state):
        out, keys = [], set()
        for rule in mrs.rules:
            for inst in _rescan_match_rule(rule, state):
                k = old_equiv_key(inst)
                if k not in keys:
                    keys.add(k)
                    out.append(inst)
        return out

    return enumerate_


def steps_of(tr):
    """Each step as rule, theta, fresh names, antecedent and consequent
    pattern, then what it produced, in order, and whether it changed the
    state and was idle.  The oracle extends its trace with ``Inst.make``
    instances, the scheduler with the matcher's, which carry their
    grounding: the produced facts compare the two groundings."""
    return [(s.inst.rule.name, s.inst.theta, s.xi, active(s.inst), s.inst.rule.eph_con,
             s.produced, s.changed, s.idle) for s in tr.steps]


def assert_same_run(system, start, enumerate_, budget, seed, label):
    got = fair_execute(system, start, budget=budget, seed=seed)
    want, states = rescan_execute(system, start, enumerate_, budget, seed)
    assert steps_of(got) == steps_of(want), label
    # the scheduler's trace rebuilds its states by replay; the oracle kept
    # them as the run went
    assert got.states == states, label
    assert got.states[-1] is got.final(), label
    assert got.meta["maximal"] == want.meta["maximal"], label
    return got


# -- SILL ------------------------------------------------------------------------


def replicated_corpus(copies):
    """Every corpus configuration, copied with its channels renamed apart:
    the facts and their interface."""
    facts, internal, provided = [], [], []
    for k in range(copies):
        for j, (_, fs, iface) in enumerate(corpus()):
            names = {n for f in fs for n in fc(f.proc) | {f.chan}}
            rho = {n: f"{n}_{j}_{k}" for n in names}
            facts += [ProcF(rho[f.chan], subst_chan(f.proc, rho)) for f in fs]
            internal += [(rho[n], t) for n, t in iface.internal]
            provided += [(rho[n], t) for n, t in iface.provided]
    iface = Interface((), tuple(internal), tuple(provided))
    check_config(facts, iface)
    return facts, iface


def test_corpus_matches_rescan():
    for name, facts, _ in corpus():
        for seed in SEEDS:
            system = SillSystem()
            tr = assert_same_run(system, config_state(facts), sill_rescan(system),
                                 200, seed, (name, seed))
            assert tr.meta["maximal"], name


def test_replicated_corpus_matches_rescan():
    start = config_state(replicated_corpus(2)[0])
    for seed in (None, 3):
        system = SillSystem()
        tr = assert_same_run(system, start, sill_rescan(system), 400, seed, seed)
        assert tr.meta["maximal"]


def beside_spins(*spins):
    """The corpus beside processes that each step to themselves, on the
    channels named."""
    facts, _ = replicated_corpus(1)
    return config_state(facts).msum(
        Multiset.of([proc_fact(c, divergent(c, One())) for c in spins]))


def test_corpus_beside_a_spin_matches_rescan():
    # a process stepping to itself keeps its step in the queue among the
    # corpus's steps, so steps that change nothing interleave with real ones
    for spins in (("spin",), ("spin", "spin2")):
        for seed in SEEDS:
            system = SillSystem()
            tr = assert_same_run(system, beside_spins(*spins), sill_rescan(system), 400,
                                 seed, (spins, seed))
            rotated = len(tr.steps) - tr.meta["loop"]["start"]
            assert 0 < rotated < tr.meta["sched"]["unchanged_steps"] < len(tr.steps)


def test_duplicated_proc_facts_match_rescan():
    # unchecked: two identical providers of a, three clients waiting on it
    start = Multiset.of([proc_fact("a", Close("a")), proc_fact("a", Close("a"))]
                        + [proc_fact(e, Wait("a", Close(e))) for e in ("e1", "e2", "e3")])
    for seed in SEEDS:
        system = SillSystem()
        tr = assert_same_run(system, start, sill_rescan(system), 50, seed, seed)
        assert tr.meta["maximal"]


# -- MRS -------------------------------------------------------------------------


def _extend(mrs, rng):
    """Add a rule that re-produces its antecedent, one whose antecedent is
    persistent, one without antecedent, or a pair that takes a q fact and
    gives it back, so that a class of stay is dropped and admitted again."""
    x = Var("x")
    extra = []
    if rng.random() < 0.5:
        extra.append(Rule("stay", ("x",), (), (Fact("q", (x,)),), (), (), (Fact("q", (x,)),)))
    if rng.random() < 0.5:
        extra.append(Rule("use", ("x",), (Fact("p", (x,), True),), (Fact("s"),), ("n",),
                          (Fact("p", (Var("n"),), True),), (Fact("q", (x,)),)))
    if rng.random() < 0.2:
        extra.append(Rule("tick", (), (), (), (), (), (Fact("s"),)))
    tokens = []
    if rng.random() < 0.5:
        extra.append(Rule("take", ("x",), (), (Fact("q", (x,)), Fact("t")), (), (),
                          (Fact("r", (x,)),)))
        extra.append(Rule("give", ("x",), (), (Fact("r", (x,)),), (), (),
                          (Fact("q", (x,)), Fact("t"))))
        tokens.append(Fact("t"))
    pers = [Fact("p", (Const(c),), True) for c in ("a", "b") if rng.random() < 0.5]
    return Mrs(mrs.rules + tuple(extra), mrs.declared,
               Multiset.of(list(mrs.initial.eph_support()) * 2 + tokens, pers))


def random_runs():
    """600 random systems, every other one extended, each with a seed."""
    rng = random.Random(20210403)
    for i in range(600):
        mrs = random_mrs(rng)
        if i % 2:
            mrs = _extend(mrs, rng)
        yield i, mrs, None if i % 3 == 0 else rng.randrange(1000)


def test_random_mrs_matches_rescan():
    for i, mrs, seed in random_runs():
        assert_same_run(mrs, mrs.initial, mrs_rescan(mrs), 12, seed, (i, mrs.rules))


def test_unchanged_steps_are_the_steps_that_change_nothing():
    rng = random.Random(20211018)
    seen = 0
    for i in range(300):
        mrs = _extend(random_mrs(rng), rng)
        seed = None if i % 3 == 0 else rng.randrange(1000)
        tr = fair_execute(mrs, mrs.initial, budget=12, seed=seed)
        states = tr.states
        same = sum(states[j + 1] == states[j] for j in range(len(tr.steps)))
        assert tr.meta["sched"]["unchanged_steps"] == same, (i, mrs.rules)
        seen += same
    assert seen


RING = """
rule pass: forall x, y. tok(x), next(x, y) -o tok(y), next(x, y)
rule stay: forall x. tok(x) -o tok(x)
init: next(n0, n1), next(n1, n2), next(n2, n3), next(n3, n4), next(n4, n5),
      next(n5, n0), tok(n0), tok(n3)
"""


def test_ring_matches_rescan():
    mrs = parse_system(RING)
    for seed in (None, 5):
        tr = assert_same_run(mrs, mrs.initial, mrs_rescan(mrs), 60, seed, seed)
        assert len(tr.steps) == 60


# -- what a run reports ----------------------------------------------------------------


def test_omega_enumerates_once():
    conat = Rec("a", Plus((("z", One()), ("s", TVar("a")))))
    w = Fix("w", Quote(("c", conat),
                       SendUnfold("c", SendLabel("c", "s", Unquote("c", FVar("w"))))))
    state, iface = initial_config(Unquote("o", w), {}, ("o", conat))
    tr = run(SillSystem(), state, iface, fuel=300)
    assert tr.meta["sched"] == {"delta_candidates": 300, "fresh_admitted": 300,
                                "unchanged_steps": 0}


# -- the keys the enabled set hands out -----------------------------------------------


class Keeping(SillSystem):
    """Keeps the enabled set of its last run, and checks every candidate
    the enabled set hands out against a key computed afresh."""

    def enabled(self, state):
        self.index = index = super().enabled(state)
        delta = index.delta

        def checked(*args):
            out = delta(*args)
            for k, inst in out:
                assert k == _equiv_key(inst), inst.to_str()
            return out

        index.delta = checked
        return index


def test_divergent_spin_derives_once():
    state, iface = initial_config(divergent("r", One()), {}, ("r", One()))
    tr = run(Keeping(), state, iface, fuel=200)
    assert len(tr.steps) == 200
    assert {s.inst.rule.name for s in tr.steps} == {"unquote"}
    # the start enumeration derives the spin; every step after leaves the
    # state as it was, so the enabled set is never asked again, and every
    # step after the first records the first one again
    sched = tr.meta["sched"]
    assert sched["unchanged_steps"] == 200
    assert len(tr.steps) - tr.meta["loop"]["start"] == 199
    assert len({id(s) for s in tr.steps}) == 1
    assert sched["delta_candidates"] == 0
    assert len({id(st) for st in tr.states}) == 1


def test_enabled_set_keys_match_fresh_keys():
    conat = Rec("a", Plus((("z", One()), ("s", TVar("a")))))
    w = Fix("w", Quote(("c", conat),
                       SendUnfold("c", SendLabel("c", "s", Unquote("c", FVar("w"))))))
    state, iface = initial_config(Unquote("o", w), {}, ("o", conat))
    assert len(run(Keeping(), state, iface, fuel=300).steps) == 300
    for _, facts, corpus_iface in corpus():
        for seed in SEEDS:
            run(Keeping(), config_state(facts), corpus_iface, fuel=200, seed=seed)
