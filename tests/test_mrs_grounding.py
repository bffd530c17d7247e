"""An MRS step grounds each fact once.

The matcher hands each candidate on with its ground parts: the fact
occurrences it matched are the antecedent, and the consequent is grounded
once (``Inst.matched``), taking a fact the rule gives back from the
occurrence matched for it.  The key, ``fire`` and the trace's rewrite read
those parts, and ``Trace.extend`` drops them once the step is recorded.
On the benchmark's ring (``perfbench/workloads.py``) a scheduler step then
makes at most 1 ``subst_term`` and 1 ``_ground_fact`` call, where it made
15 and 10, and a recorded step holds what an ``Inst.make`` instance holds.
"""

import gc
import random
import sys
import tracemalloc
from pathlib import Path

import pytest

from sill.fairness import LassoTrace, _analysis_of, check_fairness, fair_execute
from sill.msr import Inst, Invalid, Trace, parse_system, permute_trace, rules

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import RING_RULE, ring_nodes, ring_source  # noqa: E402

STEPS = 200


def ring(seed: int = 3):
    """The benchmark's ring at its sizes: 100 nodes, 4 tokens."""
    offset = random.Random(seed).randrange(100)
    return parse_system(ring_source(ring_nodes(100, seed), 4, offset, RING_RULE))


def test_a_ring_step_grounds_each_fact_once(monkeypatch):
    calls = {"subst_term": 0, "_ground_fact": 0}

    def counted(name):
        f = getattr(rules, name)

        def wrapper(*args):
            calls[name] += 1
            return f(*args)

        return wrapper

    def observer(tr):
        if len(tr.steps) == 1:
            # what came before is the start state's enumeration
            calls.update(subst_term=0, _ground_fact=0)

    for name in calls:
        monkeypatch.setattr(rules, name, counted(name))
    mrs = ring()
    tr = fair_execute(mrs, mrs.initial, budget=STEPS, seed=3, observer=observer)
    monkeypatch.undo()
    assert len(tr.steps) == STEPS
    # each step derives one candidate, the token's next pass: of its
    # consequent tok(y), next(x, y) only tok(y) is grounded, since
    # next(x, y) is given back as matched
    assert calls["subst_term"] <= STEPS
    assert calls["_ground_fact"] <= STEPS
    for step in tr.steps:
        made = Inst.make(step.inst.rule, dict(step.inst.theta))
        assert step.inst == made and hash(step.inst) == hash(made)
        assert step.inst._matched is None


def test_matched_candidates_carry_the_grounding_of_a_fresh_instance():
    mrs = ring()
    for inst in mrs.applicable(mrs.initial):
        made = Inst.make(inst.rule, dict(inst.theta))
        assert inst._matched is not None and made._matched is None
        assert inst.pers_ant_g() == made.pers_ant_g()
        assert inst.eph_ant_g() == made.eph_ant_g()
        assert inst.consequent({}) == made.consequent({})
        assert rules._equiv_key(inst) == rules._equiv_key(made)


def test_a_lasso_analysis_keeps_no_grounding():
    # its applicable sets hold matcher-built representatives for as long
    # as the lasso lives, and none of them is fired
    mrs = ring()
    lt = LassoTrace(fair_execute(mrs, mrs.initial, budget=100, seed=3), 0)
    assert check_fairness(lt, "inst", "uber").fair
    keyed = _analysis_of(lt).keyed
    assert len(keyed) == 100
    assert all(inst._matched is None for insts in keyed for inst in insts.values())


def retained(build):
    """What build returns, and the bytes that stay allocated with it."""
    gc.collect()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = build()
        gc.collect()
        return kept, tracemalloc.get_traced_memory()[0] - before
    finally:
        if not tracing:
            tracemalloc.stop()


def test_a_recorded_ring_trace_holds_no_more_than_a_replay():
    # the replay records Inst.make instances, which never carried parts:
    # the trace a run recorded when nothing kept a grounding
    mrs = ring()
    run = lambda: fair_execute(mrs, mrs.initial, budget=STEPS, seed=3)  # noqa: E731
    run()
    tr, size = retained(run)
    steps = [(s.inst.rule, s.inst.theta, s.xi_map()) for s in tr.steps]
    del tr

    def replay():
        out = Trace(mrs, mrs.initial)
        for rule, theta, xi in steps:
            out.extend(Inst.make(rule, dict(theta)), xi)
        return out

    replay()
    _, plain = retained(replay)
    assert size <= 1.05 * plain, (size, plain)


def test_replay_and_permutation_check_each_step_once(monkeypatch):
    # fire checks applicability; Inst.applicable is not asked before it
    def refuse(*_):
        raise AssertionError("applicability checked twice")

    mrs = parse_system("""
        rule mk: forall x. a(x) -o b(x)
        rule use: forall x. b(x) -o c(x)
        init: a(k)
        """)
    tr = fair_execute(mrs, mrs.initial, budget=10)
    data = tr.to_json()
    monkeypatch.setattr(Inst, "applicable", refuse)
    back, _ = Trace.from_json(data)
    assert back.final() == tr.final()
    data["steps"].reverse()
    with pytest.raises(Invalid) as e:
        Trace.from_json(data)
    assert (e.value.index, e.value.reason) == (0, "use[x := k] not applicable")
    with pytest.raises(Invalid) as e:
        permute_trace(tr, [1, 0])
    assert (e.value.index, e.value.reason) == (
        0, "use[x := k] not applicable after permutation")
