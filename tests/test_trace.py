"""Trace construction, serialization, permutation, union equivalence."""

import json
import random

import pytest

from sill.msr import Invalid, Multiset, Trace, parse_system, permute_trace, union_equivalent
from sill.msr.rules import match_all

ADD = """
rule a_z: forall n, l. add(z, n, l) -o val(l, n)
rule a_s: forall m, n, l. add(s(m), n, l) -o add(m, s(n), l)
init: add(s(s(z)), s(s(s(z))), loc)
"""


def run_to_end(mrs, cap=50):
    tr = Trace(mrs, mrs.initial)
    for _ in range(cap):
        insts = match_all(mrs.rules, tr.final())
        if not insts:
            break
        tr.extend(insts[0])
    return tr


def test_json_roundtrip_replays_identically():
    mrs = parse_system(ADD)
    tr = run_to_end(mrs)
    assert [s.inst.rule.name for s in tr.steps] == ["a_s", "a_s", "a_z"]

    data = tr.to_json(include_states=True)
    assert data["states"] == [
        {"ephemeral": ["add(s(s(z)), s(s(s(z))), loc)"], "persistent": []},
        {"ephemeral": ["add(s(z), s(s(s(s(z)))), loc)"], "persistent": []},
        {"ephemeral": ["add(z, s(s(s(s(s(z))))), loc)"], "persistent": []},
        {"ephemeral": ["val(loc, s(s(s(s(s(z))))))"], "persistent": []},
    ]
    blob = json.dumps(data)
    back, loop = Trace.from_json(json.loads(blob))
    assert loop is None
    assert back.final() == tr.final()
    assert [s.xi for s in back.steps] == [s.xi for s in tr.steps]


def test_replay_rejects_bad_step():
    mrs = parse_system(ADD)
    tr = run_to_end(mrs)
    data = tr.to_json()
    data["steps"][0]["rule"] = "a_z"
    with pytest.raises(Invalid):
        Trace.from_json(data)


def test_replay_requires_system():
    mrs = parse_system(ADD)
    data = run_to_end(mrs).to_json()
    del data["system"]
    with pytest.raises(ValueError):
        Trace.from_json(data)
    Trace.from_json(data, mrs)  # explicit system works


SPAWN = """
rule spawn: forall x. seed(x) -o exists n. link(x, n), !born(n), seed(n)
init: seed(a)
"""


def test_states_replay_once_then_follow_extend():
    mrs = parse_system(SPAWN)
    tr = Trace(mrs, mrs.initial)
    assert tr.states == [mrs.initial]
    tr = Trace(mrs, mrs.initial)
    eager = [tr.final()]
    for n in range(5):
        if n == 3:
            states = tr.states
            assert states == eager and states[-1] is tr.final()
        tr.extend(match_all(mrs.rules, tr.final())[0])
        eager.append(tr.final())
    assert tr.states is states
    assert states == eager and states[-1] is tr.final()
    eph = {f for st in eager for f in st.eph_support()}
    assert tr.supp() == Multiset.of(eph, tr.final().pers)
    assert tr.to_json(include_states=True)["states"][2] == {
        "ephemeral": ["link(a, spawn#0)", "link(spawn#0, spawn#1)", "seed(spawn#1)"],
        "persistent": ["!born(spawn#0)", "!born(spawn#1)"],
    }


TWO_TOKENS = """
rule left: l(x0) -o done_l
rule right: r(x0) -o done_r
init: l(x0), r(x0)
"""


def test_independent_steps_permute():
    mrs = parse_system(TWO_TOKENS)
    tr = Trace(mrs, mrs.initial)
    a, b = match_all(mrs.rules, mrs.initial)
    tr.extend(a)
    tr.extend(b)
    swapped = permute_trace(tr, [1, 0])
    assert swapped.final() == tr.final()
    assert union_equivalent(tr, swapped)


def test_dependent_steps_do_not_permute():
    mrs = parse_system(
        """
        rule mk: a -o b
        rule use: b -o c
        init: a
        """
    )
    tr = Trace(mrs, mrs.initial)
    tr.extend(match_all(mrs.rules, tr.final())[0])
    tr.extend(match_all(mrs.rules, tr.final())[0])
    with pytest.raises(Invalid) as e:
        permute_trace(tr, [1, 0])
    assert e.value.index == 0


def test_union_equivalence_ignores_fresh_names():
    mrs = parse_system(
        """
        rule spawn: seed -o exists n. node(n)
        init: seed
        """
    )
    t1 = Trace(mrs, mrs.initial)
    t1.extend(match_all(mrs.rules, t1.final())[0])
    t2 = Trace(mrs, mrs.initial)
    t2.extend(match_all(mrs.rules, t2.final())[0], {"n": "spawn#99"})
    assert t1.steps[0].xi != t2.steps[0].xi
    assert union_equivalent(t1, t2)


def test_union_equivalence_sees_different_support():
    mrs = parse_system(
        """
        rule r1: A -o B
        rule r2: A -o C
        init: A
        """
    )
    t1 = Trace(mrs, mrs.initial)
    t1.extend(match_all([mrs.rule("r1")], mrs.initial)[0])
    t2 = Trace(mrs, mrs.initial)
    t2.extend(match_all([mrs.rule("r2")], mrs.initial)[0])
    assert not union_equivalent(t1, t2)


def test_permutation_must_be_a_permutation():
    mrs = parse_system(TWO_TOKENS)
    tr = Trace(mrs, mrs.initial)
    with pytest.raises(ValueError):
        permute_trace(tr, [0, 0])
