"""Matching, application, instantiation equivalence, parallel combination.

The queue system is the running example: e1 appends at the back sentinel,
e2 walks an enqueue request down the chain.
"""

import random

import pytest
from helpers import eph_size, random_mrs

from sill.msr import rules as rules_mod
from sill.msr import (
    Const,
    Fact,
    Inst,
    Multiset,
    NotApplicable,
    Rule,
    Trace,
    Var,
    apply_inst,
    inst_equiv,
    parse_system,
    parallel_combine,
)
from sill.msr.rules import IDENTITY, FactIndex, _equiv_key, match_all, match_rule

QUEUE_SRC = """
rule e1: forall x, y. enq(x, y), queue(x, end) -o exists z. queue(x, cell(y, z)), queue(z, end)
rule e2: forall x, y, z, w. enq(x, y), queue(x, cell(z, w)) -o queue(x, cell(z, w)), enq(w, y)
init: queue(q, cell(0, qp)), queue(qp, end), enq(q, 1)
"""


@pytest.fixture
def queue():
    return parse_system(QUEUE_SRC)


def test_match_finds_the_walking_step(queue):
    e2 = queue.rule("e2")
    insts = match_rule(e2, queue.initial)
    assert len(insts) == 1
    theta = insts[0].theta_map()
    assert theta == {
        "x": Const("q"),
        "y": Const("1"),
        "z": Const("0"),
        "w": Const("qp"),
    }
    assert not match_rule(queue.rule("e1"), queue.initial)


def test_two_step_enqueue_execution(queue):
    tr = Trace(queue, queue.initial)
    (step2,) = match_all(queue.rules, queue.initial)
    assert step2.rule.name == "e2"
    tr.extend(step2)

    mid = tr.final()
    assert mid.count(parse_fact_str("enq(qp, 1)")) == 1
    assert mid.count(parse_fact_str("enq(q, 1)")) == 0

    (step1,) = match_all(queue.rules, mid)
    assert step1.rule.name == "e1"
    s = tr.extend(step1)
    z = s.xi_map()["z"]

    expected = Multiset.of(
        [
            parse_fact_str("queue(q, cell(0, qp))"),
            parse_fact_str(f"queue(qp, cell(1, {z}))"),
            parse_fact_str(f"queue({z}, end)"),
        ]
    )
    assert tr.final() == expected
    # a generated name can never collide with a declared constant
    assert z not in queue.declared


def parse_fact_str(s):
    from sill.msr import parse_fact

    return parse_fact(s)


def test_apply_accounting(queue):
    state = queue.initial
    for inst in match_all(queue.rules, state):
        result, _, _ = apply_inst(state, inst, queue.signature())
        assert eph_size(result) == eph_size(state) - eph_size(inst.eph_ant_g()) + len(
            inst.rule.eph_con
        )


def test_apply_keeps_the_state_of_a_step_that_changes_nothing():
    mrs = parse_system(
        """
        rule stay: forall x. !ok(x), tok(x) -o !ok(x), tok(x)
        rule move: forall x. tok(x) -o tok(x), !seen(x)
        init: !ok(a), tok(a)
        """
    )
    sig = mrs.signature()
    (stay,) = match_rule(mrs.rule("stay"), mrs.initial)
    assert apply_inst(mrs.initial, stay, sig)[0] is mrs.initial
    (move,) = match_rule(mrs.rule("move"), mrs.initial)
    after, _, _ = apply_inst(mrs.initial, move, sig)
    assert after is not mrs.initial and after != mrs.initial
    # once the persistent fact is there, the same step changes nothing
    assert apply_inst(after, move, sig)[0] is after


def test_apply_rejects_inapplicable(queue):
    e1 = queue.rule("e1")
    inst = Inst.make(e1, {"x": Const("q"), "y": Const("1")})
    with pytest.raises(NotApplicable):
        apply_inst(queue.initial, inst, queue.signature())


def test_persistent_facts_are_required_but_not_consumed():
    mrs = parse_system(
        """
        rule r: forall x. !lic(x), job(x) -o done(x)
        init: !lic(a), job(a), job(b)
        """
    )
    (inst,) = match_all(mrs.rules, mrs.initial)
    assert inst.theta_map() == {"x": Const("a")}
    out, _, _ = apply_inst(mrs.initial, inst, mrs.signature())
    assert out.count(Fact("lic", (Const("a"),), persistent=True)) == 1
    assert out.count(Fact("done", (Const("a"),))) == 1


def test_antecedent_parts_keep_their_persistence():
    lic, job = Fact("lic", (), persistent=True), Fact("job")
    with pytest.raises(ValueError, match="persistent fact in ephemeral"):
        Rule("r", (), (), (lic,), (), (), ())
    with pytest.raises(ValueError, match="ephemeral fact in persistent"):
        Rule("r", (), (job,), (), (), (), ())
    # and so do the consequent's, which a fired step then trusts
    with pytest.raises(ValueError, match="persistent fact in ephemeral consequent"):
        Rule("r", (), (), (), (), (), (lic,))
    with pytest.raises(ValueError, match="ephemeral fact in persistent consequent"):
        Rule("r", (), (), (), (), (job,), ())


# -- instantiation equivalence -------------------------------------------------


def test_equiv_across_different_rules():
    r1 = parse_system("rule r1: forall x, y. A(x, y) -o exists n. B(x, n)").rule("r1")
    r2 = parse_system("rule r2: forall x. A(x, x) -o exists n. B(x, n)").rule("r2")
    i1 = Inst.make(r1, {"x": Const("a"), "y": Const("a")})
    i2 = Inst.make(r2, {"x": Const("a")})
    assert inst_equiv(i1, i2)
    i3 = Inst.make(r1, {"x": Const("a"), "y": Const("b")})
    assert not inst_equiv(i3, i2)


def test_equiv_is_reflexive(queue):
    for inst in match_all(queue.rules, queue.initial):
        assert inst_equiv(inst, inst)


def test_same_consumption_different_production_not_equiv():
    sys_ = parse_system(
        """
        rule a: forall x. A(x) -o A(x)
        rule b: forall x. A(x), B -o A(x), B
        init: A(c), A(d), B
        """
    )
    a_c = Inst.make(sys_.rule("a"), {"x": Const("c")})
    b_d = Inst.make(sys_.rule("b"), {"x": Const("d")})
    assert not inst_equiv(a_c, b_d)


def test_match_dedups_equivalent_instantiations():
    # both orders of picking the two A(a) facts give the same theta, and
    # the two rules produce equivalent instantiations on x = a
    mrs = parse_system(
        """
        rule r1: forall x, y. A(x), A(y) -o B
        init: A(a), A(a)
        """
    )
    insts = match_rule(mrs.rule("r1"), mrs.initial)
    assert len(insts) == 1


# -- parallel combination -------------------------------------------------------


def test_combined_queue_rules(queue):
    e12 = parallel_combine(queue.rule("e1"), queue.rule("e2"))
    preds = sorted(f.pred for f in e12.eph_ant)
    assert preds == ["enq", "enq", "queue", "queue"]
    assert e12.cost == 2
    assert set(e12.uvars) == {"x~1", "y~1", "x~2", "y~2", "z~2", "w~2"}


def test_combined_petri_doubles_consumption():
    t1 = parse_system("rule t1: p1, p2 -o p3").rule("t1")
    t11 = parallel_combine(t1, t1)
    consumed = Multiset.of(t11.eph_ant)
    assert consumed == Multiset.of([Fact("p1"), Fact("p1"), Fact("p2"), Fact("p2")])


def test_identity_is_a_unit(queue):
    e1 = queue.rule("e1")
    assert parallel_combine(IDENTITY, e1) == e1
    assert parallel_combine(e1, IDENTITY) == e1


def _two_pass_match_all(rules, state):
    """Each rule's instantiations deduplicated by key, then all of them
    deduplicated across rules again: the enumeration before it was one
    pass."""
    out, keys = [], set()
    for r in rules:
        own, own_keys = [], set()
        for inst in FactIndex(state).insts(r):
            if _equiv_key(inst) not in own_keys:
                own_keys.add(_equiv_key(inst))
                own.append(inst)
        for inst in own:
            if _equiv_key(inst) not in keys:
                keys.add(_equiv_key(inst))
                out.append(inst)
    return out


def test_applicable_keys_each_candidate_once(monkeypatch):
    # r2 duplicates r1, and r3's (c, d) and (d, c) consume and produce alike
    mrs = parse_system("""
rule r1: forall x. a(x) -o b(x)
rule r2: forall y. a(y) -o b(y)
rule r3: forall x, y. a(x), a(y) -o a(x), a(y)
init: a(c), a(d), a(d)
""")
    keyed = []
    monkeypatch.setattr(rules_mod, "_equiv_key", lambda i: keyed.append(i) or _equiv_key(i))
    insts = mrs.applicable(mrs.initial)
    index = FactIndex(mrs.initial)
    candidates = [i for r in mrs.rules for i in index.insts(r)]
    assert keyed == candidates
    assert [i.to_str() for i in insts] == ["r1[x := c]", "r1[x := d]", "r3[x := c, y := d]",
                                           "r3[x := d, y := d]"]


def test_one_pass_enumeration_keeps_list_and_order():
    rng = random.Random(4)
    for _ in range(300):
        mrs = random_mrs(rng)
        tr = Trace(mrs, mrs.initial)
        for _ in range(4):
            insts = match_all(mrs.rules, tr.final())
            assert insts == _two_pass_match_all(mrs.rules, tr.final())
            if not insts:
                break
            tr.extend(rng.choice(insts))


def test_rename_moves_theta_or_a_ground_rule_s_facts(queue):
    inst = Inst.make(queue.rule("e2"), {"x": Const("q"), "y": Const("1"),
                                        "z": Const("0"), "w": Const("qp")})
    assert inst.consts() == {"q", "1", "0", "qp"}
    moved = inst.rename({"qp": "q#7"})
    assert moved.rule is inst.rule and moved.theta_map()["w"] == Const("q#7")
    assert inst.rename({"n#1": "n#2"}) is inst
    # a ground rule, as every SILL step is, holds its names in its facts
    def tok(a):
        return Fact("tok", (a,))

    ground = Inst.make(Rule("g", (), (), (tok(Const("a#0")),), ("v",), (),
                            (tok(Var("v")), Fact("seen", (Const("a#0"),)))), {})
    assert ground.consts() == {"a#0"}
    moved = ground.rename({"a#0": "a#1"})
    assert moved.theta == () and moved.rule.evars == ("v",)
    assert moved.rule.eph_ant == (tok(Const("a#1")),)
    assert moved.rule.eph_con == (tok(Var("v")), Fact("seen", (Const("a#1"),)))
    assert ground.rename({"b#0": "b#1"}) is ground


def test_a_given_back_fact_is_the_occurrence_matched_for_it():
    # each rule gives back antecedent patterns, persistent and ephemeral,
    # at positions the touched-first join visits out of order
    mrs = parse_system("""
rule move: forall x, y. !edge(x, y), tok(x), mark(y) -o !edge(x, y), tok(y), mark(y)
rule pair: forall x. tok(x), tok(x) -o tok(x), tok(x), seen(x)
rule swap: forall x, y. mark(y), tok(x) -o mark(x), tok(x)
init: !edge(a, b), !edge(b, a), tok(a), tok(a), mark(b), mark(a)
""")
    assert mrs.rule("move")._con_pats == {f: i for i, f in enumerate(mrs.rule("move").pers_ant
                                                                       + mrs.rule("move").eph_ant)
                                          if f.pred != "tok"}
    state = mrs.initial
    index = FactIndex(state, mrs.rules)
    seen = 0
    for rule in mrs.rules:
        touched = [[f] for f in [*state.pers, *state.eph_support()]]
        for insts in [index.insts(rule), *(index.insts(rule, t) for t in touched)]:
            for inst in insts:
                made = Inst.make(rule, inst.theta_map())
                assert inst.pers_ant_g() == made.pers_ant_g(), inst.to_str()
                assert inst.eph_ant_g() == made.eph_ant_g(), inst.to_str()
                assert inst.consequent({}) == made.consequent({}), inst.to_str()
                seen += 1
    assert seen >= 10
