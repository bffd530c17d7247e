"""Fairness checking on lassos and the scheduler's queue discipline.

The three two-rule systems below are the classical separators: each is
fair in two varieties in the strong sense and fails the third already in
the weak sense.
"""

import random

import pytest

from sill.fairness import InvalidLasso, LassoTrace, check_fairness, fair_execute
from sill.msr import Const, Fact, Inst, Multiset, Rule, Trace, Var, inst_equiv, parse_system
from sill.msr.rules import Mrs, match_all


def build_trace(mrs, steps):
    """steps: list of (rule_name, {var: const_name})."""
    tr = Trace(mrs, mrs.initial)
    for name, theta in steps:
        inst = Inst.make(mrs.rule(name), {v: Const(c) for v, c in theta.items()})
        tr.extend(inst)
    return tr


SEP1 = """
rule a: forall x. A(x) -o A(x)
rule b: forall x. A(x), B -o A(x), B
init: A(c), A(d), B
"""


@pytest.fixture
def lasso1():
    mrs = parse_system(SEP1)
    tr = build_trace(mrs, [("a", {"x": "c"}), ("b", {"x": "d"})])
    return LassoTrace(tr, 0)


SEP2 = """
rule r: forall x, y. A(x), B(y) -o exists z. A(x), B(z)
init: A(a), A(ap), B(b0)
"""


@pytest.fixture
def lasso2():
    mrs = parse_system(SEP2)
    tr = Trace(mrs, mrs.initial)
    tr.extend(Inst.make(mrs.rule("r"), {"x": Const("a"), "y": Const("b0")}))
    fresh = tr.steps[0].xi_map()["z"]
    tr.extend(Inst.make(mrs.rule("r"), {"x": Const("a"), "y": Const(fresh)}))
    return LassoTrace(tr, 1)


SEP3 = """
rule a: forall x. A(x) -o exists y. A(y)
rule b: forall x. B(x) -o exists y. B(y)
rule i: forall x, y. A(x), B(y) -o A(x), B(y)
init: A(a0), B(b0)
"""


@pytest.fixture
def lasso3():
    mrs = parse_system(SEP3)
    tr = Trace(mrs, mrs.initial)
    cur_a, cur_b = "a0", "b0"
    for _ in range(2):
        s = tr.extend(Inst.make(mrs.rule("a"), {"x": Const(cur_a)}))
        cur_a = s.xi_map()["y"]
        s = tr.extend(Inst.make(mrs.rule("b"), {"x": Const(cur_b)}))
        cur_b = s.xi_map()["y"]
    return LassoTrace(tr, 2)


def verdicts(lt):
    out = {}
    for variety in ("rule", "fact", "inst"):
        for strength in ("weak", "strong"):
            out[(variety, strength)] = check_fairness(lt, variety, strength).fair
    out["uber"] = check_fairness(lt, "inst", "uber").fair
    return out


def test_first_separator_fails_instantiation_fairness_only(lasso1):
    v = verdicts(lasso1)
    assert v[("rule", "strong")] and v[("rule", "weak")]
    assert v[("fact", "strong")] and v[("fact", "weak")]
    assert not v[("inst", "weak")] and not v[("inst", "strong")]
    assert not v["uber"]
    w = check_fairness(lasso1, "inst", "weak").witness
    assert w == {"kind": "instantiation", "rule": "b", "theta": {"x": "c"}}


def test_second_separator_fails_fact_fairness_only(lasso2):
    v = verdicts(lasso2)
    assert v[("rule", "strong")] and v[("rule", "weak")]
    assert v[("inst", "strong")] and v[("inst", "weak")]
    assert not v[("fact", "weak")] and not v[("fact", "strong")]
    assert not v["uber"]
    w = check_fairness(lasso2, "fact", "weak").witness
    assert w == {"kind": "fact", "fact": "A(ap)"}


def test_third_separator_fails_rule_fairness_only(lasso3):
    v = verdicts(lasso3)
    assert v[("fact", "strong")] and v[("fact", "weak")]
    assert v[("inst", "strong")] and v[("inst", "weak")]
    assert not v[("rule", "weak")] and not v[("rule", "strong")]
    assert not v["uber"]
    w = check_fairness(lasso3, "rule", "weak").witness
    assert w == {"kind": "rule", "rule": "i"}


def test_finite_traces_are_fair():
    mrs = parse_system(SEP1)
    tr = build_trace(mrs, [("a", {"x": "c"})])
    lt = LassoTrace(tr)
    for variety in ("rule", "fact", "inst"):
        for strength in ("weak", "strong", "uber"):
            assert check_fairness(lt, variety, strength).fair


def test_loop_must_return_up_to_renaming():
    mrs = parse_system(SEP2)
    tr = Trace(mrs, mrs.initial)
    tr.extend(Inst.make(mrs.rule("r"), {"x": Const("a"), "y": Const("b0")}))
    # the single step consumes the declared constant b0, which can never
    # come back, so the whole trace is not a loop
    with pytest.raises(InvalidLasso):
        check_fairness(LassoTrace(tr, 0), "rule", "weak")


def test_loop_start_bounds_checked():
    mrs = parse_system(SEP1)
    tr = build_trace(mrs, [("a", {"x": "c"})])
    with pytest.raises(InvalidLasso):
        LassoTrace(tr, 1)
    with pytest.raises(InvalidLasso):
        LassoTrace(tr, -1)


# -- scheduler -------------------------------------------------------------------


PREFIX_SYS = """
rule start: go -o tok(n0)
rule pass: forall x, y. tok(x), next(x, y) -o tok(y), next(x, y)
init: go, next(n0, n1), next(n1, n0)
"""


def test_uber_counts_the_step_at_its_own_position():
    # start is applicable only at state 0 and applied there, before the
    # loop: the obligation it raises is met by that very step
    mrs = parse_system(PREFIX_SYS)
    tr = build_trace(mrs, [("start", {}), ("pass", {"x": "n0", "y": "n1"}),
                           ("pass", {"x": "n1", "y": "n0"})])
    lt = LassoTrace(tr, 1)
    for variety in ("rule", "fact", "inst"):
        assert check_fairness(lt, variety, "uber").fair, variety


QUEUE_SYS = """
rule e1: forall x, y. enq(x, y), queue(x, end) -o exists z. queue(x, cell(y, z)), queue(z, end)
rule e2: forall x, y, z, w. enq(x, y), queue(x, cell(z, w)) -o queue(x, cell(z, w)), enq(w, y)
init: queue(q, end), enq(q, 1), enq(q, 2)
"""


def test_scheduler_reaches_a_maximal_execution():
    mrs = parse_system(QUEUE_SYS)
    tr = fair_execute(mrs, mrs.initial, budget=100)
    assert tr.meta["maximal"]
    assert not match_all(mrs.rules, tr.final())
    # two enqueues walk to the back: two cells hang off the sentinel chain
    cells = [f for f in tr.final().eph_support() if f.pred == "queue"]
    assert len(cells) == 3


def test_scheduler_is_deterministic_per_seed():
    mrs = parse_system(QUEUE_SYS)
    t1 = fair_execute(mrs, mrs.initial, budget=100, seed=5)
    t2 = fair_execute(mrs, mrs.initial, budget=100, seed=5)
    assert [s.inst for s in t1.steps] == [s.inst for s in t2.steps]
    assert [s.xi for s in t1.steps] == [s.xi for s in t2.steps]


def test_uber_bound_applied_within_queue_depth_or_invalidated():
    # an instantiation applicable at step i is applied (up to equivalence)
    # within queue-depth further steps, unless a competing step consumed
    # part of its antecedent in that window
    mrs = parse_system(QUEUE_SYS)
    for seed in range(10):
        tr = fair_execute(mrs, mrs.initial, budget=100, seed=seed, record_queue_depths=True)
        depths = tr.meta["queue_depths"]
        for i in range(len(tr.steps)):
            for inst in match_all(mrs.rules, tr.states[i]):
                end = min(i + depths[i], len(tr.steps))
                applied = any(inst_equiv(tr.steps[s].inst, inst) for s in range(i, end))
                dropped = any(
                    not inst.applicable(tr.states[s]) for s in range(i + 1, end + 1)
                )
                assert applied or dropped, (
                    f"seed {seed}: {inst.to_str()} survives past depth {depths[i]} at step {i}"
                )


def test_observer_sees_every_step():
    mrs = parse_system(QUEUE_SYS)
    seen = []
    tr = fair_execute(mrs, mrs.initial, budget=50, observer=lambda t: seen.append(t.final()))
    assert seen == tr.states[1:]
    for i, step in enumerate(tr.steps):
        assert step.inst.applicable(tr.states[i])


# -- implication chain on random lassos -------------------------------------------


def _tagged_rule(rng, i):
    """A state-preserving rule carrying a unique tag fact on both sides.

    The tag pins down the rule and the full substitution from the grounded
    antecedent alone, so equivalent instantiations are equal, and since the
    consequent reproduces the antecedent (possibly refreshing one fact's
    arguments), runs keep revisiting states up to renaming.
    """
    uvars = ["x", "y"][: rng.randint(0, 2)]
    tag = Fact(f"t{i}", tuple(Var(v) for v in uvars))

    def arg():
        if uvars and rng.random() < 0.6:
            return Var(rng.choice(uvars))
        return Const(rng.choice(["a", "b"]))

    extra = []
    for _ in range(rng.randint(1, 2)):
        pred, ar = rng.choice([("p", 1), ("q", 1), ("r", 2)])
        extra.append(Fact(pred, tuple(arg() for _ in range(ar))))

    evars, con_extra = [], []
    for f in extra:
        if rng.random() < 0.4:
            evars = ["n"]
            con_extra.append(Fact(f.pred, tuple(Var("n") for _ in f.args)))
        else:
            con_extra.append(f)
    return Rule(
        f"r{i}", tuple(uvars), (), (tag,) + tuple(extra), tuple(evars), (), (tag,) + tuple(con_extra)
    )


def _random_looping_system(rng):
    rules = tuple(_tagged_rule(rng, i) for i in range(rng.randint(1, 3)))
    facts = []
    for i, r in enumerate(rules):
        n_tag_args = len(r.eph_ant[0].args)
        facts.append(Fact(f"t{i}", tuple(Const(rng.choice(["a", "b"])) for _ in range(n_tag_args))))
    for _ in range(rng.randint(1, 3)):
        pred, ar = rng.choice([("p", 1), ("q", 1), ("r", 2)])
        facts.append(Fact(pred, tuple(Const(rng.choice(["a", "b"])) for _ in range(ar))))
    return Mrs(rules, frozenset({"a", "b"}), Multiset.of(facts))


def _find_lasso(tr):
    for end in range(len(tr.steps), 0, -1):
        sub = Trace(tr.mrs, tr.initial, tr.sig0)
        for s in tr.steps[:end]:
            sub.extend(s.inst, s.xi_map())
        for k in range(end):
            lt = LassoTrace(sub, k)
            try:
                check_fairness(lt, "rule", "weak")
                return lt
            except InvalidLasso:
                continue
    return None


def test_fairness_implication_chain_on_random_lassos():
    rng = random.Random(99)
    found = 0
    for _ in range(150):
        mrs = _random_looping_system(rng)
        tr = fair_execute(mrs, mrs.initial, budget=6, seed=rng.randint(0, 10**6))
        if not tr.steps:
            continue
        lt = _find_lasso(tr)
        if lt is None:
            continue
        found += 1
        uber = check_fairness(lt, "inst", "uber").fair
        for variety in ("rule", "fact", "inst"):
            strong = check_fairness(lt, variety, "strong").fair
            weak = check_fairness(lt, variety, "weak").fair
            if uber:
                assert strong, f"uber but not strong {variety}: {mrs}"
            if strong:
                assert weak, f"strong but not weak {variety}: {mrs}"
    assert found >= 10
