"""Fairness checking on lassos and the scheduler's queue discipline.

The three two-rule systems below are the classical separators: each is
fair in two varieties in the strong sense and fails the third already in
the weak sense.
"""

import random

import pytest

from fairness_oracles import _ReferenceAnalysis, definitional_report, reference_check_fairness

from sill.dynamics import SillSystem, initial_config, proc_fact
from sill.equiv import divergent
from sill.fairness import (STRENGTHS, VARIETIES, InvalidLasso, LassoTrace, _analysis_of,
                           check_fairness, fair_execute, fairness_report)
from sill.lang.ast import Close, Cut, Fix, FVar, One, Quote, Unquote, Wait
from sill.msr import (Const, Fact, Inst, Multiset, Rule, Trace, Var, fact_to_str, inst_equiv,
                      parse_system)
from sill.msr.rules import Mrs, _equiv_key, match_all


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


# -- one analysis per lasso, against both references -------------------------------


def _random_permuting_system(rng):
    """Generated names shuffled round by the loop, so the recurrence
    renaming has cycles of length two or three and facts have orbits of
    several elements; rules may require persistent facts, so persistent
    facts are enabled too."""
    names = ["u", "v", "w"][: rng.randint(2, 3)]
    uvars = ["x", "y", "z"][: len(names)]
    tok = "tok({})".format
    made = [tok(", ".join(names))]
    made += [f"p({rng.choice(names)})" for _ in range(rng.choice([0, 0, 1, 2, 3]))]
    made += [f"!s({n})" for n in names if rng.random() < 0.2]
    rules = [f"rule mk: go -o exists {', '.join(names)}. {', '.join(made)}"]
    for i in range(rng.randint(1, 3)):
        perm = rng.sample(uvars, len(uvars))
        ant, con = [tok(", ".join(uvars))], [tok(", ".join(perm))]
        if rng.random() < 0.5:
            v = rng.choice(uvars)
            copies = rng.randint(1, 2)
            ant += [f"p({v})"] * copies
            con += [f"p({rng.choice([v, perm[uvars.index(v)]])})"] * copies
        pers = [f"!s({rng.choice(uvars + ['a'])})"] if rng.random() < 0.5 else []
        rules.append(f"rule l{i}: forall {', '.join(uvars)}. "
                     f"{', '.join(pers + ant)} -o {', '.join(pers + con)}")
    init = ["go"] + (["!s(a)"] if rng.random() < 0.5 else [])
    return parse_system("\n".join(rules) + f"\ninit: {', '.join(init)}\n")


def _random_walk(mrs, budget, rng):
    """A run that applies a random applicable instantiation at each step,
    fair or not."""
    tr = Trace(mrs, mrs.initial)
    for _ in range(budget):
        insts = match_all(mrs.rules, tr.final())
        if not insts:
            break
        tr.extend(rng.choice(insts))
    return tr


def _random_lassos(seed, count):
    """Lassos of both random families (tagged state-preserving rules over
    declared constants, and generated names permuted by the loop), each cut
    from a fair run or from a random walk."""
    rng = random.Random(seed)
    out = []
    for n in range(count):
        mrs = (_random_looping_system if n % 2 else _random_permuting_system)(rng)
        budget = rng.randint(3, 8)
        if n % 4 < 2:
            tr = fair_execute(mrs, mrs.initial, budget=budget, seed=rng.randint(0, 10**6))
        else:
            tr = _random_walk(mrs, budget, rng)
        # every loop start that closes the whole run, or failing that the
        # longest lasso of a prefix
        found = []
        for k in range(len(tr.steps)):
            lt = LassoTrace(tr, k)
            try:
                _analysis_of(lt)
            except InvalidLasso:
                continue
            found.append(lt)
        lt = _find_lasso(tr) if tr.steps and not found else None
        out += found if lt is None else [LassoTrace(lt.trace, lt.loop_start)]
    return out


def _ring_lasso(nodes):
    """One token passed once round a ring of the given nodes while `stay`
    stays applicable and never fires."""
    src = ("rule pass: forall x, y. tok(x), next(x, y) -o tok(y), next(x, y)\n"
           "rule stay: forall x. tok(x) -o tok(x)\ninit: "
           + ", ".join(f"next({a}, {b})" for a, b in zip(nodes, nodes[1:] + nodes[:1]))
           + f", tok({nodes[0]})\n")
    mrs = parse_system(src)
    steps = [("pass", {"x": a, "y": b}) for a, b in zip(nodes, nodes[1:] + nodes[:1])]
    return LassoTrace(build_trace(mrs, steps), 0)


# pair[a] needs both copies of p(a); moving the token takes one away
PAIR_SYS = """
rule move: forall x, y. tok(x), p(x), next(x, y) -o tok(y), p(y), next(x, y)
rule pair: forall x. p(x), p(x) -o p(x), p(x)
init: tok(a), p(a), p(a), next(a, b), next(b, a)
"""


# the loop swaps u and v; p(u) is enabled at the loop's one state, p(v) is
# not, so in the unrolled trace p(u) is enabled every other state only
SWAP_SYS = """
rule mk: go -o exists u, v. tok(u, v), p(u), p(v)
rule swap: forall x, y. tok(x, y) -o tok(y, x)
rule look: forall x, y. tok(x, y), p(x) -o tok(x, y), p(x)
init: go
"""


def _fixed_lassos(lasso1, lasso2, lasso3):
    prefix = parse_system(PREFIX_SYS)
    tr = build_trace(prefix, [("start", {}), ("pass", {"x": "n0", "y": "n1"}),
                              ("pass", {"x": "n1", "y": "n0"})])
    pair = build_trace(parse_system(PAIR_SYS), [("move", {"x": "a", "y": "b"}),
                                                ("move", {"x": "b", "y": "a"})])
    swap_sys = parse_system(SWAP_SYS)
    swap = Trace(swap_sys, swap_sys.initial)
    xi = swap.extend(Inst.make(swap_sys.rule("mk"), {})).xi_map()
    swap.extend(Inst.make(swap_sys.rule("swap"), {"x": Const(xi["u"]), "y": Const(xi["v"])}))
    # four tokens passed round twelve nodes by the fair scheduler, which
    # brings them back after twelve steps
    nodes = [f"n{(5 * i) % 12}" for i in range(12)]
    ring = parse_system(
        "rule pass: forall x, y. tok(x), next(x, y) -o tok(y), next(x, y)\ninit: "
        + ", ".join(f"next({a}, {b})" for a, b in zip(nodes, nodes[1:] + nodes[:1]))
        + ", " + ", ".join(f"tok({n})" for n in nodes[::3]) + "\n")
    run = fair_execute(ring, ring.initial, budget=12, seed=3)
    assert run.final() == ring.initial
    return [lasso1, lasso2, lasso3, LassoTrace(tr, 1), LassoTrace(pair, 0), LassoTrace(swap, 1),
            _ring_lasso([f"n{i}" for i in range(6)]), LassoTrace(run, 0)]


def _assert_matches_reference(lt):
    report = fairness_report(lt)
    fresh = LassoTrace(lt.trace, lt.loop_start)
    for (variety, strength), v in report.items():
        assert v == reference_check_fairness(fresh, variety, strength), (variety, strength)
    an = _analysis_of(lt)
    for j in range(len(lt.trace.steps)):
        assert list(an.keyed[j].values()) == lt.trace.mrs.applicable(lt.trace.states[j]), j


def test_shared_analysis_matches_reference_checker(lasso1, lasso2, lasso3):
    lassos = _random_lassos(7, 250) + _fixed_lassos(lasso1, lasso2, lasso3)
    periods = [max(_ReferenceAnalysis(lt).cyc.values(), default=1) for lt in lassos]
    assert len(lassos) >= 100 and sum(p > 1 for p in periods) >= 10
    for lt in lassos:
        _assert_matches_reference(lt)


def test_verdicts_match_the_definitions_on_unrolled_lassos(lasso1, lasso2, lasso3):
    lassos = _random_lassos(11, 150) + _fixed_lassos(lasso1, lasso2, lasso3)
    unfair = 0
    for lt in lassos:
        fair = {key: v.fair for key, v in fairness_report(lt).items()}
        assert fair == definitional_report(lt), (
            lt.trace.mrs.source, [s.to_str() for s in lt.trace.steps], lt.loop_start)
        unfair += sum(not v for v in fair.values())
    assert unfair >= 50


def test_ring_with_stay_pins_all_nine_verdicts():
    lt = _ring_lasso([f"n{(7 * i) % 20}" for i in range(20)])
    fair = {key: v.fair for key, v in fairness_report(lt).items()}
    assert fair == {
        ("rule", "weak"): False, ("rule", "strong"): False, ("rule", "uber"): False,
        ("fact", "weak"): True, ("fact", "strong"): True, ("fact", "uber"): False,
        ("inst", "weak"): True, ("inst", "strong"): False, ("inst", "uber"): False,
    }
    assert fairness_report(lt)[("rule", "weak")].witness == {"kind": "rule", "rule": "stay"}


# -- the analysis kept with its lasso ---------------------------------------------


def test_extended_trace_gets_a_fresh_analysis():
    lt = _ring_lasso(["n0", "n1", "n2"])
    before = fairness_report(lt)
    first = _analysis_of(lt)
    assert before == fairness_report(lt) and _analysis_of(lt) is first
    # a second round of the same loop: the lasso grows and stays valid
    for s in list(lt.trace.steps):
        lt.trace.extend(s.inst, s.xi_map())
    after = fairness_report(lt)
    an = _analysis_of(lt)
    assert an is not first and an.L == 6
    assert after == fairness_report(LassoTrace(lt.trace, 0))


def test_report_is_the_nine_verdicts(lasso1, lasso2):
    for lt in (lasso1, lasso2):
        report = fairness_report(lt)
        assert list(report) == [(v, s) for v in VARIETIES for s in STRENGTHS]
        assert report == {(v, s): check_fairness(LassoTrace(lt.trace, lt.loop_start), v, s)
                          for v, s in report}


def test_lasso_without_loop_builds_no_analysis():
    lt = LassoTrace(build_trace(parse_system(SEP1), [("a", {"x": "c"})]))
    assert all(v.fair for v in fairness_report(lt).values())
    assert not lt.trace.memo


def test_invalid_lasso_raises_on_every_verdict():
    mrs = parse_system(SEP2)
    tr = Trace(mrs, mrs.initial)
    tr.extend(Inst.make(mrs.rule("r"), {"x": Const("a"), "y": Const("b0")}))
    lt = LassoTrace(tr, 0)
    for variety, strength in [("rule", "weak"), ("inst", "uber")]:
        with pytest.raises(InvalidLasso):
            check_fairness(lt, variety, strength)
    assert not lt.trace.memo


def _two_spin_lassos():
    # two divergent spins: every step is a ground rule named unquote with
    # an empty theta
    state = Multiset.of([proc_fact("r", divergent("r", One())),
                         proc_fact("q", divergent("q", One()))])
    system = SillSystem()
    for picks in ([0], [1], [0, 1]):
        tr = Trace(system, state)
        for p in picks:
            tr.extend(system.applicable(state)[p])
        yield picks, LassoTrace(tr, 0)


def _spawning_lasso():
    # each round cuts a fresh channel x, closes and waits on it, and
    # unquotes the loop again beside a divergent spin
    body = Cut("x", One(), Close("x"), Wait("x", Unquote("z", FVar("w"), ())))
    loop = Unquote("c", Fix("w", Quote(("z", One()), body, ())), ())
    state, _ = initial_config(loop, {}, ("c", One()))
    state = state.msum(Multiset.of([proc_fact("r", divergent("r", One()))]))
    return LassoTrace(fair_execute(SillSystem(), state, budget=12), 3)


def test_sill_steps_of_one_rule_stay_distinct_candidates():
    # candidates must not be told apart by rule name and theta
    for picks, lt in _two_spin_lassos():
        fair = {key: v.fair for key, v in fairness_report(lt).items()}
        assert fair == definitional_report(lt)
        both = len(picks) == 2
        assert fair[("inst", "weak")] == fair[("inst", "strong")] == both
        assert fair[("fact", "weak")] == both and fair[("rule", "weak")]


def _spawning_lasso_without_spin():
    # the spawning lasso's steps without those of the divergent spin on r,
    # which stays applicable and is never applied
    lt = _spawning_lasso()
    tr = Trace(lt.trace.mrs, lt.trace.initial, lt.trace.sig0)
    for s in lt.trace.steps:
        if s.inst.rule.eph_ant[0].args[0] != Const("r"):
            tr.extend(s.inst, s.xi_map())
    return LassoTrace(tr, 2)


def test_the_reference_checker_applies_the_definitions_to_sill_lassos():
    # the reference keys SILL steps by their facts, not by rule name and
    # theta, and counts the images of transient loop steps as applied
    lassos = ([lt for _, lt in _two_spin_lassos()]
              + [_spawning_lasso(), _spawning_lasso_without_spin()])
    for lt in lassos:
        fresh = lambda: LassoTrace(lt.trace, lt.loop_start)  # noqa: E731
        want = {key: reference_check_fairness(fresh(), *key)
                for key in ((v, s) for v in VARIETIES for s in STRENGTHS)}
        assert {key: v.fair for key, v in want.items()} == definitional_report(lt)
        assert want == fairness_report(fresh())


def test_a_loop_that_moves_names_is_fair_in_every_sense():
    # the loop closes under {x'0: x'1}: one_r on x'1, applicable at the
    # last state, is applied on x'1 in the next round
    lt = _spawning_lasso()
    assert _analysis_of(lt).rho == {"x'0": "x'1"}
    fair = {key: v.fair for key, v in fairness_report(lt).items()}
    assert all(fair.values()) and fair == definitional_report(lt)


def test_a_loop_that_moves_names_and_starves_a_spin_is_unfair():
    lt = _spawning_lasso_without_spin()
    assert len(lt.trace.steps) == 6 and _analysis_of(lt).rho == {"x'0": "x'1"}
    report = fairness_report(lt)
    fair = {key: v.fair for key, v in report.items()}
    assert fair == definitional_report(lt)
    assert [key for key, v in fair.items() if v] == [("rule", "weak"), ("rule", "strong")]
    # a ground step has no theta: its witness names the facts it consumes
    spin = fact_to_str(proc_fact("r", divergent("r", One())))
    for strength in STRENGTHS:
        w = report["inst", strength].witness
        assert (w["rule"], w["theta"], w["consumed"]) == ("unquote", {}, [spin]), strength
    assert report["fact", "weak"].witness == {"kind": "fact", "fact": spin}


def test_sill_lasso_replay_matches_full_enumeration():
    # compared as sets: the replay orders SILL classes by their consumed
    # facts, not as SillSystem.applicable does
    lassos = [lt for _, lt in _two_spin_lassos()] + [_spawning_lasso()]
    for lt in lassos:
        an = _analysis_of(lt)
        for j, state in enumerate(lt.trace.states[:-1]):
            assert set(an.keyed[j]) == {_equiv_key(i) for i in SillSystem().applicable(state)}, j
