"""Equivalence keys over placeholder variables, against the old key.

``_equiv_key`` puts the variables ``KEY_VARS`` for a rule's existentials
and keys a validated ground rule whose existentials already bear those
names by its own facts; a SILL step, a ``Rule.ground`` rule, it keys by
the facts the step consumes.  It must split instantiations into the
classes that ``helpers.old_equiv_key`` (constant placeholders, every
permutation grounded) gives.  The pools: SILL steps of the wide benchmark
configuration and of an endless sender, and random MRS systems whose
rules have two or three existentials, among them an existential named
``nc`` (the first placeholder's name) in any position, a universal named
``nc``, ground rules and each rule's copies with its existentials renamed
and reordered.
"""

import random
import sys
from itertools import permutations
from pathlib import Path

import pytest
from helpers import old_equiv_key
from test_equiv_key import assert_same_classes, classes
from test_obs import CONAT, omega_proc

from sill.dynamics import _EVAR, SillSystem, _StepIndex, config_state, initial_config
from sill.fairness import fair_execute
from sill.lang import check_module, parse
from sill.msr import Const, Fact, Multiset, Rule, Var
from sill.msr.rules import KEY_VARS, FactIndex, Mrs, _equiv_key
from sill.msr.terms import subst_term

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import wide_source  # noqa: E402


def sill_pool(state, fuel, seed=None):
    """Every step taken by a run and every step enabled at its states."""
    system = SillSystem()
    tr = fair_execute(system, state, budget=fuel, seed=seed)
    pool = [s.inst for s in tr.steps]
    for st in tr.states:
        index = _StepIndex(system, st)
        pool += [i for _, i in index.steps(index.procs)]
    return pool


def test_sill_steps_are_keyed_by_their_own_facts():
    assert _EVAR == KEY_VARS[0] == "nc"
    src, _ = wide_source(4, 1)
    mod = parse(src)
    check_module(mod)
    state, iface = initial_config(omega_proc(), {}, ("o", CONAT))
    for pool in (sill_pool(config_state(mod.configs["wide"].facts), 10_000, 1),
                 sill_pool(state, 200)):
        assert_same_classes(pool, "sill")
        for inst in pool:
            rule = inst.rule
            assert rule.evars in ((), (_EVAR,))
            # what the step consumes, with multiplicities, and no consequent
            ant_p, ant_e, con = _equiv_key(inst)
            assert ant_p == frozenset() and con is None
            assert ant_e == frozenset((f, rule.eph_ant.count(f)) for f in rule.eph_ant)


# -- random MRS pools --------------------------------------------------------------------

CONSTS = ("a", "b")
EVAR_NAMES = ("n", "m", "k", "nc")


def _arg(rng, names):
    return Var(rng.choice(names)) if names and rng.random() < 0.75 else Const(rng.choice(CONSTS))


def random_rules(rng, i):
    """A rule with two or three existentials, all in its consequent, and
    its copies with the existentials renamed and reordered."""
    ground = rng.random() < 0.25
    uvars = () if ground else tuple(rng.sample(("x", "nc"), rng.randint(1, 2)))
    pool = [v for v in EVAR_NAMES if v not in uvars]
    evars = tuple(rng.sample(pool, rng.randint(2, min(3, len(pool)))))
    ant = [Fact("q", (Var(v),)) for v in uvars] or [Fact("q", (Const(rng.choice(CONSTS)),))]
    if rng.random() < 0.3:
        ant.append(Fact("q", (_arg(rng, uvars),)))
    con = [Fact("r", (Var(v), _arg(rng, uvars + evars))) for v in evars]
    con += [Fact(rng.choice("pq"), (_arg(rng, uvars + evars),)) for _ in range(rng.randint(0, 2))]
    rng.shuffle(con)
    pers = (Fact("p", (Var(evars[-1]),), True),) if rng.random() < 0.2 else ()
    rules = [Rule(f"r{i}", uvars, (), tuple(ant), evars, pers, tuple(con))]
    for j in range(2):
        if j == 0 and "nc" not in uvars:
            # the placeholders' own names, in order
            new = order = list(KEY_VARS[:len(evars)])
        else:
            new = rng.sample([v for v in EVAR_NAMES + KEY_VARS[1:3] if v not in uvars],
                             len(evars))
            order = rng.sample(new, len(new))
        ren = {v: Var(w) for v, w in zip(evars, new)}
        rules.append(Rule(f"r{i}_{j}", uvars, (), tuple(ant), tuple(order),
                          tuple(Fact(f.pred, tuple(subst_term(a, ren) for a in f.args), True)
                                for f in pers),
                          tuple(Fact(f.pred, tuple(subst_term(a, ren) for a in f.args))
                                for f in con)))
    return rules


def random_system(rng):
    rules = [r for i in range(rng.randint(1, 3)) for r in random_rules(rng, i)]
    facts = [Fact("q", (Const(rng.choice(CONSTS)),)) for _ in range(rng.randint(1, 3))]
    return Mrs(tuple(rules), frozenset(CONSTS), Multiset.of(facts))


def test_random_pools_with_several_existentials_agree():
    rng = random.Random(2104_01065)
    merged = named_nc = universal_nc = 0
    for n in range(150):
        mrs = random_system(rng)
        tr = fair_execute(mrs, mrs.initial, budget=4, seed=n)
        pool = [i for st in tr.states[:3] for rule in mrs.rules
                for i in FactIndex(st).insts(rule)]
        assert_same_classes(pool, (n, mrs.rules))
        merged += len(pool) - len(classes([_equiv_key(i) for i in pool]))
        named_nc += sum("nc" in i.rule.evars[1:] for i in pool)
        universal_nc += sum("nc" in i.rule.uvars for i in pool)
    # the copies put equivalent instantiations together, and every case
    # the placeholders' names could meet occurs
    assert merged > 300 and named_nc > 50 and universal_nc > 50


def test_a_rule_named_like_the_placeholders_keys_like_any_other():
    q, r = (lambda *a: Fact("q", a)), (lambda *a: Fact("r", a))
    N, M, X = Var("n"), Var("m"), Var("x")
    state = Multiset.of([q(Const("a")), q(Const("a"))])

    def key(uvars, ant, evars, con):
        rule = Rule("t", uvars, (), ant, evars, (), con)
        (inst,) = FactIndex(state).insts(rule)
        return _equiv_key(inst), old_equiv_key(inst)

    P0, P1 = (Var(v) for v in KEY_VARS[:2])
    ground = (q(Const("a")),)
    base, old = key((), ground, ("n", "m"), (r(N, M), q(N)))
    # the same consequent over the placeholders' own names, in either order,
    # is the same class
    assert key((), ground, ("nc", KEY_VARS[1]), (r(P0, P1), q(P0))) == (base, old)
    assert key((), ground, (KEY_VARS[1], "nc"), (r(P1, P0), q(P1))) == (base, old)
    assert key((), ground, ("m", "nc"), (r(P0, M), q(P0))) == (base, old)
    # a universal named nc is ground before the placeholders go in
    universal = key(("nc",), (q(Var("nc")),), ("n", "m"), (r(N, M), q(N)))
    assert universal == (base, old)
    assert key(("nc",), (q(Var("nc")),), ("n", "m"), (r(N, Var("nc")), q(N)))[0] != base
    # a swapped consequent is another class under every naming
    for evars in permutations(("n", "m")):
        assert key((), ground, evars, (r(M, N), q(N)))[0] != base
    assert key(("x",), (q(X),), ("n", "m"), (r(N, M), q(N)))[0] == base


def test_a_rule_with_more_existentials_than_placeholders_is_refused():
    evars = tuple(f"n{i}" for i in range(len(KEY_VARS) + 1))
    con = tuple(Fact("p", (Var(v),)) for v in evars)
    Rule("wide", (), (), (), evars[1:], (), con[1:])
    with pytest.raises(ValueError, match="existential"):
        Rule("wide", (), (), (), evars, (), con)
