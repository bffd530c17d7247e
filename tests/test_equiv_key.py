"""The equivalence key built from facts against the old key built from
sorted deep fact keys (``helpers.old_equiv_key``).

Both keys must split the same instantiations into the same classes, so
for every pair of instantiations the two keys agree on whether the pair is
equivalent.  The pools are every instantiation applicable at some state of
a run: random MRS systems extended with rules that have several fresh
names, an unused fresh name and persistent consequents, and every SILL
step of the dynamics corpus.
"""

import random

from helpers import old_equiv_key, random_mrs
from test_dynamics import corpus

from sill.dynamics import SillSystem, _StepIndex, config_state
from sill.fairness import fair_execute
from sill.msr import Const, Fact, Multiset, Rule, Var
from sill.msr.rules import FactIndex, Inst, Mrs, _equiv_key
from sill.msr.terms import Wrap

SEEDS = (None, 0, 1, 2, 7)


def classes(keys):
    """The partition of positions that a list of keys induces."""
    out: dict = {}
    for i, k in enumerate(keys):
        out.setdefault(k, []).append(i)
    return sorted(out.values())


def assert_same_classes(insts, label):
    assert classes([old_equiv_key(i) for i in insts]) == classes(
        [_equiv_key(i) for i in insts]), label


# -- MRS -------------------------------------------------------------------------------

X, Y, N, M, K = (Var(v) for v in "xynmk")


def q(t):
    return Fact("q", (t,))


def r(a, b):
    return Fact("r", (a, b))


def p(t, persistent=False):
    return Fact("p", (t,), persistent)


# pairs of rules whose instantiations are equivalent across rules: two and
# owt (the fresh names swapped in the consequent), unused and one (a fresh
# name that occurs nowhere), re and nore (re-asserting a required
# persistent fact)
EXTRA = (
    Rule("two", ("x",), (), (q(X),), ("n", "m"), (), (r(N, M), p(X))),
    Rule("owt", ("x",), (), (q(X),), ("n", "m"), (), (r(M, N), p(X))),
    Rule("sym", ("x",), (), (q(X),), ("n", "m"), (), (r(N, M), r(M, N))),
    Rule("tri", ("x",), (), (q(X),), ("n", "m", "k"), (), (r(N, M), r(M, K))),
    Rule("unused", ("x",), (), (q(X),), ("n", "u"), (), (p(N),)),
    Rule("one", ("x",), (), (q(X),), ("n",), (), (p(N),)),
    Rule("mark", ("x",), (), (q(X),), ("n",), (p(N, True),), (q(X),)),
    Rule("re", ("x",), (p(X, True),), (Fact("s"),), (), (p(X, True),), ()),
    Rule("nore", ("x",), (p(X, True),), (Fact("s"),), (), (), ()),
    Rule("twice", ("x", "y"), (), (q(X), q(Y)), ("n",), (), (r(X, N),)),
    Rule("drop", ("x",), (), (q(X),), (), (), ()),
    Rule("drop2", ("x",), (), (q(X), q(X)), (), (), ()),
)


def extended(mrs, rng):
    rules = mrs.rules + tuple(rule for rule in EXTRA if rng.random() < 0.6)
    extra = [q(Const(c)) for c in ("a", "b") if rng.random() < 0.7] + [Fact("s")]
    pers = [p(Const(c), True) for c in ("a", "b") if rng.random() < 0.5]
    return Mrs(rules, mrs.declared,
               Multiset.of(list(mrs.initial.eph_support()) + extra, pers))


def mrs_pool(mrs, seed):
    tr = fair_execute(mrs, mrs.initial, budget=8, seed=seed)
    return [i for st in tr.states for rule in mrs.rules for i in FactIndex(st).insts(rule)]


def test_random_mrs_classes_agree():
    rng = random.Random(20210404)
    sizes = []
    for n in range(300):
        mrs = extended(random_mrs(rng), rng)
        pool = mrs_pool(mrs, None if n % 3 == 0 else rng.randrange(1000))
        assert_same_classes(pool, (n, mrs.rules))
        sizes.append(len(pool) - len(classes([_equiv_key(i) for i in pool])))
    # the pools do put equivalent instantiations together
    assert sum(sizes) > 500


def test_cross_rule_equivalences():
    state = Multiset.of([q(Const("a")), q(Const("a")), Fact("s")], [p(Const("a"), True)])
    by_rule = {rule.name: FactIndex(state).insts(rule) for rule in EXTRA}
    for a, b in (("two", "owt"), ("unused", "one"), ("re", "nore")):
        assert _equiv_key(by_rule[a][0]) == _equiv_key(by_rule[b][0]), (a, b)
        assert old_equiv_key(by_rule[a][0]) == old_equiv_key(by_rule[b][0]), (a, b)
    for a, b in (("two", "sym"), ("drop", "drop2")):
        assert _equiv_key(by_rule[a][0]) != _equiv_key(by_rule[b][0]), (a, b)


# -- SILL ------------------------------------------------------------------------------


def test_corpus_step_classes_agree():
    for name, facts, _ in corpus():
        for seed in SEEDS:
            system = SillSystem()
            tr = fair_execute(system, config_state(facts), budget=200, seed=seed)
            pool = [s.inst for s in tr.steps]
            for st in tr.states:
                index = _StepIndex(system, st)
                pool += [i for _, i in index.steps(index.procs)]
            assert_same_classes(pool, (name, seed))


# -- where the keys differ ---------------------------------------------------------------


def test_wrap_payloads_compare_by_equality():
    # the old key compared a payload by its printed text, so two payloads
    # that print alike fell into one class; the new key keeps them apart.
    # No SILL step of the corpus has such a pair (the test above).
    def step(payload):
        rule = Rule("w", (), (), (Fact("v", (Wrap(payload),)),), (), (), ())
        return Inst.make(rule, {})

    assert old_equiv_key(step(1)) == old_equiv_key(step("1"))
    assert _equiv_key(step(1)) != _equiv_key(step("1"))
    assert _equiv_key(step(1)) == _equiv_key(step(1))
