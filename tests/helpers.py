"""Shared test utilities: a small random system generator, and the
instantiation-equivalence key as it was first written, as an oracle.

Systems are tiny on purpose: up to 3 rules over a handful of predicates,
up to 4 initial facts, so bounded reachability stays enumerable.
"""

import itertools
import random

from sill.msr import Fact, Multiset, Rule
from sill.msr.multiset import fact_key
from sill.msr.rules import Mrs
from sill.msr.terms import Const, Var


def eph_size(m: Multiset) -> int:
    """The number of ephemeral fact occurrences in a state."""
    return sum(n for _, n in m.eph_items())


def active(inst) -> Multiset:
    """The instantiated antecedent, persistent and ephemeral together."""
    return inst.eph_ant_g().with_pers(inst.pers_ant_g())


def old_equiv_key(inst) -> tuple:
    """The equivalence key built from sorted deep fact keys: the least
    placeholder consequent over every permutation of all the rule's
    existential variables.  Compares Wrap payloads by their printed text."""
    ant_p = tuple(sorted(fact_key(f) for f in inst.pers_ant_g()))
    ant_e = tuple(sorted((fact_key(f), n) for f, n in inst.eph_ant_g().eph_items()))
    rule = inst.rule
    best = None
    for perm in itertools.permutations(range(len(rule.evars))):
        xi = {v: Const(f"\x00{i}") for v, i in zip(rule.evars, perm)}
        pers, eph = inst.consequent(xi)
        pers_all = pers | inst.pers_ant_g()
        key = (
            tuple(sorted(fact_key(f) for f in pers_all)),
            tuple(sorted((fact_key(f), n) for f, n in eph.eph_items())),
        )
        if best is None or key < best:
            best = key
    return (ant_p, ant_e, best)

PREDS = [("p", 1), ("q", 1), ("r", 2), ("s", 0)]
CONSTS = ["a", "b"]


def random_rule(rng: random.Random, name: str, distinct_pred: str | None = None) -> Rule:
    """A random range-restricted rule.

    When distinct_pred is given, the consequent facts use that predicate
    and mention every universal variable, which makes equivalent
    instantiations literally equal (useful for fairness chain tests).
    """
    n_uv = rng.randint(0, 2)
    uvars = ["x", "y"][:n_uv]

    def arg(pool):
        return Var(rng.choice(pool)) if pool and rng.random() < 0.6 else Const(rng.choice(CONSTS))

    # antecedent: make sure every uvar actually occurs
    ant = []
    for _ in range(rng.randint(1, 2)):
        pred, ar = rng.choice(PREDS)
        ant.append(Fact(pred, tuple(arg(uvars) for _ in range(ar))))
    used = {v for f in ant for a in f.args if isinstance(a, Var) for v in [a.name]}
    missing = [v for v in uvars if v not in used]
    if missing:
        ant.append(Fact("r", tuple(Var(v) for v in (missing * 2)[:2])))
    uvars = sorted({v for f in ant for a in f.args if isinstance(a, Var) for v in [a.name]})

    evars = ["n"] if rng.random() < 0.4 else []
    con_pool = uvars + evars
    con = []
    if distinct_pred is None:
        for _ in range(rng.randint(0, 2)):
            pred, ar = rng.choice(PREDS)
            con.append(
                Fact(
                    pred,
                    tuple(
                        Var(rng.choice(con_pool)) if con_pool and rng.random() < 0.7 else Const(rng.choice(CONSTS))
                        for _ in range(ar)
                    ),
                )
            )
    else:
        args = tuple(Var(v) for v in uvars + evars)
        con.append(Fact(distinct_pred, args))
    if evars and not any(
        isinstance(a, Var) and a.name in evars for f in con for a in f.args
    ):
        evars = []
    return Rule(name, tuple(uvars), (), tuple(ant), tuple(evars), (), tuple(con))


def random_state(rng: random.Random, max_facts: int = 4) -> Multiset:
    facts = []
    for _ in range(rng.randint(1, max_facts)):
        pred, ar = rng.choice(PREDS)
        facts.append(Fact(pred, tuple(Const(rng.choice(CONSTS)) for _ in range(ar))))
    return Multiset.of(facts)


def random_mrs(rng: random.Random, max_rules: int = 3) -> Mrs:
    rules = tuple(random_rule(rng, f"r{i}") for i in range(rng.randint(1, max_rules)))
    init = random_state(rng)
    declared = init.consts() | set(CONSTS)
    for r in rules:
        for f in r.pers_ant + r.eph_ant + r.pers_con + r.eph_con:
            from sill.msr.multiset import fact_consts

            declared |= fact_consts(f)
    return Mrs(rules, frozenset(declared), init)
