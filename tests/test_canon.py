"""Canonical forms and renaming discovery for generated constants."""

import random

from sill.msr import App, Const, Fact, Multiset, canonical_form, find_renaming
from sill.msr.canon import ms_key

from helpers import random_mrs


def F(pred, *names):
    return Fact(pred, tuple(Const(n) for n in names))


def test_declared_constants_stay_fixed():
    m = Multiset.of([F("p", "a"), F("q", "x#1")])
    c, rho = canonical_form(m)
    assert rho == {"x#1": "%0"}
    assert c == Multiset.of([F("p", "a"), F("q", "%0")])


def test_first_appearance_order():
    m = Multiset.of([F("r", "z#9", "z#2"), F("s", "z#2")])
    c, rho = canonical_form(m)
    # sorted rendering puts r(...) before s(...); its first argument appears first
    assert c == Multiset.of([F("r", "%0", "%1"), F("s", "%1")])


def test_symmetric_states_identified():
    m1 = Multiset.of([F("p", "u#1"), F("p", "u#2"), F("q", "u#1")])
    m2 = Multiset.of([F("p", "u#7"), F("p", "u#3"), F("q", "u#3")])
    assert canonical_form(m1)[0] == canonical_form(m2)[0]


def test_canonical_invariant_under_renaming():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 4)
        names = [f"k#{i}" for i in range(n)]
        facts = []
        for _ in range(rng.randint(1, 5)):
            pred, ar = rng.choice([("p", 1), ("r", 2)])
            facts.append(
                Fact(pred, tuple(Const(rng.choice(names + ["a"])) for _ in range(ar)))
            )
        m = Multiset.of(facts)
        perm = names[:]
        rng.shuffle(perm)
        rho = {old: f"j#{i}" for i, old in enumerate(perm)}
        assert canonical_form(m)[0] == canonical_form(m.rename(rho))[0]


def test_find_renaming_prefers_identity():
    m1 = Multiset.of([F("p", "c#1"), F("p", "c#2")])
    m2 = Multiset.of([F("p", "c#2"), F("p", "c#3")])
    rho = find_renaming(m1, m2)
    assert rho is not None
    assert rho["c#2"] == "c#2"
    assert rho["c#1"] == "c#3"


def test_find_renaming_respects_structure():
    m1 = Multiset.of([F("r", "x#1", "x#2"), F("p", "x#1")])
    m2 = Multiset.of([F("r", "y#5", "y#6"), F("p", "y#6")])
    # x#1 is the marked one in m1 but the second component in m2
    assert find_renaming(m1, m2) is None
    m3 = Multiset.of([F("r", "y#6", "y#5"), F("p", "y#6")])
    rho = find_renaming(m1, m3)
    assert rho == {"x#1": "y#6", "x#2": "y#5"}


def test_find_renaming_none_when_sizes_differ():
    assert find_renaming(Multiset.of([F("p", "a#1")]), Multiset.of([F("p", "a")])) is None


def test_a_5000_deep_term_around_a_generated_name():
    deep = Const("g#0")
    for _ in range(5000):
        deep = App("s", (deep,))
    m = Multiset.of([Fact("p", (deep,)), F("q", "g#0", "g#1")])
    other = m.rename({"g#0": "h#1", "g#1": "h#0"})
    form, rho = canonical_form(m)
    assert m.rename(rho) == form
    assert canonical_form(other)[0] == form
    assert find_renaming(m, other) == {"g#0": "h#1", "g#1": "h#0"}
    assert find_renaming(m, m.rename({"g#0": "g#1", "g#1": "g#0"})) == {"g#0": "g#1", "g#1": "g#0"}


def test_1500_names_each_under_its_own_predicate():
    m = Multiset.of([F(f"p{i}", f"g#{i}") for i in range(1500)])
    shift = {f"g#{i}": f"g#{(i + 1) % 1500}" for i in range(1500)}
    assert find_renaming(m, m) == {f"g#{i}": f"g#{i}" for i in range(1500)}
    assert find_renaming(m, m.rename(shift)) == shift
    assert find_renaming(m, m.rename(shift).msum(Multiset.of([F("p0", "g#1")]))) is None


def test_ms_key_total_order_consistent():
    rng = random.Random(3)
    for _ in range(50):
        mrs = random_mrs(rng)
        k = ms_key(mrs.initial)
        assert k == ms_key(Multiset.of(list(_expand(mrs.initial)), mrs.initial.pers))


def _expand(ms):
    for f, n in ms.eph_items():
        for _ in range(n):
            yield f
