"""Bounded reachability, overlap, and the combined-rule emulation check."""

import itertools
import random

import pytest

from sill.fairness import fair_execute
from sill.msr import (
    BudgetExceeded,
    Fact,
    Multiset,
    is_non_overlapping,
    overlap,
    parse_system,
    reachable_within,
    union_equivalent,
)

from helpers import random_mrs

PETRI = """
rule t1: p1, p2 -o p3
init: p1, p1, p2
"""


def ms(*preds):
    return Multiset.of([Fact(p) for p in preds])


def test_petri_one_step():
    net = parse_system(PETRI)
    states = reachable_within(net, net.initial, 1)
    assert states == {ms("p1", "p1", "p2"), ms("p1", "p3")}


def test_zero_budget_is_start_only():
    net = parse_system(PETRI)
    assert reachable_within(net, net.initial, 0) == {net.initial}


ADD = """
rule a_z: forall n, l. add(z, n, l) -o val(l, n)
rule a_s: forall m, n, l. add(s(m), n, l) -o add(m, s(n), l)
init: add(s(s(z)), s(s(s(z))), loc)
"""


def test_addition_reaches_its_value():
    sys_ = parse_system(ADD)
    states = reachable_within(sys_, sys_.initial, 3)
    from sill.msr import parse_fact

    val5 = parse_fact("val(loc, s(s(s(s(s(z))))))")
    assert any(st.count(val5) == 1 for st in states)


def test_budget_bound_enforced():
    growing = parse_system(
        """
        rule g: a -o exists n. a, b(n)
        init: a
        """
    )
    with pytest.raises(BudgetExceeded):
        reachable_within(growing, growing.initial, 50, max_states=10)


# -- overlap --------------------------------------------------------------------


def test_overlap_examples():
    state = ms("A", "B", "C")
    assert overlap(state, [ms("A", "B"), ms("B", "C")]) == ms("B")
    assert overlap(ms("A", "B", "B", "C"), [ms("A", "B"), ms("B", "C")]) == ms()
    assert overlap(state, [ms("A", "B"), ms("B", "C"), ms("C", "A")]) == ms("A", "B", "C")


def test_overlap_disjoint_parts_empty():
    rng = random.Random(11)
    for _ in range(100):
        mrs = random_mrs(rng)
        state = mrs.initial
        facts = []
        for f, n in state.eph_items():
            facts.extend([f] * n)
        rng.shuffle(facts)
        cut = rng.randint(0, len(facts))
        parts = [Multiset.of(facts[:cut]), Multiset.of(facts[cut:])]
        assert overlap(state, parts) == ms()


def test_queue_is_non_overlapping():
    queue = parse_system(
        """
        rule e1: forall x, y. enq(x, y), queue(x, end) -o exists z. queue(x, cell(y, z)), queue(z, end)
        rule e2: forall x, y, z, w. enq(x, y), queue(x, cell(z, w)) -o queue(x, cell(z, w)), enq(w, y)
        init: queue(q, cell(0, qp)), queue(qp, end), enq(q, 1)
        """
    )
    assert is_non_overlapping(queue, queue.initial)


def test_fair_runs_of_non_overlapping_systems_are_union_equivalent():
    # interference freedom: where no two applicable instantiations compete
    # for a fact, maximal runs differ only in the order of their steps
    rng = random.Random(20210404)
    compared = 0
    for i in range(600):
        mrs = random_mrs(rng)
        if not is_non_overlapping(mrs, mrs.initial):
            continue
        runs = [fair_execute(mrs, mrs.initial, budget=60, seed=seed) for seed in (None, 1, 2, 3)]
        maximal = [tr for tr in runs if tr.meta["maximal"]]
        for a, b in itertools.combinations(maximal, 2):
            assert union_equivalent(a, b), (i, mrs.rules)
            compared += 1
    assert compared


def test_competing_consumers_overlap():
    sys_ = parse_system(
        """
        rule r1: A -o B
        rule r2: A -o C
        init: A
        """
    )
    assert not is_non_overlapping(sys_, sys_.initial)


def test_empty_state_is_trivially_non_overlapping():
    sys_ = parse_system("rule r1: A -o B")
    assert is_non_overlapping(sys_, Multiset())


# -- emulation: base rules vs pairwise combinations ------------------------------


def test_reach_coincides_with_pairwise_closure():
    rng = random.Random(2024)
    for i in range(60):
        mrs = random_mrs(rng)
        k = rng.randint(0, 4)
        try:
            base = reachable_within(mrs, mrs.initial, k, max_states=20_000)
            closed = reachable_within(mrs.pairwise_closure(), mrs.initial, k, max_states=20_000)
        except BudgetExceeded:
            continue
        assert base == closed, f"system {i} diverged at budget {k}"
