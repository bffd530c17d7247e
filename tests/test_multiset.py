"""Algebra of states: the ephemeral part is a multiset with pointwise
operations, the persistent part a set."""

import pytest
from hypothesis import given, strategies as st
from helpers import eph_size

from sill.msr import Const, Fact, Multiset

A = Fact("A")
B = Fact("B")
C = Fact("C")
P = Fact("P", (Const("a"),), persistent=True)


def ms(*facts):
    return Multiset.of(facts)


counts = st.dictionaries(
    st.sampled_from([A, B, C, Fact("D", (Const("a"),))]),
    st.integers(min_value=0, max_value=5),
    max_size=4,
)


def from_counts(d):
    return Multiset({f: n for f, n in d.items() if n > 0})


def test_counts_and_support():
    m = ms(A, A, B)
    assert m.count(A) == 2
    assert m.count(B) == 1
    assert m.count(C) == 0
    assert eph_size(m) == 3
    assert m.support() == {A, B}


def test_persistent_part_is_a_set():
    m = Multiset.of([A], [P]).with_pers([P])
    assert m.count(P) == 1
    assert m.pers == frozenset([P])


def test_sum_union_inter_diff():
    m1 = ms(A, B)
    m2 = ms(B, C)
    assert m1.msum(m2) == ms(A, B, B, C)
    assert m1.minter(m2) == ms(B)
    assert m1.mdiff(m2) == ms(A)
    assert ms(A).mdiff(ms(A, A)) == ms()


def test_inclusion():
    assert ms(A).leq(ms(A, B))
    assert not ms(A, A).leq(ms(A, B))
    assert Multiset.of([A], [P]).leq(Multiset.of([A, B], [P]))
    assert not Multiset.of([A], [P]).leq(ms(A, B))


def test_misplaced_facts_rejected():
    with pytest.raises(ValueError):
        Multiset({P: 1})
    with pytest.raises(ValueError):
        Multiset.of([], [A])


@given(counts, counts)
def test_sum_commutes(d1, d2):
    m1, m2 = from_counts(d1), from_counts(d2)
    assert m1.msum(m2) == m2.msum(m1)
    assert m1.minter(m2) == m2.minter(m1)


@given(counts, counts, counts)
def test_sum_associates(d1, d2, d3):
    m1, m2, m3 = from_counts(d1), from_counts(d2), from_counts(d3)
    assert m1.msum(m2).msum(m3) == m1.msum(m2.msum(m3))


@given(counts, counts)
def test_diff_then_sum_bounds(d1, d2):
    m1, m2 = from_counts(d1), from_counts(d2)
    assert m1.mdiff(m2).leq(m1)
    assert m1.leq(m1.mdiff(m2).msum(m2))


@given(counts, counts)
def test_leq_is_inter_absorption(d1, d2):
    m1, m2 = from_counts(d1), from_counts(d2)
    assert m1.leq(m2) == (m1.minter(m2) == m1)


@given(counts, counts, counts)
def test_rewrite_is_diff_then_sum(d1, d2, d3):
    m1, m2, m3 = from_counts(d1), from_counts(d2), from_counts(d3)
    before = dict(m1.eph_items())
    assert m1.rewrite(m2, m3) == m1.mdiff(m2).msum(m3)
    assert dict(m1.eph_items()) == before
