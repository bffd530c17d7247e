"""Differential tests: the one renaming search of ``sill.msr.canon``
against the two searches in ``canon_oracle``.

The inputs are random states with nested terms, persistent facts,
multiplicities and generated names partly shared between the two sides,
the states of runs of ``helpers.random_mrs`` systems, and the states of
the SILL runs of ``test_dynamics.corpus()`` at several seeds.  Where the
two states share a generated name, the renaming must be the oracle's,
which keeps as many of the shared names fixed as it can; where they
share none, any renaming that maps one state onto the other will do.
"""

import itertools
import random

import canon_oracle as ref
from helpers import random_mrs
from hypothesis import given, settings, strategies as st
from test_dynamics import corpus, run_corpus_entry

from sill.fairness import fair_execute
from sill.msr import Fact, Multiset, canonical_form, find_renaming, parse_system, reach
from sill.msr.rules import is_generated_name
from sill.msr.terms import App, Const

NAMES = ("g#0", "g#1", "g#2", "g#3", "g#4", "a", "b")

_consts = st.sampled_from(NAMES).map(Const)
_terms = st.recursive(
    _consts,
    lambda sub: st.one_of(st.builds(lambda t: App("s", (t,)), sub),
                          st.builds(lambda t, u: App("h", (t, u)), sub, sub)),
    max_leaves=4,
)
_facts = st.builds(
    lambda pred, args, pers: Fact(pred, tuple(args), pers),
    st.sampled_from(["p", "q"]), st.lists(_terms, max_size=3), st.booleans())


@st.composite
def _states(draw):
    eph, pers = {}, set()
    for f in draw(st.lists(_facts, min_size=1, max_size=6)):
        if f.persistent:
            pers.add(f)
        else:
            eph[f] = eph.get(f, 0) + draw(st.integers(1, 3))
    return Multiset(eph, pers)


# renamings onto names some of which the state already holds
_renamings = st.permutations([f"g#{i}" for i in range(8)]).map(
    lambda perm: {f"g#{i}": perm[i] for i in range(5)})


def _generated(ms):
    return {c for c in ms.consts() if is_generated_name(c)}


def check_pair(a, b):
    """find_renaming agrees with the oracle on (a, b), and canonical_form
    identifies a and b exactly when a renaming exists."""
    rho, want = find_renaming(a, b), ref.find_renaming(a, b)
    assert (rho is None) == (want is None)
    if rho is not None:
        assert a.rename(rho) == b
        if _generated(a) & _generated(b):
            assert rho == want
    form_a, map_a = canonical_form(a)
    assert a.rename(map_a) == form_a
    assert (form_a == canonical_form(b)[0]) == (want is not None)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(_states(), _renamings)
def test_a_renamed_state(a, rho):
    check_pair(a, a.rename(rho))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_states(), _states())
def test_two_random_states(a, b):
    check_pair(a, b)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_states(), _renamings, _renamings)
def test_canonical_form_is_invariant_under_renaming(a, rho, sigma):
    assert canonical_form(a.rename(rho))[0] == canonical_form(a.rename(sigma))[0]


# systems whose steps create names, beside the random ones, few of whose
# rules do
SPAWNING = [parse_system(src) for src in (
    """
    rule spawn: forall x. node(x) -o exists n. node(x), edge(x, n), node(n)
    rule turn: forall x, y. edge(x, y) -o link(y, x)
    init: node(a)
    """,
    """
    rule e1: forall x, y. enq(x, y), queue(x, end) -o exists z. queue(x, cell(y, z)), queue(z, end)
    rule e2: forall x, y, z, w. enq(x, y), queue(x, cell(z, w)) -o queue(x, cell(z, w)), enq(w, y)
    rule deq: forall x, y, z. queue(x, cell(y, z)) -o got(y), queue(x, cell(y, z)), enq(z, y)
    init: queue(q, end), enq(q, 1), enq(q, 2)
    """,
)]


def _systems(count, seed):
    rng = random.Random(seed)
    return SPAWNING + [random_mrs(rng) for _ in range(count)]


def _renamed_apart(ms, rng):
    """ms with its generated names renamed onto names it partly holds."""
    names = sorted(_generated(ms))
    pool = names + [f"n#{i}" for i in range(len(names))]
    rng.shuffle(pool)
    return ms.rename(dict(zip(names, pool)))


def test_states_of_random_mrs_runs():
    rng = random.Random(1)
    for i, mrs in enumerate(_systems(300, 2021)):
        states = fair_execute(mrs, mrs.initial, budget=10, seed=i).states
        for a, b in itertools.combinations(states, 2):
            check_pair(a, b)
        for a in states:
            check_pair(a, _renamed_apart(a, rng))


def test_states_of_sill_runs():
    rng = random.Random(2)
    for _, facts, iface in corpus():
        runs = [run_corpus_entry(facts, iface, seed).states for seed in (0, 1, 7)]
        for states in runs:
            for a, b in zip(states, states[1:]):
                check_pair(a, b)
            for a in states:
                check_pair(a, _renamed_apart(a, rng))
        # the same step count into two schedules
        for one, other in itertools.combinations(runs, 2):
            for a, b in zip(one, other):
                check_pair(a, b)


def _cycles(*lengths):
    """Directed cycles of links over generated names, one per length."""
    facts, k = [], 0
    for n in lengths:
        ring = [Const(f"g#{k + i}") for i in range(n)]
        facts += [Fact("link", (x, y)) for x, y in zip(ring, ring[1:] + ring[:1])]
        k += n
    return Multiset.of(facts)


def test_ties_that_refinement_leaves():
    # each name has one link in and one out, so refinement splits nothing
    # and only the search tells a six-cycle from two triangles
    rng = random.Random(5)
    check_pair(_cycles(6), _cycles(3, 3))
    for both in (_cycles(2, 4), _cycles(3, 4)):
        for _ in range(20):
            check_pair(both, _renamed_apart(both, rng))


def test_reachable_states_match_the_oracle(monkeypatch):
    systems = _systems(60, 7)
    got = [reach.reachable_within(mrs, mrs.initial, 4) for mrs in systems]
    monkeypatch.setattr(reach, "canonical_form", ref.canonical_form)
    for mrs, mine in zip(systems, got):
        theirs = reach.reachable_within(mrs, mrs.initial, 4)
        assert len(mine) == len(theirs)
        for s in mine:
            assert sum(ref.find_renaming(s, t) is not None for t in theirs) == 1
