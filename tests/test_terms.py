"""Hash-consed terms and facts: the interning laws, and the walks against
the recursive ones in ``terms_oracle``.

Terms are drawn as plain nested specs and built twice, so the laws compare
two independent constructions of each value.  Wrap payloads are integers,
strings and tuples of them.  Chains nest a drawn link a drawn number of
times, as deep as the recursive reference can follow; a 5000-deep chain,
past where it fails, is checked by hand.
"""

import gc

import pytest
import terms_oracle as ref
from hypothesis import given, settings, strategies as st

from sill.msr.multiset import Fact, fact_consts, fact_key, fact_vars
from sill.msr.terms import (App, Const, Var, Wrap, iter_subterms, match_term, rename_consts,
                            subst_term, term_consts, term_key, term_vars)

NAMES = ("a", "b", "x", "y", "a#0")
FNS = ("f", "g", "send")

_payloads = st.one_of(
    st.integers(-3, 3), st.sampled_from(["p", "q"]),
    st.tuples(st.integers(0, 2), st.sampled_from(["p", "q"])),
)
_leaves = st.one_of(
    st.tuples(st.just("c"), st.sampled_from(NAMES)),
    st.tuples(st.just("v"), st.sampled_from(NAMES)),
    st.tuples(st.just("w"), _payloads),
)
_specs = st.recursive(
    _leaves,
    lambda kids: st.tuples(st.just("a"), st.sampled_from(FNS),
                           st.lists(kids, max_size=3).map(tuple)),
    max_leaves=12,
)
_ground_specs = st.recursive(
    st.one_of(st.tuples(st.just("c"), st.sampled_from(NAMES)),
              st.tuples(st.just("w"), _payloads)),
    lambda kids: st.tuples(st.just("a"), st.sampled_from(FNS),
                           st.lists(kids, max_size=3).map(tuple)),
    max_leaves=6,
)


def build(spec):
    tag = spec[0]
    if tag == "c":
        return Const(spec[1])
    if tag == "v":
        return Var(spec[1])
    if tag == "w":
        return Wrap(spec[1])
    return App(spec[1], tuple(build(s) for s in spec[2]))


def chain(link, leaf, depth):
    """link nested depth times: each level's last argument is the level
    below, the innermost one leaf."""
    t = build(leaf)
    for _ in range(depth):
        top = build(link)
        t = App(top.fn, top.args[:-1] + (t,))
    return t


_links = st.tuples(st.just("a"), st.sampled_from(FNS),
                   st.lists(_specs, max_size=2).map(lambda xs: tuple(xs) + (("v", "hole"),)))
_thetas = st.dictionaries(st.sampled_from(NAMES), _ground_specs.map(build), max_size=3)
_renamings = st.dictionaries(st.sampled_from(NAMES), st.sampled_from(NAMES + ("b'1",)),
                             max_size=3)


# -- interning laws -------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(_specs, _specs)
def test_equal_constructions_are_one_object_and_equality_is_identity(s1, s2):
    t1, t2 = build(s1), build(s2)
    assert build(s1) is t1
    assert (t1 == t2) is (t1 is t2)
    assert (t1 is t2) is (spec_equal(s1, s2))
    assert hash(t1) == hash(build(s1))


def spec_equal(s1, s2) -> bool:
    # a payload's type is part of its value, as the interning has it
    if s1[0] != s2[0]:
        return False
    if s1[0] == "w":
        return type(s1[1]) is type(s2[1]) and s1[1] == s2[1]
    if s1[0] != "a":
        return s1[1] == s2[1]
    return (s1[1] == s2[1] and len(s1[2]) == len(s2[2])
            and all(spec_equal(a, b) for a, b in zip(s1[2], s2[2])))


def test_variables_constants_and_wraps_are_told_apart():
    assert Var("x") is not Const("x")
    assert Var("x") != Const("x")
    assert Wrap("x") is not Const("x")
    assert Wrap((1, "a")) is Wrap(tuple([1, "a"]))
    # equal payloads of different types print differently, so they stay
    # different terms
    assert Wrap(1) is not Wrap(True)
    assert term_key(Wrap(1)) == (3, "1") and term_key(Wrap(True)) == (3, "True")
    assert Fact("p", (Const("a"),)) is Fact("p", (Const("a"),))
    assert Fact("p", (Const("a"),)) is not Fact("p", (Const("a"),), persistent=True)


@pytest.mark.parametrize("obj, attr", [
    (Const("a"), "name"), (Var("x"), "name"), (App("f", (Const("a"),)), "args"),
    (Wrap(1), "payload"), (Fact("p", (Const("a"),)), "pred"), (Const("a"), "vars"),
    (Fact("p"), "memo"),
])
def test_assigning_or_deleting_an_attribute_raises(obj, attr):
    with pytest.raises(AttributeError):
        setattr(obj, attr, None)
    with pytest.raises(AttributeError):
        delattr(obj, attr)


# -- the walks against the recursive reference ----------------------------------


@settings(max_examples=200, deadline=None)
@given(_specs, _thetas, _renamings)
def test_walks_match_the_reference(spec, theta, rho):
    t = build(spec)
    assert rename_consts(t, rho) is ref.rename_consts(t, rho)
    assert term_vars(t) == ref.term_vars(t)
    assert term_consts(t) == ref.term_consts(t)
    assert term_key(t) == ref.term_key(t)
    assert term_key(t) is term_key(t)
    assert subst_term(t, theta) is ref.subst_term(t, theta)
    assert list(iter_subterms(t))[0] is t
    f = Fact("p", (t, Const("a")))
    assert fact_key(f) == ref.fact_key(f)
    assert fact_vars(f) == ref.term_vars(t)
    assert fact_consts(f) == ref.term_consts(t) | {"a"}


@settings(max_examples=200, deadline=None)
@given(_specs, _specs, _thetas, st.booleans())
def test_matching_matches_the_reference(pat, other, theta, instance):
    p = build(pat)
    g = subst_term(p, theta) if instance else build(other)
    assert match_term(p, g, {}) == ref.match_term(p, g, {})


@settings(max_examples=100, deadline=None)
@given(st.lists(_specs, min_size=2, max_size=6))
def test_key_order_is_the_reference_order(specs):
    ts = [build(s) for s in specs]
    assert sorted(ts, key=term_key) == sorted(ts, key=ref.term_key)


@settings(max_examples=50, deadline=None)
@given(_links, _specs, st.integers(0, 120), _thetas, _renamings)
def test_chains_match_the_reference(link, leaf, depth, theta, rho):
    t = chain(link, leaf, depth)
    assert rename_consts(t, rho) is ref.rename_consts(t, rho)
    assert term_key(t) == ref.term_key(t)
    assert term_vars(t) == ref.term_vars(t)
    assert subst_term(t, theta) is ref.subst_term(t, theta)


def test_deep_terms_are_keyed_and_substituted_without_recursion():
    depth = 5000
    x = Var("x")
    t = App("end", (x,))
    for i in range(depth):
        t = App("send", (x, Const(f"l{i % 3}"), t))
    key = term_key(t)
    for i in reversed(range(depth)):
        assert key[:2] == (2, "send") and key[2][:2] == ((1, "x"), (0, f"l{i % 3}"))
        key = key[2][2]
    assert key == (2, "end", ((1, "x"),))
    u = subst_term(t, {"x": Const("c")})
    assert not u.vars
    assert fact_key(Fact("proc", (u,)))[2][0][2][0] == (0, "c")
    assert term_consts(u) == {"c", "l0", "l1", "l2"}


def test_a_5000_deep_term_renames_without_recursion():
    # Fact.rename, Inst.rename and Multiset.rename reach rename_consts
    depth = 5000
    t = App("end", (Const("a"), Wrap(0)))
    for i in range(depth):
        t = App("send", (Const("a"), Const(f"l{i % 3}"), t))
    f = Fact("proc", (Const("a"), t))
    g = f.rename({"a": "a'0", "l1": "l2"})
    assert fact_consts(g) == {"a'0", "l0", "l2"}
    u = g.args[1]
    for i in reversed(range(depth)):
        label = {"l1": "l2"}.get(f"l{i % 3}", f"l{i % 3}")
        assert u.fn == "send" and u.args[:2] == (Const("a'0"), Const(label))
        u = u.args[2]
    assert u is App("end", (Const("a'0"), Wrap(0)))
    assert Fact("proc", (Const("b"), t)).rename({"b": "c"}).args[1] is t


# -- no leak across runs ----------------------------------------------------------


def _table_sizes() -> dict:
    from sill.msr import multiset, terms

    return {"Const": len(terms._CONSTS), "Var": len(terms._VARS), "App": len(terms._APPS),
            "Wrap": len(terms._WRAPS), "Fact": len(multiset._FACTS)}


def test_a_dropped_run_leaves_the_intern_tables_as_they_were():
    from sill.dynamics import SillSystem, initial_config, run
    from sill.lang.ast import (FVar, Fix, One, Plus, Quote, Rec, SendLabel, SendUnfold, TVar,
                               Unquote)

    conat = Rec("a", Plus((("z", One()), ("s", TVar("a")))))
    w = Fix("w", Quote(("c", conat),
                       SendUnfold("c", SendLabel("c", "s", Unquote("c", FVar("w"))))))
    gc.collect()
    before = _table_sizes()
    state, iface = initial_config(Unquote("o", w), {}, ("o", conat))
    tr = run(SillSystem(), state, iface, fuel=500)
    assert len(tr) == 500
    during = _table_sizes()
    # each step's message names a fresh channel, and the run keeps them all
    assert during["Const"] >= before["Const"] + 300 and during["Fact"] >= before["Fact"] + 300
    del tr, state, iface
    gc.collect()
    after = _table_sizes()
    assert all(after[k] <= before[k] + 8 for k in before), (before, during, after)
