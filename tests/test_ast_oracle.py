"""Differential tests: the walks driven by the role tables in
``sill.lang.ast`` against the hand-written ones in ``ast_oracle``.

Processes, types and terms come from the generators of ``test_lang``, which
reach every construct and connective.  Channel renamings range over the
free names, the binders (so alpha-renaming happens) and names of the form
``stem%k`` that alpha-renaming picks; a second renaming runs on the result
of the first, so renamed binders are renamed again, and some processes
have such names free before the first.  Encoder environments
map free names and binders to variables and constants.
"""

import dataclasses

import ast_oracle as ref
from hypothesis import given, settings, strategies as st
from test_lang import _procs, _terms, _types

from sill import dynamics
from sill.lang import ast
from sill.lang.ast import Lam, One, Plus, ProcType, Quote, TVar, Unquote, With
from sill.msr.terms import Const, Var

NAMES = ("a", "b", "c", "d", "x", "y", "a%0", "x%0", "y%0")
# swaps, and renamings onto a binder together with the name alpha-renaming
# would pick for it, which it must therefore avoid
SPECIAL = (
    {"a": "b", "b": "a"}, {"x": "a", "a": "x"}, {"c": "y", "y": "c", "d": "x"},
    {"b": "x", "c": "x%0"}, {"b": "a", "c": "a%0"}, {"a": "y", "d": "y%0"},
)
_renamings = st.one_of(
    st.dictionaries(st.sampled_from(NAMES), st.sampled_from(NAMES), max_size=4),
    st.sampled_from(SPECIAL),
)
_envs = st.dictionaries(
    st.sampled_from(NAMES),
    st.one_of(st.builds(Var, st.sampled_from(["nc", "e"])),
              st.builds(Const, st.sampled_from(NAMES))),
    max_size=3,
)
# closed values and types, as substitution requires
_values = st.sampled_from([
    Quote(("x", One()), Unquote("x", Quote(("y", One()), ast.Close("y")))),
    Lam("v", ProcType(("x", One())), ast.FVar("v")),
])
_closed_types = st.sampled_from([One(), With(()), Plus((("l", One()),))])
_fvars = st.sampled_from(["v", "w"])
_tvars = st.sampled_from(["x", "y"])


def test_role_tables_give_every_field_of_every_construct_in_order():
    for table, n in ((ast.TYPE_ROLES, 11), (ast.TERM_ROLES, 5), (ast.PROC_ROLES, 16)):
        assert len(table) == n
        for cls, roles in table.items():
            assert tuple(roles) == tuple(f.name for f in dataclasses.fields(cls))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_procs(3), st.booleans(), _renamings, _renamings, _envs)
def test_process_walks_match_the_reference(p, generated, rho, sigma, env):
    if generated:
        # free names of the form alpha-renaming picks, which it must avoid
        p = ref.subst_chan(p, {"a": "x%0", "b": "a%0", "c": "y%0"})
    assert ast.fc(p) == ref.fc(p)
    assert ast.proc_free_fvars(p) == ref.proc_free_fvars(p)
    once = ast.subst_chan(p, rho)
    assert once == ref.subst_chan(p, rho)
    assert ast.subst_chan(once, sigma) == ref.subst_chan(once, sigma)
    assert ast.fc(once) == ref.fc(once)
    for q in (p, once):
        t = dynamics.enc_proc(q, env)
        assert t == ref.enc_proc(q, env)
        assert dynamics.enc_proc(q) == ref.enc_proc(q)
        assert dynamics.dec_proc(dynamics.enc_proc(q)) == ref.dec_proc(ref.enc_proc(q)) == q


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_procs(3), _terms(3), _fvars, _values)
def test_functional_walks_match_the_reference(p, m, name, value):
    assert ast.free_fvars(m) == ref.free_fvars(m)
    assert ast.subst_fvar(m, name, value) == ref.subst_fvar(m, name, value)
    assert ast.proc_free_fvars(p) == ref.proc_free_fvars(p)
    assert ast.proc_subst_fvar(p, name, value) == ref.proc_subst_fvar(p, name, value)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_types(3), _types(3), _tvars, _closed_types, st.integers(0, 2))
def test_type_walks_match_the_reference(a, b, name, repl, depth):
    assert ast.subst_tvar(a, name, repl) == ref.subst_tvar(a, name, repl)
    assert ast.canon_type(a) == ref.canon_type(a)
    env = {"x": f"%{depth + 5}"}
    assert ast.canon_type(a, depth, env) == ref.canon_type(a, depth, env)
    assert ast.type_eq(a, b) == (ref.canon_type(a) == ref.canon_type(b))
    rec = ast.Rec(name, a)
    assert ast.unfold_rec(rec) == ref.subst_tvar(a, name, rec)
    # z occurs nowhere in a, so renaming the binder to it is alpha-equivalence
    assert ast.type_eq(rec, ast.Rec("z", ast.subst_tvar(a, name, TVar("z"))))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_procs(3), st.sampled_from(NAMES))
def test_encoding_under_a_channel_variable_needs_no_renaming(p, chan):
    # a derived step encodes its continuation with the consumed channel
    # mapped to the step's variable; renaming onto a placeholder first, as
    # steps once did, gives the same term
    fresh = "%fresh"
    renamed = dynamics.enc_proc(ast.subst_chan(p, {chan: fresh}), {fresh: Var("nc")})
    assert dynamics.enc_proc(p, {chan: Var("nc")}) == renamed
