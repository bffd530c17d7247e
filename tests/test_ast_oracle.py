"""Differential tests: the walks on the fold of ``sill.lang.ast`` against
the hand-written ones in ``ast_oracle``, printers included.

Processes, types and terms come from the generators of ``test_lang``, which
reach every construct and connective.  Channel renamings, by the reference
``subst_chan``, range over the free names, the binders (so alpha-renaming
happens) and names of the form ``stem%k`` that alpha-renaming picks; a
second renaming runs on the result of the first, so renamed binders are
renamed again, and some processes have such names free before the first.
Free names and the encoding's round trip must agree on each.  Renaming the
environment of a process's code (``sill.dynamics.enc_proc``) must decode to
the process the reference renames, up to the names of binders renamed
apart, and putting a step's variable in the environment must ground to the
encoding of the renamed process.  Two runtime cases capture a binder in a
received continuation and compare the step with the one the old step
derivation took.
"""

import dataclasses

import ast_oracle as ref
import dynamics_oracle
from hypothesis import given, settings, strategies as st
from test_dynamics_oracle import unapart
from test_lang import _functypes, _procs, _terms, _types

from sill import dynamics
from sill.lang import ast
from sill.lang.ast import (
    Case,
    Close,
    FwdPos,
    Lam,
    MsgF,
    One,
    Plus,
    ProcF,
    ProcType,
    Quote,
    RecvChan,
    SendChan,
    SendLabel,
    TVar,
    Unquote,
    Wait,
    With,
)
from sill.lang.parser import parse_type
from sill.msr.terms import App, Const, Var, Wrap, subst_term

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
# closed values and types, as substitution requires
_values = st.sampled_from([
    Quote(("x", One()), Unquote("x", Quote(("y", One()), ast.Close("y")))),
    Lam("v", ProcType(("x", One())), ast.FVar("v")),
])
_closed_types = st.sampled_from([One(), With(()), Plus((("l", One()),))])
_fvars = st.sampled_from(["v", "w"])
_arrows = st.recursive(_functypes, lambda sub: st.builds(ast.Arrow, sub, sub), max_leaves=4)
_tvars = st.sampled_from(["x", "y"])


def test_role_tables_give_every_field_of_every_construct_in_order():
    for table, n in ((ast.TYPE_ROLES, 11), (ast.TERM_ROLES, 5), (ast.PROC_ROLES, 16)):
        assert len(table) == n
        for cls, roles in table.items():
            # a type is an interned class, a term or a process a dataclass
            fields = (cls.__match_args__ if table is ast.TYPE_ROLES else
                      tuple(f.name for f in dataclasses.fields(cls)))
            assert tuple(roles) == fields
    assert not any(map(dataclasses.is_dataclass, (*ast.TYPE_ROLES, ast.Arrow, ast.ProcType)))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_procs(3), st.booleans(), _renamings, _renamings)
def test_process_walks_match_the_reference(p, generated, rho, sigma):
    if generated:
        # free names of the form alpha-renaming picks, which it must avoid
        p = ref.subst_chan(p, {"a": "x%0", "b": "a%0", "c": "y%0"})
    assert ast.fc(p) == ref.fc(p)
    once = ref.subst_chan(p, rho)
    twice = ref.subst_chan(once, sigma)
    assert ast.fc(once) == ref.fc(once)
    for q in (p, once, twice):
        assert dynamics.dec_proc(*dynamics.enc_proc(q)) == ref.dec_proc(ref.enc_proc(q)) == q


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_procs(3), _terms(3), _fvars, _values)
def test_functional_walks_match_the_reference(p, m, name, value):
    assert ast.subst_fvar(m, name, value) == ref.subst_fvar(m, name, value)
    assert ast.subst_fvar(p, name, value) == ref.proc_subst_fvar(p, name, value)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_types(3), _types(3), _tvars, _closed_types, st.integers(0, 2))
def test_type_walks_match_the_reference(a, b, name, repl, depth):
    assert ast.subst_tvar(a, name, repl) == ref.subst_tvar(a, name, repl)
    assert ast.type_eq(a, b) == (ref.canon_type(a) == ref.canon_type(b))
    rec = ast.Rec(name, a)
    assert ast.unfold_rec(rec) == ref.subst_tvar(a, name, rec)
    # z occurs nowhere in a, so renaming the binder to it is alpha-equivalence
    assert ast.type_eq(rec, ast.Rec("z", ast.subst_tvar(a, name, TVar("z"))))


_TYPE_CLASSES = (*ast.TYPE_ROLES, ast.Arrow, ast.ProcType)


def _built_again(x):
    """x built anew from its fields, its parts first, in new tuples (the
    generated types are shallow, so this recursion is too)."""
    if type(x) is tuple:
        return tuple(_built_again(y) for y in x)
    if type(x) in _TYPE_CLASSES:
        return type(x)(*[_built_again(getattr(x, f)) for f in x.__match_args__])
    return x


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_types(3), _types(3), _arrows, _tvars)
def test_a_type_is_one_object_and_prints_as_written(a, b, t, name):
    # a type built again, from its fields or from its text, is the object
    # itself, so equality is identity
    for x in (a, b, t):
        assert _built_again(x) is x
    assert parse_type(ast.type_to_str(a)) is a
    assert (a == b) == (a is b) == (ast.type_to_str(a) == ast.type_to_str(b))
    # an alpha-variant is another object, and each prints its own names
    rec, alpha = ast.Rec(name, a), ast.Rec("z", ast.subst_tvar(a, name, TVar("z")))
    assert ast.type_eq(rec, alpha) and rec is not alpha and rec != alpha
    for x in (a, b, rec, alpha):
        assert ast.type_to_str(x) == ref.type_to_str(x)
    assert ast.functype_to_str(t) == ref.functype_to_str(t)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_types(3), _arrows, _terms(3), _procs(3))
def test_printers_match_the_reference(a, t, m, p):
    # each layer's printer, and each node's str, is the one emitter
    assert ast.type_to_str(a) == str(a) == ref.type_to_str(a)
    assert ast.functype_to_str(t) == str(t) == ref.functype_to_str(t)
    assert ast.term_to_str(m) == str(m) == ref.term_to_str(m)
    assert ast.proc_to_str(p) == str(p) == ref.proc_to_str(p)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_procs(3), st.booleans(), _renamings, _fvars, _values)
def test_renaming_an_encoding_encodes_the_renamed_process(p, generated, rho, name, value):
    # the %0 names among the images make the reference alpha-rename binders
    if generated:
        p = ref.subst_chan(p, {"a": "x%0", "b": "a%0", "c": "y%0"})
    code, env = dynamics.enc_proc(p)
    renamed = [Const(rho.get(a.name, a.name)) if type(a) is Const else a for a in env.args]
    assert unapart(dynamics.dec_proc(code, App("env", tuple(renamed)))) == \
        unapart(ref.subst_chan(p, rho))
    # a received value goes in the slot of its variable
    valued = [Wrap(value) if a == Wrap(ast.FVar(name)) else a for a in renamed]
    substituted = ref.subst_chan(ast.subst_fvar(p, name, value), rho)
    assert unapart(dynamics.dec_proc(code, App("env", tuple(valued)))) == unapart(substituted)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_procs(3), st.sampled_from(NAMES))
def test_encoding_under_a_channel_variable_needs_no_renaming(p, chan):
    # a derived step puts its variable in the slot of the channel it
    # creates, and the fresh name it grounds to is the process renamed;
    # a generated name is no binder's, so nothing is renamed apart
    code, env = dynamics.enc_proc(p)
    with_var = App("env", tuple(Var("nc") if a is Const(chan) else a for a in env.args))
    grounded = subst_term(with_var, {"nc": Const("n'0")})
    assert (code, grounded) == dynamics.enc_proc(ref.subst_chan(p, {chan: "n'0"}))


def _same_steps_capturing(facts):
    """The steps of the configuration, derived both ways; each produces a
    process whose binder was alpha-renamed."""
    state = dynamics.config_state(facts)
    new = dynamics.SillSystem().applicable(state)
    old = dynamics_oracle.OracleSystem().applicable(state)
    decoded = [[(i.rule.name, [dynamics.config_fact(f) for f in i.rule.eph_ant],
                 [dynamics.config_fact(f) for f in i.rule.eph_con]) for i in insts]
               for insts in (new, old)]
    assert decoded[0] == decoded[1]
    received = [con for _, ant, con in decoded[0] if len(ant) == 2]
    assert received
    for con in received:
        assert any("%0 <- recv" in str(f) for f in con), con


def test_a_received_channel_named_like_a_binder_of_the_continuation():
    # x is renamed to the received y inside "y <- recv x; ...", whose
    # binder y must move out of the way
    facts = [MsgF("c", SendChan("c", "y", FwdPos("d", "c"))),
             ProcF("e", RecvChan("x", "c", RecvChan("y", "x",
                                                   Wait("y", Wait("x", Wait("c", Close("e")))))))]
    _same_steps_capturing(facts)


def test_a_continuation_channel_named_like_a_binder_of_the_receiver():
    # the message continues on x, and the chosen branch binds x
    facts = [MsgF("c", SendLabel("c", "l", FwdPos("x", "c"))),
             ProcF("e", Case("c", (("l", RecvChan("x", "c", Wait("x", Wait("c", Close("e"))))),)))]
    _same_steps_capturing(facts)
