"""Deep input: every walk over the syntax runs on the one explicit-stack fold
of ``sill.lang.ast``, so each returns at depths far beyond the Python
recursion limit, with the answer worked out here by hand.

Deep processes and terms are compared level by level in a loop, or by
their printed forms, because the dataclasses' own ``==`` recurses; a type
is interned, so a deep one is its twin.  A deep process runs and its fact
sorts beside a twin's: the two share one interned code, and their order
keys differ only in their environments.
"""

import pytest

from sill.lang import ast
from sill.lang.ast import (
    FApp, Arrow, Case, Close, Cut, FVar, One, Plus, ProcType, Rec, SendLabel, SendVal,
    TVar, Wait, With,
)
from sill.dynamics import SillSystem, initial_config, proc_fact, run, state_facts
from sill.lang.check import IllFormed, check_functype, check_proc, check_type
from sill.lang.parser import parse, parse_proc, parse_type
from sill.msr.multiset import Fact, fact_key
from sill.msr.terms import App, Const

DEEP = 5000
CHAIN = 3000  # FApp and Arrow chains


def _plus(n, last):
    """+{l: +{l: ... last}}, n levels deep."""
    for _ in range(n):
        last = Plus((("l", last),))
    return last


def _recs(n, stem, last):
    """rec x0. +{l: rec x1. +{l: ... last, r: x1}, r: x0}: n recs, 2n levels."""
    for i in reversed(range(n)):
        last = Rec(f"{stem}{i}", Plus((("l", last), ("r", TVar(f"{stem}{i}")))))
    return last


def _sends(n, last):
    """c.l; c.l; ... last, n sends deep."""
    for _ in range(n):
        last = SendLabel("c", "l", last)
    return last


def _spine(x, field):
    """x and the nodes below it along field (a name, or a branch label)."""
    out = [x]
    while True:
        x = out[-1]
        nxt = x.branch(field) if isinstance(x, ast._Branching) else getattr(x, field, None)
        if nxt is None:
            return out
        out.append(nxt)


def test_canonical_forms_of_alpha_variants_agree():
    a, b = _recs(DEEP // 2, "x", One()), _recs(DEEP // 2, "y", One())
    assert ast.type_eq(a, b)
    assert not ast.type_eq(a, _recs(DEEP // 2, "y", With(())))


def test_unfolding_changes_only_the_innermost_node():
    a = Rec("x", _plus(DEEP, TVar("x")))
    before, after = _spine(a.body, "l"), _spine(ast.unfold_rec(a), "l")
    assert len(before) == len(after) == DEEP + 1
    assert all(type(p) is Plus and p.labels() == ("l",) for p in after[:-1])
    assert before[-1] == TVar("x") and after[-1] is a


def test_instantiating_a_deep_body_renames_only_the_innermost_node():
    # the body's one used channel d is passed e; c is offered on c again
    m = parse("type t = rec x. +{l: x}\n"
              f"proc p : d:1 |- c:t = {'c.l; ' * DEEP}wait d; close c\n"
              "proc q : e:1 |- f:t = c : t <- p(e); fwd+ c -> f\n")
    nodes = _spine(m.procs["q"].body.left, "cont")
    assert len(nodes) == DEEP + 2
    assert all(type(q) is SendLabel and (q.chan, q.label) == ("c", "l") for q in nodes[:-2])
    assert nodes[-2:] == [Wait("e", Close("c")), Close("c")]


def test_substituting_a_value_changes_only_the_innermost_term():
    value = FVar("w")
    p = ast.subst_fvar(_sends(DEEP, SendVal("c", FVar("v"), Close("c"))), "v", value)
    nodes = _spine(p, "cont")
    assert len(nodes) == DEEP + 2
    assert nodes[-2].term is value and nodes[-1] == Close("c")


def test_printed_forms_have_the_expected_length_and_end():
    assert ast.type_to_str(_plus(DEEP, One())) == "+{l: " * DEEP + "1" + "}" * DEEP
    fn = FVar("f")
    for _ in range(CHAIN):
        fn = FApp(fn, FVar("a"))
    assert ast.term_to_str(fn) == "f" + " a" * CHAIN
    unit = ProcType(("c", One()))
    t = unit
    for _ in range(CHAIN):
        t = Arrow(unit, t)
    printed = ast.functype_to_str(t)
    assert printed == "{c:1 <-} -> " * CHAIN + "{c:1 <-}"
    assert ast.proc_to_str(_sends(DEEP, Close("c"))) == "c.l; " * DEEP + "close c"


def test_free_channels_polarity_and_formation_of_deep_input():
    p = _sends(DEEP, Cut("x", One(), Close("x"), Wait("x", Close("d"))))
    assert ast.fc(p) == {"c", "d"}
    recs = One()
    for i in range(DEEP):
        recs = Rec(f"x{i}", recs)
    assert ast.polarity(recs) == "positive"
    assert check_type(recs) == "positive"
    assert ast.polarity(Rec("x", Rec("y", TVar("x")))) == "positive"


def test_a_deep_arrow_chain_checks_and_its_bottom_is_still_checked():
    unit = ProcType(("c", One()))
    ok, bad = unit, ProcType(("c", One()), (("c", One()),))
    for _ in range(CHAIN):
        ok, bad = Arrow(unit, ok), Arrow(unit, bad)
    check_functype(ok)
    with pytest.raises(IllFormed, match="^a process type repeats a channel name$"):
        check_functype(bad)


def test_a_long_sequence_parses_into_its_chain():
    p = parse_proc("c.l; " * CHAIN + "close c")
    nodes = _spine(p, "cont")
    assert len(nodes) == CHAIN + 1 and nodes[-1] == Close("c")
    assert all(type(q) is SendLabel for q in nodes[:-1])


def test_a_deep_case_parses_checks_and_prints():
    # each branch waits on the parser's stack, beside a second branch that
    # closes at once; the type nests as deep
    text = "case c {l => " * DEEP + "close c" + " | r => close c}" * DEEP
    p = parse_proc(text)
    nodes = _spine(p, "l")
    assert len(nodes) == DEEP + 1 and nodes[-1] == Close("c")
    assert all(type(q) is Case and q.labels() == ("l", "r") and q.branch("r") == Close("c")
               for q in nodes[:-1])
    check_proc(p, ("c", parse_type("&{l: " * DEEP + "1" + ", r: 1}" * DEEP)), {})
    assert ast.proc_to_str(p) == text


def test_nested_cut_bodies_parse_and_print_back():
    # each body waits on the parser's stack until its closing brace
    text = "y: 1 <- {" * DEEP + "close y" + "}; close c" * DEEP
    p = parse_proc(text)
    nodes = _spine(p, "left")
    assert len(nodes) == DEEP + 1 and nodes[-1] == Close("y")
    assert all(type(q) is Cut and q.ann is One() and q.right == Close("c") for q in nodes[:-1])
    assert ast.proc_to_str(p) == text
    assert ast.proc_to_str(parse_proc(ast.proc_to_str(p))) == text


def test_a_cut_annotated_with_a_deep_type_encodes_and_steps():
    # the annotation is interned: hashing, comparing and showing it, and
    # wrapping it in the encoding, recurse nowhere
    t, twin = _plus(DEEP, One()), _plus(DEEP, One())
    assert twin is t and t == twin and hash(t) == hash(twin)
    assert repr(t) == "<Plus " + ast.type_to_str(t) + ">"
    p = Cut("x", t, Close("x"), Close("c"))
    assert p == Cut("x", twin, Close("x"), Close("c")) and hash(p) == hash(p)
    f = proc_fact("c", p)
    assert f.args[1].args[1].payload is t
    state, iface = initial_config(p, {}, ("c", One()))
    tr = run(SillSystem(), state, iface, fuel=1)
    assert [s.inst.rule.name for s in tr.steps] == ["cut"]
    [fresh] = set(tr.meta["channel_types"]) - {"c"}
    assert tr.meta["channel_types"][fresh] is t


def test_a_deep_type_parses_checks_and_prints():
    text = "+{l: " * DEEP + "1" + "}" * DEEP
    a = parse_type(text)
    nodes = _spine(a, "l")
    assert len(nodes) == DEEP + 1 and nodes[-1] == One()
    assert all(type(b) is Plus and b.labels() == ("l",) for b in nodes[:-1])
    assert check_type(a) == ast.POSITIVE
    assert ast.type_to_str(a) == text
    # every prefix, rec and a bracket nest as deep, and -o and * chain
    b = x = parse_type("down up rec t. [{o:1 <-}] => 1 -o (" * DEEP + "1 * " * DEEP + "1"
                       + ")" * DEEP)
    for _ in range(DEEP):
        x = x.body.body.body
        assert type(x) is ast.Lolli and type(x.left) is ast.ImpVal and x.left.body == One()
        x = x.right
    assert len(_spine(x, "right")) == DEEP + 1
    assert ast.type_to_str(parse_type(ast.type_to_str(b))) == ast.type_to_str(b)


def test_nested_cuts_walk_each_subprocess_once(monkeypatch):
    n = 2000
    p = Close("c")
    for i in reversed(range(n)):
        p = Cut(f"x{i}", One(), Close(f"x{i}"), Wait(f"x{i}", p))
    visits = [0]
    fold = ast.fold

    def counted(root, expand, build, ctx=None):
        def counting(node, c):
            visits[0] += 1
            return expand(node, c)
        return fold(root, counting, build, ctx)

    monkeypatch.setattr(ast, "fold", counted)
    check_proc(p, ("c", One()), {})
    assert visits[0] <= 4 * n


def test_a_rec_chain_reads_its_polarity_once(monkeypatch):
    # each rec of a chain has the chain's polarity: read at the top, it
    # is one walk down the chain, not one per rec
    recs = One()
    for i in range(DEEP):
        recs = Rec(f"x{i}", recs)
    calls = [0]
    polarity = ast.polarity

    def counted(a, xi=None):
        calls[0] += 1
        return polarity(a, xi)

    monkeypatch.setattr(ast, "polarity", counted)
    assert check_type(recs) == "positive"
    assert calls[0] == 1
    # recs separated by other connectives read theirs once each
    calls[0] = 0
    assert check_type(_recs(DEEP // 2, "x", One())) == "positive"
    assert calls[0] == DEEP // 2


def test_a_deep_process_sorts_beside_its_twin():
    # 5000 levels, a label after each unfold, then a wait on d; the twin
    # waits on e.  It parses, checks, takes its step and prints, and the
    # facts of the two share one interned code, whose order key is one
    # object: comparing the facts' keys meets it and decides on their
    # environments, which nest one level
    conat = parse_type("rec a. +{s: a, z: 1}")
    src = "send c unfold; c.s; " * (DEEP // 2 - 1) + "send c unfold; c.z; wait {}; close c"
    p, twin = parse_proc(src.format("d")), parse_proc(src.format("e"))
    check_proc(p, ("c", conat), {"d": One()})
    state, iface = initial_config(p, {"d": One()}, ("c", conat))
    tr = run(SillSystem(), state, iface, fuel=1, check=True)
    assert [s.inst.rule.name for s in tr.steps] == ["rec_pos_r"]
    printed = [str(f) for f in state_facts(tr.final())]
    assert printed[0] == "msg c {send c unfold; fwd+ c'0 -> c}"
    assert printed[1].startswith("proc c'0 {c'0.s; send c'0 unfold; ")
    assert printed[1].endswith("c'0.z; wait d; close c'0}")
    f, g = proc_fact("c", p), proc_fact("c", twin)
    assert f.args[1] is g.args[1]
    assert sorted([g, f], key=fact_key) == [f, g]
    # the continuation the step produced, beside its twin's
    [cont] = [h for h in tr.final().eph_support() if h.pred == "proc"]
    other = Fact("proc", (*cont.args[:2], App("env", (Const("c'0"), Const("e")))))
    assert sorted([other, cont], key=fact_key) == [cont, other]
