"""Session types, process typing, and the surface syntax."""

import pytest
from hypothesis import given, settings, strategies as st

from sill.lang import (
    AndVal, Arrow, Case, Close, CyclicSharing, Cut, Down, FApp, Fix, FVar,
    FwdNeg, FwdPos, IllFormed, IllTyped, ImpVal, Interface, InterfaceMismatch,
    Lam, LinearityError, Lolli, MsgF, One, ParseError, Plus,
    ProcF, ProcType, Quote, Rec, RecvChan, RecvShift, RecvUnfold, RecvVal,
    SendChan, SendLabel, SendShift, SendUnfold, SendVal, SillTypeError, Tensor,
    TVar, UnboundTypeVariable, Unquote, Up, Wait, With,
    check_config, check_proc, check_term, check_type, fc, message_parts,
    module_to_str, parse, parse_proc, parse_term, parse_type,
    polarity, proc_to_str, type_eq, type_to_str, unfold_rec,
)
from sill.lang.ast import functype_eq, make_message

CONAT = Rec("a", Plus((("z", One()), ("s", TVar("a")))))
BITS = Rec("b", Plus((("b0", TVar("b")), ("b1", TVar("b")))))


# -- formation and polarity


def test_polarities():
    assert polarity(One()) == "positive"
    assert polarity(Tensor(One(), One())) == "positive"
    assert polarity(Down(With(()))) == "positive"
    assert polarity(Lolli(One(), With(()))) == "negative"
    assert polarity(Up(One())) == "negative"
    assert polarity(CONAT) == "positive"
    assert polarity(Rec("x", With((("l", TVar("x")),)))) == "negative"
    assert polarity(Rec("x", TVar("x"))) == "positive"


def test_check_type_accepts_the_standard_examples():
    assert check_type(CONAT) == "positive"
    assert check_type(BITS) == "positive"
    assert check_type(Plus(())) == "positive"
    assert check_type(With(())) == "negative"
    assert check_type(AndVal(Arrow(ProcType(("c", One())), ProcType(("c", One()))),
                             One())) == "positive"


def test_check_type_rejects_mixed_polarity():
    with pytest.raises(IllFormed):
        check_type(Tensor(One(), Up(One())))
    with pytest.raises(IllFormed):
        check_type(Lolli(Up(One()), With(())))
    with pytest.raises(IllFormed):
        check_type(Lolli(One(), One()))
    with pytest.raises(IllFormed):
        check_type(Down(One()))
    with pytest.raises(IllFormed):
        check_type(Up(With(())))
    with pytest.raises(IllFormed):
        check_type(Plus((("l", Up(One())),)))


def test_rec_polarity_must_be_consistent():
    # positive rec whose variable occurs where a negative type is needed
    with pytest.raises(IllFormed):
        check_type(Rec("x", Plus((("l", Down(TVar("x"))),))))
    with pytest.raises(UnboundTypeVariable):
        check_type(TVar("loose"))


def test_type_eq_is_alpha_equivalence():
    other = Rec("q", Plus((("z", One()), ("s", TVar("q")))))
    assert type_eq(CONAT, other)
    assert not type_eq(CONAT, BITS)
    assert type_eq(unfold_rec(CONAT),
                   Plus((("z", One()), ("s", CONAT))))
    # unfolding is not silent: the folded and unfolded forms differ
    assert not type_eq(CONAT, unfold_rec(CONAT))


# -- term typing


def test_term_synthesis():
    pt = ProcType(("x", One()))
    t = check_term(Lam("f", pt, FVar("f")))
    assert t == Arrow(pt, pt)
    quote = Quote(("x", One()), Close("x"))
    assert check_term(quote) == pt
    assert check_term(FApp(Lam("f", pt, FVar("f")), quote)) == pt


def test_fix_needs_annotations_to_synthesize():
    pt = ProcType(("x", One()))
    with pytest.raises(SillTypeError):
        check_term(Fix("y", FVar("y")))
    # but checking against a known type succeeds
    assert check_term(Lam("x", pt, Fix("y", FVar("y"))),
                      expected=Arrow(pt, pt)) == Arrow(pt, pt)
    # and a quote body gives fix a type by itself
    omega = Fix("w", Quote(("c", One()), Unquote("c", FVar("w"))))
    assert functype_eq(check_term(omega), pt)


def test_term_errors():
    with pytest.raises(SillTypeError):
        check_term(FVar("nope"))
    pt = ProcType(("x", One()))
    with pytest.raises(SillTypeError):
        check_term(FApp(Quote(("x", One()), Close("x")), FVar("x")),
                    env={"x": pt})
    with pytest.raises(SillTypeError):
        check_term(Quote(("x", One()), Close("x")), expected=Arrow(pt, pt))


# -- process typing


def test_wait_close_chain():
    check_proc(Wait("a", Close("b")), ("b", One()), {"a": One()})
    with pytest.raises(LinearityError):
        check_proc(Close("b"), ("b", One()), {"a": One()})
    with pytest.raises(SillTypeError):
        check_proc(Close("a"), ("b", One()), {"a": One()})


def test_forward_requires_matching_types_and_polarity():
    check_proc(FwdPos("a", "b"), ("b", CONAT), {"a": CONAT})
    with pytest.raises(SillTypeError):
        check_proc(FwdPos("a", "b"), ("b", One()), {"a": CONAT})
    with pytest.raises(SillTypeError):
        check_proc(FwdPos("a", "b"), ("b", Up(One())), {"a": Up(One())})
    check_proc(FwdNeg("a", "b"), ("b", Up(One())), {"a": Up(One())})


def test_case_must_cover_labels_exactly():
    t = Plus((("l", One()), ("r", One())))
    ok = Case("a", (("l", Wait("a", Close("c"))), ("r", Wait("a", Close("c")))))
    check_proc(ok, ("c", One()), {"a": t})
    with pytest.raises(SillTypeError):
        check_proc(Case("a", (("l", Wait("a", Close("c"))),)),
                   ("c", One()), {"a": t})
    # empty internal choice has no branches and absorbs nothing
    check_proc(Case("a", ()), ("c", One()), {"a": Plus(())})


def test_channel_send_and_receive():
    t = Tensor(One(), One())
    sender = SendChan("c", "p", Close("c"))
    check_proc(sender, ("c", t), {"p": One()})
    receiver = RecvChan("x", "c", Wait("x", Wait("c", Close("d"))))
    check_proc(receiver, ("d", One()), {"c": t})
    lolli = Lolli(One(), Up(One()))
    check_proc(RecvChan("x", "c", Wait("x", RecvShift("c", Close("c")))),
               ("c", lolli), {})
    with pytest.raises(SillTypeError):
        check_proc(SendChan("c", "c", Close("c")), ("c", t), {})


def test_value_send_receive():
    pt = ProcType(("x", One()))
    at = AndVal(pt, One())
    check_proc(SendVal("c", Quote(("x", One()), Close("x")), Close("c")),
               ("c", at), {})
    check_proc(RecvVal("v", "c", Wait("c", Unquote("d", FVar("v")))),
               ("d", One()), {"c": at})
    it = ImpVal(pt, Up(One()))
    check_proc(RecvVal("v", "c", RecvShift("c", Unquote("c", FVar("v")))),
               ("c", it), {})


def test_unfold_polarity_sides():
    check_proc(SendUnfold("c", SendLabel("c", "z", Close("c"))),
               ("c", CONAT), {})
    neg = Rec("x", With((("go", TVar("x")),)))
    check_proc(SendUnfold("u", SendLabel("u", "go", FwdNeg("u", "c"))),
               ("c", neg), {"u": neg})
    with pytest.raises(SillTypeError):
        check_proc(SendUnfold("c", SendLabel("c", "go", FwdNeg("c", "c"))),
                   ("c", neg), {})


def test_cut_splits_the_context():
    p = Cut("x", One(), Close("x"), Wait("x", Close("c")))
    check_proc(p, ("c", One()), {})
    with pytest.raises(SillTypeError):
        check_proc(Cut("x", None, Close("x"), Wait("x", Close("c"))),
                   ("c", One()), {})
    dup = Cut("x", One(), Wait("a", Close("x")),
              Wait("a", Wait("x", Close("c"))))
    with pytest.raises(LinearityError):
        check_proc(dup, ("c", One()), {"a": One()})
    drop = Cut("x", One(), Close("x"), Wait("x", Close("c")))
    with pytest.raises(LinearityError):
        check_proc(drop, ("c", One()), {"a": One()})


def test_unquote_passes_exactly_the_context():
    quote = Quote(("c", One()), Wait("u", Close("c")), (("u", One()),))
    check_proc(Unquote("d", quote, ("b",)), ("d", One()), {"b": One()})
    with pytest.raises(LinearityError):
        check_proc(Unquote("d", quote, ("b",)), ("d", One()),
                   {"b": One(), "e": One()})
    with pytest.raises(SillTypeError):
        check_proc(Unquote("d", quote, ("b",)), ("d", One()), {"b": CONAT})


# -- configurations


def test_config_forest_and_interface():
    facts = (
        ProcF("c", Wait("a", Close("c"))),
        ProcF("d", Wait("c", Close("d"))),
    )
    iface = Interface(used=(("a", One()),), internal=(("c", One()),),
                      provided=(("d", One()),))
    trees = check_config(facts, iface)
    assert list(trees) == ["d"]
    assert trees["d"] == (facts[1], facts[0])


def test_config_rejects_sharing_and_cycles():
    iface = Interface(provided=(("c", One()), ("d", One())))
    with pytest.raises(CyclicSharing):
        check_config((ProcF("c", Close("c")), ProcF("c", Close("c"))), iface)
    two_consumers = (
        ProcF("c", Close("c")),
        ProcF("d", Wait("c", Close("d"))),
        ProcF("e", Wait("c", Close("e"))),
    )
    iface2 = Interface(internal=(("c", One()),),
                       provided=(("d", One()), ("e", One())))
    with pytest.raises(CyclicSharing):
        check_config(two_consumers, iface2)
    neg = Up(One())
    loop = (
        ProcF("c", RecvShift("c", SendShift("d", Wait("d", Close("c"))))),
        ProcF("d", RecvShift("d", SendShift("c", Wait("c", Close("d"))))),
    )
    iface3 = Interface(internal=(("c", neg), ("d", neg)))
    with pytest.raises(CyclicSharing):
        check_config(loop, iface3)


def test_config_interface_must_match():
    facts = (ProcF("c", Close("c")),)
    with pytest.raises(InterfaceMismatch):
        check_config(facts, Interface(provided=(("d", One()),)))
    with pytest.raises(InterfaceMismatch):
        check_config(facts, Interface(provided=(("c", One()),),
                                      used=(("a", One()),)))
    with pytest.raises(IllTyped):
        check_config((ProcF("c", Close("c")),),
                     Interface(provided=(("c", CONAT),)))
    with pytest.raises(IllTyped):
        check_config((MsgF("c", Wait("a", Close("c"))),),
                     Interface(used=(("a", One()),), provided=(("c", One()),)))


# -- message structure


def test_message_parts_all_shapes():
    cases = [
        ("close", "positive", None),
        ("label", "positive", "l"),
        ("label", "negative", "l"),
        ("chan", "positive", "b"),
        ("chan", "negative", "b"),
        ("val", "positive", Quote(("x", One()), Close("x"))),
        ("val", "negative", Quote(("x", One()), Close("x"))),
        ("shift", "positive", None),
        ("shift", "negative", None),
        ("unfold", "positive", None),
        ("unfold", "negative", None),
    ]
    for kind, pol, payload in cases:
        cont = None if kind == "close" else "d"
        key, proc = make_message(kind, pol, "a", cont, payload)
        info = message_parts(key, proc)
        assert info is not None, (kind, pol)
        assert (info.kind, info.polarity) == (kind, pol)
        assert info.carrier == "a"
        assert info.cont == cont
        expected_key = "a" if pol == "positive" or kind == "close" else "d"
        assert key == expected_key


def test_messages_typecheck_as_processes():
    key, proc = make_message("label", "positive", "a", "d", "z")
    check_proc(proc, ("a", Plus((("z", One()),))), {"d": One()})
    key, proc = make_message("chan", "negative", "a", "d", "b")
    assert key == "d"
    check_proc(proc, ("d", Up(One())),
               {"a": Lolli(One(), Up(One())), "b": One()})


# -- parsing


def test_parse_and_print_module_round_trip():
    src = """
    type conat = rec a. +{z: 1, s: a}
    proc zero : |- c:conat = send c unfold; c.z; close c
    proc succ : n:conat |- c:conat = send c unfold; c.s; fwd+ n -> c
    config one : |- c:conat internal n:conat = proc n zero(), proc c succ(n)
    """
    m = parse(src)
    assert set(m.procs) == {"zero", "succ"}
    again = parse(module_to_str(m))
    assert again.decls == m.decls


def test_parse_expands_references():
    src = """
    type t = +{go: 1}
    proc p : |- c:t = c.go; close c
    proc q : |- d:t = d : t <- p(); fwd+ d -> d
    """
    # the cut reference is expanded with the bound channel substituted
    with pytest.raises(ParseError):
        parse(src + "proc q : |- d:t = close d")  # duplicate name
    m = parse("""
    type t = +{go: 1}
    proc p : |- c:t = c.go; close c
    proc user : |- d:1 = x : t <- p(); case x {go => wait x; close d}
    """)
    body = m.procs["user"].body
    assert isinstance(body, Cut)
    assert body.left == SendLabel("x", "go", Close("x"))


def test_parse_numeric_labels_and_comments():
    m = parse("""
    # two-symbol stream
    type bits = rec b. +{0: b, 1: b}
    proc one : |- c:bits = send c unfold; c.1; d : bits <- { send d unfold; d.0; fwd+ c -> d }; fwd+ d -> c
    """)
    assert m.procs["one"].body.cont.label == "1"
    # a process reference must already be declared; recursion lives in fix
    with pytest.raises(ParseError):
        parse("proc loop : |- c:1 = d : 1 <- loop(); wait d; close c")


def test_parse_hole_and_msg_facts():
    m = parse("""
    config ctx : |- r:1 internal a:1 =
      hole : |- a:1,
      proc r {wait a; close r}
    """)
    d = m.configs["ctx"]
    assert d.hole == Interface(provided=(("a", One()),))
    assert len(d.facts) == 1
    m2 = parse("config m : |- c:1 = msg c {close c}")
    assert m2.configs["m"].facts == (MsgF("c", Close("c")),)


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as e:
        parse("type t = rec a +{}")
    assert e.value.line == 1
    with pytest.raises(ParseError):
        parse("proc p : |- c:1 = send c; close c")
    with pytest.raises(ParseError):
        parse_proc("q <- [M] <- ,")
    with pytest.raises(ParseError):
        parse_type("")


def test_branches_are_label_sorted():
    t = parse_type("+{s: 1, a: 1}")
    assert [l for l, _ in t.branches] == ["a", "s"]
    p = parse_proc("case a {r => close c | l => wait a; close c}")
    assert [l for l, _ in p.branches] == ["l", "r"]


# -- property: printing then reparsing is the identity

_label_names = st.sampled_from(["l", "r", "z", "s", "b0", "b1"])


def _branches(sub):
    # duplicate labels are merged by dict rather than rejected by unique_by:
    # Hypothesis builds the repr of a strategy that rejects draws, and at
    # these depths it runs to hundreds of kB
    return st.lists(st.tuples(_label_names, sub), max_size=2).map(dict)


_tvar_names = st.sampled_from(["x", "y"])
_functypes = st.sampled_from([
    ProcType(("c", One())),
    ProcType(("c", One()), (("d", Plus(())),)),
    Arrow(ProcType(("c", One())), ProcType(("c", With(())))),
])


def _types(depth):
    if depth == 0:
        return st.one_of(st.sampled_from([One(), Plus(()), With(())]),
                         st.builds(TVar, _tvar_names))
    sub = _types(depth - 1)
    pos = st.sampled_from([One(), Plus(())])
    return st.one_of(
        sub,
        st.builds(Tensor, pos, pos),
        st.builds(Lolli, pos, st.sampled_from([With(()), Up(One())])),
        st.builds(Down, st.sampled_from([With(()), Up(One())])),
        st.builds(Up, pos),
        _branches(sub).map(Plus),
        _branches(sub).map(With),
        st.builds(Rec, _tvar_names, sub),
        st.builds(AndVal, _functypes, sub),
        st.builds(ImpVal, _functypes, sub),
    )


_chans = st.sampled_from(["a", "b", "c", "d"])
_fvar_names = st.sampled_from(["v", "w"])
_UNIT_PT = ProcType(("x", One()))


def _terms(depth):
    leaf = st.one_of(st.builds(FVar, _fvar_names),
                     st.just(Quote(("x", One()), Close("x"))))
    if depth == 0:
        return leaf
    sub = _terms(depth - 1)
    return st.one_of(
        leaf,
        st.builds(Lam, _fvar_names, st.just(_UNIT_PT), sub),
        st.builds(FApp, sub, sub),
        st.builds(Fix, _fvar_names, sub),
        st.builds(lambda m: Quote(("x", One()), Unquote("x", m)), sub),
    )


def _procs(depth):
    leaf = st.one_of(
        st.builds(Close, _chans),
        st.builds(FwdPos, _chans, _chans),
        st.builds(FwdNeg, _chans, _chans),
        st.builds(Unquote, _chans, _terms(1),
                  st.lists(_chans, max_size=2).map(tuple)),
    )
    if depth == 0:
        return leaf
    sub = _procs(depth - 1)
    return st.one_of(
        leaf,
        st.builds(Wait, _chans, sub),
        st.builds(SendLabel, _chans, _label_names, sub),
        st.builds(SendChan, _chans, _chans, sub),
        st.builds(RecvChan, _chans, _chans, sub),
        st.builds(SendShift, _chans, sub),
        st.builds(RecvShift, _chans, sub),
        st.builds(SendUnfold, _chans, sub),
        st.builds(RecvUnfold, _chans, sub),
        st.builds(SendVal, _chans, _terms(2), sub),
        st.builds(RecvVal, _fvar_names, _chans, sub),
        st.builds(Cut, st.sampled_from(["x", "y"]), _types(1), sub, sub),
        st.builds(Case, _chans, _branches(sub)),
    )


@settings(max_examples=150, deadline=None)
@given(_types(3))
def test_type_print_parse_identity(t):
    assert parse_type(type_to_str(t)) == t


@settings(max_examples=150, deadline=None)
@given(_procs(3))
def test_proc_print_parse_identity(p):
    assert parse_proc(proc_to_str(p)) == p
