"""Process execution: step generation, evaluation, typed runs."""

import pytest
from hypothesis import given, settings

from test_lang import _procs

from sill.dynamics import (
    DIVERGED,
    PreservationViolation,
    SillSystem,
    config_state,
    dec_fact,
    dec_proc,
    enc_proc,
    eval_term,
    initial_config,
    msg_fact,
    proc_fact,
    run,
    run_config,
    state_facts,
)
from sill.lang.ast import (
    AndVal,
    Case,
    Close,
    Cut,
    Down,
    FApp,
    Fix,
    FVar,
    FwdNeg,
    FwdPos,
    ImpVal,
    Interface,
    Lam,
    MsgF,
    One,
    Plus,
    ProcF,
    ProcType,
    Quote,
    Rec,
    RecvChan,
    RecvShift,
    RecvUnfold,
    RecvVal,
    SendChan,
    SendLabel,
    SendShift,
    SendUnfold,
    SendVal,
    Tensor,
    TVar,
    Unquote,
    Up,
    Wait,
    With,
    message_parts,
    type_eq,
)
from sill.lang.check import check_config, check_proc
from sill.lang.parser import parse
from sill.msr.multiset import Multiset
from sill.msr.trace import union_equivalent

CONAT = Rec("a", Plus((("z", One()), ("s", TVar("a")))))
UNIT_PT = ProcType(("z", One()))
UNIT_Q = Quote(("z", One()), Close("z"))


def names(tr):
    return [s.inst.rule.name for s in tr.steps]


def final_facts(tr):
    return state_facts(tr.final())


# -- evaluation ---------------------------------------------------------------------


def test_eval_values_and_application():
    ident = Lam("x", UNIT_PT, FVar("x"))
    assert eval_term(ident) == ident
    assert eval_term(UNIT_Q) == UNIT_Q
    assert eval_term(FApp(ident, UNIT_Q)) == UNIT_Q
    two = FApp(ident, FApp(ident, UNIT_Q))
    assert eval_term(two) == UNIT_Q


def test_eval_fuel_counts_unfoldings():
    # one unfolding reaches a value
    once = Fix("w", Lam("x", UNIT_PT, FVar("x")))
    assert eval_term(once, fuel=1) == Lam("x", UNIT_PT, FVar("x"))
    assert eval_term(once, fuel=0) is DIVERGED
    # pure self-reference never does, and must not blow the stack
    assert eval_term(Fix("w", FVar("w")), fuel=100_000) is DIVERGED


def test_eval_memo_per_system():
    sys_ = SillSystem(eval_fuel=5)
    loop = Fix("w", FVar("w"))
    assert sys_.eval(loop) is DIVERGED
    assert sys_.eval(loop) is DIVERGED
    assert sys_.eval(UNIT_Q) == UNIT_Q


# -- encoding ----------------------------------------------------------------------


def test_roundtrip_examples():
    ps = [
        Cut("a", One(), Close("a"), Wait("a", Close("b"))),
        Case("c", (("l", Close("c")), ("r", Wait("u", Close("c"))))),
        Unquote("c", UNIT_Q, ("u", "v")),
        SendVal("c", UNIT_Q, FwdPos("d", "c")),
        RecvVal("x", "c", SendVal("d", FVar("x"), Close("d"))),
    ]
    for p in ps:
        assert dec_proc(enc_proc(p)) == p


@settings(max_examples=120, deadline=None)
@given(_procs(3))
def test_roundtrip_random(p):
    assert dec_proc(enc_proc(p)) == p


def test_dec_rejects_garbage():
    from sill.msr.terms import App, Const, Wrap

    with pytest.raises(ValueError):
        dec_proc(Const("x"))
    with pytest.raises(ValueError):
        dec_proc(App("nonsense", (Const("x"),)))
    # too few arguments, and too many
    a, b, val = Const("a"), Const("b"), Wrap(UNIT_Q)
    for short in (App("wait", (a,)), App("send_val", (a, val)),
                  App("cut", (a, Wrap(One()), enc_proc(Close("a")))),
                  App("unquote", (a,)), App("case", ())):
        with pytest.raises(ValueError):
            dec_proc(short)
    for long in (App("close", (a, b)), App("fwd+", (a, b, b)),
                 App("wait", (a, enc_proc(Close("b")), b))):
        with pytest.raises(ValueError):
            dec_proc(long)
    from sill.msr.multiset import Fact

    with pytest.raises(ValueError):
        dec_fact(Fact("other", (Const("x"),)))


# -- goldens -----------------------------------------------------------------------


def test_cut_close_wait_golden():
    p = Cut("a", One(), Close("a"), Wait("a", Close("b")))
    state, iface = initial_config(p, {}, ("b", One()))
    tr = run(SillSystem(), state, iface, fuel=10, check=True)
    assert names(tr) == ["cut", "one_r", "one_l", "one_r"]
    assert final_facts(tr) == [MsgF("b", Close("b"))]
    assert tr.meta["maximal"] is True
    types = tr.meta["channel_types"]
    assert type_eq(types["b"], One()) and type_eq(types["a'0"], One())


def test_omega_cycles_three_rules():
    w = Fix("w", Quote(("c", CONAT),
                       SendUnfold("c", SendLabel("c", "s", Unquote("c", FVar("w"))))))
    p = Unquote("o", w)
    check_proc(p, ("o", CONAT), {})
    state, iface = initial_config(p, {}, ("o", CONAT))
    tr = run(SillSystem(), state, iface, fuel=3000)
    assert names(tr) == ["unquote", "rec_pos_r", "plus_r"] * 1000
    assert tr.meta["maximal"] is False
    types = tr.meta["channel_types"]
    assert type_eq(types["o'0"], Plus((("z", One()), ("s", CONAT))))
    assert type_eq(types["o'1"], CONAT)
    assert type_eq(types["o'2"], Plus((("z", One()), ("s", CONAT))))


def test_terminal_state_gives_empty_trace():
    state = Multiset.of([msg_fact("b", Close("b"))])
    iface = Interface(used=(), internal=(), provided=(("b", One()),))
    tr = run(SillSystem(), state, iface, fuel=50, check=True)
    assert len(tr) == 0
    assert tr.meta["maximal"] is True


def test_forward_positive_relabels_message():
    state = Multiset.of([
        proc_fact("a", Close("a")),
        proc_fact("c", FwdPos("a", "c")),
        proc_fact("e", Wait("c", Close("e"))),
    ])
    iface = Interface(used=(), internal=(("a", One()), ("c", One())),
                      provided=(("e", One()),))
    tr = run(SillSystem(), state, iface, fuel=10, check=True)
    assert names(tr) == ["one_r", "fwd+", "one_l", "one_r"]
    assert final_facts(tr) == [MsgF("e", Close("e"))]


def test_forward_negative_redirects_message():
    up1 = Up(One())
    state = Multiset.of([
        proc_fact("a", RecvShift("a", Close("a"))),
        proc_fact("c", FwdNeg("a", "c")),
        proc_fact("e", SendShift("c", Wait("c", Close("e")))),
    ])
    iface = Interface(used=(), internal=(("a", up1), ("c", up1)),
                      provided=(("e", One()),))
    tr = run(SillSystem(), state, iface, fuel=10, check=True)
    assert names(tr) == ["up_l", "fwd-", "up_r", "one_r", "one_l", "one_r"]
    assert final_facts(tr) == [MsgF("e", Close("e"))]


def test_unquote_substitutes_actuals():
    q = Quote(("c", One()), Wait("f", Close("c")), (("f", One()),))
    p = Unquote("c", q, ("u",))
    check_proc(p, ("c", One()), {"u": One()})
    state = Multiset.of([msg_fact("u", Close("u")), proc_fact("c", p)])
    iface = Interface(used=(), internal=(("u", One()),), provided=(("c", One()),))
    tr = run(SillSystem(), state, iface, fuel=10, check=True)
    assert names(tr) == ["unquote", "one_l", "one_r"]
    assert final_facts(tr) == [MsgF("c", Close("c"))]


def test_value_payload_is_evaluated_at_send():
    ident = Lam("x", UNIT_PT, FVar("x"))
    p = SendVal("c", FApp(ident, UNIT_Q), Close("c"))
    check_proc(p, ("c", AndVal(UNIT_PT, One())), {})
    state, iface = initial_config(p, {}, ("c", AndVal(UNIT_PT, One())))
    tr = run(SillSystem(), state, iface, fuel=10, check=True)
    assert names(tr)[0] == "and_r"
    msgs = [f for f in final_facts(tr) if isinstance(f, MsgF) and f.chan == "c"]
    info = message_parts("c", msgs[0].proc)
    assert info.kind == "val" and info.payload == UNIT_Q


def test_divergent_side_condition_blocks_step():
    p = SendVal("c", Fix("w", FVar("w")), Close("c"))
    state, iface = initial_config(p, {}, ("c", AndVal(UNIT_PT, One())))
    tr = run(SillSystem(eval_fuel=50), state, iface, fuel=10)
    assert len(tr) == 0 and tr.meta["maximal"] is True


def test_check_rejects_ill_typed_initial_state():
    state, _ = initial_config(Close("c"), {}, ("c", One()))
    bad = Interface(used=(), internal=(), provided=(("c", Plus((("l", One()),))),))
    with pytest.raises(PreservationViolation):
        run(SillSystem(), state, bad, fuel=5, check=True)


# -- a small closed corpus, used for invariants ------------------------------------


def corpus():
    """(name, facts, interface) triples; every run terminates."""
    out = []

    p = Cut("a", One(), Close("a"), Wait("a", Close("b")))
    out.append(("cut_wait",
                [ProcF("b", p)],
                Interface((), (), (("b", One()),))))

    two = Tensor(One(), One())
    prov = Cut("a", One(), Close("a"), SendChan("c", "a", Close("c")))
    cli = RecvChan("x", "c", Wait("x", Wait("c", Close("e"))))
    out.append(("tensor_round",
                [ProcF("c", prov), ProcF("e", cli)],
                Interface((), (("c", two),), (("e", One()),))))

    w2 = With((("l", Up(One())), ("r", Up(One()))))
    prov = Case("c", (("l", RecvShift("c", Close("c"))),
                      ("r", RecvShift("c", Close("c")))))
    cli = SendLabel("c", "l", SendShift("c", Wait("c", Close("e"))))
    out.append(("choice_round",
                [ProcF("c", prov), ProcF("e", cli)],
                Interface((), (("c", w2),), (("e", One()),))))

    du = Down(Up(One()))
    prov = SendShift("c", RecvShift("c", Close("c")))
    cli = RecvShift("c", SendShift("c", Wait("c", Close("e"))))
    out.append(("shift_round",
                [ProcF("c", prov), ProcF("e", cli)],
                Interface((), (("c", du),), (("e", One()),))))

    rneg = Rec("a", With((("stop", Up(One())),)))
    prov = RecvUnfold("c", Case("c", (("stop", RecvShift("c", Close("c"))),)))
    cli = SendUnfold("c", SendLabel("c", "stop",
                                    SendShift("c", Wait("c", Close("e")))))
    out.append(("rec_neg_round",
                [ProcF("c", prov), ProcF("e", cli)],
                Interface((), (("c", rneg),), (("e", One()),))))

    av = AndVal(UNIT_PT, One())
    prov = SendVal("c", UNIT_Q, Close("c"))
    cli = RecvVal("x", "c", Wait("c", Close("e")))
    out.append(("and_round",
                [ProcF("c", prov), ProcF("e", cli)],
                Interface((), (("c", av),), (("e", One()),))))

    iv = ImpVal(UNIT_PT, Up(One()))
    prov = RecvVal("x", "c", RecvShift("c", Close("c")))
    cli = SendVal("c", UNIT_Q, SendShift("c", Wait("c", Close("e"))))
    out.append(("imp_round",
                [ProcF("c", prov), ProcF("e", cli)],
                Interface((), (("c", iv),), (("e", One()),))))

    out.append(("fwd_pos",
                [ProcF("a", Close("a")), ProcF("c", FwdPos("a", "c")),
                 ProcF("e", Wait("c", Close("e")))],
                Interface((), (("a", One()), ("c", One())), (("e", One()),))))

    up1 = Up(One())
    out.append(("fwd_neg",
                [ProcF("a", RecvShift("a", Close("a"))),
                 ProcF("c", FwdNeg("a", "c")),
                 ProcF("e", SendShift("c", Wait("c", Close("e"))))],
                Interface((), (("a", up1), ("c", up1)), (("e", One()),))))

    return out


def test_corpus_configs_are_well_formed():
    for name, facts, iface in corpus():
        check_config(facts, iface)


def run_corpus_entry(facts, iface, seed):
    return run(SillSystem(), config_state(facts), iface,
               fuel=200, seed=seed, check=True)


def test_corpus_invariants_across_seeds():
    for name, facts, iface in corpus():
        traces = [run_corpus_entry(facts, iface, s) for s in (None, 0, 1, 2, 7)]
        base = traces[0]
        assert base.meta["maximal"] is True, name
        for tr in traces:
            assert len(tr) == len(base), name
            assert union_equivalent(tr, base), name
            system = SillSystem()
            for st in tr.states:
                carriers = []
                for f in state_facts(st):
                    if isinstance(f, MsgF):
                        info = message_parts(f.chan, f.proc)
                        assert info is not None, name
                        carriers.append(info.carrier)
                assert len(carriers) == len(set(carriers)), name
                insts = system.applicable(st)
                consumed = [f for i in insts for f in i.rule.eph_ant]
                assert len(consumed) == len(set(consumed)), name


def test_same_seed_reproduces_exactly():
    _, facts, iface = corpus()[1]
    t1 = run_corpus_entry(facts, iface, 42)
    t2 = run_corpus_entry(facts, iface, 42)
    assert names(t1) == names(t2)
    assert [s.xi for s in t1.steps] == [s.xi for s in t2.steps]
    assert t1.final() == t2.final()


# -- declarations ------------------------------------------------------------------


SRC = """
type two = +{z: 1, s: +{z: 1, s: 1}}

proc two_src : |- c : two =
  c.s; c.z; close c

proc drain : c : two |- e : 1 =
  case c { z => wait c; close e
         | s => case c { z => wait c; close e | s => wait c; close e } }

config main : |- e : 1 internal c : two =
  proc c two_src(), proc e drain(c)
"""


def test_run_config_from_source():
    mod = parse(SRC)
    tr = run_config(mod.configs["main"], fuel=50, check=True)
    assert tr.meta["maximal"] is True
    assert final_facts(tr) == [MsgF("e", Close("e"))]
    assert sorted(names(tr)) == sorted(
        ["plus_r", "plus_r", "one_r", "plus_l", "plus_l", "one_l", "one_r"])


def test_run_config_rejects_holes():
    src = SRC + "\nconfig holed : c : two |- e : 1 = proc e drain(c), hole : |- c : two\n"
    mod = parse(src)
    from sill.lang.errors import SillError

    with pytest.raises(SillError):
        run_config(mod.configs["holed"])
