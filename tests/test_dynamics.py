"""Process execution: step generation, evaluation, typed runs."""

import json

import ast_oracle
import pytest
import terms_oracle
from hypothesis import given, settings
from helpers import eph_size

from test_lang import _numeral, _procs

from sill import dynamics, equiv, obs
from sill.dynamics import (
    DIVERGED,
    PreservationViolation,
    SillSystem,
    classify_fact,
    config_state,
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
    fc,
    type_eq,
)
from sill.lang.ast import BRANCHES, LABEL, PROC_ROLES, fold, proc_to_str, subprocs
from sill.lang.check import check_config, check_proc
from sill.lang.parser import parse
from sill.msr.multiset import Multiset
from sill.msr.terms import App, Const, Wrap, term_consts, term_to_str
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
        # a free functional variable stands for itself
        SendVal("c", FVar("x"), Close("c")),
    ]
    for p in ps:
        assert dec_proc(*enc_proc(p)) == p


@settings(max_examples=120, deadline=None)
@given(_procs(3))
def test_roundtrip_random(p):
    assert dec_proc(*enc_proc(p)) == p


@settings(max_examples=120, deadline=None)
@given(_procs(3))
def test_bodies_that_differ_only_in_free_channels_share_one_code(p):
    # the free channels are slots, filled by the environment alone; the
    # new names hold a mark no binder does, so nothing is renamed apart
    rho = {c: f"{c}'{i}" for i, c in enumerate(sorted(fc(p)))}
    q = ast_oracle.subst_chan(p, rho)
    (code, env), (code_q, env_q) = enc_proc(p), enc_proc(q)
    assert code_q is code
    assert [a.name for a in env_q.args if type(a) is Const] == \
        [rho[a.name] for a in env.args if type(a) is Const]
    # the only constants a code names are its labels
    assert term_consts(code) == labels(p)


def labels(p):
    """The labels a process sends or cases on."""
    out = set()

    def kids(q, _):
        for f, role in PROC_ROLES[type(q)].items():
            v = getattr(q, f)
            out.update([v] if role is LABEL else [l for l, _ in v] if role is BRANCHES else [])
        return subprocs(q)

    fold(p, kids, lambda *_: None)
    return out


def test_dec_rejects_garbage():
    code, env = enc_proc(Wait("a", Close("b")))
    for bad_env in (Const("x"), App("nonsense", (Const("a"), Const("b"))),
                    App("env", (Const("a"),)), App("env", (Const("a"), Wrap(UNIT_Q)))):
        with pytest.raises(ValueError):
            dec_proc(code, bad_env)
    with pytest.raises(ValueError):
        dec_proc(Const("x"), env)
    with pytest.raises(ValueError):
        dec_proc(App("nonsense", (Wrap(0),)), env)
    # too few arguments, and too many
    a, b, val = Wrap(0), Wrap(1), Wrap(UNIT_Q)
    close = App("@", (App("close", (a,)), Wrap((0,))))
    for short in (App("wait", (a,)), App("send_val", (a, val)),
                  App("cut", (Wrap("a"), Wrap(One()), close)),
                  App("unquote", (a,)), App("case", ())):
        with pytest.raises(ValueError):
            dec_proc(short, env)
    for long in (App("close", (a, b)), App("fwd+", (a, b, b)), App("wait", (a, close, b))):
        with pytest.raises(ValueError):
            dec_proc(long, env)
    # a slot out of range, a subprocess without its slots, and the slot of
    # a binder under a construct that binds nothing
    for bad in (App("close", (Wrap(2),)), App("wait", (a, App("close", (a,)))),
                App("wait", (a, App("@", (App("close", (a,)), Wrap((-1,))))))):
        with pytest.raises(ValueError):
            dec_proc(bad, env)
    from sill.msr.multiset import Fact

    with pytest.raises(ValueError):
        classify_fact(Fact("other", (Const("x"),)))


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


def test_an_unchecked_run_decodes_no_process(monkeypatch):
    # steps read and build the encoded processes, and a message's info is
    # read off its term; nor do observing the run and a barb on it decode
    def refuse(t):
        raise AssertionError(f"decoded {t!r}")

    monkeypatch.setattr(dynamics, "dec_proc", refuse)
    w = Fix("w", Quote(("c", CONAT),
                       SendUnfold("c", SendLabel("c", "s", Unquote("c", FVar("w"))))))
    state, iface = initial_config(Unquote("o", w), {}, ("o", CONAT))
    tr = run(SillSystem(), state, iface, fuel=1000)
    assert len(tr.steps) == 1000
    procs = [f for f in tr.facts() if f.pred == "proc"]
    assert len(procs) > 1000
    assert all(f.memo is None for f in procs)
    assert all(f.memo[2] is None for f in tr.facts() if f.pred == "msg")
    tree, _ = obs.observe(tr, "o", 8)
    assert obs.tree_height(tree) == 8
    assert equiv.barb(tr.final(), "o", SillSystem())


def test_an_unchecked_run_of_a_5000_deep_process_takes_its_step():
    p = _numeral(2500)
    state, iface = initial_config(p, {}, ("c", CONAT))
    tr = run(SillSystem(), state, iface, fuel=1, check=False)
    assert names(tr) == ["rec_pos_r"]
    assert eph_size(tr.final()) == 2


def test_a_checked_run_of_a_5000_deep_process_takes_its_steps():
    # typing each produced fact decodes it, which must not recurse either
    p = _numeral(2500)
    state, iface = initial_config(p, {}, ("c", CONAT))
    tr = run(SillSystem(), state, iface, fuel=3, check=True)
    assert names(tr) == ["rec_pos_r", "plus_r", "rec_pos_r"]
    assert eph_size(tr.final()) == 4


def test_deep_process_takes_its_first_step():
    # 600 nested sends: keying and substituting the encoded process must
    # not recurse once per level
    p, t = Close("c"), One()
    for _ in range(600):
        p = SendLabel("c", "l", p)
        t = Plus((("l", t),))
    check_proc(p, ("c", t), {})
    state, iface = initial_config(p, {}, ("c", t))
    tr = run(SillSystem(), state, iface, fuel=1)
    assert names(tr) == ["plus_r"]


def test_a_5000_deep_process_steps_and_prints():
    # exporting the states prints the encoded 5000-deep term, which must
    # not recurse once per level; nor may printing the process
    p, t = Close("c"), One()
    for _ in range(5000):
        p = SendLabel("c", "l", p)
        t = Plus((("l", t),))
    assert proc_to_str(p) == "c.l; " * 5000 + "close c"
    state, iface = initial_config(p, {}, ("c", t))
    tr = run(SillSystem(), state, iface, fuel=1)
    assert names(tr) == ["plus_r"]
    data = json.loads(json.dumps(tr.to_json(include_states=True)))
    [first] = data["states"][0]["ephemeral"]
    # each level is its code, slot 0 the channel, and its subprocess's
    # code with the slot that fills the subprocess's one slot
    assert first == ("proc(c, " + "send_label(<0>, l, @(" * 5000 + "close(<0>)"
                     + ", <(0,)>))" * 5000 + ", env(c))")
    msg, rest = data["states"][1]["ephemeral"]
    assert msg == "msg(c, send_label(c, l, fwd+(c'0, c)))"
    assert rest.startswith("proc(c'0, send_label(<0>, l, ")
    assert rest.endswith(", env(c'0))")
    assert rest.count("send_label(") == 4999


def test_printers_match_the_recursive_ones_on_the_corpus():
    for name, facts, iface in corpus():
        for f in facts:
            assert proc_to_str(f.proc) == ast_oracle.proc_to_str(f.proc), name
        tr = run_corpus_entry(facts, iface, None)
        for f in tr.facts():
            for a in f.args:
                assert term_to_str(a) == terms_oracle.term_to_str(a), name
            if f.pred == "proc":
                q = dec_proc(*f.args[1:])
                assert proc_to_str(q) == ast_oracle.proc_to_str(q), name


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


def test_unquote_renames_a_capturing_binder_apart():
    # the body binds c, the channel it is unquoted onto: the decoded
    # process is the reference renaming's, its binder alpha-renamed
    q = Quote(("z", One()), Cut("c", One(), Close("c"), Wait("c", Close("z"))))
    state, iface = initial_config(Unquote("c", q), {}, ("c", One()))
    tr = run(SillSystem(), state, iface, fuel=10, check=True)
    assert names(tr)[0] == "unquote" and tr.meta["maximal"]
    [produced] = tr.steps[0].produced
    # the step shares the body's code: the binder is renamed apart as the
    # fact decodes
    assert produced.args[1] is enc_proc(q.body)[0]
    assert dynamics.config_fact(produced) == ProcF("c", ast_oracle.subst_chan(q.body, {"z": "c"}))
    assert ast_oracle.subst_chan(q.body, {"z": "c"}) == Cut(
        "c%0", One(), Close("c%0"), Wait("c%0", Close("c")))
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
