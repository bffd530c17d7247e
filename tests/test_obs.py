"""Observed communications: trees, truncation, similarity, observation."""

import pytest
from hypothesis import given, settings, strategies as st

from test_dynamics import CONAT, UNIT_PT, UNIT_Q, corpus

from sill.dynamics import SillSystem, config_state, initial_config, run
from sill.lang.ast import (
    Close,
    Cut,
    Fix,
    FVar,
    Interface,
    Lam,
    One,
    Plus,
    ProcF,
    Quote,
    SendChan,
    SendLabel,
    SendShift,
    SendUnfold,
    Tensor,
    Unquote,
    Up,
    Wait,
    type_eq,
)
from sill.lang.errors import SillError, SillTypeError
from sill.obs import (
    BOT,
    CloseMsg,
    Label,
    Observation,
    Pair,
    Shift,
    Unfold,
    Val,
    check_comm,
    comm_eq,
    comm_sim,
    observe,
    observe_config,
    syntactic,
    tree_height,
    tree_to_json,
    tree_to_str,
    truncate,
    universal,
)


def omega_proc(chan="o"):
    w = Fix("w", Quote(("c", CONAT),
                       SendUnfold("c", SendLabel("c", "s", Unquote("c", FVar("w"))))))
    return Unquote(chan, w)


def silent_proc(chan):
    """Steps forever without ever sending: an unquote of itself."""
    w = Fix("w", Quote(("z", One()), Unquote("z", FVar("w"))))
    return Unquote(chan, w)


# -- trees -------------------------------------------------------------------------


def test_truncate_basics():
    t = Label("s", Unfold(CloseMsg()))
    assert truncate(t, 0) == BOT
    assert truncate(t, 1) == Label("s", BOT)
    assert truncate(t, 2) == Label("s", Unfold(BOT))
    assert truncate(t, 3) == t
    assert truncate(CloseMsg(), 1) == CloseMsg()
    assert truncate(CloseMsg(), 0) == BOT


def test_sim_and_eq():
    t = Pair(CloseMsg(), Label("l", BOT))
    assert comm_sim(BOT, t)
    assert comm_sim(truncate(t, 1), t)
    assert not comm_sim(t, truncate(t, 1))
    assert comm_eq(t, t)
    assert not comm_sim(Label("l", BOT), Label("r", BOT))

    ident = Lam("x", UNIT_PT, FVar("x"))
    v1, v2 = Val(UNIT_Q, BOT), Val(ident, BOT)
    assert comm_eq(v1, v2, universal)
    assert not comm_eq(v1, v2, syntactic)
    assert comm_eq(v1, Val(UNIT_Q, BOT), syntactic)


_trees = st.deferred(lambda: st.one_of(
    st.just(BOT),
    st.just(CloseMsg()),
    st.builds(Label, st.sampled_from(["l", "r", "s"]), _trees),
    st.builds(Pair, _trees, _trees),
    st.builds(Shift, _trees),
    st.builds(Unfold, _trees),
    st.builds(Val, st.just(UNIT_Q), _trees),
))


@settings(max_examples=150, deadline=None)
@given(_trees, st.integers(0, 6), st.integers(0, 6))
def test_truncate_properties(t, n, m):
    assert truncate(t, tree_height(t)) == t
    assert truncate(truncate(t, n), m) == truncate(t, min(n, m))
    assert comm_sim(truncate(t, n), t)
    assert comm_sim(t, t)


@settings(max_examples=100, deadline=None)
@given(_trees, st.integers(0, 4), st.integers(0, 4))
def test_sim_transitive_on_prefixes(t, i, j):
    a, b = truncate(t, min(i, j)), truncate(t, max(i, j))
    assert comm_sim(a, b) and comm_sim(b, t)
    assert comm_sim(a, t)


def test_check_comm():
    two = Plus((("z", One()), ("s", One())))
    check_comm(Label("s", CloseMsg()), two)
    check_comm(BOT, two)
    check_comm(Unfold(Label("s", BOT)), CONAT)
    with pytest.raises(SillTypeError):
        check_comm(Label("x", BOT), two)
    with pytest.raises(SillTypeError):
        check_comm(CloseMsg(), two)
    with pytest.raises(SillTypeError):
        check_comm(Pair(BOT, BOT), One())


# -- observation goldens -----------------------------------------------------------


def test_observe_omega():
    state, iface = initial_config(omega_proc(), {}, ("o", CONAT))
    tr = run(SillSystem(), state, iface, fuel=30)
    t, a = observe(tr, "o", 3)
    assert t == Unfold(Label("s", Unfold(BOT)))
    assert type_eq(a, CONAT)
    assert observe(tr, "o", 0)[0] == BOT


def test_observe_silent_is_bottom():
    state, iface = initial_config(silent_proc("o"), {}, ("o", One()))
    tr = run(SillSystem(), state, iface, fuel=40)
    assert len(tr) == 40
    assert observe(tr, "o", 5)[0] == BOT


def test_observe_pair_components():
    two = Tensor(One(), One())
    full = Cut("a", One(), Close("a"), SendChan("c", "a", Close("c")))
    state, iface = initial_config(full, {}, ("c", two))
    tr = run(SillSystem(), state, iface, fuel=20, check=True)
    assert observe(tr, "c", 2)[0] == Pair(CloseMsg(), CloseMsg())
    assert observe(tr, "c", 1)[0] == Pair(BOT, BOT)

    # same shape, but the payload provider never speaks
    quiet = Cut("a", One(), silent_proc("a"), SendChan("c", "a", Close("c")))
    state, iface = initial_config(quiet, {}, ("c", two))
    tr = run(SillSystem(), state, iface, fuel=40)
    assert observe(tr, "c", 3)[0] == Pair(BOT, CloseMsg())

    # and the mirror image: the continuation goes silent
    stuck = Cut("a", One(), Close("a"), SendChan("c", "a", silent_proc("c")))
    state, iface = initial_config(stuck, {}, ("c", two))
    tr = run(SillSystem(), state, iface, fuel=40)
    assert observe(tr, "c", 3)[0] == Pair(CloseMsg(), BOT)


def test_observe_negative_carrier():
    p = SendShift("a", Wait("a", Close("e")))
    state = config_state([ProcF("e", p)])
    iface = Interface(used=(("a", Up(One())),), internal=(), provided=(("e", One()),))
    tr = run(SillSystem(), state, iface, fuel=10, check=True)
    t, a = observe(tr, "a", 3)
    assert t == Shift(BOT)
    assert type_eq(a, Up(One()))


def test_observe_errors():
    state, iface = initial_config(Close("c"), {}, ("c", One()))
    tr = run(SillSystem(), state, iface, fuel=5)
    with pytest.raises(SillError):
        observe(tr, "nope", 3)
    del tr.meta["channel_types"]
    with pytest.raises(SillError):
        observe(tr, "c", 3)


# -- observe_config ----------------------------------------------------------------


def test_observe_config_label_order():
    facts = [
        ProcF("a", SendLabel("a", "l", Close("a"))),
        ProcF("b", SendLabel("b", "r", Close("b"))),
    ]
    t = Plus((("l", One()), ("r", One())))
    iface = Interface(used=(), internal=(), provided=(("a", t), ("b", t)))
    obs = observe_config(config_state(facts), iface, fuel=20, depth=2)
    assert obs.tree("a") == Label("l", CloseMsg())
    assert obs.tree("b") == Label("r", CloseMsg())
    data = obs.to_json()["channels"]
    assert data["a"]["comm"] == ["label", "l", ["close"]]
    assert data["a"]["type"] == "+{l: 1, r: 1}"


def test_observe_config_deterministic_across_seeds():
    _, facts, iface = corpus()[1]
    outs = {observe_config(config_state(facts), iface, fuel=100, depth=6,
                           seed=s).dumps()
            for s in (None, 0, 1, 2, 3, 11)}
    assert len(outs) == 1


def test_observation_depth_and_fuel_monotone():
    for name, facts, iface in corpus():
        chans = sorted([c for c, _ in iface.used] + [c for c, _ in iface.provided])
        trs = {f: run(SillSystem(), config_state(facts), iface, fuel=f)
               for f in (2, 5, 200)}
        for c in chans:
            for n in range(0, 6):
                big, a = observe(trs[200], c, n + 1)
                small, _ = observe(trs[200], c, n)
                assert truncate(big, n) == small, (name, c, n)
                check_comm(big, a)
            for f1, f2 in ((2, 5), (5, 200)):
                t1, _ = observe(trs[f1], c, 6)
                t2, _ = observe(trs[f2], c, 6)
                assert comm_sim(t1, t2), (name, c, f1, f2)


def test_tree_strings():
    t = Pair(CloseMsg(), Label("l", BOT))
    assert tree_to_str(t) == "(pair close (l bot))"
    assert tree_to_json(BOT) is None
    v = Val(UNIT_Q, BOT)
    assert tree_to_json(v)[0] == "val"
    assert "proc" in tree_to_str(v)
