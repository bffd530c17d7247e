"""Message info read off the term, against a full decode.

A message is kept as the two levels of its term (the send and the forward
that ends it), and ``dynamics.msg_info`` reads its ``MsgInfo`` off them.
For every msg fact of the dynamics corpus under several seeds, of the wide
benchmark configuration and of an endless sender, the term reading gives
what ``ast.message_parts`` gives on the process the reference decoder
``ast_oracle.dec_proc`` reads off the term.  Hand-built wrong shapes read
as no message: as terms they encode no fact and raise ``ValueError``, and
``msg_fact`` refuses the processes they spell, which are no messages.
"""

import sys
from pathlib import Path

import ast_oracle
import pytest
from test_dynamics import corpus
from test_obs import CONAT, omega_proc

from sill import dynamics
from sill.dynamics import SillSystem, _read_msg, config_state, initial_config, msg_info, run
from sill.lang import ast, check_module, parse
from sill.lang.ast import FApp, FVar, Lam
from sill.msr.multiset import Fact
from sill.msr.terms import App, Const, Wrap

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import wide_source  # noqa: E402

SEEDS = (None, 0, 1, 2, 7)
VALUE = ast.Quote(("z", ast.One()), ast.Close("z"))
IDENTITY = Lam("x", ast.ProcType(("z", ast.One())), FVar("x"))


def decoded(f):
    """The message info of f by the reference decoder's full decode."""
    return ast.message_parts(f.args[0].name, ast_oracle.dec_proc(f.args[1]))


def assert_read_like_decoded(tr):
    """Every msg fact of the run is read off its term as the decode reads
    it; returns the (kind, polarity) pairs met."""
    seen = set()
    for f in tr.facts():
        if f.pred != "msg":
            assert _read_msg(f) is None
            continue
        info = decoded(f)
        assert info is not None
        assert _read_msg(f) == info and msg_info(f) == info
        seen.add((info.kind, info.polarity))
    return seen


def test_corpus_messages_read_like_decoded():
    seen = set()
    for name, facts, iface in corpus():
        for seed in SEEDS:
            seen |= assert_read_like_decoded(
                run(SillSystem(), config_state(facts), iface, fuel=200, seed=seed))
    assert len(seen) >= 8


def test_every_message_shape_reads_like_decoded():
    # every kind in each polarity it is sent at (close only positively)
    payloads = {"label": "l", "chan": "wb", "val": VALUE}
    for kind in ast.MSG_SEND:
        for pol in (ast.POSITIVE, ast.NEGATIVE)[:1 if kind == "close" else 2]:
            chan, p = ast.make_message(kind, pol, "wa", "wd", payloads.get(kind))
            f = dynamics.msg_fact(chan, p)
            info = _read_msg(f)
            assert info is not None and info == decoded(f), (kind, pol)
            assert (info.kind, info.polarity) == (kind, pol)


def test_wide_and_endless_messages_read_like_decoded():
    src, _ = wide_source(4, 1)
    mod = parse(src)
    check_module(mod)
    decl = mod.configs["wide"]
    assert assert_read_like_decoded(
        run(SillSystem(), config_state(decl.facts), decl.interface, fuel=10_000, seed=1))
    state, iface = initial_config(omega_proc(), {}, ("o", CONAT))
    tr = run(SillSystem(), state, iface, fuel=300)
    assert len(tr.steps) == 300
    assert assert_read_like_decoded(tr) == {("unfold", ast.POSITIVE), ("label", ast.POSITIVE)}


# -- wrong shapes ------------------------------------------------------------------------


def _msg(chan, tag, *args):
    return Fact("msg", (Const(chan), App(tag, tuple(args))))


A, D, E = Const("wa"), Const("wd"), Const("we")


@pytest.mark.parametrize("f", [
    # the wrong forward tag: a positive label ends in fwd+, a positive
    # shift in fwd-
    _msg("wa", "send_label", A, Const("l"), App("fwd-", (D, A))),
    _msg("wa", "send_shift", A, App("fwd+", (D, A))),
    _msg("wa", "send_unfold", A, App("close", (A,))),
    # a forward that names the wrong channel
    _msg("wa", "send_label", A, Const("l"), App("fwd+", (D, E))),
    _msg("wd", "send_chan", A, E, App("fwd-", (D, D))),
    # a fact channel that is not the carrier
    _msg("wd", "send_unfold", A, App("fwd+", (D, A))),
    _msg("we", "send_unfold", A, App("fwd-", (A, D))),
    _msg("wd", "close", A),
    # a non-value payload
    _msg("wa", "send_val", A, Wrap(FVar("x")), App("fwd+", (D, A))),
    _msg("wa", "send_val", A, Wrap(FApp(IDENTITY, VALUE)), App("fwd+", (D, A))),
    # a process that is no send
    _msg("wa", "fwd+", D, A),
    _msg("wa", "wait", A, App("close", (D,))),
])
def test_wrong_shapes_read_as_no_message(f):
    assert decoded(f) is None
    assert _read_msg(f) is None
    with pytest.raises(ValueError):
        msg_info(f)
    with pytest.raises(ValueError):
        dynamics.msg_fact(f.args[0].name, ast_oracle.dec_proc(f.args[1]))


@pytest.mark.parametrize("f", [
    Fact("msg", (Const("wa"), Const("wa"))),
    _msg("wa", "bogus", A),
    _msg("wa", "send_label", A, Const("l")),
    _msg("wa", "send_label", A, Wrap("l"), App("fwd+", (D, A))),
    _msg("wa", "send_unfold", A, App("fwd+", (Wrap("wd"), A))),
    Fact("msg", (Wrap("wa"), App("close", (A,)))),
])
def test_a_term_that_encodes_no_process_raises(f):
    assert _read_msg(f) is None
    with pytest.raises(ValueError):
        msg_info(f)


def test_a_read_message_decodes_in_full_on_demand():
    # names of its own, so no other test has decoded this fact
    f = _msg("wm", "send_label", Const("wm"), Const("l"), App("fwd+", (Const("wn"), Const("wm"))))
    assert f.memo is None
    info = msg_info(f)
    assert info == ast.MsgInfo(ast.POSITIVE, "label", "wm", "wn", "l")
    assert f.memo[2] is None
    assert dynamics.classify_fact(f) == (
        "msg", "wm", ast.SendLabel("wm", "l", ast.FwdPos("wn", "wm")), info)
    assert dynamics.config_fact(f) == ast.MsgF("wm", ast_oracle.dec_proc(f.args[1]))
