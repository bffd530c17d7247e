"""Communication trees as they were before they became one node form.

A reference for the differential tests in ``tests/test_obs_oracle.py``:
seven tree classes with the six functions over them, ``observe``'s walk,
the experiment generator ``_gen``, and ``message_parts``/``make_message``
with one block per message kind.  Each spells out the correspondence of
message kinds to session-type connectives on its own, which is what the
single table in ``sill.lang.ast`` replaced; every result here is one that
the current code must reproduce.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

from sill.equiv import Y_NEG, Y_POS, divergent, oracle_type, universal_oracle
from sill.lang import ast
from sill.lang.ast import (
    NEGATIVE,
    POSITIVE,
    Close,
    FwdNeg,
    FwdPos,
    MsgInfo,
    SendChan,
    SendLabel,
    SendShift,
    SendUnfold,
    SendVal,
    is_value,
)
from sill.lang.check import check_term
from sill.lang.errors import SillError, SillTypeError
from sill.obs import _message_index

CommTree = Union["Bot", "CloseMsg", "Label", "Pair", "Shift", "Unfold", "Val"]


@dataclass(frozen=True)
class Bot:
    pass


@dataclass(frozen=True)
class CloseMsg:
    pass


@dataclass(frozen=True)
class Label:
    label: str
    rest: CommTree


@dataclass(frozen=True)
class Pair:
    payload: CommTree
    rest: CommTree


@dataclass(frozen=True)
class Shift:
    rest: CommTree


@dataclass(frozen=True)
class Unfold:
    rest: CommTree


@dataclass(frozen=True)
class Val:
    value: ast.FuncTerm
    rest: CommTree


BOT = Bot()


def tree_height(t: CommTree) -> int:
    if isinstance(t, Bot):
        return 0
    if isinstance(t, CloseMsg):
        return 1
    if isinstance(t, Pair):
        return 1 + max(tree_height(t.payload), tree_height(t.rest))
    return 1 + tree_height(t.rest)


def truncate(t: CommTree, n: int) -> CommTree:
    if n <= 0 or isinstance(t, Bot):
        return BOT
    if isinstance(t, CloseMsg):
        return t
    if isinstance(t, Label):
        return Label(t.label, truncate(t.rest, n - 1))
    if isinstance(t, Pair):
        return Pair(truncate(t.payload, n - 1), truncate(t.rest, n - 1))
    if isinstance(t, Shift):
        return Shift(truncate(t.rest, n - 1))
    if isinstance(t, Unfold):
        return Unfold(truncate(t.rest, n - 1))
    if isinstance(t, Val):
        return Val(t.value, truncate(t.rest, n - 1))
    raise TypeError(f"not a communication tree: {t!r}")


def comm_sim(s: CommTree, t: CommTree, vrel) -> bool:
    if isinstance(s, Bot):
        return True
    if type(s) is not type(t):
        return False
    if isinstance(s, CloseMsg):
        return True
    if isinstance(s, Label):
        return s.label == t.label and comm_sim(s.rest, t.rest, vrel)
    if isinstance(s, Pair):
        return (comm_sim(s.payload, t.payload, vrel)
                and comm_sim(s.rest, t.rest, vrel))
    if isinstance(s, (Shift, Unfold)):
        return comm_sim(s.rest, t.rest, vrel)
    if isinstance(s, Val):
        return vrel(s.value, t.value) and comm_sim(s.rest, t.rest, vrel)
    raise TypeError(f"not a communication tree: {s!r}")


def check_comm(t: CommTree, a: ast.SessionType) -> None:
    if isinstance(t, Bot):
        return
    if isinstance(t, CloseMsg):
        if not isinstance(a, ast.One):
            raise SillTypeError(f"close observed at type {ast.type_to_str(a)}")
        return
    if isinstance(t, Label):
        if not isinstance(a, (ast.Plus, ast.With)):
            raise SillTypeError(f"label observed at type {ast.type_to_str(a)}")
        cont = a.branch(t.label)
        if cont is None:
            raise SillTypeError(
                f"label {t.label} not offered by {ast.type_to_str(a)}")
        check_comm(t.rest, cont)
        return
    if isinstance(t, Pair):
        if not isinstance(a, (ast.Tensor, ast.Lolli)):
            raise SillTypeError(f"pair observed at type {ast.type_to_str(a)}")
        check_comm(t.payload, a.left)
        check_comm(t.rest, a.right)
        return
    if isinstance(t, Shift):
        if not isinstance(a, (ast.Down, ast.Up)):
            raise SillTypeError(f"shift observed at type {ast.type_to_str(a)}")
        check_comm(t.rest, a.body)
        return
    if isinstance(t, Unfold):
        if not isinstance(a, ast.Rec):
            raise SillTypeError(f"unfold observed at type {ast.type_to_str(a)}")
        check_comm(t.rest, ast.unfold_rec(a))
        return
    if isinstance(t, Val):
        if not isinstance(a, (ast.AndVal, ast.ImpVal)):
            raise SillTypeError(f"value observed at type {ast.type_to_str(a)}")
        check_term(t.value, expected=a.vtype)
        check_comm(t.rest, a.body)
        return
    raise TypeError(f"not a communication tree: {t!r}")


def tree_to_json(t: CommTree):
    if isinstance(t, Bot):
        return None
    if isinstance(t, CloseMsg):
        return ["close"]
    if isinstance(t, Label):
        return ["label", t.label, tree_to_json(t.rest)]
    if isinstance(t, Pair):
        return ["pair", tree_to_json(t.payload), tree_to_json(t.rest)]
    if isinstance(t, Shift):
        return ["shift", tree_to_json(t.rest)]
    if isinstance(t, Unfold):
        return ["unfold", tree_to_json(t.rest)]
    if isinstance(t, Val):
        return ["val", ast.term_to_str(t.value), tree_to_json(t.rest)]
    raise TypeError(f"not a communication tree: {t!r}")


def tree_to_str(t: CommTree) -> str:
    if isinstance(t, Bot):
        return "bot"
    if isinstance(t, CloseMsg):
        return "close"
    if isinstance(t, Label):
        return f"({t.label} {tree_to_str(t.rest)})"
    if isinstance(t, Pair):
        return f"(pair {tree_to_str(t.payload)} {tree_to_str(t.rest)})"
    if isinstance(t, Shift):
        return f"(shift {tree_to_str(t.rest)})"
    if isinstance(t, Unfold):
        return f"(unfold {tree_to_str(t.rest)})"
    if isinstance(t, Val):
        return f"(val [{ast.term_to_str(t.value)}] {tree_to_str(t.rest)})"
    raise TypeError(f"not a communication tree: {t!r}")


def observe(tr, chan: str, depth: int) -> CommTree:
    """The tree ``sill.obs.observe`` must return for chan, cut at depth."""
    types = tr.meta["channel_types"]
    msgs = _message_index(tr)

    def walk(c: str, a: ast.SessionType, n: int) -> CommTree:
        if n <= 0:
            return BOT
        info = msgs.get(c)
        if info is None:
            return BOT
        k = info.kind
        if k == "close":
            if not isinstance(a, ast.One):
                raise SillError(f"channel {c}: close at {ast.type_to_str(a)}")
            return CloseMsg()
        if k == "label":
            if not isinstance(a, (ast.Plus, ast.With)):
                raise SillError(f"channel {c}: label at {ast.type_to_str(a)}")
            cont = a.branch(info.payload)
            if cont is None:
                raise SillError(f"channel {c}: label {info.payload} "
                                f"not in {ast.type_to_str(a)}")
            return Label(info.payload, walk(info.cont, cont, n - 1))
        if k == "chan":
            if not isinstance(a, (ast.Tensor, ast.Lolli)):
                raise SillError(f"channel {c}: pair at {ast.type_to_str(a)}")
            return Pair(walk(info.payload, a.left, n - 1),
                        walk(info.cont, a.right, n - 1))
        if k == "shift":
            if not isinstance(a, (ast.Down, ast.Up)):
                raise SillError(f"channel {c}: shift at {ast.type_to_str(a)}")
            return Shift(walk(info.cont, a.body, n - 1))
        if k == "unfold":
            if not isinstance(a, ast.Rec):
                raise SillError(f"channel {c}: unfold at {ast.type_to_str(a)}")
            return Unfold(walk(info.cont, ast.unfold_rec(a), n - 1))
        if k == "val":
            if not isinstance(a, (ast.AndVal, ast.ImpVal)):
                raise SillError(f"channel {c}: value at {ast.type_to_str(a)}")
            return Val(info.payload, walk(info.cont, a.body, n - 1))
        raise SillError(f"channel {c}: unrecognized message kind {k!r}")

    return walk(chan, types[chan], depth)


# -- experiment generation -------------------------------------------------------------


def _gen(n: int, i: str, a: ast.SessionType, v: CommTree, r: str,
         ytype: ast.SessionType, speaks_when: str, provides: Optional[str],
         extra: tuple, fresh: Callable[[], str], oracle) -> list[ast.Process]:
    hold = extra + ((i, a),)
    y_after = ytype.branch("y")

    def spin(answer_residual, held):
        if provides is None:
            return divergent(r, answer_residual, held)
        now = [t for name, t in held if name == provides]
        rest = tuple(p for p in held if p[0] != provides)
        return divergent(provides, now[0], rest + ((r, answer_residual),))

    def yes(held):
        return ast.SendLabel(r, "y", spin(y_after, held))

    def no(held):
        return spin(ytype, held)

    if isinstance(v, Bot):
        return [yes(hold)]
    if ast.polarity(a) != speaks_when:
        return [no(hold)]

    if isinstance(v, CloseMsg):
        return [ast.Wait(i, yes(extra))]

    if isinstance(v, Label):
        def branches(k_body):
            out = []
            for l, t in a.branches:
                if l == v.label:
                    out.append((l, k_body))
                else:
                    out.append((l, no(extra + ((i, t),))))
            return tuple(out)

        cont_t = a.branch(v.label)
        if n == 0:
            return [ast.Case(i, branches(yes(extra + ((i, cont_t),))))]
        return [ast.Case(i, branches(e))
                for e in _gen(n - 1, i, cont_t, v.rest, r, ytype, speaks_when,
                              provides, extra, fresh, oracle)]

    if isinstance(v, Unfold):
        t = ast.unfold_rec(a)
        if n == 0:
            return [ast.RecvUnfold(i, yes(extra + ((i, t),)))]
        return [ast.RecvUnfold(i, e)
                for e in _gen(n - 1, i, t, v.rest, r, ytype, speaks_when,
                              provides, extra, fresh, oracle)]

    if isinstance(v, Shift):
        if n == 0:
            return [ast.RecvShift(i, yes(extra + ((i, a.body),)))]
        return [ast.RecvShift(i, e)
                for e in _gen(n - 1, i, a.body, v.rest, r, ytype, speaks_when,
                              provides, extra, fresh, oracle)]

    if isinstance(v, Pair):
        x = fresh()
        if n == 0:
            return [ast.RecvChan(x, i,
                                 yes(extra + ((x, a.left), (i, a.right))))]
        drop = [ast.RecvChan(x, i, e)
                for e in _gen(n - 1, i, a.right, v.rest, r, ytype, speaks_when,
                              provides, extra + ((x, a.left),), fresh, oracle)]
        take = [ast.RecvChan(x, i, e)
                for e in _gen(n - 1, x, a.left, v.payload, r, ytype,
                              ast.POSITIVE, provides,
                              extra + ((i, a.right),), fresh, oracle)]
        return drop + take

    if isinstance(v, Val):
        c = fresh()
        otype = oracle_type(a.vtype)

        def wrap(tail):
            inner = ast.Case(c, (
                ("tt", ast.Wait(c, tail)),
                ("ff", no(extra + ((c, ast.One()), (i, a.body)))),
            ))
            client = ast.RecvVal("x", i,
                                 ast.SendVal(c, ast.FVar("x"),
                                             ast.SendShift(c, inner)))
            return ast.Cut(c, otype, oracle(c, a.vtype), client)

        if n == 0:
            return [wrap(yes(extra + ((i, a.body),)))]
        return [wrap(e)
                for e in _gen(n - 1, i, a.body, v.rest, r, ytype, speaks_when,
                              provides, extra, fresh, oracle)]

    raise TypeError(f"not a communication tree: {v!r}")


def _fresh_namer(avoid: set[str]) -> Callable[[], str]:
    seen = set(avoid)
    counter = [0]

    def fresh() -> str:
        while f"x{counter[0]}" in seen:
            counter[0] += 1
        name = f"x{counter[0]}"
        seen.add(name)
        return name

    return fresh


def gen_experiments(side: str, n: int, i: str, r: str, v: CommTree,
                    a: ast.SessionType) -> list[ast.Process]:
    """``gen_experiments_R`` (side "R") or ``gen_experiments_L`` (side "L")
    on a tree that check_comm accepts at a."""
    fresh = _fresh_namer({i, r})
    if side == "R":
        return _gen(n, i, a, v, r, Y_POS, POSITIVE, None, (), fresh,
                    universal_oracle)
    return _gen(n, i, a, v, r, Y_NEG, NEGATIVE, i, (), fresh, universal_oracle)


# -- message shapes ----------------------------------------------------------------


def message_parts(chan: str, p: ast.Process) -> Optional[MsgInfo]:
    if isinstance(p, Close):
        return MsgInfo(POSITIVE, "close", p.chan, None) if p.chan == chan else None
    if isinstance(p, SendLabel):
        a, k, c = p.chan, p.label, p.cont
        if isinstance(c, FwdPos) and c.dst == a and chan == a:
            return MsgInfo(POSITIVE, "label", a, c.src, k)
        if isinstance(c, FwdNeg) and c.src == a and chan == c.dst:
            return MsgInfo(NEGATIVE, "label", a, c.dst, k)
        return None
    if isinstance(p, SendChan):
        a, b, c = p.chan, p.payload, p.cont
        if isinstance(c, FwdPos) and c.dst == a and chan == a:
            return MsgInfo(POSITIVE, "chan", a, c.src, b)
        if isinstance(c, FwdNeg) and c.src == a and chan == c.dst:
            return MsgInfo(NEGATIVE, "chan", a, c.dst, b)
        return None
    if isinstance(p, SendVal):
        a, m, c = p.chan, p.term, p.cont
        if not is_value(m):
            return None
        if isinstance(c, FwdPos) and c.dst == a and chan == a:
            return MsgInfo(POSITIVE, "val", a, c.src, m)
        if isinstance(c, FwdNeg) and c.src == a and chan == c.dst:
            return MsgInfo(NEGATIVE, "val", a, c.dst, m)
        return None
    if isinstance(p, SendShift):
        a, c = p.chan, p.cont
        if isinstance(c, FwdNeg) and c.dst == a and chan == a:
            return MsgInfo(POSITIVE, "shift", a, c.src)
        if isinstance(c, FwdPos) and c.src == a and chan == c.dst:
            return MsgInfo(NEGATIVE, "shift", a, c.dst)
        return None
    if isinstance(p, SendUnfold):
        a, c = p.chan, p.cont
        if isinstance(c, FwdPos) and c.dst == a and chan == a:
            return MsgInfo(POSITIVE, "unfold", a, c.src)
        if isinstance(c, FwdNeg) and c.src == a and chan == c.dst:
            return MsgInfo(NEGATIVE, "unfold", a, c.dst)
        return None
    return None


def make_message(kind: str, pol: str, carrier: str, cont: Optional[str],
                 payload: object = None) -> tuple[str, ast.Process]:
    a, d = carrier, cont
    if kind == "close":
        return a, Close(a)
    if pol == POSITIVE:
        tail = FwdNeg(d, a) if kind == "shift" else FwdPos(d, a)
        key = a
    else:
        tail = FwdPos(a, d) if kind == "shift" else FwdNeg(a, d)
        key = d
    if kind == "label":
        return key, SendLabel(a, payload, tail)
    if kind == "chan":
        return key, SendChan(a, payload, tail)
    if kind == "val":
        return key, SendVal(a, payload, tail)
    if kind == "shift":
        return key, SendShift(a, tail)
    if kind == "unfold":
        return key, SendUnfold(a, tail)
    raise ValueError(f"unknown message kind {kind!r}")
