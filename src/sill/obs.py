"""Observed communications.

What the environment can see of a run is, per channel, the tree of message
particles sent across it: labels, paired channels (each observed in turn),
shifts, unfoldings, functional values, and termination.  Unobserved or
not-yet-determined communication is the bottom tree.

Trees are cut off at a finite depth, so every observation here is a finite
prefix of the (possibly infinite) full communication.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Union

from .dynamics import SillSystem, classify_fact, run
from .lang import ast
from .lang.check import check_term
from .lang.errors import SillError, SillTypeError
from .msr.multiset import Multiset
from .msr.trace import Trace

CommTree = Union["Bot", "CloseMsg", "Label", "Pair", "Shift", "Unfold", "Val"]


@dataclass(frozen=True)
class Bot:
    """Nothing observed (yet)."""


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
    """Cut a tree off at height n.  Every constructor consumes one unit."""
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


# -- value relations ---------------------------------------------------------------

ValueRelation = Callable[[ast.FuncTerm, ast.FuncTerm], bool]


def universal(v1: ast.FuncTerm, v2: ast.FuncTerm) -> bool:
    """Relates any two values: functional payloads are not compared at all."""
    return True


def syntactic(v1: ast.FuncTerm, v2: ast.FuncTerm) -> bool:
    return v1 == v2


VALUE_RELATIONS: dict[str, ValueRelation] = {
    "universal": universal,
    "syntactic": syntactic,
}


def comm_sim(s: CommTree, t: CommTree, vrel: ValueRelation = syntactic) -> bool:
    """Does t extend s?  Bottom is below everything; elsewhere the shapes
    must agree, with value payloads compared by vrel."""
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


def comm_eq(s: CommTree, t: CommTree, vrel: ValueRelation = syntactic) -> bool:
    return comm_sim(s, t, vrel) and comm_sim(t, s, vrel)


# -- trees against types -----------------------------------------------------------


def check_comm(t: CommTree, a: ast.SessionType) -> None:
    """Raise unless t is a possible communication at type a."""
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


# -- observation -------------------------------------------------------------------


def _message_index(tr: Trace) -> dict:
    """First message per carrier over the whole run.

    A message some state held is in the initial state or was produced by a
    step, so ``tr.facts()`` meets every message in the order the run did,
    and no intermediate state is rebuilt.
    """
    out: dict = {}
    for f in tr.facts():
        pred, _, _, info = classify_fact(f)
        if pred == "msg" and info is not None and info.carrier not in out:
            out[info.carrier] = info
    return out


def observe(tr: Trace, chan: str, depth: int) -> tuple[CommTree, ast.SessionType]:
    """The communication tree sent across chan during tr, cut at depth.

    The trace must come from a typed run: channel types recorded at birth
    drive the walk, and the continuation type at each message is derived
    from the type of its carrier.
    """
    try:
        types = tr.meta["channel_types"]
    except KeyError:
        raise SillError("trace has no recorded channel types; "
                        "produce it with a typed run") from None
    if chan not in types:
        raise SillError(f"unknown channel {chan}")
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

    a0 = types[chan]
    return walk(chan, a0, depth), a0


@dataclass(frozen=True)
class Observation:
    """Per-channel communication trees, with the types they were read at."""

    channels: tuple[tuple[str, CommTree, ast.SessionType], ...]

    def tree(self, chan: str) -> CommTree:
        for c, t, _ in self.channels:
            if c == chan:
                return t
        raise KeyError(chan)

    def to_json(self) -> dict:
        return {
            "channels": {
                c: {"type": ast.type_to_str(a), "comm": tree_to_json(t)}
                for c, t, a in self.channels
            }
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, indent=2)


def observe_config(
    state: Multiset,
    interface: ast.Interface,
    channels: Optional[Iterable[str]] = None,
    fuel: int = 500,
    depth: int = 8,
    seed: Optional[int] = None,
    system: Optional[SillSystem] = None,
) -> Observation:
    """Run a configuration fairly, then observe its external channels.

    channels defaults to the interface's used and provided channels, in
    sorted order.
    """
    tr = run(system or SillSystem(), state, interface, fuel=fuel, seed=seed)
    if channels is None:
        ext = [c for c, _ in interface.used] + [c for c, _ in interface.provided]
        channels = sorted(ext)
    rows = []
    for c in channels:
        t, a = observe(tr, c, depth)
        rows.append((c, t, a))
    return Observation(tuple(rows))


# -- serialization -----------------------------------------------------------------


def tree_to_json(t: CommTree):
    """Nested-list encoding; bottom is null."""
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
