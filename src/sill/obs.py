"""Observed communications.

What the environment can see of a run is, per channel, the tree of message
particles sent across it.  Every tree is one node form, ``CommTree(kind,
payload, children)``: kind is a message kind of ``ast.MsgInfo``, or "bot"
for unobserved or not-yet-determined communication; payload is a label, a
functional value, or None; children are the trees observed at the
continuation types ``ast.message_cont`` gives the kind, in its order (a
paired channel's tree, then its carrier's).  Each operation on trees is one
fold over this form.

Trees are cut off at a finite depth, so every observation here is a finite
prefix of the (possibly infinite) full communication.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from .dynamics import SillSystem, classify_fact, run
from .lang import ast
from .lang.check import check_term
from .lang.errors import SillError, SillTypeError
from .msr.multiset import Multiset
from .msr.trace import Trace


@dataclass(frozen=True)
class CommTree:
    kind: str
    payload: object = None
    children: tuple["CommTree", ...] = ()


BOT = CommTree("bot")


def CloseMsg() -> CommTree:
    return CommTree("close")


def Label(label: str, rest: CommTree) -> CommTree:
    return CommTree("label", label, (rest,))


def Pair(payload: CommTree, rest: CommTree) -> CommTree:
    return CommTree("chan", None, (payload, rest))


def Shift(rest: CommTree) -> CommTree:
    return CommTree("shift", None, (rest,))


def Unfold(rest: CommTree) -> CommTree:
    return CommTree("unfold", None, (rest,))


def Val(value: ast.FuncTerm, rest: CommTree) -> CommTree:
    return CommTree("val", value, (rest,))


def tree_height(t: CommTree) -> int:
    if t.kind == "bot":
        return 0
    return 1 + max(map(tree_height, t.children), default=0)


def truncate(t: CommTree, n: int) -> CommTree:
    """Cut a tree off at height n.  Every node but bottom consumes one unit."""
    if n <= 0:
        return BOT
    return CommTree(t.kind, t.payload, tuple(truncate(c, n - 1) for c in t.children))


# -- value relations ---------------------------------------------------------------

ValueRelation = Callable[[ast.FuncTerm, ast.FuncTerm], bool]


def universal(v1: ast.FuncTerm, v2: ast.FuncTerm) -> bool:
    """Relates any two values: functional payloads are not compared at all."""
    return True


def syntactic(v1: ast.FuncTerm, v2: ast.FuncTerm) -> bool:
    return v1 == v2


def comm_sim(s: CommTree, t: CommTree, vrel: ValueRelation = syntactic) -> bool:
    """Does t extend s?  Bottom is below everything; elsewhere the kinds
    and labels must agree, with value payloads compared by vrel."""
    if s.kind == "bot":
        return True
    if s.kind != t.kind:
        return False
    same = vrel(s.payload, t.payload) if s.kind == "val" else s.payload == t.payload
    return same and all(comm_sim(a, b, vrel) for a, b in zip(s.children, t.children))


def comm_eq(s: CommTree, t: CommTree, vrel: ValueRelation = syntactic) -> bool:
    return comm_sim(s, t, vrel) and comm_sim(t, s, vrel)


# -- trees against types -----------------------------------------------------------


def check_comm(t: CommTree, a: ast.SessionType) -> None:
    """Raise unless t is a possible communication at type a."""
    if t.kind == "bot":
        return
    conts = ast.message_cont(t.kind, a, t.payload)
    if t.kind == "val":
        check_term(t.payload, expected=a.vtype)
    for c, b in zip(t.children, conts):
        check_comm(c, b)


# -- observation -------------------------------------------------------------------


def _message_index(tr: Trace) -> dict:
    """First message per carrier over the whole run.

    A message some state held is in the initial state or was produced by a
    step, so ``tr.facts()`` meets every message in the order the run did,
    and no intermediate state is rebuilt.  Only msg facts are decoded.  The
    index is kept in ``tr.memo`` with the step count it describes, so the
    observations of one trace build it once, and again only after the
    trace has grown.
    """
    steps, out = tr.memo.get(_message_index, (None, None))
    if steps != len(tr.steps):
        out = {}
        for f in tr.facts():
            if f.pred != "msg":
                continue
            info = classify_fact(f)[3]
            if info is not None and info.carrier not in out:
                out[info.carrier] = info
        tr.memo[_message_index] = (len(tr.steps), out)
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
        try:
            conts = ast.message_cont(info.kind, a, info.payload)
        except SillTypeError as ex:
            raise SillError(f"channel {c}: {ex}") from None
        if info.kind == "chan":
            # the payload is a channel, observed in turn
            return CommTree("chan", None, (walk(info.payload, conts[0], n - 1),
                                           walk(info.cont, conts[1], n - 1)))
        if not conts:
            return CommTree(info.kind)
        return CommTree(info.kind, info.payload, (walk(info.cont, conts[0], n - 1),))

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


# how each kind prints: the head of its string form, where {} stands for
# the payload, and the tag of its JSON form (None: the tree is JSON null)
_FORMS = {
    "bot": ("bot", None),
    "close": ("close", "close"),
    "label": ("{}", "label"),
    "chan": ("pair", "pair"),
    "shift": ("shift", "shift"),
    "unfold": ("unfold", "unfold"),
    "val": ("val [{}]", "val"),
}


def tree_to_json(t: CommTree):
    """Nested-list encoding: the tag, the payload as text if there is one,
    then the children; bottom is null."""
    tag = _FORMS[t.kind][1]
    if tag is None:
        return None
    payload = () if t.payload is None else (str(t.payload),)
    return [tag, *payload, *map(tree_to_json, t.children)]


def tree_to_str(t: CommTree) -> str:
    head = _FORMS[t.kind][0].format(t.payload)
    if not t.children:
        return head
    return f"({head} {' '.join(map(tree_to_str, t.children))})"
