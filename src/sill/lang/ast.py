"""Abstract syntax for the session-typed language.

Three layers share this module: session types, functional terms (a
call-by-value lambda calculus whose values include quoted processes), and
processes.  Everything is an immutable dataclass, hashable, with a
deterministic printed form.

Session types are polarized.  Positive types describe communication flowing
from the provider to the client, negative types the reverse; polarity shifts
are explicit type constructors.  Each connective's polarity, and the
polarity its parts must have, is stated once, in ``POLARITIES``.  Recursive
types are iso-recursive: a recursive type and its unfolding are related
only by explicit unfold messages, never silently.

Binding structure is stated once, in one role table per layer
(``TYPE_ROLES``, ``TERM_ROLES``, ``PROC_ROLES``), and nowhere else.  Every
field of every construct is a child in the same layer (``CHILD``) or
labelled children (``BRANCHES``); a free channel (``CHAN``), a tuple of them
(``CHANS``) or a channel binder (``CHAN_BINDER``); a functional variable
(``FUNC_VAR``) or its binder (``FUNC_BINDER``); a term in a process
(``TERM``) or a process quoted in a term (``QUOTED``); a type variable
(``TYPE_VAR``), a recursion binder (``TYPE_BINDER``) or a functional type
in a session type (``FUNC_TYPE``); a ``LABEL``; or an ``OPAQUE``
annotation.  Each node's printed text is stated once too, in ``_TEXT``.

Substitution, free names, type equality up to binder names, printing,
and the term encoding that ``sill.dynamics`` runs processes on are one
traversal, ``fold``, each an expand/build pair read off these tables.  The
fold keeps its work on an explicit stack, so input of any depth walks
without Python recursion.  Channels are renamed in that encoding alone: a
renamed environment decodes to the renamed process (``dynamics.dec_proc``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import is_
from typing import Mapping, Optional, Union

from .errors import SillTypeError, UnboundTypeVariable

POSITIVE = "positive"
NEGATIVE = "negative"

SessionType = Union[
    "One", "Plus", "With", "Tensor", "Lolli", "Down", "Up",
    "Rec", "TVar", "AndVal", "ImpVal",
]
FuncType = Union["Arrow", "ProcType"]
FuncTerm = Union["FVar", "Lam", "FApp", "Fix", "Quote"]
Process = Union[
    "FwdPos", "FwdNeg", "Cut", "Close", "Wait", "SendLabel", "Case",
    "SendChan", "RecvChan", "SendShift", "RecvShift", "SendUnfold",
    "RecvUnfold", "SendVal", "RecvVal", "Unquote",
]


class _Branching:
    """Labelled branches, given as a dict or as pairs, kept sorted by label."""

    def __post_init__(self):
        bs = self.branches
        items = tuple(bs.items()) if isinstance(bs, dict) else tuple(bs)
        object.__setattr__(self, "branches", tuple(sorted(items, key=lambda kv: kv[0])))

    def branch(self, label: str):
        for l, x in self.branches:
            if l == label:
                return x
        return None

    def labels(self) -> tuple[str, ...]:
        return tuple(l for l, _ in self.branches)


# -- session types -------------------------------------------------------------


@dataclass(frozen=True)
class One:
    pass


@dataclass(frozen=True)
class Plus(_Branching):
    branches: tuple[tuple[str, SessionType], ...]


@dataclass(frozen=True)
class With(_Branching):
    branches: tuple[tuple[str, SessionType], ...]


@dataclass(frozen=True)
class Tensor:
    left: SessionType
    right: SessionType


@dataclass(frozen=True)
class Lolli:
    left: SessionType
    right: SessionType


@dataclass(frozen=True)
class Down:
    body: SessionType


@dataclass(frozen=True)
class Up:
    body: SessionType


@dataclass(frozen=True)
class Rec:
    var: str
    body: SessionType


@dataclass(frozen=True)
class TVar:
    name: str


@dataclass(frozen=True)
class AndVal:
    vtype: FuncType
    body: SessionType


@dataclass(frozen=True)
class ImpVal:
    vtype: FuncType
    body: SessionType


# connective -> (its polarity, {session-type field: the polarity it must
# have}); the one statement of polarity, read by polarity and by formation
# checking.  TVar and Rec take theirs from context and from their body.
POLARITIES: dict[type, tuple[str, dict[str, str]]] = {
    One: (POSITIVE, {}),
    Plus: (POSITIVE, {"branches": POSITIVE}),
    With: (NEGATIVE, {"branches": NEGATIVE}),
    Tensor: (POSITIVE, {"left": POSITIVE, "right": POSITIVE}),
    Lolli: (NEGATIVE, {"left": POSITIVE, "right": NEGATIVE}),
    Down: (POSITIVE, {"body": NEGATIVE}),
    Up: (NEGATIVE, {"body": POSITIVE}),
    AndVal: (POSITIVE, {"body": POSITIVE}),
    ImpVal: (NEGATIVE, {"body": NEGATIVE}),
}


def polarity(a: SessionType, xi: Optional[Mapping[str, str]] = None) -> str:
    """Polarity of a session type; type variables are looked up in xi.  A
    chain of recs, each binding its variable positive, is walked in a loop."""
    bound = set()
    while isinstance(a, Rec) and not (isinstance(a.body, TVar) and a.body.name == a.var):
        bound.add(a.var)
        a = a.body
    entry = POLARITIES.get(type(a))
    if entry is not None:
        return entry[0]
    if isinstance(a, Rec) or isinstance(a, TVar) and a.name in bound:
        return POSITIVE
    if isinstance(a, TVar):
        if xi is None or a.name not in xi:
            raise UnboundTypeVariable(a.name)
        return xi[a.name]
    raise TypeError(f"not a session type: {a!r}")


def unfold_rec(a: Rec) -> SessionType:
    """One unfolding: the recursive type substituted for its own variable,
    once per node.  It is kept in the node's ``__dict__`` after its fields,
    so equality, hashing, printing and the field walks never see it."""
    if not isinstance(a, Rec):
        raise TypeError(f"cannot unfold {type_to_str(a)}")
    unfolded = a.__dict__.get("_unfolded")
    if unfolded is None:
        unfolded = a.__dict__["_unfolded"] = subst_tvar(a.body, a.var, a)
    return unfolded


def type_eq(a: SessionType, b: SessionType) -> bool:
    """Whether two session types, or two functional types, have equal
    canonical forms, found without building them."""
    return a is b or fold(((a, 0, _CLOSED), (b, 0, _CLOSED)), _alpha_kids, _alpha_build)


# -- functional types ----------------------------------------------------------


@dataclass(frozen=True)
class Arrow:
    arg: FuncType
    res: FuncType


@dataclass(frozen=True)
class ProcType:
    offered: tuple[str, SessionType]
    used: tuple[tuple[str, SessionType], ...] = ()


functype_eq = type_eq


# -- functional terms ----------------------------------------------------------


@dataclass(frozen=True)
class FVar:
    name: str


@dataclass(frozen=True)
class Lam:
    var: str
    ann: FuncType
    body: FuncTerm


@dataclass(frozen=True)
class FApp:
    fn: FuncTerm
    arg: FuncTerm


@dataclass(frozen=True)
class Fix:
    var: str
    body: FuncTerm


@dataclass(frozen=True)
class Quote:
    offered: tuple[str, SessionType]
    body: "Process"
    used: tuple[tuple[str, SessionType], ...] = ()


def is_value(m: FuncTerm) -> bool:
    return isinstance(m, (Lam, Quote))


# -- processes -----------------------------------------------------------------


@dataclass(frozen=True)
class FwdPos:
    """Forward a positive session: provides dst by relaying messages sent on
    src."""

    src: str
    dst: str


@dataclass(frozen=True)
class FwdNeg:
    src: str
    dst: str


@dataclass(frozen=True)
class Cut:
    """Spawn left providing a private channel, continue as right using it.

    The bound channel carries a type annotation; nothing else pins down the
    protocol of the new channel.
    """

    chan: str
    ann: Optional[SessionType]
    left: "Process"
    right: "Process"


@dataclass(frozen=True)
class Close:
    chan: str


@dataclass(frozen=True)
class Wait:
    chan: str
    cont: "Process"


@dataclass(frozen=True)
class SendLabel:
    chan: str
    label: str
    cont: "Process"


@dataclass(frozen=True)
class Case(_Branching):
    chan: str
    branches: tuple[tuple[str, "Process"], ...]


@dataclass(frozen=True)
class SendChan:
    chan: str
    payload: str
    cont: "Process"


@dataclass(frozen=True)
class RecvChan:
    var: str
    chan: str
    cont: "Process"


@dataclass(frozen=True)
class SendShift:
    chan: str
    cont: "Process"


@dataclass(frozen=True)
class RecvShift:
    chan: str
    cont: "Process"


@dataclass(frozen=True)
class SendUnfold:
    chan: str
    cont: "Process"


@dataclass(frozen=True)
class RecvUnfold:
    chan: str
    cont: "Process"


@dataclass(frozen=True)
class SendVal:
    chan: str
    term: FuncTerm
    cont: "Process"


@dataclass(frozen=True)
class RecvVal:
    var: str
    chan: str
    cont: "Process"


@dataclass(frozen=True)
class Unquote:
    chan: str
    term: FuncTerm
    used: tuple[str, ...] = ()


# -- binding structure -----------------------------------------------------------

# The roles a field can play (see the module docstring).  A binder scopes
# over the children of its construct (CHILD, BRANCHES, TERM, QUOTED) and over
# no other field of it, and comes before them.
CHILD, BRANCHES, LABEL, OPAQUE = "child", "branches", "label", "opaque"
CHAN, CHANS, CHAN_BINDER = "chan", "chans", "chan_binder"
FUNC_VAR, FUNC_BINDER, TERM, QUOTED = "func_var", "func_binder", "term", "quoted"
TYPE_VAR, TYPE_BINDER, FUNC_TYPE = "type_var", "type_binder", "func_type"

# construct -> {field: role}, one table per layer, fields in declaration order
TYPE_ROLES: dict[type, dict[str, str]] = {
    One: {},
    Plus: {"branches": BRANCHES},
    With: {"branches": BRANCHES},
    Tensor: {"left": CHILD, "right": CHILD},
    Lolli: {"left": CHILD, "right": CHILD},
    Down: {"body": CHILD},
    Up: {"body": CHILD},
    Rec: {"var": TYPE_BINDER, "body": CHILD},
    TVar: {"name": TYPE_VAR},
    AndVal: {"vtype": FUNC_TYPE, "body": CHILD},
    ImpVal: {"vtype": FUNC_TYPE, "body": CHILD},
}
TERM_ROLES: dict[type, dict[str, str]] = {
    FVar: {"name": FUNC_VAR},
    Lam: {"var": FUNC_BINDER, "ann": OPAQUE, "body": CHILD},
    FApp: {"fn": CHILD, "arg": CHILD},
    Fix: {"var": FUNC_BINDER, "body": CHILD},
    # a quote binds the channels of its body, so its body has none free
    Quote: {"offered": OPAQUE, "body": QUOTED, "used": OPAQUE},
}
PROC_ROLES: dict[type, dict[str, str]] = {
    FwdPos: {"src": CHAN, "dst": CHAN},
    FwdNeg: {"src": CHAN, "dst": CHAN},
    Cut: {"chan": CHAN_BINDER, "ann": OPAQUE, "left": CHILD, "right": CHILD},
    Close: {"chan": CHAN},
    Wait: {"chan": CHAN, "cont": CHILD},
    SendLabel: {"chan": CHAN, "label": LABEL, "cont": CHILD},
    Case: {"chan": CHAN, "branches": BRANCHES},
    SendChan: {"chan": CHAN, "payload": CHAN, "cont": CHILD},
    RecvChan: {"var": CHAN_BINDER, "chan": CHAN, "cont": CHILD},
    SendShift: {"chan": CHAN, "cont": CHILD},
    RecvShift: {"chan": CHAN, "cont": CHILD},
    SendUnfold: {"chan": CHAN, "cont": CHILD},
    RecvUnfold: {"chan": CHAN, "cont": CHILD},
    SendVal: {"chan": CHAN, "term": TERM, "cont": CHILD},
    RecvVal: {"var": FUNC_BINDER, "chan": CHAN, "cont": CHILD},
    Unquote: {"chan": CHAN, "term": TERM, "used": CHANS},
}
# functional variables occur in terms and in processes alike
_FUNC_ROLES = {**TERM_ROLES, **PROC_ROLES}
_FUNC_TYPES = (Arrow, ProcType)
_CLOSED: dict = {}  # the empty environment, never changed


# -- the one traversal -------------------------------------------------------------


def fold(root, expand, build, ctx=None):
    """The one traversal of the syntax: a catamorphism (Meijer, Fokkinga and
    Paterson, FPCA 1991) on an explicit stack, so nesting costs no Python
    stack.  build(node, an iterator over its children's values, ctx) runs
    for root and every node that expand(node, ctx) lists below it, children
    first and left to right; returns root's value."""
    order, todo = [], [root]
    while todo:
        node = todo.pop()
        kids = expand(node, ctx)
        order.append((node, len(kids)))
        todo.extend(kids)
    done: list = []
    for node, k in reversed(order):
        kids = iter(done[len(done) - k:])
        del done[len(done) - k:]
        done.append(build(node, kids, ctx))
    return done[0]


def subprocs(p: Process, _=None) -> list:
    """p's direct subprocesses, in field order."""
    kids = []
    for f, role in PROC_ROLES[type(p)].items():
        if role is CHILD:
            kids.append(getattr(p, f))
        elif role is BRANCHES:
            kids.extend(q for _, q in getattr(p, f))
    return kids


def _branches(bs: tuple, kids) -> tuple:
    """bs with each body the next of kids, if any; bs if none changed."""
    out = tuple([(l, next(kids, y)) for l, y in bs])
    return bs if all([new is old for (_, new), (_, old) in zip(out, bs)]) else out


def _remade(x, fields: list):
    """x's construct with fields; x itself if they are its own."""
    return x if all(map(is_, fields, vars(x).values())) else type(x)(*fields)


def _subst_kids(x, ctx) -> list:
    table, _, binder, name, _ = ctx
    kids = []
    for f, role in table[type(x)].items():
        v = getattr(x, f)
        if role is binder and v == name:
            return []  # it stops the descent
        if role is BRANCHES:
            kids += [y for _, y in v]
        elif role is CHILD or role is TERM or role is QUOTED:
            kids.append(v)
    return kids


def _subst_build(x, kids, ctx):
    # value is closed, so nothing can capture it
    table, var, binder, name, value = ctx
    out = []
    for v, role in zip(vars(x).values(), table[type(x)].values()):
        if (role is var or role is binder) and v == name:
            return value if role is var else x
        out.append(_branches(v, kids) if role is BRANCHES else
                   next(kids) if role is CHILD or role is TERM or role is QUOTED else v)
    return _remade(x, out)


def subst_tvar(a: SessionType, name: str, repl: SessionType) -> SessionType:
    """Substitute the closed type repl for the type variable name."""
    return fold(a, _subst_kids, _subst_build, (TYPE_ROLES, TYPE_VAR, TYPE_BINDER, name, repl))


def subst_fvar(x: Union[FuncTerm, Process], name: str, value: FuncTerm):
    """Substitute a closed value for a functional variable throughout a term
    or a process, and the terms and processes inside it."""
    return fold(x, _subst_kids, _subst_build, (_FUNC_ROLES, FUNC_VAR, FUNC_BINDER, name, value))


def _fv_build(x, kids, _) -> set[str]:
    free = set().union(*kids)
    for v, role in zip(vars(x).values(), _FUNC_ROLES[type(x)].values()):
        if role is FUNC_BINDER:  # it scopes over the children alone
            free.discard(v)
        elif role is FUNC_VAR:
            free.add(v)
    return free


def free_fvars(x: Union[FuncTerm, Process]) -> set[str]:
    """Free functional variables of a term or a process, and of the terms
    and processes inside it."""
    return fold(x, _subst_kids, _fv_build, (_FUNC_ROLES, None, None, None, None))


def _canon_kids(node: tuple, _) -> list:
    # a node is (a type, how many recs are above it, their variables' new
    # names); a functional type, and so each type in it, is closed
    a, depth, env = node
    if type(a) is Rec:
        env, depth = {**env, a.var: f"%{depth}"}, depth + 1
    return [(t, 0, _CLOSED) if type(t) in _FUNC_TYPES else (t, depth, env) for t in _parts(a)]


def _alpha_kids(pair: tuple, _) -> list:
    (a, _, ea), (b, _, eb) = pair
    if a is b and ea is eb:
        return []
    return list(zip(_canon_kids(pair[0], None), _canon_kids(pair[1], None)))


def _alpha_build(pair: tuple, kids, _) -> bool:
    # two nodes of _canon_kids' walk have equal canonical forms when they
    # are one object under one environment, or have one connective, the
    # same labels, canonical variable name or number of used channels, and
    # parts with equal canonical forms
    (a, _, ea), (b, _, eb) = pair
    return a is b and ea is eb or type(a) is type(b) and (
        a.labels() == b.labels() if isinstance(a, _Branching) else
        ea.get(a.name, a.name) == eb.get(b.name, b.name) if type(a) is TVar else
        len(a.used) == len(b.used) if type(a) is ProcType else True) and all(kids)


def _fc_kids(p: Process, memo: dict) -> list:
    return [] if id(p) in memo else subprocs(p)


def _fc_build(p: Process, kids, memo: dict) -> set[str]:
    free = memo.get(id(p))
    if free is None:
        free = memo[id(p)] = set().union(*kids)
        own = []
        for f, role in _NAMES[type(p)]:
            if role is CHAN_BINDER:  # it scopes over the children alone
                free.discard(getattr(p, f))
            else:
                own += getattr(p, f) if role is CHANS else [getattr(p, f)]
        free.update(own)
    return free


# construct -> its fields that name channels, read off PROC_ROLES
_NAMES = {cls: [(f, r) for f, r in roles.items() if r in (CHAN, CHANS, CHAN_BINDER)]
          for cls, roles in PROC_ROLES.items()}


def fc(p: Process, memo: Optional[dict] = None) -> set[str]:
    """Free channel names of a process.  memo maps id(q) to fc(q) for each
    subprocess q walked before and takes each one walked now, so a caller
    that keeps it while p lives walks each subprocess once; its sets are
    shared, not to be changed."""
    memo = {} if memo is None else memo
    return memo[id(p)] if id(p) in memo else fold(p, _fc_kids, _fc_build, memo)


# -- configuration facts ---------------------------------------------------------


@dataclass(frozen=True)
class ProcF:
    chan: str
    proc: Process

    def __str__(self) -> str:
        return f"proc {self.chan} {{{proc_to_str(self.proc)}}}"


@dataclass(frozen=True)
class MsgF:
    chan: str
    proc: Process

    def __str__(self) -> str:
        return f"msg {self.chan} {{{proc_to_str(self.proc)}}}"


ConfigFact = Union[ProcF, MsgF]


@dataclass(frozen=True)
class Interface:
    """Channels a configuration uses, hides internally, and provides."""

    used: tuple[tuple[str, SessionType], ...] = ()
    internal: tuple[tuple[str, SessionType], ...] = ()
    provided: tuple[tuple[str, SessionType], ...] = ()

    def all_types(self) -> dict[str, SessionType]:
        out = dict(self.used)
        out.update(self.internal)
        out.update(self.provided)
        return out

    def differs(self, other: "Interface",
                sides: tuple[str, ...] = ("used", "internal", "provided")) -> Optional[str]:
        """The first of sides on which other names other channels or types
        one of them otherwise (by ``type_eq``), or None."""
        for side in sides:
            left, right = dict(getattr(self, side)), dict(getattr(other, side))
            if left.keys() != right.keys() or not all(
                    type_eq(left[k], right[k]) for k in left):
                return side
        return None

    def __str__(self) -> str:
        def side(pairs):
            return ", ".join(f"{c}:{type_to_str(t)}" for c, t in pairs)

        s = f"{side(self.used)} |- {side(self.provided)}"
        if self.internal:
            s += f" internal {side(self.internal)}"
        return s


# -- declarations ----------------------------------------------------------------


@dataclass(frozen=True)
class TypeDecl:
    name: str
    body: SessionType
    span: tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class TermDecl:
    name: str
    ann: FuncType
    body: FuncTerm
    span: tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class ProcDecl:
    name: str
    offered: tuple[str, SessionType]
    used: tuple[tuple[str, SessionType], ...]
    body: Process
    span: tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class ConfigDecl:
    name: str
    interface: Interface
    facts: tuple[ConfigFact, ...]
    hole: Optional[Interface] = None
    span: tuple[int, int] = field(default=(0, 0), compare=False)


Decl = Union[TypeDecl, TermDecl, ProcDecl, ConfigDecl]


@dataclass(frozen=True)
class Module:
    decls: tuple[Decl, ...]

    def _by(self, cls) -> dict:
        return {d.name: d for d in self.decls if isinstance(d, cls)}

    @property
    def types(self) -> dict[str, TypeDecl]:
        return self._by(TypeDecl)

    @property
    def terms(self) -> dict[str, TermDecl]:
        return self._by(TermDecl)

    @property
    def procs(self) -> dict[str, ProcDecl]:
        return self._by(ProcDecl)

    @property
    def configs(self) -> dict[str, ConfigDecl]:
        return self._by(ConfigDecl)


# -- message shapes --------------------------------------------------------------

# The kinds of message, and the only copy of what each kind is: the send
# construct that emits it, with the field holding its payload; the receive
# construct that takes it; and the connectives it is sent at, the positive
# one first.  Process typing (one rule for every send and receive),
# message classification, observation, the checking of observed trees,
# experiment generation, the typing of channels at birth and SILL's steps
# all read these tables, directly or through comm_kind, message_parts,
# make_message and message_cont.
MSG_SEND: dict[str, tuple[type, Optional[str]]] = {
    "close": (Close, None),
    "label": (SendLabel, "label"),
    "chan": (SendChan, "payload"),
    "shift": (SendShift, None),
    "unfold": (SendUnfold, None),
    "val": (SendVal, "term"),
}
MSG_TYPES: dict[str, tuple[type, ...]] = {
    "close": (One,),
    "label": (Plus, With),
    "chan": (Tensor, Lolli),
    "shift": (Down, Up),
    "unfold": (Rec,),
    "val": (AndVal, ImpVal),
}
MSG_RECV: dict[str, type] = {
    "close": Wait,
    "label": Case,
    "chan": RecvChan,
    "shift": RecvShift,
    "unfold": RecvUnfold,
    "val": RecvVal,
}
_COMM_KIND = {**{cls: (kind, True) for kind, (cls, _) in MSG_SEND.items()},
              **{cls: (kind, False) for kind, cls in MSG_RECV.items()}}


@dataclass(frozen=True)
class MsgInfo:
    polarity: str
    kind: str  # a key of MSG_SEND
    carrier: str
    cont: Optional[str]
    payload: object = None


def comm_kind(p: Process) -> Optional[tuple[str, bool]]:
    """(kind, sends) of a send or receive construct; None for any other
    process (a forward, a cut or an unquote)."""
    return _COMM_KIND.get(type(p))


def message_cont(kind: str, a: SessionType,
                 payload: object = None) -> tuple[SessionType, ...]:
    """Continuation types of a kind message sent at type a.

    () for close; (left, right) for chan, the payload's type and then the
    carrier's; otherwise the one type the carrier continues at.  Raises
    SillTypeError when a is not a connective the kind is sent at, or does
    not offer the label.
    """
    if not isinstance(a, MSG_TYPES[kind]):
        raise SillTypeError(f"{kind} message at type {type_to_str(a)}")
    if kind == "close":
        return ()
    if kind == "chan":
        return a.left, a.right
    if kind == "label":
        cont = a.branch(payload)
        if cont is None:
            raise SillTypeError(f"label {payload} not offered by {type_to_str(a)}")
        return (cont,)
    if kind == "unfold":
        return (unfold_rec(a),)
    return (a.body,)


def _forwards(kind: str) -> tuple[type, type]:
    """The forward ending a positive and a negative kind message.

    The continuation of a positive shift is negative, so a shift's forwards
    are flipped relative to every other kind's.
    """
    return (FwdNeg, FwdPos) if kind == "shift" else (FwdPos, FwdNeg)


def message_parts(chan: str, p: Process) -> Optional[MsgInfo]:
    """Classify a process as a message, if it has message shape.

    A positive message on carrier a with continuation d ends in a forward
    that delegates the rest of the session to d; the fact is keyed by a.  A
    negative message is keyed by its continuation d and ends in the dual
    forward.  Returns None when the shape (or the fact channel) is wrong.
    """
    kind, sends = comm_kind(p) or (None, False)
    if not sends:
        return None
    fld = MSG_SEND[kind][1]
    payload = getattr(p, fld) if fld else None
    a = p.chan
    if kind == "close":
        return MsgInfo(POSITIVE, kind, a, None) if a == chan else None
    if kind == "val" and not is_value(payload):
        return None
    pos, neg = _forwards(kind)
    c = p.cont
    if isinstance(c, pos) and c.dst == a and chan == a:
        return MsgInfo(POSITIVE, kind, a, c.src, payload)
    if isinstance(c, neg) and c.src == a and chan == c.dst:
        return MsgInfo(NEGATIVE, kind, a, c.dst, payload)
    return None


def make_message(kind: str, pol: str, carrier: str, cont: Optional[str],
                 payload: object = None) -> tuple[str, Process]:
    """Build (fact channel, message process) for the given message shape."""
    if kind not in MSG_SEND:
        raise ValueError(f"unknown message kind {kind!r}")
    a, d = carrier, cont
    if kind == "close":
        return a, Close(a)
    cls, fld = MSG_SEND[kind]
    pos, neg = _forwards(kind)
    tail, key = (pos(d, a), a) if pol == POSITIVE else (neg(a, d), d)
    return key, (cls(a, payload, tail) if fld else cls(a, tail))


# -- printing --------------------------------------------------------------------


def _paren(x, bare: bool) -> list:
    return [x] if bare else ["(", x, ")"]


def _atom(a: SessionType) -> list:
    return _paren(a, isinstance(a, (One, Plus, With, TVar)))


def _listed(head: str, sep: str, mid: str, pairs, tail: str = "}") -> list:
    """head, each (name, node) as name mid node with sep between, tail."""
    out = [head]
    for i, (n, x) in enumerate(pairs):
        out += [f"{sep if i else ''}{n}{mid}", x]
    return out + [tail]


# A node's text, stated per construct of every layer: a list of strings and,
# in their places, the nodes printed inside it, in field order.  One emitter
# prints them all; type equality reads a type's parts off it.
_TEXT = {
    One: lambda a: ["1"],
    Plus: lambda a: _listed("+{", ", ", ": ", a.branches),
    With: lambda a: _listed("&{", ", ", ": ", a.branches),
    Tensor: lambda a: [*_atom(a.left), " * ", *_atom(a.right)],
    Lolli: lambda a: [*_atom(a.left), " -o ", a.right],
    Down: lambda a: ["down ", *_atom(a.body)],
    Up: lambda a: ["up ", *_atom(a.body)],
    Rec: lambda a: [f"rec {a.var}. ", a.body],
    TVar: lambda a: [a.name],
    AndVal: lambda a: ["[", a.vtype, "] ^ ", *_atom(a.body)],
    ImpVal: lambda a: ["[", a.vtype, "] => ", *_atom(a.body)],
    Arrow: lambda t: [*_paren(t.arg, not isinstance(t.arg, Arrow)), " -> ", t.res],
    ProcType: lambda t: ["{" + f"{t.offered[0]}:", t.offered[1],
                         *_listed(" <- " if t.used else " <-", ", ", ":", t.used)],
    FVar: lambda m: [m.name],
    Lam: lambda m: [f"\\{m.var}: ", m.ann, ". ", m.body],
    FApp: lambda m: [*_paren(m.fn, not isinstance(m.fn, (Lam, Fix))), " ",
                     *_paren(m.arg, isinstance(m.arg, FVar))],
    Fix: lambda m: [f"fix {m.var}. ", m.body],
    Quote: lambda m: [f"proc({m.offered[0]}:", m.offered[1],
                      *_listed("; " if m.used else "", ", ", ":", m.used, ") {"), m.body, "}"],
    FwdPos: lambda p: [f"fwd+ {p.src} -> {p.dst}"],
    FwdNeg: lambda p: [f"fwd- {p.src} -> {p.dst}"],
    Cut: lambda p: [p.chan, *([": ", p.ann, " "] if p.ann is not None else [" "]),
                    "<- {", p.left, "}; ", p.right],
    Close: lambda p: [f"close {p.chan}"],
    Wait: lambda p: [f"wait {p.chan}; ", p.cont],
    SendLabel: lambda p: [f"{p.chan}.{p.label}; ", p.cont],
    Case: lambda p: _listed(f"case {p.chan} {{", " | ", " => ", p.branches),
    SendChan: lambda p: [f"send {p.chan} <{p.payload}>; ", p.cont],
    RecvChan: lambda p: [f"{p.var} <- recv {p.chan}; ", p.cont],
    SendShift: lambda p: [f"send {p.chan} shift; ", p.cont],
    RecvShift: lambda p: [f"shift <- recv {p.chan}; ", p.cont],
    SendUnfold: lambda p: [f"send {p.chan} unfold; ", p.cont],
    RecvUnfold: lambda p: [f"unfold <- recv {p.chan}; ", p.cont],
    SendVal: lambda p: [f"send {p.chan} [", p.term, "]; ", p.cont],
    RecvVal: lambda p: [f"[{p.var}] <- recv {p.chan}; ", p.cont],
    Unquote: lambda p: [f"{p.chan} <- [", p.term, "]" + "".join(
        f" <- {t}" for t in (" ".join(p.used),) if t)],
}


def _text_kids(x, _) -> list:
    return [] if type(x) is str else _TEXT[type(x)](x)


def _parts(x) -> list:
    """The nodes in x's text: its children in every layer."""
    return [y for y in _TEXT[type(x)](x) if type(y) is not str]


def _text_build(x, _, out: list) -> None:
    if type(x) is str:  # the fold reaches the strings in the order of the text
        out.append(x)


def syntax_to_str(x) -> str:
    """The printed form of a session type, a functional type, a term or a
    process."""
    if type(x) not in _TEXT:
        raise TypeError(f"not syntax: {x!r}")
    out: list[str] = []
    fold(x, _text_kids, _text_build, out)
    return "".join(out)


# every layer prints through the one emitter, under the layer's own name
type_to_str = functype_to_str = term_to_str = proc_to_str = syntax_to_str
# printable payloads: anything that can end up embedded in a run state or a
# reported value renders as surface syntax, not as a dataclass repr
for _cls in _TEXT:
    _cls.__str__ = syntax_to_str
del _cls
