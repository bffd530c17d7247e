"""Abstract syntax for the session-typed language.

Three layers share this module: session types, functional terms (a
call-by-value lambda calculus whose values include quoted processes), and
processes.  Everything is an immutable dataclass, hashable, with a
deterministic printed form.

Session types are polarized.  Positive types describe communication flowing
from the provider to the client, negative types the reverse; polarity shifts
are explicit type constructors.  Recursive types are iso-recursive: a
recursive type and its unfolding are related only by explicit unfold
messages, never silently.

Binding structure is stated once, in one role table per layer
(``TYPE_ROLES``, ``TERM_ROLES``, ``PROC_ROLES``), and nowhere else.  Every
field of every construct is a child in the same layer (``CHILD``) or
labelled children (``BRANCHES``); a free channel (``CHAN``), a tuple of them
(``CHANS``) or a channel binder (``CHAN_BINDER``); a functional variable
(``FUNC_VAR``) or its binder (``FUNC_BINDER``); a term in a process
(``TERM``) or a process quoted in a term (``QUOTED``); a type variable
(``TYPE_VAR``), a recursion binder (``TYPE_BINDER``) or a functional type
in a session type (``FUNC_TYPE``); a ``LABEL``; or an ``OPAQUE``
annotation.  Renaming, substitution, free names, canonical types and the
term encoding in ``sill.dynamics`` are one traversal of a table each.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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


def polarity(a: SessionType, xi: Optional[Mapping[str, str]] = None) -> str:
    """Polarity of a session type; type variables are looked up in xi."""
    if isinstance(a, (One, Plus, Tensor, Down, AndVal)):
        return POSITIVE
    if isinstance(a, (With, Lolli, Up, ImpVal)):
        return NEGATIVE
    if isinstance(a, TVar):
        if xi is None or a.name not in xi:
            raise UnboundTypeVariable(a.name)
        return xi[a.name]
    if isinstance(a, Rec):
        if isinstance(a.body, TVar) and a.body.name == a.var:
            return POSITIVE
        inner = dict(xi) if xi else {}
        inner[a.var] = POSITIVE
        return polarity(a.body, inner)
    raise TypeError(f"not a session type: {a!r}")


def unfold_rec(a: Rec) -> SessionType:
    """One unfolding: the recursive type substituted for its own variable."""
    if not isinstance(a, Rec):
        raise TypeError(f"cannot unfold {type_to_str(a)}")
    return subst_tvar(a.body, a.var, a)


def type_eq(a: SessionType, b: SessionType) -> bool:
    return canon_type(a) == canon_type(b)


# -- functional types ----------------------------------------------------------


@dataclass(frozen=True)
class Arrow:
    arg: FuncType
    res: FuncType


@dataclass(frozen=True)
class ProcType:
    offered: tuple[str, SessionType]
    used: tuple[tuple[str, SessionType], ...] = ()


def canon_functype(t: FuncType) -> FuncType:
    if isinstance(t, Arrow):
        return Arrow(canon_functype(t.arg), canon_functype(t.res))
    if isinstance(t, ProcType):
        # channel names in a process type are binders; canonical names are
        # positional
        return ProcType(
            ("%o", canon_type(t.offered[1])),
            tuple((f"%u{i}", canon_type(a)) for i, (_, a) in enumerate(t.used)),
        )
    raise TypeError(f"not a functional type: {t!r}")


def functype_eq(a: FuncType, b: FuncType) -> bool:
    return canon_functype(a) == canon_functype(b)


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


def _subst(x, table: dict, var: str, binder: str, name: str, value):
    # value is closed, so nothing can capture it; a binder of name stops
    # the descent into its children
    out = []
    for f, role in table[type(x)].items():
        v = getattr(x, f)
        if role is CHILD or role is TERM or role is QUOTED:
            v = _subst(v, table, var, binder, name, value)
        elif role is BRANCHES:
            v = tuple((l, _subst(y, table, var, binder, name, value)) for l, y in v)
        elif (role is var or role is binder) and v == name:
            return value if role is var else x
        out.append(v)
    return type(x)(*out)


def subst_tvar(a: SessionType, name: str, repl: SessionType) -> SessionType:
    """Substitute the closed type repl for the type variable name."""
    return _subst(a, TYPE_ROLES, TYPE_VAR, TYPE_BINDER, name, repl)


def subst_fvar(x: Union[FuncTerm, Process], name: str, value: FuncTerm):
    """Substitute a closed value for a functional variable throughout a term
    or a process, and the terms and processes inside it."""
    return _subst(x, _FUNC_ROLES, FUNC_VAR, FUNC_BINDER, name, value)


def canon_type(a: SessionType, depth: int = 0, env: Optional[dict] = None) -> SessionType:
    """Rename recursion binders to positional names so that equality of
    canonical forms is alpha-equivalence."""
    env = env or {}
    inner, below = env, depth
    out = []
    for f, role in TYPE_ROLES[type(a)].items():
        v = getattr(a, f)
        if role is CHILD:
            v = canon_type(v, below, inner)
        elif role is BRANCHES:
            v = tuple((l, canon_type(t, below, inner)) for l, t in v)
        elif role is TYPE_VAR:
            v = env.get(v, v)
        elif role is TYPE_BINDER:
            inner = {**env, v: f"%{depth}"}
            v, below = inner[v], depth + 1
        elif role is FUNC_TYPE:
            v = canon_functype(v)
        out.append(v)
    return type(a)(*out)


def free_fvars(x: Union[FuncTerm, Process]) -> set[str]:
    """Free functional variables of a term or a process."""
    free: set[str] = set()
    inner: set[str] = set()
    bound = None
    for f, role in _FUNC_ROLES[type(x)].items():
        v = getattr(x, f)
        if role is CHILD or role is TERM or role is QUOTED:
            inner |= free_fvars(v)
        elif role is BRANCHES:
            for _, y in v:
                inner |= free_fvars(y)
        elif role is FUNC_VAR:
            free.add(v)
        elif role is FUNC_BINDER:
            bound = v
    inner.discard(bound)
    return free | inner


proc_free_fvars, proc_subst_fvar = free_fvars, subst_fvar


def fc(p: Process) -> set[str]:
    """Free channel names of a process."""
    free: set[str] = set()
    inner: set[str] = set()
    bound = None
    for f, role in PROC_ROLES[type(p)].items():
        v = getattr(p, f)
        if role is CHAN:
            free.add(v)
        elif role is CHILD:
            inner |= fc(v)
        elif role is BRANCHES:
            for _, q in v:
                inner |= fc(q)
        elif role is CHANS:
            free.update(v)
        elif role is CHAN_BINDER:
            bound = v
    inner.discard(bound)
    return free | inner


def subst_chan(p: Process, rho: Mapping[str, str]) -> Process:
    """Rename free channel names.  Bound channels are alpha-renamed when they
    would capture.  Functional subterms never contain free channels, so the
    descent stops at them."""
    rho = {k: v for k, v in rho.items() if k != v}
    if not rho:
        return p
    roles = PROC_ROLES[type(p)]
    pre: dict = {}  # a capturing binder's renaming, applied to the children first
    inner = rho
    out = []
    for f, role in roles.items():
        v = getattr(p, f)
        if role is CHAN:
            v = rho.get(v, v)
        elif role is CHILD:
            v = subst_chan(subst_chan(v, pre), inner)
        elif role is BRANCHES:
            v = tuple((l, subst_chan(subst_chan(q, pre), inner)) for l, q in v)
        elif role is CHANS:
            v = tuple(rho.get(c, c) for c in v)
        elif role is CHAN_BINDER:
            if v in rho.values():
                avoid = set(rho) | set(rho.values())
                for g, r in roles.items():
                    if r is CHILD:
                        avoid |= fc(getattr(p, g))
                    elif r is BRANCHES:
                        for _, q in getattr(p, g):
                            avoid |= fc(q)
                # '%' is reserved by the fresh-name scheme, so the new name
                # cannot collide with a source identifier; the smallest free
                # index keeps renaming deterministic
                stem, i = v.split("%")[0] or "x", 0
                while f"{stem}%{i}" in avoid:
                    i += 1
                pre = {v: f"{stem}%{i}"}
                v = pre[v]
            if v in rho:
                inner = {k: w for k, w in rho.items() if k != v}
        out.append(v)
    return type(p)(*out)


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
# construct that emits it, with the field holding its payload, and the
# connectives it is sent at.  Message classification, observation, the
# checking of observed trees, experiment generation and the typing of
# channels at birth all read these two tables, through send_kind,
# message_parts, make_message and message_cont.
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
_SEND_KIND = {cls: (kind, fld) for kind, (cls, fld) in MSG_SEND.items()}


@dataclass(frozen=True)
class MsgInfo:
    polarity: str
    kind: str  # a key of MSG_SEND
    carrier: str
    cont: Optional[str]
    payload: object = None


def send_kind(p: Process) -> Optional[tuple[str, object]]:
    """(kind, payload) of a send construct; None for any other process."""
    entry = _SEND_KIND.get(type(p))
    if entry is None:
        return None
    kind, fld = entry
    return kind, (getattr(p, fld) if fld else None)


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
    sent = send_kind(p)
    if sent is None:
        return None
    kind, payload = sent
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


def type_to_str(a: SessionType) -> str:
    if isinstance(a, One):
        return "1"
    if isinstance(a, Plus):
        inner = ", ".join(f"{l}: {type_to_str(t)}" for l, t in a.branches)
        return "+{" + inner + "}"
    if isinstance(a, With):
        inner = ", ".join(f"{l}: {type_to_str(t)}" for l, t in a.branches)
        return "&{" + inner + "}"
    if isinstance(a, Tensor):
        return f"{_type_atom(a.left)} * {_type_atom(a.right)}"
    if isinstance(a, Lolli):
        return f"{_type_atom(a.left)} -o {type_to_str(a.right)}"
    if isinstance(a, Down):
        return f"down {_type_atom(a.body)}"
    if isinstance(a, Up):
        return f"up {_type_atom(a.body)}"
    if isinstance(a, Rec):
        return f"rec {a.var}. {type_to_str(a.body)}"
    if isinstance(a, TVar):
        return a.name
    if isinstance(a, AndVal):
        return f"[{functype_to_str(a.vtype)}] ^ {_type_atom(a.body)}"
    if isinstance(a, ImpVal):
        return f"[{functype_to_str(a.vtype)}] => {_type_atom(a.body)}"
    raise TypeError(f"not a session type: {a!r}")


def _type_atom(a: SessionType) -> str:
    s = type_to_str(a)
    if isinstance(a, (One, Plus, With, TVar)):
        return s
    return f"({s})"


def functype_to_str(t: FuncType) -> str:
    if isinstance(t, Arrow):
        lhs = functype_to_str(t.arg)
        if isinstance(t.arg, Arrow):
            lhs = f"({lhs})"
        return f"{lhs} -> {functype_to_str(t.res)}"
    if isinstance(t, ProcType):
        used = ", ".join(f"{c}:{type_to_str(a)}" for c, a in t.used)
        c, a = t.offered
        return "{" + f"{c}:{type_to_str(a)}" + (f" <- {used}" if used else " <-") + "}"
    raise TypeError(f"not a functional type: {t!r}")


def term_to_str(m: FuncTerm) -> str:
    if isinstance(m, FVar):
        return m.name
    if isinstance(m, Lam):
        return f"\\{m.var}: {functype_to_str(m.ann)}. {term_to_str(m.body)}"
    if isinstance(m, FApp):
        fn = term_to_str(m.fn)
        if isinstance(m.fn, (Lam, Fix)):
            fn = f"({fn})"
        arg = term_to_str(m.arg)
        if not isinstance(m.arg, FVar):
            arg = f"({arg})"
        return f"{fn} {arg}"
    if isinstance(m, Fix):
        return f"fix {m.var}. {term_to_str(m.body)}"
    if isinstance(m, Quote):
        c, a = m.offered
        used = ", ".join(f"{d}:{type_to_str(t)}" for d, t in m.used)
        head = f"proc({c}:{type_to_str(a)}" + (f"; {used})" if used else ")")
        return f"{head} {{{proc_to_str(m.body)}}}"
    raise TypeError(f"not a term: {m!r}")


def proc_to_str(p: Process) -> str:
    if isinstance(p, FwdPos):
        return f"fwd+ {p.src} -> {p.dst}"
    if isinstance(p, FwdNeg):
        return f"fwd- {p.src} -> {p.dst}"
    if isinstance(p, Cut):
        ann = f": {type_to_str(p.ann)} " if p.ann is not None else " "
        return f"{p.chan}{ann}<- {{{proc_to_str(p.left)}}}; {proc_to_str(p.right)}"
    if isinstance(p, Close):
        return f"close {p.chan}"
    if isinstance(p, Wait):
        return f"wait {p.chan}; {proc_to_str(p.cont)}"
    if isinstance(p, SendLabel):
        return f"{p.chan}.{p.label}; {proc_to_str(p.cont)}"
    if isinstance(p, Case):
        inner = " | ".join(f"{l} => {proc_to_str(q)}" for l, q in p.branches)
        return f"case {p.chan} {{{inner}}}"
    if isinstance(p, SendChan):
        return f"send {p.chan} <{p.payload}>; {proc_to_str(p.cont)}"
    if isinstance(p, RecvChan):
        return f"{p.var} <- recv {p.chan}; {proc_to_str(p.cont)}"
    if isinstance(p, SendShift):
        return f"send {p.chan} shift; {proc_to_str(p.cont)}"
    if isinstance(p, RecvShift):
        return f"shift <- recv {p.chan}; {proc_to_str(p.cont)}"
    if isinstance(p, SendUnfold):
        return f"send {p.chan} unfold; {proc_to_str(p.cont)}"
    if isinstance(p, RecvUnfold):
        return f"unfold <- recv {p.chan}; {proc_to_str(p.cont)}"
    if isinstance(p, SendVal):
        return f"send {p.chan} [{term_to_str(p.term)}]; {proc_to_str(p.cont)}"
    if isinstance(p, RecvVal):
        return f"[{p.var}] <- recv {p.chan}; {proc_to_str(p.cont)}"
    if isinstance(p, Unquote):
        tail = " ".join(p.used)
        return f"{p.chan} <- [{term_to_str(p.term)}]" + (f" <- {tail}" if tail else "")
    raise TypeError(f"not a process: {p!r}")


# printable payloads: anything that can end up embedded in a run state or a
# reported value renders as surface syntax, not as a dataclass repr
for _cls in TYPE_ROLES:
    _cls.__str__ = type_to_str
for _cls in (Arrow, ProcType):
    _cls.__str__ = functype_to_str
for _cls in TERM_ROLES:
    _cls.__str__ = term_to_str
for _cls in PROC_ROLES:
    _cls.__str__ = proc_to_str
del _cls
