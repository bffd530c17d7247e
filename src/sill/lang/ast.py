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


def _sorted_branches(branches) -> tuple:
    items = tuple(branches.items()) if isinstance(branches, dict) else tuple(branches)
    return tuple(sorted(items, key=lambda kv: kv[0]))


# -- session types -------------------------------------------------------------


@dataclass(frozen=True)
class One:
    pass


@dataclass(frozen=True)
class Plus:
    branches: tuple[tuple[str, SessionType], ...]

    def __post_init__(self):
        object.__setattr__(self, "branches", _sorted_branches(self.branches))

    def branch(self, label: str) -> Optional[SessionType]:
        for l, t in self.branches:
            if l == label:
                return t
        return None

    def labels(self) -> tuple[str, ...]:
        return tuple(l for l, _ in self.branches)


@dataclass(frozen=True)
class With:
    branches: tuple[tuple[str, SessionType], ...]

    def __post_init__(self):
        object.__setattr__(self, "branches", _sorted_branches(self.branches))

    def branch(self, label: str) -> Optional[SessionType]:
        for l, t in self.branches:
            if l == label:
                return t
        return None

    def labels(self) -> tuple[str, ...]:
        return tuple(l for l, _ in self.branches)


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


def subst_tvar(a: SessionType, name: str, repl: SessionType) -> SessionType:
    """Substitute repl for the type variable name.

    repl is always closed here, so capture cannot arise; shadowed binders
    still stop the descent.
    """
    if isinstance(a, TVar):
        return repl if a.name == name else a
    if isinstance(a, Plus):
        return Plus(tuple((l, subst_tvar(t, name, repl)) for l, t in a.branches))
    if isinstance(a, With):
        return With(tuple((l, subst_tvar(t, name, repl)) for l, t in a.branches))
    if isinstance(a, Tensor):
        return Tensor(subst_tvar(a.left, name, repl), subst_tvar(a.right, name, repl))
    if isinstance(a, Lolli):
        return Lolli(subst_tvar(a.left, name, repl), subst_tvar(a.right, name, repl))
    if isinstance(a, Down):
        return Down(subst_tvar(a.body, name, repl))
    if isinstance(a, Up):
        return Up(subst_tvar(a.body, name, repl))
    if isinstance(a, AndVal):
        return AndVal(a.vtype, subst_tvar(a.body, name, repl))
    if isinstance(a, ImpVal):
        return ImpVal(a.vtype, subst_tvar(a.body, name, repl))
    if isinstance(a, Rec):
        if a.var == name:
            return a
        return Rec(a.var, subst_tvar(a.body, name, repl))
    return a


def unfold_rec(a: Rec) -> SessionType:
    """One unfolding: the recursive type substituted for its own variable."""
    if not isinstance(a, Rec):
        raise TypeError(f"cannot unfold {type_to_str(a)}")
    return subst_tvar(a.body, a.var, a)


def canon_type(a: SessionType, depth: int = 0, env: Optional[dict] = None) -> SessionType:
    """Rename recursion binders to positional names so that equality of
    canonical forms is alpha-equivalence."""
    env = env or {}
    if isinstance(a, TVar):
        return TVar(env.get(a.name, a.name))
    if isinstance(a, Plus):
        return Plus(tuple((l, canon_type(t, depth, env)) for l, t in a.branches))
    if isinstance(a, With):
        return With(tuple((l, canon_type(t, depth, env)) for l, t in a.branches))
    if isinstance(a, Tensor):
        return Tensor(canon_type(a.left, depth, env), canon_type(a.right, depth, env))
    if isinstance(a, Lolli):
        return Lolli(canon_type(a.left, depth, env), canon_type(a.right, depth, env))
    if isinstance(a, Down):
        return Down(canon_type(a.body, depth, env))
    if isinstance(a, Up):
        return Up(canon_type(a.body, depth, env))
    if isinstance(a, AndVal):
        return AndVal(canon_functype(a.vtype), canon_type(a.body, depth, env))
    if isinstance(a, ImpVal):
        return ImpVal(canon_functype(a.vtype), canon_type(a.body, depth, env))
    if isinstance(a, Rec):
        fresh = f"%{depth}"
        inner = dict(env)
        inner[a.var] = fresh
        return Rec(fresh, canon_type(a.body, depth + 1, inner))
    return a


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


def free_fvars(m: FuncTerm) -> set[str]:
    if isinstance(m, FVar):
        return {m.name}
    if isinstance(m, Lam):
        return free_fvars(m.body) - {m.var}
    if isinstance(m, FApp):
        return free_fvars(m.fn) | free_fvars(m.arg)
    if isinstance(m, Fix):
        return free_fvars(m.body) - {m.var}
    if isinstance(m, Quote):
        return proc_free_fvars(m.body)
    raise TypeError(f"not a term: {m!r}")


def subst_fvar(m: FuncTerm, name: str, value: FuncTerm) -> FuncTerm:
    """Substitute a closed value for a functional variable."""
    if isinstance(m, FVar):
        return value if m.name == name else m
    if isinstance(m, Lam):
        if m.var == name:
            return m
        return Lam(m.var, m.ann, subst_fvar(m.body, name, value))
    if isinstance(m, FApp):
        return FApp(subst_fvar(m.fn, name, value), subst_fvar(m.arg, name, value))
    if isinstance(m, Fix):
        if m.var == name:
            return m
        return Fix(m.var, subst_fvar(m.body, name, value))
    if isinstance(m, Quote):
        return Quote(m.offered, proc_subst_fvar(m.body, name, value), m.used)
    raise TypeError(f"not a term: {m!r}")


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
class Case:
    chan: str
    branches: tuple[tuple[str, "Process"], ...]

    def __post_init__(self):
        object.__setattr__(self, "branches", _sorted_branches(self.branches))

    def branch(self, label: str) -> Optional["Process"]:
        for l, p in self.branches:
            if l == label:
                return p
        return None


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


def fc(p: Process) -> set[str]:
    """Free channel names of a process."""
    if isinstance(p, (FwdPos, FwdNeg)):
        return {p.src, p.dst}
    if isinstance(p, Cut):
        return (fc(p.left) | fc(p.right)) - {p.chan}
    if isinstance(p, Close):
        return {p.chan}
    if isinstance(p, (Wait, SendLabel, SendShift, RecvShift, SendUnfold,
                      RecvUnfold, SendVal)):
        return {p.chan} | fc(p.cont)
    if isinstance(p, Case):
        out = {p.chan}
        for _, q in p.branches:
            out |= fc(q)
        return out
    if isinstance(p, SendChan):
        return {p.chan, p.payload} | fc(p.cont)
    if isinstance(p, RecvChan):
        return {p.chan} | (fc(p.cont) - {p.var})
    if isinstance(p, RecvVal):
        return {p.chan} | fc(p.cont)
    if isinstance(p, Unquote):
        return {p.chan} | set(p.used)
    raise TypeError(f"not a process: {p!r}")


def proc_free_fvars(p: Process) -> set[str]:
    if isinstance(p, (FwdPos, FwdNeg, Close)):
        return set()
    if isinstance(p, Unquote):
        return free_fvars(p.term)
    if isinstance(p, Cut):
        return proc_free_fvars(p.left) | proc_free_fvars(p.right)
    if isinstance(p, Case):
        out: set[str] = set()
        for _, q in p.branches:
            out |= proc_free_fvars(q)
        return out
    if isinstance(p, SendVal):
        return free_fvars(p.term) | proc_free_fvars(p.cont)
    if isinstance(p, RecvVal):
        return proc_free_fvars(p.cont) - {p.var}
    return proc_free_fvars(p.cont)


def _alpha_fresh(base: str, avoid: set[str]) -> str:
    # '%' is reserved by the fresh-name scheme, so renamed binders cannot
    # collide with source identifiers; picking the smallest free index keeps
    # renaming deterministic
    stem = base.split("%")[0] or "x"
    k = 0
    while f"{stem}%{k}" in avoid:
        k += 1
    return f"{stem}%{k}"


def subst_chan(p: Process, rho: Mapping[str, str]) -> Process:
    """Rename free channel names.  Bound channels are alpha-renamed when they
    would capture.  Functional subterms never contain free channels, so the
    descent stops at them."""
    rho = {k: v for k, v in rho.items() if k != v}
    if not rho:
        return p

    def ch(c: str) -> str:
        return rho.get(c, c)

    def rebind(x: str, *bodies: "Process") -> tuple[str, tuple["Process", ...]]:
        if x not in rho.values():
            return x, bodies
        avoid = set(rho) | set(rho.values())
        for b in bodies:
            avoid |= fc(b)
        y = _alpha_fresh(x, avoid)
        return y, tuple(subst_chan(b, {x: y}) for b in bodies)

    if isinstance(p, FwdPos):
        return FwdPos(ch(p.src), ch(p.dst))
    if isinstance(p, FwdNeg):
        return FwdNeg(ch(p.src), ch(p.dst))
    if isinstance(p, Cut):
        x, (left, right) = rebind(p.chan, p.left, p.right)
        inner = {k: v for k, v in rho.items() if k != x}
        return Cut(x, p.ann, subst_chan(left, inner), subst_chan(right, inner))
    if isinstance(p, Close):
        return Close(ch(p.chan))
    if isinstance(p, Wait):
        return Wait(ch(p.chan), subst_chan(p.cont, rho))
    if isinstance(p, SendLabel):
        return SendLabel(ch(p.chan), p.label, subst_chan(p.cont, rho))
    if isinstance(p, Case):
        return Case(ch(p.chan), tuple((l, subst_chan(q, rho)) for l, q in p.branches))
    if isinstance(p, SendChan):
        return SendChan(ch(p.chan), ch(p.payload), subst_chan(p.cont, rho))
    if isinstance(p, RecvChan):
        x, (cont,) = rebind(p.var, p.cont)
        inner = {k: v for k, v in rho.items() if k != x}
        return RecvChan(x, ch(p.chan), subst_chan(cont, inner))
    if isinstance(p, SendShift):
        return SendShift(ch(p.chan), subst_chan(p.cont, rho))
    if isinstance(p, RecvShift):
        return RecvShift(ch(p.chan), subst_chan(p.cont, rho))
    if isinstance(p, SendUnfold):
        return SendUnfold(ch(p.chan), subst_chan(p.cont, rho))
    if isinstance(p, RecvUnfold):
        return RecvUnfold(ch(p.chan), subst_chan(p.cont, rho))
    if isinstance(p, SendVal):
        return SendVal(ch(p.chan), p.term, subst_chan(p.cont, rho))
    if isinstance(p, RecvVal):
        return RecvVal(p.var, ch(p.chan), subst_chan(p.cont, rho))
    if isinstance(p, Unquote):
        return Unquote(ch(p.chan), p.term, tuple(ch(c) for c in p.used))
    raise TypeError(f"not a process: {p!r}")


def proc_subst_fvar(p: Process, name: str, value: FuncTerm) -> Process:
    """Substitute a closed value for a functional variable throughout a
    process, descending into embedded terms."""
    if isinstance(p, (FwdPos, FwdNeg, Close)):
        return p
    if isinstance(p, Cut):
        return Cut(p.chan, p.ann, proc_subst_fvar(p.left, name, value),
                   proc_subst_fvar(p.right, name, value))
    if isinstance(p, Wait):
        return Wait(p.chan, proc_subst_fvar(p.cont, name, value))
    if isinstance(p, SendLabel):
        return SendLabel(p.chan, p.label, proc_subst_fvar(p.cont, name, value))
    if isinstance(p, Case):
        return Case(p.chan, tuple((l, proc_subst_fvar(q, name, value))
                                  for l, q in p.branches))
    if isinstance(p, SendChan):
        return SendChan(p.chan, p.payload, proc_subst_fvar(p.cont, name, value))
    if isinstance(p, RecvChan):
        return RecvChan(p.var, p.chan, proc_subst_fvar(p.cont, name, value))
    if isinstance(p, SendShift):
        return SendShift(p.chan, proc_subst_fvar(p.cont, name, value))
    if isinstance(p, RecvShift):
        return RecvShift(p.chan, proc_subst_fvar(p.cont, name, value))
    if isinstance(p, SendUnfold):
        return SendUnfold(p.chan, proc_subst_fvar(p.cont, name, value))
    if isinstance(p, RecvUnfold):
        return RecvUnfold(p.chan, proc_subst_fvar(p.cont, name, value))
    if isinstance(p, SendVal):
        return SendVal(p.chan, subst_fvar(p.term, name, value),
                       proc_subst_fvar(p.cont, name, value))
    if isinstance(p, RecvVal):
        if p.var == name:
            return p
        return RecvVal(p.var, p.chan, proc_subst_fvar(p.cont, name, value))
    if isinstance(p, Unquote):
        return Unquote(p.chan, subst_fvar(p.term, name, value), p.used)
    raise TypeError(f"not a process: {p!r}")


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
for _cls in (One, Plus, With, Tensor, Lolli, Down, Up, Rec, TVar, AndVal, ImpVal):
    _cls.__str__ = type_to_str
for _cls in (Arrow, ProcType):
    _cls.__str__ = functype_to_str
for _cls in (FVar, Lam, FApp, Fix, Quote):
    _cls.__str__ = term_to_str
for _cls in (FwdPos, FwdNeg, Cut, Close, Wait, SendLabel, Case, SendChan,
             RecvChan, SendShift, RecvShift, SendUnfold, RecvUnfold, SendVal,
             RecvVal, Unquote):
    _cls.__str__ = proc_to_str
del _cls
