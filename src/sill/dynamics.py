"""Process configurations as multiset rewriting.

A running configuration is a multiset of ``proc`` and ``msg`` facts whose
second argument encodes a process as a first-order term.  Rewrite rules are
not fixed up front: each enabled step is a ground rule generated from the
facts that enable it, so the fair scheduler and the trace machinery apply
unchanged.  Steps read and build the encoding: one rule for every send and
one for every receive, read off the message-kind tables of ``ast``, with
each continuation a subterm of the fact, renamed by one walk.  A fair run
enumerates the start state once; after a step it asks only for the steps
that can consume a fact the step touched.  Most processes (senders, cuts,
closes, unquotes) have steps that depend on their own fact alone; a system
derives those once per fact and hands them to every run on it.  Only the
steps of processes that wait for a message are derived again in each run.
A step derives nothing twice: it is keyed by the facts it consumes, a
message's info is read off the two levels of its term (``msg_info``), and
each quoted body is encoded once per system and renamed per unquote.  A
step that creates a channel holds its consequent as a template over the
channel's term, which ``fire`` fills in once with the fresh name.  An
unchecked run decodes no process.

Sending is asynchronous.  A sender turns into a message fact plus a
continuation running on a fresh channel; a receiver consumes the matching
message and renames itself onto the message's continuation channel.  The
fresh channel is an existential of the generated rule, which keeps traces
replayable and permutable.

A checked run checks type preservation the same way: it types the initial
state once, then after each step types only the facts the step produced
and re-checks only the channels of the facts it consumed or produced.  A
checked step costs what it touched, not the size of the state.
"""

from __future__ import annotations

from bisect import insort
from itertools import chain, repeat
from typing import Callable, Iterable, Iterator, Mapping, Optional, Union

from .fairness import fair_execute
from .lang import ast
from .lang.ast import (BRANCHES, CHAN, CHAN_BINDER, CHANS, CHILD, FUNC_BINDER,
                       OPAQUE, TERM, fold)
from .lang.check import ConfigTyping, check_config
from .lang.errors import SillError, SillTypeError
from .msr.multiset import Fact, Multiset, fact_key
from .msr.rules import KEY_VARS, Inst, Rule, Signature, _equiv_key
from .msr.terms import App, Const, Term, Wrap
from .msr.trace import Trace

DEFAULT_EVAL_FUEL = 10_000

# the one existential of a step, the fresh channel it creates: named after
# the first placeholder of the equivalence key, so the validated rule of a
# step's fields is its own key variant
_EVAR = KEY_VARS[0]


class PreservationViolation(SillError):
    """A run reached a state that no longer typechecks at the recorded
    channel types.  ``step`` is the index of that state (0 for the initial
    one) when the run knows it."""

    def __init__(self, message: str, step: Optional[int] = None):
        super().__init__(message)
        self.step = step


# -- functional evaluation ---------------------------------------------------------


class _Diverged:
    __slots__ = ()

    def __repr__(self) -> str:
        return "DIVERGED"


DIVERGED = _Diverged()


class _OutOfFuel(Exception):
    pass


def eval_term(m: ast.FuncTerm, fuel: int = DEFAULT_EVAL_FUEL):
    """Big-step call-by-value evaluation.

    fuel bounds the number of recursive unfoldings; exhausting it returns
    the DIVERGED sentinel rather than raising, since callers treat
    divergence as an ordinary (negative) side-condition outcome.
    """
    left = [fuel]
    try:
        return _eval(m, left)
    except _OutOfFuel:
        return DIVERGED


def _eval(m: ast.FuncTerm, left: list) -> ast.FuncTerm:
    # the loop keeps unfolding in tail position so recursion depth stays
    # bounded by the syntactic nesting of the term, not by the fuel
    while True:
        if isinstance(m, (ast.Lam, ast.Quote)):
            return m
        if isinstance(m, ast.Fix):
            if left[0] <= 0:
                raise _OutOfFuel
            left[0] -= 1
            m = ast.subst_fvar(m.body, m.var, m)
        elif isinstance(m, ast.FApp):
            f = _eval(m.fn, left)
            if not isinstance(f, ast.Lam):
                raise SillTypeError(f"applied a non-function: {f}")
            a = _eval(m.arg, left)
            m = ast.subst_fvar(f.body, f.var, a)
        elif isinstance(m, ast.FVar):
            raise SillTypeError(f"unbound variable {m.name} in evaluation")
        else:
            raise SillTypeError(f"cannot evaluate {m!r}")


# -- process encoding --------------------------------------------------------------

# The tag of each construct's encoding.  Its arguments are the construct's
# fields in the order of ast.PROC_ROLES, with the branches of a case and the
# channels an unquote passes spread at the end.
_TAGS = {
    ast.FwdPos: "fwd+", ast.FwdNeg: "fwd-", ast.Cut: "cut", ast.Close: "close",
    ast.Wait: "wait", ast.SendLabel: "send_label", ast.Case: "case",
    ast.SendChan: "send_chan", ast.RecvChan: "recv_chan",
    ast.SendShift: "send_shift", ast.RecvShift: "recv_shift",
    ast.SendUnfold: "send_unfold", ast.RecvUnfold: "recv_unfold",
    ast.SendVal: "send_val", ast.RecvVal: "recv_val", ast.Unquote: "unquote",
}
_DECODE = {tag: (cls, tuple(ast.PROC_ROLES[cls].values()))
           for cls, tag in _TAGS.items()}


def _roles(t: App) -> Iterable[tuple[str, Term]]:
    """(role, argument) of an encoded construct; spread ones take the last."""
    roles = _DECODE[t.fn][1]
    return zip(chain(roles, repeat(roles[-1])), t.args)


def _enc(q: ast.Process, kids: Iterator[Term], _) -> Term:
    args = []
    for f, role in ast.PROC_ROLES[type(q)].items():
        v = getattr(q, f)
        if role is CHILD:
            args.append(next(kids))
        elif role is BRANCHES:
            args.extend(App("branch", (Const(l), next(kids))) for l, _ in v)
        elif role is CHANS:
            args.extend(map(Const, v))
        else:  # payloads and annotations are wrapped, names become constants
            args.append(Wrap(v) if role is TERM or role is OPAQUE else Const(v))
    return App(_TAGS[type(q)], tuple(args))


def enc_proc(p: ast.Process) -> Term:
    """Encode a process as a term, one application per construct."""
    return fold(p, ast.subprocs, _enc)


def _name(t: Term) -> str:
    if not isinstance(t, Const):
        raise ValueError(f"expected a channel constant, got {t!r}")
    return t.name


def _dec_fields(node: list, _) -> list:
    """Check the shape of the term in node, then make node the construct,
    where its spread fields start (or None), its decoded fields with a
    hole for each subprocess, and the holes as (index, branch label or
    None).  Returns the subprocesses, as nodes of their own."""
    t = node[0]
    if not isinstance(t, App) or t.fn not in _DECODE:
        raise ValueError(f"not a process encoding: {t!r}")
    cls, roles = _DECODE[t.fn]
    n, spread = len(roles), roles[-1] is BRANCHES or roles[-1] is CHANS
    if len(t.args) < n - spread or (len(t.args) > n and not spread):
        raise ValueError(f"wrong number of arguments: {t!r}")
    fields, holes, kids = [], [], []
    for role, a in _roles(t):
        if role is CHILD:
            holes.append((len(fields), None))
            kids.append([a])
        elif role is BRANCHES:
            if not (isinstance(a, App) and a.fn == "branch" and len(a.args) == 2):
                raise ValueError(f"bad branch encoding: {a!r}")
            holes.append((len(fields), _name(a.args[0])))
            kids.append([a.args[1]])
        elif role is TERM or role is OPAQUE:
            if not isinstance(a, Wrap):
                raise ValueError(f"expected a wrapped payload, got {a!r}")
            a = a.payload
        else:
            a = _name(a)
        fields.append(a)
    node[:] = cls, n - 1 if spread else None, fields, holes
    return kids


def _dec(node: list, kids: Iterator[ast.Process], _) -> ast.Process:
    cls, spread, fields, holes = node
    for i, label in holes:
        fields[i] = next(kids) if label is None else (label, next(kids))
    if spread is None:
        return cls(*fields)
    return cls(*fields[:spread], tuple(fields[spread:]))


def dec_proc(t: Term) -> ast.Process:
    """Decode a term produced by enc_proc back to a process."""
    return fold([t], _dec_fields, _dec)


def _rename(t: Term, rho: Mapping[str, Term],
            val: Optional[tuple[str, ast.FuncTerm]] = None) -> Term:
    """An encoded process with the free channel names in rho renamed, to
    constants or to a step's variable, and the closed value v put for x
    when val = (x, v); a binder shadows its name.  A construct whose binder
    is in rho's range would capture: it goes to ``ast.subst_chan``, the one
    alpha-renaming, a fold like this walk."""
    return fold([t, {c: u for c, u in rho.items() if u is not Const(c)}, val],
                _rename_kids, _rename_build)


def _rename_kids(node: list, _) -> list:
    u, r, x = node
    kids: list = []
    if not r and x is None:
        return kids
    for role, a in _roles(u):
        if role is CHAN_BINDER and a in r.values():
            # the node becomes its renamed encoding, which build keeps
            q = dec_proc(u) if x is None else ast.subst_fvar(dec_proc(u), *x)
            node[:] = enc_proc(ast.subst_chan(q, {c: w.name for c, w in r.items()})), {}, None
            return []
        if role is CHAN_BINDER and a.name in r:
            r = {c: w for c, w in r.items() if c != a.name}
        elif role is FUNC_BINDER and x is not None and a.name == x[0]:
            x = None
        elif role is CHILD or role is BRANCHES:
            kids.append([a if role is CHILD else a.args[1], r, x])
    return kids


def _rename_build(node: list, kids: Iterator[Term], _) -> Term:
    u, r, x = node
    if not r and x is None:
        return u
    args = []
    for role, a in _roles(u):
        if role is CHAN or role is CHANS:
            a = r.get(a.name, a)
        elif role is CHILD:
            a = next(kids)
        elif role is BRANCHES:
            a = App("branch", (a.args[0], next(kids)))
        elif role is TERM and x is not None:
            a = Wrap(ast.subst_fvar(a.payload, *x))
        args.append(a)
    return App(u.fn, tuple(args))


def proc_fact(chan: str, p: ast.Process) -> Fact:
    return Fact("proc", (Const(chan), enc_proc(p)))


def msg_fact(chan: str, p: ast.Process) -> Fact:
    return Fact("msg", (Const(chan), enc_proc(p)))


def classify_fact(f: Fact) -> tuple:
    """(pred, channel, process, message info or None) for a process fact,
    decoded in full once and kept on the fact for as long as the fact
    lives.  Checked runs and ``state_facts`` need the process; the step
    path and the observations need only the message info, which
    ``msg_info`` reads off the term and keeps on the fact with the process
    still None."""
    memo = f.memo
    if memo is not None and memo[2] is not None:
        return memo
    if f.pred not in ("proc", "msg") or len(f.args) != 2:
        raise ValueError(f"not a process fact: {f!r}")
    chan, p = _name(f.args[0]), dec_proc(f.args[1])
    if memo is not None:
        info = memo[3]
    else:
        info = ast.message_parts(chan, p) if f.pred == "msg" else None
    return f.remember((f.pred, chan, p, info))


def msg_info(f: Fact) -> Optional[ast.MsgInfo]:
    """The message info of a msg fact (``ast.message_parts`` of its
    channel and process), or None when it has no message shape.

    Read off the term by ``_read_msg`` and kept on the fact, with the
    process left undecoded.  Any other shape goes to the full decode of
    ``classify_fact``, which raises ValueError on a term that encodes no
    process."""
    memo = f.memo
    if memo is not None:
        return memo[3]
    info = _read_msg(f)
    if info is None:
        return classify_fact(f)[3]
    return f.remember(("msg", f.args[0].name, None, info))[3]


def _read_msg(f: Fact) -> Optional[ast.MsgInfo]:
    """The message info of a msg fact of message shape, or None for any
    other fact.  A message term is two levels deep: the send, whose
    carrier and payload are leaves, and the forward that ends it."""
    if f.pred != "msg" or len(f.args) != 2:
        return None
    key, t = f.args
    shape = _MSG_SHAPES.get(t.fn) if type(t) is App else None
    if shape is None or len(t.args) != shape[0] or type(t.args[0]) is not Const:
        return None
    _, kind, pay, pos, neg = shape
    a, c = t.args[0], t.args[-1]
    if kind == "close":
        return ast.MsgInfo(ast.POSITIVE, kind, a.name, None) if key is a else None
    if type(c) is not App or len(c.args) != 2:
        return None
    src, dst = c.args
    if c.fn == pos and dst is a and key is a and type(src) is Const:
        pol, cont = ast.POSITIVE, src.name
    elif c.fn == neg and src is a and key is dst and type(dst) is Const:
        pol, cont = ast.NEGATIVE, dst.name
    else:
        return None
    payload = None if pay is None else t.args[pay]
    if kind == "val":
        if type(payload) is not Wrap or not ast.is_value(payload.payload):
            return None
        payload = payload.payload
    elif payload is not None:
        if type(payload) is not Const:
            return None
        payload = payload.name
    return ast.MsgInfo(pol, kind, a.name, cont, payload)


def config_state(facts: Iterable[Union[ast.ProcF, ast.MsgF]]) -> Multiset:
    """Encode checked configuration facts as a rewriting state."""
    return Multiset.of([(msg_fact if isinstance(f, ast.MsgF) else proc_fact)(f.chan, f.proc)
                        for f in facts])


def config_fact(f: Fact) -> Union[ast.ProcF, ast.MsgF]:
    """Decode a proc or msg fact to a configuration fact."""
    _, chan, p, _ = classify_fact(f)
    return ast.MsgF(chan, p) if f.pred == "msg" else ast.ProcF(chan, p)


def state_facts(st: Multiset) -> list[Union[ast.ProcF, ast.MsgF]]:
    """Decode a state back to configuration facts, sorted, with multiplicity."""
    out: list[Union[ast.ProcF, ast.MsgF]] = []
    for f in sorted(st.eph_support(), key=fact_key):
        out.extend([config_fact(f)] * st.count(f))
    return out


def initial_config(
    p: ast.Process,
    delta: Optional[Mapping[str, ast.SessionType]],
    offered: tuple[str, ast.SessionType],
) -> tuple[Multiset, ast.Interface]:
    """State holding the single fact ``proc c {p}``, plus its interface."""
    used = tuple(sorted((delta or {}).items()))
    iface = ast.Interface(used=used, internal=(), provided=(offered,))
    return Multiset.of([proc_fact(offered[0], p)]), iface


# -- step generation ---------------------------------------------------------------


def _ground(name: str, consumed: list, produced: Union[list, Callable[[Term], tuple]],
            evars: tuple = (), hints: tuple = ()) -> Inst:
    # built correct: ephemeral facts, no variable but the fresh channel, and
    # a consequent that is a function of the consumed facts; that of a step
    # creating a channel is a template over the channel's term
    con = produced if callable(produced) else tuple(produced)
    return Inst(Rule.ground(name, tuple(consumed), con, evars, hints), ())


class SillSystem:
    """Rule interface over process states.

    Quacks like a rule system for the scheduler and the trace machinery,
    but its rules are ground and generated on demand, one per enabled step,
    deduplicated and deterministically ordered.  ``applicable`` indexes a
    whole state; the enabled set of a fair run (``enabled``, a
    ``_StepIndex``) keeps the facts indexed and after each step hands out
    the steps that can consume a touched fact.  Functional side conditions
    are evaluated with a fixed fuel; a divergent side condition makes the
    step silently unavailable.

    Four memos last for the system's lifetime, so build one per run or
    per verdict: ``_memo`` holds each evaluated term's value and
    ``_quoted`` each unquoted term's quote with its body's encoding, both
    keyed by the interned ``Wrap``, which hashes by address; ``store``
    holds the steps derived for each proc fact that listens on no carrier,
    and so their facts, or, for a step that creates a channel, the
    template of its consequent (``Rule.ground``), which each firing fills
    in with its own fresh name; ``observations`` holds each observation
    ``obs.observe_config`` made on the system, with the interface it was
    made under, keyed by (state, observed channels, fuel, depth, seed).
    The state is a ``Multiset`` of interned facts, which hashes by their
    addresses, and no session type is hashed.
    """

    rules: tuple = ()
    source: Optional[str] = None
    declared: frozenset[str] = frozenset()

    def __init__(self, eval_fuel: int = DEFAULT_EVAL_FUEL):
        self.eval_fuel = eval_fuel
        self._memo: dict[Wrap, object] = {}
        self._quoted: dict[Wrap, Optional[tuple[ast.Quote, Term]]] = {}
        self.store: dict[Fact, list[Inst]] = {}
        self.observations: dict[tuple, tuple] = {}

    def signature(self) -> Signature:
        return Signature(self.declared, 0)

    def eval(self, m: ast.FuncTerm):
        """The value of m, or DIVERGED."""
        return self.value(Wrap(m))

    def value(self, w: Wrap):
        """The value of the functional term that w wraps, or DIVERGED,
        memoised by the interned wrap, which hashes by address."""
        try:
            return self._memo[w]
        except KeyError:
            v = self._memo[w] = eval_term(w.payload, self.eval_fuel)
            return v

    def quoted(self, w: Wrap) -> Optional[tuple[ast.Quote, Term]]:
        """The quote that w evaluates to and its body's encoding, or None
        when w evaluates to no quote."""
        try:
            return self._quoted[w]
        except KeyError:
            v = self.value(w)
            q = self._quoted[w] = (v, enc_proc(v.body)) if isinstance(v, ast.Quote) else None
            return q

    def applicable(self, state: Multiset) -> list[Inst]:
        """Every enabled step of state, in enumeration order: proc facts by
        fact key, then each fact's steps; equivalent steps after the first
        are dropped."""
        index = _StepIndex(self, state)
        out: dict[tuple, Inst] = {}
        for k, inst in index.steps(index.procs):
            out.setdefault(k, inst)
        return list(out.values())

    def enabled(self, state: Multiset) -> "_StepIndex":
        """The per-run enabled set the fair scheduler advances step by step."""
        return _StepIndex(self, state)

    def _steps(self, fact: Fact, msgs: dict) -> list[Inst]:
        key, t = fact.args
        tag, args = t.fn, t.args
        if tag == "fwd+" or tag == "fwd-":
            # a forward passes on each message of its polarity: a positive
            # one from src to dst, rekeyed there, a negative one from dst to
            # src, still keyed by its continuation
            at = _LISTENS[tag]
            pol, frm, to = ast.POSITIVE if at == 0 else ast.NEGATIVE, args[at], args[1 - at]
            return [_ground(tag, [fact, mf], [Fact("msg", (
                to if at == 0 else mf.args[0], _rename(mf.args[1], {frm.name: to})))])
                for mf, info in msgs.get(frm.name, ()) if info.polarity == pol]
        # a cut or a send creates one channel, named after its first one;
        # fire fills its term into the step's consequent
        fresh = {"evars": (_EVAR,), "hints": ((_EVAR, (args[0].name, "prime")),)}
        if tag == "cut":
            x, p, q = args[0].name, args[2], args[3]
            return [_ground("cut", [fact], lambda nc: (Fact("proc", (nc, _rename(p, {x: nc}))),
                                                       Fact("proc", (key, _rename(q, {x: nc})))),
                            **fresh)]
        if tag == "unquote":
            q, used = self.quoted(args[1]), args[2:]
            if q is None or len(q[0].used) != len(used):
                return []
            v, body = q
            rho = dict(zip((v.offered[0], *(n for n, _ in v.used)), (key, *used)))
            return [_ground("unquote", [fact], [Fact("proc", (key, _rename(body, rho)))])]
        kind, sends, at, pay = _COMM[tag]
        chan = args[at].name
        provider = chan == key.name
        # the provider sends at the positive connective and receives at the
        # negative one, a client the other way round
        stem = _CONNECTIVES[kind][provider != sends]
        if stem is None:
            return []
        name = stem + ("_r" if provider else "_l")
        if sends and kind == "close":
            return [_ground(name, [fact], [Fact("msg", (key, t))])]
        if sends:
            # the message ends in a forward to the fresh channel, on which
            # the continuation runs
            head, a, fwd = list(args[:-1]), args[at], _TAGS[ast._forwards(kind)[not provider]]
            if kind == "val":
                v = self.value(head[pay])
                if v is DIVERGED:
                    return []
                head[pay] = Wrap(v)
            head, p = tuple(head), args[-1]

            def con(nc: Term) -> tuple[Fact, ...]:
                msg = ((a, App(tag, (*head, App(fwd, (nc, a))))) if provider
                       else (nc, App(tag, (*head, App(fwd, (a, nc))))))
                return Fact("msg", msg), Fact("proc", (nc if provider else key,
                                                       _rename(p, {chan: nc})))
            return [_ground(name, [fact], con, **fresh)]
        # a receive continues on the message's continuation channel, with
        # what it received in place of its binder
        want = ast.NEGATIVE if provider else ast.POSITIVE
        branches = {b.args[0].name: b.args[1] for b in args[1:]} if kind == "label" else {}
        rs = []
        for mf, info in msgs.get(chan, ()):
            if info.kind != kind or info.polarity != want:
                continue
            q = branches.get(info.payload) if kind == "label" else args[-1]
            if q is None:
                continue
            if kind == "chan":
                q = _rename(q, {args[0].name: Const(info.payload)})
            rho = {chan: Const(info.cont)} if info.cont is not None else {}
            q = _rename(q, rho, (args[0].name, info.payload) if kind == "val" else None)
            rs.append(_ground(name, [fact, mf],
                              [Fact("proc", (Const(info.cont) if provider else key, q))]))
        return rs


# message kind -> the rule-name stems of the connectives it is sent at, the
# positive one's and the negative one's (close is sent at 1 only)
_CONNECTIVES = {"close": ("one", None), "label": ("plus", "with"), "chan": ("tensor", "lolli"),
                "shift": ("down", "up"), "unfold": ("rec_pos", "rec_neg"), "val": ("and", "imp")}
# encoded send or receive -> (kind, sends, the carrier's argument, the
# payload's argument), read off ast.MSG_SEND, ast.MSG_RECV and ast.PROC_ROLES
_COMM = {_TAGS[cls]: (kind, sends, tuple(ast.PROC_ROLES[cls]).index("chan"),
                      tuple(ast.PROC_ROLES[cls]).index(fld) if fld and sends else None)
         for kind, (send, fld) in ast.MSG_SEND.items()
         for cls, sends in ((send, True), (ast.MSG_RECV[kind], False))}
# tag of a forward or a receive -> the argument of the carrier whose
# messages it takes (a fwd+ takes positive ones, a fwd- negative ones)
_LISTENS = {"fwd+": 0, "fwd-": 1,
            **{tag: at for tag, (_, sends, at, _) in _COMM.items() if not sends}}


# encoded send -> (its number of arguments, its kind, the payload's argument
# or None, the tags of the forwards ending a positive and a negative
# message); the carrier is the first argument of every send
_MSG_SHAPES = {tag: (len(ast.PROC_ROLES[ast.MSG_SEND[kind][0]]), kind, pay,
                     *(_TAGS[fwd] for fwd in ast._forwards(kind)))
               for tag, (kind, sends, at, pay) in _COMM.items() if sends}


def _listens_on(t: Term) -> Optional[str]:
    """The carrier whose messages the encoded process's steps consume, if any."""
    at = _LISTENS.get(t.fn)
    return None if at is None else t.args[at].name


class _StepIndex:
    """The facts of a run's current state arranged for step generation.

    Messages are bucketed by carrier, with the info ``msg_info`` reads off
    their terms, and proc facts by the carrier their encoding listens on;
    no fact is decoded.  A proc fact's steps depend only on the fact and
    the bucket of that carrier, so after a step only the touched proc facts
    and the listeners on the carriers of touched messages need their steps.
    The steps of a proc fact that listens on no carrier come from the
    system's ``store`` (a per-fact memory in the manner of Rete), derived
    when a run on the system first asks; each run keys them anew.
    ``derived`` and ``reused`` count the steps handed out each way.
    Order keys (``fact_key``) are built only to order two or more facts:
    the proc facts of one ``steps`` call, or a message joining a carrier's
    non-empty bucket.
    """

    def __init__(self, system: SillSystem, state: Multiset):
        self.system = system
        # indexed fact -> the carrier a proc fact listens on, or a message's
        # info, so removal reads nothing again
        self.facts: dict[Fact, object] = {}
        self.procs: dict[Fact, None] = {}
        self.msgs: dict[str, list] = {}
        self.listeners: dict[str, dict[Fact, None]] = {}
        self.derived = self.reused = 0
        for f in state.eph_support():
            self._add(f)

    def _add(self, f: Fact) -> None:
        if f.pred == "proc":
            self.procs[f] = None
            carrier = self.facts[f] = _listens_on(f.args[1])
            if carrier is not None:
                self.listeners.setdefault(carrier, {})[f] = None
            return
        info = self.facts[f] = msg_info(f)
        if info is not None:
            # buckets keep the fact-key order the step enumeration relies
            # on; a fact joining an empty one is compared with nothing
            bucket = self.msgs.get(info.carrier)
            if bucket is None:
                self.msgs[info.carrier] = [(f, info)]
            else:
                insort(bucket, (f, info), key=lambda t: fact_key(t[0]))

    def _remove(self, f: Fact) -> None:
        entry = self.facts.pop(f)
        if f.pred == "proc":
            del self.procs[f]
            if entry is not None:
                del self.listeners[entry][f]
        elif entry is not None:
            bucket = self.msgs[entry.carrier]
            bucket.pop(next(i for i, t in enumerate(bucket) if t[0] is f))
            if not bucket:
                del self.msgs[entry.carrier]

    def steps(self, procs: Iterable[Fact]) -> list[tuple[tuple, Inst]]:
        """The steps of the given proc facts with their equivalence keys,
        in enumeration order."""
        out: list[tuple[tuple, Inst]] = []
        procs = list(procs)
        if len(procs) > 1:
            procs.sort(key=fact_key)
        for f in procs:
            insts = self.system.store.get(f)
            if insts is None:
                insts = self.system._steps(f, self.msgs)
                self.derived += len(insts)
                if self.facts[f] is None:
                    self.system.store[f] = insts
            else:
                self.reused += len(insts)
            out.extend([(_equiv_key(i), i) for i in insts])
        return out

    def delta(self, state: Multiset, gone: Iterable[Fact],
              touched: Iterable[Fact]) -> list[tuple[tuple, Inst]]:
        """Advance to state, whose predecessor lost the facts gone and had
        the touched facts produced or used; return, in enumeration order
        and with their keys, every step that consumes a touched fact.
        Other steps of the same listeners come along; they were enabled
        before, so the scheduler finds them queued."""
        for f in gone:
            self._remove(f)
        procs: dict[Fact, None] = {}
        for f in touched:
            if f not in self.facts:
                self._add(f)
            if f.pred == "proc":
                procs[f] = None
            elif self.facts[f] is not None:
                procs.update(self.listeners.get(self.facts[f].carrier, {}))
        return self.steps(procs)


# -- typed runs --------------------------------------------------------------------


def _birth_type(types: dict, step, conts: Optional[dict] = None) -> ast.SessionType:
    """Type of the channel a step created, read off the consumed fact: a
    cut's annotation, or the last continuation type of a send's carrier.

    conts is a run's memo of continuation types, keyed by (kind, id of
    the carrier's type, label); each entry holds that type, so its id is
    not reused while the memo lives.  A session type is never hashed by
    value: a frozen dataclass hashes recursively, and a deep type would
    raise RecursionError.  A recursive type is then unfolded once per
    run, not once per send."""
    t = next(f for f in step.inst.rule.eph_ant if f.pred == "proc").args[1]
    if t.fn == "cut":
        if t.args[1].payload is None:
            raise PreservationViolation("cut without a type annotation")
        return t.args[1].payload
    kind, sends, at, pay = _COMM[t.fn]
    chan = t.args[at].name
    if chan not in types:
        raise PreservationViolation(f"no recorded type for {chan}")
    if sends:
        a = types[chan]
        # a label is the one payload a continuation's type depends on
        label = t.args[pay].name if kind == "label" else None
        key = (kind, id(a), label)
        if conts is None:
            conts = {}
        entry = conts.get(key)
        if entry is None:
            try:
                entry = conts[key] = (a, ast.message_cont(kind, a, label))
            except SillTypeError as ex:
                raise PreservationViolation(f"channel {chan}: {ex}") from ex
        if entry[1]:
            return entry[1][-1]
    raise PreservationViolation(f"rule {step.inst.rule.name} created an "
                                f"unexpected fresh channel")


def _violation(idx: int, ex: SillError) -> PreservationViolation:
    """A typing failure reported as a preservation violation at step idx."""
    return PreservationViolation(f"step {idx}: {ex}", idx)


def run(
    system: SillSystem,
    state: Multiset,
    interface: ast.Interface,
    fuel: int = 1000,
    seed: Optional[int] = None,
    check: bool = False,
    observer: Optional[Callable[[Trace], None]] = None,
) -> Trace:
    """Fair execution of a process state.

    interface claims the types of the initial channels.  Channels created
    along the way are typed as they are born, once each, with a part of a
    recorded type or a cut's annotation; the complete map ends up in
    meta["channel_types"].  With check=True the run checks type
    preservation: the initial state must type against the interface, and
    after each step the consumed facts leave a ``ConfigTyping`` of the
    state and the produced ones join it, so a checked step re-types only
    the facts and channels it touched, and a step that changed nothing
    re-types nothing.  The first failure raises
    PreservationViolation with its step index (0 for the initial state).
    """
    typing: Optional[ConfigTyping] = None
    if check:
        try:
            typing = ConfigTyping(interface)
            for f, n in state.eph_items():
                typing.add(f, config_fact(f), n)
            typing.check()
        except SillError as ex:
            raise _violation(0, ex) from ex
        types = typing.types
    else:
        types = dict(interface.all_types())
    conts: dict = {}

    def watch(tr: Trace) -> None:
        step = tr.steps[-1]
        try:
            if step.xi:
                name = step.xi_map()[_EVAR]
                if name in types:
                    raise PreservationViolation(f"fresh channel {name} is already typed")
                types[name] = _birth_type(types, step, conts)
            if typing is not None and step.changed:
                now = tr.live
                for f, n in step.inst.eph_ant_g().eph_items():
                    typing.remove(f, n)
                for f in step.produced:
                    n = now.count(f) - typing.count(f)
                    if n > 0:
                        typing.add(f, config_fact(f), n)
                typing.check()
        except SillError as ex:
            raise _violation(len(tr.steps), ex) from ex
        if observer is not None:
            observer(tr)

    tr = fair_execute(system, state, budget=fuel, seed=seed, observer=watch)
    tr.meta["channel_types"] = types
    tr.meta["interface"] = interface
    return tr


def run_config(
    decl: ast.ConfigDecl,
    fuel: int = 1000,
    seed: Optional[int] = None,
    check: bool = False,
    eval_fuel: int = DEFAULT_EVAL_FUEL,
) -> Trace:
    """Check and run a hole-free configuration declaration."""
    if decl.hole is not None:
        raise SillError(f"configuration {decl.name} has a hole; plug it first")
    check_config(list(decl.facts), decl.interface)
    system = SillSystem(eval_fuel=eval_fuel)
    return run(system, config_state(decl.facts), decl.interface,
               fuel=fuel, seed=seed, check=check)
