"""Process configurations as multiset rewriting.

A running configuration is a multiset of ``proc`` and ``msg`` facts.  A
process is code plus an environment, explicit substitution (Abadi,
Cardelli, Curien and Lévy, JFP 1991) in an environment machine (Landin,
1964): ``proc(c, code, env)``, where the code names no channel and the
environment fills its slots (``enc_proc``).  A message is the two levels
of its term, a send whose carrier and payload are leaves and the forward
that ends it (``msg_info``).  Each enabled step is a ground rule generated
from the facts that enable it, so the fair scheduler and the trace
machinery apply unchanged.

A step reads a code and builds environments, one rule for every send and
one for every receive, read off the message-kind tables of ``ast``.  Its
continuation is the code of a subprocess, shared, under an environment
built in O(free names): a cut or a send puts its fresh channel in a slot,
a receive what it received, an unquote the channels it passes.  No step
walks a body, and an unchecked run decodes no process.  After a step a
fair run asks only for the steps that can consume a fact the step
touched.  A step that creates a channel holds its consequent as a
template over the channel's term, which ``fire`` fills in once.

Sending is asynchronous: a sender turns into a message plus a
continuation on a fresh channel, and a receiver consumes the message and
continues on its continuation channel.  A checked run types the initial
state once, then after each step only the facts the step produced, and
re-checks the channels of the facts it touched, read off their
environments.  It types a fact by its code: whether a process types is
decided by its code and the types in its slots, so a fact whose code
typed before under the same slot types is neither decoded nor checked
again (``_RunTyping``).
"""

from __future__ import annotations

from bisect import insort
from itertools import chain, repeat
from typing import Callable, Iterable, Iterator, Mapping, Optional, Union

from .fairness import fair_execute
from .lang import ast
from .lang.ast import (BRANCHES, CHAN, CHAN_BINDER, CHANS, CHILD, FUNC_BINDER, LABEL, TERM,
                       fold)
from .lang.check import ConfigTyping, check_config
from .lang.errors import SillError, SillTypeError
from .msr.multiset import Fact, Multiset, fact_key
from .msr.rules import KEY_VARS, Inst, Rule, Signature, _equiv_key
from .msr.terms import App, Const, Term, Wrap
from .msr.trace import Trace

DEFAULT_EVAL_FUEL = 10_000

# the one existential of a step, the fresh channel it creates: named after
# the first placeholder of the equivalence key, so the identity variant in
# the key of the validated rule of a step's fields is that rule's own
# consequent
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

# The tag of each construct's code.  Its arguments are the construct's fields
# in the order of ast.PROC_ROLES, with the branches of a case and the channels
# an unquote passes spread at the end.
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


def _enc(q: ast.Process, kids: Iterator[tuple], _) -> tuple[App, tuple]:
    # q's code and free names by slot: channels, variables as 1-tuples
    slots: dict = {}
    args: list[Term] = []
    binder = None

    def slot(name) -> int:
        return slots.setdefault(name, len(slots))

    def closure(kid: tuple) -> App:
        code, free = kid
        return App("@", (code, Wrap(tuple([-1 if n == binder else slot(n) for n in free]))))

    for f, role in ast.PROC_ROLES[type(q)].items():
        v = getattr(q, f)
        if role is CHAN or role is CHANS:
            args.extend([Wrap(slot(c)) for c in (v if role is CHANS else (v,))])
        elif role is CHILD:
            args.append(closure(next(kids)))
        elif role is BRANCHES:
            args.extend([App("branch", (Const(l), closure(next(kids)))) for l, _ in v])
        elif role is TERM and (fv := ast.free_fvars(v)):
            args.append(App("open", (Wrap(v), Wrap(tuple([(x, slot((x,))) for x in sorted(fv)])))))
        else:  # labels are constants; binders, closed payloads, annotations wrapped
            binder = v if role is CHAN_BINDER else (v,) if role is FUNC_BINDER else binder
            args.append(Const(v) if role is LABEL else Wrap(v))
    return App(_TAGS[type(q)], tuple(args)), tuple(slots)


def enc_proc(p: ast.Process) -> tuple[App, App]:
    """A process's code and environment.  The code is a term, one
    application per construct, that names no channel: a free channel or
    functional variable is a slot, numbered by first occurrence; a
    subprocess is ``@(its code, the parent's slots that fill its slots)``,
    -1 for what the parent binds; an open payload is ``open(payload, its
    variables' slots)``; labels are constants, as in messages, and binders
    and the rest are wrapped.  Processes that differ only in free names
    share one code.  The environment ``env(...)`` fills the slots with
    channel constants and values (a free variable stands for itself)."""
    code, free = fold(p, ast.subprocs, _enc)
    return code, App("env", tuple([Const(n) if type(n) is str else Wrap(ast.FVar(n[0]))
                                   for n in free]))


def _dec_fields(node: list, apart: Callable) -> list:
    """Make node, a code and what fills its slots (a channel's name, a
    value, or None for a bound variable), the construct, where its spread
    fields start (or None), its fields with a hole per subprocess and the
    holes as (index, branch label or None); return the subprocesses."""
    t, names = node
    cls, roles = _DECODE[t.fn]
    n, spread = len(roles), roles[-1] is BRANCHES or roles[-1] is CHANS
    if len(t.args) < n - spread or (len(t.args) > n and not spread):
        raise ValueError(f"wrong number of arguments: {t!r}")
    fields, holes, kids, binder = [], [], [], None
    for role, a in zip(chain(roles, repeat(roles[-1])), t.args):
        if role is CHILD or role is BRANCHES:
            label = a.args[0].name if role is BRANCHES else None
            code, m = (a.args[1] if role is BRANCHES else a).args
            holes.append((len(fields), label))
            kids.append([code, m.payload])
        elif role is CHAN or role is CHANS:
            a = names[a.payload]
            if type(a) is not str:
                raise ValueError(f"a channel's slot holds {a!r}")
        elif role is TERM and type(a) is App:  # an open payload
            m = a.args[0].payload
            for x, i in a.args[1].payload:
                m = m if names[i] is None else ast.subst_fvar(m, x, names[i])
            a = m
        else:
            a = a.name if role is LABEL else a.payload
            binder = len(fields) if role is CHAN_BINDER else binder
        fields.append(a)
    # slot -1 of a subprocess is what its parent binds: a channel binder
    # that would capture a name the subprocesses use is renamed apart
    b = None
    if binder is not None:
        b = fields[binder] = apart(fields[binder], [k[1] for k in kids], names)
    for kid in kids:
        kid[1] = [b if i == -1 else names[i] for i in kid[1]]
    node[:] = cls, n - 1 if spread else None, fields, holes
    return kids


def _apart(b: str, maps: Iterable[tuple], names: list) -> str:
    """A channel binder b, or where a subprocess it scopes over, whose
    slots maps give, uses b free, which b would capture, b renamed apart:
    to the least ``stem%k`` that names holds not.  '%' is a reserved fresh
    mark, so the name is no source identifier, and the least index keeps
    renaming deterministic."""
    if not captures(b, maps, names):
        return b
    stem, k = b.split("%")[0] or "x", 0
    while f"{stem}%{k}" in names:
        k += 1
    return f"{stem}%{k}"


def captures(b: str, maps: Iterable[tuple], names: list) -> bool:
    """Whether the binder b would capture a name that names fills a slot
    of its subprocesses with (maps, -1 for what b binds)."""
    return any(i != -1 and names[i] == b for m in maps for i in m)


def _dec(node: list, kids: Iterator[ast.Process], _) -> ast.Process:
    cls, spread, fields, holes = node
    for i, label in holes:
        fields[i] = next(kids) if label is None else (label, next(kids))
    if spread is None:
        return cls(*fields)
    return cls(*fields[:spread], tuple(fields[spread:]))


def dec_proc(code: Term, env: Term, apart: Callable = _apart) -> ast.Process:
    """The process of a code and environment (``enc_proc``), decoded in one
    walk that fills each slot; ValueError if they encode none.  Each
    channel binder is named apart(binder, its subprocesses' slot maps,
    the names in the slots)."""
    try:
        names = [a.name if type(a) is Const else a.payload for a in env.args]
        if env.fn != "env":
            raise ValueError(f"not an environment: {env!r}")
        return fold([code, names], _dec_fields, _dec, apart)
    except (AttributeError, IndexError, KeyError, TypeError) as ex:
        raise ValueError(f"not a process code and environment: {code!r}, {env!r}") from ex


def _msg_term(p: ast.Process) -> App:
    """The two-level term of a message: a send whose channels and label are
    constants, ending in a forward."""
    args = []
    for f, role in ast.PROC_ROLES[type(p)].items():
        v = getattr(p, f)
        args.append(_msg_term(v) if role is CHILD else Wrap(v) if role is TERM else Const(v))
    return App(_TAGS[type(p)], tuple(args))


def proc_fact(chan: str, p: ast.Process) -> Fact:
    return Fact("proc", (Const(chan), *enc_proc(p)))


def msg_fact(chan: str, p: ast.Process) -> Fact:
    """A message in its two-level form (see ``msg_info``); ValueError for a
    process that is no message on chan."""
    if ast.message_parts(chan, p) is None:
        raise ValueError(f"msg {chan} {{{p}}} holds no message")
    return Fact("msg", (Const(chan), _msg_term(p)))


def classify_fact(f: Fact) -> tuple:
    """(pred, channel, process, message info or None) for a process fact,
    decoded in full (``dec_proc``, or a message rebuilt from its info) once
    and kept on the fact while it lives.  ``msg_info`` keeps the info alone
    there, with the process still None."""
    memo = f.memo
    if memo is not None and memo[2] is not None:
        return memo
    if f.pred == "proc" and len(f.args) == 3:
        return f.remember(("proc", f.args[0].name, dec_proc(*f.args[1:]), None))
    info = msg_info(f)
    p = ast.make_message(info.kind, info.polarity, info.carrier, info.cont, info.payload)[1]
    return f.remember(("msg", f.args[0].name, p, info))


def msg_info(f: Fact) -> ast.MsgInfo:
    """The message info of a msg fact (``ast.message_parts`` of its channel
    and process), read off its term and kept on the fact; ValueError for
    any other fact."""
    memo = f.memo
    if memo is not None:
        return memo[3]
    info = _read_msg(f)
    if info is None:
        raise ValueError(f"not a message fact: {f!r}")
    return f.remember(("msg", f.args[0].name, None, info))[3]


def _read_msg(f: Fact) -> Optional[ast.MsgInfo]:
    """The message info of a msg fact of message shape, or None for any
    other fact.  A message term is two levels deep: the send, whose
    carrier and payload are leaves, and the forward that ends it."""
    if f.pred != "msg" or len(f.args) != 2 or type(f.args[1]) is not App:
        return None
    key, t = f.args
    shape = _MSG_SHAPES.get(t.fn)
    if shape is None or len(t.args) != shape[0] or type(t.args[0]) is not Const:
        return None
    _, kind, pay, pos, neg = shape
    a, c = t.args[0], t.args[-1]
    if kind == "close":
        return ast.MsgInfo(ast.POSITIVE, kind, a.name, None) if key is a else None
    if type(c) is not App or len(c.args) != 2 or not all(type(x) is Const for x in c.args):
        return None
    src, dst = c.args
    if c.fn == pos and dst is a and key is a:
        pol, cont = ast.POSITIVE, src.name
    elif c.fn == neg and src is a and key is dst:
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


def fact_channels(f: Fact) -> set[str]:
    """The channels a process fact names: its own and those free in its
    process, read off its environment or its message info."""
    if f.pred == "proc":
        return {f.args[0].name, *[a.name for a in f.args[2].args if type(a) is Const]}
    info = msg_info(f)
    return {info.carrier, info.cont, info.payload if info.kind == "chan" else None} - {None}


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
    # a consequent that is a function of the consumed facts, or a template
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
    step silently unavailable.  A step reads the code of the fact it
    consumes and builds only environments.

    Three memos of values last for the system's lifetime, so build one
    per run or per verdict: ``_memo`` holds each evaluated term's value and
    ``_quoted`` each unquoted term's quote with its body's code and
    environment, both keyed by the interned ``Wrap``, which hashes by
    address; ``observations`` holds each observation
    ``obs.observe_config`` made on the system, with the interface it was
    made under, keyed by (state, observed channels, fuel, depth, seed).
    The state is a ``Multiset`` of interned facts, which hashes by their
    addresses, and no session type is hashed: a recursive type keeps its
    one unfolding on its node (``ast.unfold_rec``), so no run memoises
    continuation types.  No step is kept: a run derives the steps it asks
    for.
    """

    rules: tuple = ()
    source: Optional[str] = None
    declared: frozenset[str] = frozenset()

    def __init__(self, eval_fuel: int = DEFAULT_EVAL_FUEL):
        self.eval_fuel = eval_fuel
        self._memo: dict[Wrap, object] = {}
        self._quoted: dict[Wrap, Optional[tuple[ast.Quote, App, App]]] = {}
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

    def quoted(self, w: Wrap) -> Optional[tuple[ast.Quote, App, App]]:
        """The quote that w evaluates to and its body's code and
        environment, or None when w evaluates to no quote."""
        try:
            return self._quoted[w]
        except KeyError:
            v = self.value(w)
            q = self._quoted[w] = (v, *enc_proc(v.body)) if isinstance(v, ast.Quote) else None
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
        key, code, env = fact.args
        tag, args, e = code.fn, code.args, env.args
        if tag == "fwd+" or tag == "fwd-":
            # a forward passes on each message of its polarity: a positive
            # one from src to dst, rekeyed there, a negative one from dst to
            # src, still keyed by its continuation
            at = _LISTENS[tag]
            pol, frm, to = (ast.POSITIVE if at == 0 else ast.NEGATIVE,
                            e[args[at].payload], e[args[1 - at].payload])
            return [_ground(tag, [fact, mf], [Fact("msg", (
                to if at == 0 else mf.args[0], _rekey(mf.args[1], {frm: to})))])
                for mf, info in msgs.get(frm.name, ()) if info.polarity == pol]
        if tag == "cut":
            # the fresh channel, named after the binder, fills its slot
            (lc, lm), (rc, rm) = args[2].args, args[3].args
            names = [a.name if type(a) is Const else a for a in e]
            hint = _apart(args[0].payload, (lm.payload, rm.payload), names)
            return [_ground("cut", [fact], lambda nc: (Fact("proc", (nc, lc, _env(lm, e, nc))),
                                                       Fact("proc", (key, rc, _env(rm, e, nc)))),
                            (_EVAR,), ((_EVAR, (hint, "prime")),))]
        if tag == "unquote":
            q, used = self.quoted(_closed(args[1], e)), [e[a.payload] for a in args[2:]]
            if q is None or len(q[0].used) != len(used):
                return []
            v, body, formals = q
            rho = dict(zip((Const(v.offered[0]), *(Const(n) for n, _ in v.used)), (key, *used)))
            return [_ground("unquote", [fact], [Fact("proc", (key, body, App("env", tuple(
                [rho.get(a, a) for a in formals.args]))))])]
        kind, sends, at, pay = _COMM[tag]
        s = args[at].payload
        a = e[s]
        provider = a is key
        # the provider sends at the positive connective and receives at the
        # negative one, a client the other way round
        stem = _CONNECTIVES[kind][provider != sends]
        if stem is None:
            return []
        name = stem + ("_r" if provider else "_l")
        if sends and kind == "close":
            return [_ground(name, [fact], [Fact("msg", (key, App("close", (a,))))])]
        if sends:
            # the message ends in a forward to the fresh channel, named
            # after the carrier, on which the continuation runs
            fwd = _TAGS[ast._forwards(kind)[not provider]]
            head = (a,)
            if kind == "val":
                v = self.value(_closed(args[pay], e))
                if v is DIVERGED:
                    return []
                head += (Wrap(v),)
            elif pay is not None:
                head += (args[pay] if kind == "label" else e[args[pay].payload],)
            cc, cm = args[-1].args

            def con(nc: Term) -> tuple[Fact, ...]:
                msg = ((a, App(tag, (*head, App(fwd, (nc, a))))) if provider
                       else (nc, App(tag, (*head, App(fwd, (a, nc))))))
                return Fact("msg", msg), Fact("proc", (nc if provider else key, cc,
                                                       _env(cm, e, None, s, nc)))
            return [_ground(name, [fact], con, (_EVAR,), ((_EVAR, (a.name, "prime")),))]
        # a receive continues on the message's continuation channel
        want = ast.NEGATIVE if provider else ast.POSITIVE
        branches = {b.args[0].name: b.args[1] for b in args[1:]} if kind == "label" else {}
        rs = []
        for mf, info in msgs.get(a.name, ()):
            if info.kind != kind or info.polarity != want:
                continue
            clo = branches.get(info.payload) if kind == "label" else args[-1]
            if clo is None:
                continue
            # a channel or a value received is the message's payload term
            got = mf.args[1].args[1] if kind == "chan" or kind == "val" else None
            cont = a if info.cont is None else Const(info.cont)
            cc, cm = clo.args
            rs.append(_ground(name, [fact, mf], [Fact("proc", (
                cont if provider else key, cc, _env(cm, e, got, s, cont)))]))
        return rs


def _env(m: Wrap, e: tuple, bound: Optional[Term], at: int = -2,
         new: Optional[Term] = None) -> App:
    """The environment of a subprocess whose slots m maps to its parent's
    slots e: -1 takes bound, what the parent binds, and slot at takes new."""
    return App("env", tuple([bound if i == -1 else new if i == at else e[i] for i in m.payload]))


def _closed(t: Term, e: tuple) -> Wrap:
    """A payload of a code, with the values of its free variables put in."""
    if type(t) is Wrap:
        return t
    m = t.args[0].payload
    for x, i in t.args[1].payload:
        m = ast.subst_fvar(m, x, e[i].payload)
    return Wrap(m)


def _rekey(t: App, rho: Mapping[Const, Const]) -> App:
    """A message term with its channels renamed by rho; a label is no channel."""
    return App(t.fn, tuple([
        App(b.fn, tuple([rho.get(c, c) for c in b.args])) if type(b) is App else
        b if i == 1 and t.fn == "send_label" else rho.get(b, b) for i, b in enumerate(t.args)]))


def rename_channels(f: Fact, rho: Mapping[Const, Const]) -> Fact:
    """A proc or msg fact with its channels renamed by rho: a proc fact's
    key and environment, as a code names no channel, or a message's key
    and term."""
    key = rho.get(f.args[0], f.args[0])
    if f.pred == "proc":
        _, code, env = f.args
        return Fact("proc", (key, code, App("env", tuple([rho.get(a, a) for a in env.args]))))
    return Fact("msg", (key, _rekey(f.args[1], rho)))


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


def _listens_on(f: Fact) -> Optional[str]:
    """The carrier whose messages the proc fact's steps consume, if any."""
    code = f.args[1]
    at = _LISTENS.get(code.fn)
    return None if at is None else f.args[2].args[code.args[at].payload].name


class _StepIndex:
    """The facts of a run's current state arranged for step generation.

    Messages are bucketed by carrier, with the info ``msg_info`` reads off
    their terms, and proc facts by the carrier their code listens on;
    no fact is decoded.  A proc fact's steps depend only on the fact and
    the bucket of that carrier, so after a step only the touched proc facts
    and the listeners on the carriers of touched messages need their steps,
    each derived when asked for (``SillSystem._steps``).  Order keys
    (``fact_key``) are built only to order two or more facts: the proc
    facts of one ``steps`` call, or a message joining a carrier's non-empty
    bucket.
    """

    def __init__(self, system: SillSystem, state: Multiset):
        self.system = system
        # indexed fact -> the carrier a proc fact listens on, or a message's
        # info, so removal reads nothing again
        self.facts: dict[Fact, object] = {}
        self.procs: dict[Fact, None] = {}
        self.msgs: dict[str, list] = {}
        self.listeners: dict[str, dict[Fact, None]] = {}
        for f in state.eph_support():
            self._add(f)

    def _add(self, f: Fact) -> None:
        if f.pred == "proc":
            self.procs[f] = None
            carrier = self.facts[f] = _listens_on(f)
            if carrier is not None:
                self.listeners.setdefault(carrier, {})[f] = None
            return
        info = self.facts[f] = msg_info(f)
        # buckets keep the fact-key order the step enumeration relies on; a
        # fact joining an empty one is compared with nothing
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
        else:
            bucket = self.msgs[entry.carrier]
            bucket.pop(next(i for i, t in enumerate(bucket) if t[0] is f))
            if not bucket:
                del self.msgs[entry.carrier]

    def steps(self, procs: Iterable[Fact]) -> list[tuple[tuple, Inst]]:
        """The steps of the given proc facts with their equivalence keys,
        in enumeration order."""
        procs = list(procs)
        if len(procs) > 1:
            procs.sort(key=fact_key)
        return [(_equiv_key(i), i) for f in procs for i in self.system._steps(f, self.msgs)]

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
            else:
                procs.update(self.listeners.get(self.facts[f].carrier, {}))
        return self.steps(procs)


# -- typed runs --------------------------------------------------------------------


def _birth_type(types: dict, step) -> ast.SessionType:
    """Type of the channel a step created, read off the consumed fact: a
    cut's annotation, or the last continuation type of a send's carrier
    (``ast.message_cont``; a recursive type keeps its one unfolding)."""
    _, t, env = next(f for f in step.inst.rule.eph_ant if f.pred == "proc").args
    if t.fn == "cut":
        if t.args[1].payload is None:
            raise PreservationViolation("cut without a type annotation")
        return t.args[1].payload
    kind, sends, at, pay = _COMM[t.fn]
    chan = env.args[t.args[at].payload].name
    if chan not in types:
        raise PreservationViolation(f"no recorded type for {chan}")
    if sends:
        a = types[chan]
        # a label is the one payload a continuation's type depends on
        label = t.args[pay].name if kind == "label" else None
        try:
            conts = ast.message_cont(kind, a, label)
        except SillTypeError as ex:
            raise PreservationViolation(f"channel {chan}: {ex}") from ex
        if conts:
            return conts[-1]
    raise PreservationViolation(f"rule {step.inst.rule.name} created an "
                                f"unexpected fresh channel")


class _RunTyping(ConfigTyping):
    """The typing of a checked run's state, whose facts are typed by code.

    Whether a proc fact types is decided by its key: its code, its
    channel's type and, per slot, whether the slot holds that channel and
    at which type, or the value it holds.  Two facts with one key decode
    to one process up to an injective renaming of free channels that no
    binder meets, and typing respects such a renaming.  So a fact has a
    key only when its channels are distinct and typed, and none is a
    binder name of a code the run has read: a code never captures its own
    names, so decoding then renames no binder apart (``_apart``).  A
    message's key is its kind, polarity, label or value, which of its
    channels coincide, and their types.

    A fact whose key passed a check, or waits on the coming one behind a
    fact typed in full, is added without being decoded; any other is
    decoded and typed in full (``_type_fact``), so a fault keeps its
    message.  Types enter keys by number: each type object is numbered
    once, from its construct, its printed text and its parts' numbers,
    so equal numbers mean ``type_eq`` types, no type is hashed, and the
    numbered objects are held, so no id is reused.
    """

    def __init__(self, interface: ast.Interface):
        super().__init__(interface)
        self.passed: set[tuple] = set()
        self._pending: set[tuple] = set()
        self._numbers: dict[int, int] = {}
        self._shapes: dict[tuple, int] = {}
        self._held: list = []
        self._codes: set[App] = set()
        self._bound: set[str] = set()
        self.by_code = self.in_full = 0

    def put(self, f: Fact, n: int) -> None:
        """Add n occurrences of the proc or msg fact f."""
        fact = None
        if not self.count(f):  # else it typed when it came
            key = self._key(f)
            if key is not None and (key in self.passed or key in self._pending):
                self.by_code += 1
            else:
                self.in_full += 1
                fact = config_fact(f)
                if key is not None:
                    self._pending.add(key)
        self.add(f, f.args[0].name, fact_channels(f), n, fact)

    def check(self) -> None:
        super().check()
        self.passed |= self._pending
        self._pending.clear()

    def _key(self, f: Fact) -> Optional[tuple]:
        types, number, c = self.types, self._number, f.args[0]
        if c.name not in types:
            return None
        if f.pred == "msg":
            info = msg_info(f)
            names = (c.name, info.carrier, info.cont, info.payload if info.kind == "chan" else None)
            if any(n is not None and n not in types for n in names):
                return None
            return ("msg", info.kind, info.polarity,
                    f.args[1].args[1] if info.kind == "label" or info.kind == "val" else None,
                    *[None if n is None else (names.index(n), number(types[n])) for n in names])
        _, code, env = f.args
        if not self._read(code) or c.name in self._bound:
            return None
        out, seen = [code, number(types[c.name])], set()
        for a in env.args:
            if type(a) is not Const:
                out.append(a)  # a value, interned
                continue
            t = types.get(a.name)
            if t is None or a in seen or a.name in self._bound:
                return None
            seen.add(a)
            out.append(None if a is c else number(t))
        return tuple(out)

    def _read(self, code: App) -> bool:
        """Add the channel binders of code and the codes in it to the
        run's, each code read once; False for a term that is no code."""
        if code in self._codes:
            return True
        todo = [code]
        try:
            while todo:
                t = todo.pop()
                if t in self._codes:
                    continue
                roles = _DECODE[t.fn][1]
                for role, a in zip(chain(roles, repeat(roles[-1])), t.args):
                    if role is CHAN_BINDER:
                        self._bound.add(a.payload)
                    elif role is CHILD or role is BRANCHES:
                        todo.append((a.args[1] if role is BRANCHES else a).args[0])
                self._codes.add(t)
        except (AttributeError, IndexError, KeyError, TypeError):
            return False
        return True

    def _number(self, a) -> int:
        """The number of the type a, its parts numbered first."""
        numbers = self._numbers
        n = numbers.get(id(a))
        if n is not None:
            return n
        todo = [a]
        while todo:
            x = todo[-1]
            if id(x) in numbers:
                todo.pop()
                continue
            text = ast._TEXT[type(x)](x)
            waiting = [y for y in text if type(y) is not str and id(y) not in numbers]
            if waiting:
                todo.extend(waiting)
                continue
            todo.pop()
            shape = (type(x), *[y if type(y) is str else numbers[id(y)] for y in text])
            numbers[id(x)] = self._shapes.setdefault(shape, len(self._shapes))
            self._held.append(x)
        return numbers[id(a)]


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
    state and the produced ones join it, so a checked step re-checks only
    the facts and channels it touched, and a step that changed nothing
    re-checks nothing.  A fact joins by its key, its code with the types
    in its slots (``_RunTyping``): one whose key passed an earlier check
    is not decoded, any other is decoded and typed in full.  Typing
    preserves itself rule by rule, so most produced facts take the
    lookup; meta["sched"] counts ``typed_by_code`` and
    ``typed_in_full``.  The first failure raises PreservationViolation
    with its step index (0 for the initial state).
    """
    typing: Optional[_RunTyping] = None
    if check:
        try:
            typing = _RunTyping(interface)
            for f, n in state.eph_items():
                typing.put(f, n)
            typing.check()
        except SillError as ex:
            raise _violation(0, ex) from ex
        types = typing.types
    else:
        types = dict(interface.all_types())

    def watch(tr: Trace) -> None:
        step = tr.steps[-1]
        try:
            if step.xi:
                name = step.xi_map()[_EVAR]
                if name in types:
                    raise PreservationViolation(f"fresh channel {name} is already typed")
                types[name] = _birth_type(types, step)
            if typing is not None and step.changed:
                now = tr.live
                for f, n in step.inst.eph_ant_g().eph_items():
                    typing.remove(f, n)
                for f in step.produced:
                    n = now.count(f) - typing.count(f)
                    if n > 0:
                        typing.put(f, n)
                typing.check()
        except SillError as ex:
            raise _violation(len(tr.steps), ex) from ex
        if observer is not None:
            observer(tr)

    tr = fair_execute(system, state, budget=fuel, seed=seed, observer=watch)
    if typing is not None:
        tr.meta["sched"].update(typed_by_code=typing.by_code, typed_in_full=typing.in_full)
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
