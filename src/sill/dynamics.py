"""Process configurations as multiset rewriting.

A running configuration is a multiset of ``proc`` and ``msg`` facts whose
second argument encodes a process as a first-order term.  Rewrite rules are
not fixed up front: each enabled step is a ground rule generated from the
facts that enable it, so the fair scheduler and the trace machinery apply
unchanged.  A full enumeration decodes every fact of a state; a fair run
does that once, then decodes each fact as it appears and, after a step,
asks only for the steps that can consume a fact the step touched.  Most
processes (senders, cuts, closes, unquotes) have steps that depend on their
own fact alone; a run derives and keys those once per fact and reuses them
while the fact stays, so a process that steps to a copy of itself costs one
derivation for the whole run.  Only the steps of processes that wait for a
message are derived again, since the messages they can take change.

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
from typing import Callable, Iterable, Mapping, Optional, Union

from .fairness import fair_execute
from .lang import ast
from .lang.ast import BRANCHES, CHAN, CHAN_BINDER, CHANS, CHILD, OPAQUE, TERM
from .lang.check import ConfigTyping, check_config
from .lang.errors import SillError, SillTypeError
from .msr.multiset import Fact, Multiset, fact_key
from .msr.rules import Inst, Rule, Signature, _equiv_key
from .msr.terms import App, Const, Term, Var, Wrap
from .msr.trace import Trace

DEFAULT_EVAL_FUEL = 10_000

# the fresh continuation channel of a message built by make_message; '%'
# keeps it apart from source identifiers and generated runtime names
_FRESH = "%fresh"
_EVAR = "nc"


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


def enc_proc(p: ast.Process, env: Optional[Mapping[str, Term]] = None) -> Term:
    """Encode a process as a term.

    Channel names go through env (defaulting to constants of the same
    name), so rule consequents can place existential variables at fresh
    positions.  Binders shadow env.  Functional payloads and cut
    annotations are wrapped opaquely: they never contain free channels.
    """
    return _enc(p, dict(env) if env else {})


def _enc(p: ast.Process, e: dict) -> Term:
    inner = e
    args = []
    for f, role in ast.PROC_ROLES[type(p)].items():
        v = getattr(p, f)
        if role is CHAN:
            args.append(e.get(v) or Const(v))
        elif role is CHILD:
            args.append(_enc(v, inner))
        elif role is BRANCHES:
            args.extend(App("branch", (Const(l), _enc(q, inner))) for l, q in v)
        elif role is CHANS:
            args.extend(e.get(c) or Const(c) for c in v)
        elif role is TERM or role is OPAQUE:
            args.append(Wrap(v))
        else:  # binders and labels
            if role is CHAN_BINDER and v in e:
                inner = {k: t for k, t in e.items() if k != v}
            args.append(Const(v))
    return App(_TAGS[type(p)], tuple(args))


def _name(t: Term) -> str:
    if not isinstance(t, Const):
        raise ValueError(f"expected a channel constant, got {t!r}")
    return t.name


def dec_proc(t: Term) -> ast.Process:
    """Decode a term produced by enc_proc back to a process."""
    if not isinstance(t, App) or t.fn not in _DECODE:
        raise ValueError(f"not a process encoding: {t!r}")
    cls, roles = _DECODE[t.fn]
    a = t.args
    spread = roles[-1] is BRANCHES or roles[-1] is CHANS
    if len(a) < len(roles) - spread or (len(a) > len(roles) and not spread):
        raise ValueError(f"wrong number of arguments: {t!r}")
    out = []
    for i, role in enumerate(roles):
        if role is CHILD:
            out.append(dec_proc(a[i]))
        elif role is BRANCHES:
            bs = []
            for b in a[i:]:
                if not (isinstance(b, App) and b.fn == "branch" and len(b.args) == 2):
                    raise ValueError(f"bad branch encoding: {b!r}")
                bs.append((_name(b.args[0]), dec_proc(b.args[1])))
            out.append(tuple(bs))
        elif role is CHANS:
            out.append(tuple(_name(c) for c in a[i:]))
        elif role is TERM or role is OPAQUE:
            if not isinstance(a[i], Wrap):
                raise ValueError(f"expected a wrapped payload, got {a[i]!r}")
            out.append(a[i].payload)
        else:
            out.append(_name(a[i]))
    return cls(*out)


def proc_fact(chan: str, p: ast.Process) -> Fact:
    return Fact("proc", (Const(chan), enc_proc(p)))


def msg_fact(chan: str, p: ast.Process) -> Fact:
    return Fact("msg", (Const(chan), enc_proc(p)))


def dec_fact(f: Fact) -> tuple[str, ast.Process]:
    """Decode a proc or msg fact to (channel, process)."""
    _, chan, p, _ = f.memo or _decode(f)
    return chan, p


def classify_fact(f: Fact) -> tuple:
    """(pred, channel, process, message info or None) for a process fact."""
    return f.memo or _decode(f)


def _decode(f: Fact) -> tuple:
    # states mostly persist between steps, so a fact is decoded once and
    # the decoding kept on the fact, for as long as the fact lives
    if f.pred not in ("proc", "msg") or len(f.args) != 2:
        raise ValueError(f"not a process fact: {f!r}")
    chan, p = _name(f.args[0]), dec_proc(f.args[1])
    info = ast.message_parts(chan, p) if f.pred == "msg" else None
    return f.remember((f.pred, chan, p, info))


def config_state(facts: Iterable[Union[ast.ProcF, ast.MsgF]]) -> Multiset:
    """Encode checked configuration facts as a rewriting state."""
    return Multiset.of([(msg_fact if isinstance(f, ast.MsgF) else proc_fact)(f.chan, f.proc)
                        for f in facts])


def config_fact(f: Fact) -> Union[ast.ProcF, ast.MsgF]:
    """Decode a proc or msg fact to a configuration fact."""
    _, chan, p, _ = f.memo or _decode(f)
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


def _ground(name: str, consumed: list, produced: list,
            evars: tuple = (), hints: tuple = ()) -> Inst:
    rule = Rule(name, (), (), tuple(consumed), evars, (), tuple(produced),
                fresh_hints=hints)
    return Inst.make(rule, {})


class SillSystem:
    """Rule interface over process states.

    Quacks like a rule system for the scheduler and the trace machinery,
    but its rules are ground and generated on demand, one per enabled step,
    deduplicated and deterministically ordered.  ``applicable`` decodes a
    whole state; the enabled set of a fair run (``enabled``, a
    ``_StepIndex``) keeps the decoded facts indexed and after each step
    hands out, with their equivalence keys, the steps of the proc facts the
    step touched and of the proc facts listening on the carriers of touched
    messages.  It derives a listener's steps afresh each time and every
    other proc fact's steps once while the fact stays in the state.
    Functional side conditions are evaluated with a fixed fuel and memoised
    per system; a divergent side condition makes the step silently
    unavailable.
    """

    rules: tuple = ()
    source: Optional[str] = None

    def __init__(self, declared: Iterable[str] = (),
                 eval_fuel: int = DEFAULT_EVAL_FUEL):
        self.declared = frozenset(declared)
        self.eval_fuel = eval_fuel
        self._memo: dict = {}

    def signature(self) -> Signature:
        return Signature(self.declared, 0)

    def eval(self, m: ast.FuncTerm):
        try:
            return self._memo[m]
        except KeyError:
            v = eval_term(m, self.eval_fuel)
            self._memo[m] = v
            return v

    def applicable(self, state: Multiset) -> list[Inst]:
        """Every enabled step of state, in enumeration order: proc facts by
        fact key, then each fact's steps; equivalent steps after the first
        are dropped."""
        index = _StepIndex(self, state)
        out: list[Inst] = []
        seen = set()
        for k, inst in index.steps(index.procs):
            if k not in seen:
                seen.add(k)
                out.append(inst)
        return out

    def enabled(self, state: Multiset) -> "_StepIndex":
        """The per-run enabled set the fair scheduler advances step by step."""
        return _StepIndex(self, state)

    def _steps(self, fact: Fact, c: str, p: ast.Process, msgs: dict) -> list[Inst]:
        key = fact.args[0]
        rs: list[Inst] = []

        def send(name: str, kind: str, payload=None) -> None:
            provider = p.chan == c
            pol = ast.POSITIVE if provider else ast.NEGATIVE
            mkey, mproc = ast.make_message(kind, pol, p.chan, _FRESH, payload)
            mfact = Fact("msg", (Const(p.chan) if mkey == p.chan else Var(_EVAR),
                                 enc_proc(mproc, {_FRESH: Var(_EVAR)})))
            ckey = Var(_EVAR) if provider else key
            cfact = Fact("proc", (ckey, enc_proc(p.cont, {p.chan: Var(_EVAR)})))
            rs.append(_ground(name, [fact], [mfact, cfact], evars=(_EVAR,),
                              hints=((_EVAR, (p.chan, "prime")),)))

        def recv(name_r: str, name_l: str, kind: str,
                 make_cont: Callable[[ast.MsgInfo], Optional[ast.Process]]) -> None:
            provider = p.chan == c
            want = ast.NEGATIVE if provider else ast.POSITIVE
            name = name_r if provider else name_l
            for mf, info, _ in msgs.get(p.chan, ()):
                if info.kind != kind or info.polarity != want:
                    continue
                q = make_cont(info)
                if q is None:
                    continue
                q = ast.subst_chan(q, {p.chan: info.cont})
                nk = Const(info.cont) if provider else key
                rs.append(_ground(name, [fact, mf],
                                  [Fact("proc", (nk, enc_proc(q)))]))

        if isinstance(p, ast.FwdPos):
            # a waiting positive message is relabeled onto the forwarder's
            # own channel; the forwarder disappears
            for mf, info, m in msgs.get(p.src, ()):
                if info.polarity == ast.POSITIVE:
                    new = ast.subst_chan(m, {p.src: p.dst})
                    rs.append(_ground("fwd+", [fact, mf],
                                      [Fact("msg", (Const(p.dst), enc_proc(new)))]))
        elif isinstance(p, ast.FwdNeg):
            # negative messages travel toward the provider: one addressed to
            # the forwarder is redirected to its source channel
            for mf, info, m in msgs.get(p.dst, ()):
                if info.polarity == ast.NEGATIVE:
                    new = ast.subst_chan(m, {p.dst: p.src})
                    rs.append(_ground("fwd-", [fact, mf],
                                      [Fact("msg", (mf.args[0], enc_proc(new)))]))
        elif isinstance(p, ast.Cut):
            env = {p.chan: Var(_EVAR)}
            rs.append(_ground(
                "cut", [fact],
                [Fact("proc", (Var(_EVAR), enc_proc(p.left, env))),
                 Fact("proc", (key, enc_proc(p.right, env)))],
                evars=(_EVAR,), hints=((_EVAR, (p.chan, "prime")),)))
        elif isinstance(p, ast.Unquote):
            v = self.eval(p.term)
            if isinstance(v, ast.Quote) and len(v.used) == len(p.used):
                rho = {v.offered[0]: c}
                for (formal, _), actual in zip(v.used, p.used):
                    rho[formal] = actual
                body = ast.subst_chan(v.body, rho)
                rs.append(_ground("unquote", [fact],
                                  [Fact("proc", (key, enc_proc(body)))]))
        elif isinstance(p, ast.Close):
            if p.chan == c:
                rs.append(_ground("one_r", [fact], [Fact("msg", (key, enc_proc(p)))]))
        elif isinstance(p, ast.Wait):
            for mf, info, _ in msgs.get(p.chan, ()):
                if info.kind == "close":
                    rs.append(_ground("one_l", [fact, mf],
                                      [Fact("proc", (key, enc_proc(p.cont)))]))
        elif isinstance(p, ast.SendLabel):
            send("plus_r" if p.chan == c else "with_l", "label", p.label)
        elif isinstance(p, ast.SendChan):
            send("tensor_r" if p.chan == c else "lolli_l", "chan", p.payload)
        elif isinstance(p, ast.SendShift):
            send("down_r" if p.chan == c else "up_l", "shift")
        elif isinstance(p, ast.SendUnfold):
            send("rec_pos_r" if p.chan == c else "rec_neg_l", "unfold")
        elif isinstance(p, ast.SendVal):
            v = self.eval(p.term)
            if v is not DIVERGED:
                send("and_r" if p.chan == c else "imp_l", "val", v)
        elif isinstance(p, ast.Case):
            branches = dict(p.branches)

            def pick(info: ast.MsgInfo) -> Optional[ast.Process]:
                return branches.get(info.payload)

            recv("with_r", "plus_l", "label", pick)
        elif isinstance(p, ast.RecvChan):
            recv("lolli_r", "tensor_l", "chan",
                 lambda info: ast.subst_chan(p.cont, {p.var: info.payload}))
        elif isinstance(p, ast.RecvShift):
            recv("up_r", "down_l", "shift", lambda info: p.cont)
        elif isinstance(p, ast.RecvUnfold):
            recv("rec_neg_r", "rec_pos_l", "unfold", lambda info: p.cont)
        elif isinstance(p, ast.RecvVal):
            recv("imp_r", "and_l", "val",
                 lambda info: ast.proc_subst_fvar(p.cont, p.var, info.payload))
        return rs


def _listens_on(p: ast.Process) -> Optional[str]:
    """The carrier whose messages the process's steps consume, if any."""
    if isinstance(p, ast.FwdPos):
        return p.src
    if isinstance(p, ast.FwdNeg):
        return p.dst
    comm = ast.comm_kind(p)
    return p.chan if comm is not None and not comm[1] else None


class _StepIndex:
    """The facts of a state arranged for step generation, and the steps
    already derived from them.

    Messages are bucketed by carrier and proc facts by the carrier they
    listen on.  A proc fact's steps depend only on the fact and the bucket
    of that carrier, so after a step only the touched proc facts and the
    listeners on the carriers of touched messages need their steps.

    The steps of a proc fact that listens on no carrier (a send, cut,
    close or unquote) depend on the fact alone.  They are derived and keyed
    once, when the fact is first asked for, and kept with their
    equivalence keys until the fact leaves the state (a per-fact memory in
    the manner of Rete), so the cache never holds more than the state.  A
    process that steps to a copy of itself (``equiv.divergent``) then
    derives and keys nothing after its first step.  Listeners' steps are
    derived afresh each time.  ``derived`` and ``reused`` count the steps
    handed out each way.
    """

    def __init__(self, system: SillSystem, state: Multiset):
        self.system = system
        # classification of every indexed fact, so removal needs no decoding
        self.facts: dict[Fact, tuple] = {}
        self.procs: dict[Fact, None] = {}
        self.msgs: dict[str, list] = {}
        self.listeners: dict[str, dict[Fact, None]] = {}
        # non-listening proc fact -> its steps, each with its key
        self.cache: dict[Fact, list[tuple[tuple, Inst]]] = {}
        self.derived = 0
        self.reused = 0
        for f in state.eph_support():
            self._add(f)

    def _add(self, f: Fact) -> None:
        pred, _, p, info = self.facts[f] = classify_fact(f)
        if pred == "proc":
            self.procs[f] = None
            carrier = _listens_on(p)
            if carrier is not None:
                self.listeners.setdefault(carrier, {})[f] = None
        elif info is not None:
            # buckets keep the fact-key order the step enumeration relies on
            insort(self.msgs.setdefault(info.carrier, []), (f, info, p),
                   key=lambda t: fact_key(t[0]))

    def _remove(self, f: Fact) -> None:
        pred, _, p, info = self.facts.pop(f)
        if pred == "proc":
            del self.procs[f]
            carrier = _listens_on(p)
            if carrier is None:
                self.cache.pop(f, None)
            else:
                del self.listeners[carrier][f]
        elif info is not None:
            bucket = self.msgs[info.carrier]
            bucket.pop(next(i for i, t in enumerate(bucket) if t[0] == f))
            if not bucket:
                del self.msgs[info.carrier]

    def steps(self, procs: Iterable[Fact]) -> list[tuple[tuple, Inst]]:
        """The steps of the given proc facts with their equivalence keys,
        in enumeration order."""
        out: list[tuple[tuple, Inst]] = []
        for f in sorted(procs, key=fact_key):
            keyed = self.cache.get(f)
            if keyed is None:
                _, c, p, _ = self.facts[f]
                keyed = [(_equiv_key(i), i) for i in self.system._steps(f, c, p, self.msgs)]
                self.derived += len(keyed)
                if _listens_on(p) is None:
                    self.cache[f] = keyed
            else:
                self.reused += len(keyed)
            out.extend(keyed)
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
            pred, _, _, info = self.facts[f]
            if pred == "proc":
                procs[f] = None
            elif info is not None:
                procs.update(self.listeners.get(info.carrier, {}))
        return self.steps(procs)


# -- typed runs --------------------------------------------------------------------


def _birth_type(types: dict, step) -> ast.SessionType:
    """Type of the channel a step created, read off the consumed fact."""
    pf = next(f for f in step.inst.rule.eph_ant if f.pred == "proc")
    _, p = dec_fact(pf)
    if isinstance(p, ast.Cut):
        if p.ann is None:
            raise PreservationViolation("cut without a type annotation")
        return p.ann
    t = types.get(p.chan)
    if t is None:
        raise PreservationViolation(f"no recorded type for {p.chan}")
    sent = ast.send_kind(p)
    try:
        conts = ast.message_cont(sent[0], t, sent[1]) if sent else ()
    except SillTypeError as ex:
        raise PreservationViolation(f"channel {p.chan}: {ex}") from ex
    if not conts:
        raise PreservationViolation(f"rule {step.inst.rule.name} created an "
                                    f"unexpected fresh channel")
    # the carrier's continuation is the last entry, after a paired
    # channel's type
    return conts[-1]


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

    prev = state

    def watch(tr: Trace) -> None:
        nonlocal prev
        step, now = tr.steps[-1], tr.final()
        try:
            if step.xi:
                name = step.xi_map()[_EVAR]
                if name in types:
                    raise PreservationViolation(f"fresh channel {name} is already typed")
                types[name] = _birth_type(types, step)
            # a step that left the state object itself changed no fact
            if typing is not None and now is not prev:
                for f, n in step.inst.eph_ant_g().eph_items():
                    typing.remove(f, n)
                for f in step.produced:
                    n = now.count(f) - typing.count(f)
                    if n > 0:
                        typing.add(f, config_fact(f), n)
                typing.check()
        except SillError as ex:
            raise _violation(len(tr.steps), ex) from ex
        prev = now
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
