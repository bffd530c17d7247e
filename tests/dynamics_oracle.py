"""SILL step derivation as it was when each step decoded its process.

A reference for the differential tests in ``tests/test_dynamics_oracle.py``:
``SillSystem._steps`` with one branch per construct over the decoded
process, ``_listens_on`` and ``_birth_type`` over decoded processes, and the
enabled set ``_StepIndex`` that fed them decoded facts.  Each successor is
built as a process and encoded afresh: a message by the old encoder
``enc_proc`` with its channel environment, which gives a message's two-level
term, and a process by ``sill.dynamics.enc_proc``, with the step's variable
put in its environment for the channel it creates.  ``OracleSystem`` runs
them in place of the current step derivation; every step here is one that
``sill.dynamics`` must reproduce, rule name, decoded facts, fresh names and
all.
"""

from __future__ import annotations

from bisect import insort
from typing import Callable, Iterable, Mapping, Optional

from ast_oracle import subst_chan

from sill import dynamics
from sill.dynamics import DIVERGED, PreservationViolation, SillSystem, classify_fact
from sill.lang import ast
from sill.lang.ast import BRANCHES, CHAN, CHAN_BINDER, CHANS, CHILD, OPAQUE, TERM
from sill.lang.errors import SillTypeError
from sill.msr.multiset import Fact, Multiset, fact_key
from sill.msr.rules import Inst, Rule, _equiv_key
from sill.msr.terms import App, Const, Term, Var, Wrap

_FRESH = "%fresh"
_EVAR = "nc"

_TAGS = {
    ast.FwdPos: "fwd+", ast.FwdNeg: "fwd-", ast.Cut: "cut", ast.Close: "close",
    ast.Wait: "wait", ast.SendLabel: "send_label", ast.Case: "case",
    ast.SendChan: "send_chan", ast.RecvChan: "recv_chan",
    ast.SendShift: "send_shift", ast.RecvShift: "recv_shift",
    ast.SendUnfold: "send_unfold", ast.RecvUnfold: "recv_unfold",
    ast.SendVal: "send_val", ast.RecvVal: "recv_val", ast.Unquote: "unquote",
}


def proc_fact(key: Term, p: ast.Process, env: Optional[Mapping[str, Term]] = None) -> Fact:
    """The proc fact of p at key, with env's terms in place of the
    channels it names."""
    code, e = dynamics.enc_proc(p)
    env = env or {}
    return Fact("proc", (key, code, App("env", tuple(
        [env.get(a.name, a) if type(a) is Const else a for a in e.args]))))


def enc_proc(p: ast.Process, env: Optional[Mapping[str, Term]] = None) -> Term:
    """Encode a process as a term, as a message is kept.

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


def dec_fact(f: Fact) -> tuple[str, ast.Process]:
    """Decode a proc or msg fact to (channel, process)."""
    _, chan, p, _ = classify_fact(f)
    return chan, p


def send_kind(p: ast.Process) -> Optional[tuple[str, object]]:
    """(kind, payload) of a send construct; None for any other process."""
    for kind, (cls, fld) in ast.MSG_SEND.items():
        if type(p) is cls:
            return kind, (getattr(p, fld) if fld else None)
    return None


def _ground(name: str, consumed: list, produced: list,
            evars: tuple = (), hints: tuple = ()) -> Inst:
    rule = Rule(name, (), (), tuple(consumed), evars, (), tuple(produced),
                fresh_hints=hints)
    return Inst.make(rule, {})


class OracleSystem(SillSystem):
    """A SILL system whose steps come from the decoded processes."""

    def applicable(self, state: Multiset) -> list[Inst]:
        index = _StepIndex(self, state)
        out: list[Inst] = []
        seen = set()
        for k, inst in index.steps(index.procs):
            if k not in seen:
                seen.add(k)
                out.append(inst)
        return out

    def enabled(self, state: Multiset) -> "_StepIndex":
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
            cfact = proc_fact(ckey, p.cont, {p.chan: Var(_EVAR)})
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
                q = subst_chan(q, {p.chan: info.cont})
                nk = Const(info.cont) if provider else key
                rs.append(_ground(name, [fact, mf], [proc_fact(nk, q)]))

        if isinstance(p, ast.FwdPos):
            # a waiting positive message is relabeled onto the forwarder's
            # own channel; the forwarder disappears
            for mf, info, m in msgs.get(p.src, ()):
                if info.polarity == ast.POSITIVE:
                    new = subst_chan(m, {p.src: p.dst})
                    rs.append(_ground("fwd+", [fact, mf],
                                      [Fact("msg", (Const(p.dst), enc_proc(new)))]))
        elif isinstance(p, ast.FwdNeg):
            # negative messages travel toward the provider: one addressed to
            # the forwarder is redirected to its source channel
            for mf, info, m in msgs.get(p.dst, ()):
                if info.polarity == ast.NEGATIVE:
                    new = subst_chan(m, {p.dst: p.src})
                    rs.append(_ground("fwd-", [fact, mf],
                                      [Fact("msg", (mf.args[0], enc_proc(new)))]))
        elif isinstance(p, ast.Cut):
            env = {p.chan: Var(_EVAR)}
            rs.append(_ground(
                "cut", [fact],
                [proc_fact(Var(_EVAR), p.left, env), proc_fact(key, p.right, env)],
                evars=(_EVAR,), hints=((_EVAR, (p.chan, "prime")),)))
        elif isinstance(p, ast.Unquote):
            v = self.eval(p.term)
            if isinstance(v, ast.Quote) and len(v.used) == len(p.used):
                rho = {v.offered[0]: c}
                for (formal, _), actual in zip(v.used, p.used):
                    rho[formal] = actual
                body = subst_chan(v.body, rho)
                rs.append(_ground("unquote", [fact], [proc_fact(key, body)]))
        elif isinstance(p, ast.Close):
            if p.chan == c:
                rs.append(_ground("one_r", [fact], [Fact("msg", (key, enc_proc(p)))]))
        elif isinstance(p, ast.Wait):
            for mf, info, _ in msgs.get(p.chan, ()):
                if info.kind == "close":
                    rs.append(_ground("one_l", [fact, mf], [proc_fact(key, p.cont)]))
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
                 lambda info: subst_chan(p.cont, {p.var: info.payload}))
        elif isinstance(p, ast.RecvShift):
            recv("up_r", "down_l", "shift", lambda info: p.cont)
        elif isinstance(p, ast.RecvUnfold):
            recv("rec_neg_r", "rec_pos_l", "unfold", lambda info: p.cont)
        elif isinstance(p, ast.RecvVal):
            recv("imp_r", "and_l", "val",
                 lambda info: ast.subst_fvar(p.cont, p.var, info.payload))
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
    """The decoded facts of a state arranged for step generation, and the
    steps already derived from them."""

    def __init__(self, system: OracleSystem, state: Multiset):
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
    sent = send_kind(p)
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
