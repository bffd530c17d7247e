"""The walks over the syntax as they were before the role tables.

A reference for the differential tests in ``tests/test_ast_oracle.py``:
``subst_tvar``, ``canon_type``, ``subst_fvar``, ``fc``, ``subst_chan``,
``proc_subst_fvar``, and the printers ``type_to_str``, ``functype_to_str``,
``term_to_str`` and ``proc_to_str``, from ``sill.lang.ast``, and
``enc_proc``/``dec_proc`` from ``sill.dynamics``, each with one hand-written
case per construct.  Every result here is one that the walks on the fold
must reproduce.  ``canon_type`` and its ``canon_functype`` build the
canonical forms whose equality ``ast.type_eq`` decides without building
them; ``sill.lang.ast`` has no builder of them any more.  Nor has it a
channel renaming: ``subst_chan`` is the one the tests and the other
oracles apply, and the runtime renames a process's environment instead
(``dynamics.dec_proc`` renames a binder apart only where it would capture).
"""

from __future__ import annotations

from typing import Mapping, Optional

from sill.lang import ast
from sill.lang.ast import (
    AndVal,
    Arrow,
    Case,
    Close,
    Cut,
    Down,
    FApp,
    Fix,
    FuncTerm,
    FuncType,
    FVar,
    FwdNeg,
    FwdPos,
    ImpVal,
    Lam,
    Lolli,
    One,
    Plus,
    Process,
    ProcType,
    Quote,
    Rec,
    RecvChan,
    RecvShift,
    RecvUnfold,
    RecvVal,
    SendChan,
    SendLabel,
    SendShift,
    SendUnfold,
    SendVal,
    SessionType,
    Tensor,
    TVar,
    Unquote,
    Up,
    Wait,
    With,
)
from sill.msr.terms import App, Const, Term, Wrap


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


def enc_proc(p: ast.Process, env: Optional[Mapping[str, Term]] = None) -> Term:
    """Encode a process as a term.

    Channel names go through env (defaulting to constants of the same
    name), so rule consequents can place existential variables at fresh
    positions.  Binders shadow env.  Functional payloads and cut
    annotations are wrapped opaquely: they never contain free channels.
    """
    return _enc(p, dict(env) if env else {})


def _enc(p: ast.Process, e: dict) -> Term:
    def ch(n: str) -> Term:
        return e.get(n, Const(n))

    def under(n: str) -> dict:
        return {k: v for k, v in e.items() if k != n} if n in e else e

    if isinstance(p, ast.FwdPos):
        return App("fwd+", (ch(p.src), ch(p.dst)))
    if isinstance(p, ast.FwdNeg):
        return App("fwd-", (ch(p.src), ch(p.dst)))
    if isinstance(p, ast.Cut):
        inner = under(p.chan)
        return App("cut", (Const(p.chan), Wrap(p.ann),
                           _enc(p.left, inner), _enc(p.right, inner)))
    if isinstance(p, ast.Close):
        return App("close", (ch(p.chan),))
    if isinstance(p, ast.Wait):
        return App("wait", (ch(p.chan), _enc(p.cont, e)))
    if isinstance(p, ast.SendLabel):
        return App("send_label", (ch(p.chan), Const(p.label), _enc(p.cont, e)))
    if isinstance(p, ast.Case):
        bs = tuple(App("branch", (Const(l), _enc(q, e))) for l, q in p.branches)
        return App("case", (ch(p.chan),) + bs)
    if isinstance(p, ast.SendChan):
        return App("send_chan", (ch(p.chan), ch(p.payload), _enc(p.cont, e)))
    if isinstance(p, ast.RecvChan):
        return App("recv_chan", (Const(p.var), ch(p.chan), _enc(p.cont, under(p.var))))
    if isinstance(p, ast.SendShift):
        return App("send_shift", (ch(p.chan), _enc(p.cont, e)))
    if isinstance(p, ast.RecvShift):
        return App("recv_shift", (ch(p.chan), _enc(p.cont, e)))
    if isinstance(p, ast.SendUnfold):
        return App("send_unfold", (ch(p.chan), _enc(p.cont, e)))
    if isinstance(p, ast.RecvUnfold):
        return App("recv_unfold", (ch(p.chan), _enc(p.cont, e)))
    if isinstance(p, ast.SendVal):
        return App("send_val", (ch(p.chan), Wrap(p.term), _enc(p.cont, e)))
    if isinstance(p, ast.RecvVal):
        return App("recv_val", (Const(p.var), ch(p.chan), _enc(p.cont, e)))
    if isinstance(p, ast.Unquote):
        return App("unquote", (ch(p.chan), Wrap(p.term)) + tuple(ch(u) for u in p.used))
    raise TypeError(f"not a process: {p!r}")


def _name(t: Term) -> str:
    if not isinstance(t, Const):
        raise ValueError(f"expected a channel constant, got {t!r}")
    return t.name


def _payload(t: Term):
    if not isinstance(t, Wrap):
        raise ValueError(f"expected a wrapped payload, got {t!r}")
    return t.payload


def dec_proc(t: Term) -> ast.Process:
    """Decode a term produced by enc_proc back to a process."""
    if not isinstance(t, App):
        raise ValueError(f"not a process encoding: {t!r}")
    tag, a = t.fn, t.args
    if tag == "fwd+":
        return ast.FwdPos(_name(a[0]), _name(a[1]))
    if tag == "fwd-":
        return ast.FwdNeg(_name(a[0]), _name(a[1]))
    if tag == "cut":
        return ast.Cut(_name(a[0]), _payload(a[1]), dec_proc(a[2]), dec_proc(a[3]))
    if tag == "close":
        return ast.Close(_name(a[0]))
    if tag == "wait":
        return ast.Wait(_name(a[0]), dec_proc(a[1]))
    if tag == "send_label":
        return ast.SendLabel(_name(a[0]), _name(a[1]), dec_proc(a[2]))
    if tag == "case":
        bs = []
        for b in a[1:]:
            if not (isinstance(b, App) and b.fn == "branch" and len(b.args) == 2):
                raise ValueError(f"bad branch encoding: {b!r}")
            bs.append((_name(b.args[0]), dec_proc(b.args[1])))
        return ast.Case(_name(a[0]), tuple(bs))
    if tag == "send_chan":
        return ast.SendChan(_name(a[0]), _name(a[1]), dec_proc(a[2]))
    if tag == "recv_chan":
        return ast.RecvChan(_name(a[0]), _name(a[1]), dec_proc(a[2]))
    if tag == "send_shift":
        return ast.SendShift(_name(a[0]), dec_proc(a[1]))
    if tag == "recv_shift":
        return ast.RecvShift(_name(a[0]), dec_proc(a[1]))
    if tag == "send_unfold":
        return ast.SendUnfold(_name(a[0]), dec_proc(a[1]))
    if tag == "recv_unfold":
        return ast.RecvUnfold(_name(a[0]), dec_proc(a[1]))
    if tag == "send_val":
        return ast.SendVal(_name(a[0]), _payload(a[1]), dec_proc(a[2]))
    if tag == "recv_val":
        return ast.RecvVal(_name(a[0]), _name(a[1]), dec_proc(a[2]))
    if tag == "unquote":
        return ast.Unquote(_name(a[0]), _payload(a[1]), tuple(_name(u) for u in a[2:]))
    raise ValueError(f"unknown process tag {tag!r}")


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
