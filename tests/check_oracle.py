"""The type checker as it was before one rule typed every message kind.

A reference for the differential tests in ``tests/test_check_oracle.py``:
``polarity`` from ``sill.lang.ast``, and ``check_type``, ``check_functype``,
``check_term`` and ``check_proc`` from ``sill.lang.check``, with one
hand-written case per connective in formation and polarity and a mirrored
provider and client case per construct in process typing, checked by
recursion.  Free channels come from ``ast_oracle``, so nothing here runs
the code under test.  Every outcome here, acceptance or the class of the
exception raised, is one that the table-driven checker must reproduce.
"""

from __future__ import annotations

from typing import Mapping, Optional

from ast_oracle import fc

from sill.lang import ast
from sill.lang.ast import (
    NEGATIVE,
    POSITIVE,
    AndVal,
    Down,
    ImpVal,
    Lolli,
    One,
    Plus,
    Rec,
    Tensor,
    TVar,
    Up,
    With,
)
from sill.lang.errors import (
    IllFormed,
    LinearityError,
    SillTypeError,
    UnboundTypeVariable,
)



def polarity(a, xi=None):
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


# -- type formation ------------------------------------------------------------


def check_type(a: ast.SessionType, xi: Optional[Mapping[str, str]] = None) -> str:
    """Validate formation of a session type and return its polarity.

    xi maps bound type variables to their polarities; with the default empty
    xi the type must be closed.
    """
    return _formation(a, dict(xi) if xi else {})


def _formation(a, xi):
    if isinstance(a, ast.One):
        return POSITIVE
    if isinstance(a, ast.Plus):
        for label, t in a.branches:
            if _formation(t, xi) != POSITIVE:
                raise IllFormed(f"internal choice branch {label} must be positive")
        return POSITIVE
    if isinstance(a, ast.With):
        for label, t in a.branches:
            if _formation(t, xi) != NEGATIVE:
                raise IllFormed(f"external choice branch {label} must be negative")
        return NEGATIVE
    if isinstance(a, ast.Tensor):
        if _formation(a.left, xi) != POSITIVE or _formation(a.right, xi) != POSITIVE:
            raise IllFormed("both components of * must be positive")
        return POSITIVE
    if isinstance(a, ast.Lolli):
        if _formation(a.left, xi) != POSITIVE:
            raise IllFormed("the argument of -o must be positive")
        if _formation(a.right, xi) != NEGATIVE:
            raise IllFormed("the result of -o must be negative")
        return NEGATIVE
    if isinstance(a, ast.Down):
        if _formation(a.body, xi) != NEGATIVE:
            raise IllFormed("down must wrap a negative type")
        return POSITIVE
    if isinstance(a, ast.Up):
        if _formation(a.body, xi) != POSITIVE:
            raise IllFormed("up must wrap a positive type")
        return NEGATIVE
    if isinstance(a, ast.AndVal):
        check_functype(a.vtype)
        if _formation(a.body, xi) != POSITIVE:
            raise IllFormed("the continuation of ^ must be positive")
        return POSITIVE
    if isinstance(a, ast.ImpVal):
        check_functype(a.vtype)
        if _formation(a.body, xi) != NEGATIVE:
            raise IllFormed("the continuation of => must be negative")
        return NEGATIVE
    if isinstance(a, ast.TVar):
        if a.name not in xi:
            raise UnboundTypeVariable(a.name)
        return xi[a.name]
    if isinstance(a, ast.Rec):
        pol = polarity(a, xi)
        inner = dict(xi)
        inner[a.var] = pol
        body_pol = _formation(a.body, inner)
        if body_pol != pol:
            raise IllFormed(
                f"rec {a.var} is {pol} but its body is {body_pol}")
        return pol
    raise IllFormed(f"not a session type: {a!r}")


def check_functype(t: ast.FuncType) -> None:
    if isinstance(t, ast.Arrow):
        check_functype(t.arg)
        check_functype(t.res)
        return
    if isinstance(t, ast.ProcType):
        names = [t.offered[0]] + [c for c, _ in t.used]
        if len(set(names)) != len(names):
            raise IllFormed("a process type repeats a channel name")
        check_type(t.offered[1])
        for _, a in t.used:
            check_type(a)
        return
    raise IllFormed(f"not a functional type: {t!r}")


# -- term typing ---------------------------------------------------------------


def check_term(m: ast.FuncTerm,
               env: Optional[Mapping[str, ast.FuncType]] = None,
               expected: Optional[ast.FuncType] = None) -> ast.FuncType:
    """Type a functional term.

    With expected=None the type is synthesized; otherwise the term is checked
    against expected, which lets unannotated fixed points through.
    """
    env = dict(env) if env else {}
    if expected is None:
        return _synth(m, env)
    _against(m, env, expected)
    return expected


def _synth(m, env):
    if isinstance(m, ast.FVar):
        if m.name not in env:
            raise SillTypeError(f"unbound variable {m.name}")
        return env[m.name]
    if isinstance(m, ast.Lam):
        check_functype(m.ann)
        inner = dict(env)
        inner[m.var] = m.ann
        return ast.Arrow(m.ann, _synth(m.body, inner))
    if isinstance(m, ast.FApp):
        fn = _synth(m.fn, env)
        if not isinstance(fn, ast.Arrow):
            raise SillTypeError(f"applied a term of type {fn}")
        _against(m.arg, env, fn.arg)
        return fn.res
    if isinstance(m, ast.Fix):
        ann = _annot_type(m.body)
        inner = dict(env)
        inner[m.var] = ann
        _against(m.body, inner, ann)
        return ann
    if isinstance(m, ast.Quote):
        pt = ast.ProcType(m.offered, m.used)
        check_functype(pt)
        check_proc(m.body, m.offered, dict(m.used), env)
        return pt
    raise SillTypeError(f"not a term: {m!r}")


def _annot_type(m):
    """Read a type off a fix body's annotations."""
    if isinstance(m, ast.Lam):
        return ast.Arrow(m.ann, _annot_type(m.body))
    if isinstance(m, ast.Quote):
        return ast.ProcType(m.offered, m.used)
    raise SillTypeError(
        "cannot infer a type for this fixed point; its body must be built "
        "from annotated lambdas and quoted processes")


def _against(m, env, t):
    if isinstance(m, ast.Lam) and isinstance(t, ast.Arrow):
        check_functype(m.ann)
        if not ast.type_eq(m.ann, t.arg):
            raise SillTypeError(
                f"lambda annotation {m.ann} does not match expected {t.arg}")
        inner = dict(env)
        inner[m.var] = m.ann
        _against(m.body, inner, t.res)
        return
    if isinstance(m, ast.Fix):
        inner = dict(env)
        inner[m.var] = t
        _against(m.body, inner, t)
        return
    got = _synth(m, env)
    if not ast.type_eq(got, t):
        raise SillTypeError(f"expected {t}, found {got}")


# -- process typing ------------------------------------------------------------


def check_proc(p: ast.Process,
               offered: tuple[str, ast.SessionType],
               used: Optional[Mapping[str, ast.SessionType]] = None,
               env: Optional[Mapping[str, ast.FuncType]] = None) -> None:
    """Check that p provides the offered channel using exactly `used`."""
    name, a = offered
    delta = dict(used) if used else {}
    if name in delta:
        raise SillTypeError(f"offered channel {name} also appears on the left")
    _proc(p, name, a, delta, dict(env) if env else {})


def _leaf(delta, what):
    if delta:
        raise LinearityError(f"{what} leaves channels unused: "
                             + ", ".join(sorted(delta)))


def _need(delta, c):
    if c not in delta:
        raise SillTypeError(f"channel {c} is not in scope")
    return delta[c]


def _proc(p, cname, ctype, delta, env):
    if isinstance(p, (ast.FwdPos, ast.FwdNeg)):
        pos = isinstance(p, ast.FwdPos)
        word = "fwd+" if pos else "fwd-"
        if p.dst != cname:
            raise SillTypeError(f"{word} must provide the offered channel {cname}")
        src_t = _need(delta, p.src)
        del delta[p.src]
        _leaf(delta, word)
        if not ast.type_eq(src_t, ctype):
            raise SillTypeError(
                f"{word} connects {p.src}:{src_t} to {p.dst}:{ctype}")
        want = POSITIVE if pos else NEGATIVE
        if polarity(ctype) != want:
            raise SillTypeError(f"{word} needs a {want} type, got {ctype}")
        return

    if isinstance(p, ast.Close):
        if p.chan != cname:
            raise SillTypeError(f"close must act on the offered channel {cname}")
        if not isinstance(ctype, ast.One):
            raise SillTypeError(f"close needs type 1, the channel has {ctype}")
        _leaf(delta, "close")
        return

    if isinstance(p, ast.Wait):
        t = _need(delta, p.chan)
        if not isinstance(t, ast.One):
            raise SillTypeError(f"wait needs type 1, channel {p.chan} has {t}")
        del delta[p.chan]
        _proc(p.cont, cname, ctype, delta, env)
        return

    if isinstance(p, ast.SendLabel):
        a, k = p.chan, p.label
        if a == cname:
            if not isinstance(ctype, ast.Plus):
                raise SillTypeError(f"cannot select on {a}: {ctype}")
            t = ctype.branch(k)
            if t is None:
                raise SillTypeError(f"label {k} is not offered by {ctype}")
            _proc(p.cont, cname, t, delta, env)
            return
        at = _need(delta, a)
        if not isinstance(at, ast.With):
            raise SillTypeError(f"cannot select on {a}: {at}")
        t = at.branch(k)
        if t is None:
            raise SillTypeError(f"label {k} is not offered by {at}")
        delta[a] = t
        _proc(p.cont, cname, ctype, delta, env)
        return

    if isinstance(p, ast.Case):
        a = p.chan
        if a == cname:
            t = ctype
            if not isinstance(t, ast.With):
                raise SillTypeError(f"cannot branch on {a}: {t}")
        else:
            t = _need(delta, a)
            if not isinstance(t, ast.Plus):
                raise SillTypeError(f"cannot branch on {a}: {t}")
        if t.labels() != tuple(l for l, _ in p.branches):
            raise SillTypeError(
                f"case on {a} must cover exactly the labels of {t}")
        for label, q in p.branches:
            cont_t = t.branch(label)
            if a == cname:
                _proc(q, cname, cont_t, dict(delta), env)
            else:
                inner = dict(delta)
                inner[a] = cont_t
                _proc(q, cname, ctype, inner, env)
        return

    if isinstance(p, ast.SendChan):
        a, b = p.chan, p.payload
        if b == a:
            raise SillTypeError(f"cannot send channel {b} on itself")
        bt = _need(delta, b)
        if a == cname:
            if not isinstance(ctype, ast.Tensor):
                raise SillTypeError(f"cannot send a channel on {a}: {ctype}")
            if not ast.type_eq(bt, ctype.left):
                raise SillTypeError(
                    f"payload {b} has type {bt}, expected {ctype.left}")
            del delta[b]
            _proc(p.cont, cname, ctype.right, delta, env)
            return
        at = _need(delta, a)
        if not isinstance(at, ast.Lolli):
            raise SillTypeError(f"cannot send a channel on {a}: {at}")
        if not ast.type_eq(bt, at.left):
            raise SillTypeError(f"payload {b} has type {bt}, expected {at.left}")
        del delta[b]
        delta[a] = at.right
        _proc(p.cont, cname, ctype, delta, env)
        return

    if isinstance(p, ast.RecvChan):
        x, a = p.var, p.chan
        if x == cname or x in delta:
            raise SillTypeError(f"received channel name {x} is already in scope")
        if a == cname:
            if not isinstance(ctype, ast.Lolli):
                raise SillTypeError(f"cannot receive a channel on {a}: {ctype}")
            delta[x] = ctype.left
            _proc(p.cont, cname, ctype.right, delta, env)
            return
        at = _need(delta, a)
        if not isinstance(at, ast.Tensor):
            raise SillTypeError(f"cannot receive a channel on {a}: {at}")
        delta[x] = at.left
        delta[a] = at.right
        _proc(p.cont, cname, ctype, delta, env)
        return

    if isinstance(p, (ast.SendShift, ast.RecvShift)):
        a = p.chan
        send = isinstance(p, ast.SendShift)
        if a == cname:
            want = ast.Down if send else ast.Up
            if not isinstance(ctype, want):
                raise SillTypeError(f"shift does not fit {a}: {ctype}")
            _proc(p.cont, cname, ctype.body, delta, env)
            return
        at = _need(delta, a)
        want = ast.Up if send else ast.Down
        if not isinstance(at, want):
            raise SillTypeError(f"shift does not fit {a}: {at}")
        delta[a] = at.body
        _proc(p.cont, cname, ctype, delta, env)
        return

    if isinstance(p, (ast.SendUnfold, ast.RecvUnfold)):
        a = p.chan
        send = isinstance(p, ast.SendUnfold)
        if a == cname:
            t = ctype
        else:
            t = _need(delta, a)
        if not isinstance(t, ast.Rec):
            raise SillTypeError(f"cannot unfold {a}: {t}")
        sender_side = send == (a == cname)
        want = POSITIVE if sender_side else NEGATIVE
        if polarity(t) != want:
            verb = "send" if send else "receive"
            raise SillTypeError(
                f"cannot {verb} an unfold on {a}: {t} has the wrong polarity")
        unfolded = ast.unfold_rec(t)
        if a == cname:
            _proc(p.cont, cname, unfolded, delta, env)
        else:
            delta[a] = unfolded
            _proc(p.cont, cname, ctype, delta, env)
        return

    if isinstance(p, ast.SendVal):
        a = p.chan
        if a == cname:
            if not isinstance(ctype, ast.AndVal):
                raise SillTypeError(f"cannot send a value on {a}: {ctype}")
            check_term(p.term, env, ctype.vtype)
            _proc(p.cont, cname, ctype.body, delta, env)
            return
        at = _need(delta, a)
        if not isinstance(at, ast.ImpVal):
            raise SillTypeError(f"cannot send a value on {a}: {at}")
        check_term(p.term, env, at.vtype)
        delta[a] = at.body
        _proc(p.cont, cname, ctype, delta, env)
        return

    if isinstance(p, ast.RecvVal):
        x, a = p.var, p.chan
        inner = dict(env)
        if a == cname:
            if not isinstance(ctype, ast.ImpVal):
                raise SillTypeError(f"cannot receive a value on {a}: {ctype}")
            inner[x] = ctype.vtype
            _proc(p.cont, cname, ctype.body, delta, inner)
            return
        at = _need(delta, a)
        if not isinstance(at, ast.AndVal):
            raise SillTypeError(f"cannot receive a value on {a}: {at}")
        inner[x] = at.vtype
        delta[a] = at.body
        _proc(p.cont, cname, ctype, delta, inner)
        return

    if isinstance(p, ast.Cut):
        x = p.chan
        if p.ann is None:
            raise SillTypeError(f"cut binding {x} needs a type annotation")
        check_type(p.ann)
        if x == cname or x in delta:
            raise SillTypeError(f"cut reuses the channel name {x}")
        fcl = fc(p.left)
        fcr = fc(p.right)
        dup = (fcl & fcr) & set(delta)
        if dup:
            raise LinearityError("channels used on both sides of a cut: "
                                 + ", ".join(sorted(dup)))
        left_delta = {c: t for c, t in delta.items() if c in fcl}
        right_delta = {c: t for c, t in delta.items() if c not in fcl}
        _proc(p.left, x, p.ann, left_delta, env)
        right_delta[x] = p.ann
        _proc(p.right, cname, ctype, right_delta, env)
        return

    if isinstance(p, ast.Unquote):
        if p.chan != cname:
            raise SillTypeError(
                f"unquote must provide the offered channel {cname}")
        pt = _synth(p.term, env)
        if not isinstance(pt, ast.ProcType):
            raise SillTypeError(f"unquoted a term of type {pt}")
        if len(p.used) != len(pt.used):
            raise SillTypeError(
                f"unquote passes {len(p.used)} channels, the process type "
                f"wants {len(pt.used)}")
        if len(set(p.used)) != len(p.used):
            raise LinearityError("unquote passes a channel twice")
        for c in p.used:
            _need(delta, c)
        leftover = set(delta) - set(p.used)
        if leftover:
            raise LinearityError("unquote leaves channels unused: "
                                 + ", ".join(sorted(leftover)))
        if not ast.type_eq(pt.offered[1], ctype):
            raise SillTypeError(
                f"unquoted process provides {pt.offered[1]}, expected {ctype}")
        for c, (_, want) in zip(p.used, pt.used):
            if not ast.type_eq(delta[c], want):
                raise SillTypeError(
                    f"unquote passes {c}:{delta[c]} where {want} is expected")
        return

    raise SillTypeError(f"not a process: {p!r}")
