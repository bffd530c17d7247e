"""Type checking for session types, functional terms, processes, and
configurations.

Processes are checked against a sequent: a single offered channel on the
right and a linear context of used channels on the left.  Every used channel
must be consumed exactly once; the only implicit weakening is inside a case
with no branches, where there is nothing left to run.
"""

from __future__ import annotations

from typing import Mapping, Optional

from . import ast
from .ast import NEGATIVE, POSITIVE
from .errors import (
    CyclicSharing,
    IllFormed,
    IllTyped,
    InterfaceMismatch,
    LinearityError,
    SillError,
    SillTypeError,
    UnboundTypeVariable,
)

__all__ = [
    "ConfigTyping", "CyclicSharing", "IllFormed", "IllTyped", "InterfaceMismatch",
    "LinearityError", "SillError", "SillTypeError",
    "UnboundTypeVariable", "check_config", "check_functype", "check_proc",
    "check_term", "check_type",
]


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
        pol = ast.polarity(a, xi)
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
        if not ast.functype_eq(m.ann, t.arg):
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
    if not ast.functype_eq(got, t):
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
        if ast.polarity(ctype) != want:
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
        if ast.polarity(t) != want:
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
        fcl = ast.fc(p.left)
        fcr = ast.fc(p.right)
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


# -- configurations ------------------------------------------------------------


def _type_fact(f: ast.ConfigFact, types: Mapping[str, ast.SessionType]) -> None:
    """Type one fact at the given channel types: each of its channels has
    a type, a msg fact holds a message, and its process provides its own
    channel using exactly the others."""
    uses = ast.fc(f.proc) - {f.chan}
    missing = sorted(c for c in uses | {f.chan} if c not in types)
    if missing:
        raise InterfaceMismatch(f"channels {missing} are not in the interface")
    if isinstance(f, ast.MsgF) and ast.message_parts(f.chan, f.proc) is None:
        raise IllTyped(f"msg fact on {f.chan} does not hold a message")
    try:
        check_proc(f.proc, (f.chan, types[f.chan]), {c: types[c] for c in uses})
    except (SillTypeError, IllFormed) as e:
        raise IllTyped(f"fact providing {f.chan}: {e}") from e


class ConfigTyping:
    """The typing of a configuration, kept current as facts come and go.

    The interface fixes the used and the provided channels and the first
    entries of ``types``; the owner adds the channels born later.  A
    channel is typed once and never re-typed, so a fact that typed when it
    was added stays typed.  Every other typed channel is internal.  Per
    channel, a used one is consumed and not provided, a provided one is
    not consumed, and an internal one is provided exactly when it is
    consumed; a provided or internal channel that has left the
    configuration passes.  Facts form a forest: each channel has at most
    one provider and one consumer, and following consumers never loops.

    ``add`` and ``remove`` change the facts, under a caller's key that
    tells occurrences of the same fact apart from different facts;
    ``check`` then types the added facts, applies the channel rule to the
    channels of the facts added or removed since the last check, and walks
    up the consumer chain from each added fact, since only an added fact
    can close a cycle.  So a check costs what changed, not the size of the
    configuration.
    """

    def __init__(self, interface: ast.Interface):
        self.types: dict[str, ast.SessionType] = {}
        for group in (interface.used, interface.internal, interface.provided):
            for c, t in group:
                if c in self.types:
                    raise InterfaceMismatch(f"channel {c} listed twice in the interface")
                check_type(t)
                self.types[c] = t
        self.used = frozenset(c for c, _ in interface.used)
        self.provided = frozenset(c for c, _ in interface.provided)
        # channel -> keys of its providers and consumers, one per occurrence
        self.providers: dict[str, list] = {}
        self.consumers: dict[str, list] = {}
        # key -> [fact, the channels it consumes, multiplicity]
        self._facts: dict = {}
        self._added: list = []
        self._touched: set[str] = set(self.used)

    def count(self, key) -> int:
        entry = self._facts.get(key)
        return entry[2] if entry else 0

    def add(self, key, f: ast.ConfigFact, n: int = 1) -> None:
        entry = self._facts.get(key)
        if entry is None:
            entry = self._facts[key] = [f, sorted(ast.fc(f.proc) - {f.chan}), 0]
            self._added.append(key)
        entry[2] += n
        for index, c in self._slots(entry):
            index.setdefault(c, []).extend([key] * n)

    def remove(self, key, n: int = 1) -> None:
        entry = self._facts[key]
        entry[2] -= n
        if not entry[2]:
            del self._facts[key]
        for index, c in self._slots(entry):
            keys = index[c]
            for _ in range(n):
                keys.remove(key)
            if not keys:
                del index[c]

    def _slots(self, entry: list) -> list:
        """Where a fact sits in the indexes; marks those channels touched."""
        f, uses, _ = entry
        slots = [(self.providers, f.chan)] + [(self.consumers, c) for c in uses]
        self._touched.update(c for _, c in slots)
        return slots

    def check(self) -> None:
        """Check what changed since the last check; raise the first fault."""
        added, touched = self._added, sorted(self._touched)
        self._added, self._touched = [], set()
        for c in touched:
            if len(self.providers.get(c, ())) > 1:
                raise CyclicSharing(f"two facts provide channel {c}")
            if len(self.consumers.get(c, ())) > 1:
                raise CyclicSharing(f"channel {c} is consumed by two facts")
        added = [k for k in added if k in self._facts]
        for k in added:
            _type_fact(self._facts[k][0], self.types)
        for c in touched:
            provided, consumed = c in self.providers, c in self.consumers
            if c in self.used:
                role, ok = "used", consumed and not provided
            elif c in self.provided:
                role, ok = "provided", not consumed
            else:
                role, ok = "internal", provided == consumed
            if not ok:
                raise InterfaceMismatch(
                    f"{role} channel {c} is {'' if provided else 'not '}provided "
                    f"and {'' if consumed else 'not '}consumed")
        # follow each added fact to the fact consuming its channel; channels
        # already followed in this check lead to a root
        done: set[str] = set()
        for k in added:
            path: dict[str, None] = {}
            c: Optional[str] = self._facts[k][0].chan
            while c is not None and c not in done:
                if c in path:
                    raise CyclicSharing(f"facts around channel {c} form a cycle")
                path[c] = None
                nxt = self.consumers.get(c)
                c = self._facts[nxt[0]][0].chan if nxt else None
            done.update(path)


def check_config(facts, claimed: ast.Interface):
    """Typecheck a configuration against its claimed interface.

    Facts must form a forest (see ``ConfigTyping``) whose used, internal
    and provided channels are exactly the claimed ones.  Returns the tree
    decomposition as a mapping from each provided channel to its tree's
    facts in root-first order.
    """
    facts = tuple(facts)
    typing = ConfigTyping(claimed)
    for i, f in enumerate(facts):
        typing.add(i, f)
    typing.check()
    absent = sorted(c for c, _ in claimed.internal + claimed.provided
                    if c not in typing.providers)
    if absent:
        raise InterfaceMismatch(f"claimed channels {absent} have no provider")

    providers = {c: facts[keys[0]] for c, keys in typing.providers.items()}
    children = {
        c: sorted(ch for ch in ast.fc(providers[c].proc) - {c}
                  if ch in providers)
        for c in providers
    }
    trees: dict[str, tuple[ast.ConfigFact, ...]] = {}
    for root in sorted(typing.provided):
        order = []
        stack = [root]
        while stack:
            c = stack.pop()
            order.append(providers[c])
            stack.extend(reversed(children[c]))
        trees[root] = tuple(order)
    return trees


def check_module(m: ast.Module) -> None:
    """Check every declaration of a parsed module.

    A configuration with a hole cannot be checked as a forest until something
    is plugged in, so only its individual facts are typed; the hole's
    interface supplies the types of the channels it touches.
    """
    for d in m.decls:
        if isinstance(d, ast.TypeDecl):
            check_type(d.body)
        elif isinstance(d, ast.TermDecl):
            check_functype(d.ann)
            check_term(d.body, expected=d.ann)
        elif isinstance(d, ast.ProcDecl):
            check_type(d.offered[1])
            for _, t in d.used:
                check_type(t)
            check_proc(d.body, d.offered, dict(d.used))
        elif isinstance(d, ast.ConfigDecl):
            if d.hole is None:
                check_config(d.facts, d.interface)
            else:
                types = d.interface.all_types()
                types.update(dict(d.hole.used))
                types.update(dict(d.hole.provided))
                for t in types.values():
                    check_type(t)
                for f in d.facts:
                    _type_fact(f, types)
        else:
            raise SillError(f"unknown declaration {d!r}")
