"""Type checking for session types, functional terms, processes, and
configurations.

Processes are checked against a sequent: a single offered channel on the
right and a linear context of used channels on the left.  Every used channel
must be consumed exactly once; the only implicit weakening is inside a case
with no branches, where there is nothing left to run.

Every send and receive is typed by one rule read off the message-kind
tables of ``sill.lang.ast``: ``comm_kind`` (from ``MSG_SEND`` and
``MSG_RECV``) names the construct's kind and whether it sends; the channel
acted on must have a connective of ``MSG_TYPES[kind]`` whose polarity lets
this side act (the provider sends at a positive type and receives at a
negative one, the client the other way round); and the continuation is
checked at the types ``message_cont`` gives.  Only what a kind adds (a
channel or a value as payload, the branches of a case, close's empty
context) is stated per kind.  Forwards, cuts and unquotes have their own
rules.  Type formation reads each connective's polarity, and the polarity
of each of its fields, from ``POLARITIES``.

Process checking keeps its pending work on an explicit stack of frames, so
a deeply nested process costs no Python stack.
"""

from __future__ import annotations

from typing import Collection, Mapping, Optional

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
    # A type's parts are checked in field order, each before the type
    # that waits for its polarity, so faults are found in the order of a
    # depth-first, left-to-right walk.  waiting holds, per type whose part
    # is being checked, the type's polarity, its remaining parts, and the
    # part's wanted polarity and name (None for a rec's body).  Messages
    # name the connective, not the type, whose repr recurses.
    waiting = []
    pol, parts = _form_head(a, xi)
    while True:
        part = next(parts, None)
        if part is not None:
            t, t_xi, want, name = part
            waiting.append((a, pol, parts, want, name))
            a = t
            pol, parts = _form_head(t, t_xi)
            continue
        if not waiting:
            return pol
        got = pol
        a, pol, parts, want, name = waiting.pop()
        if got != want:
            raise IllFormed(f"{name} of {type(a).__name__} must be {want}" if name is not None
                            else f"rec {a.var} is {want} but its body is {got}")


def _form_head(a, xi):
    """a's polarity, and an iterator over its parts as (type, xi, the
    polarity it must have, its name); the iterator checks function types
    in field order as it goes."""
    entry = ast.POLARITIES.get(type(a))
    if entry is not None:
        return entry[0], _form_parts(a, entry[1], xi)
    if isinstance(a, ast.TVar):
        if a.name not in xi:
            raise UnboundTypeVariable(a.name)
        return xi[a.name], iter(())
    if isinstance(a, ast.Rec):
        # every rec of a chain has the chain's polarity, read once at its
        # top, and the chain's variables are bound in one copy of xi
        pol = ast.polarity(a, xi)
        inner = dict(xi)
        while isinstance(a, ast.Rec):
            inner[a.var] = pol
            a = a.body
        return pol, iter(((a, inner, pol, None),))
    raise IllFormed(f"not a session type: {a!r}")


def _form_parts(a, wants, xi):
    for f, role in ast.TYPE_ROLES[type(a)].items():
        v = getattr(a, f)
        if role is ast.FUNC_TYPE:
            check_functype(v)
        elif role is ast.CHILD or role is ast.BRANCHES:
            for part, t in (v if role is ast.BRANCHES else ((f, v),)):
                yield t, xi, wants[f], part


def check_functype(t: ast.FuncType) -> None:
    # the fold walks nested arrows; process types are checked left to right
    ast.fold(t, _arrow_parts, _check_proctype)


def _arrow_parts(t, _) -> list:
    return [t.arg, t.res] if isinstance(t, ast.Arrow) else []


def _check_proctype(t, _, __) -> None:
    if not isinstance(t, (ast.Arrow, ast.ProcType)):
        raise IllFormed(f"not a functional type: {t!r}")
    pairs = (t.offered, *t.used) if isinstance(t, ast.ProcType) else ()
    if len({c for c, _ in pairs}) != len(pairs):
        raise IllFormed("a process type repeats a channel name")
    for _, a in pairs:
        check_type(a)


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
    cname, ctype = offered
    delta = dict(used) if used else {}
    if cname in delta:
        raise SillTypeError(f"offered channel {cname} also appears on the left")
    env = dict(env) if env else {}
    # The current frame is (p, cname, ctype, delta, env).  A construct with
    # one continuation moves it on; the branches of a case and the right
    # side of a cut wait on a stack, pushed in reverse so that faults are
    # found in the order of a depth-first, left-to-right walk; a leaf takes
    # the next waiting frame.  A frame owns its context and may change it.
    # free keeps the free channels of the subprocesses cuts have walked
    waiting = []
    free: dict = {}
    while True:
        comm = ast.comm_kind(p)
        if comm is not None:
            kind, sends = comm
            a = p.chan
            mine = a == cname
            t = ctype if mine else _need(delta, a)
            # the provider sends at a positive type and receives at a
            # negative one, the client the other way round
            want = POSITIVE if sends == mine else NEGATIVE
            conns = ast.MSG_TYPES[kind]
            if not (isinstance(t, conns[want is NEGATIVE]) if len(conns) == 2
                    else isinstance(t, conns) and ast.polarity(t) == want):
                raise SillTypeError(
                    f"cannot {'send' if sends else 'receive'} a {kind} message "
                    f"on {a}: {t} is not a {want} {kind} type")
            if kind == "label" and not sends:
                if t.labels() != p.labels():
                    raise SillTypeError(
                        f"case on {a} must cover exactly the labels of {t}")
                for label, q in reversed(p.branches):
                    (after,) = ast.message_cont(kind, t, label)
                    if mine:
                        waiting.append((q, cname, after, dict(delta), env))
                    else:
                        waiting.append((q, cname, ctype, {**delta, a: after}, env))
            else:
                conts = ast.message_cont(kind, t, p.label if kind == "label" else None)
                if kind == "chan":
                    if sends:
                        b = p.payload
                        if b == a:
                            raise SillTypeError(f"cannot send channel {b} on itself")
                        bt = _need(delta, b)
                        if not ast.type_eq(bt, conts[0]):
                            raise SillTypeError(
                                f"payload {b} has type {bt}, expected {conts[0]}")
                        del delta[b]
                    else:
                        x = p.var
                        if x == cname or x in delta:
                            raise SillTypeError(
                                f"received channel name {x} is already in scope")
                        delta[x] = conts[0]
                elif kind == "val":
                    if sends:
                        check_term(p.term, env, t.vtype)
                    else:
                        env = {**env, p.var: t.vtype}
                if mine:
                    if conts:
                        p, ctype = p.cont, conts[-1]
                        continue
                    _leaf(delta, "close")
                else:
                    if conts:
                        delta[a] = conts[-1]
                    else:
                        del delta[a]
                    p = p.cont
                    continue

        elif isinstance(p, (ast.FwdPos, ast.FwdNeg)):
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

        elif isinstance(p, ast.Cut):
            x = p.chan
            if p.ann is None:
                raise SillTypeError(f"cut binding {x} needs a type annotation")
            check_type(p.ann)
            if x == cname or x in delta:
                raise SillTypeError(f"cut reuses the channel name {x}")
            fcl = ast.fc(p.left, free)
            fcr = ast.fc(p.right, free)
            dup = (fcl & fcr) & set(delta)
            if dup:
                raise LinearityError("channels used on both sides of a cut: "
                                     + ", ".join(sorted(dup)))
            left_delta = {c: t for c, t in delta.items() if c in fcl}
            right_delta = {c: t for c, t in delta.items() if c not in fcl}
            right_delta[x] = p.ann
            waiting.append((p.right, cname, ctype, right_delta, env))
            p, cname, ctype, delta = p.left, x, p.ann, left_delta
            continue

        elif isinstance(p, ast.Unquote):
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

        else:
            raise SillTypeError(f"not a process: {p!r}")
        if not waiting:
            return
        p, cname, ctype, delta, env = waiting.pop()


def _leaf(delta, what):
    if delta:
        raise LinearityError(f"{what} leaves channels unused: "
                             + ", ".join(sorted(delta)))


def _need(delta, c):
    if c not in delta:
        raise SillTypeError(f"channel {c} is not in scope")
    return delta[c]


# -- configurations ------------------------------------------------------------


def _type_fact(f: ast.ConfigFact, uses: Collection[str],
               types: Mapping[str, ast.SessionType]) -> None:
    """Type one fact at the given channel types: each of its channels has
    a type, a msg fact holds a message, and its process provides its own
    channel using exactly the others, the channels in uses."""
    missing = sorted(c for c in [f.chan, *uses] if c not in types)
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
    ``check`` then types the added facts the caller handed over (it may
    vouch for a fact's typing instead), applies the channel rule to the
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
        # key -> [its channel, the channels it consumes, multiplicity, the
        # fact while it waits to be typed, or None]
        self._facts: dict = {}
        self._added: list = []
        self._touched: set[str] = set(self.used)

    def count(self, key) -> int:
        entry = self._facts.get(key)
        return entry[2] if entry else 0

    def add(self, key, chan: str, chans: set[str], n: int = 1,
            fact: Optional[ast.ConfigFact] = None) -> None:
        """Add n occurrences of a fact that provides chan and names the
        channels chans.  A new fact is typed at the next check when the
        caller gives it as fact; without it, the caller vouches that it
        types at the channel types."""
        entry = self._facts.get(key)
        if entry is None:
            entry = self._facts[key] = [chan, sorted(chans - {chan}), 0, fact]
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
        chan, uses = entry[0], entry[1]
        slots = [(self.providers, chan)] + [(self.consumers, c) for c in uses]
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
            entry = self._facts[k]
            if entry[3] is not None:
                _type_fact(entry[3], entry[1], self.types)
                entry[3] = None
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
            c: Optional[str] = self._facts[k][0]
            while c is not None and c not in done:
                if c in path:
                    raise CyclicSharing(f"facts around channel {c} form a cycle")
                path[c] = None
                nxt = self.consumers.get(c)
                c = self._facts[nxt[0]][0] if nxt else None
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
        typing.add(i, f.chan, ast.fc(f.proc) | {f.chan}, fact=f)
    typing.check()
    absent = sorted(c for c, _ in claimed.internal + claimed.provided
                    if c not in typing.providers)
    if absent:
        raise InterfaceMismatch(f"claimed channels {absent} have no provider")

    providers = {c: facts[keys[0]] for c, keys in typing.providers.items()}
    # each fact's channels, sorted, as the typing read them off it
    children = {c: [ch for ch in typing._facts[keys[0]][1] if ch in providers]
                for c, keys in typing.providers.items()}
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
                    _type_fact(f, ast.fc(f.proc) - {f.chan}, types)
        else:
            raise SillError(f"unknown declaration {d!r}")
