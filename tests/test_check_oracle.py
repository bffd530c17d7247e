"""Differential tests: the table-driven type checker in ``sill.lang.check``
against the case-per-construct one in ``check_oracle``.

Both must agree on every input: each accepts, or each raises an exception
of the same class.  Three sources of processes feed the comparison:

- random processes (``test_lang._procs``) under random typings, which the
  checkers almost always reject, so every kind of fault is reached;
- a type-directed generator that draws a closed typing and builds a
  process for it, one typing rule at a time, so acceptance is exercised
  for every construct; and single-point mutations of what it builds (a
  changed label, a renamed channel, a dropped step), which are near
  misses;
- the processes of ``test_dynamics.corpus()`` and their mutations.

Types come from ``test_lang._types``; formation and polarity are compared
on them.
"""

import dataclasses
import random

import check_oracle as ref
from hypothesis import given, settings, strategies as st
from test_dynamics import corpus
from test_lang import _procs, _types

from sill.lang import ast, check
from sill.lang.ast import (
    NEGATIVE,
    POSITIVE,
    AndVal,
    Arrow,
    Case,
    Close,
    Cut,
    Down,
    FApp,
    Fix,
    FVar,
    FwdNeg,
    FwdPos,
    ImpVal,
    Lam,
    Lolli,
    One,
    Plus,
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
    Tensor,
    TVar,
    Unquote,
    Up,
    Wait,
    With,
)
from sill.lang.errors import SillError


def _outcome(f, *args):
    """'ok', or the class name of the error raised."""
    try:
        f(*args)
    except SillError as e:
        return type(e).__name__
    return "ok"


def _agree(p, offered, used, env=None):
    """Check p both ways; return the common outcome."""
    got = _outcome(check.check_proc, p, offered, used, env)
    want = _outcome(ref.check_proc, p, offered, used, env)
    assert got == want, (ast.proc_to_str(p), offered, used, got, want)
    return got


# -- random processes under random typings -------------------------------------------

# each process is checked at 8 typings; with 1500 processes and 1000 lists of
# 8 types, the two tests below compare 20,000 cases
_TYPINGS_PER_PROC = 8


@settings(derandomize=True, max_examples=1500, deadline=None)
@given(_procs(3), st.lists(_types(2), min_size=4, max_size=4))
def test_random_processes_match_the_reference(p, ts):
    # offered in turn on each name; the free names, and one that is not
    # free, are used at types taken from ts in rotation
    names = sorted(ast.fc(p) | {"a"})
    for i in range(_TYPINGS_PER_PROC):
        c = "abcd"[i % 4]
        used = [d for d in names if d != c]
        if i >= 4:
            used = used[:-1]
        typing = {d: ts[(i + 1 + k) % 4] for k, d in enumerate(used)}
        _agree(p, (c, ts[i % 4]), typing)


@settings(derandomize=True, max_examples=1000, deadline=None)
@given(st.lists(_types(4), min_size=8, max_size=8))
def test_formation_and_polarity_match_the_reference(ts):
    for a in ts:
        assert _outcome(check.check_type, a) == _outcome(ref.check_type, a), a
        try:
            got = ast.polarity(a)
        except (SillError, TypeError) as e:
            got = type(e)
        try:
            want = ref.polarity(a)
        except (SillError, TypeError) as e:
            want = type(e)
        assert got == want, a


# -- type-directed processes -----------------------------------------------------------

LABELS = ("l", "r", "z", "s")
CHANS = ("a", "b", "c", "d", "e", "x", "y")
FVARS = ("v", "w")


def _type(rng, pol, depth, xi=None):
    """A closed, well-formed session type of polarity pol; xi maps the
    recursion variables in scope to their polarities."""
    xi = xi or {}
    tvars = [TVar(v) for v, q in sorted(xi.items()) if q == pol]
    if depth <= 0:
        leaves = [One(), Plus(())] if pol == POSITIVE else [With(()), Up(One())]
        return rng.choice(leaves + tvars)
    sub = depth - 1
    kind = rng.choice(["rec", "var", "branch", "branch", "pair", "shift", "val", "unit"])
    if kind == "rec":
        v = rng.choice(["p", "q"])
        body = None
        while body is None or isinstance(body, TVar):
            body = _type(rng, pol, sub, {**xi, v: pol})
        return Rec(v, body)
    if kind == "var" and tvars:
        return rng.choice(tvars)
    if kind == "branch":
        labels = rng.sample(LABELS, rng.randint(0, 2))
        bs = {l: _type(rng, pol, sub, xi) for l in labels}
        return Plus(bs) if pol == POSITIVE else With(bs)
    if kind == "pair":
        left = _type(rng, POSITIVE, sub, xi)
        return Tensor(left, _type(rng, POSITIVE, sub, xi)) if pol == POSITIVE \
            else Lolli(left, _type(rng, NEGATIVE, sub, xi))
    if kind == "shift":
        return Down(_type(rng, NEGATIVE, sub, xi)) if pol == POSITIVE \
            else Up(_type(rng, POSITIVE, sub, xi))
    if kind == "val":
        body = _type(rng, pol, sub, xi)
        return AndVal(_functype(rng), body) if pol == POSITIVE \
            else ImpVal(_functype(rng), body)
    return One() if pol == POSITIVE else Up(One())


def _functype(rng):
    pt = ProcType(("o", _type(rng, rng.choice([POSITIVE, NEGATIVE]), 1)),
                  tuple(("u", _type(rng, POSITIVE, 1)) for _ in range(rng.randint(0, 1))))
    return Arrow(pt, pt) if rng.random() < 0.25 else pt


def _any_type(rng, depth=2):
    return _type(rng, rng.choice([POSITIVE, NEGATIVE]), depth)


def _spin(offered, used):
    """A closed term of type {offered <- used}: a process that unquotes
    itself forever.  It fits any typing, so it ends every branch that runs
    out of fuel."""
    names = tuple(f"u{i}" for i in range(len(used)))
    return Fix("f", Quote(("q", offered), Unquote("q", FVar("f"), names),
                          tuple(zip(names, used))))


class _Builder:
    """Build a process for a typing, choosing among the typing rules that
    fit the current offered and used channels; fuel bounds the depth."""

    def __init__(self, rng):
        self.rng = rng

    def fresh(self, scope):
        free = [n for n in CHANS if n not in scope]
        return self.rng.choice(free) if free else f"n{len(scope)}"

    def proc(self, c, a, delta, env, fuel):
        rng = self.rng
        options = []  # (weight, thunk)
        if isinstance(a, One) and not delta:
            options.append((4, lambda: Close(c)))
        if len(delta) == 1:
            (d, b), = delta.items()
            if ast.type_eq(a, b):
                fwd = FwdPos if ast.polarity(a) == POSITIVE else FwdNeg
                options.append((4, lambda: fwd(d, c)))
        if fuel > 0:
            options.append((3, lambda: self.provide(c, a, delta, env, fuel - 1)))
            for d in sorted(delta):
                options.append((2, lambda d=d: self.use(c, a, d, delta, env, fuel - 1)))
            options.append((1, lambda: self.cut(c, a, delta, env, fuel - 1)))
            options.append((0.3, lambda: self.unquote(c, a, delta, env, fuel - 1)))
        options.append((0.1 if fuel > 0 else 1, lambda: self.unquote(c, a, delta, env, 0)))
        while True:
            weights, thunks = zip(*options)
            i = rng.choices(range(len(options)), weights)[0]
            p = thunks[i]()
            if p is not None:
                return p
            del options[i]

    def provide(self, c, a, delta, env, fuel):
        """A right rule: act on the offered channel c : a."""
        go = self.proc
        if isinstance(a, Plus) and a.branches:
            label, b = self.rng.choice(a.branches)
            return SendLabel(c, label, go(c, b, delta, env, fuel))
        if isinstance(a, With):
            return Case(c, tuple((l, go(c, b, delta, env, fuel)) for l, b in a.branches))
        if isinstance(a, Tensor):
            fit = [d for d in sorted(delta) if ast.type_eq(delta[d], a.left)]
            if not fit:
                return None
            d = self.rng.choice(fit)
            rest = {k: t for k, t in delta.items() if k != d}
            return SendChan(c, d, go(c, a.right, rest, env, fuel))
        if isinstance(a, Lolli):
            x = self.fresh({c, *delta})
            return RecvChan(x, c, go(c, a.right, {**delta, x: a.left}, env, fuel))
        if isinstance(a, (Down, Up)):
            cls = SendShift if isinstance(a, Down) else RecvShift
            return cls(c, go(c, a.body, delta, env, fuel))
        if isinstance(a, Rec):
            cls = SendUnfold if ast.polarity(a) == POSITIVE else RecvUnfold
            return cls(c, go(c, ast.unfold_rec(a), delta, env, fuel))
        if isinstance(a, AndVal):
            return SendVal(c, self.term(a.vtype, env, fuel), go(c, a.body, delta, env, fuel))
        if isinstance(a, ImpVal):
            v = self.rng.choice(FVARS)
            return RecvVal(v, c, go(c, a.body, delta, {**env, v: a.vtype}, fuel))
        return None

    def use(self, c, a, d, delta, env, fuel):
        """A left rule: act on the used channel d."""
        b = delta[d]

        def go(db, extra=None, env=env, drop=()):
            inner = {k: t for k, t in delta.items() if k not in drop}
            if db is not None:
                inner[d] = db
            else:
                del inner[d]
            inner.update(extra or {})
            return self.proc(c, a, inner, env, fuel)

        if isinstance(b, One):
            return Wait(d, go(None))
        if isinstance(b, Plus):
            return Case(d, tuple((l, go(t)) for l, t in b.branches))
        if isinstance(b, With) and b.branches:
            label, t = self.rng.choice(b.branches)
            return SendLabel(d, label, go(t))
        if isinstance(b, Tensor):
            x = self.fresh({c, *delta})
            return RecvChan(x, d, go(b.right, {x: b.left}))
        if isinstance(b, Lolli):
            fit = [e for e in sorted(delta) if e != d and ast.type_eq(delta[e], b.left)]
            if not fit:
                return None
            e = self.rng.choice(fit)
            return SendChan(d, e, go(b.right, drop=(e,)))
        if isinstance(b, (Down, Up)):
            cls = RecvShift if isinstance(b, Down) else SendShift
            return cls(d, go(b.body))
        if isinstance(b, Rec):
            cls = RecvUnfold if ast.polarity(b) == POSITIVE else SendUnfold
            return cls(d, go(ast.unfold_rec(b)))
        if isinstance(b, AndVal):
            v = self.rng.choice(FVARS)
            return RecvVal(v, d, go(b.body, env={**env, v: b.vtype}))
        if isinstance(b, ImpVal):
            return SendVal(d, self.term(b.vtype, env, fuel), go(b.body))
        return None

    def cut(self, c, a, delta, env, fuel):
        """Spawn a provider of a fresh channel from some of the context.
        The annotation is often a type some rule here is waiting for."""
        rng = self.rng
        wanted = [a]
        if isinstance(a, Tensor):
            wanted.append(a.left)
        wanted += [b.left for b in delta.values() if isinstance(b, Lolli)]
        ann = rng.choice(wanted) if rng.random() < 0.6 else _any_type(rng)
        x = self.fresh({c, *delta})
        part = {d: t for d, t in delta.items() if rng.random() < 0.5}
        left = self.proc(x, ann, part, env, fuel)
        # a case with no branches leaves its context unmentioned, and the
        # checker gives every channel not free on the left to the right
        taken = ast.fc(left)
        rest = {d: t for d, t in delta.items() if d not in taken}
        return Cut(x, ann, left, self.proc(c, a, {**rest, x: ann}, env, fuel))

    def unquote(self, c, a, delta, env, fuel):
        """Run a quoted process: a variable of the right type, a quote
        built here, or, out of fuel, the universal spin."""
        order = sorted(delta)
        self.rng.shuffle(order)
        used = [delta[d] for d in order]
        for v in sorted(env):
            ft = env[v]
            if (isinstance(ft, ProcType) and ast.type_eq(ft.offered[1], a)
                    and [t for _, t in ft.used] == used):
                return Unquote(c, FVar(v), tuple(order))
        if fuel > 0:
            names = tuple(f"u{i}" for i in range(len(used)))
            body = self.proc("q", a, dict(zip(names, used)), env, fuel)
            return Unquote(c, Quote(("q", a), body, tuple(zip(names, used))), tuple(order))
        return Unquote(c, _spin(a, used), tuple(order))

    def term(self, ft, env, fuel):
        """A closed term of functional type ft."""
        rng = self.rng
        fits = [v for v in sorted(env) if ast.functype_eq(env[v], ft)]
        if fits and rng.random() < 0.5:
            return FVar(rng.choice(fits))
        if isinstance(ft, Arrow):
            v = rng.choice(FVARS)
            return Lam(v, ft.arg, self.term(ft.res, {**env, v: ft.arg}, fuel))
        if rng.random() < 0.2:
            # a redex: (\v: pt. m) n
            v, pt = rng.choice(FVARS), ProcType(("o", One()))
            body = self.term(ft, {**env, v: pt}, fuel)
            return FApp(Lam(v, pt, body), self.term(pt, env, 0))
        (o, a), used = ft.offered, ft.used
        if fuel > 0 and rng.random() < 0.7:
            return Quote(ft.offered, self.proc(o, a, dict(used), env, fuel - 1), used)
        return _spin(a, [t for _, t in used])


def _well_typed(rng, fuel=5):
    """(process, offered, used): a closed typing and a process for it."""
    offered = ("c", _any_type(rng))
    names = [n for n in ("a", "b", "d") if rng.random() < 0.4]
    used = {n: _any_type(rng) for n in names}
    return _Builder(rng).proc(*offered, used, {}, fuel), offered, used


def _sites(p, path=()):
    """Every subprocess of p with its path; quoted processes are not
    entered."""
    yield path, p
    for f, role in ast.PROC_ROLES[type(p)].items():
        v = getattr(p, f)
        if role is ast.CHILD:
            yield from _sites(v, path + ((f, None),))
        elif role is ast.BRANCHES:
            for i, (_, q) in enumerate(v):
                yield from _sites(q, path + ((f, i),))


def _replace(p, path, new):
    if not path:
        return new
    (f, i), rest = path[0], path[1:]
    v = getattr(p, f)
    if i is None:
        return dataclasses.replace(p, **{f: _replace(v, rest, new)})
    branches = list(v)
    label, q = branches[i]
    branches[i] = (label, _replace(q, rest, new))
    return dataclasses.replace(p, **{f: tuple(branches)})


def _mutants(p):
    """Single-point changes of p: a label changed, a channel renamed, or a
    wait (or any other step with one continuation) dropped."""
    out = []
    for path, q in _sites(p):
        roles = ast.PROC_ROLES[type(q)]
        if isinstance(q, SendLabel):
            out += [_replace(p, path, dataclasses.replace(q, label=l))
                    for l in LABELS if l != q.label]
        if isinstance(q, Case):
            other = next(l for l in LABELS + ("q",) if l not in q.labels())
            for i, (_, r) in enumerate(q.branches):
                bs = q.branches[:i] + ((other, r),) + q.branches[i + 1:]
                out.append(_replace(p, path, Case(q.chan, bs)))
        for f, role in roles.items():
            if role is ast.CHAN or role is ast.CHAN_BINDER:
                out += [_replace(p, path, dataclasses.replace(q, **{f: n}))
                        for n in ("a", "c", "x") if n != getattr(q, f)]
        if "cont" in roles:
            out.append(_replace(p, path, q.cont))
    return out


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.randoms(use_true_random=False), st.randoms(use_true_random=False))
def test_well_typed_processes_and_their_near_misses_match_the_reference(rng, pick):
    p, offered, used = _well_typed(rng)
    assert _agree(p, offered, used) == "ok"
    mutants = _mutants(p)
    for q in pick.sample(mutants, min(len(mutants), 6)):
        _agree(q, offered, used)


def test_type_directed_processes_reach_every_construct_and_are_accepted():
    # the share of generated processes both checkers accept is 1: each is
    # built by the typing rules; most of their mutants are rejected
    seen = set()
    mutants = rejected = 0
    for seed in range(300):
        rng = random.Random(seed)
        p, offered, used = _well_typed(rng)
        seen.update(type(q) for _, q in _sites(p))
        assert _agree(p, offered, used) == "ok", seed
        near = _mutants(p)
        for q in rng.sample(near, min(len(near), 3)):
            mutants += 1
            rejected += _agree(q, offered, used) != "ok"
    assert seen == set(ast.PROC_ROLES)
    assert rejected >= 0.6 * mutants, (rejected, mutants)


def test_corpus_processes_and_their_mutants_match_the_reference():
    rng = random.Random(0)
    checked = 0
    for name, facts, iface in corpus():
        types = iface.all_types()
        for f in facts:
            used = {d: types[d] for d in ast.fc(f.proc) - {f.chan}}
            offered = (f.chan, types[f.chan])
            assert _agree(f.proc, offered, used) == "ok", name
            near = _mutants(f.proc)
            for q in rng.sample(near, min(len(near), 8)):
                _agree(q, offered, used)
                checked += 1
    assert checked > 100
