"""First-order terms over constants, variables and function symbols.

A fourth form, :class:`Wrap`, carries an opaque ground payload (the process
layer stores typed ASTs in facts this way).  Pattern matching never descends
into a payload; two wraps match only if their payloads are equal.

Terms are hash-consed (Filliâtre and Conchon, *Type-Safe Modular
Hash-Consing*, 2006): a constructor returns the one existing object for its
value, so equal terms are identical.  Equality is identity and the hash is
the object's address, so dict and set operations on terms run no Python
code.  The intern tables hold their terms weakly: a term lives exactly as
long as something else uses it.  Each term is immutable, knows its
variable set from construction, and keeps its order key (``term_key``)
once the key is first asked for.  No walk here uses Python recursion, so
arbitrarily deep terms are keyed and substituted.
"""

from __future__ import annotations

import weakref
from typing import Iterator, Mapping, Optional, Union

Term = Union["Const", "Var", "App", "Wrap"]

NO_VARS: frozenset[str] = frozenset()


class InternRef(weakref.ref):
    """A weak reference to an interned object, carrying its table key so
    the table entry can be dropped when the object dies."""

    __slots__ = ("key",)


def intern_table() -> tuple[dict, object]:
    """A table from value keys to weak references, and the callback that
    removes an entry when its object dies.  The entry may already hold a
    newer object for the same key, which stays."""
    table: dict = {}

    def gone(ref: InternRef) -> None:
        other = table.pop(ref.key, None)
        if other is not ref and other is not None:
            table[ref.key] = other

    return table, gone


def immutable(self, *_) -> None:
    """``__setattr__`` and ``__delattr__`` of an interned class."""
    raise AttributeError(f"{type(self).__name__} is immutable")


_CONSTS, _consts_gone = intern_table()
_VARS, _vars_gone = intern_table()
_APPS, _apps_gone = intern_table()
_WRAPS, _wraps_gone = intern_table()

# Each constructor looks its value up and, when it is missing or dead,
# builds the object, writing the slots through their descriptors (past the
# __setattr__ that makes it immutable), and enters it.  This is written out
# in each class: a shared helper taking the slots as keywords made a
# construction that misses the table almost twice as slow.


class Const:
    __slots__ = ("name", "vars", "_key", "__weakref__")

    def __new__(cls, name: str) -> "Const":
        ref = _CONSTS.get(name)
        if ref is not None:
            t = ref()
            if t is not None:
                return t
        t = object.__new__(cls)
        _const_name(t, name)
        _const_vars(t, NO_VARS)
        _const_key(t, None)
        ref = _CONSTS[name] = InternRef(t, _consts_gone)
        ref.key = name
        return t

    __setattr__ = __delattr__ = immutable

    def __repr__(self) -> str:
        return f"Const(name={self.name!r})"


class Var:
    __slots__ = ("name", "vars", "_key", "__weakref__")

    def __new__(cls, name: str) -> "Var":
        ref = _VARS.get(name)
        if ref is not None:
            t = ref()
            if t is not None:
                return t
        t = object.__new__(cls)
        _var_name(t, name)
        _var_vars(t, frozenset((name,)))
        _var_key(t, None)
        ref = _VARS[name] = InternRef(t, _vars_gone)
        ref.key = name
        return t

    __setattr__ = __delattr__ = immutable

    def __repr__(self) -> str:
        return f"Var(name={self.name!r})"


class App:
    __slots__ = ("fn", "args", "vars", "_key", "__weakref__")

    def __new__(cls, fn: str, args: tuple[Term, ...]) -> "App":
        key = (fn, args)
        ref = _APPS.get(key)
        if ref is not None:
            t = ref()
            if t is not None:
                return t
        t = object.__new__(cls)
        _app_fn(t, fn)
        _app_args(t, args)
        _app_vars(t, union_vars(args))
        _app_key(t, None)
        ref = _APPS[key] = InternRef(t, _apps_gone)
        ref.key = key
        return t

    __setattr__ = __delattr__ = immutable

    def __repr__(self) -> str:
        return f"App(fn={self.fn!r}, args={self.args!r})"


class Wrap:
    """Opaque ground payload embedded in a term position.

    The payload must be hashable and have a deterministic ``str``.  Wraps
    are interned by the payload's type and value, so ``1`` and ``True``
    (equal, but printed differently) wrap to different terms.
    """

    __slots__ = ("payload", "vars", "_key", "__weakref__")

    def __new__(cls, payload: object) -> "Wrap":
        key = (type(payload), payload)
        ref = _WRAPS.get(key)
        if ref is not None:
            t = ref()
            if t is not None:
                return t
        t = object.__new__(cls)
        _wrap_payload(t, payload)
        _wrap_vars(t, NO_VARS)
        _wrap_key(t, None)
        ref = _WRAPS[key] = InternRef(t, _wraps_gone)
        ref.key = key
        return t

    __setattr__ = __delattr__ = immutable

    def __repr__(self) -> str:
        return f"Wrap(payload={self.payload!r})"

    def __str__(self) -> str:
        return f"<{self.payload}>"


_const_name, _const_vars, _const_key = (Const.name.__set__, Const.vars.__set__,
                                        Const._key.__set__)
_var_name, _var_vars, _var_key = Var.name.__set__, Var.vars.__set__, Var._key.__set__
_app_fn, _app_args, _app_vars, _app_key = (App.fn.__set__, App.args.__set__,
                                           App.vars.__set__, App._key.__set__)
_wrap_payload, _wrap_vars, _wrap_key = (Wrap.payload.__set__, Wrap.vars.__set__,
                                        Wrap._key.__set__)


def union_vars(args: tuple[Term, ...]) -> frozenset[str]:
    """The variables of the given terms together."""
    vs = NO_VARS
    for a in args:
        if a.vars:
            vs = vs | a.vars if vs else a.vars
    return vs


def term_vars(t: Term) -> frozenset[str]:
    return t.vars


def term_consts(t: Term) -> set[str]:
    """Names of all constants occurring in t (not inside wraps)."""
    return {s.name for s in iter_subterms(t) if type(s) is Const}


def subst_term(t: Term, theta: Mapping[str, Term]) -> Term:
    """t with each variable named in theta replaced by its image.  A
    subterm without variables is returned as it is, and each distinct
    subterm with variables is rebuilt once, children before parents."""
    if not t.vars:
        return t
    if type(t) is Var:
        return theta.get(t.name, t)
    done: dict[Term, Term] = {}
    # each entry: a term being rebuilt, its arguments still to visit, and
    # the rebuilt ones so far
    todo = [(t, iter(t.args), [])]
    while True:
        u, rest, new = todo[-1]
        for a in rest:
            if not a.vars:
                new.append(a)
            elif type(a) is Var:
                new.append(theta.get(a.name, a))
            else:
                b = done.get(a)
                if b is None:
                    todo.append((a, iter(a.args), []))
                    break
                new.append(b)
        else:
            todo.pop()
            b = App(u.fn, tuple(new))
            if not todo:
                return b
            done[u] = b
            todo[-1][2].append(b)


def rename_consts(t: Term, rho: Mapping[str, str]) -> Term:
    """t with each constant named in rho renamed.  Each distinct
    application is rebuilt once, children before parents, as in
    ``subst_term``."""
    if type(t) is Const:
        return Const(rho[t.name]) if t.name in rho else t
    if type(t) is not App:
        return t
    done: dict[Term, Term] = {}
    todo = [(t, iter(t.args), [])]
    while True:
        u, rest, new = todo[-1]
        for a in rest:
            if type(a) is Const:
                new.append(Const(rho[a.name]) if a.name in rho else a)
            elif type(a) is not App:
                new.append(a)
            else:
                b = done.get(a)
                if b is None:
                    todo.append((a, iter(a.args), []))
                    break
                new.append(b)
        else:
            todo.pop()
            b = App(u.fn, tuple(new))
            if not todo:
                return b
            done[u] = b
            todo[-1][2].append(b)


def match_term(pat: Term, ground: Term, theta: dict[str, Term]) -> Optional[dict[str, Term]]:
    """Extend theta so that pat[theta] == ground, or return None.

    Mutates and returns theta on success; the caller must copy if it needs
    to backtrack.
    """
    if isinstance(pat, Var):
        bound = theta.get(pat.name)
        if bound is None:
            theta[pat.name] = ground
            return theta
        return theta if bound is ground else None
    if isinstance(pat, App):
        if not isinstance(ground, App) or pat.fn != ground.fn or len(pat.args) != len(ground.args):
            return None
        for p, g in zip(pat.args, ground.args):
            if match_term(p, g, theta) is None:
                return None
        return theta
    # a constant or a wrap matches only itself
    return theta if pat is ground else None


def term_key(t: Term) -> tuple:
    """Total order key on ground terms (and patterns), for determinism.

    Built once per term, children first, and kept on the term."""
    key = t._key
    if key is not None:
        return key
    if type(t) is not App:
        return _leaf_key(t)
    # each entry: an application being keyed, its arguments still to
    # visit, and their keys so far
    todo = [(t, iter(t.args), [])]
    while True:
        u, rest, keys = todo[-1]
        for a in rest:
            key = a._key
            if key is None:
                if type(a) is App:
                    todo.append((a, iter(a.args), []))
                    break
                key = _leaf_key(a)
            keys.append(key)
        else:
            todo.pop()
            key = (2, u.fn, tuple(keys))
            _app_key(u, key)
            if not todo:
                return key
            todo[-1][2].append(key)


def _leaf_key(t: Term) -> tuple:
    cls = type(t)
    if cls is Const:
        key = (0, t.name)
    elif cls is Var:
        key = (1, t.name)
    else:
        key = (3, str(t.payload))
    object.__setattr__(t, "_key", key)
    return key


def term_to_str(t: Term) -> str:
    """The printed term, built from an explicit stack of the subterms and
    separators still to print, so a deep term prints."""
    out: list[str] = []
    todo: list = [t]
    while todo:
        u = todo.pop()
        cls = type(u)
        if cls is str:
            out.append(u)
        elif cls is App:
            out.append(f"{u.fn}(")
            todo.append(")")
            for i in range(len(u.args) - 1, -1, -1):
                todo.append(u.args[i])
                if i:
                    todo.append(", ")
        elif cls is Const or cls is Var:
            out.append(u.name)
        else:
            out.append(str(u))
    return "".join(out)


def iter_subterms(t: Term) -> Iterator[Term]:
    """t and its subterms, in pre-order, once per occurrence."""
    todo = [t]
    while todo:
        u = todo.pop()
        yield u
        if type(u) is App:
            todo.extend(reversed(u.args))
