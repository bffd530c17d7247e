"""Facts and states.

Facts are hash-consed like the terms they hold (see ``terms``): equal facts
are one object, so a state's dict and set operations hash and compare by
address, and a fact's variables and order key are computed once.

A state has a persistent part (a set of facts, monotonically growing) and an
ephemeral part (a finite multiset).  The multiset operations are pointwise on
multiplicities: sum adds, intersection takes the min, difference
truncates at zero, and inclusion compares pointwise.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

from .terms import (InternRef, Term, immutable, intern_table, rename_consts, term_consts,
                    term_key, term_to_str, union_vars)

_FACTS, _facts_gone = intern_table()


class Fact:
    """A fact, interned like the terms: one object per (pred, args,
    persistent), equality by identity, variables known from construction
    and the order key (``fact_key``) kept once asked for.

    ``memo`` holds what a client layer derives from the fact alone (the
    process layer keeps its decoding there), set once with
    ``Fact.remember``, so the derived data lives exactly as long as the
    fact does."""

    __slots__ = ("pred", "args", "persistent", "vars", "_key", "memo", "__weakref__")

    def __new__(cls, pred: str, args: tuple[Term, ...] = (), persistent: bool = False) -> "Fact":
        # interned as the terms are (see terms.py)
        key = (pred, args, persistent)
        ref = _FACTS.get(key)
        if ref is not None:
            f = ref()
            if f is not None:
                return f
        f = object.__new__(cls)
        _fact_pred(f, pred)
        _fact_args(f, args)
        _fact_persistent(f, persistent)
        _fact_vars(f, union_vars(args))
        _fact_key(f, None)
        _fact_memo(f, None)
        ref = _FACTS[key] = InternRef(f, _facts_gone)
        ref.key = key
        return f

    __setattr__ = __delattr__ = immutable

    def __repr__(self) -> str:
        return f"Fact(pred={self.pred!r}, args={self.args!r}, persistent={self.persistent!r})"

    def remember(self, value):
        """Set ``memo`` to value, which must be derived from the fact
        alone, and return it."""
        _fact_memo(self, value)
        return value

    def rename(self, rho: Mapping[str, str]) -> "Fact":
        return Fact(self.pred, tuple(rename_consts(a, rho) for a in self.args), self.persistent)

    def consts(self) -> set[str]:
        return fact_consts(self)


_fact_pred, _fact_args, _fact_persistent = (Fact.pred.__set__, Fact.args.__set__,
                                            Fact.persistent.__set__)
_fact_vars, _fact_key, _fact_memo = Fact.vars.__set__, Fact._key.__set__, Fact.memo.__set__


def fact_key(f: Fact) -> tuple:
    """Total order key on facts, built once and kept on the fact."""
    if f._key is None:
        _fact_key(f, (f.pred, f.persistent, tuple([term_key(a) for a in f.args])))
    return f._key


def fact_to_str(f: Fact) -> str:
    bang = "!" if f.persistent else ""
    if not f.args:
        return f"{bang}{f.pred}"
    return f"{bang}{f.pred}({', '.join(term_to_str(a) for a in f.args)})"


def fact_vars(f: Fact) -> frozenset[str]:
    return f.vars


def fact_consts(f: Fact) -> set[str]:
    out: set[str] = set()
    for a in f.args:
        out |= term_consts(a)
    return out


class Multiset:
    """A state: persistent fact set plus ephemeral fact multiset.

    Immutable, with one exception: ``rewrite_in_place`` changes a state
    that no reader holds, such as a trace's live state (``Trace.live``) or
    a copy made for the purpose (``copy``, ``rewrite``).
    """

    __slots__ = ("_eph", "_pers", "_hash")

    def __init__(self, eph: Mapping[Fact, int] | None = None, pers: Iterable[Fact] = ()):
        clean: dict[Fact, int] = {}
        if eph:
            for f, n in eph.items():
                if n < 0:
                    raise ValueError(f"negative multiplicity for {fact_to_str(f)}")
                if n > 0:
                    if f.persistent:
                        raise ValueError("persistent fact in ephemeral part")
                    clean[f] = n
        self._eph = clean
        self._pers = frozenset(pers)
        for f in self._pers:
            if not f.persistent:
                raise ValueError("ephemeral fact in persistent part")
        self._hash: int | None = None

    @staticmethod
    def of(eph: Iterable[Fact] = (), pers: Iterable[Fact] = ()) -> "Multiset":
        counts: dict[Fact, int] = {}
        for f in eph:
            counts[f] = counts.get(f, 0) + 1
        return Multiset(counts, pers)

    @classmethod
    def _make(cls, eph: dict[Fact, int], pers: frozenset[Fact]) -> "Multiset":
        # trusted constructor for internally produced parts: skips
        # validation and takes the dict as it is
        m = object.__new__(cls)
        m._eph = eph
        m._pers = pers
        m._hash = None
        return m

    # -- access -----------------------------------------------------------

    @property
    def pers(self) -> frozenset[Fact]:
        return self._pers

    def count(self, f: Fact) -> int:
        if f.persistent:
            return 1 if f in self._pers else 0
        return self._eph.get(f, 0)

    def eph_items(self) -> Iterator[tuple[Fact, int]]:
        return iter(self._eph.items())

    def eph_support(self) -> Iterator[Fact]:
        return iter(self._eph.keys())

    def support(self) -> set[Fact]:
        """All facts present, persistent and ephemeral, as a set."""
        return set(self._eph.keys()) | set(self._pers)

    def consts(self) -> set[str]:
        out: set[str] = set()
        for f in self.support():
            out |= fact_consts(f)
        return out

    # -- equality ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Multiset):
            return NotImplemented
        return self._eph == other._eph and self._pers == other._pers

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((frozenset(self._eph.items()), self._pers))
        return self._hash

    def __repr__(self) -> str:
        return f"Multiset({self.to_str()!r})"

    def to_str(self) -> str:
        parts = [fact_to_str(f) for f in sorted(self._pers, key=fact_key)]
        for f in sorted(self._eph, key=fact_key):
            parts.extend([fact_to_str(f)] * self._eph[f])
        return ", ".join(parts) if parts else "."

    # -- algebra on the ephemeral part --------------------------------------

    def msum(self, other: "Multiset") -> "Multiset":
        out = dict(self._eph)
        for f, n in other._eph.items():
            out[f] = out.get(f, 0) + n
        return Multiset._make(out, self._pers | other._pers)

    def minter(self, other: "Multiset") -> "Multiset":
        keys = set(self._eph) & set(other._eph)
        out = {f: min(self._eph[f], other._eph[f]) for f in keys}
        return Multiset(out, self._pers & other._pers)

    def mdiff(self, other: "Multiset") -> "Multiset":
        """Pointwise difference truncated at zero; persistent part kept."""
        out = dict(self._eph)
        for f, n in other._eph.items():
            cur = out.get(f, 0)
            if cur <= n:
                out.pop(f, None)
            else:
                out[f] = cur - n
        return Multiset._make(out, self._pers)

    def copy(self) -> "Multiset":
        """An equal state whose ephemeral part is a new dict, so that
        ``rewrite_in_place`` may change it."""
        return Multiset._make(dict(self._eph), self._pers)

    def rewrite(self, consumed: "Multiset", produced: "Multiset") -> "Multiset":
        """``self.mdiff(consumed).msum(produced)``: a copy of the state,
        rewritten in place."""
        out = self.copy()
        out.rewrite_in_place(consumed, produced)
        return out

    def rewrite_in_place(self, consumed: "Multiset", produced: "Multiset") -> None:
        """Become ``self.mdiff(consumed).msum(produced)``, at the cost of
        the facts consumed and produced.  The persistent part is replaced
        only when produced adds a fact to it.  Only for a state that no
        reader holds (see the class docstring)."""
        eph = self._eph
        for f, n in consumed._eph.items():
            cur = eph.get(f, 0)
            if cur <= n:
                eph.pop(f, None)
            else:
                eph[f] = cur - n
        for f, n in produced._eph.items():
            eph[f] = eph.get(f, 0) + n
        if not produced._pers <= self._pers:
            self._pers = self._pers | produced._pers
        self._hash = None

    def leq(self, other: "Multiset") -> bool:
        """Pointwise inclusion of the ephemeral parts and set inclusion of
        the persistent parts."""
        if not self._pers <= other._pers:
            return False
        eph = other._eph
        for f, n in self._eph.items():
            if eph.get(f, 0) < n:
                return False
        return True

    def with_pers(self, extra: Iterable[Fact]) -> "Multiset":
        extra = frozenset(extra)
        for f in extra:
            if not f.persistent:
                raise ValueError("ephemeral fact in persistent part")
        return Multiset._make(self._eph, self._pers | extra)

    def rename(self, rho: Mapping[str, str]) -> "Multiset":
        eph: dict[Fact, int] = {}
        for f, n in self._eph.items():
            g = f.rename(rho)
            eph[g] = eph.get(g, 0) + n
        return Multiset(eph, (f.rename(rho) for f in self._pers))


EMPTY = Multiset()
