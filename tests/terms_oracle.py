"""The term walks as they were before terms were hash-consed.

A reference for the differential tests in ``tests/test_terms.py``:
``term_vars``, ``term_consts``, ``subst_term``, ``rename_consts``,
``term_key``, ``match_term`` and ``term_to_str`` from ``sill.msr.terms`` and
``fact_key`` from
``sill.msr.multiset``, each a plain recursive walk that recomputes its
answer on every call.  Every result here is one that the interned terms,
with their kept variable sets and keys and their iterative walks, must
reproduce (on terms shallow enough for the recursion).
"""

from __future__ import annotations

from typing import Mapping, Optional

from sill.msr.multiset import Fact
from sill.msr.terms import App, Const, Term, Var


def term_vars(t: Term) -> set[str]:
    if isinstance(t, Var):
        return {t.name}
    if isinstance(t, App):
        out: set[str] = set()
        for a in t.args:
            out |= term_vars(a)
        return out
    return set()


def term_consts(t: Term) -> set[str]:
    """Names of all constants occurring in t (not inside wraps)."""
    if isinstance(t, Const):
        return {t.name}
    if isinstance(t, App):
        out: set[str] = set()
        for a in t.args:
            out |= term_consts(a)
        return out
    return set()


def subst_term(t: Term, theta: Mapping[str, Term]) -> Term:
    if isinstance(t, Var):
        return theta.get(t.name, t)
    if isinstance(t, App):
        return App(t.fn, tuple(subst_term(a, theta) for a in t.args))
    return t


def rename_consts(t: Term, rho: Mapping[str, str]) -> Term:
    if isinstance(t, Const):
        return Const(rho.get(t.name, t.name))
    if isinstance(t, App):
        return App(t.fn, tuple(rename_consts(a, rho) for a in t.args))
    return t


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
        return theta if bound == ground else None
    if isinstance(pat, Const):
        return theta if pat == ground else None
    if isinstance(pat, App):
        if not isinstance(ground, App) or pat.fn != ground.fn or len(pat.args) != len(ground.args):
            return None
        for p, g in zip(pat.args, ground.args):
            if match_term(p, g, theta) is None:
                return None
        return theta
    # Wrap: opaque, must be identical
    return theta if pat == ground else None


def term_key(t: Term) -> tuple:
    """Total order key on ground terms (and patterns), for determinism."""
    if isinstance(t, Const):
        return (0, t.name)
    if isinstance(t, Var):
        return (1, t.name)
    if isinstance(t, App):
        return (2, t.fn, tuple(term_key(a) for a in t.args))
    return (3, str(t.payload))


def fact_key(f: Fact) -> tuple:
    return (f.pred, f.persistent, tuple(term_key(a) for a in f.args))


def term_to_str(t: Term) -> str:
    if isinstance(t, Const):
        return t.name
    if isinstance(t, Var):
        return t.name
    if isinstance(t, App):
        return f"{t.fn}({', '.join(term_to_str(a) for a in t.args)})"
    return str(t)
