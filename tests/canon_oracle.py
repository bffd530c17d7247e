"""Canonical forms of states up to renaming of generated constants.

Constants created during a run carry a marker character, so they can be
told apart from declared ones.  Canonicalization renames them so that two
states that differ only in the choice of generated names get the same
representation; the final names are assigned in order of first appearance
in the sorted rendering of the state.

The algorithm is colour refinement over the generated constants with
branching on ties, which is exact on the small states this package deals
with.
"""

from __future__ import annotations

from typing import Callable, Mapping, Optional

from sill.msr.multiset import Fact, Multiset, fact_key
from sill.msr.rules import is_generated_name
from sill.msr.terms import App, Const, Term


def ms_key(ms: Multiset) -> tuple:
    return (
        tuple(sorted(fact_key(f) for f in ms.pers)),
        tuple(sorted((fact_key(f), n) for f, n in ms.eph_items())),
    )


def _skeleton(t: Term, colors: Mapping[str, int], focus: str) -> tuple:
    if isinstance(t, Const):
        if t.name == focus:
            return ("@",)
        if t.name in colors:
            return ("?", colors[t.name])
        return ("c", t.name)
    if isinstance(t, App):
        return ("f", t.fn) + tuple(_skeleton(a, colors, focus) for a in t.args)
    return ("w", str(t))


def _contains(t: Term, name: str) -> bool:
    if isinstance(t, Const):
        return t.name == name
    if isinstance(t, App):
        return any(_contains(a, name) for a in t.args)
    return False


def _signature(c: str, ms: Multiset, colors: Mapping[str, int]) -> tuple:
    sig = []
    for f in ms.pers:
        if any(_contains(a, c) for a in f.args):
            sig.append((f.pred, True, tuple(_skeleton(a, colors, c) for a in f.args), 1))
    for f, n in ms.eph_items():
        if any(_contains(a, c) for a in f.args):
            sig.append((f.pred, False, tuple(_skeleton(a, colors, c) for a in f.args), n))
    sig.sort()
    return tuple(sig)


def _refine(ms: Multiset, colors: dict[str, int]) -> dict[str, int]:
    while True:
        sigs = {c: (colors[c], _signature(c, ms, colors)) for c in colors}
        order = sorted(set(sigs.values()))
        index = {s: i for i, s in enumerate(order)}
        new = {c: index[sigs[c]] for c in colors}
        if new == colors:
            return new
        colors = new


def _first_appearance_relabel(ms: Multiset, fresh: set[str]) -> tuple[Multiset, dict[str, str]]:
    order: list[str] = []

    def walk(t: Term):
        if isinstance(t, Const):
            if t.name in fresh and t.name not in order:
                order.append(t.name)
        elif isinstance(t, App):
            for a in t.args:
                walk(a)

    for f in sorted(ms.pers, key=fact_key):
        for a in f.args:
            walk(a)
    for f in sorted(ms.eph_support(), key=fact_key):
        for a in f.args:
            walk(a)
    rho = {c: f"%{i}" for i, c in enumerate(order)}
    return ms.rename(rho), rho


def canonical_form(ms: Multiset) -> tuple[Multiset, dict[str, str]]:
    """Canonical representative of ms up to renaming generated constants.

    Returns the renamed state and the mapping applied.
    """
    renameable = {c for c in ms.consts() if is_generated_name(c)}
    if not renameable:
        return ms, {}

    best: Optional[tuple] = None
    best_ms: Optional[Multiset] = None
    best_rho: Optional[dict[str, int]] = None

    def interchangeable(c: str, d: str) -> bool:
        return ms.rename({c: d, d: c}) == ms

    def search(colors: dict[str, int]):
        nonlocal best, best_ms, best_rho
        colors = _refine(ms, colors)
        classes: dict[int, list[str]] = {}
        for c, col in colors.items():
            classes.setdefault(col, []).append(c)
        split = None
        for col in sorted(classes):
            if len(classes[col]) > 1:
                split = sorted(classes[col])
                break
        if split is None:
            rho = {c: f"%%{colors[c]}" for c in colors}
            cand = ms.rename(rho)
            key = ms_key(cand)
            if best is None or key < best:
                best, best_ms, best_rho = key, cand, dict(colors)
            return
        # when every member of the tied class can be swapped with the first
        # without changing the state, the branches are automorphic copies of
        # one another and a single one suffices
        candidates = split
        if all(interchangeable(split[0], c) for c in split[1:]):
            candidates = split[:1]
        top = max(colors.values()) + 1
        for c in candidates:
            forked = dict(colors)
            forked[c] = top
            search(forked)

    search({c: 0 for c in renameable})
    assert best_ms is not None and best_rho is not None
    # final names in order of first appearance in the sorted rendering
    final, rel = _first_appearance_relabel(best_ms, {f"%%{i}" for i in best_rho.values()})
    mapping = {c: rel[f"%%{i}"] for c, i in best_rho.items()}
    return final, mapping


def find_renaming(
    a: Multiset,
    b: Multiset,
    rigid: Optional[Callable[[str], bool]] = None,
) -> Optional[dict[str, str]]:
    """An injective renaming of generated constants with rho(a) == b.

    Rigid constants are fixed.  When several renamings exist, one with as
    many fixed points as possible among same-coloured candidates is
    preferred, identity first.  Returns None when the states are not equal
    up to renaming.
    """
    if rigid is None:
        rigid = lambda c: not is_generated_name(c)
    fresh_a = sorted(c for c in a.consts() if not rigid(c))
    fresh_b = sorted(c for c in b.consts() if not rigid(c))
    if len(fresh_a) != len(fresh_b):
        return None
    if not fresh_a:
        return {} if a == b else None

    # one colour refinement over both states, b's constants renamed apart
    # (no name holds a space), so that colours are comparable across them
    apart = {c: f"b {c}" for c in fresh_b}
    colors = _refine(a.msum(b.rename(apart)),
                     {c: 0 for c in fresh_a + list(apart.values())})
    class_a: dict[int, list[str]] = {}
    class_b: dict[int, list[str]] = {}
    for c in fresh_a:
        class_a.setdefault(colors[c], []).append(c)
    for c in fresh_b:
        class_b.setdefault(colors[apart[c]], []).append(c)
    if {k: len(v) for k, v in class_a.items()} != {k: len(v) for k, v in class_b.items()}:
        return None

    # constants present on both sides go first so the identity choice is
    # still available when their turn comes
    both = set(fresh_a) & set(fresh_b)
    ordered = sorted(fresh_a, key=lambda c: (c not in both, colors[c], c))
    used: set[str] = set()
    rho: dict[str, str] = {}

    def backtrack(i: int) -> bool:
        if i == len(ordered):
            return a.rename(rho) == b
        c = ordered[i]
        cands = [d for d in class_b.get(colors[c], []) if d not in used]
        cands.sort()
        if c in cands:
            cands.remove(c)
            cands.insert(0, c)
        for d in cands:
            rho[c] = d
            used.add(d)
            if backtrack(i + 1):
                return True
            del rho[c]
            used.discard(d)
        return False

    return dict(rho) if backtrack(0) else None
