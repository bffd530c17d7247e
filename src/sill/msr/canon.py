"""Canonical forms of states up to renaming of generated constants.

Constants created during a run carry a marker character, so they can be
told apart from declared ones.  Canonicalization renames them so that two
states that differ only in the choice of generated names get the same
representation; the final names are assigned in order of first appearance
in the sorted rendering of the state.

Both ``canonical_form`` and ``find_renaming`` run one search,
individualise-and-refine in the style of McKay and Piperno (*Practical
graph isomorphism, II*, 2014), on an explicit stack.  The state is read
once into cells, one per fact that holds a renameable name.  Each round
of colour refinement reads each cell once per distinct name it holds, not
the whole state per name; a chain of n names takes about n/2 rounds, so
refining it costs O(n^2).  Where refinement leaves a tie, the search gives
one name, or one pair of names, a colour of its own and refines again.
That branching is exponential on highly symmetric states, so the search
is exact rather than polynomial, meant for the small states it meets.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional

from .multiset import Multiset, fact_key
from .rules import is_generated_name
from .terms import App, Const, iter_subterms

# a name cut out, the name a view is seen from, and the end of an
# application, less than every token, so that shapes sort as nested terms
_HOLE, _FOCUS, _END = ("?",), ("@",), ("",)


def ms_key(ms: Multiset) -> tuple:
    return (
        tuple(sorted(fact_key(f) for f in ms.pers)),
        tuple(sorted((fact_key(f), n) for f, n in ms.eph_items())),
    )


def _cells(ms: Multiset, names: set[str]) -> list[tuple[tuple, list[int], list[str]]]:
    """One cell per fact that holds a name of names: its shape (predicate,
    persistence, subterms in pre-order and multiplicity, each name cut
    out), the places cut and the names cut there."""
    out = []
    for f, n in [(f, 1) for f in ms.pers] + list(ms.eph_items()):
        shape, holes, held = [f.pred, f.persistent], [], []
        todo = list(reversed(f.args))
        while todo:
            t = todo.pop()
            if t is _END:
                shape.append(_END)
            elif type(t) is App:
                shape.append(("f", t.fn))
                todo.append(_END)
                todo.extend(reversed(t.args))
            elif type(t) is Const and t.name in names:
                holes.append(len(shape))
                held.append(t.name)
                shape.append(_HOLE)
            else:
                shape.append(("c", t.name) if type(t) is Const else ("w", str(t)))
        if held:
            out.append((tuple(shape + [_END, n]), holes, held))
    return out


def _refine(cells: list, colors: dict[str, int]) -> dict[str, int]:
    """The coarsest stable refinement of colors.  A round recolours each
    name from its colour and the shapes of the cells that hold it, seen
    from the name (its places marked, other names' places coloured),
    numbering the colours in sorted order, so they do not depend on the
    names; rounds repeat until the number of classes stops growing."""
    count = len(set(colors.values()))
    while True:
        views: dict[str, list] = {c: [] for c in colors}
        for shape, holes, held in cells:
            cols = [("?", colors[c]) for c in held]
            for c in set(held):
                mine = list(shape)
                for i, d, k in zip(holes, held, cols):
                    mine[i] = _FOCUS if d == c else k
                views[c].append(tuple(mine))
        sigs = {c: (colors[c], tuple(sorted(v))) for c, v in views.items()}
        number = {s: i for i, s in enumerate(sorted(set(sigs.values())))}
        if len(number) == count:
            return colors
        count = len(number)
        colors = {c: number[s] for c, s in sigs.items()}


def _leaves(cells: list, colors: dict[str, int], split: Callable[[dict], Optional[list]]
            ) -> Iterator[dict[str, int]]:
    """The stable colourings at the leaves of the individualise-and-refine
    tree below colors, depth first.  At each node split names the groups
    of names to branch on, each group taking one new colour together, in
    the order to try them; it returns None at a leaf and [] to prune."""
    todo = [colors]
    while todo:
        colors = _refine(cells, todo.pop())
        groups = split(colors)
        if groups is None:
            yield colors
            continue
        top = max(colors.values()) + 1
        for group in reversed(groups):
            todo.append({**colors, **dict.fromkeys(group, top)})


def _classes(colors: dict[str, int]) -> dict[int, list[str]]:
    out: dict[int, list[str]] = {}
    for c, k in colors.items():
        out.setdefault(k, []).append(c)
    return out


def canonical_form(ms: Multiset) -> tuple[Multiset, dict[str, str]]:
    """Canonical representative of ms up to renaming generated constants.

    Returns the renamed state and the mapping applied.
    """
    names = {c for c in ms.consts() if is_generated_name(c)}
    if not names:
        return ms, {}

    def split(colors: dict[str, int]) -> Optional[list[list[str]]]:
        tied = [cs for _, cs in sorted(_classes(colors).items()) if len(cs) > 1]
        if not tied:
            return None
        group = sorted(tied[0])
        # when every member of the lowest tied class can be swapped with
        # the first without changing the state, the branches are
        # automorphic copies of one another and a single one suffices
        if all(ms.rename({group[0]: c, c: group[0]}) == ms for c in group[1:]):
            group = group[:1]
        return [[c] for c in group]

    best: Optional[tuple] = None
    for colors in _leaves(_cells(ms, names), dict.fromkeys(names, 0), split):
        cand = ms.rename({c: f"%%{k}" for c, k in colors.items()})
        key = ms_key(cand)
        if best is None or key < best[0]:
            best = key, cand, colors
    _, cand, colors = best
    # final names in order of first appearance in the sorted rendering
    final: dict[str, str] = {}
    for f in sorted(cand.pers, key=fact_key) + sorted(cand.eph_support(), key=fact_key):
        for a in f.args:
            for t in iter_subterms(a):
                if type(t) is Const and t.name.startswith("%%") and t.name not in final:
                    final[t.name] = f"%{len(final)}"
    return cand.rename(final), {c: final[f"%%{k}"] for c, k in colors.items()}


def find_renaming(a: Multiset, b: Multiset, rigid: Optional[Callable[[str], bool]] = None
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

    # one refinement over both states, b's constants renamed apart (no
    # name holds a space), so that colours are comparable across them
    apart = {c: f"b {c}" for c in fresh_b}
    back = {d: c for c, d in apart.items()}
    cells = _cells(a.msum(b.rename(apart)), set(fresh_a) | set(back))
    colors = _refine(cells, dict.fromkeys(fresh_a + list(back), 0))
    # constants present on both sides go first so the identity choice is
    # still available when their turn comes
    both = set(fresh_a) & set(fresh_b)
    ordered = sorted(fresh_a, key=lambda c: (c not in both, colors[c], c))

    def split(colors: dict[str, int]) -> Optional[list[list[str]]]:
        classes = _classes(colors)
        # no renaming matches a class that holds more names of one state
        if any(2 * sum(d in back for d in cs) != len(cs) for cs in classes.values()):
            return []
        c = next((c for c in ordered if len(classes[colors[c]]) > 2), None)
        if c is None:
            return None
        cands = sorted((back[d] for d in classes[colors[c]] if d in back),
                       key=lambda d: (d != c, d))
        return [[c, apart[d]] for d in cands]

    for colors in _leaves(cells, colors, split):
        image = {colors[d]: c for d, c in back.items()}
        rho = {c: image[colors[c]] for c in fresh_a}
        if a.rename(rho) == b:
            return rho
    return None
