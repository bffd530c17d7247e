"""Rules, instantiations, matching and application.

A rule consumes a multiset of ephemeral facts and requires a set of
persistent ones, then produces new facts, possibly over fresh constants
bound by existential variables::

    name : forall xs. pi, F  -o  exists ns. pi', G

Universal variables must all occur in the antecedent (range restriction);
matching would otherwise admit infinitely many instantiations.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .multiset import Fact, Multiset, fact_to_str, fact_vars
from .terms import App, Const, Term, Var, match_term, subst_term, term_key, term_to_str


class NotApplicable(Exception):
    """The instantiation's antecedent is not contained in the state."""


# Suffix characters reserved for generated names; the parsers reject them in
# source identifiers, so generated constants can never collide with declared
# ones.
FRESH_MARKS = ("#", "'", "%", "~")

_TRAILING_INT = re.compile(r"^(.*?)(?:[#'])(\d+)$")


def is_generated_name(name: str) -> bool:
    return any(m in name for m in FRESH_MARKS)


@dataclass(frozen=True)
class Signature:
    """Declared constants plus a monotone counter for fresh names."""

    declared: frozenset[str] = frozenset()
    counter: int = 0

    def fresh(self, hint: str, style: str = "hash") -> tuple[str, "Signature"]:
        base = hint
        for m in FRESH_MARKS:
            if m in base:
                base = base[: base.index(m)]
        if not base:
            base = "c"
        mark = "'" if style == "prime" else "#"
        name = f"{base}{mark}{self.counter}"
        return name, Signature(self.declared, self.counter + 1)

    def absorb(self, name: str) -> "Signature":
        """Advance the counter past an externally supplied generated name."""
        m = _TRAILING_INT.match(name)
        if m:
            n = int(m.group(2))
            if n >= self.counter:
                return Signature(self.declared, n + 1)
        return self

    def absorb_all(self, names: Iterable[str]) -> "Signature":
        sig = self
        for n in names:
            sig = sig.absorb(n)
        return sig


@dataclass(frozen=True)
class Rule:
    name: str
    uvars: tuple[str, ...]
    pers_ant: tuple[Fact, ...]
    eph_ant: tuple[Fact, ...]
    evars: tuple[str, ...]
    pers_con: tuple[Fact, ...]
    eph_con: tuple[Fact, ...]
    # evar -> (hint, style) for fresh-name generation
    fresh_hints: tuple[tuple[str, tuple[str, str]], ...] = ()
    # step cost: a combined rule counts as the sum of its parts
    cost: int = 1

    def __post_init__(self):
        uset, eset = set(self.uvars), set(self.evars)
        if uset & eset:
            raise ValueError(f"rule {self.name}: universal and existential variables overlap")
        if any(not f.persistent for f in self.pers_ant):
            raise ValueError(f"rule {self.name}: ephemeral fact in persistent antecedent")
        # matching draws each pattern from the facts of its own persistence
        if any(f.persistent for f in self.eph_ant):
            raise ValueError(f"rule {self.name}: persistent fact in ephemeral antecedent")
        ant_vars: set[str] = set()
        for f in self.pers_ant + self.eph_ant:
            ant_vars |= fact_vars(f)
        if not ant_vars <= uset:
            raise ValueError(f"rule {self.name}: unbound antecedent variables {ant_vars - uset}")
        if not uset <= ant_vars:
            raise ValueError(
                f"rule {self.name}: universal variables {uset - ant_vars} missing from antecedent"
            )
        con_vars: set[str] = set()
        for f in self.pers_con + self.eph_con:
            con_vars |= fact_vars(f)
        extra = con_vars - uset - eset
        if extra:
            raise ValueError(f"rule {self.name}: unbound consequent variables {extra}")
        # the existential variables that occur in the consequent, in order;
        # the equivalence key permutes only these
        object.__setattr__(self, "_con_evars", tuple(v for v in self.evars if v in con_vars))
        for v, _ in self.fresh_hints:
            if v not in eset:
                raise ValueError(f"rule {self.name}: fresh hint for unknown variable {v}")

    def hint_for(self, evar: str) -> tuple[str, str]:
        for v, h in self.fresh_hints:
            if v == evar:
                return h
        return (self.name, "hash")

    def to_str(self) -> str:
        lhs = ", ".join(fact_to_str(f) for f in self.pers_ant + self.eph_ant) or "."
        rhs = ", ".join(fact_to_str(f) for f in self.pers_con + self.eph_con) or "."
        fa = f"forall {', '.join(self.uvars)}. " if self.uvars else ""
        ex = f"exists {', '.join(self.evars)}. " if self.evars else ""
        return f"rule {self.name}: {fa}{lhs} -o {ex}{rhs}"


@dataclass(frozen=True)
class Inst:
    """A rule instantiated with ground terms for its universal variables."""

    rule: Rule
    theta: tuple[tuple[str, Term], ...]

    @staticmethod
    def make(rule: Rule, theta: Mapping[str, Term]) -> "Inst":
        return Inst(rule, tuple((v, theta[v]) for v in rule.uvars))

    def theta_map(self) -> dict[str, Term]:
        return dict(self.theta)

    def theta_key(self) -> tuple:
        return tuple(term_key(t) for _, t in self.theta)

    def _kept(self, name: str, build: Callable[[dict[str, Term]], object]):
        """build(theta), kept on a ground instantiation (empty theta) after
        its first call.  Every SILL step is one, and a step grounds its
        antecedent several times.  Others build afresh: the fairness
        analysis holds thousands of them, and keeping their parts would
        cost more memory than the grounding saves."""
        if self.theta:
            return build(self.theta_map())
        try:
            return self.__dict__[name]
        except KeyError:
            # the dataclass is frozen: write past its __setattr__
            value = self.__dict__[name] = build({})
            return value

    def pers_ant_g(self) -> frozenset[Fact]:
        return self._kept("_pers_ant", self._pers_ant_at)

    def _pers_ant_at(self, th: Mapping[str, Term]) -> frozenset[Fact]:
        return _ground_set(self.rule.pers_ant, th)

    def eph_ant_g(self) -> Multiset:
        return self._kept("_eph_ant", self._eph_ant_at)

    def _eph_ant_at(self, th: Mapping[str, Term]) -> Multiset:
        # Rule keeps persistent facts out of the ephemeral antecedent
        return Multiset._make(_tally(_ground_fact(f, th) for f in self.rule.eph_ant), frozenset())

    def active(self) -> Multiset:
        """The instantiated antecedent, persistent and ephemeral together."""
        return self.eph_ant_g().with_pers(self.pers_ant_g())

    def applicable(self, state: Multiset) -> bool:
        return self.pers_ant_g() <= state.pers and self.eph_ant_g().leq(state)

    def consequent(self, xi: Mapping[str, Term]) -> tuple[frozenset[Fact], Multiset]:
        if not self.rule._con_evars:
            # no fresh name occurs in it, so xi changes nothing
            return self._kept("_con", self._con_at)
        th = self.theta_map()
        th.update(xi)
        return self._con_at(th)

    def _con_at(self, th: Mapping[str, Term]) -> tuple[frozenset[Fact], Multiset]:
        pers = _ground_set(self.rule.pers_con, th)
        eph = Multiset.of(_ground_fact(f, th) for f in self.rule.eph_con)
        return pers, eph

    def to_str(self) -> str:
        args = ", ".join(f"{v} := {term_to_str(t)}" for v, t in self.theta)
        return f"{self.rule.name}[{args}]" if args else self.rule.name


_NO_FACTS: frozenset[Fact] = frozenset()


def _ground_set(facts: tuple[Fact, ...], th: Mapping[str, Term]) -> frozenset[Fact]:
    # most rules have no persistent facts; every empty frozenset built is
    # a new object, and ground instantiations keep theirs, so they share one
    if not facts:
        return _NO_FACTS
    return frozenset(_ground_fact(f, th) for f in facts)


def _ground_fact(f: Fact, th: Mapping[str, Term]) -> Fact:
    # the ground rules of generated systems keep their own fact objects, so
    # states and the caches keyed on facts see one object per fact
    if not th:
        return f
    return Fact(f.pred, tuple(subst_term(a, th) for a in f.args), f.persistent)


# -- matching ---------------------------------------------------------------


def match_rule(rule: Rule, state: Multiset) -> list[Inst]:
    """All instantiations of rule applicable to state.

    Deduplicated up to instantiation equivalence (the representative with the
    least theta is kept) and sorted by theta for a stable enumeration order.
    """
    return match_all((rule,), state)


def _match_fact(pat: Fact, f: Fact, theta: dict[str, Term]) -> Optional[dict[str, Term]]:
    if pat.persistent != f.persistent:
        return None
    for p, g in zip(pat.args, f.args):
        if match_term(p, g, theta) is None:
            return None
    return theta


def match_all(rules: Sequence[Rule], state: Multiset) -> list[Inst]:
    """Distinct applicable instantiations across rules, deduplicated by
    instantiation equivalence globally, in (rule order, theta) order: of
    equivalent instantiations the first in that order is kept.  One pass
    over one index of the state keys each candidate once."""
    index = FactIndex(state)
    out: list[Inst] = []
    keys: set = set()
    for r in rules:
        for inst in index.insts(r):
            k = _equiv_key(inst)
            if k not in keys:
                keys.add(k)
                out.append(inst)
    return out


class FactIndex:
    """A state's facts by predicate and by first argument.

    Matching binds the antecedent patterns one at a time, each against the
    facts that can still match it: those with its first argument when that
    is known, otherwise all facts of its predicate.  A run keeps one index
    in step with its state and matches semi-naively (Rete, TREAT): after a
    step only instantiations with an antecedent fact among the facts the
    step touched are proposed.
    """

    # candidates matched and keyed by delta; none is ever reused
    reused = 0

    def __init__(self, state: Multiset, rules: Sequence[Rule] = ()):
        self.state = state
        self.rules = tuple(rules)
        self.derived = 0
        self._by_pred: dict[tuple, dict[Fact, None]] = {}
        self._by_first: dict[tuple, dict[Fact, None]] = {}
        for f in itertools.chain(state.pers, state.eph_support()):
            self._add(f)

    def _add(self, f: Fact) -> None:
        key = (f.pred, len(f.args), f.persistent)
        self._by_pred.setdefault(key, {})[f] = None
        if f.args:
            self._by_first.setdefault(key + (f.args[0],), {})[f] = None

    def _remove(self, f: Fact) -> None:
        key = (f.pred, len(f.args), f.persistent)
        del self._by_pred[key][f]
        if f.args:
            del self._by_first[key + (f.args[0],)][f]

    def _pool(self, pat: Fact, theta: Mapping[str, Term]) -> Iterable[Fact]:
        key = (pat.pred, len(pat.args), pat.persistent)
        if pat.args:
            first = pat.args[0]
            if isinstance(first, Var):
                first = theta.get(first.name)
            elif isinstance(first, App):
                first = None  # a pattern: ground only after matching
            if first is not None:
                return self._by_first.get(key + (first,), ())
        return self._by_pred.get(key, ())

    def _join(self, pats: Sequence[Fact], theta: dict[str, Term],
              used: dict[Fact, int], out: list[dict[str, Term]]) -> None:
        """Extend theta by matching pats against distinct fact occurrences;
        used counts the ephemeral occurrences already taken."""
        if not pats:
            out.append(theta)
            return
        pat, rest = pats[0], pats[1:]
        for f in self._pool(pat, theta):
            n = used.get(f, 0)
            if not f.persistent and n >= self.state.count(f):
                continue
            th = _match_fact(pat, f, dict(theta))
            if th is None:
                continue
            if f.persistent:
                self._join(rest, th, used, out)
            else:
                used[f] = n + 1
                self._join(rest, th, used, out)
                used[f] = n

    def insts(self, rule: Rule, touched: Optional[Iterable[Fact]] = None) -> list[Inst]:
        """Applicable instantiations of rule, distinct and sorted by theta.

        With touched given, only those whose ground antecedent contains one
        of the touched facts, which must be present in the state.
        """
        pats = rule.pers_ant + rule.eph_ant
        thetas: list[dict[str, Term]] = []
        if touched is None or not pats:
            self._join(pats, {}, {}, thetas)
        else:
            for t in touched:
                for j, pat in enumerate(pats):
                    if pat.pred != t.pred or len(pat.args) != len(t.args):
                        continue
                    th = _match_fact(pat, t, {})
                    if th is not None:
                        used = {} if t.persistent else {t: 1}
                        self._join(pats[:j] + pats[j + 1:], th, used, thetas)
        by_key: dict[tuple, Inst] = {}
        for th in thetas:
            inst = Inst.make(rule, th)
            by_key.setdefault(inst.theta_key(), inst)
        return [by_key[k] for k in sorted(by_key)]

    def delta(self, state: Multiset, gone: Iterable[Fact],
              touched: Sequence[Fact]) -> list[tuple[tuple, Inst]]:
        """Advance to state, whose predecessor lost the facts gone and had
        the touched facts produced or used; return the applicable
        instantiations with a touched antecedent fact, each with its
        equivalence key, in enumeration order (rule order, then theta).
        Rules without antecedent always qualify."""
        self.state = state
        for f in gone:
            self._remove(f)
        for f in touched:
            key = (f.pred, len(f.args), f.persistent)
            if f not in self._by_pred.get(key, ()):
                self._add(f)
        out = [(_equiv_key(i), i) for rule in self.rules for i in self.insts(rule, touched)]
        self.derived += len(out)
        return out


# -- instantiation equivalence ------------------------------------------------

_PLACEHOLDER = "\x00"


def _tally(facts: Iterable[Fact]) -> dict[Fact, int]:
    """Each fact's multiplicity."""
    out: dict[Fact, int] = {}
    for f in facts:
        out[f] = out.get(f, 0) + 1
    return out


def _equiv_key(inst: Inst) -> tuple:
    """Instantiations are equivalent iff their keys are equal.

    Two instantiations are equivalent when they consume exactly the same
    facts and produce the same facts up to a consistent renaming of the
    fresh constants; the persistent consequent is compared together with the
    persistent antecedent, since re-asserting an already-required persistent
    fact is unobservable.

    The key is built from facts, whose hashes are cached at construction,
    so neither building nor comparing it walks a term: the ground
    antecedent (a set and a multiset), and the consequent with placeholder
    constants for the existential variables that occur in it, as the set
    of its variants under every assignment of those variables to the
    placeholders.  Such sets of variants are equal or disjoint, and equal
    exactly when a renaming of the fresh constants maps one consequent to
    the other.  An existential variable that occurs nowhere tells no two
    instantiations apart.
    """
    rule = inst.rule
    th = inst.theta_map()
    ant_p = frozenset(_ground_fact(f, th) for f in rule.pers_ant)
    ant_e = frozenset(_tally(_ground_fact(f, th) for f in rule.eph_ant).items())
    evars = rule._con_evars
    marks = [Const(f"{_PLACEHOLDER}{i}") for i in range(len(evars))]
    variants = []
    for perm in itertools.permutations(marks):
        thx = dict(th)
        thx.update(zip(evars, perm))
        pers = frozenset(_ground_fact(f, thx) for f in rule.pers_con) | ant_p
        eph = frozenset(_tally(_ground_fact(f, thx) for f in rule.eph_con).items())
        variants.append((pers, eph))
    return (ant_p, ant_e, frozenset(variants))


def inst_equiv(i1: Inst, i2: Inst) -> bool:
    """Same consumption and, up to renaming fresh constants, same production."""
    return _equiv_key(i1) == _equiv_key(i2)


# -- application ---------------------------------------------------------------


def apply_inst(
    state: Multiset,
    inst: Inst,
    sig: Signature,
    xi: Optional[Mapping[str, str]] = None,
    produced: Optional[list[Fact]] = None,
) -> tuple[Multiset, Signature, dict[str, str]]:
    """Apply an instantiation, generating fresh constants unless xi is given.

    Returns the successor state, the advanced signature, and the fresh-name
    assignment actually used.  A list passed as produced receives the
    distinct produced facts, as the objects the successor state was built
    from.

    A step that changes nothing (its ephemeral consequent equals its
    ephemeral antecedent and its persistent consequent is already in the
    state) returns the given state object itself, so it copies nothing and
    a caller can tell such a step by identity.
    """
    consumed = inst.eph_ant_g()
    if not (inst.pers_ant_g() <= state.pers and consumed.leq(state)):
        raise NotApplicable(inst.to_str())
    names: dict[str, str] = {}
    if xi is None:
        for v in inst.rule.evars:
            hint, style = inst.rule.hint_for(v)
            name, sig = sig.fresh(hint, style)
            names[v] = name
    else:
        for v in inst.rule.evars:
            names[v] = xi[v]
            sig = sig.absorb(xi[v])
    xi_terms = {v: Const(n) for v, n in names.items()}
    pers, eph = inst.consequent(xi_terms)
    if produced is not None:
        produced.extend(pers)
        produced.extend(eph.eph_support())
    if eph == consumed and pers <= state.pers:
        return state, sig, names
    return state.rewrite(consumed, eph).with_pers(pers), sig, names


# -- parallel combination ------------------------------------------------------

IDENTITY = Rule("1*", (), (), (), (), (), (), cost=0)


def parallel_combine(r1: Rule, r2: Rule) -> Rule:
    """Combine two rules for joint application in one step.

    The antecedent takes the union of the persistent parts and the sum of
    the ephemeral ones; likewise the consequent.  Variables are renamed
    apart.  Combining with the empty rule returns the other rule.
    """
    if not any((r1.uvars, r1.evars, r1.pers_ant, r1.eph_ant, r1.pers_con, r1.eph_con)):
        return r2
    if not any((r2.uvars, r2.evars, r2.pers_ant, r2.eph_ant, r2.pers_con, r2.eph_con)):
        return r1

    def side(r: Rule, i: int):
        ren_t = {v: Var(f"{v}~{i}") for v in r.uvars + r.evars}

        def rf(f: Fact) -> Fact:
            return Fact(f.pred, tuple(subst_term(a, ren_t) for a in f.args), f.persistent)

        return (
            tuple(f"{v}~{i}" for v in r.uvars),
            tuple(f"{v}~{i}" for v in r.evars),
            tuple(rf(f) for f in r.pers_ant),
            tuple(rf(f) for f in r.eph_ant),
            tuple(rf(f) for f in r.pers_con),
            tuple(rf(f) for f in r.eph_con),
            tuple((f"{v}~{i}", h) for v, h in r.fresh_hints),
        )

    u1, e1, pa1, ea1, pc1, ec1, fh1 = side(r1, 1)
    u2, e2, pa2, ea2, pc2, ec2, fh2 = side(r2, 2)

    def set_union(a: tuple[Fact, ...], b: tuple[Fact, ...]) -> tuple[Fact, ...]:
        out = list(a)
        for f in b:
            if f not in out:
                out.append(f)
        return tuple(out)

    return Rule(
        name=f"{r1.name}*{r2.name}",
        uvars=u1 + u2,
        pers_ant=set_union(pa1, pa2),
        eph_ant=ea1 + ea2,
        evars=e1 + e2,
        pers_con=set_union(pc1, pc2),
        eph_con=ec1 + ec2,
        fresh_hints=fh1 + fh2,
        cost=r1.cost + r2.cost,
    )


@dataclass(frozen=True)
class Mrs:
    """A multiset rewriting system: named rules plus declared constants."""

    rules: tuple[Rule, ...]
    declared: frozenset[str] = frozenset()
    initial: Optional[Multiset] = None
    source: Optional[str] = field(default=None, compare=False)

    def rule(self, name: str) -> Rule:
        for r in self.rules:
            if r.name == name:
                return r
        raise KeyError(name)

    def signature(self) -> Signature:
        return Signature(self.declared, 0)

    def applicable(self, state: Multiset) -> list[Inst]:
        return match_all(self.rules, state)

    def enabled(self, state: Multiset) -> FactIndex:
        """The per-run enabled set the fair scheduler advances step by step."""
        return FactIndex(state, self.rules)

    def pairwise_closure(self) -> "Mrs":
        """The rules plus all pairwise parallel combinations."""
        combined = list(self.rules)
        for r1 in self.rules:
            for r2 in self.rules:
                combined.append(parallel_combine(r1, r2))
        return Mrs(tuple(combined), self.declared, self.initial)
