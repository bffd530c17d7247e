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
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

from .multiset import Fact, Multiset, fact_consts, fact_to_str, fact_vars
from .terms import (App, Const, Term, Var, match_term, rename_consts, subst_term, term_consts,
                    term_key, term_to_str)


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
    """A rule, validated on construction: the variables are range
    restricted and each fact tuple holds facts of its own persistence.
    ``Rule.ground`` builds a ground rule without the validation, for a
    caller that builds it correct by construction; the result equals the
    validated rule of the same fields, but is keyed by what it consumes
    (``_equiv_key``)."""

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

    # each consequent fact that is also an antecedent pattern, by its first
    # position in pers_ant + eph_ant.  Only Inst.matched reads it, for an
    # instantiation with a theta, so a rule without universal variables
    # (every Rule.ground one among them) records none
    _con_pats = {}
    # what Rule.ground was given as the consequent, a template or the
    # facts; None for a validated rule
    _template = None

    def __post_init__(self):
        uset, eset = set(self.uvars), set(self.evars)
        if uset & eset:
            raise ValueError(f"rule {self.name}: universal and existential variables overlap")
        if any(not f.persistent for f in self.pers_ant):
            raise ValueError(f"rule {self.name}: ephemeral fact in persistent antecedent")
        # matching draws each pattern from the facts of its own persistence
        if any(f.persistent for f in self.eph_ant):
            raise ValueError(f"rule {self.name}: persistent fact in ephemeral antecedent")
        # checked here, once per rule, so that a fired step can trust the
        # parts of its consequent
        if any(not f.persistent for f in self.pers_con):
            raise ValueError(f"rule {self.name}: ephemeral fact in persistent consequent")
        if any(f.persistent for f in self.eph_con):
            raise ValueError(f"rule {self.name}: persistent fact in ephemeral consequent")
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
        # the equivalence key permutes only these, onto its placeholders
        con_evars = tuple(v for v in self.evars if v in con_vars)
        if len(con_evars) > len(KEY_VARS):
            raise ValueError(f"rule {self.name}: more than {len(KEY_VARS)} existential "
                             f"variables in the consequent")
        object.__setattr__(self, "_con_evars", con_evars)
        if self.uvars:
            # facts are interned: a pattern given back is the same object
            first: dict[Fact, int] = {}
            for i, f in enumerate(self.pers_ant + self.eph_ant):
                first.setdefault(f, i)
            object.__setattr__(self, "_con_pats", {
                f: first[f] for f in self.pers_con + self.eph_con if f in first})
        for v, _ in self.fresh_hints:
            if v not in eset:
                raise ValueError(f"rule {self.name}: fresh hint for unknown variable {v}")

    @classmethod
    def ground(cls, name: str, eph_ant: tuple[Fact, ...],
               eph_con: Union[tuple[Fact, ...], Callable[..., tuple[Fact, ...]]],
               evars: tuple[str, ...] = (),
               fresh_hints: tuple[tuple[str, tuple[str, str]], ...] = ()) -> "Rule":
        """The ground rule ``eph_ant -o exists evars. eph_con``, unvalidated:
        the caller guarantees ephemeral facts, a ground antecedent, the
        consequent's variables among evars and hints only for evars.

        The caller also promises that the consequent is determined by the
        antecedent, up to the fresh names, so the rule is keyed by what it
        consumes, and that it names no constant the antecedent does not.  A
        consequent with existentials may be given as a template: a function
        from the terms of evars, in order, to the consequent facts, naming
        each of them.  ``fire`` then builds it once, over the fresh
        constants (``Inst.consequent``), and ``eph_con`` is built from it
        over the variables on first read.  Neither hashing nor equality
        builds it: two template rules with equal heads (name, antecedent,
        existentials and hints) consume the same facts, so by the promise
        above they are equal, whatever their templates."""
        rule = object.__new__(cls)
        if callable(eph_con):
            con_evars = evars
        else:
            con_evars = tuple(v for v in evars if any(v in f.vars for f in eph_con))
            rule.__dict__["eph_con"] = eph_con
        # the dataclass is frozen: write past its __setattr__
        rule.__dict__.update(name=name, uvars=(), pers_ant=(), eph_ant=eph_ant, evars=evars,
                             pers_con=(), fresh_hints=fresh_hints, cost=1, _template=eph_con,
                             _con_evars=con_evars)
        return rule

    def _head(self) -> tuple:
        return (self.name, self.uvars, self.pers_ant, self.eph_ant, self.evars, self.pers_con,
                self.fresh_hints, self.cost)

    def __eq__(self, other) -> bool:
        """Equal fields; two template rules (``Rule.ground``) need only
        equal heads, and every other pair compares consequents."""
        if type(other) is not Rule:
            return NotImplemented
        return self._head() == other._head() and (
            callable(self._template) and callable(other._template)
            or self.eph_con == other.eph_con)

    def __hash__(self) -> int:
        # kept on the rule, as the scheduler and the lasso analysis hash it often
        h = self.__dict__.get("_hash")
        if h is None:
            h = self.__dict__["_hash"] = hash(self._head())
        return h

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


class _TemplateCon:
    """``Rule.eph_con`` of a template rule (``Rule.ground``), built from
    the template over the variables on first read and kept on the rule.
    A non-data descriptor: a rule's own eph_con shadows it, and no other
    attribute read runs Python code, as each would under ``__getattr__``."""

    def __get__(self, rule: Optional[Rule], owner: type = Rule):
        if rule is None:
            return self
        con = rule.__dict__["eph_con"] = rule._template(*[Var(v) for v in rule.evars])
        return con


# set after the dataclass is made, which would take it for a default
Rule.eph_con = _TemplateCon()


# the fact tuples of a rule
_FACT_PARTS = ("pers_ant", "eph_ant", "pers_con", "eph_con")


@dataclass(frozen=True)
class Inst:
    """A rule instantiated with ground terms for its universal variables."""

    rule: Rule
    theta: tuple[tuple[str, Term], ...]

    # the ground parts the matcher built with an instantiation that has a
    # theta, by _kept's names, until its step is recorded (see _kept)
    _matched = None

    @staticmethod
    def make(rule: Rule, theta: Mapping[str, Term]) -> "Inst":
        return Inst(rule, tuple((v, theta[v]) for v in rule.uvars))

    @staticmethod
    def matched(rule: Rule, theta: Mapping[str, Term], facts: Sequence[Fact]) -> "Inst":
        """``Inst.make(rule, theta)``, where theta matched the antecedent
        of rule on the fact occurrences facts, one per pattern of
        ``pers_ant + eph_ant`` in that order, carrying its ground parts
        when theta is not empty.  Facts are interned and theta binds every
        variable (range restriction), so those occurrences are the ground
        antecedent and are taken as they are.  The consequent is grounded
        here, once, when no existential variable occurs in it; otherwise
        each fresh name grounds it anew (``consequent``).  A consequent
        fact that is an antecedent pattern (``Rule._con_pats``) is the
        occurrence matched there, not grounded again."""
        inst = Inst.make(rule, theta)
        if not theta:
            return inst  # a ground instantiation keeps what it builds
        parts = {"_pers_ant": frozenset(f for f in facts if f.persistent) or _NO_FACTS,
                 "_eph_ant": Multiset._make(_tally(f for f in facts if not f.persistent),
                                            frozenset())}
        if not rule._con_evars:
            at = rule._con_pats
            pers = [facts[at[f]] if f in at else _ground_fact(f, theta) for f in rule.pers_con]
            eph = [facts[at[f]] if f in at else _ground_fact(f, theta) for f in rule.eph_con]
            parts["_con"] = (frozenset(pers) if pers else _NO_FACTS,
                             Multiset._make(_tally(eph), frozenset()))
        # the dataclass is frozen: write past its __setattr__
        object.__setattr__(inst, "_matched", parts)
        return inst

    def theta_map(self) -> dict[str, Term]:
        return dict(self.theta)

    def theta_key(self) -> tuple:
        return tuple(term_key(t) for _, t in self.theta)

    def _kept(self, name: str, build: Callable[[dict[str, Term]], object]):
        """The ground part name, built by build(theta) or read where it is
        kept.  A ground instantiation (empty theta) keeps what it builds
        for its lifetime: every SILL step is one, and a step grounds its
        antecedent several times.  One with a theta keeps only the parts
        the matcher built with it (``matched``): the key, ``fire`` and the
        trace's rewrite read that one grounding, and ``Trace.extend`` drops
        it once the step is recorded (``release``), so the parts live while
        the instantiation is a candidate and no recorded step keeps them.
        Others build afresh: a long run records thousands of steps, and keeping their
        parts would cost more memory than the grounding saves."""
        if self.theta:
            matched = self._matched
            return build(self.theta_map()) if matched is None else matched[name]
        try:
            return self.__dict__[name]
        except KeyError:
            # the dataclass is frozen: write past its __setattr__
            value = self.__dict__[name] = build({})
            return value

    def release(self) -> None:
        """Drop the ground parts the matcher built, once the step is
        recorded; a recorded step keeps its rule and theta only."""
        if self._matched is not None:
            # set, not deleted: on CPython 3.10 a deletion turns the
            # instance's key-sharing dict into a larger one of its own
            object.__setattr__(self, "_matched", None)

    def pers_ant_g(self) -> frozenset[Fact]:
        return self._kept("_pers_ant", self._pers_ant_at)

    def _pers_ant_at(self, th: Mapping[str, Term]) -> frozenset[Fact]:
        return _ground_set(self.rule.pers_ant, th)

    def eph_ant_g(self) -> Multiset:
        return self._kept("_eph_ant", self._eph_ant_at)

    def _eph_ant_at(self, th: Mapping[str, Term]) -> Multiset:
        # Rule keeps persistent facts out of the ephemeral antecedent
        return Multiset._make(_tally(_ground_fact(f, th) for f in self.rule.eph_ant), frozenset())

    def applicable(self, state: Multiset) -> bool:
        kept = self.__dict__  # a ground instantiation's parts, once _kept built them
        if "_eph_ant" in kept and "_pers_ant" in kept:
            return kept["_pers_ant"] <= state.pers and kept["_eph_ant"].leq(state)
        return self.pers_ant_g() <= state.pers and self.eph_ant_g().leq(state)

    def consequent(self, xi: Mapping[str, Term]) -> tuple[frozenset[Fact], Multiset]:
        """The ground consequent, persistent and ephemeral parts, with xi's
        terms for the existential variables.  A template (``Rule.ground``)
        is filled in with them, built once and walked by nothing else."""
        rule = self.rule
        if not rule._con_evars:
            # no fresh name occurs in it, so xi changes nothing
            return self._kept("_con", self._con_at)
        if callable(rule._template):
            eph = rule._template(*[xi[v] for v in rule.evars])
            return _NO_FACTS, Multiset._make(_tally(eph), frozenset())
        th = self.theta_map()
        th.update(xi)
        return self._con_at(th)

    def _con_at(self, th: Mapping[str, Term]) -> tuple[frozenset[Fact], Multiset]:
        # Rule keeps each consequent part to its own persistence
        pers = _ground_set(self.rule.pers_con, th)
        eph = Multiset._make(_tally(_ground_fact(f, th) for f in self.rule.eph_con), frozenset())
        return pers, eph

    def consts(self) -> frozenset[str]:
        """The constants it names: theta's, or for a ground rule (one
        without universal variables, as every SILL step is) its facts'.  A
        template's consequent names none but its antecedent's and the
        fresh ones (``Rule.ground``), so the template is not built."""
        rule = self.rule
        if rule.uvars:
            return frozenset().union(*[term_consts(t) for _, t in self.theta])
        parts = _FACT_PARTS[:2] if callable(rule._template) else _FACT_PARTS
        return self._kept("_consts", lambda _: frozenset().union(
            *[fact_consts(f) for part in parts for f in getattr(rule, part)]))

    def rename(self, rho: Mapping[str, str]) -> "Inst":
        """The instantiation with the constants that consts() gives renamed
        by rho; itself when rho moves none of them.  A ``Rule.ground``
        rule stays one, keyed by what it consumes: its antecedent, its
        consequent or template, and the fresh-name hints it read off them
        are renamed, so it is the rule its caller builds from the renamed
        facts."""
        if self.consts().isdisjoint(rho):
            return self
        rule = self.rule
        if rule.uvars:
            return Inst(rule, tuple((v, rename_consts(t, rho)) for v, t in self.theta))
        if rule._template is None:
            return Inst(replace(rule, **{part: tuple(f.rename(rho) for f in getattr(rule, part))
                                         for part in _FACT_PARTS}), ())
        con = rule._template
        if callable(con):
            con = _renamed_template(con, rho)
        else:
            con = tuple(f.rename(rho) for f in con)
        hints = tuple((v, (rho.get(h, h), style)) for v, (h, style) in rule.fresh_hints)
        return Inst(Rule.ground(rule.name, tuple(f.rename(rho) for f in rule.eph_ant), con,
                                rule.evars, hints), ())

    def to_str(self) -> str:
        args = ", ".join(f"{v} := {term_to_str(t)}" for v, t in self.theta)
        return f"{self.rule.name}[{args}]" if args else self.rule.name


_NO_FACTS: frozenset[Fact] = frozenset()


def _renamed_template(template: Callable[..., tuple[Fact, ...]],
                      rho: Mapping[str, str]) -> Callable[..., tuple[Fact, ...]]:
    """The template whose consequent is template's renamed by rho, for
    terms that rho leaves as they are: the variables, or fresh names."""
    return lambda *terms: tuple(f.rename(rho) for f in template(*terms))


def _ground_set(facts: tuple[Fact, ...], th: Mapping[str, Term]) -> frozenset[Fact]:
    # most rules have no persistent facts; every empty frozenset built is
    # a new object, and ground instantiations keep theirs, so they share one
    if not facts:
        return _NO_FACTS
    return frozenset(_ground_fact(f, th) for f in facts)


def _ground_fact(f: Fact, th: Mapping[str, Term]) -> Fact:
    if not th or not f.vars:
        return f
    return Fact(f.pred, tuple([subst_term(a, th) for a in f.args]), f.persistent)


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

    The join records the fact occurrences it matched, and each proposed
    instantiation carries them as its ground antecedent, with its
    consequent grounded once (``Inst.matched``).  The key and ``fire``
    read those parts, and ``Trace.extend`` drops them once the step is
    recorded, so they live as long as the candidate's queue entry.
    """

    def __init__(self, state: Multiset, rules: Sequence[Rule] = ()):
        self.state = state
        self.rules = tuple(rules)
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

    def _join(self, pats: Sequence[Fact], todo: Sequence[int], theta: dict[str, Term],
              used: dict[Fact, int], path: list,
              out: list[tuple[dict[str, Term], tuple[Fact, ...]]]) -> None:
        """Extend theta by matching the patterns pats[i], i in todo, in
        that order, against distinct fact occurrences; used counts the
        ephemeral occurrences already taken and path[i] holds the
        occurrence matched at pattern i.  Each complete match goes to out
        with its occurrences in pattern order."""
        if not todo:
            out.append((theta, tuple(path)))
            return
        i, rest = todo[0], todo[1:]
        pat = pats[i]
        for f in self._pool(pat, theta):
            n = used.get(f, 0)
            if not f.persistent and n >= self.state.count(f):
                continue
            th = _match_fact(pat, f, dict(theta))
            if th is None:
                continue
            path[i] = f
            if f.persistent:
                self._join(pats, rest, th, used, path, out)
            else:
                used[f] = n + 1
                self._join(pats, rest, th, used, path, out)
                used[f] = n

    def insts(self, rule: Rule, touched: Optional[Iterable[Fact]] = None) -> list[Inst]:
        """Applicable instantiations of rule, distinct and sorted by theta,
        each carrying its ground parts (``Inst.matched``).

        With touched given, only those whose ground antecedent contains one
        of the touched facts, which must be present in the state.
        """
        pats = rule.pers_ant + rule.eph_ant
        todo = tuple(range(len(pats)))
        found: list[tuple[dict[str, Term], tuple[Fact, ...]]] = []
        if touched is None or not pats:
            self._join(pats, todo, {}, {}, [None] * len(pats), found)
        else:
            for t in touched:
                for j, pat in enumerate(pats):
                    if pat.pred != t.pred or len(pat.args) != len(t.args):
                        continue
                    th = _match_fact(pat, t, {})
                    if th is not None:
                        used = {} if t.persistent else {t: 1}
                        path: list = [None] * len(pats)
                        path[j] = t
                        self._join(pats, todo[:j] + todo[j + 1:], th, used, path, found)
        # one match per theta: theta determines the ground antecedent
        by_key: dict[tuple, tuple[dict[str, Term], tuple[Fact, ...]]] = {}
        for match in found:
            th = match[0]
            by_key.setdefault(tuple([term_key(th[v]) for v in rule.uvars]), match)
        return [Inst.matched(rule, *by_key[k]) for k in sorted(by_key)]

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
        return [(_equiv_key(i), i) for rule in self.rules for i in self.insts(rule, touched)]


# -- instantiation equivalence ------------------------------------------------

# The placeholders of the equivalence key, by position: the variables its
# variants put for a rule's existential variables.  The process layer names
# the one fresh channel of its steps after the first, so the validated rule
# of a step's fields is keyed by its own facts.
KEY_VARS = ("nc",) + tuple(f"\x00{i}" for i in range(1, 10))
_KEY_TERMS = tuple(Var(v) for v in KEY_VARS)


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

    The key is built from facts, which are interned and hash by address,
    so neither building nor comparing it walks a term: the ground
    antecedent (a set and a multiset), and the consequent with placeholder
    variables (``KEY_VARS``) for the existential variables that occur in
    it, as the set of its variants under every assignment of those
    variables to the placeholders.  Such sets of variants are equal or
    disjoint, and equal exactly when a renaming of the fresh constants maps
    one consequent to the other.  The ground facts hold no variables, so a
    placeholder meets nothing but another placeholder.  An existential
    variable that occurs nowhere tells no two instantiations apart.

    The key reads the ground parts the matcher built with the
    instantiation (``Inst.matched``), which ``fire`` and the trace then
    read too; a consequent without existential variables is then its one
    variant.  Without them the key grounds what it needs and keeps
    nothing.  The identity assignment comes first.

    A ``Rule.ground`` rule has the other key form: its caller promises
    that the consequent is determined by the antecedent, up to the fresh
    names, so equivalent instantiations are those that consume the same
    facts, and the key is ``(ground persistent antecedent, ephemeral
    antecedent multiplicities, None)``.  Every step of the process layer
    is such a rule: it is a function of the proc fact and message it
    consumes.  Both forms begin with the ground antecedent, the set and
    the (fact, multiplicity) pairs, which the fairness layer reads.
    """
    rule = inst.rule
    if rule._template is not None:
        return (inst.pers_ant_g(), frozenset(inst.eph_ant_g().eph_items()), None)
    evars = rule._con_evars
    parts = inst._matched
    if parts is not None:
        ant_p = parts["_pers_ant"]
        ant_e = frozenset(parts["_eph_ant"].eph_items())
        if not evars:
            pers, eph = parts["_con"]
            return (ant_p, ant_e, frozenset(((pers | ant_p, frozenset(eph.eph_items())),)))
    th = inst.theta_map()
    if parts is None:
        ant_p = frozenset(_ground_fact(f, th) for f in rule.pers_ant)
        ant_e = frozenset(_tally(_ground_fact(f, th) for f in rule.eph_ant).items())
    variants = []
    for perm in itertools.permutations(_KEY_TERMS[:len(evars)]):
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


def fire(
    state: Multiset,
    inst: Inst,
    sig: Signature,
    xi: Optional[Mapping[str, str]] = None,
    produced: Optional[list[Fact]] = None,
) -> tuple[Signature, dict[str, str], Optional[Multiset]]:
    """The step of an instantiation at state, which it leaves as it was:
    check applicability, bind the fresh names (generated unless xi is
    given) and instantiate the consequent.

    Returns the advanced signature, the fresh-name assignment used, and
    the consequent, persistent facts included, or None when the step
    changes nothing: its ephemeral consequent equals its ephemeral
    antecedent and its persistent consequent is already in the state.
    Applying the step is then ``rewrite(inst.eph_ant_g(), consequent)``,
    in place or on a copy.  A list passed as produced receives the
    distinct produced facts.

    The antecedent and a consequent without fresh names are the ground
    parts the instantiation carries, if any (``Inst._kept``): those the
    matcher built with the candidate, which the key read before and the
    caller's rewrite reads after, or those a ground instantiation keeps.
    Parts it does not carry are grounded here for this call.
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
        return sig, names, None
    return sig, names, Multiset._make(eph._eph, pers) if pers else eph


def apply_inst(
    state: Multiset, inst: Inst, sig: Signature, xi: Optional[Mapping[str, str]] = None
) -> tuple[Multiset, Signature, dict[str, str]]:
    """Apply an instantiation to a copy of state: ``fire``, then
    ``Multiset.rewrite``.

    Returns the successor state, the advanced signature, and the
    fresh-name assignment actually used.  A step that changes nothing
    returns state, uncopied.
    """
    sig, names, con = fire(state, inst, sig, xi)
    return (state if con is None else state.rewrite(inst.eph_ant_g(), con)), sig, names


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
