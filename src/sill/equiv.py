"""Barbs, barbed similarity, and bounded observational equivalence checking.

Two configurations are compared by subjecting both to experiments
(configuration contexts plus a choice of observed channels) and comparing
the observed communications.  Universal quantification over contexts is
replaced by a user-supplied context suite plus generated experiment
families at bounded depth, so every verdict here is bounded.

Every observation is an experiment run: ``plug`` composes a context with
its subject and ``observe_config`` runs and observes the result, for the
suite and the generated families alike.  The empty context observes each
subject alone.  An experiment's outcome is a function of the plugged
configuration, and a verdict's runs share one ``SillSystem``, which keeps
every observation it made; so an experiment a verdict repeats (an equal
pair's second direction, or a subject against itself) runs once.  A
verdict reads each subject's facts and channel names once, and ``plug``
checks only the experiment, as ``config_subject`` checked the subject.

A step that applies in a state still applies beside a context's facts,
and what a run that ends maximal shows does not depend on its schedule.
So when a subject's run alone ends maximal, that run is a prefix of every
composite run, and the generated experiments plug into the state it
ended in (``Observation.end``) rather than replaying it.  Their fuel then
counts from that state: a composite gets the subject's steps on top of
its budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from .dynamics import SillSystem, config_state, fact_channels, msg_info, rename_channels
from .fairness import fair_execute
from .lang import ast
from .lang.check import check_config
from .lang.errors import InterfaceMismatch, SillError
from .msr.multiset import Fact, Multiset, fact_key
from .msr.rules import Signature, fire
from .msr.terms import Const
from .obs import (
    BOT,
    CommTree,
    Label,
    Observation,
    ValueRelation,
    check_comm,
    comm_eq,
    observe_config,
    syntactic,
    tree_to_str,
    universal,
)


class UnknownChannel(SillError):
    pass


class IllTypedObservation(SillError):
    pass


Subject = tuple[Multiset, ast.Interface]

# answer protocols for generated experiments: a single yes label, after
# which nothing more can be said
Y_POS = ast.Plus((("y", ast.Plus(())),))
Y_NEG = ast.With((("y", ast.With(())),))

ORACLE_REPLY = ast.Up(ast.Plus((("tt", ast.One()), ("ff", ast.One()))))


def _fc_state(state: Multiset) -> set[str]:
    return set().union(*map(fact_channels, state.eph_support()))


# -- barbs -------------------------------------------------------------------------


def _carries(facts: Iterable[Fact], a: str) -> bool:
    """Is one of facts a message whose carrier is a?"""
    return any(f.pred == "msg" and msg_info(f).carrier == a for f in facts)


def barb(state: Multiset, a: str, system: Optional[SillSystem] = None) -> bool:
    """Can an observable action on a occur after at most one step?

    Holds exactly when the state, or one of its single-step successors,
    contains a message whose carrier is a.  A message on a names a, so
    the free channels, which need every process decoded, are computed
    only when the state holds none; a successor then holds one exactly
    when its step produced one, so no successor is built.
    """
    if _carries(state.eph_support(), a):
        return True
    if a not in _fc_state(state):
        raise UnknownChannel(a)
    return a in _step_carriers(state, system or SillSystem())


def _step_carriers(state: Multiset, system: SillSystem) -> set[str]:
    """The carriers of the messages the single steps of state produce."""
    sig = Signature(frozenset(state.consts()) | system.signature().declared, 0)
    out: set[str] = set()
    for inst in system.applicable(state):
        produced: list[Fact] = []
        fire(state, inst, sig, produced=produced)
        out.update(msg_info(f).carrier for f in produced if f.pred == "msg")
    return out


def weak_barb(
    state: Multiset,
    a: str,
    fuel: int = 500,
    seed: Optional[int] = None,
    system: Optional[SillSystem] = None,
) -> bool:
    """Does some state within a fair run of length <= fuel satisfy the barb?"""
    return _weak_barbs(state, fuel, seed, system)(a)


def _weak_barbs(state: Multiset, fuel: int, seed: Optional[int],
                system: Optional[SillSystem] = None) -> Callable[[str], bool]:
    """``weak_barb`` of state, for each channel it is asked: a reader of
    one fair run, started the first time a channel's barb is not already
    in the state, since the run does not depend on the channel.  A message
    on a names a, so, as in ``barb``, the free channels are computed only
    when the state holds none.  The run's answer is one set of carriers:
    those of the messages among its facts, which hold every message some
    state of it held, and, when it stopped at its fuel, those the steps of
    its final state produce; a maximal run's final state has no steps."""
    sys, carriers = system or SillSystem(), None

    def weak(a: str) -> bool:
        nonlocal carriers
        if _carries(state.eph_support(), a):
            return True
        if a not in _fc_state(state):
            raise UnknownChannel(a)
        if carriers is None:
            tr = fair_execute(sys, state, budget=fuel, seed=seed)
            carriers = {msg_info(f).carrier for f in tr.facts() if f.pred == "msg"}
            if not tr.meta["maximal"]:
                carriers |= _step_carriers(tr.final(), sys)
        return a in carriers
    return weak


def barbed_sim(
    c: Subject,
    d: Subject,
    fuel: int = 500,
    seed: Optional[int] = None,
) -> bool:
    """Per channel of the shared interface, a weak barb of c implies one of
    d; each subject runs at most once (``_weak_barbs``)."""
    cs, ci = c
    ds, di = d
    _require_shared(ci, di)
    c_barb, d_barb = _weak_barbs(cs, fuel, seed), _weak_barbs(ds, fuel, seed)
    return not any(c_barb(x) and not d_barb(x)
                   for x in sorted([n for n, _ in ci.used] + [n for n, _ in ci.provided]))


# -- prelude processes -------------------------------------------------------------


def divergent(chan: str, a: ast.SessionType,
              used: tuple[tuple[str, ast.SessionType], ...] = ()) -> ast.Process:
    """A process at chan : a that steps forever without communicating.

    It holds the channels in used without ever touching them.
    """
    names = tuple(n for n, _ in used)
    k = 0
    while f"z{k}" in names or f"z{k}" == chan:
        k += 1
    inner = f"z{k}"
    q = ast.Quote((inner, a), ast.Unquote(inner, ast.FVar("w"), names), used)
    return ast.Unquote(chan, ast.Fix("w", q), names)


def universal_oracle(chan: str, vtype: ast.FuncType) -> ast.Process:
    """Oracle relating any received value to the expected one: always answers tt."""
    return ast.RecvVal("w", chan,
                       ast.RecvShift(chan, ast.SendLabel(chan, "tt",
                                                         ast.Close(chan))))


def oracle_type(vtype: ast.FuncType) -> ast.SessionType:
    return ast.ImpVal(vtype, ORACLE_REPLY)


# -- generated experiment families ---------------------------------------------------

OracleFactory = Callable[[str, ast.FuncType], ast.Process]


def _gen(n: int, i: str, a: ast.SessionType, v: CommTree, r: str,
         ytype: ast.SessionType, speaks_when: str, provides: Optional[str],
         extra: tuple[tuple[str, ast.SessionType], ...],
         fresh: Callable[[], str],
         oracle: OracleFactory) -> list[ast.Process]:
    hold = extra + ((i, a),)
    y_after = ytype.branch("y")

    def spin(answer_residual, held):
        """Terminal loop at whichever channel the experiment provides."""
        if provides is None:
            return divergent(r, answer_residual, held)
        now = [t for name, t in held if name == provides]
        rest = tuple(p for p in held if p[0] != provides)
        return divergent(provides, now[0], rest + ((r, answer_residual),))

    def yes(held):
        return ast.SendLabel(r, "y", spin(y_after, held))

    def no(held):
        return spin(ytype, held)

    if v.kind == "bot":
        return [yes(hold)]
    if ast.polarity(a) != speaks_when:
        # the examined side only receives here, so nothing is ever seen
        return [no(hold)]

    conts = ast.message_cont(v.kind, a, v.payload)
    if v.kind == "close":
        return [ast.Wait(i, yes(extra))]

    if v.kind == "chan":
        x = fresh()
        left, right = conts
        if n == 0:
            return [ast.RecvChan(x, i, yes(extra + ((x, left), (i, right))))]
        drop = [ast.RecvChan(x, i, e)
                for e in _gen(n - 1, i, right, v.children[1], r, ytype,
                              speaks_when, provides, extra + ((x, left),),
                              fresh, oracle)]
        # the received channel is on the experiment's used side either way,
        # so its provider speaks at positive types
        take = [ast.RecvChan(x, i, e)
                for e in _gen(n - 1, x, left, v.children[0], r, ytype,
                              ast.POSITIVE, provides, extra + ((i, right),),
                              fresh, oracle)]
        return drop + take

    # label, unfold, shift and val: a receive prefix, then one continuation
    (cont_t,) = conts
    if v.kind == "label":
        def prefix(body):
            return ast.Case(i, tuple(
                (l, body if l == v.payload else no(extra + ((i, t),)))
                for l, t in a.branches))
    elif v.kind == "val":
        c = fresh()
        otype = oracle_type(a.vtype)

        def prefix(body):
            inner = ast.Case(c, (
                ("tt", ast.Wait(c, body)),
                ("ff", no(extra + ((c, ast.One()), (i, cont_t)))),
            ))
            client = ast.RecvVal("x", i,
                                 ast.SendVal(c, ast.FVar("x"),
                                             ast.SendShift(c, inner)))
            return ast.Cut(c, otype, oracle(c, a.vtype), client)
    else:
        recv = ast.RecvUnfold if v.kind == "unfold" else ast.RecvShift

        def prefix(body):
            return recv(i, body)

    if n == 0:
        return [prefix(yes(extra + ((i, cont_t),)))]
    return [prefix(e)
            for e in _gen(n - 1, i, cont_t, v.children[0], r, ytype,
                          speaks_when, provides, extra, fresh, oracle)]


def _fresh_namer(avoid: set[str]) -> Callable[[], str]:
    seen = set(avoid)
    counter = [0]

    def fresh() -> str:
        while f"x{counter[0]}" in seen:
            counter[0] += 1
        name = f"x{counter[0]}"
        seen.add(name)
        return name

    return fresh


def gen_experiments_R(n: int, i: str, r: str, v: CommTree, a: ast.SessionType,
                      oracle: OracleFactory = universal_oracle,
                      ) -> list[ast.Process]:
    """Experiments that use i : a, report on the provided channel r, and
    answer (y, bot) exactly when the communication sent on i extends the
    depth n+1 cut of v."""
    try:
        check_comm(v, a)
    except SillError as ex:
        raise IllTypedObservation(str(ex)) from ex
    fresh = _fresh_namer({i, r})
    return _gen(n, i, a, v, r, Y_POS, ast.POSITIVE, None, (), fresh, oracle)


def gen_experiments_L(n: int, i: str, r: str, v: CommTree, a: ast.SessionType,
                      oracle: OracleFactory = universal_oracle,
                      ) -> list[ast.Process]:
    """The mirror family: experiments that provide i : a and report on the
    used channel r.  The processes are the same constructs as in the
    provided-side family; only the extrinsic typing differs."""
    try:
        check_comm(v, a)
    except SillError as ex:
        raise IllTypedObservation(str(ex)) from ex
    fresh = _fresh_namer({i, r})
    return _gen(n, i, a, v, r, Y_NEG, ast.NEGATIVE, i, (), fresh, oracle)


# -- experiments -------------------------------------------------------------------


def config_subject(decl: ast.ConfigDecl) -> Subject:
    """Typecheck a hole-free configuration and package it for experiments."""
    if decl.hole is not None:
        raise SillError(f"configuration {decl.name} has a hole")
    check_config(list(decl.facts), decl.interface)
    return config_state(decl.facts), decl.interface


@dataclass(frozen=True)
class ConfigContext:
    """A configuration with a single hole.

    outer.internal must list the context's own channels; the hole interface
    names the channels the plugged configuration must use and provide.
    """

    facts: tuple[ast.ConfigFact, ...]
    hole: ast.Interface
    outer: ast.Interface
    name: str = field(default="", compare=False)


@dataclass(frozen=True)
class Experiment:
    context: ConfigContext
    observed: Optional[tuple[str, ...]] = None


@dataclass(frozen=True)
class ObservationSystem:
    mode: str  # external | internal | total
    rel: ValueRelation
    experiments: tuple[Experiment, ...] = ()


def make_system(mode: str, experiments: Iterable[Experiment] = (),
                rel: Optional[ValueRelation] = None) -> ObservationSystem:
    if mode not in ("external", "internal", "total"):
        raise ValueError(f"unknown mode {mode!r}")
    if rel is None:
        rel = syntactic if mode == "total" else universal
    return ObservationSystem(mode, rel, tuple(experiments))


def empty_context(interface: ast.Interface) -> ConfigContext:
    hole = ast.Interface(used=interface.used, provided=interface.provided)
    return ConfigContext((), hole, hole, name="hole")


def mode_channels(context: ConfigContext, mode: str) -> tuple[str, ...]:
    outer = context.outer
    ext = [n for n, _ in outer.used] + [n for n, _ in outer.provided]
    internal = [n for n, _ in context.hole.used] + \
               [n for n, _ in context.hole.provided]
    if mode == "external":
        chans = ext
    elif mode == "internal":
        chans = internal
    else:
        chans = ext + [n for n, _ in outer.internal] + internal
    return tuple(sorted(set(chans)))


def _require_shared(ci: ast.Interface, di: ast.Interface) -> None:
    side = ci.differs(di, ("used", "provided"))
    if side is not None:
        raise InterfaceMismatch(f"{side} channels differ")


class _Prepared(tuple):
    """A subject, still the pair (state, interface), with what plugging
    reads off it, read once.

    ``ordered`` holds its facts in ``state_facts`` order, ``names`` every
    channel its facts name, ``internal`` its internal channels with their
    types, in sorted order, and ``stand_ins`` one fact per provided channel
    p, which ``plug`` checks in place of p's tree: ``divergent`` at p,
    holding the used channels the tree consumes.  A fact's channels are
    read off its environment (``fact_channels``), and no fact is decoded.
    """

    def __new__(cls, subject: Subject):
        if isinstance(subject, _Prepared):
            return subject
        self = super().__new__(cls, subject)
        state, iface = subject
        eph = [f for f in sorted(state.eph_support(), key=fact_key)
               for _ in range(state.count(f))]
        self.ordered = Multiset.of(eph)
        chans = [fact_channels(f) for f in eph]
        self.names = set().union(*chans)
        keep = {n for n, _ in iface.used} | {n for n, _ in iface.provided}
        itypes = dict(iface.internal)
        internal = sorted(self.names - keep)
        missing = [n for n in internal if n not in itypes]
        if missing:
            raise SillError(f"no recorded types for internal channels {missing}")
        self.internal = [(n, itypes[n]) for n in internal]
        self._taken = self.names | keep
        # each provided channel's tree, followed down to the used channels
        provider = {f.args[0].name: c for f, c in zip(eph, chans)}
        used = dict(iface.used)
        self.stand_ins = ()
        for p, a in iface.provided:
            seen, stack = {p}, [p]
            while stack:
                for c in provider.get(stack.pop(), ()):
                    if c not in seen:
                        seen.add(c)
                        stack.extend(() if c in used else (c,))
            held = tuple((c, t) for c, t in iface.used if c in seen)
            self.stand_ins += (ast.ProcF(p, divergent(p, a, held)),)
        return self

    def renaming(self, avoid: set[str]) -> dict[str, str]:
        """Fresh names for the internal channels that avoid holds: the
        least free ``name%k``."""
        rho: dict[str, str] = {}
        taken = self._taken | avoid
        for name, _ in self.internal:
            if name in avoid:
                k = 0
                while f"{name}%{k}" in taken:
                    k += 1
                rho[name] = f"{name}%{k}"
                taken.add(rho[name])
        return rho


def plug(context: ConfigContext, subject: Subject) -> Subject:
    """Fill the context's hole, renaming subject internals apart.

    The subject must be checked, as ``config_subject`` checks it: plug
    type-checks only the context's facts, against the hole, and the
    interface it assembles.  In the check each tree of the subject is
    replaced by its stand-in (see ``_Prepared``), which meets the context
    on the same channels, so a fault the whole composite would show, a
    cycle through the hole among them, still raises.  The composite holds
    the context's facts, then the subject's in ``state_facts`` order, each
    with its channels renamed (``rename_channels``): no process is decoded.
    """
    subject = _Prepared(subject)
    _require_shared(context.hole, subject[1])
    outer = context.outer
    ctx_names = {n for cf in context.facts
                 for n in ast.fc(cf.proc) | {cf.chan}}
    ctx_names |= {n for n, _ in (*outer.used, *outer.provided, *outer.internal)}
    rho = subject.renaming(ctx_names)
    # hole channels not exposed by the outer interface become internal;
    # channels the context already lists are not repeated
    ext = {n for n, _ in (*outer.used, *outer.provided)}
    seen: dict[str, ast.SessionType] = {}
    internal = []
    for n, t in (*outer.internal, *context.hole.used, *context.hole.provided):
        if n in ext:
            continue
        if n in seen:
            if not ast.type_eq(seen[n], t):
                raise InterfaceMismatch(f"channel {n} typed two ways")
            continue
        seen[n] = t
        internal.append((n, t))
    check_config(tuple(context.facts) + subject.stand_ins,
                 ast.Interface(used=outer.used, internal=tuple(internal),
                               provided=outer.provided))
    # the subject's internal channels, renamed apart from all of these
    internal += [(rho.get(n, n), t) for n, t in subject.internal]
    iface = ast.Interface(used=outer.used, internal=tuple(internal),
                          provided=outer.provided)
    rename = {Const(n): Const(m) for n, m in rho.items()}
    renamed = Multiset({rename_channels(f, rename): n for f, n in subject.ordered.eph_items()})
    return config_state(context.facts).msum(renamed), iface


def run_experiment(subject: Subject, experiment: Experiment,
                   mode: str = "external", fuel: int = 500, depth: int = 8,
                   seed: Optional[int] = None,
                   system: Optional[SillSystem] = None):
    """Plug the subject in, run fairly, observe per the mode."""
    state, iface = plug(experiment.context, subject)
    chans = experiment.observed or mode_channels(experiment.context, mode)
    return observe_config(state, iface, channels=chans, fuel=fuel,
                          depth=depth, seed=seed, system=system)


# -- bounded equivalence checking ----------------------------------------------------


def _answer_name(base: str, taken: set[str]) -> str:
    k = 0
    while f"{base}_ans{k if k else ''}" in taken:
        k += 1
    return f"{base}_ans{k if k else ''}"


def _check_family(ref: Observation, target: Subject, n: int, fuel: int,
                  seed, system) -> Optional[dict]:
    """Generated experiments from reference observations, run against target.

    Tests that the target's communications extend the reference ones, cut
    at depth n+1.  Returns a counterexample record, or None if every
    experiment answers yes.  Experiments never send on subject channels,
    so each interface channel is tested by its own composite rather than
    by one combined context.
    """
    target = _Prepared(target)
    names = {chan for chan, _, _ in ref.channels} | target.names
    used = dict(target[1].used)
    for chan, v, a in ref.channels:
        r = _answer_name(chan, names)
        if chan in used:
            family = gen_experiments_L(n, chan, r, v, a)
        else:
            family = gen_experiments_R(n, chan, r, v, a)
        for proc in family:
            key = chan if chan in used else r
            state, iface = plug_experiment((ast.ProcF(key, proc),), target,
                                           chan, r)
            got = observe_config(state, iface, (r,), fuel, 2, seed,
                                 system).tree(r)
            if got != Label("y", BOT):
                return {
                    "kind": "generated",
                    "depth": n,
                    "channel": chan,
                    "experiment": ast.proc_to_str(proc),
                    "answer": tree_to_str(got),
                }
    return None


def plug_experiment(exp_facts: tuple[ast.ConfigFact, ...], subject: Subject,
                    chan: str, r: str) -> Subject:
    """Plug the subject into a generated experiment.

    The experiment is a context whose hole is the subject's interface: the
    tested channel moves inside, and the answer channel r joins the outer
    interface on the experiment's side.
    """
    iface = subject[1]
    used, provided = iface.used, iface.provided
    if chan in dict(used):
        used = tuple(p for p in used if p[0] != chan) + ((r, Y_NEG),)
    else:
        provided = tuple(p for p in provided if p[0] != chan) + ((r, Y_POS),)
    hole = ast.Interface(used=iface.used, provided=iface.provided)
    outer = ast.Interface(used=used, provided=provided)
    return plug(ConfigContext(tuple(exp_facts), hole, outer), subject)


def equiv_check(c: Subject, d: Subject, sys: ObservationSystem,
                fuel: int = 500, depth: int = 8, seed: Optional[int] = None,
                system: Optional[SillSystem] = None) -> dict:
    """Bounded equivalence verdict over the system's experiments plus the
    generated families at increasing depth.

    Every observation is an experiment run.  The suite starts with the
    empty context, which observes each subject alone on all its interface
    channels; the generated families are built from those observations.
    All runs share one ``SillSystem``, a new one per verdict unless system
    is given; a given system is shared and keeps growing while it lives,
    its observations among the rest, so an experiment observed before on
    it, in this verdict or an earlier one, is not run again.  Both
    subjects are read once (see ``_Prepared``) and must be checked, as
    ``config_subject`` checks them.

    When a subject's alone run ends maximal, the generated families
    against it plug into the state that run ended in, and their fuel
    counts from there, so each composite gets the subject's steps on top
    of fuel; otherwise they plug the subject as given.  Suite contexts
    always plug the subject as given: in internal and total mode they
    observe hole channels whose messages the alone run may have consumed.

    The verdict is a dict with mode, bounded (always true), equivalent, and
    a counterexample when one was found.
    """
    _require_shared(c[1], d[1])
    c, d = _Prepared(c), _Prepared(d)
    system = system or SillSystem()
    verdict = {"mode": sys.mode, "bounded": True, "equivalent": True}

    suite = [Experiment(empty_context(c[1]))] + list(sys.experiments)
    for idx, e in enumerate(suite):
        obs_c = run_experiment(c, e, sys.mode, fuel, depth, seed, system)
        obs_d = run_experiment(d, e, sys.mode, fuel, depth, seed, system)
        if idx == 0:
            # the empty context observes each subject alone, on every
            # interface channel, in every mode
            alone_c, alone_d = obs_c, obs_d
        for (name, tc, _), (_, td, _) in zip(obs_c.channels, obs_d.channels):
            if not comm_eq(tc, td, sys.rel):
                verdict["equivalent"] = False
                verdict["counterexample"] = {
                    "kind": "context",
                    "context": e.context.name or f"#{idx}",
                    "channel": name,
                    "left": tree_to_str(tc),
                    "right": tree_to_str(td),
                }
                return verdict

    # each end state is prepared once, and a direction whose reference and
    # target are the first's would repeat its experiments, so it is skipped
    c_tgt = c if alone_c.end is None else _Prepared(alone_c.end)
    d_tgt = (d if alone_d.end is None else
             c_tgt if alone_d.end is alone_c.end else _Prepared(alone_d.end))
    directions = [(alone_c, d_tgt, "left-right")]
    if not (alone_d is alone_c and c_tgt[0] == d_tgt[0]
            and c_tgt[1].differs(d_tgt[1]) is None):
        directions.append((alone_d, c_tgt, "right-left"))
    for n in range(depth):
        for ref, tgt, tag in directions:
            bad = _check_family(ref, tgt, n, fuel, seed, system)
            if bad is not None:
                bad["direction"] = tag
                verdict["equivalent"] = False
                verdict["counterexample"] = bad
                return verdict
    return verdict
