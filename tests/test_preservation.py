"""Preservation checking in checked runs against a full re-check.

The oracle below is the check as it was before ``ConfigTyping``: after
every step it decodes the whole state, builds the claimed interface from
the recorded channel types, and runs the whole-configuration check of that
time.  A checked run must accept exactly the states the oracle accepts and
fail at the same step index.
"""

from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

from test_check_oracle import CHANS, _well_typed
from test_dynamics import corpus
from test_instantiation import _binders
from test_scheduler import SEEDS, replicated_corpus

import sill.dynamics as dynamics
import sill.lang.check as check_mod
from sill.dynamics import (
    PreservationViolation,
    SillSystem,
    _EVAR,
    _birth_type,
    _ground,
    classify_fact,
    config_fact,
    config_state,
    enc_proc,
    fact_channels,
    initial_config,
    msg_fact,
    proc_fact,
    run,
    state_facts,
)
from sill.lang import ast
from sill.lang.ast import (
    Case,
    Close,
    Fix,
    FVar,
    Interface,
    One,
    Plus,
    ProcF,
    Quote,
    Rec,
    SendLabel,
    SendUnfold,
    TVar,
    Unquote,
    Wait,
    fc,
)
from sill.equiv import divergent
from sill.lang.check import check_config, check_proc, check_type
from sill.lang.errors import (
    CyclicSharing,
    IllFormed,
    IllTyped,
    InterfaceMismatch,
    SillError,
    SillTypeError,
)
from sill.msr.multiset import Fact
from sill.msr.terms import App, Const

CONAT = Rec("a", Plus((("z", One()), ("s", TVar("a")))))
TWO = Plus((("s", One()), ("z", One())))
ONE = One()

# -- the oracle ----------------------------------------------------------------------


def old_check_config(facts, claimed):
    """The whole-configuration check before ConfigTyping, minus the tree
    decomposition it returned."""
    facts = tuple(facts)
    types = {}
    for group in (claimed.used, claimed.internal, claimed.provided):
        for c, t in group:
            if c in types:
                raise InterfaceMismatch(f"channel {c} listed twice in the interface")
            check_type(t)
            types[c] = t
    providers = {}
    for f in facts:
        if f.chan in providers:
            raise CyclicSharing(f"two facts provide channel {f.chan}")
        providers[f.chan] = f
    consumers = {}
    for f in facts:
        if f.chan not in types:
            raise InterfaceMismatch(f"fact channel {f.chan} is not in the interface")
        for c in sorted(fc(f.proc) - {f.chan}):
            if c not in types:
                raise InterfaceMismatch(f"channel {c} is not in the interface")
            if c in consumers:
                raise CyclicSharing(f"channel {c} is consumed by two facts")
            consumers[c] = f
    for f in facts:
        if isinstance(f, ast.MsgF) and ast.message_parts(f.chan, f.proc) is None:
            raise IllTyped(f"msg fact on {f.chan} does not hold a message")
        uses = fc(f.proc) - {f.chan}
        try:
            check_proc(f.proc, (f.chan, types[f.chan]), {c: types[c] for c in uses})
        except (SillTypeError, IllFormed) as e:
            raise IllTyped(f"fact providing {f.chan}: {e}") from e
    actual_used = {c for c in consumers if c not in providers}
    actual_provided = {c for c in providers if c not in consumers}
    actual_internal = set(providers) & set(consumers)
    for actual, claim in ((actual_used, {c for c, _ in claimed.used}),
                          (actual_internal, {c for c, _ in claimed.internal}),
                          (actual_provided, {c for c, _ in claimed.provided})):
        if actual != claim:
            raise InterfaceMismatch(f"channels {sorted(actual)} != {sorted(claim)}")
    state = {}
    for start in providers:
        path = []
        c = start
        while c is not None and state.get(c) != "done":
            if state.get(c) == "active":
                raise CyclicSharing(f"facts around channel {c} form a cycle")
            state[c] = "active"
            path.append(c)
            nxt = consumers.get(c)
            c = nxt.chan if nxt is not None else None
        for d in path:
            state[d] = "done"


def old_check_state(st, types, gamma, delta, idx):
    facts = state_facts(st)
    provided, internal = [], []
    for cf in facts:
        if cf.chan not in types:
            raise PreservationViolation(f"step {idx}: channel {cf.chan} has no recorded type")
        (provided if cf.chan in delta else internal).append((cf.chan, types[cf.chan]))
    used = tuple((n, types[n]) for n in sorted(gamma))
    try:
        old_check_config(facts, Interface(used, tuple(internal), tuple(provided)))
    except SillError as ex:
        raise PreservationViolation(f"step {idx}: {ex}") from ex


def old_first_failure(system, state, iface, seed, fuel) -> Optional[int]:
    """The first step index at which the oracle rejects the unchecked run's
    state, or None."""
    failure = old_failure(system, state, iface, seed, fuel)
    return None if failure is None else failure.step


def old_failure(system, state, iface, seed, fuel) -> Optional[PreservationViolation]:
    """The oracle's first rejection of the unchecked run's states, or None."""
    types = dict(iface.all_types())
    gamma = {n for n, _ in iface.used}
    delta = {n for n, _ in iface.provided}

    at = [0]

    def watch(tr):
        at[0] = len(tr.steps)
        step = tr.steps[-1]
        if step.xi:
            types[step.xi_map()[_EVAR]] = _birth_type(types, step)
        old_check_state(tr.final(), types, gamma, delta, at[0])

    try:
        old_check_state(state, types, gamma, delta, 0)
        run(system, state, iface, fuel=fuel, seed=seed, observer=watch)
    except PreservationViolation as ex:
        ex.step = at[0]
        return ex
    return None


def new_first_failure(system, state, iface, seed, fuel) -> Optional[int]:
    try:
        run(system, state, iface, fuel=fuel, seed=seed, check=True)
    except PreservationViolation as ex:
        return ex.step
    return None


# -- agreement on well-typed runs ------------------------------------------------------


def assert_agree(system_factory, facts, iface, seeds, fuel):
    """The checked run and the oracle reject the same step, or neither
    rejects any; return the indices."""
    got = []
    for seed in seeds:
        state = config_state(facts)
        want = old_first_failure(system_factory(), state, iface, seed, fuel)
        have = new_first_failure(system_factory(), state, iface, seed, fuel)
        assert have == want, (seed, have, want)
        got.append(have)
    return got


def test_corpus_agrees_with_oracle():
    for name, facts, iface in corpus():
        assert assert_agree(SillSystem, facts, iface, SEEDS, 200) == [None] * len(SEEDS), name


def test_replicated_corpus_agrees_with_oracle():
    facts, iface = replicated_corpus(2)
    assert assert_agree(SillSystem, facts, iface, SEEDS, 400) == [None] * len(SEEDS)


def test_check_config_agrees_with_oracle():
    """Whole configurations: the corpus, each with its interface and facts
    perturbed one way at a time."""
    def verdict(check, facts, iface):
        try:
            check(facts, iface)
        except SillError:
            return False
        return True

    cases = 0
    for _, facts, iface in corpus():
        groups = (iface.used, iface.internal, iface.provided)
        variants = [(facts, iface), (facts + facts[:1], iface), (facts[1:], iface),
                    (facts[:-1], iface)]
        for g in range(3):
            for i, (c, t) in enumerate(groups[g]):
                rest = groups[g][:i] + groups[g][i + 1:]
                for h in range(3):
                    moved = [list(x) for x in groups]
                    moved[g] = list(rest)
                    if h != g:
                        moved[h].append((c, t))
                    variants.append((facts, Interface(*map(tuple, moved))))
                retyped = [list(x) for x in groups]
                retyped[g][i] = (c, ONE if t != ONE else TWO)
                variants.append((facts, Interface(*map(tuple, retyped))))
        for fs, ifc in variants:
            want = verdict(old_check_config, fs, ifc)
            assert verdict(check_config, fs, ifc) == want, (fs, ifc)
            cases += not want
    assert cases > 30


# -- injected faults -------------------------------------------------------------------


class Faulty(SillSystem):
    """Step generation with one process's steps replaced.

    rewrite(system, fact, chan, proc, msgs) returns the replacement steps,
    or None to keep the generated ones.
    """

    def __init__(self, rewrite):
        super().__init__()
        self.rewrite = rewrite

    def _steps(self, fact, msgs):
        _, c, p, _ = classify_fact(fact)
        out = self.rewrite(self, fact, c, p, msgs)
        return super()._steps(fact, msgs) if out is None else out


def generate_as(q):
    """Generate the steps a fact would take if it held q instead."""
    def steps(system, fact, c, p, msgs):
        stand_in = Fact("proc", (fact.args[0], *enc_proc(q)))
        return [_ground(r.name, [fact if g is stand_in else g for g in r.eph_ant],
                        r.eph_con, r.evars, r.fresh_hints)
                for r in (i.rule for i in SillSystem._steps(system, stand_in, msgs))]
    return steps


def on(chan, proc, make):
    """Rewrite the steps of the fact proc chan {proc} only."""
    def rewrite(system, fact, c, p, msgs):
        if fact.pred == "proc" and c == chan and p == proc:
            return make(system, fact, c, p, msgs)
        return None
    return rewrite


def with_background(facts, iface):
    """The fault configuration next to a copy of the corpus, so the fault
    fires at a step index that depends on the seed."""
    bg_facts, bg_iface = replicated_corpus(1)
    return (list(facts) + bg_facts,
            Interface(iface.used + bg_iface.used, iface.internal + bg_iface.internal,
                      iface.provided + bg_iface.provided))


def assert_fault_caught(rewrite, facts, iface, expect_failure=True):
    facts, iface = with_background(facts, iface)
    got = assert_agree(lambda: Faulty(rewrite), facts, iface, SEEDS, 400)
    if expect_failure:
        assert None not in got, got
        assert len(set(got)) > 1, got  # the background moves the fault around
    else:
        assert got == [None] * len(SEEDS)


A, D = ProcF("xa", Close("xa")), ProcF("xd", Wait("xa", Close("xd")))
A_TO_D = Interface((), (("xa", ONE),), (("xd", ONE),))


def test_ill_typed_message():
    facts = [ProcF("xs", SendLabel("xs", "z", Close("xs"))),
             ProcF("xf", Case("xs", (("s", Wait("xs", Close("xf"))),
                                     ("z", Wait("xs", Close("xf"))))))]
    iface = Interface((), (("xs", TWO),), (("xf", ONE),))
    bogus = SendLabel("xs", "bogus", Close("xs"))
    assert_fault_caught(on("xs", facts[0].proc, generate_as(bogus)), facts, iface)


def test_duplicated_provider():
    m = msg_fact("xa", Close("xa"))
    twice = lambda system, fact, c, p, msgs: [_ground("one_r", [fact], [m, m])]
    assert_fault_caught(on("xa", Close("xa"), twice), [A, D], A_TO_D)


def test_second_consumer():
    facts = [A, D, ProcF("xb", Close("xb")), ProcF("xe", Wait("xb", Close("xe")))]
    iface = Interface((), (("xa", ONE), ("xb", ONE)), (("xd", ONE), ("xe", ONE)))
    # xe, once xb has closed, waits on xa too
    also_a = Wait("xb", Wait("xa", Close("xe")))
    assert_fault_caught(on("xe", facts[3].proc, generate_as(also_a)), facts, iface)


def drop(system, fact, c, p, msgs):
    return [_ground("drop", [fact], [])]


def test_provider_vanishes():
    # xa is consumed by xd: without its provider the state is ill-typed
    assert_fault_caught(on("xa", Close("xa"), drop), [A, D], A_TO_D)
    # a provided channel that leaves the configuration is fine
    assert_fault_caught(on("xa", Close("xa"), drop), [A],
                        Interface((), (), (("xa", ONE),)), expect_failure=False)


def test_client_vanishes():
    # xa keeps its provider but loses its only client xd
    assert_fault_caught(on("xd", D.proc, drop), [A, D], A_TO_D)


def test_provided_channel_gets_a_client():
    # xb's step turns it into a client of xa, which the interface provides
    facts = [A, ProcF("xb", Close("xb"))]
    iface = Interface((), (), (("xa", ONE), ("xb", ONE)))
    client = lambda system, fact, c, p, msgs: [_ground(
        "client", [fact], [proc_fact("xb", Wait("xa", Close("xb")))])]
    assert_fault_caught(on("xb", Close("xb"), client), facts, iface)


def test_cycle():
    # xd's step swallows the root xe and turns xd into a client of xc, which
    # is a client of xd: every channel still has one provider and one
    # consumer, only the loop is wrong
    facts = [ProcF("xc", Wait("xd", Close("xc"))), ProcF("xd", Close("xd")),
             ProcF("xe", Wait("xc", Close("xe")))]
    iface = Interface((), (("xc", ONE), ("xd", ONE)), (("xe", ONE),))
    knot = lambda system, fact, c, p, msgs: [_ground(
        "knot", [fact, proc_fact("xe", facts[2].proc)],
        [proc_fact("xd", Wait("xc", Close("xd")))])]
    assert_fault_caught(on("xd", Close("xd"), knot), facts, iface)
    with pytest.raises(PreservationViolation, match="cycle"):
        run(Faulty(on("xd", Close("xd"), knot)), config_state(facts), iface, check=True)


def test_a_wrong_channel_in_a_produced_environment():
    # once xa has closed, xk's continuation names xb where it named xc: a
    # wait on xb, whose type is no 1, which typing the produced fact from
    # its code and environment must still reject
    facts = [A, ProcF("xb", SendLabel("xb", "z", Close("xb"))), ProcF("xc", Close("xc")),
             ProcF("xk", Wait("xa", Wait("xc", Close("xk"))))]
    iface = Interface((), (("xa", ONE), ("xc", ONE)), (("xb", TWO), ("xk", ONE)))
    xb, xc = Const("xb"), Const("xc")

    def swapped(system, fact, c, p, msgs):
        return [_ground(r.name, list(r.eph_ant), [Fact(f.pred, (*f.args[:2], App("env", tuple(
            xb if a is xc else a for a in f.args[2].args)))) for f in r.eph_con])
            for r in (i.rule for i in SillSystem._steps(system, fact, msgs))]

    assert_fault_caught(on("xk", facts[3].proc, swapped), facts, iface)
    with pytest.raises(PreservationViolation, match="fact providing xk"):
        run(Faulty(on("xk", facts[3].proc, swapped)), config_state(facts), iface, check=True)


def test_used_channel_faults():
    g = ProcF("xg", Wait("xu", Close("xg")))
    iface = Interface((("xu", ONE),), (), (("xg", ONE),))
    # the only client of the used channel xu disappears
    assert_fault_caught(on("xg", g.proc, drop), [g], iface)
    # a provider of xu appears
    serve = lambda system, fact, c, p, msgs: [_ground(
        "serve", [fact], [msg_fact("xa", Close("xa")), proc_fact("xu", Close("xu"))])]
    assert_fault_caught(on("xa", Close("xa"), serve), [A, D, g],
                        Interface((("xu", ONE),), A_TO_D.internal,
                                  A_TO_D.provided + (("xg", ONE),)))


def test_initial_state_faults():
    for facts, iface in (
            ([A], Interface((), (), (("xa", TWO),))),
            ([A, A], Interface((), (), (("xa", ONE),))),
            ([D], A_TO_D)):
        assert assert_agree(SillSystem, facts, iface, (None,), 10) == [0]
    # the whole interface is validated up front; the full re-check only
    # looked at the channels the state held
    for iface in (Interface((), (("xa", ONE),), (("xa", ONE),)),
                  Interface((), (("xb", TVar("t")),), (("xa", ONE),))):
        assert old_first_failure(SillSystem(), config_state([A]), iface, None, 10) is None
        assert new_first_failure(SillSystem(), config_state([A]), iface, None, 10) == 0


def test_checked_run_never_decodes_the_whole_state(monkeypatch):
    def whole(*args):
        raise AssertionError("whole-state check")

    monkeypatch.setattr(dynamics, "state_facts", whole)
    monkeypatch.setattr(dynamics, "check_config", whole)
    facts, iface = replicated_corpus(1)
    tr = run(SillSystem(), config_state(facts), iface, fuel=400, seed=1, check=True)
    assert tr.meta["maximal"]


def test_checked_spin_types_its_process_once(monkeypatch):
    typed = []
    type_fact = check_mod._type_fact

    def counting(f, uses, types):
        typed.append(f)
        type_fact(f, uses, types)

    monkeypatch.setattr(check_mod, "_type_fact", counting)
    state, iface = initial_config(divergent("r", ONE), {}, ("r", ONE))
    tr = run(SillSystem(), state, iface, fuel=200, check=True)
    assert len(tr.steps) == 200
    assert len(typed) == 1


# -- typing by code ------------------------------------------------------------------


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False))
def test_a_passed_key_passes_full_typing(rng):
    # one code under many environments, their names drawn among the code's
    # own binders, so that decoding renames binders apart, and among names
    # that renaming apart picks; each fact is typed in full and keyed
    p, (c, a), used = _well_typed(rng)
    code, env = enc_proc(p)
    free = [c, *[x.name for x in env.args if x.name != c]]
    had = {c: a, **used}
    pool = sorted(set(CHANS) | _binders(p) | {"x%0", "n0", "n1"})
    typing = dynamics._RunTyping(Interface())
    passed = set()
    for i in range(12):
        rho = {n: n if i == 0 else rng.choice(pool) for n in free}
        typing.types.clear()
        typing.types.update({rho[n]: had[n] for n in free})
        f = Fact("proc", (Const(rho[c]), code, App("env", tuple(
            Const(rho[x.name]) for x in env.args))))
        key = typing._key(f)
        try:
            check_mod._type_fact(config_fact(f), fact_channels(f) - {rho[c]}, typing.types)
            ok = True
        except SillError:
            ok = False
        assert ok or key not in passed, (p, rho)
        if ok and key is not None:
            passed.add(key)


def test_a_swapped_environment_fails_under_a_warm_memo(monkeypatch):
    # choice_round's client in the fourth of four copies: its label step
    # continues on a code the three copies before it have typed, under an
    # environment whose two slots are swapped
    facts, iface = replicated_corpus(4)
    cli = next(f for f in facts if f.chan == "e_2_3")

    def swap(facts):
        return tuple(Fact("proc", (*f.args[:2], App("env", f.args[2].args[::-1])))
                     if f.pred == "proc" else f for f in facts)

    def swapped(system, fact, c, p, msgs):
        return [_ground(r.name, list(r.eph_ant), lambda nc, r=r: swap(r._template(nc)),
                        r.evars, r.fresh_hints)
                for r in (i.rule for i in SillSystem._steps(system, fact, msgs))]

    put, added = dynamics._RunTyping.put, []

    def logged(self, f, n):
        added.append(f)
        put(self, f, n)

    monkeypatch.setattr(dynamics._RunTyping, "put", logged)
    want = old_failure(Faulty(on("e_2_3", cli.proc, swapped)), config_state(facts), iface,
                       None, 400)
    with pytest.raises(PreservationViolation) as ex:
        run(Faulty(on("e_2_3", cli.proc, swapped)), config_state(facts), iface, fuel=400,
            check=True)
    assert want is not None and ex.value.step == want.step > 0
    assert str(ex.value) == str(want)
    # the last fact added is the swapped one, and the copies before it (and
    # the shift and rec rounds, whose clients end in the same code) added
    # its code unswapped
    last = added[-1]
    assert last.args[0].name == last.args[2].args[0].name == "e_2_3"
    assert sum(f.args[1] is last.args[1] for f in added[:-1]) >= 3


def test_typed_in_full_does_not_grow_with_copies():
    for seed in (1, 2):
        counts = []
        for copies in (1, 4):
            facts, iface = replicated_corpus(copies)
            tr = run(SillSystem(), config_state(facts), iface, fuel=4000, seed=seed, check=True)
            sched = tr.meta["sched"]
            # every fact a copy adds is typed one way or the other
            assert sched["typed_by_code"] + sched["typed_in_full"] == 90 * copies
            counts.append(sched["typed_in_full"])
        assert counts[0] == counts[1], (seed, counts)
    assert "typed_in_full" not in run(SillSystem(), config_state(facts), iface).meta["sched"]


# -- fresh names ---------------------------------------------------------------------


OMEGA = Fix("w", Quote(("c", CONAT),
                       SendUnfold("c", SendLabel("c", "s", Unquote("c", FVar("w"))))))


def test_run_from_a_state_with_generated_names():
    state, iface = initial_config(Unquote("o", OMEGA), {}, ("o", CONAT))
    first = run(SillSystem(), state, iface, fuel=3, check=True)
    types = first.meta["channel_types"]
    born = [n for s in first.steps for _, n in s.xi]
    assert born == ["o'0", "o'1"]
    again = Interface((), tuple((n, types[n]) for n in born), iface.provided)
    for check in (False, True):
        tr = run(SillSystem(), first.final(), again, fuel=3, check=check)
        assert [n for s in tr.steps for _, n in s.xi] == ["o'2", "o'3"]
        chans = [f.chan for f in state_facts(tr.final())]
        assert len(chans) == len(set(chans))


def test_birth_never_retypes_a_channel():
    # the interface types o'0 although no fact holds it yet; the first
    # birth would mint that name again
    state, iface = initial_config(Unquote("o", OMEGA), {}, ("o", CONAT))
    iface = Interface((), (("o'0", ONE),), iface.provided)
    for check in (False, True):
        with pytest.raises(PreservationViolation, match="already typed") as ex:
            run(SillSystem(), state, iface, fuel=3, check=check)
        assert ex.value.step == 2
