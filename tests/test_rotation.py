"""A run whose live classes are all idle rotates its queue, and its trace
is the one the scheduler without rotation records.

Once every live class of a run is idle, no step can change the state, so
the FIFO queue only rotates: ``fair_execute`` records the rest of its fuel
from one cycle (``Trace.rotate``) and reports the loop in
``meta["loop"]``.  The oracle is the scheduler as it was before
(``scheduler_oracle.fair_execute``), which takes every step through the
queue.  On the corpus beside spins, on random systems with a self-loop
rule and on every run an equivalence verdict of the equiv benchmark
makes, both give the same steps, the same counters and queue depths, and
the same step count and state at every observer call; the states read
from the observer mid-run and after the run agree too.  A run closes its
loop after one cycle of idle steps in a row, each rotated step is the
object of the step a period before, and the loop starts where the
oracle's idle table first covered every live class, or less than a
period later.  Each run that closed its loop certifies itself: its last
round holds every class applicable at its final state once, and the
lasso it ends in is fair in all nine senses.
"""

import random
import sys
from pathlib import Path

import pytest
import scheduler_oracle
from helpers import random_mrs
from test_scheduler import RING, SEEDS, _extend, beside_spins, replicated_corpus, steps_of

from sill import dynamics, fairness, obs
from sill.dynamics import SillSystem, config_state, initial_config, run
from sill.equiv import config_subject, divergent, equiv_check, make_system
from sill.fairness import LassoTrace, fair_execute, fairness_report
from sill.lang import check_module, parse
from sill.lang.ast import Fix, FVar, One, Plus, Quote, Rec, SendLabel, SendUnfold, TVar, Unquote
from sill.msr import Const, Fact, Multiset, NotApplicable, Rule, Trace, Var, parse_system
from sill.msr.rules import Inst, Mrs, _equiv_key

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import Equiv, equiv_source  # noqa: E402


class Watch:
    """An observer that keeps the step count and the state at each call,
    and reads ``tr.states`` at call read_at (counted from 1)."""

    def __init__(self, read_at=None):
        self.read_at, self.calls, self.read = read_at, [], None

    def __call__(self, tr):
        self.calls.append((len(tr.steps), tr.final()))
        if len(self.calls) == self.read_at:
            self.read = list(tr.states)


class IdleTables(scheduler_oracle._IdleApplicable):
    """The oracle's index, the last one made kept in ``last``."""

    last = None

    def __init__(self, *args):
        super().__init__(*args)
        IdleTables.last = self


@pytest.fixture(autouse=True)
def idle_tables(monkeypatch):
    monkeypatch.setattr(scheduler_oracle, "_IdleApplicable", IdleTables)


class OracleWatch(Watch):
    """A Watch of the oracle's run that also finds its first all-idle
    point (``all_idle``): the first step count, after a step that changed
    nothing, at which the oracle's idle table holds a step of every live
    class."""

    all_idle = None

    def __call__(self, tr):
        super().__call__(tr)
        # the oracle takes in a step after its observer call
        self.see(tr, len(tr.steps) - 1)

    def see(self, tr, taken):
        """Note the point after taken steps, which the oracle has taken in."""
        app = IdleTables.last
        if (self.all_idle is None and taken and not tr.steps[taken - 1].changed
                and app.idle and len(app.idle) == len(app.live)):
            self.all_idle = taken


def assert_closes(got, all_idle, label):
    """A run that closed its loop did so after one cycle of idle steps in
    a row, and no sooner; every rotated step is the step a period before
    it; and the loop starts at the oracle's first all-idle point or less
    than a period later."""
    loop = got.meta["loop"]
    if loop is None:
        return
    start, period = loop["start"], loop["period"]
    steps = got.steps
    assert all(s.idle for s in steps[start - period:start]), label
    assert start == period or not steps[start - period - 1].idle, label
    assert all(steps[i] is steps[i - period] for i in range(start, len(steps))), label
    assert all_idle is not None and all_idle <= start < all_idle + period, (label, all_idle)


def assert_same_run(want, got, watched, label):
    """got, the scheduler's trace, is want, the oracle's, step for step;
    watched holds their observers, in that order: an ``OracleWatch``, then
    a ``Watch``."""
    assert steps_of(got) == steps_of(want), label
    sched = {k: n for k, n in want.meta["sched"].items() if k != "idle_replays"}
    assert got.meta["sched"] == sched, label
    for key in ("maximal", "queue_depths"):
        assert got.meta.get(key) == want.meta.get(key), (label, key)
    w0, w1 = watched
    assert w1.calls == w0.calls, label
    assert w1.read == w0.read, label
    assert got.states == want.states, label
    assert got.states[-1] is got.final(), label
    w0.see(want, len(want.steps))
    assert_closes(got, w0.all_idle, label)


def both_runs(system, start, budget, seed, read_at, depths=False):
    runs = []
    for execute, watching in ((scheduler_oracle.fair_execute, OracleWatch),
                              (fair_execute, Watch)):
        watch = watching(read_at)
        runs.append((execute(system, start, budget=budget, seed=seed, observer=watch,
                             record_queue_depths=depths), watch))
    (want, w0), (got, w1) = runs
    return want, got, (w0, w1)


def certify(tr, conflicts=False):
    """A run that closed its loop ends in one round over the classes
    applicable at its final state, and the lasso of that round is fair in
    all nine senses; returns whether the run closed with a whole round.

    Under conflicts, where one step may disable another class, an
    instantiation applicable before the loop may never be applied: the
    weak and strong verdicts still hold, and an über verdict fails only
    on such an instantiation, at a state before the last round."""
    loop = tr.meta["loop"]
    if loop is None or len(tr.steps) - loop["start"] < loop["period"]:
        return False
    period = loop["period"]
    last = [_equiv_key(s.inst) for s in tr.steps[-period:]]
    assert 0 < period == len(set(last))
    assert set(last) == fairness._Applicable(tr.mrs, tr.final()).live.keys()
    assert all(s.idle for s in tr.steps[loop["start"]:])
    report = fairness_report(LassoTrace(tr, len(tr.steps) - period))
    for (_, strength), v in report.items():
        if conflicts and strength == "uber" and not v.fair:
            assert v.witness["state_index"] < len(tr.steps) - period, v.to_json()
        else:
            assert v.fair, v.to_json()
    return True


# -- the differential gate ---------------------------------------------------------


def test_the_corpus_beside_spins_runs_like_the_oracle():
    closed = 0
    for spins in (("spin",), ("spin", "spin2")):
        for seed in SEEDS:
            for read_at in (None, 1, 150):
                label = (spins, seed, read_at)
                want, got, watched = both_runs(SillSystem(), beside_spins(*spins), 400, seed,
                                               read_at)
                assert_same_run(want, got, watched, label)
                loop = got.meta["loop"]
                assert loop["period"] == len(spins) and loop["start"] < 400, label
                assert not got.meta["maximal"]
                closed += certify(got)
    assert closed == 30


def with_stay(mrs, rng):
    """mrs with a rule that re-produces its antecedent, on a q fact of the
    start, and, at random, the other rules of ``test_scheduler._extend``."""
    mrs = _extend(mrs, rng)
    stay = Rule("stay", ("x",), (), (Fact("q", (Var("x"),)),), (), (), (Fact("q", (Var("x"),)),))
    rules = mrs.rules if any(r.name == "stay" for r in mrs.rules) else mrs.rules + (stay,)
    start = mrs.initial.msum(Multiset.of([Fact("q", (Const("a"),))]))
    return Mrs(rules, mrs.declared, start)


def test_random_systems_with_a_self_loop_run_like_the_oracle():
    rng = random.Random(20211022)
    closed = rotated = 0
    for i in range(300):
        mrs = with_stay(random_mrs(rng), rng)
        seed = None if i % 3 == 0 else rng.randrange(1000)
        read_at = (None, 1, 10)[i % 3]
        want, got, watched = both_runs(mrs, mrs.initial, 40, seed, read_at, depths=True)
        assert_same_run(want, got, watched, (i, mrs.rules))
        loop = got.meta["loop"]
        if loop is not None:
            assert len(set(got.meta["queue_depths"][loop["start"]:])) <= 1
            rotated += len(got.steps) - loop["start"]
        closed += certify(got, conflicts=True)
    assert closed > 80 and rotated > 1000, (closed, rotated)


def test_every_run_of_the_equiv_benchmark_runs_like_the_oracle(monkeypatch):
    mod = parse(equiv_source(Equiv.sizes["depth"]))
    check_module(mod)
    subjects = {n: config_subject(d) for n, d in mod.configs.items()}
    real = dynamics.run
    runs = []

    def twice(*args, **kwargs):
        # the oracle's run, then the scheduler's, which the verdict reads
        out = []
        for execute, watching in ((scheduler_oracle.fair_execute, OracleWatch),
                                  (fairness.fair_execute, Watch)):
            monkeypatch.setattr(dynamics, "fair_execute", execute)
            watch = watching(read_at=1 if len(runs) % 2 else None)
            out.append((real(*args, observer=watch, **kwargs), watch))
        (want, w0), (got, w1) = out
        assert_same_run(want, got, (w0, w1), len(runs))
        assert got.meta["channel_types"] == want.meta["channel_types"]
        runs.append(got)
        return got

    monkeypatch.setattr(obs, "run", twice)
    for seed in (1, 2, 3):
        for left, right, equal in Equiv.PAIRS:
            v = equiv_check(subjects[left], subjects[right], make_system("external"),
                            fuel=Equiv.sizes["fuel"], depth=Equiv.sizes["depth"], seed=seed)
            assert v["equivalent"] is equal
    assert sum(map(certify, runs)) == 72
    assert all(tr.meta["maximal"] or tr.meta["loop"] is not None for tr in runs)


# -- the rotation itself -------------------------------------------------------------


def test_rotate_checks_each_step_on_its_first_round():
    mrs = parse_system("""
        rule stay: forall x. q(x) -o q(x)
        rule take: forall x. q(x), t -o r(x)
        init: q(a), q(b), t
        """)
    tr = Trace(mrs, mrs.initial)
    stay = [tr.extend(Inst.make(mrs.rule("stay"), {"x": Const(c)})) for c in "ab"]
    calls = []
    tr.rotate(stay[::-1], 7, lambda t: calls.append(len(t.steps)))
    assert tr.steps == stay + [stay[1], stay[0]] * 2 + [stay[1]]
    assert [id(s) for s in tr.steps[2:]] == [id(stay[1]), id(stay[0])] * 2 + [id(stay[1])]
    assert calls == [3, 4, 5, 6, 7] and tr.final() is mrs.initial
    tr.rotate(stay, 7)
    assert len(tr.steps) == 7
    take = tr.extend(Inst.make(mrs.rule("take"), {"x": Const("a")}))
    # the cycle is checked before anything is recorded: take is not idle,
    # and stay on a no longer applies
    with pytest.raises(ValueError):
        tr.rotate([stay[1], take], 10)
    with pytest.raises(NotApplicable):
        tr.rotate(stay[::-1], 20)
    assert tr.steps[-1] is take and len(tr.steps) == 8


# -- what meta["loop"] tells apart ---------------------------------------------------


def test_the_loop_tells_closed_runs_from_maximal_and_still_changing_ones():
    # a spin closes its loop at once; its one class is the whole round
    spin = initial_config(divergent("r", One()), {}, ("r", One()))
    tr = run(SillSystem(), *spin, fuel=200)
    assert tr.meta["loop"] == {"start": 1, "period": 1} and not tr.meta["maximal"]
    assert certify(tr)
    # fuel that runs out as the loop closes records no rotated step
    tr = run(SillSystem(), *spin, fuel=1)
    assert tr.meta["loop"] == {"start": 1, "period": 1} and len(tr.steps) == 1
    assert not certify(tr)
    # a maximal run, omega's endless sender and the ring never close
    facts, iface = replicated_corpus(4)
    tr = run(SillSystem(), config_state(facts), iface, fuel=2000, seed=3, check=True)
    assert tr.meta["maximal"] and tr.meta["loop"] is None
    conat = Rec("a", Plus((("z", One()), ("s", TVar("a")))))
    w = Fix("w", Quote(("c", conat),
                       SendUnfold("c", SendLabel("c", "s", Unquote("c", FVar("w"))))))
    tr = run(SillSystem(), *initial_config(Unquote("o", w), {}, ("o", conat)), fuel=300)
    assert not tr.meta["maximal"] and tr.meta["loop"] is None
    ring = parse_system(RING)
    for seed in (None, 5):
        tr = fair_execute(ring, ring.initial, budget=60, seed=seed)
        assert not tr.meta["maximal"] and tr.meta["loop"] is None
