"""A lasso is analysed once.

The analysis (``fairness._Analysis``) replays the recorded steps once, in
place, and computes each orbit with the predicates the verdicts test on
first use.  Its cached parts must not make a verdict depend on which
verdicts came before it; the first verdict of a variety walks the orbits
and the others only read them; and the analysis keeps no state per step,
so ``Trace.states`` is never read.
"""

import random
import sys
import tracemalloc
from pathlib import Path

from fairness_oracles import definitional_report, reference_check_fairness
from test_dynamics import corpus
from test_dynamics_oracle import SEEDS
from test_obs import CONAT, omega_proc
from test_fairness import (_fixed_lassos, _random_lassos, _spawning_lasso,  # noqa: F401
                           _spawning_lasso_without_spin, _two_spin_lassos, lasso1, lasso2,
                           lasso3)

from sill.fairness import (STRENGTHS, VARIETIES, LassoTrace, _Analysis, _analysis_of,
                           check_fairness, fair_execute, fairness_report)
from sill.dynamics import SillSystem, config_state, initial_config, run
from sill.msr import Trace, parse_system, rules
from sill.msr.terms import Const

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import RING_RULE, ring_nodes, ring_source  # noqa: E402

VERDICTS = [(v, s) for v in VARIETIES for s in STRENGTHS]


def ring_lasso(nodes: int, seed: int) -> LassoTrace:
    """The benchmark's ring lasso: four tokens passed once round the ring
    by the fair scheduler, which brings them back after nodes steps."""
    offset = random.Random(seed).randrange(nodes)
    mrs = parse_system(ring_source(ring_nodes(nodes, seed), 4, offset, RING_RULE))
    return LassoTrace(fair_execute(mrs, mrs.initial, budget=nodes, seed=seed), 0)


# -- a verdict does not depend on the verdicts before it ------------------------------


def test_verdicts_in_any_order_match_the_reference(lasso1, lasso2, lasso3):
    mrs_lassos = _random_lassos(7, 250) + _fixed_lassos(lasso1, lasso2, lasso3)
    sill_lassos = ([lt for _, lt in _two_spin_lassos()]
                   + [_spawning_lasso(), _spawning_lasso_without_spin()])
    rng = random.Random(24)
    for n, lt in enumerate(mrs_lassos + sill_lassos):
        fresh = lambda: LassoTrace(lt.trace, lt.loop_start)  # noqa: E731
        want = {key: check_fairness(fresh(), *key) for key in VERDICTS}
        assert want == {key: reference_check_fairness(fresh(), *key) for key in VERDICTS}, n
        if n >= len(mrs_lassos):
            assert {key: v.fair for key, v in want.items()} == definitional_report(lt), n
        # each verdict alone first, then the others
        for first in VERDICTS:
            one = fresh()
            assert check_fairness(one, *first) == want[first], (n, first)
            rest = [key for key in VERDICTS if key != first]
            rng.shuffle(rest)
            for key in rest:
                assert check_fairness(one, *key) == want[key], (n, first, key)
        # several shuffled orders on one lasso, which keeps its analysis
        shared = fresh()
        for _ in range(3):
            order = list(VERDICTS)
            rng.shuffle(order)
            for key in order:
                assert check_fairness(shared, *key) == want[key], (n, order, key)


# -- what each verdict computes ---------------------------------------------------------


def walks_per_verdict(monkeypatch, lt, verdicts):
    """The verdicts asked in order on lt, each with the number of
    ``_Analysis.images`` calls it made; ``Trace.states`` raises."""
    def no_states(self):
        raise AssertionError("Trace.states was read")

    walks = 0
    images = _Analysis.images

    def counted(self, x):
        nonlocal walks
        walks += 1
        return images(self, x)

    monkeypatch.setattr(Trace, "states", property(no_states))
    monkeypatch.setattr(_Analysis, "images", counted)
    out = []
    for key in verdicts:
        before = walks
        out.append((key, check_fairness(lt, *key), walks - before))
    monkeypatch.undo()
    return out


def test_the_first_verdict_of_a_variety_walks_its_orbits(monkeypatch):
    for make in (lambda: ring_lasso(100, 3), _spawning_lasso):
        lt = make()
        report = walks_per_verdict(monkeypatch, lt, VERDICTS)
        # the über verdict reads no variety's candidates: the first one
        # walks the loop steps for all three
        walked = [key for key, _, walks in report if walks]
        assert set(walked) <= {("rule", "uber"), ("fact", "weak"), ("inst", "weak")}, walked
        assert ("fact", "weak") in walked and ("inst", "weak") in walked
        assert lt.trace._states is None
        # the report on the same lasso reads what the first one computed
        again = walks_per_verdict(monkeypatch, lt, VERDICTS)
        assert [(key, v) for key, v, _ in again] == [(key, v) for key, v, _ in report]
        assert all(walks == 0 for _, _, walks in again)
        assert lt.trace._states is None
        # strong first: then weak walks nothing
        lt = make()
        for variety in VARIETIES:
            report = walks_per_verdict(monkeypatch, lt, [(variety, "strong"), (variety, "weak")])
            assert report[1][2] == 0, variety
        assert lt.trace._states is None


def test_a_report_builds_no_state_per_step():
    # two identical 400-step lassos on a 400-node ring: the report's peak
    # stays below half of what reading the states of the other holds
    lt, other = ring_lasso(400, 3), ring_lasso(400, 3)

    def peak(work):
        tracemalloc.start()
        try:
            work()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    report_peak = peak(lambda: fairness_report(lt))
    states_peak = peak(lambda: other.trace.states)
    assert len(other.trace.states) == 401 and lt.trace._states is None
    assert all(v.fair for v in fairness_report(lt).values())
    assert report_peak < states_peak / 2, (report_peak, states_peak)


def test_ordering_a_sill_lasso_builds_no_template_consequent(monkeypatch):
    # a SillSystem has no rules to rank, so the replay's order never hashes
    # a step's rule, which would build its template's consequent
    lt = _spawning_lasso()
    builds = [0]
    build = rules._TemplateCon.__get__

    def counted(self, rule, owner=rules.Rule):
        if rule is not None:
            builds[0] += 1
        return build(self, rule, owner)

    monkeypatch.setattr(rules._TemplateCon, "__get__", counted)
    _analysis_of(lt)
    assert builds[0] == 0
    monkeypatch.undo()
    want = definitional_report(_spawning_lasso())
    assert {key: v.fair for key, v in fairness_report(lt).items()} == want
    assert all(want.values())


def _fresh_channel_steps():
    """The steps that create a channel in runs of the corpus under several
    seeds, of an endless sender and of the spawning lasso."""
    runs = [run(SillSystem(), config_state(facts), iface, fuel=200, seed=seed)
            for _, facts, iface in corpus() for seed in SEEDS]
    runs.append(run(SillSystem(), *initial_config(omega_proc(), {}, ("o", CONAT)), fuel=300))
    runs.append(_spawning_lasso().trace)
    return [s for tr in runs for s in tr.steps if s.xi]


def test_a_filled_consequent_names_only_what_its_step_consumes_and_creates():
    # what lets Inst.consts read a template step's constants off the
    # facts it consumes, without building the template
    steps = _fresh_channel_steps()
    assert len(steps) > 250 and {s.inst.rule.name for s in steps} >= {"cut", "plus_r"}
    for s in steps:
        rule, xi = s.inst.rule, s.xi_map()
        pers, eph = s.inst.consequent({v: Const(n) for v, n in xi.items()})
        named = set().union(*[f.consts() for f in (*pers, *eph.eph_support())])
        consumed = set().union(*[f.consts() for f in rule.eph_ant])
        assert named <= consumed | set(xi.values()), s.inst.to_str()
        assert s.inst.consts() == consumed


def test_a_report_on_a_spawning_lasso_builds_no_template_consequent(monkeypatch):
    lt = _spawning_lasso()
    builds = [0]
    build = rules._TemplateCon.__get__

    def counted(self, rule, owner=rules.Rule):
        if rule is not None:
            builds[0] += 1
        return build(self, rule, owner)

    monkeypatch.setattr(rules._TemplateCon, "__get__", counted)
    report = {key: v.fair for key, v in fairness_report(lt).items()}
    assert builds[0] == 0
    monkeypatch.undo()
    assert report == definitional_report(_spawning_lasso())
