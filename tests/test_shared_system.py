"""Runs that share one ``SillSystem`` against runs on systems of their own,
and ``barbed_sim``, which runs each subject once, against the loop that
asked ``weak_barb`` once per channel.

A system keeps values only: evaluated terms, quotes and observations.
Sharing must change nothing a run records: the same steps in the same
order, with the same consumed and produced facts and fresh names, and the
same verdicts with the same counterexample text.
"""

import pytest
from test_dynamics import corpus
from test_equiv import FUEL, MODES, SUBJECTS
from test_scheduler import SEEDS

from sill import equiv
from sill.dynamics import SillSystem, config_state, proc_fact, run
from sill.equiv import (UnknownChannel, _carries, _fc_state, _require_shared, barb,
                        barbed_sim, config_subject, divergent, equiv_check, make_system,
                        weak_barb)
from sill.fairness import fair_execute
from sill.lang import ast, check_module, parse
from sill.lang.errors import InterfaceMismatch
from sill.msr import Multiset


def steps_of(tr) -> list:
    """Each step as rule name, consumed facts, produced facts and fresh names."""
    return [(s.inst.rule.name, s.inst.eph_ant_g(), s.produced, s.xi) for s in tr.steps]


def test_runs_on_a_shared_system_take_the_same_steps():
    for name, facts, iface in corpus():
        for seed in SEEDS:
            state = config_state(facts)
            alone = run(SillSystem(), state, iface, fuel=200, seed=seed, check=True)
            shared = SillSystem()
            first, second = (run(shared, state, iface, fuel=200, seed=seed, check=True)
                             for _ in range(2))
            for tr in (first, second):
                assert steps_of(tr) == steps_of(alone), (name, seed)
                assert tr.final() == alone.final(), (name, seed)
                assert tr.meta["channel_types"] == alone.meta["channel_types"], (name, seed)


@pytest.fixture(scope="module")
def by_connective():
    mod = parse(SUBJECTS)
    check_module(mod)
    return {name: config_subject(decl) for name, decl in mod.configs.items()}


def test_verdicts_on_a_shared_system_are_the_default_ones(by_connective):
    # one system shared by every verdict below, so it carries the values
    # and observations of earlier verdicts into later ones
    shared = SillSystem()
    for name, subject in by_connective.items():
        if name.endswith("_changed"):
            continue
        other = by_connective.get(f"{name}_changed", subject)
        for mode in MODES:
            for seed in (None, 1):
                args = (subject, other, make_system(mode))
                kwargs = {"fuel": FUEL, "depth": 6, "seed": seed}
                default = equiv_check(*args, **kwargs)
                assert equiv_check(*args, system=shared, **kwargs) == default, (name, mode)


def test_barbed_sim_runs_each_subject_once(by_connective, monkeypatch):
    runs: dict[int, int] = {}

    def counted(mrs, state, *args, **kwargs):
        runs[id(state)] = runs.get(id(state), 0) + 1
        return fair_execute(mrs, state, *args, **kwargs)

    monkeypatch.setattr(equiv, "fair_execute", counted)
    c, d = by_connective["with_c"], by_connective["with_c_changed"]
    for left, right in ((c, d), (d, c)):
        runs.clear()
        assert barbed_sim(left, right)
        # the left subject is asked on d and on e, the right one on d only,
        # and neither holds a message at the start
        assert runs == {id(left[0]): 1, id(right[0]): 1}
    for state, iface in by_connective.values():
        # the right subject is an equal state in another object
        twin = state.msum(Multiset())
        runs.clear()
        assert barbed_sim((state, iface), (twin, iface))
        assert set(runs) <= {id(state), id(twin)} and set(runs.values()) <= {1}


def test_a_reader_enumerates_its_final_state_at_most_once(by_connective, monkeypatch):
    # a run's steps come from its enabled set, so SillSystem.applicable
    # counts the final states the readers enumerated
    runs, enumerated = [], []
    applicable = SillSystem.applicable

    def kept(*args, **kwargs):
        runs.append(fair_execute(*args, **kwargs))
        return runs[-1]

    def counted(system, state):
        enumerated.append(state)
        return applicable(system, state)

    monkeypatch.setattr(equiv, "fair_execute", kept)
    monkeypatch.setattr(SillSystem, "applicable", counted)
    subjects = dict(by_connective)
    for name, (_, iface) in by_connective.items():
        (p, a), = iface.provided
        subjects[f"{name}_silent"] = (Multiset.of([proc_fact(p, divergent(p, a, iface.used))]),
                                      iface)
    seen = set()
    for name, (state, iface) in subjects.items():
        for seed in (None, 1):
            runs.clear()
            enumerated.clear()
            reader = equiv._weak_barbs(state, FUEL, seed)
            for a in sorted(n for n, _ in iface.used + iface.provided):
                reader(a)
            assert len(runs) <= 1, name
            if runs:
                maximal = runs[0].meta["maximal"]
                assert enumerated == ([] if maximal else [runs[0].final()]), (name, seed)
                seen.add(maximal)
    assert seen == {True, False}


def per_channel_weak_barb(state, a, fuel, seed, system=None):
    """``weak_barb`` as it was: one run per call."""
    if _carries(state.eph_support(), a):
        return True
    if a not in _fc_state(state):
        raise UnknownChannel(a)
    sys = system or SillSystem()
    tr = fair_execute(sys, state, budget=fuel, seed=seed)
    return _carries(tr.facts(), a) or barb(tr.final(), a, sys)


def per_channel_barbed_sim(c, d, fuel, seed):
    """``barbed_sim`` as it was: ``weak_barb`` once per channel, each
    subject's runs on one system."""
    cs, ci = c
    ds, di = d
    _require_shared(ci, di)
    c_sys, d_sys = SillSystem(), SillSystem()
    for x in sorted([n for n, _ in ci.used] + [n for n, _ in ci.provided]):
        if (per_channel_weak_barb(cs, x, fuel, seed, c_sys)
                and not per_channel_weak_barb(ds, x, fuel, seed, d_sys)):
            return False
    return True


def outcome(f, *args):
    try:
        return f(*args)
    except (UnknownChannel, InterfaceMismatch) as ex:
        return type(ex)


def with_channel(subject, name):
    """The subject whose interface also uses name, which its state does not
    name."""
    state, iface = subject
    used = iface.used + ((name, ast.One()),)
    return state, ast.Interface(used=used, internal=iface.internal, provided=iface.provided)


def test_barbed_sim_answers_as_the_per_channel_loop(by_connective):
    subjects = dict(by_connective)
    # a silent twin of each subject, which barbs on nothing
    for name, (_, iface) in by_connective.items():
        (p, a), = iface.provided
        subjects[f"{name}_silent"] = (Multiset.of([proc_fact(p, divergent(p, a, iface.used))]),
                                      iface)
    seen = set()
    for extra in (None, "aa", "zz"):
        pool = {name: s if extra is None else with_channel(s, extra)
                for name, s in subjects.items()}
        for seed in (None, 1):
            for left in pool.values():
                for right in pool.values():
                    got = outcome(barbed_sim, left, right, FUEL, seed)
                    assert got == outcome(per_channel_barbed_sim, left, right, FUEL, seed)
                    seen.add(got)
            for state, iface in pool.values():
                for a in sorted({n for n, _ in iface.used + iface.provided} | {"aa", "zz"}):
                    got = outcome(weak_barb, state, a, FUEL, seed)
                    assert got == outcome(per_channel_weak_barb, state, a, FUEL, seed)
                    seen.add(got)
    assert seen == {True, False, UnknownChannel, InterfaceMismatch}
