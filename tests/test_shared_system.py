"""Runs that share one ``SillSystem`` against runs on systems of their own.

A system keeps the steps it derived for each proc fact that listens on no
carrier (``SillSystem.store``), and every later run on it takes them from
there.  Sharing must change nothing a run records: the same steps in the
same order, with the same consumed and produced facts and fresh names, and
the same verdicts with the same counterexample text.
"""

import pytest
from test_dynamics import corpus
from test_equiv import FUEL, MODES, SUBJECTS
from test_scheduler import SEEDS

from sill import equiv
from sill.dynamics import SillSystem, config_state, run
from sill.equiv import barbed_sim, config_subject, equiv_check, make_system, weak_barb
from sill.lang import check_module, parse


class _Forgetful(dict):
    """A store that keeps nothing, so every run derives every step again."""

    def __setitem__(self, key, value):
        pass


def forgetful() -> SillSystem:
    system = SillSystem()
    system.store = _Forgetful()
    return system


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
            assert second.meta["sched"]["steps_reused"] > 0, (name, seed)


@pytest.fixture(scope="module")
def by_connective():
    mod = parse(SUBJECTS)
    check_module(mod)
    return {name: config_subject(decl) for name, decl in mod.configs.items()}


def test_verdicts_on_a_shared_system_are_the_default_ones(by_connective):
    # one system shared by every verdict below, so it carries what earlier
    # verdicts derived into later ones
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
                assert equiv_check(*args, system=forgetful(), **kwargs) == default, (name, mode)
    # a later run on the shared system takes steps the verdicts derived
    assert any(run(shared, *subject, fuel=FUEL).meta["sched"]["steps_reused"]
               for subject in by_connective.values())


def test_barbed_sim_shares_one_system_per_subject(by_connective, monkeypatch):
    calls: dict[int, list] = {}
    barb = equiv.weak_barb

    def recording(state, a, fuel, seed, system):
        calls.setdefault(id(state), []).append(system)
        got = barb(state, a, fuel, seed, system)
        assert got == barb(state, a, fuel, seed), a
        return got

    monkeypatch.setattr(equiv, "weak_barb", recording)
    c, d = by_connective["with_c"], by_connective["with_c_changed"]
    for left, right in ((c, d), (d, c)):
        calls.clear()
        assert barbed_sim(left, right)
        # the left subject is asked on d and on e, the right one on d only
        assert sorted(map(len, calls.values())) == [1, 2]
        for systems in calls.values():
            assert all(s is systems[0] for s in systems)
