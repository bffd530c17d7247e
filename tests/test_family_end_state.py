"""Generated experiments plug into the state where a subject's alone run ended.

A step that applies in a state still applies beside a context's facts, and
the observations of a run that ends maximal do not depend on the schedule
(``tests/test_seed_independence.py``).  So when a subject's run alone ends
maximal, ``equiv_check`` plugs each generated experiment into the state
that run ended in.  Against ``equiv_oracle.equiv_check``, which plugs the
subject as given, every verdict and counterexample is the same; a subject
whose alone run is not maximal plugs exactly the reference's composites;
and an experiment on the benchmark's numeral runs only its own steps.
"""

import itertools

import equiv_oracle as ref
import pytest
from test_equiv import FUEL, MODES, SENT, SRC, SUBJECTS
from test_observe_once import BIG

from sill import equiv, obs
from sill.dynamics import SillSystem, config_state, run, state_facts
from sill.equiv import config_subject, divergent, equiv_check, make_system
from sill.lang import ast, check_module, parse
from sill.lang.check import check_config
from sill.lang.errors import InterfaceMismatch

SEEDS = (None, 0, 1)
DEPTH = 6


def configs(src: str) -> dict:
    mod = parse(src)
    check_module(mod)
    return {name: config_subject(decl) for name, decl in mod.configs.items()}


@pytest.fixture(scope="module")
def sources():
    return [configs(src) for src in (SRC, SUBJECTS, SENT)]


def shares(c, d) -> bool:
    try:
        equiv._require_shared(c[1], d[1])
    except InterfaceMismatch:
        return False
    return True


def test_every_verdict_is_the_reference_one(sources):
    verdicts = 0
    for subjects in sources:
        for (ln, left), (rn, right) in itertools.product(subjects.items(), repeat=2):
            if not shares(left, right):
                continue
            for mode, seed in itertools.product(MODES, SEEDS):
                args = (left, right, make_system(mode))
                kwargs = {"fuel": FUEL, "depth": DEPTH, "seed": seed}
                assert equiv_check(*args, **kwargs) == ref.equiv_check(*args, **kwargs), \
                    (ln, rn, mode, seed)
                verdicts += 1
    assert verdicts == 387


def plugged(monkeypatch, check, *args, **kwargs) -> tuple[dict, list]:
    """The verdict of check, and each composite it plugged for a generated
    experiment, as its facts and interface."""
    out = []
    plug = equiv.plug_experiment

    def recording(*a):
        state, iface = plug(*a)
        out.append((list(state.eph_items()), iface))
        return state, iface

    monkeypatch.setattr(equiv, "plug_experiment", recording)
    verdict = check(*args, **kwargs)
    monkeypatch.setattr(equiv, "plug_experiment", plug)
    return verdict, out


def beside_a_spin(subject):
    """The numeral subject with a silent process providing r : 1 beside it."""
    facts = state_facts(subject[0]) + [ast.ProcF("r", divergent("r", ast.One()))]
    iface = ast.Interface(provided=subject[1].provided + (("r", ast.One()),))
    check_config(facts, iface)
    return config_state(facts), iface


def test_a_subject_whose_alone_run_is_not_maximal_plugs_as_before(sources, monkeypatch):
    numerals = sources[0]
    four, four_cut = numerals["four"], numerals["four_cut"]
    alone = run(SillSystem(), *four, fuel=FUEL)
    assert alone.meta["maximal"]
    short = len(alone.steps) // 2
    # a cut run shows less than a whole one, so the short runs' pair is
    # the numeral with itself
    cases = [((beside_a_spin(four), beside_a_spin(four_cut)), FUEL),
             ((four, four), short)]
    for (c, d), fuel in cases:
        for subject in (c, d):
            assert not run(SillSystem(), *subject, fuel=fuel).meta["maximal"]
        for seed in SEEDS:
            args = (c, d, make_system("external"))
            kwargs = {"fuel": fuel, "depth": DEPTH, "seed": seed}
            new = plugged(monkeypatch, equiv_check, *args, **kwargs)
            old = plugged(monkeypatch, ref.equiv_check, *args, **kwargs)
            assert new[1], (fuel, seed)
            if c is d:
                # the second direction would repeat the first's composites
                # at each depth, and is skipped
                old = old[0], [x for i, x in enumerate(old[1]) if x not in old[1][:i]]
            assert new == old, (fuel, seed)
    # the same pair at full fuel plugs into the end states instead
    args = (four, four_cut, make_system("external"))
    new = plugged(monkeypatch, equiv_check, *args, fuel=FUEL, depth=DEPTH)
    old = plugged(monkeypatch, ref.equiv_check, *args, fuel=FUEL, depth=DEPTH)
    assert new[0] == old[0] and len(new[1]) == len(old[1])
    assert all(a != b for a, b in zip(new[1], old[1]))


def test_an_experiment_on_the_numeral_runs_only_its_own_steps(monkeypatch):
    traces = []
    real = obs.run

    def recording(*args, **kwargs):
        traces.append(real(*args, **kwargs))
        return traces[-1]

    monkeypatch.setattr(obs, "run", recording)
    big = configs(BIG)["big"]
    v = equiv_check(big, big, make_system("external"), fuel=500, depth=8, seed=3)
    assert v["equivalent"] is True
    changing = [len(tr.steps) - tr.meta["sched"]["unchanged_steps"] for tr in traces]
    # the alone run, then one experiment per depth; replaying the alone
    # run's 19 steps, these took 21, ..., 28
    assert changing == [19] + list(range(2, 10))
