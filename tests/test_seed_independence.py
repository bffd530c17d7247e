"""What a run that ends maximal shows does not depend on the seed.

The paper's permutation results say that the communications a process is
seen to make do not depend on which fair execution is taken.  A seed picks
one: it shuffles the scheduler's queue.  So when a run ends maximal under
every seed, each channel it typed carries the same tree under every seed.
A channel born during the run is named in the order of the steps that
made it, which the seed moves, so born channels agree up to a renaming:
their trees agree as a multiset.  ``equiv_check`` rests on this when it
plugs each generated experiment into the state where a subject's maximal
alone run ended.

Every generated experiment ends in a ``divergent`` spin, so no composite
that ``_check_family`` plugs ends maximal.  For those the premise is that
the run settles: every step still applicable at its end is idle, a
process stepping to itself.  A maximal run settles, with no step left.
"""

import random
from collections import Counter

import pytest
from test_check_oracle import _well_typed
from test_dynamics import corpus
from test_equiv import FUEL, SENT, SUBJECTS

from sill import equiv
from sill.dynamics import SillSystem, config_state, initial_config, run
from sill.equiv import config_subject, equiv_check, make_system
from sill.lang import check_module, parse
from sill.msr.rules import Signature, apply_inst
from sill.obs import observe

SEEDS = (None, 0, 1, 2, 3)
DEPTH = 8


def settled(tr, system) -> bool:
    """Is every step applicable at the end of tr idle: it changes nothing
    and binds no fresh name?"""
    final = tr.final()
    sig = Signature(frozenset(final.consts()) | system.signature().declared, 0)
    for inst in system.applicable(final):
        after, _, names = apply_inst(final, inst, sig)
        if after is not final or names:
            return False
    return True


def seeded_runs(state, iface, fuel) -> list:
    """Under each seed: whether the run ended maximal, whether it settled,
    and what it showed: the tree of each channel of iface, and the trees
    of the channels born during the run, counted."""
    known = iface.all_types()
    out = []
    for seed in SEEDS:
        system = SillSystem()
        tr = run(system, state, iface, fuel=fuel, seed=seed)
        trees = {c: observe(tr, c, DEPTH)[0] for c in tr.meta["channel_types"]}
        shown = ({c: t for c, t in trees.items() if c in known},
                 Counter(t for c, t in trees.items() if c not in known))
        out.append((tr.meta["maximal"], settled(tr, system), shown))
    return out


def agree(runs) -> bool:
    return all(shown == runs[0][2] for _, _, shown in runs)


def test_the_dynamics_corpus_ends_maximal_and_agrees():
    for name, facts, iface in corpus():
        runs = seeded_runs(config_state(facts), iface, 500)
        assert all(maximal for maximal, _, _ in runs), name
        assert agree(runs), name


@pytest.fixture(scope="module")
def connective():
    out = {}
    for src in (SUBJECTS, SENT):
        mod = parse(src)
        check_module(mod)
        out.update({name: config_subject(decl) for name, decl in mod.configs.items()})
    return out


def test_each_connective_subject_alone_agrees(connective):
    for name, subject in connective.items():
        runs = seeded_runs(*subject, FUEL)
        assert all(maximal for maximal, _, _ in runs), name
        assert agree(runs), name


def test_type_directed_processes_that_end_maximal_agree():
    maximal = 0
    for k in range(150):
        p, offered, used = _well_typed(random.Random(k))
        runs = seeded_runs(*initial_config(p, used, offered), 300)
        if all(m for m, _, _ in runs):
            maximal += 1
            assert agree(runs), k
    # most generated processes terminate; the rest hold a spin
    assert maximal >= 100, maximal


def test_the_composites_of_generated_experiments_settle_and_agree(connective, monkeypatch):
    plugged = []
    plug = equiv.plug_experiment

    def recording(*args):
        out = plug(*args)
        plugged.append(out)
        return out

    monkeypatch.setattr(equiv, "plug_experiment", recording)
    for subject in connective.values():
        equiv_check(subject, subject, make_system("external"), fuel=FUEL, depth=4)
    # a subject against itself plugs each composite once: the second
    # direction would repeat the first's, and is skipped
    assert len(plugged) > 120
    for k, (state, iface) in enumerate(plugged):
        runs = seeded_runs(state, iface, FUEL)
        # each experiment ends in a spin, so its run is never maximal
        assert not any(maximal for maximal, _, _ in runs), k
        assert all(s for _, s, _ in runs), k
        assert agree(runs), k
