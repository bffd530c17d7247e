"""Differential tests: plugging generated experiments and observing a
subject alone, against the reference in ``equiv_oracle``.

The subjects are the numerals of ``test_equiv.SRC``, the one-per-
connective configurations of ``test_equiv.SUBJECTS`` and numerals with
internal channels.  Every generated experiment built from a subject's
observation is plugged into each subject with the same interface, the way
``equiv_check`` plugs it.
"""

import equiv_oracle as ref
import pytest
from test_equiv import FUEL, MODES, SRC, SUBJECTS

from sill import equiv
from sill.equiv import Experiment, empty_context, run_experiment
from sill.lang import ast, check_module, parse
from sill.lang.errors import InterfaceMismatch

# numerals whose configurations already hold internal channels
INTERNAL = """
type conat = rec a. +{z: 1, s: a}
proc zero : |- c : conat = send c unfold; c.z; close c
proc succ : n : conat |- c : conat = send c unfold; c.s; fwd+ n -> c
config one_int : |- c : conat internal n : conat = proc n zero(), proc c succ(n)
config two_int : |- c : conat internal x0 : conat, n : conat =
  proc x0 zero(), proc n succ(x0), proc c succ(n)
"""
SEEDS = (None, 0, 1)
DEPTH = 6


@pytest.fixture(scope="module")
def subjects():
    out = {}
    for src in (SRC, SUBJECTS, INTERNAL):
        mod = parse(src)
        check_module(mod)
        out.update({(src, name): equiv.config_subject(decl)
                    for name, decl in mod.configs.items()})
    return out


def _shares(c, d) -> bool:
    try:
        equiv._require_shared(c[1], d[1])
    except InterfaceMismatch:
        return False
    return True


def test_the_empty_context_observes_each_subject_alone(subjects):
    for key, subject in subjects.items():
        for seed in SEEDS:
            alone = ref._observe_alone(subject, FUEL, DEPTH, seed, None)
            for mode in MODES:
                obs = run_experiment(subject, Experiment(empty_context(subject[1])),
                                     mode, FUEL, DEPTH, seed)
                assert [c for c, _, _ in obs.channels] == sorted(alone), (key, seed, mode)
                assert {c: (t, a) for c, t, a in obs.channels} == alone, (key, seed, mode)


def test_generated_experiments_plug_as_before(subjects):
    plugged = 0
    for key, subject in subjects.items():
        targets = [t for t in subjects.values() if _shares(subject, t)]
        for seed in SEEDS:
            alone = ref._observe_alone(subject, FUEL, DEPTH, seed, None)
            for target in targets:
                names = set(alone) | equiv._fc_state(target[0])
                for chan, (v, a) in sorted(alone.items()):
                    r = equiv._answer_name(chan, names)
                    used = chan in dict(target[1].used)
                    gen = equiv.gen_experiments_L if used else equiv.gen_experiments_R
                    for n in range(DEPTH):
                        for proc in gen(n, chan, r, v, a):
                            facts = (ast.ProcF(chan if used else r, proc),)
                            new = equiv.plug_experiment(facts, target, chan, r)
                            old = ref.plug_experiment(facts, target, chan, r)
                            assert list(new[0].eph_items()) == list(old[0].eph_items()), \
                                (key, seed, chan, n)
                            assert new[1] == old[1], (key, seed, chan, n)
                            plugged += 1
    assert plugged > 1000
