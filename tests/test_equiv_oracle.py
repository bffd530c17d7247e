"""Differential tests: plugging generated experiments and observing a
subject alone, against the reference in ``equiv_oracle``.

The subjects are the numerals of ``test_equiv.SRC``, the one-per-
connective configurations of ``test_equiv.SUBJECTS`` and numerals with
internal channels.  Every generated experiment built from a subject's
observation is plugged into each subject with the same interface, the way
``equiv_check`` plugs it.  A context that names a subject's internal
channels, some of them named like the labels of its messages, plugs the
subject with those channels renamed as the reference renames them.
"""

from collections import Counter

import equiv_oracle as ref
import pytest
from test_dynamics_oracle import decoded
from test_equiv import FUEL, MODES, SRC, SUBJECTS

from sill import equiv
from sill.dynamics import SillSystem, config_state, fact_channels, run, state_facts
from sill.equiv import (ConfigContext, Experiment, empty_context, equiv_check, make_system,
                        run_experiment)
from sill.lang import ast, check_module, parse
from sill.lang.errors import InterfaceMismatch
from sill.obs import BOT, observe_config

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


# internal channels named like the labels of their own messages
LABEL_NAMED = """
type conat = rec a. +{z: 1, s: a}
proc zero : |- c : conat = send c unfold; c.z; close c
proc succ : n : conat |- c : conat = send c unfold; c.s; fwd+ n -> c
config two_zs : |- c : conat internal z : conat, s : conat =
  proc z zero(), proc s succ(z), proc c succ(s)
"""


def test_plug_renames_the_internal_channels_a_context_names():
    mod = parse(LABEL_NAMED)
    check_module(mod)
    start, iface = equiv.config_subject(mod.configs["two_zs"])
    conat = dict(iface.provided)["c"]
    hole = ast.Interface(provided=iface.provided)
    for fuel, seed in ((0, None), (4, 1), (8, 1), (8, 2)):
        # the subject at its start, and part way, holding messages on
        # internal channels, some born in the run
        tr = run(SillSystem(), start, iface, fuel=fuel, seed=seed)
        state, types = tr.final(), tr.meta["channel_types"]
        internal = sorted(set().union(*map(fact_channels, state.eph_support())) - {"c"})
        subject = (state, ast.Interface(internal=tuple((n, types[n]) for n in internal),
                                        provided=iface.provided))
        # a chain of forwards out of c through a channel named like each of them
        chain = ["c", *internal]
        facts = tuple(ast.ProcF(b, ast.FwdPos(a, b)) for a, b in zip(chain, chain[1:]))
        out_chan = chain[-1]
        ctx = ConfigContext(facts, hole, ast.Interface(
            internal=tuple((n, conat) for n in chain[1:-1]), provided=((out_chan, conat),)))
        plugged, out = equiv.plug(ctx, subject)
        renamed, pairs = ref._rename_internals(subject, set(internal))
        assert [m for m, _ in pairs] == [f"{n}%0" for n in internal]
        assert Counter(map(decoded, state_facts(plugged))) == \
            Counter(map(decoded, facts + tuple(renamed))), (fuel, seed)
        assert sorted(out.internal, key=str) == \
            sorted([("c", conat), *ctx.outer.internal, *pairs], key=str)
        # the composite shows what the reference's shows, and the verdicts
        # against the subject at its start do not change
        got = observe_config(plugged, out, (out_chan,), FUEL, DEPTH, seed)
        want = observe_config(config_state(facts + tuple(renamed)), out, (out_chan,),
                              FUEL, DEPTH, seed)
        assert got.tree(out_chan) == want.tree(out_chan) != BOT
        suite = make_system("external", [Experiment(ctx)])
        assert equiv_check(subject, (start, iface), suite, FUEL, DEPTH, seed) == \
            {"mode": "external", "bounded": True, "equivalent": True}
