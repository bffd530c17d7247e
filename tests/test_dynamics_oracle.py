"""Differential tests: SILL steps derived on codes and environments
against the reference in ``dynamics_oracle``, which decoded each process
and encoded its successors again.

At every state of every run below, both give the same enabled steps, in
the same order: rule name, consumed and produced facts, existentials,
fresh-name hints and equivalence class by the definition
(``fairness_oracles.definitional_key``), the facts compared as the
configuration facts they decode to (``config_fact``), a binder renamed apart
and a hint that names one by its stem (``unapart``); the keys the
engine gives all the enabled steps of a state split them into exactly
those classes.  Full fair runs take the same steps with the same fresh names and
the same scheduler counters, and the channels those steps create get the
same types.  The inputs are the corpus under several seeds, the wide
benchmark configuration, an endless sender, divergent spins and
type-directed well-typed processes.
"""

import random
import sys
from pathlib import Path

import dynamics_oracle as ref
from fairness_oracles import definitional_key
from test_check_oracle import _well_typed
from test_equiv_key import classes
from test_dynamics import corpus
from test_obs import CONAT, omega_proc

from sill.dynamics import (_DECODE, SillSystem, _birth_type, _StepIndex, config_fact,
                           config_state, enc_proc, initial_config, run)
from sill.equiv import divergent
from sill.lang import check_module, parse
from sill.lang.ast import CHAN_BINDER, One, Plus, Up
from sill.msr.multiset import Fact
from sill.msr.rules import _ground_fact
from sill.msr.terms import App, Const, Wrap

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import wide_source  # noqa: E402

SEEDS = (None, 0, 1, 2, 7)


# the constant a step's consequent is decoded with in place of its variable
_PLACED = {"nc": Const("%nc")}


def decoded(x):
    """x with each fact in it, ground or over the step's variable, decoded
    to its configuration fact, with binders renamed apart named by their
    stem (``unapart``)."""
    if isinstance(x, Fact):
        cf = config_fact(_ground_fact(x, _PLACED))
        return type(cf).__name__, cf.chan, unapart(cf.proc)
    if isinstance(x, (tuple, frozenset)):
        return type(x)(map(decoded, x))
    return x


def unapart(p):
    """The code and environment of p, each channel binder a renaming gave
    apart (``stem%k``, ``dynamics._apart``) named by its stem again: the
    reference renames a binder apart wherever a renaming maps some channel
    onto its name (``ast_oracle.subst_chan``), a code and environment only
    where it would capture a channel its scope uses.  Every other name is
    kept, and a code's bound occurrences are slots, so they follow their
    binder."""
    code, env = enc_proc(p)
    return _unapart_binders(code), env


def _stem(name):
    # '%' is reserved for renaming apart: no source identifier holds it
    return name.split("%")[0]


def _unapart_binders(t, name=_stem):
    # a channel binder is the first field of its construct
    if type(t) is not App:
        return t
    binds = t.fn in _DECODE and _DECODE[t.fn][1][0] is CHAN_BINDER
    return App(t.fn, tuple(Wrap(name(a.payload)) if binds and i == 0
                           else _unapart_binders(a, name) for i, a in enumerate(t.args)))


def _inst(i):
    # a cut's hint is its binder as decoded, so it is named by its stem too
    r = i.rule
    hints = tuple((v, (_stem(h), style)) for v, (h, style) in r.fresh_hints)
    return (r.name, decoded(r.eph_ant), decoded(r.eph_con), r.evars, hints,
            decoded(definitional_key(i)))


def assert_same_runs(state, iface, fuel, seeds=SEEDS, check=False):
    """Run both systems from state under each seed; compare the steps, the
    enabled steps at every state and the types of the born channels.
    Returns the traces of the current system."""
    traces = []
    for seed in seeds:
        new = run(SillSystem(), state, iface, fuel=fuel, seed=seed, check=check)
        old = run(ref.OracleSystem(), state, iface, fuel=fuel, seed=seed, check=check)
        assert [(_inst(s.inst), s.xi, decoded(s.produced)) for s in new.steps] == \
            [(_inst(s.inst), s.xi, decoded(s.produced)) for s in old.steps]
        assert new.meta["maximal"] == old.meta["maximal"]
        assert new.meta["sched"] == old.meta["sched"]
        types = new.meta["channel_types"]
        for s in new.steps:
            if s.xi:
                assert _birth_type(types, s) == ref._birth_type(types, s)
        for st in new.states:
            assert [_inst(i) for i in SillSystem().applicable(st)] == \
                [_inst(i) for i in ref.OracleSystem().applicable(st)]
            index = _StepIndex(SillSystem(), st)
            enabled = index.steps(index.procs)
            assert classes([k for k, _ in enabled]) == \
                classes([definitional_key(i) for _, i in enabled])
        traces.append(new)
    return traces


def test_corpus_runs_match_the_reference():
    for name, facts, iface in corpus():
        for tr in assert_same_runs(config_state(facts), iface, 200, check=True):
            assert tr.meta["maximal"] is True, name


def test_the_wide_configuration_runs_like_the_reference():
    src, provided = wide_source(4, 1)
    mod = parse(src)
    check_module(mod)
    decl = mod.configs["wide"]
    tr, = assert_same_runs(config_state(decl.facts), decl.interface, 10_000,
                           seeds=(1,), check=True)
    assert tr.meta["maximal"] is True and len(tr.steps) > 200


def test_an_endless_sender_runs_like_the_reference():
    state, iface = initial_config(omega_proc(), {}, ("o", CONAT))
    tr, = assert_same_runs(state, iface, 300, seeds=(None,))
    assert len(tr.steps) == 300


def test_divergent_spins_run_like_the_reference():
    up1 = Up(One())
    for p, offered, used in (
            (divergent("r", One()), ("r", One()), {}),
            (divergent("r", up1, (("u", One()), ("v", up1))), ("r", up1),
             {"u": One(), "v": up1}),
            (divergent("z0", Plus((("l", One()),)), (("z1", One()),)),
             ("z0", Plus((("l", One()),))), {"z1": One()})):
        state, iface = initial_config(p, used, offered)
        for tr in assert_same_runs(state, iface, 40, seeds=(None, 3)):
            assert len(tr.steps) == 40


def test_well_typed_processes_run_like_the_reference():
    steps = 0
    for seed in range(200):
        p, offered, used = _well_typed(random.Random(seed))
        state, iface = initial_config(p, used, offered)
        for tr in assert_same_runs(state, iface, 40, seeds=(None, seed)):
            steps += len(tr.steps)
    assert steps > 4000
