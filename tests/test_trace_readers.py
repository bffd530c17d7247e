"""Readers of a trace's facts against the readers of its every state.

A trace stores its initial state and its steps; observations, barbs and
supports read the facts the steps produced (``Trace.facts``), and
``Trace.states`` is rebuilt by replay when read.  The copies below are
the readers as they were when every intermediate state was kept.  They
walk a list of states recorded eagerly through the scheduler's observer,
so neither side of a comparison depends on the replay.
"""

from test_dynamics import CONAT, corpus
from test_obs import omega_proc, silent_proc
from test_scheduler import RING

from sill.dynamics import SillSystem, classify_fact, config_state, initial_config, run
from sill.equiv import _fc_state, barb, weak_barb
from sill.fairness import fair_execute
from sill.msr import Multiset, Trace, parse_system
from sill.msr.trace import _state_json
from sill.obs import _message_index, observe, tree_height

SEEDS = (None, 0, 1, 2, 7)


# -- the readers of every state ------------------------------------------------------


def eager_message_index(states):
    out = {}
    for st in states:
        for f in st.eph_support():
            pred, _, _, info = classify_fact(f)
            if pred == "msg" and info is not None and info.carrier not in out:
                out[info.carrier] = info
    return out


def eager_weak_barb(state, a, fuel, seed):
    states = [state]
    tr = fair_execute(SillSystem(), state, budget=fuel, seed=seed,
                      observer=lambda t: states.append(t.final()))
    for st in states:
        for f in st.eph_support():
            pred, _, _, info = classify_fact(f)
            if pred == "msg" and info is not None and info.carrier == a:
                return True
    return barb(tr.final(), a)


def eager_supp(states):
    eph = set()
    for st in states:
        eph |= set(st.eph_support())
    return Multiset.of(eph, states[-1].pers)


def recorded_run(start, iface, fuel, seed=None):
    states = [start]
    tr = run(SillSystem(), start, iface, fuel=fuel, seed=seed,
             observer=lambda t: states.append(t.final()))
    return tr, states


def assert_readers_agree(tr, states, label):
    assert list(_message_index(tr).items()) == list(eager_message_index(states).items()), label
    assert tr.supp() == eager_supp(states), label
    assert tr.states == states, label


# -- differential ------------------------------------------------------------------


def test_corpus_readers_match_every_state():
    for name, facts, iface in corpus():
        start = config_state(facts)
        for seed in SEEDS:
            tr, states = recorded_run(start, iface, 200, seed)
            assert_readers_agree(tr, states, (name, seed))
            for a in sorted(_fc_state(start)):
                assert weak_barb(start, a, 200, seed) == eager_weak_barb(start, a, 200, seed), \
                    (name, seed, a)


def test_omega_readers_match_every_state():
    start, iface = initial_config(omega_proc(), {}, ("o", CONAT))
    tr, states = recorded_run(start, iface, 300)
    assert len(tr.steps) == 300
    assert_readers_agree(tr, states, "omega")
    assert weak_barb(start, "o", 300) is eager_weak_barb(start, "o", 300, None) is True


def test_silent_run_has_no_barb_either_way():
    start, iface = initial_config(silent_proc("o"), {}, ("o", CONAT))
    tr, states = recorded_run(start, iface, 40)
    assert_readers_agree(tr, states, "silent")
    assert weak_barb(start, "o", 40) is eager_weak_barb(start, "o", 40, None) is False


def test_json_states_are_the_recorded_states():
    mrs = parse_system(RING)
    for seed in (None, 5):
        states = [mrs.initial]
        tr = fair_execute(mrs, mrs.initial, budget=60, seed=seed,
                          observer=lambda t: states.append(t.final()))
        data = tr.to_json(include_states=True)
        assert data["states"] == [_state_json(st) for st in states]
        del data["states"]
        assert data == tr.to_json()


# -- what a run builds -----------------------------------------------------------------


def test_observe_and_supp_never_build_states(monkeypatch):
    def no_states(self):
        raise AssertionError("Trace.states was built")

    monkeypatch.setattr(Trace, "states", property(no_states))
    start, iface = initial_config(omega_proc(), {}, ("o", CONAT))
    tr = run(SillSystem(), start, iface, fuel=1000)
    assert len(tr.steps) == 1000
    assert tree_height(observe(tr, "o", 64)[0]) == 64
    # a cycle is unquote, send unfold, send label: every step leaves a new
    # process fact, the two sends a message each, and nobody receives
    assert tr.final().eph_size() == 1 + 666
    assert len(tr.supp().support()) == 1 + 1000 + 666
