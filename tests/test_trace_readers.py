"""Readers of a trace's facts against the readers of its every state.

A trace stores its initial state and its steps; observations, barbs and
supports read the facts the steps produced (``Trace.facts``), and
``Trace.states`` is rebuilt by replay when read.  The copies below are
the readers as they were when every intermediate state was kept.  They
walk a list of states recorded eagerly through the scheduler's observer,
so neither side of a comparison depends on the replay.
"""

from helpers import eph_size
from test_dynamics import CONAT, corpus
from test_obs import omega_proc, silent_proc
from test_scheduler import RING

from sill.dynamics import SillSystem, classify_fact, config_state, initial_config, run
from sill.equiv import _fc_state, barb, weak_barb
from sill.fairness import fair_execute
from sill.lang import ast
from sill.msr import Multiset, Trace, parse_system
from sill.msr.rules import NotApplicable
from sill.msr.trace import _state_json
from sill.obs import _message_index, _messages, observe, tree_height

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


def test_observe_reads_the_run_only_as_far_as_its_depth(monkeypatch):
    # every unfold message is sent at one conat node, born with the run:
    # its one unfolding serves the run's 100 births at it and the
    # observations' 32 unfolds, and no other node is unfolded twice
    substs = []
    subst_tvar = ast.subst_tvar
    monkeypatch.setattr(ast, "subst_tvar",
                        lambda a, name, repl: substs.append(repl) or subst_tvar(a, name, repl))
    conat = ast.Rec(CONAT.var, CONAT.body)
    # omega's messages come one per level of its tree, in run order, so an
    # observation cut at depth 8 indexes exactly the first 8 of the 200
    start, iface = initial_config(omega_proc(), {}, ("o", conat))
    tr, states = recorded_run(start, iface, 300)
    tree = observe(tr, "o", 8)[0]
    assert tree_height(tree) == 8
    assert len(_messages(tr).index) == 8
    # reading on from the partial index gives the whole one, and the
    # same observation again
    assert list(_message_index(tr).items()) == list(eager_message_index(states).items())
    assert len(_messages(tr).index) == 200
    assert observe(tr, "o", 8)[0] == tree
    assert tree_height(observe(tr, "o", 64)[0]) == 64
    unfolded = [r for r in substs if type(r) is ast.Rec]
    assert [r for r in unfolded if r is conat] == [conat]
    assert len({id(r) for r in unfolded}) == len(unfolded)


def test_a_rec_node_keeps_its_one_unfolding_out_of_its_value():
    a = ast.Rec("b", ast.Plus((("s", ast.TVar("b")), ("z", ast.One()))))
    twin = ast.Rec("b", ast.Plus((("s", ast.TVar("b")), ("z", ast.One()))))
    assert ast.unfold_rec(a) is ast.unfold_rec(a)
    assert a == twin and hash(a) == hash(twin) and repr(a) == repr(twin)
    assert ast.subst_tvar(ast.Tensor(ast.TVar("v"), a), "v", ast.One()).right is a


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
    assert eph_size(tr.final()) == 1 + 666
    assert len(tr.supp().support()) == 1 + 1000 + 666


def test_a_run_copies_its_state_at_the_start_and_on_read(monkeypatch):
    # the trace copies the shared start state once; steps rewrite its copy
    # in place, and final() copies that only when read after a change
    copies = []
    copy = Multiset.copy
    monkeypatch.setattr(Multiset, "copy", lambda self: copies.append(self) or copy(self))
    start, iface = initial_config(omega_proc(), {}, ("o", CONAT))
    tr = run(SillSystem(), start, iface, fuel=1000, check=True)
    assert len(tr.steps) == 1000 and len(copies) == 1
    assert tr.final() is tr.final() and len(copies) == 2
    mrs = parse_system(RING)
    copies.clear()
    tr = fair_execute(mrs, mrs.initial, budget=200)
    assert len(tr.steps) == 200 and len(copies) == 1
    assert tr.final() is tr.final() and len(copies) == 2


# -- handed-out states -----------------------------------------------------------------

# every kind of step: one that changes the state and adds a persistent fact
# the first time only (pass), an idle one (stay), one that changes nothing
# but binds a fresh name that occurs nowhere (name), and one that re-asserts
# a present persistent fact (ok)
PERSISTENT = """
rule stay: forall x. !ok(x), tok(x) -o tok(x)
rule name: forall x. tok(x) -o exists n. tok(x)
rule ok: forall x. tok(x) -o tok(x), !ok(x)
rule pass: forall x, y. tok(x), next(x, y) -o tok(y), next(x, y), !seen(y)
init: !ok(a), !ok(b), tok(a), next(a, b), next(b, a)
"""


def contents(st):
    return dict(st.eph_items()), st.pers, hash(st)


def assert_handed_out_states_stay(system, start, budget, seed, label):
    """Keep final() after every step and read Trace.states halfway, then
    extend and repeat past the run: no later step changes a state that was
    handed out, and a second run from the same start takes the same steps."""
    kept = [(start, contents(start))]

    def keep(tr):
        kept.append((tr.final(), contents(tr.final())))
        if len(tr.steps) == budget // 2:
            kept.extend((st, contents(st)) for st in tr.states)

    tr = fair_execute(system, start, budget=budget, seed=seed, observer=keep)
    assert tr.initial is start, label
    ran = [(s.inst, s.xi, s.produced) for s in tr.steps]
    for step in list(tr.steps):
        try:
            if step.idle:
                tr.repeat(step)
            elif step.inst.applicable(tr.live):
                tr.extend(step.inst)
        except NotApplicable:
            pass
        kept.append((tr.final(), contents(tr.final())))
    kept.extend((st, contents(st)) for st in tr.states)
    again = fair_execute(system, start, budget=budget, seed=seed)
    assert [(s.inst, s.xi, s.produced) for s in again.steps] == ran, label
    for st, (eph, pers, h) in kept:
        assert contents(st) == (eph, pers, h), label
        assert hash(Multiset(eph, pers)) == h, label
    assert tr.states[-1] is tr.final() == tr.live, label
    return tr


def test_handed_out_states_never_change():
    mrs = parse_system(PERSISTENT)
    for seed in SEEDS:
        tr = assert_handed_out_states_stay(mrs, mrs.initial, 40, seed, seed)
        kinds = {(s.changed, s.idle) for s in tr.steps}
        assert kinds == {(True, False), (False, True), (False, False)}, seed
    ring = parse_system(RING)
    for seed in SEEDS:
        assert_handed_out_states_stay(ring, ring.initial, 60, seed, seed)
    for name, facts, iface in corpus():
        start = config_state(facts)
        for seed in SEEDS:
            assert_handed_out_states_stay(SillSystem(), start, 200, seed, (name, seed))
