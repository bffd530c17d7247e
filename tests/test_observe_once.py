"""A verdict observes each plugged configuration once.

``observe_config`` keeps each observation on the system it ran on, keyed
by the state, the observed channels, fuel, depth and seed, and hands it out
again only under an interface that names the same channels at ``type_eq``
types.  A verdict's experiments share one system, so an experiment it
repeats runs once.  Keeping observations must change nothing a verdict
reports: every verdict and counterexample below is the same as with a
memo that forgets everything.  A verdict reads each subject once, and
``plug`` checks only the context, with a stand-in for each of the
subject's trees, yet still rejects what the whole composite would fail.
"""

import sys
from pathlib import Path

import pytest
from test_dynamics import corpus
from test_equiv import FUEL, MODES, SRC, SUBJECTS
from test_equiv_oracle import INTERNAL
from test_scheduler import SEEDS

from sill import equiv, obs
from sill.dynamics import SillSystem, config_state, state_facts
from sill.equiv import ConfigContext, config_subject, equiv_check, make_system, plug
from sill.lang import ast, check_module, parse
from sill.lang.errors import CyclicSharing, IllTyped, InterfaceMismatch
from sill.obs import observe_config

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import equiv_source  # noqa: E402

# the numeral at the observation depth, as the equiv benchmark writes it
BIG = """
type conat = rec a. +{z: 1, s: a}
config big : |- c : conat = proc c { %s send c unfold; c.z; close c }
""" % ("send c unfold; c.s; " * 8)

# a client blocked on its used channel from the start: its alone run takes
# no step and ends maximal, so the family target is its own state again
IDLE = """
config idle_c : d : 1 |- e : 1 = proc e { wait d; close e }
"""


class _Forgetful(dict):
    """A memo that keeps nothing."""

    def __setitem__(self, key, value):
        pass


def forgetting() -> SillSystem:
    """A system whose memo keeps no observation."""
    system = SillSystem()
    system.observations = _Forgetful()
    return system


@pytest.fixture(scope="module")
def subjects():
    out = {}
    for src in (SRC, SUBJECTS, INTERNAL, BIG, IDLE):
        mod = parse(src)
        check_module(mod)
        out.update({name: config_subject(decl) for name, decl in mod.configs.items()})
    return out


def verdict_pairs(subjects) -> list:
    """Each connective subject with itself and with its changed twin both
    ways; the numerals equal, unequal and with internal channels."""
    pairs = [("four", "four_cut"), ("four_cut", "four"), ("four_cut", "one"),
             ("one_int", "two_int"), ("two_int", "two_int")]
    for name in subjects:
        if f"{name}_changed" in subjects:
            pairs += [(name, name), (name, f"{name}_changed"), (f"{name}_changed", name)]
        elif name in ("down_p", "lolli_c"):
            pairs.append((name, name))
    return pairs


def test_verdicts_with_the_memo_are_those_without(subjects):
    for left, right in verdict_pairs(subjects):
        for mode in MODES:
            for seed in (None, 0):
                args = (subjects[left], subjects[right], make_system(mode))
                kwargs = {"fuel": FUEL, "depth": 6, "seed": seed}
                kept = equiv_check(*args, **kwargs)
                assert kept == equiv_check(*args, system=forgetting(), **kwargs), \
                    (left, right, mode, seed)


def counting_runs(monkeypatch) -> list:
    runs = [0]
    run = obs.run

    def counted(*args, **kwargs):
        runs[0] += 1
        return run(*args, **kwargs)

    monkeypatch.setattr(obs, "run", counted)
    return runs


def test_a_shared_system_observes_as_a_fresh_one(monkeypatch):
    runs = counting_runs(monkeypatch)
    shared = SillSystem()
    for name, facts, iface in corpus():
        state = config_state(facts)
        for seed in SEEDS:
            fresh = observe_config(state, iface, fuel=200, seed=seed)
            before = runs[0]
            for _ in range(2):
                got = observe_config(state, iface, fuel=200, seed=seed, system=shared)
                assert got == fresh, (name, seed)
            # the second observation is the first one's, kept
            assert runs[0] == before + 1, (name, seed)


def test_an_interface_typing_a_channel_otherwise_is_no_hit(subjects, monkeypatch):
    runs = counting_runs(monkeypatch)
    state, iface = subjects["one"]
    conat = dict(iface.provided)["c"]
    # conat with one more label, and conat with its variable renamed
    wider = ast.Rec("a", ast.Plus(conat.body.branches + (("t", ast.TVar("a")),)))
    renamed = ast.Rec("b", ast.Plus((("z", ast.One()), ("s", ast.TVar("b")))))
    system = SillSystem()
    first = observe_config(state, iface, system=system)
    # an interface at type_eq types is a hit
    again = observe_config(state, ast.Interface(provided=(("c", renamed),)), system=system)
    assert runs[0] == 1
    assert again.tree("c") == first.tree("c")
    other = observe_config(state, ast.Interface(provided=(("c", wider),)), system=system)
    assert runs[0] == 2
    assert other.channels[0][2] is wider and first.channels[0][2] is conat
    assert other.tree("c") == first.tree("c")


def test_an_equal_pair_observes_each_experiment_once(subjects, monkeypatch):
    # the second direction of big = big would plug exactly the first's
    # experiments into the same end state, so it is skipped: the two alone
    # observations and the eight of one direction, in nine runs
    runs = counting_runs(monkeypatch)
    observations = [0]
    observe = equiv.observe_config

    def counted(*args, **kwargs):
        observations[0] += 1
        return observe(*args, **kwargs)

    monkeypatch.setattr(equiv, "observe_config", counted)
    big = subjects["big"]
    v = equiv_check(big, big, make_system("external"), fuel=500, depth=8, seed=3)
    assert v["equivalent"] is True
    assert (observations[0], runs[0]) == (10, 9)


def test_an_equal_pair_plugs_one_direction(monkeypatch):
    # the benchmark's three verdicts on one system: big = big plugs its
    # eight generated experiments once, not once per direction, and the
    # pairs whose directions differ plug as many as before (38 in all
    # before the skip, 30 now)
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return plug(*args, **kwargs)

    mod = parse(equiv_source(8))
    check_module(mod)
    numerals = {name: config_subject(decl) for name, decl in mod.configs.items()}
    monkeypatch.setattr(equiv, "plug", counted)
    system = make_system("external")
    per_verdict = []
    for left, right in (("big", "big"), ("big", "big_cut"), ("big", "small")):
        before = calls[0]
        equiv_check(numerals[left], numerals[right], system, fuel=500, depth=8, seed=3)
        per_verdict.append(calls[0] - before)
    assert per_verdict == [10, 18, 2]


def test_a_verdict_reads_no_subject_process_for_its_channels(subjects, monkeypatch):
    calls: dict[int, int] = {}
    fc = ast.fc

    def counted(p, memo=None):
        calls[id(p)] = calls.get(id(p), 0) + 1
        return fc(p, memo)

    monkeypatch.setattr(ast, "fc", counted)
    idle = subjects["idle_c"]
    assert observe_config(*idle).end[0] == idle[0]
    for left, right in verdict_pairs(subjects) + [("big", "big"), ("idle_c", "idle_c")]:
        # decoded processes are kept on their facts, so these are the
        # objects the verdict would read; a fact's channels are read off
        # its environment instead
        procs = {id(cf.proc) for name in (left, right)
                 for cf in state_facts(subjects[name][0])}
        calls.clear()
        equiv_check(subjects[left], subjects[right], make_system("total"),
                    fuel=FUEL, depth=6)
        read = [calls.get(p, 0) for p in procs]
        assert max(read) == 0, (left, right, read)


def test_plug_still_rejects_a_faulty_context(subjects):
    # with_c uses d : lr and provides e : 1
    subject = subjects["with_c"]
    iface = subject[1]
    lr = dict(iface.used)["d"]
    hole = ast.Interface(used=iface.used, provided=iface.provided)
    serve = ast.Case("d", tuple((label, ast.RecvShift("d", ast.Close("d")))
                                for label in ("l", "r")))
    # a provider of d that waits on e closes a cycle through the hole
    cycle = ConfigContext((ast.ProcF("d", ast.Wait("e", serve)),), hole,
                          ast.Interface())
    with pytest.raises(CyclicSharing):
        plug(cycle, subject)
    # the same provider beside the hole, e exposed, plugs
    ok = ConfigContext((ast.ProcF("d", serve),), hole,
                       ast.Interface(provided=iface.provided))
    state, out = plug(ok, subject)
    assert [c for c, _ in out.internal] == ["d"]
    # a context fact that breaks the protocol of d
    bad = ConfigContext((ast.ProcF("d", ast.Close("d")),), hole,
                        ast.Interface(provided=iface.provided))
    with pytest.raises(IllTyped):
        plug(bad, subject)
    # nobody provides d
    with pytest.raises(InterfaceMismatch):
        plug(ConfigContext((), hole, ast.Interface(provided=iface.provided)), subject)
    assert lr == ast.With((("l", ast.Up(ast.One())), ("r", ast.Up(ast.One()))))
