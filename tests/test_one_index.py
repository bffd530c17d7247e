"""A run keeps one applicable set, built from one index of its state.

The fair scheduler and the lasso replay each index their start state once,
in the system's enabled set, and take the start's instantiations from it,
so neither asks the system for a full enumeration.  After a step that
changed the state both advance the set by one update, which drops the
applied class and proposes it again when it still applies.
"""

import random
import sys
from pathlib import Path

from test_fairness import build_trace
from test_obs import CONAT, omega_proc

from sill import dynamics
from sill.dynamics import SillSystem, initial_config, run
from sill.fairness import LassoTrace, _analysis_of, fair_execute, fairness_report
from sill.msr import Mrs, parse_system, rules
from sill.msr.rules import _equiv_key

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import RING_RULE, ring_nodes, ring_source  # noqa: E402


def counting(monkeypatch, cls) -> list:
    """The instances of cls built from now on."""
    built = []
    init = cls.__init__

    def counted(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(cls, "__init__", counted)
    return built


def refuse_full_enumerations(monkeypatch):
    def refuse(*_):
        raise AssertionError("full enumeration inside a run")

    monkeypatch.setattr(Mrs, "applicable", refuse)
    monkeypatch.setattr(SillSystem, "applicable", refuse)


def test_an_omega_run_builds_one_step_index(monkeypatch):
    state, iface = initial_config(omega_proc(), {}, ("o", CONAT))
    refuse_full_enumerations(monkeypatch)
    built = counting(monkeypatch, dynamics._StepIndex)
    tr = run(SillSystem(), state, iface, fuel=100, seed=1)
    assert len(tr.steps) == 100
    assert len(built) == 1


def test_a_ring_run_and_its_lasso_analysis_build_one_fact_index_each(monkeypatch):
    offset = random.Random(3).randrange(100)
    mrs = parse_system(ring_source(ring_nodes(100, 3), 4, offset, RING_RULE))
    refuse_full_enumerations(monkeypatch)
    built = counting(monkeypatch, rules.FactIndex)
    lt = LassoTrace(fair_execute(mrs, mrs.initial, budget=100, seed=3), 0)
    assert len(built) == 1
    assert all(v.fair for v in fairness_report(lt).values())
    assert len(built) == 2


# one fact of multiplicity 2 taken one at a time: the class of take(k) is
# still applicable after its first step, which changed the state
TWICE = """
rule take: forall x. a(x) -o b(x)
rule look: forall x. a(x), c -o a(x), c
rule back: forall x. b(x), b(x) -o a(x), a(x)
rule keep: forall x. b(x), c -o b(x), c
init: a(k), a(k), c
"""


def test_the_replay_proposes_the_applied_class_again_when_it_still_applies():
    mrs = parse_system(TWICE)
    tr = build_trace(mrs, [("take", {"x": "k"}), ("look", {"x": "k"}), ("take", {"x": "k"}),
                           ("keep", {"x": "k"}), ("back", {"x": "k"})])
    assert tr.final() == tr.initial
    an = _analysis_of(LassoTrace(tr, 0))
    states = tr.states
    for j in range(len(tr.steps)):
        assert list(an.keyed[j].values()) == mrs.applicable(states[j]), j
    # take(k) changed the state and is applicable after it
    assert tr.steps[0].changed and _equiv_key(tr.steps[0].inst) in an.keyed[1]
