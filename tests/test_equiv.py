"""Barbs and bounded observational equivalence of numeral providers."""

import pytest

from sill import equiv, obs
from sill.dynamics import initial_config
from sill.equiv import (
    Experiment,
    UnknownChannel,
    barb,
    barbed_sim,
    config_subject,
    divergent,
    _check_family,
    empty_context,
    equiv_check,
    make_system,
    run_experiment,
    weak_barb,
)
from sill.lang import check_module, parse

SRC = """
type conat = rec a. +{z: 1, s: a}
proc succ : n : conat |- c : conat = send c unfold; c.s; fwd+ n -> c
proc two : |- c : conat = send c unfold; c.s; send c unfold; c.s; send c unfold; c.z; close c
proc four : |- c : conat =
  send c unfold; c.s; send c unfold; c.s; send c unfold; c.s; send c unfold; c.s;
  send c unfold; c.z; close c
proc four_cut : |- c : conat =
  n0 : conat <- two(); n1 : conat <- succ(n0); n2 : conat <- succ(n1); fwd+ n2 -> c
proc one : |- c : conat = send c unfold; c.s; send c unfold; c.z; close c
config four : |- c : conat = proc c four()
config four_cut : |- c : conat = proc c four_cut()
config one : |- c : conat = proc c one()
"""


@pytest.fixture(scope="module")
def subjects():
    mod = parse(SRC)
    check_module(mod)
    return {name: config_subject(decl) for name, decl in mod.configs.items()}


def test_numeral_equals_its_cut_and_forward_construction(subjects):
    v = equiv_check(subjects["four"], subjects["four_cut"], make_system("external"), depth=4)
    assert v == {"mode": "external", "bounded": True, "equivalent": True}


def test_an_equal_verdict_runs_each_subject_alone_once(subjects, monkeypatch):
    # each subject runs once per suite context (here only the empty one,
    # whose observations the families are built from), and the target
    # once per generated experiment
    counts = {"runs": 0, "generated": 0}
    run = obs.run

    def counted_run(*args, **kwargs):
        counts["runs"] += 1
        return run(*args, **kwargs)

    monkeypatch.setattr(obs, "run", counted_run)
    for side in ("L", "R"):
        def counted_gen(*args, gen=getattr(equiv, f"gen_experiments_{side}")):
            out = gen(*args)
            counts["generated"] += len(out)
            return out

        monkeypatch.setattr(equiv, f"gen_experiments_{side}", counted_gen)
    v = equiv_check(subjects["four"], subjects["four_cut"], make_system("external"), depth=4)
    assert v["equivalent"] is True
    assert counts["generated"] > 0
    assert counts["runs"] == 2 * 1 + counts["generated"]


def test_different_numerals_differ_on_their_channel(subjects):
    v = equiv_check(subjects["four_cut"], subjects["one"], make_system("external"), depth=4)
    assert v["equivalent"] is False
    assert v["counterexample"] == {
        "kind": "context",
        "context": "hole",
        "channel": "c",
        "left": "(unfold (s (unfold (s bot))))",
        "right": "(unfold (s (unfold (z bot))))",
    }


@pytest.fixture(scope="module")
def silent(subjects):
    """A provider of c at the numerals' type that steps forever, silently."""
    conat = dict(subjects["one"][1].provided)["c"]
    return initial_config(divergent("c", conat), {}, ("c", conat))


def test_numeral_barbs_on_its_channel(subjects):
    state = subjects["one"][0]
    assert barb(state, "c")
    assert weak_barb(state, "c")


def test_divergent_has_no_barb_within_fuel(silent):
    state = silent[0]
    assert not barb(state, "c")
    assert not weak_barb(state, "c", fuel=60)


def test_barbed_simulation(subjects, silent):
    one = subjects["one"]
    assert barbed_sim(one, one)
    assert not barbed_sim(one, silent)
    assert barbed_sim(silent, one)


def test_barb_on_unknown_channel_raises(subjects):
    state = subjects["one"][0]
    for check in (barb, weak_barb):
        with pytest.raises(UnknownChannel):
            check(state, "d")


# -- one subject per connective -------------------------------------------------------

# Providers at conat, a tensor, a down shift and a value; clients of a
# with, a lolli and a value implication.  The *_changed subjects of CHANGED
# send one label differently; those of val_p and imp_c send another
# functional payload.
SUBJECTS = """
type conat = rec a. +{z: 1, s: a}
type lr = &{l: up 1, r: up 1}
config conat_p : |- c : conat =
  proc c { send c unfold; c.s; send c unfold; c.z; close c }
config tensor_p : |- c : 1 * +{l: 1, r: 1} =
  proc c { a : 1 <- { close a }; send c <a>; c.l; close c }
config down_p : |- c : down lr =
  proc c { send c shift;
           case c { l => shift <- recv c; close c | r => shift <- recv c; close c } }
config val_p : |- c : [{z:1 <-}] ^ 1 =
  proc c { send c [proc(z:1) {close z}]; close c }
config with_c : d : lr |- e : 1 =
  proc e { d.l; send d shift; wait d; close e }
config lolli_c : d : 1 -o up 1 |- e : 1 =
  proc e { a : 1 <- { close a }; send d <a>; send d shift; wait d; close e }
config imp_c : d : [{z:1 <-}] => up 1 |- e : 1 =
  proc e { send d [proc(z:1) {close z}]; send d shift; wait d; close e }
config conat_p_changed : |- c : conat =
  proc c { send c unfold; c.z; close c }
config tensor_p_changed : |- c : 1 * +{l: 1, r: 1} =
  proc c { a : 1 <- { close a }; send c <a>; c.r; close c }
config with_c_changed : d : lr |- e : 1 =
  proc e { d.r; send d shift; wait d; close e }
config val_p_changed : |- c : [{z:1 <-}] ^ 1 =
  proc c { send c [proc(z:1) {y : 1 <- {close y}; wait y; close z}]; close c }
config imp_c_changed : d : [{z:1 <-}] => up 1 |- e : 1 =
  proc e { send d [proc(z:1) {y : 1 <- {close y}; wait y; close z}];
           send d shift; wait d; close e }
"""
FUEL = 100
MODES = ("external", "internal", "total")
CHANGED = ("conat_p", "tensor_p", "with_c")


@pytest.fixture(scope="module")
def by_connective():
    mod = parse(SUBJECTS)
    check_module(mod)
    return {name: config_subject(decl) for name, decl in mod.configs.items()}


def alone(subject, seed=None):
    """The subject observed in the empty context: run alone."""
    return run_experiment(subject, Experiment(empty_context(subject[1])),
                          fuel=FUEL, depth=6, seed=seed)


def test_experiments_from_own_observation_answer_yes(by_connective):
    # a client subject's used channel takes the L family, every provided
    # channel the R family
    for name, subject in by_connective.items():
        for seed in (None, 0, 1):
            ref = alone(subject, seed)
            for n in range(6):
                assert _check_family(ref, subject, n, FUEL, seed, None) is None, \
                    (name, seed, n)


def test_changed_label_yields_a_generated_counterexample(by_connective):
    for name in CHANGED:
        subject, changed = by_connective[name], by_connective[f"{name}_changed"]
        ref = alone(subject)
        found = [_check_family(ref, changed, n, FUEL, None, None) for n in range(6)]
        bad = [f for f in found if f is not None]
        assert bad and all(f["kind"] == "generated" for f in bad), name
        for mode in MODES:
            v = equiv_check(subject, changed, make_system(mode), fuel=FUEL, depth=6)
            assert v["equivalent"] is False, (name, mode)
            assert v["counterexample"]["channel"] == bad[0]["channel"]


def test_every_subject_is_equivalent_to_itself(by_connective):
    for name, subject in by_connective.items():
        if name.endswith("_changed"):
            continue
        for mode in MODES:
            v = equiv_check(subject, subject, make_system(mode), fuel=FUEL, depth=6)
            assert v == {"mode": mode, "bounded": True, "equivalent": True}, \
                (name, mode)


def test_changed_payload_is_seen_only_where_values_are_compared(by_connective):
    # total mode compares sent values syntactically; external and internal
    # relate every pair of values
    payloads = ("[proc(z:1) {close z}]", "[proc(z:1) {y: 1 <- {close y}; wait y; close z}]")
    for name, chan, rest in (("val_p", "c", "close"), ("imp_c", "d", "(shift bot)")):
        subject, changed = by_connective[name], by_connective[f"{name}_changed"]
        v = equiv_check(subject, changed, make_system("total"), fuel=FUEL, depth=6)
        assert v["counterexample"] == {
            "kind": "context", "context": "hole", "channel": chan,
            "left": f"(val {payloads[0]} {rest})", "right": f"(val {payloads[1]} {rest})"}, name
        for mode in ("external", "internal"):
            v = equiv_check(subject, changed, make_system(mode), fuel=FUEL, depth=6)
            assert v["equivalent"] is True, (name, mode)


# -- a changed sent channel -------------------------------------------------------------

# A provider and a client each send a channel whose own session differs
# from the *_changed subject's: by a label, or, for tensor_v, only by the
# functional payload it sends.
SENT = """
type lr1 = +{l: 1, r: 1}
type v1 = [{z:1 <-}] ^ 1
config tensor_s : |- c : lr1 * 1 =
  proc c { a : lr1 <- { a.l; close a }; send c <a>; close c }
config tensor_s_changed : |- c : lr1 * 1 =
  proc c { a : lr1 <- { a.r; close a }; send c <a>; close c }
config lolli_s : d : lr1 -o up 1 |- e : 1 =
  proc e { a : lr1 <- { a.l; close a }; send d <a>; send d shift; wait d; close e }
config lolli_s_changed : d : lr1 -o up 1 |- e : 1 =
  proc e { a : lr1 <- { a.r; close a }; send d <a>; send d shift; wait d; close e }
config tensor_v : |- c : v1 * 1 =
  proc c { a : v1 <- { send a [proc(z:1) {close z}]; close a }; send c <a>; close c }
config tensor_v_changed : |- c : v1 * 1 =
  proc c { a : v1 <- { send a [proc(z:1) {y : 1 <- {close y}; wait y; close z}]; close a };
           send c <a>; close c }
"""


@pytest.fixture(scope="module")
def sent():
    mod = parse(SENT)
    check_module(mod)
    return {name: config_subject(decl) for name, decl in mod.configs.items()}


def test_a_changed_sent_channel_is_seen_wherever_values_allow(sent):
    # a label in the sent channel's tree is seen in every mode; a payload
    # there only where sent values are compared (total mode)
    payloads = ("[proc(z:1) {close z}]", "[proc(z:1) {y: 1 <- {close y}; wait y; close z}]")
    for name, chan, left, right, modes in (
            ("tensor_s", "c", "(pair (l close) close)", "(pair (r close) close)", MODES),
            ("lolli_s", "d", "(pair (l close) (shift bot))", "(pair (r close) (shift bot))",
             MODES),
            ("tensor_v", "c", f"(pair (val {payloads[0]} close) close)",
             f"(pair (val {payloads[1]} close) close)", ("total",))):
        subject, changed = sent[name], sent[f"{name}_changed"]
        ref = alone(subject)
        found = [_check_family(ref, changed, n, FUEL, None, None) for n in range(6)]
        if len(modes) == len(MODES):
            assert any(f is not None for f in found), name
        for mode in MODES:
            v = equiv_check(subject, changed, make_system(mode), fuel=FUEL, depth=6)
            if mode in modes:
                assert v["counterexample"] == {"kind": "context", "context": "hole",
                                               "channel": chan, "left": left, "right": right}, \
                    (name, mode)
            else:
                assert v == {"mode": mode, "bounded": True, "equivalent": True}, (name, mode)
