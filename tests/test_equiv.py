"""Barbs and bounded observational equivalence of numeral providers."""

import pytest

from sill.dynamics import initial_config
from sill.equiv import (
    UnknownChannel,
    barb,
    barbed_sim,
    config_subject,
    divergent,
    equiv_check,
    make_system,
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
