"""Bounded observational equivalence of numeral providers."""

import pytest

from sill.equiv import config_subject, equiv_check, make_system
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
