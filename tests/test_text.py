"""System file parsing and printing."""

import pytest
from helpers import eph_size

from sill.msr import ParseError, parse_fact, parse_system, parse_term, system_to_str
from sill.msr.terms import App, Const, Var


def test_terms_and_facts():
    assert parse_term("s(s(z))") == App("s", (App("s", (Const("z"),)),))
    assert parse_term("x", frozenset({"x"})) == Var("x")
    f = parse_fact("!memo(z, s(z))")
    assert f.persistent and f.pred == "memo"


def test_rule_parts_sorted_into_persistent_and_ephemeral():
    mrs = parse_system(
        "rule r: forall n, m, l. !memo(n, m), fib(n, l) -o val(l, m)"
    )
    r = mrs.rule("r")
    assert [f.pred for f in r.pers_ant] == ["memo"]
    assert [f.pred for f in r.eph_ant] == ["fib"]
    assert r.uvars == ("n", "m", "l")


def test_empty_sides_and_comments():
    mrs = parse_system(
        """
        # generators need no antecedent
        rule gen: . -o exists n. tok(n)
        rule sink: tok2 -o .
        init: tok2
        """
    )
    assert mrs.rule("gen").eph_ant == ()
    assert mrs.rule("sink").eph_con == ()
    assert eph_size(mrs.initial) == 1


def test_roundtrip_through_printer():
    src = """
    rule e1: forall x, y. enq(x, y), queue(x, end) -o exists z. queue(x, cell(y, z)), queue(z, end)
    init: queue(q, end), enq(q, 1), !log(q)
    """
    mrs = parse_system(src)
    printed = system_to_str(mrs)
    again = parse_system(printed)
    assert again.rules == mrs.rules
    assert again.initial == mrs.initial


def test_error_positions():
    with pytest.raises(ParseError) as e:
        parse_system("rule broken: forall x. A(x -o B(x)")
    assert e.value.line == 1
    with pytest.raises(ParseError):
        parse_system("init: A\ninit: B")
    with pytest.raises(ParseError):
        parse_system("boom: A -o B")


def test_names_outside_binders_are_constants():
    mrs = parse_system("rule r: forall x. A(x) -o B(y)")
    assert mrs.rule("r").eph_con[0].args == (Const("y"),)


def test_non_range_restricted_rule_rejected():
    with pytest.raises(ParseError):
        parse_system("rule r: forall x, y. A(x) -o B(x, y)")


def test_generated_style_names_rejected_in_source():
    with pytest.raises(ParseError):
        parse_system("init: A(q#1)")
