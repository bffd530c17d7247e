"""The process parser reads case branches on its explicit stack, and gives
what the recursive parser gave.

Random process texts, nested cases among every other form, and mutations
of them (a token dropped, doubled, swapped with the next, or a token
inserted) parse with the current parser and with the verbatim recursive
one (``parser_oracle.OldProcParser``): both give the same tree, or the
same error message at the same position.
"""

import random

from parser_oracle import OldProcParser

from sill.lang.ast import FVar, Lam, One, ProcType
from sill.lang.errors import ParseError
from sill.lang.parser import _Parser, tokenize

CHANS = ("c", "d", "x")
LABELS = ("l", "r", "z")
PREFIXES = ("{c}.{l}; ", "wait {c}; ", "send {c} <{d}>; ", "send {c} shift; ",
            "send {c} unfold; ", "shift <- recv {c}; ", "unfold <- recv {c}; ",
            "[v] <- recv {c}; ", "{d} <- recv {c}; ", "send {c} [v]; ")
LEAVES = ("close {c}", "fwd+ {c} -> {d}", "fwd- {c} -> {d}", "{c} <- [f] <- {d} x",
          "case {c} {{}}")
NOISE = ("|", "}", "{", "=>", ";", "case", "c", "close", ".", "<-", "l", "1", "(", "proc", ":")


def process_text(rng: random.Random, depth: int) -> str:
    """A random process text, well formed but for names and types."""
    c, d, lab = rng.choice(CHANS), rng.choice(CHANS), rng.choice(LABELS)
    roll = rng.random()
    if depth <= 0 or roll < 0.15:
        return rng.choice(LEAVES).format(c=c, d=d)
    if roll < 0.5:
        return rng.choice(PREFIXES).format(c=c, d=d, l=lab) + process_text(rng, depth - 1)
    if roll < 0.8:
        labels = rng.sample(LABELS, rng.randint(1, 3))
        return f"case {c} {{" + " | ".join(
            f"{b} => {process_text(rng, depth - 1)}" for b in labels) + "}"
    if roll < 0.9:
        return (f"y : 1 <- {{ {process_text(rng, depth - 1)} }}; "
                + process_text(rng, depth - 1))
    return (f"send {c} [proc({d} : 1) {{ {process_text(rng, depth - 1)} }}]; "
            + process_text(rng, depth - 1))


def mutated(rng: random.Random, text: str) -> str:
    toks = [t.text for t in tokenize(text)[:-1]]
    i = rng.randrange(len(toks))
    op = rng.randrange(4)
    if op == 0:
        del toks[i]
    elif op == 1:
        toks.insert(i, toks[i])
    elif op == 2 and i + 1 < len(toks):
        toks[i], toks[i + 1] = toks[i + 1], toks[i]
    else:
        toks.insert(i, rng.choice(NOISE))
    return " ".join(toks)


def outcome(cls, text: str):
    """What parse_proc gives on text with the parser class cls: the tree,
    or the error's message and position."""
    p = cls(text)
    try:
        out = p.proc(frozenset())
        if p.peek().kind != "eof":
            p.fail(f"trailing input {p.peek().text!r}")
        return out
    except ParseError as ex:
        return str(ex), ex.line, ex.col


def test_process_texts_parse_as_before():
    rng = random.Random(20211022)
    parsed = failed = 0
    for n in range(3000):
        text = process_text(rng, rng.randint(1, 6))
        for _ in range(n % 3):
            text = mutated(rng, text)
        want = outcome(OldProcParser, text)
        assert outcome(_Parser, text) == want, text
        if isinstance(want, tuple):
            failed += 1
        else:
            parsed += 1
    assert parsed > 1000 and failed > 1000, (parsed, failed)


def test_a_cut_body_binds_its_variables_only_inside():
    # f names a declared term, and a body that receives into f binds it
    # there alone: the process after the cut reads the declaration
    declared = Lam("v", ProcType(("x", One())), FVar("v"))
    for text in ("y : 1 <- {[f] <- recv d; send y [f]; close y}; send c [f]; close c",
                 "y : 1 <- {case d {l => [f] <- recv e; close y}}; send c [f]; close c"):
        trees = []
        for cls in (OldProcParser, _Parser):
            p = cls(text)
            p.termdecls["f"] = declared
            trees.append(p.proc(frozenset()))
        assert trees[0] == trees[1], text
        assert trees[1].right.term is declared
