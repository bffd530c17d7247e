"""Parse-time instantiation of a named process, ``x : A <- p(a, b)``.

The parser renames the channels of p's declared body the way a running
process is renamed: in the environment of its code, decoded by
``sill.dynamics.dec_proc``, which renames a binder apart exactly where it
would capture.  Declared ``_well_typed`` bodies, instantiated under random
renamings onto their own binders' names, must parse to what the reference
``subst_chan`` renames, up to the names of binders renamed apart
(``unapart``), and to exactly that wherever the reference renames no
binder.  A binder that no renamed occurrence reaches keeps its name, where
the reference renamed it apart.  A binder renamed apart prints as a source
identifier, so a printed module parses to itself up to the names of bound
channels.  The parser imports the runtime only when it instantiates, so a
fresh interpreter can import the parser first.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import ast_oracle as ref
from test_check_oracle import CHANS, _well_typed
from test_dynamics_oracle import _unapart_binders, unapart

from sill.dynamics import enc_proc
from sill.lang import ast
from sill.lang.parser import module_to_str, parse

SRC = Path(__file__).resolve().parent.parent / "src"


def _binders(p) -> set:
    """The channel binders of p, quoted processes not entered."""
    out, todo = set(), [p]
    while todo:
        q = todo.pop()
        out |= {getattr(q, f) for f, r in ast.PROC_ROLES[type(q)].items() if r is ast.CHAN_BINDER}
        todo += ast.subprocs(q)
    return out


def _declared(p, offered, used, rho):
    """A module declaring p with its typing and instantiating it under rho."""
    (c, a), formals = offered, sorted(used)
    judgment = ", ".join(f"{n}:{ast.type_to_str(used[n])}" for n in formals)
    m = parse(f"proc p : {judgment} |- {c}:{ast.type_to_str(a)} = {ast.proc_to_str(p)}\n"
              f"proc q : |- z:1 = {rho[c]} : {ast.type_to_str(a)} <- "
              f"p({', '.join(rho[n] for n in formals)}); close z\n")
    assert m.procs["p"].body == p
    return m


def _instantiated(p, offered, used, rho):
    """p declared with its typing and instantiated under rho, parsed."""
    return _declared(p, offered, used, rho).procs["q"].body.left


def _unbound(p):
    """The code of p with every channel binder's name erased, and its
    environment: equal for processes that differ only in the names of
    bound channels, as a code's bound occurrences are slots."""
    code, env = enc_proc(p)
    return _unapart_binders(code, lambda b: ""), env


def test_instantiation_renames_like_the_reference_up_to_binders_apart():
    apart = exact = 0
    for seed in range(150):
        rng = random.Random(seed)
        p, offered, used = _well_typed(rng)
        # actuals among the body's binders and free names, so many capture
        names = sorted(set(CHANS) | _binders(p))
        rho = {n: rng.choice(names) for n in [offered[0], *used]}
        got, want = _instantiated(p, offered, used, rho), ref.subst_chan(p, rho)
        assert unapart(got) == unapart(want), seed
        if any("%" in b for b in _binders(want)):
            apart += any("%" in b for b in _binders(got))
        else:
            assert got == want, seed
            exact += 1
    assert apart > 10 and exact > 10


def test_a_binder_no_renamed_occurrence_reaches_keeps_its_name():
    # d is passed x, and the binder x scopes over no occurrence of d: the
    # reference renames it apart all the same, instantiation keeps it
    m = parse("proc r : d:1 |- c:1 = wait d; x : 1 <- {close x}; wait x; close c\n"
              "proc s : x:1 |- e:1 = y : 1 <- r(x); wait y; close e\n")
    body = m.procs["r"].body
    kept = ast.Wait("x", ast.Cut("x", ast.One(), ast.Close("x"), ast.Wait("x", ast.Close("y"))))
    assert m.procs["s"].body.left == kept
    assert ref.subst_chan(body, {"d": "x", "c": "y"}) != kept
    # where it would capture, it is renamed apart
    m = parse("proc r : d:1 |- c:1 = x : 1 <- {close x}; wait x; wait d; close c\n"
              "proc s : x:1 |- e:1 = y : 1 <- r(x); wait y; close e\n")
    assert m.procs["s"].body.left == ast.Cut(
        "x%0", ast.One(), ast.Close("x%0"), ast.Wait("x%0", ast.Wait("x", ast.Close("y"))))


def test_the_parser_instantiates_before_anything_else_is_imported():
    code = ("from sill.lang import parse\n"
            "m = parse('proc r : d:1 |- c:1 = wait d; close c\\n'\n"
            "          'proc s : x:1 |- e:1 = y : 1 <- r(x); wait y; close e\\n')\n"
            "print(m.procs['s'].body.left)\n")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr[-2000:]
    assert out.stdout == "wait x; close y\n"


def test_a_binder_renamed_apart_prints_as_a_source_identifier():
    # the capturing case above: x%0 would print, and '%' does not parse
    m = parse("proc p : a:1 |- c:1 = x : 1 <- {close x}; wait x; wait a; close c\n"
              "proc q : x:1 |- d:1 = y : 1 <- p(x); wait y; close d\n")
    text = module_to_str(m)
    assert "%" not in text
    again = parse(text)
    assert again.procs["p"] == m.procs["p"]
    assert again.procs["q"].body == ast.Cut("y", ast.One(), ast.Cut(
        "x0", ast.One(), ast.Close("x0"), ast.Wait("x0", ast.Wait("x", ast.Close("y")))),
        ast.Wait("y", ast.Close("d")))
    assert _unbound(again.procs["q"].body) == _unbound(m.procs["q"].body)
    assert module_to_str(again) == text


def test_printed_instantiations_parse_to_themselves_up_to_bound_names():
    renamed = 0
    for seed in range(150):
        rng = random.Random(seed)
        p, offered, used = _well_typed(rng)
        names = sorted(set(CHANS) | _binders(p))
        m = _declared(p, offered, used, {n: rng.choice(names) for n in [offered[0], *used]})
        text = module_to_str(m)
        assert "%" not in text, seed
        again = parse(text)
        for name, d in m.procs.items():
            assert _unbound(again.procs[name].body) == _unbound(d.body), seed
        if any("%" in b for b in _binders(m.procs["q"].body)):
            renamed += 1
        else:
            assert again == m, seed
    assert renamed > 10
