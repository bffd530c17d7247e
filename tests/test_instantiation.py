"""Parse-time instantiation of a named process, ``x : A <- p(a, b)``.

The parser renames the channels of p's declared body the way a running
process is renamed: in the environment of its code, decoded by
``sill.dynamics.dec_proc``, which renames a binder apart exactly where it
would capture.  Declared ``_well_typed`` bodies, instantiated under random
renamings onto their own binders' names, must parse to what the reference
``subst_chan`` renames, up to the names of binders renamed apart
(``unapart``), and to exactly that wherever the reference renames no
binder.  A binder that no renamed occurrence reaches keeps its name, where
the reference renamed it apart.  The parser imports the runtime only when
it instantiates, so a fresh interpreter can import the parser first.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import ast_oracle as ref
from test_check_oracle import CHANS, _well_typed
from test_dynamics_oracle import unapart

from sill.lang import ast
from sill.lang.parser import parse

SRC = Path(__file__).resolve().parent.parent / "src"


def _binders(p) -> set:
    """The channel binders of p, quoted processes not entered."""
    out, todo = set(), [p]
    while todo:
        q = todo.pop()
        out |= {getattr(q, f) for f, r in ast.PROC_ROLES[type(q)].items() if r is ast.CHAN_BINDER}
        todo += ast.subprocs(q)
    return out


def _instantiated(p, offered, used, rho):
    """p declared with its typing and instantiated under rho, parsed."""
    (c, a), formals = offered, sorted(used)
    judgment = ", ".join(f"{n}:{ast.type_to_str(used[n])}" for n in formals)
    m = parse(f"proc p : {judgment} |- {c}:{ast.type_to_str(a)} = {ast.proc_to_str(p)}\n"
              f"proc q : |- z:1 = {rho[c]} : {ast.type_to_str(a)} <- "
              f"p({', '.join(rho[n] for n in formals)}); close z\n")
    assert m.procs["p"].body == p
    return m.procs["q"].body.left


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
