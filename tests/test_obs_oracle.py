"""Differential tests: communication trees, message shapes and generated
experiments against the reference in ``obs_oracle``.

Every case is one nested spec, ``(kind, [payload], *children)``, built both
as a ``sill.obs`` tree and as a reference tree through the same six
constructor names.  The specs come from seeded random closed session types
of every connective on both polarities: trees that check_comm accepts at
the type, perturbations of them, and shapes drawn without a type.
"""

import json
import random

import obs_oracle as ref
from test_dynamics import UNIT_PT, UNIT_Q, corpus
from test_equiv import SUBJECTS

from sill import equiv, obs
from sill.dynamics import SillSystem, config_state, run
from sill.lang import ast, parse
from sill.lang.ast import (
    NEGATIVE,
    POSITIVE,
    AndVal,
    Close,
    Down,
    FVar,
    ImpVal,
    Lam,
    Lolli,
    One,
    Plus,
    Quote,
    Rec,
    Tensor,
    TVar,
    Up,
    With,
    proc_to_str,
)
from sill.lang.errors import SillError

KINDS = ("close", "label", "chan", "shift", "unfold", "val")
LABELS = ("l", "r", "s")
# two values of type UNIT_PT that differ syntactically, and one ill-typed
GOOD_VALS = (UNIT_Q, Quote(("y", One()), Close("y")))
BAD_VAL = Lam("x", UNIT_PT, FVar("x"))
VALS = GOOD_VALS + (BAD_VAL,)


# -- specs and the two forms --------------------------------------------------------


def build(spec, mod):
    """The tree of spec, from the constructors of mod (obs or obs_oracle)."""
    kind = spec[0]
    if kind == "bot":
        return mod.BOT
    if kind == "close":
        return mod.CloseMsg()
    if kind == "label":
        return mod.Label(spec[1], build(spec[2], mod))
    if kind == "chan":
        return mod.Pair(build(spec[1], mod), build(spec[2], mod))
    if kind == "shift":
        return mod.Shift(build(spec[1], mod))
    if kind == "unfold":
        return mod.Unfold(build(spec[1], mod))
    assert kind == "val"
    return mod.Val(spec[1], build(spec[2], mod))


def spec_of(t) -> tuple:
    """The spec of a sill.obs tree."""
    payload = (t.payload,) if t.kind in ("label", "val") else ()
    return (t.kind, *payload, *map(spec_of, t.children))


def spec_of_ref(t) -> tuple:
    """The spec of a reference tree."""
    if isinstance(t, ref.Bot):
        return ("bot",)
    if isinstance(t, ref.CloseMsg):
        return ("close",)
    if isinstance(t, ref.Label):
        return ("label", t.label, spec_of_ref(t.rest))
    if isinstance(t, ref.Pair):
        return ("chan", spec_of_ref(t.payload), spec_of_ref(t.rest))
    if isinstance(t, (ref.Shift, ref.Unfold)):
        kind = "shift" if isinstance(t, ref.Shift) else "unfold"
        return (kind, spec_of_ref(t.rest))
    return ("val", t.value, spec_of_ref(t.rest))


# -- random types and trees ---------------------------------------------------------


def rand_type(rng, pol, depth, tvars=()):
    """A random session type of polarity pol; closed when tvars is empty."""
    leaves = [name for name, p in tvars if p == pol]
    if depth <= 0:
        if leaves and rng.random() < 0.5:
            return TVar(rng.choice(leaves))
        return One() if pol == POSITIVE else Up(One())

    def sub(p):
        return rand_type(rng, p, depth - 1, tvars)

    def either():
        return sub(rng.choice((POSITIVE, NEGATIVE)))

    def labels():
        return rng.sample(LABELS, rng.randint(1, 3))

    if pol == POSITIVE:
        k = rng.choice(("one", "plus", "tensor", "down", "and", "rec", "tvar"))
    else:
        k = rng.choice(("with", "lolli", "up", "imp", "rec", "tvar"))
    if k == "one":
        return One()
    if k == "plus":
        return Plus(tuple((l, sub(POSITIVE)) for l in labels()))
    if k == "with":
        return With(tuple((l, sub(NEGATIVE)) for l in labels()))
    if k == "tensor":
        return Tensor(either(), sub(POSITIVE))
    if k == "lolli":
        return Lolli(either(), sub(NEGATIVE))
    if k == "down":
        return Down(sub(NEGATIVE))
    if k == "up":
        return Up(sub(POSITIVE))
    if k == "and":
        return AndVal(UNIT_PT, sub(POSITIVE))
    if k == "imp":
        return ImpVal(UNIT_PT, sub(NEGATIVE))
    if k == "rec":
        var = f"t{len(tvars)}"
        inner = tvars + ((var, pol),)
        cls = Plus if pol == POSITIVE else With
        return Rec(var, cls(tuple((l, rand_type(rng, pol, depth - 1, inner))
                                  for l in labels())))
    if leaves:
        return TVar(rng.choice(leaves))
    return sub(pol)


def rand_tree(rng, a, depth):
    """A random spec that check_comm accepts at a."""
    if depth <= 0 or rng.random() < 0.15:
        return ("bot",)
    if isinstance(a, One):
        return ("close",)
    if isinstance(a, (Plus, With)):
        l, t = rng.choice(a.branches)
        return ("label", l, rand_tree(rng, t, depth - 1))
    if isinstance(a, (Tensor, Lolli)):
        return ("chan", rand_tree(rng, a.left, depth - 1),
                rand_tree(rng, a.right, depth - 1))
    if isinstance(a, (Down, Up)):
        return ("shift", rand_tree(rng, a.body, depth - 1))
    if isinstance(a, Rec):
        return ("unfold", rand_tree(rng, ast.unfold_rec(a), depth - 1))
    assert isinstance(a, (AndVal, ImpVal))
    return ("val", rng.choice(GOOD_VALS), rand_tree(rng, a.body, depth - 1))


def rand_spec(rng, depth):
    """A random spec drawn without a type."""
    if depth <= 0 or rng.random() < 0.2:
        return rng.choice((("bot",), ("close",)))
    k = rng.choice(KINDS)
    if k == "close":
        return ("close",)
    if k == "label":
        return ("label", rng.choice(LABELS), rand_spec(rng, depth - 1))
    if k == "chan":
        return ("chan", rand_spec(rng, depth - 1), rand_spec(rng, depth - 1))
    if k == "val":
        return ("val", rng.choice(VALS), rand_spec(rng, depth - 1))
    return (k, rand_spec(rng, depth - 1))


def perturb(rng, spec):
    """spec with one node changed: its label, value, kind or subtree."""
    kind = spec[0]
    children = [i for i, part in enumerate(spec) if isinstance(part, tuple)]
    if children and rng.random() < 0.6:
        i = rng.choice(children)
        return spec[:i] + (perturb(rng, spec[i]),) + spec[i + 1:]
    if kind == "label" and rng.random() < 0.5:
        return ("label", rng.choice([l for l in LABELS if l != spec[1]]), spec[2])
    if kind == "val" and rng.random() < 0.5:
        return ("val", rng.choice([v for v in VALS if v != spec[1]]), spec[2])
    if kind == "chan" and rng.random() < 0.5:
        return ("chan", spec[2], spec[1])
    return rand_spec(rng, 2)


def cases(seed, count):
    """(type, accepted spec, perturbed spec, untyped spec) quadruples."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        a = rand_type(rng, rng.choice((POSITIVE, NEGATIVE)), rng.randint(1, 5))
        v = rand_tree(rng, a, rng.randint(1, 6))
        out.append((a, v, perturb(rng, v), rand_spec(rng, 4)))
    return out


CASES = cases(20250, 400)


# -- trees -------------------------------------------------------------------------


def test_tree_forms_match_the_reference():
    specs = [s for _, v, w, u in CASES for s in (v, w, u)]
    for spec in specs:
        t, r = build(spec, obs), build(spec, ref)
        assert spec_of(t) == spec == spec_of_ref(r)
        assert obs.tree_to_str(t) == ref.tree_to_str(r), spec
        assert json.dumps(obs.tree_to_json(t)) == json.dumps(ref.tree_to_json(r))
        assert obs.tree_height(t) == ref.tree_height(r)
        for n in range(6):
            cut, rcut = obs.truncate(t, n), ref.truncate(r, n)
            assert spec_of(cut) == spec_of_ref(rcut), (spec, n)
            assert cut == build(spec_of(cut), obs)


def test_comm_sim_matches_the_reference():
    rng = random.Random(7)
    pairs = []
    for _, v, w, u in CASES:
        pairs += [(v, w), (v, u), (v, v)]
        for n in range(4):
            pairs.append((spec_of(obs.truncate(build(v, obs), n)), v))
        pairs.append((v, perturb(rng, v)))
    differ = {True: 0, False: 0}
    for s, t in pairs:
        for x, y in ((s, t), (t, s)):
            for vrel in (obs.syntactic, obs.universal):
                got = obs.comm_sim(build(x, obs), build(y, obs), vrel)
                assert got == ref.comm_sim(build(x, ref), build(y, ref), vrel), (x, y)
                differ[got] += 1
        assert (obs.comm_eq(build(s, obs), build(t, obs))
                == (ref.comm_sim(build(s, ref), build(t, ref), obs.syntactic)
                    and ref.comm_sim(build(t, ref), build(s, ref), obs.syntactic)))
    assert differ[True] > 100 and differ[False] > 100


def _accepts(check, tree, a) -> bool:
    try:
        check(tree, a)
    except SillError:
        return False
    return True


def test_check_comm_matches_the_reference():
    rng = random.Random(11)
    seen = {True: set(), False: set()}
    for a, v, w, u in CASES:
        others = [rand_type(rng, rng.choice((POSITIVE, NEGATIVE)), 3)
                  for _ in range(2)]
        for spec in (v, w, u):
            for b in [a] + others:
                got = _accepts(obs.check_comm, build(spec, obs), b)
                assert got == _accepts(ref.check_comm, build(spec, ref), b), \
                    (spec, ast.type_to_str(b))
                seen[got].add(spec[0])
        assert _accepts(obs.check_comm, build(v, obs), a)
    assert seen[True] >= set(KINDS) and seen[False] >= set(KINDS)


def test_generated_experiments_match_the_reference():
    kinds = set()
    for a, v, _, _ in CASES[:200]:
        t, r = build(v, obs), build(v, ref)
        kinds.add(v[0])
        for n in range(4):
            new_r = equiv.gen_experiments_R(n, "i", "r", t, a)
            new_l = equiv.gen_experiments_L(n, "i", "r", t, a)
            assert [proc_to_str(p) for p in new_r] == \
                [proc_to_str(p) for p in ref.gen_experiments("R", n, "i", "r", r, a)]
            assert [proc_to_str(p) for p in new_l] == \
                [proc_to_str(p) for p in ref.gen_experiments("L", n, "i", "r", r, a)]
    assert kinds >= set(KINDS)


# -- observation and message shapes ---------------------------------------------------


def test_observe_matches_the_reference_on_the_corpus():
    # the per-connective subjects add pairs whose two components differ
    mod = parse(SUBJECTS)
    subjects = [(name, decl.facts, decl.interface)
                for name, decl in mod.configs.items()]
    for name, facts, iface in corpus() + subjects:
        for seed in (None, 0, 1, 2, 7):
            tr = run(SillSystem(), config_state(facts), iface, fuel=200, seed=seed)
            for chan in sorted(tr.meta["channel_types"]):
                for depth in range(7):
                    got, _ = obs.observe(tr, chan, depth)
                    want = ref.observe(tr, chan, depth)
                    assert spec_of(got) == spec_of_ref(want), (name, seed, chan)
                    assert obs.tree_to_str(got) == ref.tree_to_str(want)


def test_message_shapes_match_the_reference():
    payloads = {"close": None, "label": "l", "chan": "b", "shift": None,
                "unfold": None, "val": UNIT_Q}
    assert set(payloads) == set(ast.MSG_SEND) == set(ast.MSG_TYPES)
    procs = [Close("a"), ast.SendVal("a", FVar("x"), ast.FwdPos("d", "a"))]
    for kind, payload in payloads.items():
        for pol in (POSITIVE, NEGATIVE):
            cont = None if kind == "close" else "d"
            got = ast.make_message(kind, pol, "a", cont, payload)
            assert got == ref.make_message(kind, pol, "a", cont, payload)
            procs.append(got[1])
        if kind != "close":
            # both forwards, both directions, behind every send construct
            cls, fld = ast.MSG_SEND[kind]
            for fwd in (ast.FwdPos("d", "a"), ast.FwdNeg("d", "a"),
                        ast.FwdPos("a", "d"), ast.FwdNeg("a", "d")):
                procs.append(cls("a", payload, fwd) if fld else cls("a", fwd))
    for p in procs:
        for chan in ("a", "d", "b"):
            assert ast.message_parts(chan, p) == ref.message_parts(chan, p), \
                (chan, proc_to_str(p))
