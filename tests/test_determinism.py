"""Runs do not depend on where objects live.

Interned terms and facts hash by address, so two identical runs can
iterate a set of facts in different orders, even in one process.  Every
order that reaches an output comes from a sort by key.  This test runs the
dynamics corpus under every seed, alone and beside two processes that step
to themselves, a fair ring run cut into a lasso, a hand-built ring
lasso, and the equivalence verdicts of the one-per-connective subjects
of ``test_equiv``, in two interpreters with different string hash seeds.
The verdicts share one system, whose observation memo is keyed by states
of interned facts, which hash by address.  Each interpreter records them
twice, with garbage allocated in between so that the second record's
objects sit at other addresses.  All four records must agree: step by
step (rule, theta, fresh names, consumed and produced facts), in the nine
fairness verdicts with their witnesses, and in every equivalence verdict
with its counterexample.

Run as a script, the module prints its two records as JSON.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"


def _steps(tr) -> list:
    from sill.msr.multiset import fact_key, fact_to_str
    from sill.msr.terms import term_to_str

    return [[s.inst.rule.name,
             [[v, term_to_str(t)] for v, t in s.inst.theta],
             [list(x) for x in s.xi],
             [fact_to_str(f) for f in s.inst.rule.eph_ant],
             sorted((fact_to_str(f) for f in s.produced), key=str)]
            for s in tr.steps]


def _report(lt) -> dict:
    from sill.fairness import fairness_report

    return {f"{v}/{s}": r.to_json() for (v, s), r in fairness_report(lt).items()}


def _ring(nodes: list, tokens: int, extra: str = ""):
    from sill.msr import parse_system

    return parse_system(
        "rule pass: forall x, y. tok(x), next(x, y) -o tok(y), next(x, y)\n" + extra
        + "init: " + ", ".join(f"next({a}, {b})" for a, b in zip(nodes, nodes[1:] + nodes[:1]))
        + ", " + ", ".join(f"tok({n})" for n in nodes[::len(nodes) // tokens]) + "\n")


def record() -> dict:
    from test_dynamics import corpus, run_corpus_entry
    from test_equiv import FUEL, MODES, SUBJECTS
    from test_scheduler import SEEDS, beside_spins

    from sill.dynamics import SillSystem
    from sill.equiv import config_subject, equiv_check, make_system
    from sill.lang import check_module, parse
    from sill.fairness import LassoTrace, fair_execute
    from sill.msr import Const, Inst, Trace

    out: dict = {"corpus": [], "lassos": [], "verdicts": []}
    for name, facts, iface in corpus():
        for seed in SEEDS:
            out["corpus"].append([name, seed, _steps(run_corpus_entry(facts, iface, seed))])
    spins = beside_spins("spin", "spin2")
    for seed in SEEDS:
        run = fair_execute(SillSystem(), spins, budget=400, seed=seed)
        out["corpus"].append(["beside two spins", seed, _steps(run)])
    nodes = [f"n{(5 * i) % 12}" for i in range(12)]
    ring = _ring(nodes, 4)
    for seed in (1, 3):
        run = fair_execute(ring, ring.initial, budget=12, seed=seed)
        out["lassos"].append([_steps(run), _report(LassoTrace(run, 0))])
    hand = _ring(nodes, 1, "rule stay: forall x. tok(x) -o tok(x)\n")
    tr = Trace(hand, hand.initial)
    for a, b in zip(nodes, nodes[1:] + nodes[:1]):
        tr.extend(Inst.make(hand.rule("pass"), {"x": Const(a), "y": Const(b)}))
    out["lassos"].append([_steps(tr), _report(LassoTrace(tr, 0))])
    mod = parse(SUBJECTS)
    check_module(mod)
    subjects = {name: config_subject(decl) for name, decl in mod.configs.items()}
    shared = SillSystem()
    for name, subject in subjects.items():
        for other in sorted({name, f"{name}_changed"} & subjects.keys()):
            for mode in MODES:
                for seed in (None, 1):
                    v = equiv_check(subject, subjects[other], make_system(mode),
                                    fuel=FUEL, depth=6, seed=seed, system=shared)
                    out["verdicts"].append([name, other, mode, seed, v])
    return out


def _garbage() -> list:
    """Allocate and drop objects of the sizes the runs use, keeping some,
    so that later objects land elsewhere."""
    from sill.msr import Const, Fact
    from sill.msr.terms import App

    kept = []
    for i in range(20000):
        junk = (App("junk", (Const(f"g{i}"),)), {i: [i] * (i % 7)}, f"s{i}" * (i % 5))
        if i % 3 == 0:
            kept.append(junk)
        if i % 11 == 0:
            kept.append(Fact("junk", (junk[0],)))
    return kept


def _records_under(hash_seed: str) -> list:
    env = {**os.environ, "PYTHONHASHSEED": hash_seed,
           "PYTHONPATH": os.pathsep.join([str(SRC), str(TESTS)])}
    out = subprocess.run([sys.executable, str(Path(__file__).resolve())], env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr[-2000:]
    return json.loads(out.stdout)


def test_runs_and_verdicts_do_not_depend_on_addresses_or_hash_seeds():
    first, second = _records_under("0"), _records_under("1")
    assert first[0]["corpus"] and first[0]["lassos"]
    verdicts = [v for *_, v in first[0]["verdicts"]]
    assert any(v["equivalent"] for v in verdicts)
    assert any("counterexample" in v for v in verdicts)
    # the hand-built lasso is unfair in some senses, so witnesses are compared
    assert any("witness" in v for v in first[0]["lassos"][-1][1].values())
    assert first[0] == first[1]
    assert second[0] == second[1]
    assert first[0] == second[0]


if __name__ == "__main__":
    before = record()
    kept = _garbage()
    after = record()
    json.dump([before, after], sys.stdout)
