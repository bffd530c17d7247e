"""The four benchmark workloads.

Each workload has a front end (source text through sill's parser and type
checker, or the MRS parser, then the initial state), a repetition (the
work a user waits for: a scheduler run and the verdicts read off it, each
operation timed by a Timer) and a check of that repetition's outputs against answers derived here,
without asking the code under test.  ``m`` is the namespace of freshly
imported sill modules; every call goes through a module attribute so that
traced repetitions see the rebound names.
"""

from __future__ import annotations

import gc
import random
import re
from array import array
from math import nan as NAN
from time import perf_counter
from typing import Callable

from tracer import Patches

VARIETIES = ("rule", "fact", "inst")
STRENGTHS = ("weak", "strong", "uber")


# The calibration's time on one quiet core of the 2-vCPU virtual machine
# (Python 3.11.7) where the benchmark was tuned.
REFERENCE_CAL_S = 0.008


def calibration_work() -> int:
    """Fixed pure-Python work of the kinds sill does: tuple keys, dict
    updates, sorting and frozenset hashing."""
    d: dict = {}
    for i in range(15000):
        k = (i % 97, str(i % 13))
        d[k] = d.get(k, 0) + 1
    xs = sorted((v, k) for k, v in d.items())
    fs = [frozenset((i, i + 1)) for i in range(4000)]
    return len(set(fs)) + len(xs)


def calibration_s() -> float:
    """Seconds the calibration takes now.  The collector is off, so that
    sill's live objects do not make the calibration slower."""
    gc.disable()
    try:
        t0 = perf_counter()
        calibration_work()
        return perf_counter() - t0
    finally:
        gc.enable()


class Timer:
    """Times operations in reference seconds.

    The host this benchmark runs on may slow every process down by half or
    more, in phases from under a second to minutes.  So time is cut into
    segments of about SEGMENT_S, each bracketed by a fixed calibration,
    and a segment's wall time is scaled by REFERENCE_CAL_S over the mean of
    the two calibration times around it.  An operation is one segment, or
    several when the scheduler's observer callback, which stamps each
    step, finds the segment full; the calibration then runs inside the
    callback and is not counted.  Step intervals are scaled like the
    segment they fall in.
    """

    SEGMENT_S = 0.2
    # The first steps after a calibration run slower than their neighbours
    # (about 1.5x, then 1.2x on omega), in caches the calibration has
    # stirred; their intervals are kept as NaN, so that the intervals of
    # every repetition stay aligned step by step.
    SETTLE_STEPS = 2

    def __init__(self):
        # a traced repetition swaps in a span around it, so that the
        # calibrations run by the observer callback are not counted as the
        # scheduler's own time
        self.calibrate: Callable[[], float] = calibration_s
        self.ops: list[tuple[str, float]] = []
        self.intervals = array("d")
        self.calibrations: list[float] = []
        self._cal: float | None = None
        self._took = 0.0
        self._raw: list[float] = []
        self._last: float | None = None
        self._seg_start = 0.0
        self._settle = 0

    def idle(self) -> None:
        """Untimed work ran since the last operation: calibrate afresh."""
        self._cal = None

    def new_run(self) -> None:
        self._last = None

    def stamp(self, _trace) -> None:
        now = perf_counter()
        if self._last is not None:
            if self._settle:
                self._settle -= 1
                self._raw.append(NAN)
            else:
                self._raw.append(now - self._last)
        if now - self._seg_start >= self.SEGMENT_S:
            self._close_segment(now)
            now = self._seg_start
            self._settle = self.SETTLE_STEPS
        self._last = now

    def _close_segment(self, end: float) -> None:
        cal = self.calibrate()
        scale = 2 * REFERENCE_CAL_S / (self._cal + cal)
        self.calibrations.append(cal)
        self._cal = cal
        self._took += (end - self._seg_start) * scale
        self.intervals.extend(x * scale for x in self._raw)
        self._raw = []
        self._seg_start = perf_counter()

    def __call__(self, kind: str, fn: Callable, *args, **kwargs):
        if self._cal is None:
            self._cal = self.calibrate()
        self._took, self._raw, self._last = 0.0, [], None
        self._settle = self.SETTLE_STEPS
        self._seg_start = perf_counter()
        out = fn(*args, **kwargs)
        self._close_segment(perf_counter())
        self.ops.append((kind, self._took))
        return out

    def take(self) -> tuple[list[tuple[str, float]], array]:
        """The operations and step intervals timed since the last take."""
        out = self.ops, self.intervals
        self.ops, self.intervals = [], array("d")
        return out


def conat(ast):
    return ast.Rec("a", ast.Plus((("z", ast.One()), ("s", ast.TVar("a")))))


# -- omega: one process that never stops sending ------------------------------------

OMEGA_SRC = """
type conat = rec a. +{z: 1, s: a}
proc omega : |- o : conat =
  o <- [fix w. proc(c : conat) { send c unfold; c.s; c <- [w] }]
"""


class Omega:
    """The unbounded numeral of ``test_omega_cycles_three_rules``, run
    without check.  Nobody receives on ``o``, so each step leaves one more
    message in the state while the scheduler queue stays at depth 1."""

    sizes = {"steps": 2000, "observe_depth": 64}

    def front_end(self, m, seed, sizes):
        mod = m.lang.parse(OMEGA_SRC)
        m.lang.check_module(mod)
        decl = mod.procs["omega"]
        return m.dynamics.initial_config(decl.body, {}, decl.offered)

    def rep(self, m, inputs, sizes, timer):
        state, iface = inputs
        tr = timer("run", m.dynamics.run, m.dynamics.SillSystem(), state, iface,
                   fuel=sizes["steps"], observer=timer.stamp)
        tree, _ = timer("verdict", m.obs.observe, tr, "o", sizes["observe_depth"])
        return tr, tree

    def check(self, m, inputs, sizes, outputs, ledger):
        tr, tree = outputs
        ast, obs = m.lang.ast, m.obs
        cycle = ["unquote", "rec_pos_r", "plus_r"] * (sizes["steps"] // 3 + 1)
        types = tr.meta["channel_types"]
        ledger.check("omega.run",
                     [s.inst.rule.name for s in tr.steps] == cycle[:sizes["steps"]]
                     and tr.meta["maximal"] is False
                     and types["o'0"] == ast.Plus((("z", ast.One()), ("s", conat(ast))))
                     and types["o'1"] == conat(ast))
        # unfold, s, unfold, s, ... cut off at the observation depth
        want = obs.BOT
        for level in reversed(range(sizes["observe_depth"])):
            want = obs.Unfold(want) if level % 2 == 0 else obs.Label("s", want)
        ledger.check("omega.observe", tree == want)


# -- wide: many small sessions at once --------------------------------------------

# The nine corpus() configurations of tests/test_dynamics.py, as source.
# Each entry: internal channels, provided channel, facts.  {a}, {b}, {c}
# and {e} are the free channels, renamed apart per copy.
WIDE_CORPUS = {
    "cut_wait": (
        "", "{b}",
        "proc {b} {{ a : 1 <- {{ close a }}; wait a; close {b} }}"),
    "tensor_round": (
        "{c} : 1 * 1", "{e}",
        "proc {c} {{ a : 1 <- {{ close a }}; send {c} <a>; close {c} }}, "
        "proc {e} {{ x <- recv {c}; wait x; wait {c}; close {e} }}"),
    "choice_round": (
        "{c} : &{{l: up 1, r: up 1}}", "{e}",
        "proc {c} {{ case {c} {{ l => shift <- recv {c}; close {c} "
        "| r => shift <- recv {c}; close {c} }} }}, "
        "proc {e} {{ {c}.l; send {c} shift; wait {c}; close {e} }}"),
    "shift_round": (
        "{c} : down up 1", "{e}",
        "proc {c} {{ send {c} shift; shift <- recv {c}; close {c} }}, "
        "proc {e} {{ shift <- recv {c}; send {c} shift; wait {c}; close {e} }}"),
    "rec_neg_round": (
        "{c} : rec a. &{{stop: up 1}}", "{e}",
        "proc {c} {{ unfold <- recv {c}; case {c} {{ stop => shift <- recv {c}; close {c} }} }}, "
        "proc {e} {{ send {c} unfold; {c}.stop; send {c} shift; wait {c}; close {e} }}"),
    "and_round": (
        "{c} : [{{z : 1}}] ^ 1", "{e}",
        "proc {c} {{ send {c} [proc(z : 1) {{ close z }}]; close {c} }}, "
        "proc {e} {{ [x] <- recv {c}; wait {c}; close {e} }}"),
    "imp_round": (
        "{c} : [{{z : 1}}] => up 1", "{e}",
        "proc {c} {{ [x] <- recv {c}; shift <- recv {c}; close {c} }}, "
        "proc {e} {{ send {c} [proc(z : 1) {{ close z }}]; send {c} shift; wait {c}; close {e} }}"),
    "fwd_pos": (
        "{a} : 1, {c} : 1", "{e}",
        "proc {a} {{ close {a} }}, proc {c} {{ fwd+ {a} -> {c} }}, "
        "proc {e} {{ wait {c}; close {e} }}"),
    "fwd_neg": (
        "{a} : up 1, {c} : up 1", "{e}",
        "proc {a} {{ shift <- recv {a}; close {a} }}, proc {c} {{ fwd- {a} -> {c} }}, "
        "proc {e} {{ send {c} shift; wait {c}; close {e} }}"),
}


def wide_source(copies: int, seed: int) -> tuple[str, list[str]]:
    """One configuration holding every corpus entry copies times, in a
    seeded order; returns the source and the provided channels."""
    parts = [(k, name) for k in range(copies) for name in WIDE_CORPUS]
    random.Random(seed).shuffle(parts)
    provided, internal, facts = [], [], []
    for k, name in parts:
        inner, prov, body = WIDE_CORPUS[name]
        chans = {ch: f"{ch}{k}_{name}" for ch in "abce"}
        provided.append(prov.format(**chans))
        if inner:
            internal.append(inner.format(**chans))
        facts.append(body.format(**chans))
    src = ("config wide : |- " + ", ".join(f"{p} : 1" for p in provided)
           + " internal " + ", ".join(internal) + " =\n  " + ",\n  ".join(facts))
    return src, provided


class Wide:
    """The corpus replicated with channels renamed apart and run as one
    checked configuration: many instantiations are applicable at once and
    every rule kind fires."""

    sizes = {"copies": 4, "fuel": 10_000, "observe_depth": 2}

    def front_end(self, m, seed, sizes):
        src, provided = wide_source(sizes["copies"], seed)
        mod = m.lang.parse(src)
        m.lang.check_module(mod)
        decl = mod.configs["wide"]
        return m.dynamics.config_state(decl.facts), decl.interface, provided, seed

    def rep(self, m, inputs, sizes, timer):
        state, iface, provided, seed = inputs
        tr = timer("run", m.dynamics.run, m.dynamics.SillSystem(), state, iface,
                   fuel=sizes["fuel"], seed=seed, check=True, observer=timer.stamp)
        trees = [timer("verdict", m.obs.observe, tr, chan, sizes["observe_depth"])[0]
                 for chan in provided]
        return tr, trees

    def check(self, m, inputs, sizes, outputs, ledger):
        tr, trees = outputs
        provided = inputs[2]
        ast = m.lang.ast
        final = sorted(m.dynamics.state_facts(tr.final()), key=lambda f: f.chan)
        want = [ast.MsgF(ch, ast.Close(ch)) for ch in sorted(provided)]
        ledger.check("wide.run", tr.meta["maximal"] is True and final == want)
        for tree in trees:
            ledger.check("wide.observe", tree == m.obs.CloseMsg())


# -- ring: plain multiset rewriting and the lasso checker ----------------------------

RING_RULE = "rule pass: forall x, y. tok(x), next(x, y) -o tok(y), next(x, y)\n"
STAY_RULE = "rule stay: forall x. tok(x) -o tok(x)\n"


def ring_nodes(n: int, seed: int) -> list[str]:
    """Node names in ring order; the seed permutes which name sits where."""
    names = [f"n{i}" for i in range(n)]
    random.Random(seed).shuffle(names)
    return names


def ring_source(nodes: list[str], tokens: int, offset: int, rules: str) -> str:
    n = len(nodes)
    facts = [f"next({nodes[i]}, {nodes[(i + 1) % n]})" for i in range(n)]
    facts += [f"tok({nodes[(offset + j * n // tokens) % n]})" for j in range(tokens)]
    return rules + "init: " + ", ".join(facts) + "\n"


# The hand-built lasso: one token passes around the ring while `stay`
# remains applicable and never fires.  `stay` is applicable at every loop
# state, so rule fairness fails even weakly.  Each tok/next fact is enabled
# only while the token sits on it and is then consumed, so fact fairness
# holds weakly and strongly.  Every instantiation is applicable at one loop
# state only: weak instantiation fairness holds; strong fails, since
# stay[x] recurs and never fires.  The über form asks that everything ever
# applicable be applied, which stay never is.
HAND_LASSO_FAIR = {
    ("rule", "weak"): False, ("rule", "strong"): False, ("rule", "uber"): False,
    ("fact", "weak"): True, ("fact", "strong"): True, ("fact", "uber"): False,
    ("inst", "weak"): True, ("inst", "strong"): False, ("inst", "uber"): False,
}


class Ring:
    """Tokens passed round a ring by one MRS rule, scheduled fairly, then
    the nine fairness verdicts on a lasso of the same system.

    Tokens sit equally spaced and the FIFO scheduler moves them round-robin,
    so after any multiple of nodes steps the state is the initial one
    again: the lasso closes, and the long run ends where it began.
    """

    sizes = {"nodes": 100, "tokens": 4, "run_steps": 2000, "lasso_steps": 100,
             "hand_nodes": 20}

    def front_end(self, m, seed, sizes):
        n, tokens = sizes["nodes"], sizes["tokens"]
        if n % tokens or sizes["run_steps"] % n or sizes["lasso_steps"] % n:
            raise ValueError("ring sizes: steps must be multiples of nodes, "
                             "and nodes a multiple of tokens")
        rng = random.Random(seed)
        mrs = m.msr.parse_system(ring_source(ring_nodes(n, seed), tokens,
                                             rng.randrange(n), RING_RULE))
        hand_nodes = ring_nodes(sizes["hand_nodes"], seed + 1)
        hand = m.msr.parse_system(ring_source(hand_nodes, 1, 0, RING_RULE + STAY_RULE))
        return mrs, hand, hand_nodes, seed

    def rep(self, m, inputs, sizes, timer):
        mrs, _, _, seed = inputs
        fair_execute = m.fairness.fair_execute
        tr = timer("run", fair_execute, mrs, mrs.initial, budget=sizes["run_steps"],
                   seed=seed, observer=timer.stamp)
        lasso = timer("lasso", fair_execute, mrs, mrs.initial,
                      budget=sizes["lasso_steps"], seed=seed)
        lt = m.fairness.LassoTrace(lasso, 0)
        verdicts = {(variety, strength): timer("verdict", m.fairness.check_fairness,
                                               lt, variety, strength).fair
                    for variety in VARIETIES for strength in STRENGTHS}
        return tr, lasso, verdicts

    def check(self, m, inputs, sizes, outputs, ledger):
        tr, lasso, verdicts = outputs
        mrs, hand, hand_nodes, _ = inputs
        ledger.check("ring.run", len(tr.steps) == sizes["run_steps"]
                     and tr.final() == mrs.initial)
        ledger.check("ring.lasso", len(lasso.steps) == sizes["lasso_steps"]
                     and lasso.final() == mrs.initial)
        # round-robin moves every token: the run is fair in every sense
        for fair in verdicts.values():
            ledger.check("ring.verdict", fair is True)
        rule = hand.rule("pass")
        tr = m.msr.Trace(hand, hand.initial)
        for i, node in enumerate(hand_nodes):
            nxt = hand_nodes[(i + 1) % len(hand_nodes)]
            tr.extend(m.msr.Inst.make(rule, {"x": m.msr.Const(node),
                                             "y": m.msr.Const(nxt)}))
        lt = m.fairness.LassoTrace(tr, 0)
        for (variety, strength), fair in HAND_LASSO_FAIR.items():
            got = m.fairness.check_fairness(lt, variety, strength).fair
            ledger.check("ring.hand_verdict", got is fair)


# -- equiv: bounded observational equivalence -----------------------------------------


def numeral(k: int, c: str = "c") -> str:
    return "".join(f"send {c} unfold; {c}.s; " for _ in range(k)) + \
        f"send {c} unfold; {c}.z; close {c}"


def equiv_source(depth: int) -> str:
    """Numeral providers: ``big`` at the observation depth twice, once
    written out and once as a smaller numeral under a chain of successor
    cuts and forwarders; ``small`` differs from ``big`` within the depth."""
    half = depth // 2
    chain = ["n0 : conat <- half();"]
    for i in range(depth - half):
        chain.append(f"n{i + 1} : conat <- succ(n{i});")
    chain.append(f"fwd+ n{depth - half} -> c")
    return f"""
type conat = rec a. +{{z: 1, s: a}}
proc succ : n : conat |- c : conat = send c unfold; c.s; fwd+ n -> c
proc half : |- c : conat = {numeral(half)}
proc big : |- c : conat = {numeral(depth)}
proc big_cut : |- c : conat = {" ".join(chain)}
proc small : |- c : conat = {numeral(half - 1)}
config big : |- c : conat = proc c big()
config big_cut : |- c : conat = proc c big_cut()
config small : |- c : conat = proc c small()
"""


def observed_words(k: int, depth: int) -> list[str]:
    """Tokens of the printed observation of numeral k cut at depth."""
    full = ["unfold", "s"] * k + ["unfold", "z", "close"]
    return full[:depth] + (["bot"] if len(full) > depth else [])


class Equiv:
    """External-mode equivalence of numeral providers: two equal pairs (one
    syntactically identical, one through cuts and forwarders) and one
    unequal pair.  Each equal verdict plugs and runs about twenty small
    configurations, so per-run and per-step constants dominate."""

    sizes = {"depth": 8, "fuel": 500}
    PAIRS = (("big", "big", True), ("big", "big_cut", True), ("big", "small", False))

    def front_end(self, m, seed, sizes):
        if sizes["depth"] < 2:
            raise ValueError("equiv depth must be at least 2")
        mod = m.lang.parse(equiv_source(sizes["depth"]))
        m.lang.check_module(mod)
        subjects = {n: m.equiv.config_subject(d) for n, d in mod.configs.items()}
        return subjects, seed

    def rep(self, m, inputs, sizes, timer):
        subjects, seed = inputs
        system = m.equiv.make_system("external")

        def with_clock(run):
            def call(*args, **kwargs):
                timer.new_run()
                kwargs["observer"] = timer.stamp
                return run(*args, **kwargs)
            return call

        patches = Patches()
        patches.wrap("sill.dynamics:run", with_clock)
        try:
            return [timer("verdict", m.equiv.equiv_check, subjects[left],
                          subjects[right], system, fuel=sizes["fuel"],
                          depth=sizes["depth"], seed=seed)
                    for left, right, _ in self.PAIRS]
        finally:
            patches.undo()

    def check(self, m, inputs, sizes, outputs, ledger):
        depth = sizes["depth"]
        for (_, _, equal), v in zip(self.PAIRS, outputs):
            if equal:
                ledger.check("equiv.equal", v["equivalent"] is True
                             and "counterexample" not in v)
                continue
            cex = v.get("counterexample", {})
            ledger.check(
                "equiv.unequal", v["equivalent"] is False and cex.get("channel") == "c"
                and re.findall(r"\w+", cex.get("left", "")) == observed_words(depth, depth)
                and re.findall(r"\w+", cex.get("right", "")) == observed_words(depth // 2 - 1, depth))


# -- the deep-nesting probe -------------------------------------------------------

PROBE_DEPTH = 600


def deep_probe(m, ledger) -> None:
    """A 600-deep chain of label sends, accepted by the type checker, run
    for one step.  The run must take that step rather than crash."""
    ast = m.lang.ast
    p, t = ast.Close("c"), ast.One()
    for _ in range(PROBE_DEPTH):
        p = ast.SendLabel("c", "l", p)
        t = ast.Plus((("l", t),))
    try:
        m.lang.check_proc(p, ("c", t), {})
        state, iface = m.dynamics.initial_config(p, {}, ("c", t))
        tr = m.dynamics.run(m.dynamics.SillSystem(), state, iface, fuel=1)
    except Exception as ex:  # any crash is the failure this probe records
        ledger.fail("deep_probe", f"{type(ex).__name__}: {str(ex)[:120]}")
        return
    ledger.check("deep_probe", [s.inst.rule.name for s in tr.steps] == ["plus_r"])


WORKLOADS = {"omega": Omega(), "wide": Wide(), "ring": Ring(), "equiv": Equiv()}
