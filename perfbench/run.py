"""Benchmark of sill: end-to-end metrics per workload, or per-layer ones.

Run from the repository root:

    python3 perfbench/run.py --workload omega --seed 1 --seconds 20 --trace 0

The workload runs in this one process, without threads.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics; the lines before it give each metric by name with its unit and
a JSON record of what was measured (interpreter, cpus, commit, seed,
sizes).  See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from array import array
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

from tracer import LAYER_METRICS, Tracer  # noqa: E402
from workloads import (REFERENCE_CAL_S, WORKLOADS, Timer,  # noqa: E402
                       calibration_s, deep_probe)

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "step_us_p50": "us",
    "step_us_tail": "us",
    "verdict_s_p50": "s",
    "peak_rss_mb": "MB",
    "error_rate": "ratio",
}
SETUPS_PER_REP = 2
TAIL_LADDER = (99.99, 99.9, 99.0, 90.0, 50.0)
MODULES = ("lang", "dynamics", "fairness", "obs", "equiv", "msr")


class Ledger:
    """Checked operations: attempted, failed (raised or answered wrong)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.notes: dict[str, dict] = {}

    def check(self, op: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.wrong += 1
            self._failed(op, "wrong answer")

    def fail(self, op: str, why: str) -> None:
        self.attempted += 1
        self._failed(op, why)

    def _failed(self, op: str, why: str) -> None:
        self.failed += 1
        note = self.notes.setdefault(op, {"why": why, "count": 0})
        note["count"] += 1


def import_sill():
    """A fresh import of sill from this checkout, as a namespace of modules."""
    for name in [n for n in sys.modules if n == "sill" or n.startswith("sill.")]:
        del sys.modules[name]
    mods = {name: importlib.import_module(f"sill.{name}") for name in MODULES}
    origin = Path(mods["lang"].__file__).resolve()
    if SRC not in origin.parents:
        raise SystemExit(f"sill was imported from {origin}, not from {SRC}")
    return argparse.Namespace(**mods)


def percentile(xs: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(xs)
    k = max(0, -(-len(s) * p // 100) - 1)
    return s[int(k)]


def tail_level(n: int) -> float:
    """The highest ladder percentile with at least ten of n samples above."""
    return next((p for p in TAIL_LADDER if n * (100 - p) / 100 >= 10), 50.0)


def medians_by_position(reps: list) -> list[float] | None:
    """The median over repetitions of each position's sample (NaN is no
    sample), or None when the repetitions differ in length."""
    if len({len(xs) for xs in reps}) != 1:
        return None
    out = []
    for column in zip(*reps):
        xs = [x for x in column if x == x]
        if xs:
            out.append(statistics.median(xs))
    return out


def git_commit() -> str | None:
    """The checkout's commit, or None outside a git work tree."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def failure(ex: Exception) -> str:
    return f"{type(ex).__name__}: {str(ex)[:120]}"


def measure(workload: str, seed: int, seconds: float, trace: bool,
            sizes: dict | None = None) -> dict:
    wl = WORKLOADS[workload]
    sizes = {**wl.sizes, **(sizes or {})}

    setup_tracer = Tracer()
    tracer = Tracer()
    ledger = Ledger()
    timer = Timer()
    setup_s: list[float] = []
    traced_s: list[float] = []
    # untraced repetitions: run_s, step intervals, verdict times
    per_rep: list[tuple[float, array, list[float]]] = []
    start = perf_counter()
    reps = 0
    while True:
        # Each repetition starts from a fresh import, as a new process would.
        for _ in range(SETUPS_PER_REP):
            gc.collect()
            timer.idle()

            def set_up():
                m = import_sill()
                patches = setup_tracer.install() if trace else None
                return m, wl.front_end(m, seed, sizes), patches

            m, inputs, patches = timer("setup", set_up)
            if patches:
                patches.undo()
        setup_s += [t for _, t in timer.take()[0]]
        # when tracing, traced and untraced repetitions alternate
        # (U T T U ...) so that the overhead compares like with like
        traced = trace and reps % 4 in (1, 2)
        gc.collect()
        timer.idle()
        patches = tracer.install() if traced else None
        if traced:
            timer.calibrate = tracer.span("bench.calibration", calibration_s)
        try:
            outputs = wl.rep(m, inputs, sizes, timer)
        except Exception as ex:  # a raise is a failed operation
            ledger.fail(f"{workload}.rep", failure(ex))
            outputs = None
        finally:
            if patches:
                patches.undo()
                tracer.end_rep()
            timer.calibrate = calibration_s
        ops, intervals = timer.take()
        if outputs is not None:
            wall = sum(t for _, t in ops)
            if traced:
                traced_s.append(wall)
            else:
                per_rep.append((wall, intervals, [t for k, t in ops if k == "verdict"]))
            try:
                wl.check(m, inputs, sizes, outputs, ledger)
            except Exception as ex:
                ledger.fail(f"{workload}.check", failure(ex))
        deep_probe(m, ledger)
        outputs = None
        if reps == 0:
            # One repetition is what running the workload once costs; the
            # peak creeps up with each further one, so a later reading would
            # depend on how many repetitions fit in the window.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        reps += 1
        elapsed = perf_counter() - start
        batch = 2 if trace else 1
        if reps % batch == 0 and elapsed + batch * elapsed / reps > seconds:
            break
    if not per_rep or (trace and not traced_s):
        raise SystemExit(f"{workload}: no repetition ran to the end: {ledger.notes}")

    # Medians over all repetitions, so that no figure depends on how many
    # repetitions fit in the window.  Every repetition takes the same steps
    # and verdicts, and a host stall hits a step in one repetition and
    # misses it in the next.  So the tail and the verdicts take each step's
    # and each verdict's median over the repetitions first, and the tail
    # holds the slow steps the program itself takes.
    walls = [w for w, _, _ in per_rep]
    intervals = array("d")
    for _, xs, _ in per_rep:
        intervals.extend(x for x in xs if x == x)
    per_step = medians_by_position([xs for _, xs, _ in per_rep])
    tail_over = "steps"
    if per_step is None:  # the runs differed; fall back to all intervals
        per_step, tail_over = intervals, "intervals"
    per_verdict = medians_by_position([xs for _, _, xs in per_rep])
    tail = tail_level(len(per_step))
    meta = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "sizes": sizes,
        "setups": len(setup_s),
        "reps": {"untraced": len(per_rep), "traced": len(traced_s)},
        "calibration_s_p50": statistics.median(timer.calibrations),
        "reference_calibration_s": REFERENCE_CAL_S,
        "run_s_per_rep": walls,
        "step_us_tail_percentile": tail,
        "step_us_tail_over": tail_over,
        "steps_per_rep": len(per_step),
        "step_intervals_total": len(intervals),
        "verdicts_per_rep": len(per_verdict),
        "failures": ledger.notes,
    }
    if trace:
        untraced = statistics.median(walls)
        overhead = statistics.median(traced_s) - untraced
        values = tracer.metrics(len(traced_s), setup_tracer, len(setup_s), overhead)
        units = LAYER_METRICS
        meta["untraced_run_s"] = untraced
        meta["unresolved_bindings"] = sorted(tracer.missing | setup_tracer.missing)
    else:
        values = {
            "setup_s": statistics.median(setup_s),
            "run_s": statistics.median(walls),
            "step_us_p50": statistics.median(intervals) * 1e6,
            "step_us_tail": percentile(per_step, tail) * 1e6,
            "verdict_s_p50": statistics.median(per_verdict),
            "peak_rss_mb": peak_rss_mb,
            "error_rate": ledger.failed / ledger.attempted,
        }
        units = END_TO_END
    result = {
        "correct": ledger.wrong == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    return {"meta": meta, "result": result}


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    out = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, m in out["result"]["metrics"].items():
        print(f"{name:42s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"meta": out["meta"]}))
    print(json.dumps(out["result"]))


if __name__ == "__main__":
    main()
