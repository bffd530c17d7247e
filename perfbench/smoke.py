"""Tiny-size check that the benchmark emits every metric BENCHMARK.json names.

Runs each workload at toy sizes, once untraced and once traced, in about a
minute:

    python3 perfbench/smoke.py

Exits non-zero, naming the problem, when a metric is missing, extra, has
the wrong unit or is not a finite number, or when an output check gives a
wrong answer.
"""

from __future__ import annotations

import json
import math
import sys

import run
from workloads import WORKLOADS

TINY = {
    "omega": {"steps": 60, "observe_depth": 8},
    "wide": {"copies": 1},
    "ring": {"nodes": 20, "run_steps": 40, "lasso_steps": 20, "hand_nodes": 6},
    "equiv": {"depth": 2},
}


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    unknown = {w["name"] for w in spec["workloads"]} - set(WORKLOADS)
    if unknown:
        problems.append(f"BENCHMARK.json names unknown workloads {sorted(unknown)}")
    for name in WORKLOADS:
        for trace in (0, 1):
            res = run.measure(name, seed=1, seconds=0, trace=bool(trace),
                              sizes=TINY[name])["result"]
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            where = f"{name} --trace {trace}"
            if got != declared[trace]:
                problems.append(f"{where}: metrics {sorted(got)} differ from "
                                f"BENCHMARK.json {sorted(declared[trace])}")
            for k, v in res["metrics"].items():
                if not (isinstance(v["value"], (int, float))
                        and math.isfinite(v["value"])):
                    problems.append(f"{where}: {k} = {v['value']!r}")
            if not res["correct"]:
                problems.append(f"{where}: an output check gave a wrong answer")
            print(f"{where}: {len(got)} metrics, attempted {res['attempted']}, "
                  f"failed {res['failed']}")
    for p in problems:
        print("PROBLEM", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
