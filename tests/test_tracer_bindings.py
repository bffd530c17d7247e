"""The benchmark's tracer finds every function it wraps.

``perfbench/tracer.py`` installs its spans and counters by rebinding names
in sill's modules.  A span target that was renamed or deleted would leave
its per-layer metric at 0, so each target must still have a binding site:
``rules.apply_inst``, ``rules.match_rule``, ``Trace.extend`` and
``Mrs.applicable`` among them stay, whatever the scheduler itself calls.
"""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from tracer import COUNTED, SPANS, Tracer, binding_sites  # noqa: E402

TARGETS = {**SPANS, **COUNTED}


@pytest.mark.parametrize("name", sorted(TARGETS))
def test_every_traced_target_has_a_binding_site(name):
    importlib.import_module(TARGETS[name].partition(":")[0])
    assert binding_sites(TARGETS[name]), TARGETS[name]


def test_installing_the_tracer_misses_nothing():
    for where in TARGETS.values():
        importlib.import_module(where.partition(":")[0])
    patches = Tracer().install()
    try:
        assert patches.missing == []
    finally:
        patches.undo()
