"""The fair scheduler without rotation, kept verbatim as a test oracle.

This is ``sill.fairness.fair_execute`` as it was before a run whose live
classes are all idle recorded the rest of its fuel from one cycle
(``Trace.rotate``): every step, rotated or not, goes through the queue,
an idle replay through ``repeat`` and its applicability check.  It
shares the run's index (``fairness._Applicable``) with the scheduler,
extended by the table of idle steps the scheduler kept then
(``_IdleApplicable``), so the two differ only in the loop below and in
that table.
"""

from __future__ import annotations

import random
from typing import Callable, Optional

from sill.fairness import _Applicable
from sill.msr.multiset import Multiset
from sill.msr.rules import Mrs, NotApplicable
from sill.msr.trace import Step, Trace


class _IdleApplicable(_Applicable):
    """``_Applicable`` with ``idle``, the ``Step`` of each live class
    whose last application was idle: valid while the class is live, and
    checked for applicability when recorded again (``repeat``); ``drop``
    removes it with it."""

    def __init__(self, *args):
        super().__init__(*args)
        self.idle: dict[tuple, Step] = {}

    def drop(self, key: tuple) -> None:
        super().drop(key)
        self.idle.pop(key, None)


def repeat(tr: Trace, step: Step) -> None:
    """Record again an idle step of tr, as applying it again would,
    without ``fire`` or a new ``Step``.  Its applicability is checked in
    O(consumed), raising ``NotApplicable``; a step that is not idle
    raises ``ValueError``."""
    if not step.idle:
        raise ValueError(f"{step.to_str()} is not idle")
    if not step.inst.applicable(tr.live):
        raise NotApplicable(step.inst.to_str())
    tr.steps.append(step)


def fair_execute(
    mrs: Mrs,
    start: Multiset,
    budget: int = 1000,
    seed: Optional[int] = None,
    observer: Optional[Callable[[Trace], None]] = None,
    record_queue_depths: bool = False,
) -> Trace:
    """Run the FIFO scheduler over distinct applicable instantiations.

    The queue is the run's ``_Applicable``: exactly the applicable
    instantiations, oldest first, one per instantiation-equivalence class.
    The start's come from the run's one index of its state, the enabled
    set.  After a step that changed the state, the update the lasso replay
    shares (``_Applicable.after``) drops the applied instantiation and the
    disabled ones; the survivors keep their order and the newly applicable
    ones, the applied one again if it still applies, join at the back
    (shuffled when a seed is given, otherwise in enumeration order).
    Anything applicable is therefore applied within queue-length steps,
    which makes every completed run über fair, and a run that empties its
    queue is a maximal execution.

    The queue and the enabled set read the trace's live state, which no
    step copies.  A step that changes nothing (``Step.changed``), such as
    a process stepping to itself, leaves every queued instantiation
    applicable and makes none so, so the applied one alone goes to the
    back, and the step costs O(1): the enabled set is not asked.  A
    one-element shuffle draws no random number, so seeded runs keep their
    order.  An idle step (``Step.idle``) stays valid in ``app.idle`` while
    its class is live, and the class's next turns record it again through
    ``repeat``: the steps and states of a fresh application, its
    applicability checked, nothing applied.

    meta["sched"] counts the candidates the enabled set proposed after the
    start (the start is enumerated once), the fresh instantiations that
    joined the queue after a step, the steps that changed nothing
    (``unchanged_steps``) and those of them recorded again from
    ``app.idle`` (``idle_replays``).  The enabled set derives every
    candidate it proposes, so ``delta_candidates`` is also the number of
    steps derived after the start.
    """
    tr = Trace(mrs, start)
    app = _IdleApplicable(mrs, tr.live, random.Random(seed) if seed is not None else None)
    queue = app.live
    sched = {"delta_candidates": 0, "fresh_admitted": 0, "unchanged_steps": 0,
             "idle_replays": 0}
    depths: list[int] = []
    while queue and len(tr.steps) < budget:
        if record_queue_depths:
            depths.append(len(queue))
        first = next(iter(queue))
        step = app.idle.get(first)
        if step is None:
            step = tr.extend(queue[first])
        else:
            repeat(tr, step)
            sched["idle_replays"] += 1
        if observer is not None:
            observer(tr)
        if not step.changed:
            # nothing changed: everything queued stays applicable and
            # nothing new became so; the step goes to the back
            if step.idle:
                app.idle[first] = step
            queue[first] = queue.pop(first)
            sched["unchanged_steps"] += 1
            continue
        sched["fresh_admitted"] += len(app.after(first, step, tr.live))
    sched["delta_candidates"] = app.proposed
    tr.meta["maximal"] = not queue
    tr.meta["sched"] = sched
    if record_queue_depths:
        tr.meta["queue_depths"] = depths
    return tr
