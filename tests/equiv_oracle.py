"""Plugging and observing a subject as they were before every observation
became an experiment run.

A reference for the differential tests in ``tests/test_equiv_oracle.py``:
``plug_experiment`` renamed, composed, assembled the interface of and
checked a generated experiment on its own, and ``_observe_alone`` ran a
subject a second time to read its interface channels.  Both are copied
verbatim, with the ``_rename_internals`` they call; every result here is
one that the current code must reproduce.

``equiv_check`` is the verdict as it was before the generated families
plugged into the state where a subject's maximal alone run ended: every
family plugs the subject as given.  It is copied verbatim and is the
reference of ``tests/test_family_end_state.py``.
"""

from __future__ import annotations

from typing import Optional

from ast_oracle import subst_chan

from sill.dynamics import SillSystem, config_state, run, state_facts
from sill.equiv import (
    Y_NEG,
    Y_POS,
    Experiment,
    ObservationSystem,
    Subject,
    _check_family,
    _Prepared,
    _require_shared,
    empty_context,
    run_experiment,
)
from sill.lang import ast
from sill.lang.check import check_config
from sill.lang.errors import SillError
from sill.obs import comm_eq, observe, tree_to_str


def _rename_internals(subject: Subject, avoid: set[str]) -> tuple[list, list]:
    """Fresh names for every non-interface channel of the subject."""
    state, iface = subject
    keep = {n for n, _ in iface.used} | {n for n, _ in iface.provided}
    facts = state_facts(state)
    internal = sorted({n for cf in facts
                       for n in ast.fc(cf.proc) | {cf.chan}} - keep)
    taken = set(avoid) | keep | set(internal)
    rho = {}
    for name in internal:
        if name not in avoid:
            rho[name] = name
            continue
        k = 0
        while f"{name}%{k}" in taken:
            k += 1
        rho[name] = f"{name}%{k}"
        taken.add(rho[name])
    out = [type(cf)(rho.get(cf.chan, cf.chan), subst_chan(cf.proc, rho))
           for cf in facts]
    itypes = dict(iface.internal)
    pairs = [(rho[n], itypes[n]) for n in internal if n in itypes]
    missing = [n for n in internal if n not in itypes]
    if missing:
        raise SillError(f"no recorded types for internal channels {missing}")
    return out, pairs


def _observe_alone(subject: Subject, fuel, depth, seed, system):
    state, iface = subject
    tr = run(system or SillSystem(), state, iface, fuel=fuel, seed=seed)
    rows = {}
    for c, t in list(iface.used) + list(iface.provided):
        rows[c] = (observe(tr, c, depth)[0], t)
    return rows


def plug_experiment(exp_facts: tuple[ast.ConfigFact, ...], subject: Subject,
                    chan: str, r: str) -> Subject:
    """Compose a generated experiment with its subject.

    The tested channel moves inside; the answer channel r joins the
    interface on the experiment's side.
    """
    state, iface = subject
    avoid = {n for cf in exp_facts for n in ast.fc(cf.proc) | {cf.chan}}
    avoid |= {r}
    subject_facts, internal_pairs = _rename_internals(subject, avoid)
    facts = tuple(exp_facts) + tuple(subject_facts)
    used = dict(iface.used)
    if chan in used:
        new_used = tuple((c, t) for c, t in iface.used if c != chan) \
                   + ((r, Y_NEG),)
        new_prov = iface.provided
        internal = ((chan, used[chan]),)
    else:
        prov = dict(iface.provided)
        new_used = iface.used
        new_prov = tuple((c, t) for c, t in iface.provided if c != chan) \
                   + ((r, Y_POS),)
        internal = ((chan, prov[chan]),)
    out = ast.Interface(used=new_used,
                        internal=internal + tuple(internal_pairs),
                        provided=new_prov)
    check_config(list(facts), out)
    return config_state(facts), out


def equiv_check(c: Subject, d: Subject, sys: ObservationSystem,
                fuel: int = 500, depth: int = 8, seed: Optional[int] = None,
                system: Optional[SillSystem] = None) -> dict:
    """Bounded equivalence verdict over the system's experiments plus the
    generated families at increasing depth.

    Every observation is an experiment run.  The suite starts with the
    empty context, which observes each subject alone on all its interface
    channels; the generated families are built from those observations.
    All runs share one ``SillSystem``, a new one per verdict unless system
    is given; a given system is shared and keeps growing while it lives,
    its observations among the rest, so an experiment observed before on
    it, in this verdict or an earlier one, is not run again.  Both
    subjects are read once (see ``_Prepared``) and must be checked, as
    ``config_subject`` checks them.

    The verdict is a dict with mode, bounded (always true), equivalent, and
    a counterexample when one was found.
    """
    _require_shared(c[1], d[1])
    c, d = _Prepared(c), _Prepared(d)
    system = system or SillSystem()
    verdict = {"mode": sys.mode, "bounded": True, "equivalent": True}

    suite = [Experiment(empty_context(c[1]))] + list(sys.experiments)
    for idx, e in enumerate(suite):
        obs_c = run_experiment(c, e, sys.mode, fuel, depth, seed, system)
        obs_d = run_experiment(d, e, sys.mode, fuel, depth, seed, system)
        if idx == 0:
            # the empty context observes each subject alone, on every
            # interface channel, in every mode
            alone_c, alone_d = obs_c, obs_d
        for (name, tc, _), (_, td, _) in zip(obs_c.channels, obs_d.channels):
            if not comm_eq(tc, td, sys.rel):
                verdict["equivalent"] = False
                verdict["counterexample"] = {
                    "kind": "context",
                    "context": e.context.name or f"#{idx}",
                    "channel": name,
                    "left": tree_to_str(tc),
                    "right": tree_to_str(td),
                }
                return verdict

    for n in range(depth):
        for ref, tgt, tag in ((alone_c, d, "left-right"),
                              (alone_d, c, "right-left")):
            bad = _check_family(ref, tgt, n, fuel, seed, system)
            if bad is not None:
                bad["direction"] = tag
                verdict["equivalent"] = False
                verdict["counterexample"] = bad
                return verdict
    return verdict
