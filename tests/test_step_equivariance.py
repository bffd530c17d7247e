"""A step that creates a channel commutes with renaming generated names.

A ``SillSystem`` step is keyed by the facts it consumes, and the lasso
analysis renames steps round after round (``Inst.rename``).  That is sound
when renaming a step's names and deriving the step from renamed facts
agree: for a renaming rho of generated names, ``inst.rename(rho)`` is the
step the system derives from the renamed consumed facts, with the same
key, and firing it with a fresh name produces the facts that ``inst``
produces with that name, renamed by rho.  The fresh name may be renamed
with the rest: ``inst.rename(rho)`` fired with a fresh ``rho(xi)`` gives
rho of what ``inst`` fired with ``xi`` gives.
"""

import random

from test_dynamics import corpus
from test_dynamics_oracle import SEEDS
from test_fairness import _spawning_lasso
from test_obs import CONAT, omega_proc

from sill.dynamics import _EVAR, SillSystem, config_state, initial_config, run
from sill.fairness import _analysis_of
from sill.msr import Multiset
from sill.msr.rules import Signature, _equiv_key, fire, is_generated_name


def fresh_channel_steps():
    """The steps that create a channel, taken in the corpus runs, by an
    endless sender and in the spawning lasso, with the recurrence renaming
    of the lasso."""
    out = []
    runs = [(config_state(facts), iface, seed) for _, facts, iface in corpus() for seed in SEEDS]
    runs.append((*initial_config(omega_proc(), {}, ("o", CONAT)), None))
    for state, iface, seed in runs:
        tr = run(SillSystem(), state, iface, fuel=60, seed=seed)
        out += [(s.inst, None) for s in tr.steps if s.inst.rule.evars]
    lt = _spawning_lasso()
    rho = _analysis_of(lt).rho
    out += [(s.inst, rho) for s in lt.trace.steps if s.inst.rule.evars]
    return out


def renaming(rng, names):
    """An injective renaming of the generated names onto generated names:
    some swapped among themselves, the others sent to new ones."""
    names = sorted(names)
    targets = rng.sample(names, rng.randint(0, len(names)))
    targets += [f"g'{900 + i}" for i in range(len(names) - len(targets))]
    rng.shuffle(targets)
    return dict(zip(names, targets))


def produced(inst, xi):
    out = []
    fire(Multiset.of(inst.rule.eph_ant), inst, Signature(), {_EVAR: xi}, out)
    return out


def test_fresh_channel_steps_commute_with_renaming():
    rng = random.Random(2104_01065)
    moved = 0
    pool = fresh_channel_steps()
    assert len(pool) > 100 and {i.rule.name for i, _ in pool} >= {"cut", "up_l", "plus_r"}
    for inst, lasso_rho in pool:
        names = {c for c in inst.consts() if is_generated_name(c)}
        rhos = [renaming(rng, names) for _ in range(3)]
        if lasso_rho is not None:
            rhos.append(lasso_rho)
        for rho in rhos:
            moved += any(rho.get(c, c) != c for c in names)
            renamed = inst.rename(rho)
            consumed = [f.rename(rho) for f in inst.rule.eph_ant]
            assert list(renamed.rule.eph_ant) == consumed
            # the step the system derives from the renamed consumed facts
            (derived,) = [i for i in SillSystem().applicable(Multiset.of(consumed))
                          if list(i.rule.eph_ant) == consumed]
            assert renamed == derived and _equiv_key(renamed) == _equiv_key(derived)
            # fired with a fresh name, which rho leaves or moves to another
            for r in (rho, {**rho, "z'999": "z'998"}):
                want = [f.rename(r) for f in produced(inst, "z'999")]
                fresh = r.get("z'999", "z'999")
                assert produced(inst.rename(r), fresh) == want, (inst.to_str(), r)
                assert produced(derived, fresh) == want
    assert moved > 100
