"""A changing SILL step builds nothing it does not keep.

Every step ``SillSystem._steps`` derives builds its ground rule with
``Rule.ground``, unvalidated, and that rule is the one the validating
constructor gives, apart from the template it keeps: a step that creates
a channel has its consequent as a function of the channel's term, built
once, when the step fires.  A run of an endless sender builds no order key
(``fact_key``) in ``dynamics``, validates no rule, grounds no consequent
with ``subst_term`` and, after its first round, walks no process body
(``ast.fold``), while consumed messages are still
enumerated in order-key order where a carrier queues two or more.  A weak
barb on a message already present decodes no process.  Two template steps
derived apart are equal when their heads are, and compare, hash and key
alike without building either template.
"""

import itertools
import sys
from pathlib import Path

import dynamics_oracle as ref
from test_dynamics import corpus
from test_dynamics_oracle import SEEDS, _inst, assert_same_runs
from test_obs import CONAT, omega_proc

from sill import dynamics, equiv
from sill.dynamics import SillSystem, _StepIndex, config_state, initial_config, msg_fact, run
from sill.lang import ast, check_module, parse
from sill.msr.multiset import Multiset, fact_key
from sill.msr import rules, terms
from sill.msr.rules import Rule, _equiv_key
from sill.msr.terms import Var

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import wide_source  # noqa: E402


def derived_steps(monkeypatch, state, iface, fuel, seed=None):
    """Every step _steps derives in a run from state, and at each of its
    states on a fresh system."""
    out = []
    steps = SillSystem._steps

    def record(self, fact, msgs):
        insts = steps(self, fact, msgs)
        out.extend(insts)
        return insts

    monkeypatch.setattr(SillSystem, "_steps", record)
    tr = run(SillSystem(), state, iface, fuel=fuel, seed=seed)
    for st in tr.states:
        index = _StepIndex(SillSystem(), st)
        index.steps(index.procs)
    monkeypatch.undo()
    return out


def test_ground_rules_equal_their_validated_rules(monkeypatch):
    src, _ = wide_source(4, 1)
    mod = parse(src)
    check_module(mod)
    steps = [i for _, facts, iface in corpus() for seed in SEEDS
             for i in derived_steps(monkeypatch, config_state(facts), iface, 200, seed)]
    wide = mod.configs["wide"]
    steps += derived_steps(monkeypatch, config_state(wide.facts), wide.interface, 10_000, 1)
    steps += derived_steps(monkeypatch, *initial_config(omega_proc(), {}, ("o", CONAT)), 300)
    assert len(steps) > 1000 and any(i.rule.evars for i in steps)
    for inst in steps:
        r = inst.rule
        checked = Rule(r.name, r.uvars, r.pers_ant, r.eph_ant, r.evars, r.pers_con,
                       r.eph_con, r.fresh_hints, r.cost)
        # the fields and _con_evars; besides, the rule keeps
        # what it was given as its consequent, a template exactly when the
        # step creates a channel
        own = dict(vars(r))
        template = own.pop("_template")
        assert own == vars(checked) and r == checked and inst.theta == ()
        assert r._con_evars == checked._con_evars
        assert callable(template) == bool(r.evars)
        assert (template(*map(Var, r.evars)) if r.evars else template) == r.eph_con


def test_template_steps_are_equal_by_their_heads(monkeypatch):
    # two systems derive the cut and send steps of each state apart; the
    # steps compare, hash and key alike without building a template
    builds = [0]
    build = rules._TemplateCon.__get__

    def counted(self, rule, owner=Rule):
        if rule is not None:
            builds[0] += 1
        return build(self, rule, owner)

    monkeypatch.setattr(rules._TemplateCon, "__get__", counted)
    steps = []
    for _, facts, iface in corpus():
        for seed in SEEDS:
            tr = run(SillSystem(), config_state(facts), iface, fuel=200, seed=seed)
            for st in tr.states:
                a, b = (_StepIndex(SillSystem(), st) for _ in range(2))
                for (_, i), (_, j) in zip(a.steps(a.procs), b.steps(b.procs)):
                    if callable(i.rule._template):
                        assert i.rule is not j.rule and i == j and i.rule == j.rule
                        assert hash(i.rule) == hash(j.rule) and _equiv_key(i) == _equiv_key(j)
                        steps.append(i)
    assert len(steps) > 50 and {i.rule.name for i in steps} >= {"cut", "tensor_r", "with_l"}
    # the same rule name on another consumed fact is another step: one
    # the run derived, or the step with its constants renamed, whose
    # images under one renaming are equal
    distinct = list({i.rule: i for i in steps}.values())
    unequal = 0
    for name, group in itertools.groupby(sorted(distinct, key=lambda i: i.rule.name),
                                         key=lambda i: i.rule.name):
        for i, j in itertools.combinations(list(group), 2):
            assert i.rule != j.rule and i != j, name
            unequal += 1
    for i in distinct:
        rho = {c: f"{c}!" for c in i.consts()}
        moved = i.rename(rho)
        assert moved.rule.name == i.rule.name and moved.rule != i.rule
        assert moved == i.rename(rho) and moved.rule is not i.rename(rho).rule
    assert unequal >= 5 and len(distinct) >= 10
    assert builds[0] == 0


def test_an_endless_sender_builds_no_order_key_and_validates_no_rule(monkeypatch):
    calls = {"fact_key": 0, "rule": 0}

    def counted_key(f):
        calls["fact_key"] += 1
        return fact_key(f)

    post_init = Rule.__post_init__

    def counted_post_init(self):
        calls["rule"] += 1
        post_init(self)

    monkeypatch.setattr(dynamics, "fact_key", counted_key)
    monkeypatch.setattr(Rule, "__post_init__", counted_post_init)
    state, iface = initial_config(omega_proc(), {}, ("o", CONAT))
    tr = run(SillSystem(), state, iface, fuel=2000)
    assert len(tr.steps) == 2000
    assert calls == {"fact_key": 0, "rule": 0}


def test_an_endless_sender_builds_each_consequent_once(monkeypatch):
    # a send's consequent is a template that fire fills in with the fresh
    # channel: it is built once, and no subst_term walk grounds it again
    # (building it over a variable first, then grounding it, made about
    # 2.7 subst_term calls per step); it shares its continuation's code and
    # builds only an environment, so once the first round has encoded the
    # quoted body and evaluated its term, for the system, no step folds
    # over the syntax
    calls = {"subst_term": 0, "fold": 0, "derived": 0}

    def counted(module, name):
        f = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return f(*args)

        monkeypatch.setattr(module, name, wrapper)

    steps = SillSystem._steps

    def derive(self, fact, msgs):
        insts = steps(self, fact, msgs)
        calls["derived"] += len(insts)
        return insts

    counted(rules, "subst_term")
    counted(terms, "subst_term")
    counted(ast, "fold")
    counted(dynamics, "fold")
    monkeypatch.setattr(SillSystem, "_steps", derive)
    state, iface = initial_config(omega_proc(), {}, ("o", CONAT))
    folds = []
    tr = run(SillSystem(), state, iface, fuel=300, observer=lambda _: folds.append(calls["fold"]))
    monkeypatch.undo()
    assert len(tr.steps) == 300 and calls["derived"] >= 300
    assert calls["subst_term"] == 0
    assert folds[2] > 0 and folds[-1] == folds[2]


def test_queued_messages_are_consumed_in_order_key_order():
    # choice_round's provider with three label messages queued on its
    # channel, which arrive in every order
    prov = next(fs[0] for name, fs, _ in corpus() if name == "choice_round")
    msgs = [msg_fact(*ast.make_message("label", ast.NEGATIVE, "c", d, label))
            for d, label in (("d1", "l"), ("d2", "r"), ("d3", "l"))]
    want = sorted(msgs, key=fact_key)
    for order in itertools.permutations(msgs):
        state = Multiset.of([dynamics.proc_fact(prov.chan, prov.proc), *order])
        steps = SillSystem().applicable(state)
        assert [_inst(i) for i in steps] == [_inst(i) for i in ref.OracleSystem().applicable(state)]
        assert [i.rule.eph_ant[1] for i in steps] == want
        assert_same_runs(state, ast.Interface(), 10)


def test_a_weak_barb_on_a_present_message_decodes_no_process(monkeypatch):
    state, iface = initial_config(omega_proc(), {}, ("o", CONAT))
    final = run(SillSystem(), state, iface, fuel=2000).final()

    def refuse(t):
        raise AssertionError(f"decoded {t!r}")

    monkeypatch.setattr(dynamics, "dec_proc", refuse)
    assert equiv.weak_barb(final, "o", fuel=10)
