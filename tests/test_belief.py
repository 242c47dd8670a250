import math
import random

import pytest

from overhear.belief import (MonitoringError, VisitCounter, _evidence_scratch,
                             apply_messages, array_overseer_tick, hazard, init_beliefs,
                             most_likely_state, propagate_down, propagate_forward)
from overhear.ingest import INIT, TERM, ObservedMessage
from overhear.model import program_from_document
from overhear.progen import random_program


def _chain(lam_a=0.05, mu=0.0, extra_leaf=False):
    plans = [
        {"id": "r", "name": "top", "team": "T"},
        {"id": "a", "name": "step-a", "team": "T", "parent": "r",
         "first_child": True, "lambda": lam_a},
        {"id": "b", "name": "step-b", "team": "T", "parent": "r", "lambda": 0.0},
    ]
    trans = [{"from": "a", "to": "b", "pi": 1.0, "mu": mu}]
    if extra_leaf:
        plans.append({"id": "c", "name": "step-c", "team": "T", "parent": "r",
                      "lambda": 0.0})
        trans = [{"from": "a", "to": "b", "pi": 0.5, "mu": mu},
                 {"from": "a", "to": "c", "pi": 0.5, "mu": mu}]
    return program_from_document({
        "teams": [{"name": "T", "parent": None}],
        "agents": [{"name": "solo", "team": "T"}],
        "root": "r", "plans": plans, "transitions": trans,
    })


def test_init_beliefs_first_child_chain(evac_mini_single):
    b = init_beliefs(evac_mini_single)
    assert b.active["n0"] == 1.0
    assert b.active["n1"] == 1.0
    assert all(b.active[x] == 0.0 for x in ("n2", "n3", "n4", "n5"))
    assert all(v == 0.0 for v in b.blocked.values())


def test_propagate_down_uniform_split():
    p = program_from_document({
        "teams": [{"name": "T", "parent": None}],
        "agents": [{"name": "solo", "team": "T"}],
        "root": "r",
        "plans": [
            {"id": "r", "name": "top", "team": "T"},
            {"id": "a", "name": "left", "team": "T", "parent": "r",
             "first_child": True},
            {"id": "b", "name": "right", "team": "T", "parent": "r",
             "first_child": True, "lambda": 0.1},
            {"id": "a1", "name": "left-one", "team": "T", "parent": "a",
             "first_child": True, "lambda": 0.1},
            {"id": "a2", "name": "left-two", "team": "T", "parent": "a",
             "first_child": True, "lambda": 0.1},
        ],
        "transitions": [],
    })
    b = init_beliefs(p)
    for v in (b.active, b.blocked):
        for k in v:
            v[k] = 0.0
    propagate_down("r", 0.4, b, p)
    assert b.active["a"] == pytest.approx(0.2)
    assert b.active["b"] == pytest.approx(0.2)
    assert b.active["a1"] == pytest.approx(0.1)
    assert b.active["a2"] == pytest.approx(0.1)
    before = dict(b.active)
    propagate_down("a1", 0.4, b, p)  # leaf: no-op
    assert b.active == before


def test_exponential_decay_closed_form():
    p = _chain(lam_a=0.05, mu=0.0)
    b = init_beliefs(p)
    for k in range(1, 1001):
        b = propagate_forward(b, p)
        assert abs(b.active["a"] - math.exp(-0.05 * k)) <= 1e-9
    assert b.time == 1000


def test_lambda_zero_is_identity():
    p = _chain(lam_a=0.0)
    b = init_beliefs(p)
    b2 = propagate_forward(b, p)
    assert b2.active == b.active
    assert b2.blocked == b.blocked
    assert b2.time == b.time + 1


def test_eta_zero_blocks_everything():
    p = _chain(lam_a=0.3, mu=1.0, extra_leaf=True)
    b = init_beliefs(p)
    for k in range(1, 200):
        b = propagate_forward(b, p)
        assert b.active["b"] == 0.0
        assert b.active["c"] == 0.0
        assert b.active["a"] == pytest.approx((1 - hazard(0.3)) ** k, abs=1e-12)
        assert b.blocked["a"] == pytest.approx(1 - (1 - hazard(0.3)) ** k,
                                               abs=1e-12)


def test_hazard():
    assert hazard(0.0) == 0.0
    assert hazard(0.05) == pytest.approx(1 - math.exp(-0.05))


def test_mass_conservation_random_programs():
    rng = random.Random(7)
    for _ in range(10):
        p = random_program(rng.randrange(100_000), allow_completion=False)
        b = init_beliefs(p)
        start = sum(b.active[x] for x in p.leaves) + sum(b.blocked.values())
        for _ in range(200):
            b = propagate_forward(b, p)
            mass = sum(b.active[x] for x in p.leaves) + sum(b.blocked.values())
            assert mass == pytest.approx(start, abs=1e-9)


def test_evidence_posterior_ratio():
    # two nodes answer to the same name; their predecessors hold blocked
    # mass 0.3 and 0.1 with equal mu*pi, so the posterior must split 3:1
    p = program_from_document({
        "teams": [{"name": "T", "parent": None}],
        "agents": [{"name": "solo", "team": "T"}],
        "root": "r",
        "plans": [
            {"id": "r", "name": "top", "team": "T"},
            {"id": "w1", "name": "left-prep", "team": "T", "parent": "r",
             "first_child": True, "lambda": 0.1},
            {"id": "w2", "name": "right-prep", "team": "T", "parent": "r",
             "lambda": 0.1},
            {"id": "x1", "name": "shared-step", "team": "T", "parent": "r",
             "lambda": 0.1},
            {"id": "x2", "name": "shared-step", "team": "T", "parent": "r",
             "lambda": 0.1},
        ],
        "transitions": [
            {"from": "w1", "to": "x1", "pi": 1.0, "mu": 0.5},
            {"from": "w2", "to": "x2", "pi": 1.0, "mu": 0.5},
        ],
    })
    b = init_beliefs(p)
    b.blocked["w1"] = 0.3
    b.blocked["w2"] = 0.1
    m = ObservedMessage(0, "solo", "T", INIT, "shared-step")
    b2 = apply_messages(b, [m], p)
    assert b2.active["x1"] == pytest.approx(0.75)
    assert b2.active["x2"] == pytest.approx(0.25)
    assert b2.active["r"] == pytest.approx(1.0)
    assert b2.active["w1"] == 0.0
    assert b2.time == b.time + 1


def test_evidence_commits_full_path(evac_team):
    p = evac_team.single_agent_view()
    b = init_beliefs(p)
    for _ in range(5):
        b = propagate_forward(b, p)
    assert b.blocked["n1"] > 0
    m = ObservedMessage(5, "escort1", "TASK-FORCE", INIT, "fly-flight-plan")
    b = apply_messages(b, [m], p)
    assert b.active["n2"] == pytest.approx(1.0)
    assert b.active["n6"] == pytest.approx(1.0)  # first child follows
    assert b.active["n0"] == pytest.approx(1.0)
    assert b.active["n1"] == 0.0
    assert most_likely_state(b, p) == ("n0", "n2", "n6")


def test_term_message_moves_mass_to_successors(evac_team):
    p = evac_team.single_agent_view()
    b = init_beliefs(p)
    for _ in range(5):
        b = propagate_forward(b, p)
    m = ObservedMessage(5, "escort1", "TASK-FORCE", TERM, "process-orders")
    b = apply_messages(b, [m], p)
    assert b.active["n2"] == pytest.approx(1.0)
    assert b.active["n6"] == pytest.approx(1.0)


def test_unknown_plan_rejected(evac_mini_single):
    b = init_beliefs(evac_mini_single)
    m = ObservedMessage(0, "escort1", "ESCORT", INIT, "no-such-plan")
    with pytest.raises(MonitoringError, match="no-such-plan"):
        apply_messages(b, [m], evac_mini_single)


def test_surprise_message_falls_back_to_uniform(evac_mini_single):
    # INIT with zero blocked mass anywhere: truthfulness outranks the prior
    p = evac_mini_single
    b = init_beliefs(p)
    m = ObservedMessage(0, "escort1", "ESCORT", INIT, "fly-flight-plan")
    b2 = apply_messages(b, [m], p)
    assert b2.active["n2"] == pytest.approx(1.0)


def test_term_before_init_in_one_tick(evac_team):
    p = evac_team.single_agent_view()
    b = init_beliefs(p)
    for _ in range(5):
        b = propagate_forward(b, p)
    msgs = [ObservedMessage(5, "a", "TASK-FORCE", INIT, "fly-flight-plan"),
            ObservedMessage(5, "a", "TASK-FORCE", TERM, "process-orders")]
    out = apply_messages(b, msgs, p)
    # TERM processed first, INIT second: both land on fly-flight-plan,
    # and the whole batch advances the clock a single tick
    assert out.active["n2"] == pytest.approx(1.0)
    assert out.time == b.time + 1


def test_most_likely_tie_breaks_low_id():
    p = _chain(lam_a=0.4, mu=0.0, extra_leaf=True)
    b = init_beliefs(p)
    for _ in range(300):
        b = propagate_forward(b, p)
    # a has fully drained into b and c equally; lowest id wins the tie
    assert most_likely_state(b, p) == ("r", "b")


def test_most_likely_rejects_empty():
    p = _chain()
    b = init_beliefs(p)
    for k in b.active:
        b.active[k] = 0.0
    with pytest.raises(MonitoringError):
        most_likely_state(b, p)


def test_array_tick_dispatch(evac_mini):
    view = evac_mini.single_agent_view()
    agents = sorted(evac_mini.team_hierarchy.agent_names)
    beliefs = {a: init_beliefs(view) for a in agents}
    programs = {a: view for a in agents}
    for _ in range(5):
        array_overseer_tick(beliefs, programs, [])
    msg = ObservedMessage(5, "escort1", "ESCORT", TERM, "process-orders")
    array_overseer_tick(beliefs, programs, [msg])
    # evidence reached only the sender; everyone else kept decaying
    assert beliefs["escort1"].active["n2"] == pytest.approx(1.0)
    assert beliefs["escort2"].active["n2"] < 1.0
    assert beliefs["escort1"].time == beliefs["escort2"].time


def test_array_tick_routing_override(evac_mini):
    view = evac_mini.single_agent_view()
    h = evac_mini.team_hierarchy
    agents = sorted(h.agent_names)
    beliefs = {a: init_beliefs(view) for a in agents}
    programs = {a: view for a in agents}
    for _ in range(5):
        array_overseer_tick(beliefs, programs, [])
    msg = ObservedMessage(5, "escort1", "ESCORT", TERM, "process-orders")
    array_overseer_tick(beliefs, programs, [msg],
                        recipients=lambda m: sorted(h.members(m.team)))
    assert beliefs["escort2"].active["n2"] == pytest.approx(1.0)
    assert beliefs["transport1"].active["n2"] < 1.0


def test_array_tick_unknown_sender(evac_mini):
    view = evac_mini.single_agent_view()
    beliefs = {"escort1": init_beliefs(view)}
    with pytest.raises(MonitoringError, match="stranger"):
        array_overseer_tick(beliefs, {"escort1": view},
                            [ObservedMessage(0, "stranger", "ESCORT", INIT,
                                             "process-orders")])


def test_silent_agents_stay_identical(evac_mini):
    view = evac_mini.single_agent_view()
    agents = sorted(evac_mini.team_hierarchy.agent_names)
    beliefs = {a: init_beliefs(view) for a in agents}
    programs = {a: view for a in agents}
    for _ in range(50):
        array_overseer_tick(beliefs, programs, [])
    first = beliefs[agents[0]]
    for a in agents[1:]:
        assert beliefs[a].active == first.active
        assert beliefs[a].blocked == first.blocked


def test_visit_counter_counts_per_node():
    p = _chain()
    b = init_beliefs(p)
    counter = VisitCounter()
    for _ in range(10):
        b = propagate_forward(b, p, counter)
    assert counter.visits == 10 * len(p.node_ids)


def test_evidence_scratch_sums_to_one():
    rng = random.Random(21)
    for _ in range(20):
        p = random_program(rng.randrange(100_000))
        b = init_beliefs(p)
        for _ in range(rng.randrange(1, 30)):
            b = propagate_forward(b, p)
        names = sorted({p.node(x).name for x in p.node_ids})
        m = ObservedMessage(b.time, "solo", "SOLO", INIT, rng.choice(names))
        try:
            scratch = _evidence_scratch(m, b, p)
        except MonitoringError:
            continue  # named the root: no in-transitions and no fallback base
        assert sum(scratch.values()) == pytest.approx(1.0, abs=1e-9)
