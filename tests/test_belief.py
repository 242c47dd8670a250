import functools
import math
import random

import pytest

from overhear.belief import (TIE_TOLERANCE, BeliefState, MonitoringError, VisitCounter,
                             _evidence_scratch, _zeros, apply_messages, array_overseer_tick,
                             init_beliefs, most_likely_state, propagate_down,
                             propagate_forward)
from overhear.ingest import INIT, TERM, ObservedMessage
from overhear.model import hazard, program_from_document
from overhear.progen import random_program, team_program
from overhear.recognizer import make_recognizer
from overhear.yoyo import team_most_likely


def _chain(lam_a=0.05, mu=0.0, extra_leaf=False, team_mode=False):
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
    if team_mode:
        trans = [{**t, "teams": ["T"]} for t in trans]
    return program_from_document({
        "teams": [{"name": "T", "parent": None}],
        "agents": [{"name": "solo", "team": "T"}],
        "root": "r", "plans": plans, "transitions": trans,
    }, team_mode=team_mode)


def test_init_beliefs_first_child_chain(evac_mini_single):
    b = init_beliefs(evac_mini_single)
    assert b.active["n0"] == 1.0
    assert b.active["n1"] == 1.0
    assert all(b.active[x] == 0.0 for x in ("n2", "n3", "n4", "n5"))
    assert all(v == 0.0 for v in b.blocked.values())


def test_zeros_copies_the_programs_read_only_table(evac_mini_single):
    p = evac_mini_single
    z = _zeros(p)
    z[p.root] = 1.0
    fresh = _zeros(p)
    assert type(fresh) is dict and fresh is not z
    assert list(fresh.items()) == [(x, 0.0) for x in p.node_ids]
    with pytest.raises(TypeError):
        p.zeros[p.root] = 1.0
    assert p.zeros[p.root] == 0.0


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


# The three most-likely queries, each as a recognizer answers through it:
# an agent's own belief, the shared belief of a team, and the summed beliefs
# of a team's members.
PICKERS = {
    "most_likely_state": ("array", False, "solo"),
    "team_most_likely": ("yoyo", True, "T"),
    "array_team_path": ("array", True, "T"),
}


@pytest.mark.parametrize("caller", PICKERS)
def test_most_likely_tie_breaks_low_id(caller):
    mode, coherent, unit = PICKERS[caller]
    rec = make_recognizer(_chain(lam_a=0.4, extra_leaf=True, team_mode=True), mode, coherent)
    for _ in rec.replay((), 301):
        pass
    # a has fully drained into b and c equally; lowest id wins the tie
    assert rec.path(unit) == ("top", "step-b")


@functools.cache
def _flat_program(n=5):
    """Team T of agents a1, a2 under root r, whose children are leaves l0..l<n-1>."""
    return program_from_document({
        "teams": [{"name": "T", "parent": None}],
        "agents": [{"name": "a1", "team": "T"}, {"name": "a2", "team": "T"}],
        "root": "r",
        "plans": [{"id": "r", "name": "r", "team": "T"}] + [
            {"id": f"l{i}", "name": f"l{i}", "team": "T", "parent": "r",
             "first_child": i == 0, "lambda": 0.0} for i in range(n)],
        "transitions": [],
    }, team_mode=True)


def _pick(caller, masses) -> str:
    """The leaf ``caller`` picks when leaf ``l<i>`` holds ``masses[i]``.

    Each mass is split into two exact halves: active and blocked of one state
    for the single-state queries, one member's active and the other's blocked
    for the summed team query.
    """
    p = _flat_program(len(masses))
    first, second = (BeliefState(0, _zeros(p), _zeros(p)) for _ in range(2))
    for leaf, mass in zip(p.leaves, masses):
        first.active[leaf] = second.blocked[leaf] = mass / 2
    if caller == "array_team_path":
        rec = make_recognizer(p, "array", coherent=True)
        rec.beliefs = {"a1": first, "a2": second}
        return rec.path("T")[-1]
    first.blocked.update(second.blocked)
    if caller == "most_likely_state":
        return most_likely_state(first, p)[-1]
    return team_most_likely(first, p, "T")[-1]


def _ulps(x: float, k: int) -> float:
    """``x`` moved ``k`` ulps up (or ``-k`` down)."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.inf if k > 0 else -math.inf)
    return x


T = 0.3
PERTURBED = [k for k in range(-4, 5) if k]
TIE_CASES = {
    "exact": ([0.1, T, 0.1, T, 0.1], "l1"),
    **{f"later{k:+d}ulp": ([0.1, T, 0.1, _ulps(T, k), 0.1], "l1") for k in PERTURBED},
    **{f"earlier{k:+d}ulp": ([0.1, _ulps(T, k), 0.1, T, 0.1], "l1") for k in PERTURBED},
    "drifting-chain": ([0.1, T, _ulps(T, 3), _ulps(T, 6), _ulps(T, 9)], "l1"),
    "later-wins": ([0.1, T, 0.1, T * (1 + 10 * TIE_TOLERANCE), 0.1], "l3"),
    "first-wins": ([T * (1 + 10 * TIE_TOLERANCE), T, 0.1, T, 0.1], "l0"),
    "last-wins": ([0.0, 0.0, 0.0, 0.0, 1e-300], "l4"),
}


@pytest.mark.parametrize("case", TIE_CASES)
@pytest.mark.parametrize("caller", PICKERS)
def test_pick_rule_ties_within_tolerance(caller, case):
    masses, want = TIE_CASES[case]
    assert _pick(caller, masses) == want


@pytest.mark.parametrize("caller", PICKERS)
def test_pick_rule_on_an_all_zero_state(caller):
    if caller == "most_likely_state":
        with pytest.raises(MonitoringError, match="no mass"):
            _pick(caller, [0.0] * 5)
    else:
        assert _pick(caller, [0.0] * 5) == "l0"


@pytest.mark.parametrize("caller", PICKERS)
def test_pick_is_the_lowest_id_of_the_top_group(caller):
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def check(data):
        top = data.draw(st.sets(st.integers(0, 4), min_size=1), label="top")
        t = data.draw(st.floats(1e-6, 1.0), label="T")
        below = st.floats(0.0, t * (1 - 1e-6), exclude_max=True)
        masses = [_ulps(t, data.draw(st.integers(-4, 4))) if i in top else data.draw(below)
                  for i in range(5)]
        assert _pick(caller, masses) == f"l{min(top)}"

    check()


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


@pytest.mark.parametrize("view", [False, True], ids=["team", "single"])
@pytest.mark.parametrize("seed", range(7))
def test_forward_leaves_its_arguments_alone(seed, view):
    p = team_program(seed)
    if view:
        p = p.single_agent_view()
    b = init_beliefs(p)
    for _ in range(8):  # spread mass over several phases
        b = propagate_forward(b, p)
    A, B = b.active, b.blocked
    values = list(A.values()), list(B.values())
    NA, NB = p.forward(A, B)
    assert NA is not A and NB is not B
    assert (list(A.values()), list(B.values())) == values
    assert all(v is w for table, before in zip((A, B), values)
               for v, w in zip(table.values(), before))
    assert (NA, NB) != (A, B)  # the step did move mass
    zeros = dict(p.zeros)
    ones = dict.fromkeys(p.node_ids, 1.0)
    for state in ((zeros, zeros), (zeros, ones)):  # all-zero, then all-blocked
        assert p.forward(*state) == state


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
