import functools
import inspect
import math
import random

import pytest

from overhear.belief import (TIE_TOLERANCE, BeliefState, MonitoringError, VisitCounter,
                             _prune_redundant_ancestors, apply_messages,
                             array_overseer_tick, evidence, init_beliefs, most_likely_state,
                             propagate_down, propagate_forward)
from overhear.ingest import INIT, TERM, ObservedMessage
from overhear.model import _compile_scan, hazard, program_from_document
from overhear.progen import random_program, team_program
from overhear.recognizer import make_recognizer
from overhear.social import apply_comm_model, learn_comm_model
from overhear.yoyo import team_most_likely, yoyo_tick

from conftest import brute_leaves
from test_digest import table_programs


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
    root = p.index[p.root]
    z = list(p.zeros)
    z[root] = 1.0
    fresh = list(p.zeros)
    assert type(fresh) is list and fresh is not z
    assert fresh == [0.0] * len(p.node_ids)
    with pytest.raises(TypeError):
        p.zeros[root] = 1.0
    assert p.zeros[root] == 0.0


def test_state_views_read_the_lists_by_node_id(evac_mini_single):
    p = evac_mini_single
    b = init_beliefs(p)
    assert list(b.active) == list(b.blocked) == list(p.node_ids)
    assert dict(b.active) == dict(zip(p.node_ids, b.act))
    assert dict(b.blocked) == dict(zip(p.node_ids, b.blk))
    assert [p.index[x] for x in p.node_ids] == list(range(len(p.node_ids)))
    with pytest.raises(TypeError):
        b.active[p.root] = 0.5
    with pytest.raises(KeyError):
        b.blocked["no-such-node"]
    b.act[p.index[p.root]] = 0.5
    assert b.active[p.root] == 0.5
    assert init_beliefs(p).active[p.root] == 1.0  # each state copies the start tables
    b.act = list(p.zeros)  # a view follows the list the state holds when it is read
    assert b.active[p.root] == 0.0


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
    b.act[:] = b.blk[:] = p.zeros
    propagate_down(p.index["r"], 0.4, b.act, p)
    assert b.active["a"] == pytest.approx(0.2)
    assert b.active["b"] == pytest.approx(0.2)
    assert b.active["a1"] == pytest.approx(0.1)
    assert b.active["a2"] == pytest.approx(0.1)
    before = dict(b.active)
    propagate_down(p.index["a1"], 0.4, b.act, p)  # leaf: no-op
    assert b.active == before


def test_exponential_decay_closed_form():
    p = _chain(lam_a=0.05, mu=0.0)
    b = init_beliefs(p)
    for k in range(1, 1001):
        propagate_forward(b, p)
        assert abs(b.active["a"] - math.exp(-0.05 * k)) <= 1e-9


def test_lambda_zero_is_identity():
    p = _chain(lam_a=0.0)
    b = init_beliefs(p)
    before = list(b.act), list(b.blk)
    propagate_forward(b, p)
    assert (b.act, b.blk) == before


def test_eta_zero_blocks_everything():
    p = _chain(lam_a=0.3, mu=1.0, extra_leaf=True)
    b = init_beliefs(p)
    for k in range(1, 200):
        propagate_forward(b, p)
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
        b, leaves = init_beliefs(p), brute_leaves(p)
        start = sum(b.active[x] for x in leaves) + sum(b.blocked.values())
        for _ in range(200):
            propagate_forward(b, p)
            mass = sum(b.active[x] for x in leaves) + sum(b.blocked.values())
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
    b.blk[p.index["w1"]] = 0.3
    b.blk[p.index["w2"]] = 0.1
    m = ObservedMessage(0, "solo", "T", INIT, "shared-step")
    apply_messages(b, [m], p)
    assert b.active["x1"] == pytest.approx(0.75)
    assert b.active["x2"] == pytest.approx(0.25)
    assert b.active["r"] == pytest.approx(1.0)
    assert b.active["w1"] == 0.0


def test_evidence_commits_full_path(evac_team):
    p = evac_team.single_agent_view()
    b = init_beliefs(p)
    for _ in range(5):
        propagate_forward(b, p)
    assert b.blocked["n1"] > 0
    m = ObservedMessage(5, "escort1", "TASK-FORCE", INIT, "fly-flight-plan")
    apply_messages(b, [m], p)
    assert b.active["n2"] == pytest.approx(1.0)
    assert b.active["n6"] == pytest.approx(1.0)  # first child follows
    assert b.active["n0"] == pytest.approx(1.0)
    assert b.active["n1"] == 0.0
    assert most_likely_state(b, p) == ("n0", "n2", "n6")


def test_term_message_moves_mass_to_successors(evac_team):
    p = evac_team.single_agent_view()
    b = init_beliefs(p)
    for _ in range(5):
        propagate_forward(b, p)
    m = ObservedMessage(5, "escort1", "TASK-FORCE", TERM, "process-orders")
    apply_messages(b, [m], p)
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
    apply_messages(b, [m], p)
    assert b.active["n2"] == pytest.approx(1.0)


def test_term_before_init_in_one_tick(evac_team):
    p = evac_team.single_agent_view()
    b = init_beliefs(p)
    for _ in range(5):
        propagate_forward(b, p)
    msgs = [ObservedMessage(5, "a", "TASK-FORCE", INIT, "fly-flight-plan"),
            ObservedMessage(5, "a", "TASK-FORCE", TERM, "process-orders")]
    apply_messages(b, msgs, p)
    # TERM processed first, INIT second: both land on fly-flight-plan
    assert b.active["n2"] == pytest.approx(1.0)


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
    first, second = (BeliefState(list(p.zeros), list(p.zeros), p.index) for _ in range(2))
    for leaf, mass in zip(brute_leaves(p), masses):
        first.act[p.index[leaf]] = second.blk[p.index[leaf]] = mass / 2
    if caller == "array_team_path":
        rec = make_recognizer(p, "array", coherent=True)
        rec.beliefs = {"a1": first, "a2": second}
        return rec.path("T")[-1]
    first.blk[:] = second.blk
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


def _reference_pick(leaves, active, blocked):
    """The pick rule as a plain loop over ``leaves``: the generated scans must agree."""
    best, bar = None, -math.inf
    for leaf in leaves:
        mass = active[leaf] + blocked[leaf]
        if mass > bar:
            best, bar = leaf, mass * (1.0 + TIE_TOLERANCE)
    return best


def _planted(rng: random.Random, leaves, size: int) -> tuple[list, list]:
    """Random tables whose leaves hold near-ties of one top mass: within 4 ulps,
    and 10 ``TIE_TOLERANCE``s above and below it, each split into two exact halves."""
    active = [rng.random() for _ in range(size)]
    blocked = [rng.random() * rng.choice((0.0, 1.0)) for _ in range(size)]
    top = 1.0 + rng.random()
    near = [_ulps(top, k) for k in range(-4, 5)] + [top * (1 + 10 * TIE_TOLERANCE),
                                                    top * (1 - 10 * TIE_TOLERANCE)]
    for leaf in rng.sample(leaves, min(len(leaves), rng.randint(1, 6))):
        active[leaf] = blocked[leaf] = rng.choice(near) / 2
    return active, blocked


@pytest.mark.parametrize("seed", range(20))
def test_scan_matches_the_reference_loop_on_planted_ties(seed):
    rng = random.Random(seed)
    for _ in range(50):
        size = rng.randint(1, 60)
        leaves = tuple(sorted(rng.sample(range(size), rng.randint(1, size))))
        scan = _compile_scan(leaves).function
        active, blocked = _planted(rng, leaves, size)
        assert scan(active, blocked) == _reference_pick(leaves, active, blocked)
        # a dict of summed masses against a zero table, as a coherent array team pick reads
        mass = {x: active[x] + blocked[x] for x in leaves}
        zeros = (0.0,) * size
        assert scan(mass, zeros) == _reference_pick(leaves, mass, zeros)


def test_scan_matches_the_reference_loop_on_zero_tables_and_single_leaves():
    for size in (1, 2, 7):
        zeros = [0.0] * size
        for leaves in [(x,) for x in range(size)] + [tuple(range(size))]:
            scan = _compile_scan(leaves).function
            assert scan(zeros, zeros) == _reference_pick(leaves, zeros, zeros) == leaves[0]


def test_program_scans_match_the_reference_loop():
    rng = random.Random(0)
    for p in table_programs():
        for q in (p, p.single_agent_view()):
            size = len(q.node_ids)
            picks = [(q.leaf_index, q.best_leaf)] + [
                (q.leaves_by_team[team], q.team_best_leaf[team]) for team in q.leaves_by_team]
            for leaves, scan in picks:
                for _ in range(5):
                    active, blocked = _planted(rng, leaves, size)
                    assert scan(active, blocked) == _reference_pick(leaves, active, blocked)


def test_scans_are_shared_by_leaf_tuple():
    p = team_program(0)
    q = apply_comm_model(p, learn_comm_model([]))
    assert q is not p and q.best_leaf is p.best_leaf
    assert q.team_best_leaf == p.team_best_leaf
    assert p.single_agent_view().best_leaf is p.best_leaf
    assert inspect.getsource(p.best_leaf).startswith("def scan(A, B):\n")


def test_most_likely_rejects_empty():
    p = _chain()
    b = init_beliefs(p)
    b.act[:] = p.zeros
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


def test_ticks_step_the_callers_states_in_place(evac_mini):
    # both layouts keep each state object and give it new lists, on a quiet
    # tick and on an evidence tick
    view = evac_mini.single_agent_view()
    agents = sorted(evac_mini.team_hierarchy.agent_names)
    beliefs = {a: init_beliefs(view) for a in agents}
    programs = {a: view for a in agents}
    shared = init_beliefs(evac_mini)
    states = [shared, *beliefs.values()]
    msg = ObservedMessage(1, "escort1", "ESCORT", TERM, "process-orders")
    for msgs in ([], [msg]):
        lists = [(s.act, s.blk) for s in states]
        array_overseer_tick(beliefs, programs, msgs)
        yoyo_tick(evac_mini, shared, msgs)
        assert all(beliefs[a] is s for a, s in zip(agents, states[1:]))
        for s, (act, blk) in zip(states, lists):
            assert s.act is not act and s.blk is not blk
    assert beliefs["escort1"].active["n2"] == pytest.approx(1.0)


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
        propagate_forward(b, p, counter)
    assert counter.visits == 10 * len(p.node_ids)


@pytest.mark.parametrize("view", [False, True], ids=["team", "single"])
@pytest.mark.parametrize("seed", range(7))
def test_forward_leaves_its_arguments_alone(seed, view):
    p = team_program(seed)
    if view:
        p = p.single_agent_view()
    b = init_beliefs(p)
    for _ in range(8):  # spread mass over several phases
        propagate_forward(b, p)
    A, B = b.act, b.blk
    values = list(A), list(B)
    NA, NB = p.forward(A, B)
    assert NA is not A and NB is not B
    assert (list(A), list(B)) == values
    assert all(v is w for table, before in zip((A, B), values)
               for v, w in zip(table, before))
    assert (NA, NB) != (A, B)  # the step did move mass
    zeros = list(p.zeros)
    ones = [1.0] * len(p.node_ids)
    for state in ((zeros, zeros), (zeros, ones)):  # all-zero, then all-blocked
        assert p.forward(*state) == state


def test_evidence_scratch_sums_to_one():
    # the array layout: one message on a single-agent program, one unit
    rng = random.Random(21)
    for _ in range(20):
        p = random_program(rng.randrange(100_000))
        b, ticks = init_beliefs(p), rng.randrange(1, 30)
        for _ in range(ticks):
            propagate_forward(b, p)
        names = sorted({p.node(x).name for x in p.node_ids})
        m = ObservedMessage(ticks, "solo", "SOLO", INIT, rng.choice(names))
        try:
            scratch = evidence(b, p, [m])
        except MonitoringError:
            continue  # named the root: no in-transitions and no fallback base
        assert sum(scratch.values()) == pytest.approx(1.0, abs=1e-9)
    # the shared layout: several messages on one tick, one unit per owning team
    for _ in range(40):
        p = team_program(rng.randrange(7))
        h = p.team_hierarchy
        b, ticks = init_beliefs(p), rng.randrange(1, 60)
        for _ in range(ticks):
            yoyo_tick(p, b, [])
        names = sorted({p.node(x).name for x in p.node_ids})
        msgs = [ObservedMessage(ticks, a, h.agent_team(a), rng.choice((INIT, TERM)),
                                rng.choice(names))
                for a in rng.choices(h.agent_names, k=rng.randrange(1, 6))]
        sums: dict[str, float] = {}
        for x, mass in evidence(b, p, msgs).items():
            sums[p.owner_at[x]] = sums.get(p.owner_at[x], 0.0) + mass
        assert sums
        assert all(v == pytest.approx(1.0, abs=1e-9) for v in sums.values())


def test_prune_keeps_the_topmost_node_of_a_chain():
    # phase-05 is bravo-05-step1's parent: committing it already spreads
    # mass down to the step, so the step is the one dropped
    p = team_program(2)
    (phase,), (step,) = p.named_index["phase-05"], p.named_index["bravo-05-step1"]
    assert p.ancestors_at[step][0] == phase
    assert _prune_redundant_ancestors(p, {phase, step}) == [phase]
    assert _prune_redundant_ancestors(p, {step}) == [step]
