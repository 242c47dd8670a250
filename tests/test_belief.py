import functools
import math
import random

import pytest

from overhear import compiled
from overhear.belief import (TIE_TOLERANCE, BeliefState, MonitoringError, Value, VisitCounter,
                             _message_keys, _prune_redundant_ancestors, adopt,
                             array_overseer_tick, evidence, init_beliefs, most_likely_state,
                             pick_leaf, quiet_step)
from overhear.ingest import INIT, TERM, ObservedMessage
from overhear.model import TERMINATE, descend, hazard, program_from_document
from overhear.progen import random_program, team_program
from overhear.recognizer import make_recognizer
from overhear.yoyo import team_most_likely, yoyo_tick

from conftest import (_reference_pick, brute_leaves, commit_messages, held_leaves,
                      propagate_down, propagate_forward)
from test_digest import (KERNEL_STATES, SWEEP_SHA256, TABLE_KINDS, TICKS, digest_table,
                         sweep_programs, sweep_replays, table_programs, warm_replays)


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


def test_a_belief_state_keeps_the_interface_its_readers_use(evac_mini_single):
    # what perfbench, the tests and the recognizers read of a state: the
    # constructor, equality on act and blk alone, the id-keyed snapshots
    # and their length, on a fresh state and on one the engine stepped,
    # whose value holds its tables and links and nothing else
    p = evac_mini_single
    act, blk = p.initial
    b = BeliefState(act, blk, p.index)
    assert b.act is act and b.blk is blk and b.index is p.index and b.value.memo is None
    assert repr(b) == f"BeliefState(act={act!r}, blk={blk!r})"
    with pytest.raises(TypeError):
        BeliefState(act, blk, p.index, (1, 2))  # a state takes its tables and index alone
    assert not hasattr(b, "live")
    assert b == BeliefState(act, blk, {})  # not the index
    assert b != BeliefState(act, act, p.index)
    with pytest.raises(TypeError):
        hash(b)
    stepped = init_beliefs(p)
    quiet_step(p, [stepped])
    for state in (b, stepped):
        assert len(state.active) == len(state.blocked) == len(p.node_ids)
        assert dict(state.active) == dict(zip(p.node_ids, state.act))
        assert dict(state.blocked) == dict(zip(p.node_ids, state.blk))
        before = state.active
        quiet_step(p, [state])  # a snapshot keeps what it read
        assert dict(before) != dict(state.active)
    assert type(stepped.act) is tuple and stepped.value.memo is p.compiled.memo
    assert not hasattr(stepped.value, "live")


def test_state_views_read_the_tables_by_node_id(evac_mini_single):
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
    b.value = Value(p.zeros, p.zeros)  # a view follows the value the state holds when it is read
    assert b.active[p.root] == 0.0
    assert init_beliefs(p).active[p.root] == 1.0


def test_a_fresh_state_holds_the_start_tables_and_equals_itself_adopted(evac_mini_single):
    p = evac_mini_single
    fresh, adopted = init_beliefs(p), init_beliefs(p)
    assert fresh.act is p.initial[0] and fresh.blk is p.initial[1]  # nothing copied
    assert adopt(adopted, p) is adopted.value and adopted.value.memo is p.compiled.memo
    assert fresh.value.memo is None and fresh == adopted


@pytest.mark.parametrize("extra", [-30, -1, 1, 5], ids=["10", "39", "41", "45"])
def test_a_state_of_the_wrong_length_is_refused_at_the_memo(extra):
    # every step and query adopts its state first, which checks both lengths
    p = team_program(0)
    view = p.single_agent_view()
    size = len(p.node_ids)
    for q, ask in ((view, lambda b: most_likely_state(b, view)),
                   (p, lambda b: team_most_likely(b, p, p.team_hierarchy.teams[0][0])),
                   (view, lambda b: quiet_step(view, [b])), (p, lambda b: quiet_step(p, [b]))):
        for act, blk in (([0.5] * (size + extra), list(p.zeros)),
                         (list(p.zeros), [0.5] * (size + extra))):
            b = BeliefState(act, blk, q.index)
            value = b.value
            with pytest.raises(ValueError, match=f"^a program of {size} nodes got a belief "
                                                 f"state of {len(act)} and {len(blk)} entries$"):
                ask(b)
            assert b.value is value


def test_states_of_equal_masses_are_equal_whatever_sequences_built_them(evac_mini_single):
    p = evac_mini_single
    act, blk = list(p.initial[0]), list(p.initial[1])
    built = BeliefState(act, blk, p.index)
    assert built == BeliefState(tuple(act), tuple(blk), p.index) == init_beliefs(p)
    assert type(built.act) is type(built.blk) is tuple
    act[p.index[p.root]] = 0.5  # the state holds its own tuple, not the caller's list
    assert built.active[p.root] == 1.0


def test_a_state_changes_only_by_taking_a_new_value(evac_mini_single):
    # a fresh state's tables take no write, and a state has no table to
    # assign: a step, or a caller, gives it a new value (``b.value``)
    p = evac_mini_single
    b, root = init_beliefs(p), p.index[p.root]
    for table in (b.act, b.blk):
        with pytest.raises(TypeError):
            table[root] = 0.5
    for name in ("act", "blk"):
        with pytest.raises(AttributeError):
            setattr(b, name, list(p.zeros))
    assert b == init_beliefs(p)


def test_exponential_decay_closed_form():
    p = _chain(lam_a=0.05, mu=0.0)
    b = init_beliefs(p)
    for k in range(1, 1001):
        propagate_forward(b, p)
        assert abs(b.active["a"] - math.exp(-0.05 * k)) <= 1e-9


def test_lambda_zero_is_identity():
    p = _chain(lam_a=0.0)
    b = init_beliefs(p)
    before = b.act, b.blk
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
    blk = list(p.zeros)
    blk[p.index["w1"]] = 0.3
    blk[p.index["w2"]] = 0.1
    b = BeliefState(p.initial[0], blk, p.index)
    m = ObservedMessage(0, "solo", "T", INIT, "shared-step")
    commit_messages(b, [m], p)
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
    commit_messages(b, [m], p)
    assert b.active["n2"] == pytest.approx(1.0)
    assert b.active["n6"] == pytest.approx(1.0)  # first child follows
    assert b.active["n0"] == pytest.approx(1.0)
    assert b.active["n1"] == 0.0
    assert most_likely_state(b, p) == p.index["n6"]


def test_term_message_moves_mass_to_successors(evac_team):
    p = evac_team.single_agent_view()
    b = init_beliefs(p)
    for _ in range(5):
        propagate_forward(b, p)
    m = ObservedMessage(5, "escort1", "TASK-FORCE", TERM, "process-orders")
    commit_messages(b, [m], p)
    assert b.active["n2"] == pytest.approx(1.0)
    assert b.active["n6"] == pytest.approx(1.0)


def test_unknown_plan_rejected(evac_mini_single):
    b = init_beliefs(evac_mini_single)
    m = ObservedMessage(0, "escort1", "ESCORT", INIT, "no-such-plan")
    with pytest.raises(MonitoringError, match="no-such-plan"):
        commit_messages(b, [m], evac_mini_single)


def test_surprise_message_falls_back_to_uniform(evac_mini_single):
    # INIT with zero blocked mass anywhere: truthfulness outranks the prior
    p = evac_mini_single
    b = init_beliefs(p)
    m = ObservedMessage(0, "escort1", "ESCORT", INIT, "fly-flight-plan")
    commit_messages(b, [m], p)
    assert b.active["n2"] == pytest.approx(1.0)


def test_term_before_init_in_one_tick(evac_team):
    p = evac_team.single_agent_view()
    b = init_beliefs(p)
    for _ in range(5):
        propagate_forward(b, p)
    msgs = [ObservedMessage(5, "a", "TASK-FORCE", INIT, "fly-flight-plan"),
            ObservedMessage(5, "a", "TASK-FORCE", TERM, "process-orders")]
    commit_messages(b, msgs, p)
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
    halves = list(p.zeros)
    for leaf, mass in zip(brute_leaves(p), masses):
        halves[p.index[leaf]] = mass / 2
    if caller == "array_team_path":
        rec = make_recognizer(p, "array", coherent=True)
        rec.beliefs = {"a1": BeliefState(halves, p.zeros, p.index),
                       "a2": BeliefState(p.zeros, halves, p.index)}
        return rec.path("T")[-1]
    first = BeliefState(halves, halves, p.index)
    if caller == "most_likely_state":
        return p.node_ids[most_likely_state(first, p)]
    return p.node_ids[team_most_likely(first, p, "T")]


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
def test_pick_leaf_matches_the_reference_loop_on_planted_ties(seed):
    rng = random.Random(seed)
    for _ in range(50):
        size = rng.randint(1, 60)
        leaves = tuple(sorted(rng.sample(range(size), rng.randint(1, size))))
        active, blocked = _planted(rng, leaves, size)
        assert pick_leaf(leaves, active, blocked) == _reference_pick(leaves, active, blocked)
        # a dict of summed masses against a zero table, as a coherent array team pick reads
        mass = {x: active[x] + blocked[x] for x in leaves}
        zeros = (0.0,) * size
        assert pick_leaf(leaves, mass, zeros) == _reference_pick(leaves, mass, zeros)


def test_pick_leaf_matches_the_reference_loop_on_zero_tables_and_single_leaves():
    for size in (1, 2, 7):
        zeros = [0.0] * size
        for leaves in [(x,) for x in range(size)] + [tuple(range(size))]:
            assert pick_leaf(leaves, zeros, zeros) == _reference_pick(
                leaves, zeros, zeros) == leaves[0]


def test_program_picks_match_the_reference_loop():
    # over every leaf and each team's candidates, a single-state query's
    # and a team query's leaves, in both modes
    rng = random.Random(0)
    for p in table_programs():
        for q in (p, p.single_agent_view()):
            size = len(q.node_ids)
            for leaves in (q.leaf_index, *q.leaves_by_team.values()):
                for _ in range(5):
                    active, blocked = _planted(rng, leaves, size)
                    assert pick_leaf(leaves, active, blocked) == _reference_pick(
                        leaves, active, blocked)


def test_most_likely_rejects_empty():
    # no mass anywhere, then mass on internal nodes alone: no leaf holds
    # mass, so the reference pick over every leaf holds none, and the query
    # raises and links no answer; mass on the last leaf alone, active or
    # blocked, is that leaf
    p = _chain()
    leaves = p.leaf_index
    b = BeliefState(p.zeros, p.zeros, p.index)
    for act in (p.zeros, [0.0 if x in leaves else 1.0 for x in range(len(p.node_ids))]):
        b.value = Value(act, p.zeros)
        assert not act[_reference_pick(leaves, act, p.zeros)]
        with pytest.raises(MonitoringError, match="no mass on any leaf"):
            most_likely_state(b, p)
        assert b.value.best is None
    for table in range(2):
        tables = [list(p.zeros), list(p.zeros)]
        tables[table][leaves[-1]] = 0.25
        b.value = Value(*tables)
        assert most_likely_state(b, p) == _reference_pick(leaves, *tables) == leaves[-1]


@pytest.mark.parametrize("seed", range(10))
def test_most_likely_picks_over_every_leaf_on_planted_ties(seed):
    # near-ties at the TIE_TOLERANCE boundary on a sample of leaves, some
    # of which hold no mass, and exact zeros on every other leaf, then mass
    # on the last leaf alone: the query is the reference pick over every
    # leaf, and raises only when that pick holds no mass
    rng = random.Random(seed)
    for p in table_programs():
        view = p.single_agent_view()
        leaves = view.leaf_index
        samples = [tuple(sorted(rng.sample(leaves, rng.randint(1, min(len(leaves), 7)))))
                   for _ in range(3)]
        for sample in (*samples, leaves[-1:]):
            active, blocked = _planted(rng, sample, len(view.node_ids))
            for x in leaves:
                if x not in sample or (len(sample) > 1 and rng.random() < 0.2):
                    active[x] = blocked[x] = 0.0
            b = BeliefState(active, blocked, view.index)
            expected = _reference_pick(leaves, active, blocked)
            if active[expected] + blocked[expected] > 0.0:
                assert most_likely_state(b, view) == expected
            else:
                with pytest.raises(MonitoringError):
                    most_likely_state(b, view)


def test_init_and_commits_answer_the_reference_pick():
    p = team_program(0)
    view = p.single_agent_view()
    msg = ObservedMessage(3, "alpha1", "ALPHA", TERM, "phase-00")
    for q in (p, view):  # in both modes
        b = init_beliefs(q)
        assert b.value.memo is None
        assert most_likely_state(b, q) == _reference_pick(q.leaf_index, b.act, b.blk)
        commit_messages(b, [msg], q)  # ``evidence`` and ``_commit_evidence``
        assert most_likely_state(b, q) == _reference_pick(q.leaf_index, b.act, b.blk)


# entries of a planted table: exact 0 and 1, just below 1, subnormal
_PLANTED = (0.0, 1.0, math.nextafter(1.0, 0.0), 5e-324, 2.0 ** -1060)


def _planted_live(rng: random.Random, q, live) -> list:
    """A table whose leaves outside ``live``, a set of leaves, hold 0.0 and
    whose other entries are ``_PLANTED`` values or uniform in [0, 1)."""
    outside = set(q.leaf_index).difference(live)
    return [0.0 if i in outside else rng.choice(_PLANTED) if rng.random() < 0.7
            else rng.random() for i in range(len(q.node_ids))]


@pytest.mark.parametrize("key", SWEEP_SHA256, ids=lambda key: "/".join(map(str, key)))
def test_the_quiet_step_of_planted_tables_equals_the_memo_free_step(key):
    # every state a sweep replay steps, in both layouts, and for each set
    # of leaves that hold mass the replay meets, planted tables on those
    # leaves that cap, floor and skip where no run does: a hand-built state
    # of those bits, adopted by the step, steps to the memo-free step's bits
    corpus, mode, coherent = key
    rng = random.Random("/".join(map(str, key)))
    states = planted = 0
    for _, rec, by_tick in sweep_replays(corpus, mode, coherent):
        q, seen = (rec.p if mode == "yoyo" else rec.view), set()
        for t in range(TICKS):
            for b in [rec.belief] if mode == "yoyo" else rec.beliefs.values():
                live = held_leaves(q, b)
                tables = [(b.act, b.blk)]
                if live not in seen:
                    seen.add(live)
                    tables += [(_planted_live(rng, q, live), _planted_live(rng, q, live))
                               for _ in range(4)]
                    planted += 4
                for A, B in tables:
                    stepped, expected = (BeliefState(list(A), list(B), q.index)
                                         for _ in range(2))
                    assert set(held_leaves(q, stepped)) <= set(live), (key, t)
                    quiet_step(q, [stepped])
                    assert stepped.value.memo is q.compiled.memo
                    propagate_forward(expected, q)
                    assert (stepped.act, stepped.blk) == tuple(map(tuple, (expected.act,
                                                                            expected.blk)))
                states += 1
            rec.step(by_tick.get(t, []))
    assert states and planted


@pytest.mark.parametrize("memo", ["cold", "warm"])
@pytest.mark.parametrize("key", SWEEP_SHA256, ids=lambda key: "/".join(map(str, key)))
def test_every_sweep_state_holds_a_memo_value_and_answers_the_reference_pick(key, memo):
    # in both layouts every state a step leaves holds a memo value, and
    # each query answers as the reference pick over every leaf, or raises
    # where no leaf holds mass; cold: the step memo starts empty, so a step
    # is computed where the sweep first meets it; warm: each replay follows
    # an equal one, so its steps are links that equal one made
    if memo == "cold":
        compiled._compile.cache_clear()
    yoyo, states = key[1] == "yoyo", 0
    for _, rec, by_tick in (sweep_replays if memo == "cold" else warm_replays)(*key):
        q = rec.p if yoyo else rec.view
        leaves = q.leaf_index
        for t in range(TICKS):
            rec.step(by_tick.get(t, []))
            for unit, b in ({"": rec.belief} if yoyo else rec.beliefs).items():
                assert b.value.memo is q.compiled.memo, (key, t, unit)
                if yoyo:
                    for team in rec.teams:
                        assert team_most_likely(b, q, team) == _reference_pick(
                            q.leaves_by_team[team], b.act, b.blk), (key, t, team)
                elif held_leaves(q, b):
                    assert most_likely_state(b, q) == _reference_pick(
                        leaves, b.act, b.blk), (key, t, unit)
                else:
                    with pytest.raises(MonitoringError):
                        most_likely_state(b, q)
                states += 1
    assert states > 0


def test_queries_answer_with_a_candidate_leaf_position():
    rng = random.Random(0)
    for p in table_programs():
        view = p.single_agent_view()
        for _ in range(5):
            b = BeliefState(*_planted(rng, p.leaf_index, len(p.node_ids)), p.index)
            leaf = most_likely_state(b, view)
            assert type(leaf) is int and leaf in view.leaf_index
            assert view.path_names(leaf) == view.name_paths_at[leaf]
            for team, leaves in p.leaves_by_team.items():
                leaf = team_most_likely(b, p, team)
                assert type(leaf) is int and leaf in leaves
                assert p.path_names(leaf) == p.name_paths_at[leaf]


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


def _stepped(p, ticks: int) -> BeliefState:
    """A fresh state of p after ``ticks`` quiet steps."""
    b = init_beliefs(p)
    for _ in range(ticks):
        propagate_forward(b, p)
    return b


def test_the_first_sender_in_message_order_picks_a_shared_nodes_team():
    # ALPHA executes alpha-02-step0, so a TERM of it opens its successor for
    # ALPHA but nothing for BRAVO, and the source falls back to itself; the
    # message read first (by sender) decides, in a shared tick and in the
    # array layout's commits, which read the messages in that order
    p = team_program(0)
    start = _stepped(p, 30)
    source = p.named_index["alpha-02-step0"]
    masses, states = [], {"yoyo": [], "array": []}
    for alpha, bravo in (("a", "z"), ("z", "a")):
        msgs = [ObservedMessage(30, alpha, "ALPHA", TERM, "alpha-02-step0"),
                ObservedMessage(30, bravo, "BRAVO", TERM, "alpha-02-step0")]
        masses.append(evidence(start.blk, p, _message_keys(p, msgs)))
        for layout, step in (("yoyo", lambda b: yoyo_tick(p, b, msgs)),
                             ("array", lambda b: commit_messages(b, msgs, p))):
            b = BeliefState(start.act, start.blk, start.index)
            step(b)
            states[layout].append((b.act, b.blk))
    assert set(masses[0]).isdisjoint(source) and set(masses[1]) == set(source)
    for layout, (first, second) in states.items():
        assert first != second, layout
    # the shared tick commits the whole tick's evidence
    for (act, _), mass in zip(states["yoyo"], masses):
        assert all(act[x] >= m for x, m in mass.items())


@pytest.mark.parametrize("view", [False, True], ids=["team", "single"])
def test_unknown_plans_and_teams_raise_evidences_texts_and_are_not_cached(view):
    p = team_program(0)
    if view:
        p = p.single_agent_view()  # which reads no team, so NOBODY passes there
    b = _stepped(p, 12)
    cases = [[ObservedMessage(7, "alpha1", "ALPHA", INIT, "no-such-plan")],
             [ObservedMessage(7, "alpha1", "ALPHA", TERM, "phase-00"),
              ObservedMessage(7, "alpha2", "ALPHA", TERM, "no-such-plan")],
             [ObservedMessage(7, "stranger", "NOBODY", TERM, "phase-00")],
             # amy's message is read first, so its plan fails before zed's team
             [ObservedMessage(7, "zed", "NOBODY", TERM, "phase-01"),
              ObservedMessage(7, "amy", "ALPHA", TERM, "no-such-plan")]]
    memo, teams = p.compiled.memo, {t for t, _ in p.team_hierarchy.teams}
    raised = 0
    for msgs in cases:
        try:
            _message_keys(p, msgs)
        except MonitoringError as exc:
            reference = str(exc)
        else:
            assert view and msgs[0].team == "NOBODY"
            continue
        raised += 1
        before, values = b.value, (b.act, b.blk)
        links, misses = len(memo.linked), dict(memo.misses)
        for step in (lambda: yoyo_tick(p, b, msgs), lambda: commit_messages(b, msgs, p)):
            with pytest.raises(MonitoringError) as got:
                step()
            assert str(got.value) == reference
        assert b.value is before
        assert (b.act, b.blk) == values
        # no step is linked, and no message key kept but those that resolve
        assert len(memo.linked) == links and memo.misses == misses
        for _, plan, team in memo.keys.values():
            assert plan in p.named_index and (team in teams if p.team_mode else team is None)
    assert raised == (3 if view else 4)


def test_a_failing_array_tick_steps_no_state():
    # alpha1's message is good and alpha3's names no plan: the tick raises
    # the reference's text before alpha1 takes evidence or alpha2 steps
    p = team_program(0)
    view = p.single_agent_view()
    agents = p.team_hierarchy.agent_names
    beliefs = {a: init_beliefs(view) for a in agents}
    programs = {a: view for a in agents}
    for _ in range(5):
        array_overseer_tick(beliefs, programs, [])
    bad = ObservedMessage(5, "alpha3", "ALPHA", TERM, "no-such-plan")
    msgs = [ObservedMessage(5, "alpha1", "ALPHA", TERM, "phase-00"), bad]
    tables = {a: (b.act, b.blk) for a, b in beliefs.items()}
    with pytest.raises(MonitoringError) as info:
        array_overseer_tick(beliefs, programs, msgs)
    with pytest.raises(MonitoringError) as reference:
        _message_keys(view, [bad])
    assert str(info.value) == str(reference.value)
    for a, b in beliefs.items():
        assert b.act is tables[a][0] and b.blk is tables[a][1]


def test_a_failing_array_tick_raises_for_the_first_agent_in_beliefs_order():
    # two agents' messages name no plan, and the later agent's plan sorts
    # first: each agent's inbox is keyed in ``beliefs`` order, so the tick
    # raises the first agent's text, whatever the message or plan order,
    # and steps no state
    p = team_program(0)
    view = p.single_agent_view()
    h = p.team_hierarchy
    agents = h.agent_names
    beliefs = {a: init_beliefs(view) for a in agents}
    programs = {a: view for a in agents}
    for _ in range(5):
        array_overseer_tick(beliefs, programs, [])
    first, later = agents[0], agents[-1]
    bad = ObservedMessage(5, first, h.agent_team(first), TERM, "z-no-such-plan")
    msgs = [ObservedMessage(5, later, h.agent_team(later), TERM, "a-no-such-plan"), bad]
    values = {a: b.value for a, b in beliefs.items()}
    with pytest.raises(MonitoringError) as info:
        array_overseer_tick(beliefs, programs, msgs)
    with pytest.raises(MonitoringError) as reference:
        _message_keys(view, [bad])
    assert str(info.value) == str(reference.value)
    assert "'z-no-such-plan'" in str(info.value)
    assert all(b.value is values[a] for a, b in beliefs.items())


@pytest.mark.parametrize("missing", ["escort2", "escort1"], ids=["quiet", "messaged"])
def test_an_array_tick_with_an_agent_missing_from_programs_steps_no_state(evac_mini, missing):
    # escort1 sends and sorts before escort2: whether the agent with no
    # program is the quiet one or the sender, the tick raises naming it
    # before escort1 takes its message or any state steps
    view = evac_mini.single_agent_view()
    agents = sorted(evac_mini.team_hierarchy.agent_names)
    beliefs = {a: init_beliefs(view) for a in agents}
    programs = {a: view for a in agents if a != missing}
    values = {a: b.value for a, b in beliefs.items()}
    msg = ObservedMessage(0, "escort1", "ESCORT", TERM, "process-orders")
    with pytest.raises(MonitoringError, match=f"no program for agent '{missing}'"):
        array_overseer_tick(beliefs, programs, [msg])
    assert all(b.value is values[a] for a, b in beliefs.items())


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
        quiet_step(p, [b], counter)
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
    NA, NB = p.compiled.forward(A, B)
    assert NA is not A and NB is not B
    assert (list(A), list(B)) == values
    assert all(v is w for table, before in zip((A, B), values)
               for v, w in zip(table, before))
    assert (NA, NB) != (A, B)  # the step did move mass
    zeros = list(p.zeros)
    ones = [1.0] * len(p.node_ids)
    for state in ((zeros, zeros), (zeros, ones)):  # all-zero, then all-blocked
        assert p.compiled.forward(*state) == state


def _reference_forward(p, active: list, blocked: list) -> tuple[list, list]:
    """``p.compiled.forward``, interpreted node by node with no step table.

    Each leaf sheds its prior active mass times its hazard.  In postorder,
    a node whose shed is nonzero sends it along every edge out, scaled by
    the edge's silent share ``1 - mu`` and by ``pi``: to a successor and
    down its first-child groups (the recursive ``propagate_down``), out of
    the program into the root's blocked mass, or into the parent's shed,
    divided among the parent's groups.  The node keeps ``max(0, 1 - eta)`` of its shed
    as blocked mass, and the shed leaves its active mass.  Every active
    mass is then floored at 0, and in team mode every entry is capped at 1.
    """
    act, blk, index = list(active), list(blocked), p.index
    shed = [0.0] * len(act)
    for i in p.leaf_index:
        shed[i] = active[i] * hazard(p.plans[i].rate)
    for i in p.postorder:
        o = shed[i]
        if not o:
            continue
        eta = sum((1.0 - t.mu) * t.pi for t in p.out_at[i])
        for t in p.out_at[i]:
            r = o * (1.0 - t.mu) * t.pi
            if t.dst != TERMINATE:
                act[index[t.dst]] += r
                propagate_down(index[t.dst], r, act, p)
            elif not p.ancestors_at[i]:
                blk[i] += r
            else:
                parent = p.ancestors_at[i][0]
                shed[parent] += r / len(p.groups_at[parent])
        blk[i] += o * max(0.0, 1.0 - eta)
        act[i] -= o
    act = [0.0 if v < 0.0 else v for v in act]
    if p.team_mode:
        return [min(v, 1.0) for v in act], [min(v, 1.0) for v in blk]
    return act, blk


def _plan(pid, name, team, parent, first=False, rate=None):
    plan = {"id": pid, "name": name, "team": team, "parent": parent, "first_child": first}
    return plan if rate is None else {**plan, "lambda": rate}


def _divides_twice():
    """A program whose successor's descent divides a share it divided
    before, which no sweep program's does: ``start`` hands its shed to
    ``split``, whose first-child group (``pair-a``, ``pair-b``) halves it,
    and ``pair-a``'s group of U-owned children splits a half in three.
    ``pair-a`` has a second group in team mode, its V-owned child, which
    takes the half; the single-agent view makes one group of four.  Every
    leaf and internal node sheds, and the root's shed leaves the program."""
    plans = [_plan("r", "top", "T", None),
             _plan("s1", "start", "T", "r", True, 0.3), _plan("s2", "split", "T", "r"),
             _plan("a", "pair-a", "T", "s2", True), _plan("b", "pair-b", "T", "s2", True, 0.2),
             *(_plan(f"a{k}", f"trio-{k}", "U", "a", True, 0.3 + k / 10) for k in (1, 2, 3)),
             _plan("av", "aside", "V", "a", True, 0.7)]
    ends = {"s2": 0.0, "a": 0.0, "b": 0.5, "a1": 0.0, "a2": 0.25, "a3": 0.0, "av": 0.0,
            "r": 0.5}
    trans = [{"from": "s1", "to": "s2", "pi": 1.0, "mu": 0.25},
             *({"from": x, "to": TERMINATE, "pi": 1.0, "mu": mu} for x, mu in ends.items())]
    return program_from_document({
        "teams": [{"name": "T", "parent": None}, {"name": "U", "parent": "T"},
                  {"name": "V", "parent": "T"}],
        "agents": [{"name": "u1", "team": "U"}, {"name": "v1", "team": "V"}],
        "root": "r", "plans": plans, "transitions": trans}, team_mode=True)


def test_the_divides_twice_program_divides_twice_in_both_modes():
    p = _divides_twice()
    split, pair, aside = (p.named_index[name][0] for name in ("split", "pair-a", "aside"))
    trio = tuple(p.named_index[f"trio-{k}"][0] for k in (1, 2, 3))
    for q, groups in ((p, (trio, (aside,))), (p.single_agent_view(), ((*trio, aside),))):
        assert q.groups_at[split] == ((pair, p.named_index["pair-b"][0]),)
        assert q.groups_at[pair] == groups


FORWARD_CORPORA = {
    **{corpus: lambda corpus=corpus: sweep_programs(corpus)[0]
       for corpus in ("team_program", "nested", "random_program")},
    "divides-twice": lambda: [_divides_twice()],
}


@pytest.mark.parametrize("corpus", FORWARD_CORPORA)
def test_forward_matches_the_reference_step(corpus):
    """The forward step in both modes, on every sweep program and its
    single-agent view and on one program whose descent divides twice,
    against ``_reference_forward`` bit for bit, on tables no run reaches."""
    for prog, p in enumerate(FORWARD_CORPORA[corpus]()):
        for q in (p, p.single_agent_view()):
            rng = random.Random(f"{corpus}/{prog}/{q.team_mode}")
            size = len(q.node_ids)
            for kind in TABLE_KINDS:
                for _ in range(KERNEL_STATES):
                    A, B = digest_table(rng, kind, size), digest_table(rng, kind, size)
                    got, want = q.compiled.forward(A, B), _reference_forward(q, A, B)
                    assert ([list(map(float.hex, t)) for t in got]
                            == [list(map(float.hex, t)) for t in want]), (prog, kind)


@pytest.mark.parametrize("corpus", FORWARD_CORPORA)
def test_descend_matches_the_recursive_reference(corpus):
    """``model.descend`` of each node's ``descents_at`` entry, on every
    sweep program and its single-agent view and on one program whose
    descent divides twice, against the recursive ``propagate_down`` bit
    for bit, for seeded masses credited onto seeded tables; the children
    ``yoyo._climb`` adds to ``updated``, the descent's, are the positions
    the reference credits."""
    for prog, p in enumerate(FORWARD_CORPORA[corpus]()):
        for q in (p, p.single_agent_view()):
            rng = random.Random(f"{corpus}/{prog}/{q.team_mode}")
            size = len(q.node_ids)
            for x, descent in enumerate(q.descents_at):
                for kind in TABLE_KINDS:
                    rho = rng.choice((1.0, rng.random(), 5e-324, 1.0 / 3.0))
                    got = digest_table(rng, kind, size)
                    want, credited = list(got), set()
                    descend(descent, rho, got)
                    propagate_down(x, rho, want, q, credited)
                    assert list(map(float.hex, got)) == list(map(float.hex, want)), (prog, x)
                    assert {c for c, _, _ in descent} == credited, (prog, x)


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
            scratch = evidence(b.blk, p, _message_keys(p, [m]))
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
        for x, mass in evidence(b.blk, p, _message_keys(p, msgs)).items():
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
