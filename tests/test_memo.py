"""The step memo (``compiled.StepMemo``) against the memo-free step, in both layouts.

Every run of ``test_digest``'s sweep is replayed twice in step: by the
recognizer, whose quiet steps, evidence steps and queries go through the
memo, and by a reference that holds lists and runs the memo-free step:
in the array layout the interpreted commit, ``propagate_forward`` and a
scan of every leaf; in the shared layout ``propagate_forward``, the
interpreted evidence committed on fresh lists, and each team's pick.
Their states and answers must agree bit for bit.  The memo's bound is set
to 1 and to a small number, so entries are evicted all through the
replay, and left at its default, where steps are shared across runs.
"""

import math
from array import array

import pytest

from overhear import compiled
from overhear.belief import (BeliefState, MonitoringError, _commit_evidence, _message_keys,
                             _message_order, array_overseer_tick, evidence, init_beliefs,
                             most_likely_state, propagate_down, propagate_forward)
from overhear.ingest import TERM, ObservedMessage, messages_by_tick
from overhear.progen import grow_team, team_program
from overhear.recognizer import make_recognizer
from overhear.sim import SimConfig, simulate
from overhear.yoyo import _clamp_entries, _rescale, team_most_likely, yoyo_tick

from test_digest import SWEEP_SHA256, TICKS, sweep_replays

ARRAY_KEYS = [key for key in SWEEP_SHA256 if key[1] == "array"]
YOYO_KEYS = [key for key in SWEEP_SHA256 if key[1] == "yoyo"]


def _ids(key) -> str:
    return "/".join(map(str, key))


def _hex(b) -> list:
    return [v.hex() for v in (*b.act, *b.blk)]


def _bits(b) -> bytes:
    """The state's exact bits: equal exactly when every ``float.hex`` is."""
    return array("d", (*b.act, *b.blk)).tobytes()


def _reference_tick(rec, states: dict, msgs):
    """One tick of the array layout on list states, with no memo: each
    routed message committed by ``evidence`` and ``_commit_evidence``, in
    message order, and every other agent stepped by ``propagate_forward``."""
    view, inbox = rec.view, {}
    for m in sorted(msgs, key=_message_order):
        for agent in rec.recipients(m):
            inbox.setdefault(agent, []).append(m)
    for agent, b in states.items():
        if agent in inbox:
            for m in inbox[agent]:
                _commit_evidence(b, evidence(b, view, [m]), view)
        else:
            propagate_forward(b, view)


def _scan(view, b) -> int:
    """The most likely leaf by the compiled pick over every leaf."""
    return compiled._compile_scan(view.leaf_index).function(b.act, b.blk)


@pytest.mark.parametrize("bound", [1, 7, compiled.MEMO_STATES])
@pytest.mark.parametrize("key", ARRAY_KEYS, ids=_ids)
def test_the_memo_steps_and_answers_as_the_memo_free_step(key, bound, monkeypatch):
    monkeypatch.setattr(compiled, "MEMO_STATES", bound)
    compiled._next_live.cache_clear()  # every program below gets an empty memo
    memos = set()
    for _, rec, by_tick in sweep_replays(*key):
        view = rec.view
        states = {a: init_beliefs(view) for a in rec.agents}
        for t in range(TICKS):
            msgs = by_tick.get(t, [])
            rec.step(msgs)
            _reference_tick(rec, states, msgs)
            for agent, b in rec.beliefs.items():
                expected = states[agent]
                assert _bits(b) == _bits(expected), (key, t, agent, _hex(b), _hex(expected))
                if any(b.act[x] or b.blk[x] for x in view.leaf_index):
                    assert most_likely_state(b, view) == _scan(view, expected), (key, t, agent)
        memos.add(view.next_live.memo)
    if bound < 10:
        assert all(memo.evictions for memo in memos)


@pytest.mark.parametrize("key", SWEEP_SHA256, ids=_ids)
def test_no_engine_state_holds_a_negative_zero(key):
    # the memo interns states by their exact bits, where 0.0 and -0.0 differ
    for _, rec, by_tick in sweep_replays(*key):
        for t in range(TICKS):
            rec.step(by_tick.get(t, []))
            states = [rec.belief] if key[1] == "yoyo" else rec.beliefs.values()
            for b in states:
                assert all(math.copysign(1.0, v) > 0.0 for v in (*b.act, *b.blk)), (key, t)


def test_stepped_array_states_are_shared_immutable_tuples():
    p = team_program(0)
    view = p.single_agent_view()
    members = view.team_hierarchy.members("ALPHA")
    beliefs = {a: init_beliefs(view) for a in members}
    programs = {a: view for a in members}
    for k, agent in enumerate(members):  # a different prior for each member
        for _ in range(k + 1):
            array_overseer_tick({agent: beliefs[agent]}, programs, [])
    for b in beliefs.values():
        assert type(b.act) is tuple and type(b.blk) is tuple
        with pytest.raises(TypeError):
            b.act[0] = 0.5
        with pytest.raises(TypeError):
            b.blk[0] = 0.5
    assert len({id(b.act) for b in beliefs.values()}) == len(members)
    msg = ObservedMessage(4, members[0], "ALPHA", TERM, "phase-00")
    array_overseer_tick(beliefs, programs, [msg], recipients=lambda m: members)
    first = beliefs[members[0]]
    assert all(b.act is first.act and b.blk is first.blk for b in beliefs.values())
    # a coherent recognizer's members, stepped from one start, share every state
    rec = make_recognizer(p, "array", coherent=True)
    rec.step([])
    rec.step([msg])
    states = [rec.beliefs[a] for a in members]
    assert all(b.act is states[0].act and b.blk is states[0].blk for b in states)


def test_a_hit_needs_both_tuples_of_the_state():
    view = team_program(0).single_agent_view()
    b = init_beliefs(view)
    array_overseer_tick({"a": b}, {"a": view}, [])  # b now holds interned tuples
    prior = BeliefState(b.act, b.blk, b.index, b.live)
    array_overseer_tick({"a": b}, {"a": view}, [])  # stores the step of prior
    blk = list(prior.blk)
    blk[view.leaf_index[0]] = 0.25  # a state that shares only prior's active tuple
    other = BeliefState(prior.act, tuple(blk), prior.index, prior.live + (view.leaf_index[0],))
    expected = BeliefState(list(other.act), blk, other.index, other.live)
    array_overseer_tick({"a": other}, {"a": view}, [])
    propagate_forward(expected, view)
    assert _hex(other) == _hex(expected) and other.act is not b.act


def test_a_replayed_log_steps_from_the_memo():
    compiled._next_live.cache_clear()
    p = team_program(0)
    _, log = simulate(p, SimConfig(seed=3, ticks=120, team_mode=False))
    rec = make_recognizer(p, "array")
    memo = rec.view.next_live.memo
    for _ in rec.replay(log, 120):
        [rec.path(a) for a in rec.agents]
    first, visits = dict(memo.misses), rec.counter.visits
    assert first["quiet"] and first["commit"] and first["best"] and not memo.evictions
    rec = make_recognizer(p, "array")
    for _ in rec.replay(log, 120):
        [rec.path(a) for a in rec.agents]
    # only the first step from each agent's fresh lists is computed again
    again = {kind: memo.misses[kind] - first[kind] for kind in first}
    assert again["quiet"] + again["commit"] <= len(rec.agents) and again["best"] == 0
    assert rec.counter.visits == visits  # every quiet step still counts its nodes


def _reference_yoyo_tick(p, b, msgs):
    """One tick of the shared layout on a list state, with no memo:
    ``propagate_forward``, or the interpreted ``evidence`` committed on fresh
    lists, climbed and rescaled, then clamped where it wrote."""
    if not msgs:
        propagate_forward(b, p)
        return
    scratch = evidence(b, p, msgs)
    prior_active, prior_blocked = b.act, b.blk
    active = b.act = list(p.zeros)
    b.blk = list(p.zeros)
    updated: set[int] = set()
    for x in sorted(scratch):
        active[x] = max(active[x], scratch[x])
        updated.add(x)
        propagate_down(x, active[x], active, p, updated)
        for node, par, walk in p.evidence_climbs[x]:
            active[par] = max(active[par], active[node])
            updated.add(par)
            if walk:
                _rescale(walk, b, prior_active, prior_blocked, updated)
    _clamp_entries(b, updated)
    b.live = tuple(sorted(i for i in updated if not p.children_at[i]))


@pytest.mark.parametrize("bound", [1, 7, compiled.MEMO_STATES])
@pytest.mark.parametrize("key", YOYO_KEYS, ids=_ids)
def test_the_shared_memo_steps_and_answers_as_the_memo_free_step(key, bound, monkeypatch):
    monkeypatch.setattr(compiled, "MEMO_STATES", bound)
    compiled._next_live.cache_clear()  # every program below gets an empty memo
    memos = set()
    for _, rec, by_tick in sweep_replays(*key):
        p, b = rec.p, rec.belief
        expected = init_beliefs(p)
        for t in range(TICKS):
            msgs = by_tick.get(t, [])
            rec.step(msgs)
            _reference_yoyo_tick(p, expected, msgs)
            assert _bits(b) == _bits(expected), (key, t, _hex(b), _hex(expected))
            assert b.live == expected.live, (key, t)
            for team in rec.teams:
                answer = p.team_best_leaf[team](expected.act, expected.blk)
                assert team_most_likely(b, p, team) == answer, (key, t, team)
        memos.add(p.next_live.memo)
    if bound < 10:
        assert all(memo.evictions for memo in memos)


@pytest.mark.parametrize("key", YOYO_KEYS, ids=_ids)
def test_stepped_shared_states_are_immutable_tuples(key):
    for _, rec, by_tick in sweep_replays(*key):
        for t in range(TICKS):
            rec.step(by_tick.get(t, []))
            b = rec.belief
            assert type(b.act) is tuple and type(b.blk) is tuple, (key, t)
    with pytest.raises(TypeError):
        b.act[0] = 0.5
    with pytest.raises(TypeError):
        b.blk[0] = 0.5


def test_a_replayed_team_log_steps_from_the_memo():
    compiled._next_live.cache_clear()
    p = team_program(0)
    _, log = simulate(p, SimConfig(seed=3, ticks=300, team_mode=True))
    rec = make_recognizer(p, "yoyo")
    memo = p.next_live.memo
    for _ in rec.replay(log, 300):
        [rec.path(team) for team in rec.teams]
    first, visits = dict(memo.misses), rec.counter.visits
    assert first["quiet"] and first["commit"] and first["best"] and not memo.evictions
    rec = make_recognizer(p, "yoyo")
    for _ in rec.replay(log, 300):
        [rec.path(team) for team in rec.teams]
    # only the first step, from init_beliefs' fresh lists, is computed again
    again = {kind: memo.misses[kind] - first[kind] for kind in first}
    assert again["quiet"] + again["commit"] == 1 and again["best"] == 0
    assert rec.counter.visits == visits  # every quiet step still counts its nodes


def test_a_shared_hit_needs_both_tuples_of_the_state():
    # the evidence tick reads the prior blocked table and its rescale the
    # prior active one, so a state that shares either tuple alone with a
    # stored key is stepped and queried afresh
    compiled._next_live.cache_clear()
    p = team_program(0)
    _, log = simulate(p, SimConfig(seed=0, ticks=150, team_mode=True))
    by_tick = messages_by_tick(log)
    rec = make_recognizer(p, "yoyo")
    tick = min(t for t in by_tick if t >= 10)
    for t in range(1, tick):
        rec.step(by_tick.get(t, []))
    msgs, prior = by_tick[tick], rec.belief
    stored = BeliefState(prior.act, prior.blk, p.index, prior.live)
    yoyo_tick(p, stored, msgs)  # stores the evidence step of prior
    answers = {team: team_most_likely(prior, p, team) for team in rec.teams}
    moved = {"act": 0, "blk": 0}
    for name in moved:
        for x, v in enumerate(getattr(prior, name)):
            if not v:
                continue
            values = list(getattr(prior, name))
            values[x] = v / 2
            other = BeliefState(prior.act, prior.blk, p.index, prior.live)
            setattr(other, name, tuple(values))
            for team in rec.teams:
                pick = p.team_best_leaf[team](other.act, other.blk)
                assert team_most_likely(other, p, team) == pick, (name, x, team)
            expected = BeliefState(list(other.act), list(other.blk), p.index, other.live)
            yoyo_tick(p, other, msgs)
            _reference_yoyo_tick(p, expected, msgs)
            assert _bits(other) == _bits(expected), (name, x)
            moved[name] += _bits(other) != _bits(stored)
    assert all(moved.values()), moved
    assert answers == {team: team_most_likely(prior, p, team) for team in rec.teams}


def test_message_keys_keep_no_team_read_from_the_sender():
    # programs that differ only in their agents share one memo, so a key
    # whose team comes from the sender must be resolved for each program
    p = team_program(0)
    grown = grow_team(p, 1)
    assert grown.next_live.memo is p.next_live.memo
    (agent,) = set(grown.team_hierarchy.agent_names) - set(p.team_hierarchy.agent_names)
    team = grown.team_hierarchy.agent_team(agent)
    for m in (ObservedMessage(3, agent, "NO-SUCH-TEAM", TERM, "phase-00"),
              ObservedMessage(3, agent, "", TERM, "phase-00")):
        assert _message_keys(grown, [m]) == [(m, (TERM, "phase-00", team))]
        with pytest.raises(MonitoringError, match=f"unknown sender '{agent}'"):
            _message_keys(p, [m])
    m = ObservedMessage(3, agent, team, TERM, "phase-00")  # its own team: kept, and valid for p
    assert _message_keys(grown, [m]) == _message_keys(p, [m]) == [(m, (TERM, "phase-00", team))]
    assert p.next_live.memo.keys[(TERM, "phase-00", team)] == (TERM, "phase-00", team)
