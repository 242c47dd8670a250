"""The array layout's step memo (``compiled.StepMemo``) against the memo-free step.

Every array run of ``test_digest``'s sweep, agent and coherent, is replayed
twice in step: by the recognizer, whose quiet steps, commits and queries go
through the memo, and by a reference that holds lists and runs the
interpreted commit, ``propagate_forward`` and a scan of every leaf.  Their
states and answers must agree bit for bit.  The memo's bound is set to 1
and to a small number, so entries are evicted all through the replay, and
left at its default, where steps are shared across agents and runs.
"""

import math
from array import array

import pytest

from overhear import compiled
from overhear.belief import (BeliefState, _commit_evidence, _message_order, array_overseer_tick,
                             evidence, init_beliefs, most_likely_state, propagate_forward)
from overhear.ingest import TERM, ObservedMessage
from overhear.progen import team_program
from overhear.recognizer import make_recognizer
from overhear.sim import SimConfig, simulate

from test_digest import SWEEP_SHA256, TICKS, sweep_replays

ARRAY_KEYS = [key for key in SWEEP_SHA256 if key[1] == "array"]


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
