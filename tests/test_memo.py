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

The sweep must also keep its pins (``SWEEP_SHA256``, ``QUERY_SHA256``)
when each replay is a lookup of an equal one's steps, and when each tick's
messages come in another order; and on planted tables that no sweep tick
reaches, each evidence step, computed and then looked up, must equal a
reference.
"""

import math
import random
from array import array

import pytest

from overhear import compiled
from overhear.belief import (BeliefState, MonitoringError, _commit_evidence, _message_keys,
                             _message_order, apply_messages, array_overseer_tick, evidence,
                             init_beliefs, most_likely_state, propagate_down, propagate_forward)
from overhear.ingest import INIT, TERM, ObservedMessage, messages_by_tick
from overhear.progen import grow_team, team_program
from overhear.recognizer import make_recognizer
from overhear.sim import SimConfig, simulate
from overhear.yoyo import _clamp_entries, _rescale, team_most_likely, yoyo_tick

from test_digest import (QUERY_SHA256, SWEEP_SHA256, TICKS, replay_digests, sweep_replays,
                         table_programs, warm_replays)

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
    compiled._compile.cache_clear()  # every program below gets an empty memo
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
        memos.add(view.compiled.memo)
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
    compiled._compile.cache_clear()
    p = team_program(0)
    _, log = simulate(p, SimConfig(seed=3, ticks=120, team_mode=False))
    rec = make_recognizer(p, "array")
    memo = rec.view.compiled.memo
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
    compiled._compile.cache_clear()  # every program below gets an empty memo
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
        memos.add(p.compiled.memo)
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
    compiled._compile.cache_clear()
    p = team_program(0)
    _, log = simulate(p, SimConfig(seed=3, ticks=300, team_mode=True))
    rec = make_recognizer(p, "yoyo")
    memo = p.compiled.memo
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
    compiled._compile.cache_clear()
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
    assert grown.compiled.memo is p.compiled.memo
    (agent,) = set(grown.team_hierarchy.agent_names) - set(p.team_hierarchy.agent_names)
    team = grown.team_hierarchy.agent_team(agent)
    for m in (ObservedMessage(3, agent, "NO-SUCH-TEAM", TERM, "phase-00"),
              ObservedMessage(3, agent, "", TERM, "phase-00")):
        assert _message_keys(grown, [m]) == [(m, (TERM, "phase-00", team))]
        with pytest.raises(MonitoringError, match=f"unknown sender '{agent}'"):
            _message_keys(p, [m])
    m = ObservedMessage(3, agent, team, TERM, "phase-00")  # its own team: kept, and valid for p
    assert _message_keys(grown, [m]) == _message_keys(p, [m]) == [(m, (TERM, "phase-00", team))]
    assert p.compiled.memo.keys[(TERM, "phase-00", team)] == (TERM, "phase-00", team)


@pytest.mark.parametrize("key", SWEEP_SHA256, ids=_ids)
def test_a_warm_memo_steps_every_sweep_to_its_pinned_digests(key):
    # each replay follows an equal one through its log first, so it computes
    # at most its first step from each state's fresh lists and looks up the
    # rest; the states and answers it steps through keep the pins
    def checked():
        for replay in warm_replays(*key):
            rec = replay[1]
            memo = (rec.p if key[1] == "yoyo" else rec.view).compiled.memo
            before = memo.misses["quiet"] + memo.misses["commit"]
            yield replay  # resumed once ``replay_digests`` has stepped it through
            fresh = 1 if key[1] == "yoyo" else len(rec.agents)
            assert memo.misses["quiet"] + memo.misses["commit"] - before <= fresh, key

    assert replay_digests(checked(), key[1]) == (SWEEP_SHA256[key], QUERY_SHA256[key])


@pytest.mark.parametrize("key", [key for key in SWEEP_SHA256 if key[0].startswith("team_program")],
                         ids=_ids)
def test_a_ticks_messages_step_alike_in_any_order(key):
    # both layouts read a tick's messages, and key their memo entries, in
    # ``_message_order``; each tick's messages reversed, from an empty memo,
    # keep the pins (only these corpora's logs have ticks of several messages)
    compiled._compile.cache_clear()
    moved = []

    def reversed_ticks():
        for label, rec, by_tick in sweep_replays(*key):
            moved.extend(t for t, msgs in by_tick.items() if msgs[::-1] != msgs)
            yield label, rec, {t: msgs[::-1] for t, msgs in by_tick.items()}

    assert replay_digests(reversed_ticks(), key[1]) == (SWEEP_SHA256[key], QUERY_SHA256[key])
    assert moved


def _unrolled_commit(b, p, m):
    """``evidence`` of one message committed on fresh zero tables, written
    out apart from ``_commit_evidence``: each mass on its node, down its
    first-child groups, and onto every ancestor, in position order."""
    scratch = evidence(b, p, [m])
    active = list(p.zeros)
    for x in sorted(scratch):
        active[x] += scratch[x]
        propagate_down(x, scratch[x], active, p)
        for anc in p.ancestors_at[x]:
            active[anc] += scratch[x]
    b.act, b.blk = active, list(p.zeros)


@pytest.mark.parametrize("layout", ["array", "yoyo"])
def test_evidence_steps_equal_the_reference_on_planted_tables(layout):
    # blocked masses spread over 16 orders of magnitude, with exact zeros,
    # reach the floor and the even fallback, which no sweep tick does; each
    # step is taken twice from one state of tuples: computed, then looked up
    rng = random.Random(31)
    for prog, base in enumerate(table_programs()):
        for p in (base, base.single_agent_view()) if layout == "array" else (base,):
            h, names, memo = p.team_hierarchy, sorted(p.named_index), p.compiled.memo
            teams = [None] if not p.team_mode else [t for t, _ in h.teams]
            for _ in range(12):
                blk = tuple(rng.random() * 10.0 ** -rng.randrange(16) if rng.random() < 0.7
                            else 0.0 for _ in p.node_ids)
                start = (tuple(p.zeros), blk, p.index, tuple(x for x in p.leaf_index if blk[x]))
                msgs = [ObservedMessage(1, f"s{k}", rng.choice(teams) or "-",
                                        rng.choice((INIT, TERM)), rng.choice(names))
                        for k in range(rng.randrange(1, 4))]
                expected = BeliefState(list(start[0]), list(blk), p.index, start[3])
                if layout == "array":
                    for m in sorted(msgs, key=_message_order):
                        _unrolled_commit(expected, p, m)
                else:
                    _reference_yoyo_tick(p, expected, msgs)
                for looked_up in (False, True):
                    misses, b = memo.misses["commit"], BeliefState(*start)
                    if layout == "array":
                        apply_messages(b, msgs, p)
                    else:
                        yoyo_tick(p, b, msgs)
                        assert b.live == expected.live, (prog, p.team_mode)
                    assert _bits(b) == _bits(expected), (prog, p.team_mode, looked_up)
                    assert {x for x in p.leaf_index if b.act[x]} <= set(b.live), prog
                    assert (memo.misses["commit"] == misses) == looked_up, (prog, looked_up)
