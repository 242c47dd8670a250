"""The step memo (``compiled.StepMemo``) against the memo-free step, in both layouts.

Every run of ``test_digest``'s sweep is replayed twice in step: by the
recognizer, whose quiet steps, evidence steps and queries go through the
memo, and by a reference that holds values built outside the memo and
runs the memo-free step:
in the array layout the interpreted commit, ``propagate_forward`` and a
pick over every leaf; in the shared layout ``propagate_forward``, the
interpreted evidence committed on fresh lists, and each team's pick, each
pick by the reference loop (``conftest._reference_pick``).
Their states and answers must agree bit for bit.  The memo's bound is set
to 1 and to a small number, so links are dropped all through the replay,
and left at its default, where steps are shared across runs.

The sweep must also keep its pins (``SWEEP_SHA256``, ``QUERY_SHA256``)
when each replay follows the links an equal one made, and when each
tick's messages come in another order; and on planted tables that no
sweep tick reaches, each evidence step, computed and then followed, must
equal a reference.  A state's value links its steps only for the memo
that made it, and only until an eviction or until the state takes a
value built outside the memo.
"""

import dataclasses
import math
import random
from array import array

import pytest

from overhear import compiled, yoyo
from overhear.belief import (BeliefState, MonitoringError, Value, _commit_evidence,
                             _message_keys, _message_order, array_overseer_tick, evidence,
                             init_beliefs, most_likely_state, quiet_step)
from overhear.ingest import INIT, TERM, ObservedMessage, messages_by_tick
from overhear.progen import grow_team, team_program
from overhear.recognizer import make_recognizer
from overhear.sim import SimConfig, simulate
from overhear.social import apply_comm_model, learn_comm_model
from overhear.yoyo import _rescale, team_most_likely, yoyo_tick

from conftest import _reference_pick, commit_messages, propagate_down, propagate_forward
from programs import random_program
from test_belief import _divides_twice
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


def _commit(b, p, m):
    """The array layout's commit of one message with no memo:
    ``evidence`` of its key, committed on fresh zero tables by
    ``_commit_evidence``."""
    b.value = Value(_commit_evidence(evidence(b.blk, p, _message_keys(p, [m])), p), p.zeros)


def _reference_tick(rec, states: dict, msgs):
    """One tick of the array layout on states outside the memo: each
    routed message committed by ``_commit`` in message order, and every
    other agent stepped by ``propagate_forward``."""
    view, inbox = rec.view, {}
    for m in sorted(msgs, key=_message_order):
        for agent in rec.recipients(m):
            inbox.setdefault(agent, []).append(m)
    for agent, b in states.items():
        if agent in inbox:
            for m in inbox[agent]:
                _commit(b, view, m)
        else:
            propagate_forward(b, view)


@pytest.mark.parametrize("bound", [1, 7, compiled.MEMO_ENTRIES])
@pytest.mark.parametrize("key", ARRAY_KEYS, ids=_ids)
def test_the_memo_steps_and_answers_as_the_memo_free_step(key, bound, monkeypatch):
    monkeypatch.setattr(compiled, "MEMO_ENTRIES", bound)
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
                    assert most_likely_state(b, view) == _reference_pick(
                        view.leaf_index, expected.act, expected.blk), (key, t, agent)
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
    # each agent's fresh state is adopted as the first run's start, so no
    # step is computed again
    again = {kind: memo.misses[kind] - first[kind] for kind in first}
    assert again["quiet"] + again["commit"] == 0 and again["best"] == 0
    assert rec.counter.visits == visits  # every quiet step still counts its nodes


def _reference_yoyo_tick(p, b, msgs):
    """One tick of the shared layout on a state outside the memo:
    ``propagate_forward``, or the interpreted ``evidence`` committed by
    ``_reference_climb``."""
    if not msgs:
        propagate_forward(b, p)
        return
    b.value = Value(*_reference_climb(evidence(b.blk, p, _message_keys(p, msgs)), p, b.act, b.blk))


def _reference_climb(scratch, p, prior_active, prior_blocked) -> tuple[list, list]:
    """``yoyo._climb`` written out: ``scratch`` committed on fresh lists
    down the recursive ``propagate_down``, which collects the positions it
    writes, climbed and rescaled, then capped at 1 only where it wrote, so
    the engine's cap of every entry must give the same bits."""
    active, blocked = list(p.zeros), list(p.zeros)
    updated: set[int] = set()
    for x in sorted(scratch):
        active[x] = max(active[x], scratch[x])
        updated.add(x)
        propagate_down(x, active[x], active, p, updated)
        for node, par, walk in p.evidence_climbs[x]:
            active[par] = max(active[par], active[node])
            updated.add(par)
            if walk:
                _rescale(walk, active, blocked, prior_active, prior_blocked, updated)
    for table in (active, blocked):
        for i in updated:
            if table[i] > 1.0:
                table[i] = 1.0
    return active, blocked


def test_climb_equals_the_reference_on_planted_evidence():
    # evidence on nodes of several teams at once, on planted prior tables,
    # so a climb's rescale walks into another node's descent: ``_climb``
    # must count that descent's children as written, as the reference's
    # ``updated`` does, and leave them as the descent set them
    rng = random.Random(49)
    for prog, p in enumerate([q for q in table_programs() if q.team_mode] + [_divides_twice()]):
        size = len(p.node_ids)
        for _ in range(40):
            nodes = rng.sample(range(size), rng.randint(2, min(size, 4)))
            scratch = {x: rng.choice((1.0, rng.random())) for x in nodes}
            prior = [[rng.random() if rng.random() < 0.6 else 0.0 for _ in range(size)]
                     for _ in range(2)]
            got = yoyo._climb(scratch, Value(*prior), p)
            want = _reference_climb(scratch, p, *prior)
            assert [list(map(float.hex, t)) for t in got] == [
                list(map(float.hex, t)) for t in want], (prog, scratch)


@pytest.mark.parametrize("bound", [1, 7, compiled.MEMO_ENTRIES])
@pytest.mark.parametrize("key", YOYO_KEYS, ids=_ids)
def test_the_shared_memo_steps_and_answers_as_the_memo_free_step(key, bound, monkeypatch):
    monkeypatch.setattr(compiled, "MEMO_ENTRIES", bound)
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
            for team in rec.teams:
                answer = _reference_pick(p.leaves_by_team[team], expected.act, expected.blk)
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
    # init_beliefs' fresh state is adopted as the first run's start, so no
    # step is computed again
    again = {kind: memo.misses[kind] - first[kind] for kind in first}
    assert again["quiet"] + again["commit"] == 0 and again["best"] == 0
    assert rec.counter.visits == visits  # every quiet step still counts its nodes


def _states_of(rec, unit=None) -> list:
    """The states ``rec.path(unit)`` adopts, or every state of ``rec``.

    An array team's query reads its members' tables and links nothing, so
    it adopts none of them."""
    if hasattr(rec, "belief"):
        return [rec.belief]
    if unit is None:
        return list(rec.beliefs.values())
    return [rec.beliefs[unit]] if unit in rec.beliefs else []


@pytest.mark.parametrize("key", SWEEP_SHA256, ids=_ids)
def test_every_state_a_step_or_query_reads_holds_a_memo_value(key):
    # each step and query that links first adopts a value its memo did not
    # make, so after each step, and each path, tick 0's fresh init_beliefs
    # states included, every state it adopted holds a value of its
    # program's memo, with tuple tables
    def check(states, t, when):
        for b in states:
            value = b.value
            assert value.memo is memo, (key, t, when)
            assert type(value.act) is tuple and type(value.blk) is tuple, (key, t, when)

    for _, rec, by_tick in sweep_replays(*key):
        p = rec.p if key[1] == "yoyo" else rec.view
        memo = p.compiled.memo
        messages = [m for t in sorted(by_tick) for m in by_tick[t]]
        for t in rec.replay(messages, TICKS):
            if t or by_tick.get(t):
                check(_states_of(rec), t, "step")
            for unit in rec.units:
                rec.path(unit)
                check(_states_of(rec, unit), t, unit)
    # a hand-built state is adopted with the leaves that hold mass, by a
    # query as by a step, and steps to the memo-free step's bits
    b = _states_of(rec)[0]
    queried, stepped, expected = (BeliefState(list(b.act), list(b.blk), p.index)
                                  for _ in range(3))
    if key[1] == "yoyo":
        team_most_likely(queried, p, rec.teams[0])
    else:
        most_likely_state(queried, p)
    assert queried.value.memo is memo
    quiet_step(p, [stepped])
    propagate_forward(expected, p)
    assert _bits(stepped) == _bits(expected)
    assert stepped.value.memo is memo


def _holding(value, index) -> BeliefState:
    """A state that holds ``value`` itself, as a step leaves it."""
    b = BeliefState((), (), index)
    b.value = value
    return b


def _assigned(value, name, table, index) -> BeliefState:
    """A state of ``value``'s tables with the one called ``name`` replaced
    by ``table``: a new value, built outside the memo."""
    tables = {"act": value.act, "blk": value.blk, name: table}
    return BeliefState(tables["act"], tables["blk"], index)


def _links(v) -> tuple:
    return v.quiet, v.commits, v.best, v.teams


@pytest.mark.parametrize("layout", ["array", "yoyo"])
def test_an_assigned_table_is_stepped_and_queried_afresh(layout):
    # a state stepped to an evidence tick holds one of the memo's values,
    # whose quiet step, commit and queries are then linked; a state built
    # from it with act or blk replaced, even by an equal table, holds a
    # fresh value, which a step or query adopts as the memo's value of
    # equal bits: never the linked prior, a quiet step's result that was
    # never interned, but one value per state of new bits, whose steps
    # and queries are each computed once (a miss) and equal the memo-free
    # step, and which a state of equal bits adopts again
    compiled._compile.cache_clear()
    p, yoyo = team_program(0), layout == "yoyo"
    _, log = simulate(p, SimConfig(seed=0, ticks=150, team_mode=yoyo))
    by_tick = messages_by_tick(log)
    rec = make_recognizer(p, layout)
    q = rec.p if yoyo else rec.view
    memo, units = q.compiled.memo, rec.teams if yoyo else [None]
    tick = min(t for t in by_tick if t >= 10)
    for t in range(1, tick):
        rec.step(by_tick.get(t, []))
    msgs = by_tick[tick]
    if not yoyo:
        msgs = [m for m in msgs if m.sender == msgs[0].sender]
    prior = (rec.belief if yoyo else rec.beliefs[msgs[0].sender]).value
    assert prior.memo is memo and type(prior.act) is tuple

    def commit(b):
        yoyo_tick(q, b, msgs) if yoyo else commit_messages(b, msgs, q)

    def query(b, unit):
        return team_most_likely(b, q, unit) if yoyo else most_likely_state(b, q)

    steps = {"quiet": lambda b: quiet_step(q, [b]), "commit": commit}
    linked = {}
    for kind, step in steps.items():
        b = _holding(prior, q.index)
        step(b)
        linked[kind] = b.value
    answers = [query(_holding(prior, q.index), unit) for unit in units]
    assert prior.quiet is linked["quiet"] and linked["commit"] in prior.commits.values()
    assert prior.best is not None or len(prior.teams) == len(units)
    links = _links(prior)
    moved = dict.fromkeys(["act", "blk"], 0)
    adopted = {}  # bits -> the memo's value that a state of them was adopted as
    for name in ("act", "blk"):
        table = getattr(prior, name)
        x = next(x for x, v in enumerate(table) if v)
        # an equal table, then a table with one entry moved
        for edit in (table, table[:x] + (table[x] / 2,) + table[x + 1:]):
            b = _assigned(prior, name, edit, q.index)
            key = _bits(b)
            fresh = key not in adopted
            for kind, step in steps.items():
                b = _assigned(prior, name, edit, q.index)
                assert b.value is not prior and _links(b.value) == (None, {}, None, {})
                expected = BeliefState(list(b.act), list(b.blk), q.index)
                misses = memo.misses[kind]
                step(b)
                if kind == "quiet":
                    propagate_forward(expected, q)
                elif yoyo:
                    _reference_yoyo_tick(q, expected, msgs)
                else:
                    for m in sorted(msgs, key=_message_order):
                        _commit(expected, q, m)
                assert memo.misses[kind] == misses + fresh, (name, kind)
                assert _bits(b) == _bits(expected), (name, kind)
                if kind == "quiet" and edit is not table:
                    moved[name] += _bits(b) != _bits(linked["quiet"])
            b = _assigned(prior, name, edit, q.index)
            for unit in units:
                misses = memo.misses["best"]
                leaves = q.leaves_by_team[unit] if yoyo else q.leaf_index
                pick = _reference_pick(leaves, b.act, b.blk)
                assert query(b, unit) == pick, (name, unit)
                assert memo.misses["best"] == misses + fresh, (name, unit)
                assert query(b, unit) == pick, (name, unit)
                assert memo.misses["best"] == misses + fresh, (name, unit)  # linked once
            assert b.value is adopted.setdefault(key, b.value) is not prior, name
            assert b.value.memo is memo and type(b.value.act) is tuple, name
    assert all(moved.values()), moved
    assert len(adopted) == 3  # the equal act and blk tables share one value
    # the value the built states started from kept its links and answers
    assert _links(prior) == links
    assert answers == [query(_holding(prior, q.index), unit) for unit in units]


@pytest.mark.parametrize("layout", ["array", "yoyo"])
def test_a_value_follows_only_the_links_of_the_memo_that_made_it(layout):
    # a value one program's memo made and linked, stepped under a program
    # with other fields (other rates and mu, so another memo), is stepped
    # as that program's memo-free step: the quiet step at the first state
    # of a replay where the two programs' steps differ, and the commit at
    # the first planted state where they do.  team_program(0)'s replays
    # give each unit one credited candidate, whose mass is 1 whatever mu
    # is, and so does each single message to its view, so the view's case
    # runs random_program(0)
    compiled._compile.cache_clear()
    yoyo = layout == "yoyo"
    base = team_program(0) if yoyo else random_program(0)
    other = dataclasses.replace(
        base, plans=tuple(dataclasses.replace(n, rate=n.rate and 2 * n.rate) for n in base.plans),
        transitions=tuple(dataclasses.replace(t, mu=t.mu / (1 + k % 3))
                          for k, t in enumerate(base.transitions)))
    p, q = (base, other) if yoyo else (base.single_agent_view(), other.single_agent_view())
    assert q.compiled.memo is not p.compiled.memo

    def quiet(prog, b, msgs):
        quiet_step(prog, [b])

    def commit(prog, b, msgs):
        yoyo_tick(prog, b, msgs) if yoyo else commit_messages(b, msgs, prog)

    def reference(step, prog, value, msgs) -> BeliefState:
        b = BeliefState(list(value.act), list(value.blk), prog.index)
        if step is quiet:
            propagate_forward(b, prog)
        elif yoyo:
            _reference_yoyo_tick(prog, b, msgs)
        else:
            for m in sorted(msgs, key=_message_order):
                _commit(b, prog, m)
        return b

    def differs(step, prior, msgs) -> bool:
        expected = reference(step, q, prior, msgs)
        if _bits(expected) == _bits(reference(step, p, prior, msgs)):
            return False
        linked = _holding(prior, p.index)
        step(p, linked, msgs)  # links prior's step under p
        b = _holding(prior, p.index)
        step(q, b, msgs)
        assert _bits(b) == _bits(expected) != _bits(linked), step.__name__
        assert prior.memo is p.compiled.memo and b.value.memo is q.compiled.memo
        return True

    rec = make_recognizer(base, layout)
    for t in range(1, TICKS):
        prior = (rec.belief if yoyo else rec.beliefs[rec.agents[0]]).value
        if prior.memo is not None and differs(quiet, prior, []):
            break
        rec.step([])
    else:
        pytest.fail("no quiet step differs")
    rng, names = random.Random(7), sorted(p.named_index)
    teams = [t for t, _ in p.team_hierarchy.teams] if yoyo else ["-"]
    for _ in range(200):
        blk = tuple(rng.random() * 10.0 ** -rng.randrange(16) if rng.random() < 0.7 else 0.0
                    for _ in p.node_ids)
        prior = p.compiled.memo.intern(p.zeros, blk)
        msgs = [ObservedMessage(1, f"s{k}", rng.choice(teams), rng.choice((INIT, TERM)),
                                rng.choice(names)) for k in range(rng.randrange(1, 4))]
        if differs(commit, prior, msgs):
            break
    else:
        pytest.fail("no commit differs")


@pytest.mark.parametrize("layout", ["array", "yoyo"])
def test_an_eviction_unlinks_every_value_linked_before_it(layout, monkeypatch):
    # at a bound of 7 the memo evicts all through a replay; at each eviction
    # no value linked before it keeps a link, and after every tick the links
    # counted on the values themselves are those listed, which with both
    # tables' entries are at most the bound, and every value that holds a
    # link is listed for the next eviction
    monkeypatch.setattr(compiled, "MEMO_ENTRIES", 7)
    compiled._compile.cache_clear()
    evictions = []
    evict = compiled.StepMemo._evict

    def checked(memo):
        before = list(memo.linked)
        evict(memo)
        assert all(_links(v) == (None, {}, None, {}) for v in before)
        evictions.append(len(before))

    monkeypatch.setattr(compiled.StepMemo, "_evict", checked)
    p, yoyo = team_program(0), layout == "yoyo"
    _, log = simulate(p, SimConfig(seed=3, ticks=300, team_mode=yoyo))
    for coherent in (False, True) if not yoyo else (True,):
        rec = make_recognizer(p, layout, coherent)
        memo, seen = (rec.p if yoyo else rec.view).compiled.memo, {}
        for _ in rec.replay(log, 300):
            [rec.path(unit) for unit in rec.units]
            for b in [rec.belief] if yoyo else rec.beliefs.values():
                seen[id(b.value)] = b.value
                if b.value.quiet is not None:
                    seen[id(b.value.quiet)] = b.value.quiet
            listed = {id(v): v for v in memo.linked}
            counted = sum((v.quiet is not None) + len(v.commits) + (v.best is not None)
                          + len(v.teams) for v in listed.values())
            assert counted == len(memo.linked)
            assert len(memo.linked) + len(memo.interned) + len(memo.keys) <= 7
            assert all(i in listed for i, v in seen.items() if _links(v) != (None, {}, None, {}))
    assert len(evictions) > 1 and max(evictions) > 1


def test_links_of_every_kind_and_table_entries_count_against_one_bound(monkeypatch):
    # six links of mixed kinds fill a memo bounded at 6 without evicting;
    # the seventh entry, a link or a store, evicts once and is then held alone
    monkeypatch.setattr(compiled, "MEMO_ENTRIES", 6)
    view = team_program(0).single_agent_view()
    for seventh in ("link", "store"):
        memo = compiled.CompiledProgram(view).memo
        values = [Value(view.zeros, view.zeros, memo) for _ in range(7)]
        for kind, value in zip(("quiet", "commit", "best") * 2, values):
            memo.link(kind, value)
        assert memo.evictions == 0 and len(memo.linked) == 6
        if seventh == "link":
            memo.link("best", values[6])
        else:
            memo.store(memo.keys, (TERM, "phase-00", None), (TERM, "phase-00", None))
        assert memo.evictions == 1
        assert len(memo.linked) + len(memo.interned) + len(memo.keys) == 1
    assert memo.misses == {"quiet": 2, "commit": 2, "best": 2}


def test_the_intern_table_is_shared_by_fields_and_bounded(monkeypatch):
    # programs with equal fields share one memo, a program and its view do
    # not; a store into a full intern table evicts, and each value interned
    # holds its tables as tuples
    view = team_program(0).single_agent_view()
    assert team_program(0).single_agent_view().compiled.memo is view.compiled.memo
    assert team_program(0).compiled.memo is not view.compiled.memo
    monkeypatch.setattr(compiled, "MEMO_ENTRIES", 3)
    memo = compiled.CompiledProgram(view).memo
    for x in view.leaf_index[:7]:
        act = list(view.zeros)
        act[x] = 1.0
        value = memo.intern(act, view.zeros)
        assert memo.intern(tuple(act), list(view.zeros)) is value and value.act == tuple(act)
        assert 1 <= len(memo.interned) <= 3
    assert memo.evictions


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
        assert _message_keys(grown, [m]) == ((TERM, "phase-00", team),)
        with pytest.raises(MonitoringError, match=f"unknown sender '{agent}'"):
            _message_keys(p, [m])
    m = ObservedMessage(3, agent, team, TERM, "phase-00")  # its own team: kept, and valid for p
    assert _message_keys(grown, [m]) == _message_keys(p, [m]) == ((TERM, "phase-00", team),)
    assert p.compiled.memo.keys[(TERM, "phase-00", team)] == (TERM, "phase-00", team)


@pytest.mark.parametrize("key", SWEEP_SHA256, ids=_ids)
def test_a_warm_memo_steps_every_sweep_to_its_pinned_digests(key):
    # each replay follows an equal one through its log first, so it adopts
    # each fresh state as the value that one started from and
    # computes no step; the states and answers it steps through keep the pins
    def checked():
        for replay in warm_replays(*key):
            rec = replay[1]
            memo = (rec.p if key[1] == "yoyo" else rec.view).compiled.memo
            before = memo.misses["quiet"] + memo.misses["commit"]
            yield replay  # resumed once ``replay_digests`` has stepped it through
            assert memo.misses["quiet"] + memo.misses["commit"] == before, key

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
    scratch = evidence(b.blk, p, _message_keys(p, [m]))
    active = list(p.zeros)
    for x in sorted(scratch):
        active[x] += scratch[x]
        propagate_down(x, scratch[x], active, p)
        for anc in p.ancestors_at[x]:
            active[anc] += scratch[x]
    b.value = Value(active, p.zeros)


@pytest.mark.parametrize("layout", ["array", "yoyo"])
def test_evidence_steps_equal_the_reference_on_planted_tables(layout):
    # blocked masses spread over 16 orders of magnitude, with exact zeros,
    # reach the floor and the even fallback, which no sweep tick does; each
    # step is taken twice from the memo's value of one planted state:
    # computed, then followed from the link the first one made
    rng = random.Random(31)
    for prog, base in enumerate(table_programs()):
        for p in (base, base.single_agent_view()) if layout == "array" else (base,):
            h, names, memo = p.team_hierarchy, sorted(p.named_index), p.compiled.memo
            teams = [None] if not p.team_mode else [t for t, _ in h.teams]
            for _ in range(12):
                blk = tuple(rng.random() * 10.0 ** -rng.randrange(16) if rng.random() < 0.7
                            else 0.0 for _ in p.node_ids)
                start = (tuple(p.zeros), blk)
                msgs = [ObservedMessage(1, f"s{k}", rng.choice(teams) or "-",
                                        rng.choice((INIT, TERM)), rng.choice(names))
                        for k in range(rng.randrange(1, 4))]
                expected = BeliefState(list(start[0]), list(blk), p.index)
                if layout == "array":
                    for m in sorted(msgs, key=_message_order):
                        _unrolled_commit(expected, p, m)
                else:
                    _reference_yoyo_tick(p, expected, msgs)
                value = memo.intern(*start)  # the value a step would join
                for looked_up in (False, True):
                    misses, b = memo.misses["commit"], _holding(value, p.index)
                    if layout == "array":
                        commit_messages(b, msgs, p)
                    else:
                        yoyo_tick(p, b, msgs)
                    assert _bits(b) == _bits(expected), (prog, p.team_mode, looked_up)
                    assert (memo.misses["commit"] == misses) == looked_up, (prog, looked_up)
