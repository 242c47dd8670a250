"""The compiled evidence step against its reference, ``belief.evidence``,
and each live set's forward kernel against the program's full kernel.

``belief.tick_evidence`` (the shared layout's evidence) and the array
layout's compiled commit must give what the readable engine gives, bit for
bit, on every evidence tick of every sweep corpus of ``test_digest``; and
their tables must be bounded and keyed on program fields.  Likewise a live
kernel (``compiled.forward_source(p, live)``) must give what ``p.forward``
gives on every state of those sweeps, in both layouts, and on planted
tables with zeros outside the live set.  The equality tests compile every
key and live set on its first use (``COMPILE_AT`` and ``LIVE_COMPILE_AT``
1), so no tick runs the interpreted step or the full kernel they compare
with.
"""

import dataclasses
import inspect
import linecache
import math
import random

import pytest

from overhear import compiled
from overhear.belief import (BeliefState, MonitoringError, _message_order, apply_messages,
                             evidence, init_beliefs, propagate_down, propagate_forward,
                             tick_evidence)
from overhear.ingest import INIT, TERM, ObservedMessage
from overhear.progen import team_program

from test_digest import SWEEP_SHA256, TICKS, sweep_replays, table_programs


def _hex(masses: dict) -> list:
    """A mass dict in its own order, every float as ``float.hex``."""
    return [(x, v.hex()) for x, v in masses.items()]


@pytest.fixture
def hot(monkeypatch):
    """Every evidence key and live set compiles on its first use."""
    monkeypatch.setattr(compiled, "COMPILE_AT", 1)
    monkeypatch.setattr(compiled, "LIVE_COMPILE_AT", 1)


def _reference_commit(b, p, m) -> tuple[list, list]:
    """``evidence`` of one message committed on fresh zero tables, as the
    array layout commits it: each mass on its node, down its first-child
    groups, and onto every ancestor, in position order."""
    scratch = evidence(b, p, [m])
    active = list(p.zeros)
    for x in sorted(scratch):
        mass = scratch[x]
        active[x] += mass
        propagate_down(x, mass, active, p)
        for anc in p.ancestors_at[x]:
            active[anc] += mass
    return active, list(p.zeros)


@pytest.mark.parametrize("key", SWEEP_SHA256, ids=lambda key: "/".join(map(str, key)))
def test_compiled_evidence_equals_the_reference_on_every_sweep_tick(key, hot):
    corpus, mode, coherent = key
    ticks = 0
    for _, rec, by_tick in sweep_replays(corpus, mode, coherent):
        for t in range(TICKS):
            msgs = by_tick.get(t, [])
            if mode == "yoyo" and msgs:
                ticks += 1
                assert (_hex(tick_evidence(rec.belief, rec.p, msgs))
                        == _hex(evidence(rec.belief, rec.p, msgs))), (key, t)
            expected = {}
            for m in sorted(msgs, key=_message_order) if mode == "array" else ():
                for agent in rec.recipients(m):
                    b = expected.get(agent) or dataclasses.replace(rec.beliefs[agent])
                    b.act, b.blk = _reference_commit(b, rec.view, m)
                    expected[agent] = b
            ticks += bool(expected)
            rec.step(msgs)
            for agent, b in expected.items():
                got = rec.beliefs[agent]
                assert ([v.hex() for v in got.act + got.blk]
                        == [v.hex() for v in b.act + b.blk]), (key, t, agent)
    assert ticks > 0


def test_compiled_evidence_equals_the_reference_on_planted_tables(hot):
    # blocked masses spread over 16 orders of magnitude, with exact zeros,
    # reach the floor and the even fallback, which no sweep tick does
    rng = random.Random(31)
    for prog, base in enumerate(table_programs()):
        for p in (base, base.single_agent_view()):
            h, names = p.team_hierarchy, sorted(p.named_index)
            teams = [None] if not p.team_mode else [t for t, _ in h.teams]
            for _ in range(12):
                blk = [rng.random() * 10.0 ** -rng.randrange(16) if rng.random() < 0.7 else 0.0
                       for _ in p.node_ids]
                b = BeliefState(list(p.zeros), blk, p.index)
                msgs = [ObservedMessage(1, f"s{k}", rng.choice(teams) or "-",
                                        rng.choice((INIT, TERM)), rng.choice(names))
                        for k in range(rng.randrange(1, 4))]
                assert _hex(tick_evidence(b, p, msgs)) == _hex(evidence(b, p, msgs)), prog
                expected = BeliefState(b.act, b.blk, p.index)
                for m in sorted(msgs, key=_message_order):
                    expected.act, expected.blk = _reference_commit(expected, p, m)
                apply_messages(b, msgs, p)
                assert ([v.hex() for v in b.act + b.blk]
                        == [v.hex() for v in expected.act + expected.blk]), prog


def _team_state(p, ticks=12):
    b = init_beliefs(p)
    for _ in range(ticks):
        propagate_forward(b, p)
    return b


def test_the_first_sender_in_message_order_picks_a_shared_nodes_team(hot):
    # ALPHA executes alpha-02-step0, so a TERM of it opens its successor for
    # ALPHA but nothing for BRAVO, and the source falls back to itself; the
    # message read first (by sender) decides, in the reference and compiled
    p = team_program(0)
    b = _team_state(p, 30)
    results = []
    for alpha, bravo in (("a", "z"), ("z", "a")):
        msgs = [ObservedMessage(30, alpha, "ALPHA", TERM, "alpha-02-step0"),
                ObservedMessage(30, bravo, "BRAVO", TERM, "alpha-02-step0")]
        got = tick_evidence(b, p, msgs)
        assert _hex(got) == _hex(evidence(b, p, msgs))
        results.append(got)
    assert results[0] != results[1]


@pytest.mark.parametrize("view", [False, True], ids=["team", "single"])
def test_unknown_plans_and_teams_raise_evidences_texts_and_are_not_cached(view, hot):
    p = team_program(0)
    if view:
        p = p.single_agent_view()  # which reads no team, so NOBODY passes there
    b = _team_state(p)
    cases = [[ObservedMessage(7, "alpha1", "ALPHA", INIT, "no-such-plan")],
             [ObservedMessage(7, "alpha1", "ALPHA", TERM, "phase-00"),
              ObservedMessage(7, "alpha2", "ALPHA", TERM, "no-such-plan")],
             [ObservedMessage(7, "stranger", "NOBODY", TERM, "phase-00")],
             # amy's message is read first, so its plan fails before zed's team
             [ObservedMessage(7, "zed", "NOBODY", TERM, "phase-01"),
              ObservedMessage(7, "amy", "ALPHA", TERM, "no-such-plan")]]
    table = p.evidence_functions
    tiers = (table.step.uses, table.step.kernel, table.commit.uses, table.commit.kernel)
    raised = 0
    for msgs in cases:
        try:
            evidence(b, p, msgs)
        except MonitoringError as exc:
            reference = str(exc)
        else:
            assert view and msgs[0].team == "NOBODY"
            continue
        raised += 1
        sizes = [tier.cache_info().currsize for tier in tiers]
        before = (b.act, b.blk)
        for step in (lambda: tick_evidence(b, p, msgs), lambda: apply_messages(b, msgs, p)):
            with pytest.raises(MonitoringError) as got:
                step()
            assert str(got.value) == reference
        assert (b.act, b.blk) == before
        assert [tier.cache_info().currsize for tier in tiers] == sizes
    assert raised == (3 if view else 4)


def test_compiled_evidence_is_keyed_on_fields_and_registered(hot):
    p = team_program(0)
    msgs = [ObservedMessage(3, "alpha1", "ALPHA", TERM, "phase-00")]
    fresh = team_program(0)
    assert fresh.evidence_functions is p.evidence_functions
    assert p.single_agent_view().evidence_functions is not p.evidence_functions
    b = _team_state(p)
    tick_evidence(b, p, msgs)
    kernels = p.evidence_functions.step.kernel
    hits = kernels.cache_info().hits
    kernel = kernels(((TERM, "phase-00", "ALPHA"),))
    assert kernels.cache_info().hits == hits + 1  # compiled by the tick
    assert inspect.getsource(kernel.function).startswith("def evidence(B):\n")
    assert kernel.filename in linecache.cache


def test_a_key_runs_interpreted_until_its_compile_at_th_use(monkeypatch):
    monkeypatch.setattr(compiled, "COMPILE_AT", 3)
    compiled._evidence_table.cache_clear()  # fresh tables, no key used yet
    p = team_program(0)
    view = p.single_agent_view()
    b, a = _team_state(p), _team_state(view)
    msgs = [ObservedMessage(3, "alpha1", "ALPHA", TERM, "phase-00")]
    got, states = [], []
    for use in range(1, 5):
        got.append(_hex(tick_evidence(b, p, msgs)))
        state = dataclasses.replace(a)
        apply_messages(state, msgs, view)
        states.append([v.hex() for v in state.act + state.blk])
        compiled_now = int(use >= 3)
        assert p.evidence_functions.step.kernel.cache_info().currsize == compiled_now
        assert view.evidence_functions.commit.kernel.cache_info().currsize == compiled_now
    assert got == [_hex(evidence(b, p, msgs))] * 4
    assert states == [states[0]] * 4


def test_evidence_tables_are_bounded_and_release_their_sources(monkeypatch):
    monkeypatch.setattr(compiled, "EVIDENCE_SIGNATURES", 6)
    p = team_program(0).single_agent_view()
    kernels = compiled.EvidenceFunctions(p).commit.kernel
    keys = [(TERM, f"phase-{k:02}", None) for k in range(9)]
    made = [kernels(key) for key in keys[:6]]
    kernels(keys[0])  # now the most recently used, so keys[1] leaves first
    made += [kernels(key) for key in keys[6:]]
    assert kernels.cache_info().currsize == 6
    for kernel in made:
        assert kernel.filename in linecache.cache  # still held here
    files = [kernel.filename for kernel in made]
    del made, kernel
    assert [f in linecache.cache for f in files] == [True] + [False] * 3 + [True] * 5
    kernels.cache_clear()
    assert not any(f in linecache.cache for f in files)


def _hexes(tables) -> list:
    return [list(map(float.hex, table)) for table in tables]


def _live_kernel(q, live):
    """The function q's live-step table steps ``live`` with, compiled by a
    first use (``hot``): the live kernel, or ``q.forward`` for a set that
    holds every shedding leaf."""
    table = q.next_live
    table[live][1](list(q.zeros), list(q.zeros))
    forward = table[live][1]
    assert forward is q.forward or forward is table.kernels[live].function
    return forward


# entries of a planted table: exact 0 and 1, just below 1, subnormal
_PLANTED = (0.0, 1.0, math.nextafter(1.0, 0.0), 5e-324, 2.0 ** -1060)


def _planted_live(rng: random.Random, q, live) -> list:
    """A table whose leaves outside ``live`` hold 0.0 and whose other
    entries are ``_PLANTED`` values or uniform in [0, 1)."""
    outside = set(q.leaf_index).difference(live)
    return [0.0 if i in outside else rng.choice(_PLANTED) if rng.random() < 0.7
            else rng.random() for i in range(len(q.node_ids))]


@pytest.mark.parametrize("key", SWEEP_SHA256, ids=lambda key: "/".join(map(str, key)))
def test_live_kernels_equal_the_full_kernel_on_sweep_states_and_planted_tables(key, hot):
    # every state a sweep replay steps, in both layouts, and for each live
    # set the replay meets, planted tables that cap, floor and skip where
    # no run does
    corpus, mode, coherent = key
    rng = random.Random("/".join(map(str, key)))
    states = planted = 0
    for _, rec, by_tick in sweep_replays(corpus, mode, coherent):
        q, kernels = rec.p if mode == "yoyo" else rec.view, {}
        for t in range(TICKS):
            for b in [rec.belief] if mode == "yoyo" else rec.beliefs.values():
                kernel = kernels.get(b.live)
                if kernel is None:
                    kernel = kernels[b.live] = _live_kernel(q, b.live)
                    for _ in range(4):
                        A, B = _planted_live(rng, q, b.live), _planted_live(rng, q, b.live)
                        assert _hexes(kernel(A, B)) == _hexes(q.forward(A, B)), (key, b.live)
                        planted += 1
                assert _hexes(kernel(b.act, b.blk)) == _hexes(q.forward(b.act, b.blk)), (key, t)
                states += 1
            rec.step(by_tick.get(t, []))
    assert states and planted


def test_a_live_set_steps_by_the_full_kernel_until_its_compile_at_th_use(monkeypatch):
    monkeypatch.setattr(compiled, "LIVE_COMPILE_AT", 3)
    p = team_program(0)
    for q in (p, p.single_agent_view()):
        table = compiled.NextLive(q)
        b = init_beliefs(q)
        live, full = b.live, q.forward
        for use in range(1, 5):
            after, forward = table[live]
            assert after == q.next_live[live][0] and (use < 3 or forward is not full)
            assert _hexes(forward(b.act, b.blk)) == _hexes(full(b.act, b.blk))
            assert len(table.kernels) == (use >= 3)
        kernel = table.kernels[live]
        assert table[live][1] is kernel.function
        assert inspect.getsource(kernel.function) == compiled.forward_source(q, live)
        # a set of every shedding leaf keeps the full kernel
        assert table[q.leaf_index] == (q.leaf_index, full)


def test_live_kernels_are_dropped_with_a_full_table(monkeypatch):
    monkeypatch.setattr(compiled, "LIVE_COMPILE_AT", 1)
    monkeypatch.setattr(compiled, "LIVE_SETS", 3)
    view = team_program(0).single_agent_view()
    table = compiled.NextLive(view)
    entries = []  # each kernel's ``linecache`` entry, which a later kernel's name may reuse
    for x in view.leaf_index[:5]:
        table[(x,)][1](list(view.zeros), list(view.zeros))
        kernel = table.kernels[(x,)]
        entries.append((kernel.filename, kernel.entry))
        assert len(table) <= 3 and table.kernels.keys() <= table.keys()
    del kernel
    assert [linecache.cache.get(f) is e for f, e in entries] == [False] * 3 + [True] * 2
