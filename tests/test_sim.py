import dataclasses
import statistics

import pytest

from overhear import sim
from overhear.model import hazard, program_from_document, program_to_document
from overhear.progen import team_program
from overhear.sim import (ALWAYS, NEVER, GroundTruthTrace, SimConfig, SimulationError,
                          checkpoints, format_trace, parse_trace, simulate)


def state_changes(trace) -> int:
    """Number of per-agent state changes across the trace."""
    n = 0
    for prev, cur in zip(trace.steps, trace.steps[1:]):
        for agent in trace.agents:
            if prev[agent] != cur[agent]:
                n += 1
    return n


def _single_leaf(lam=0.2):
    return program_from_document({
        "teams": [{"name": "T", "parent": None}],
        "agents": [{"name": "solo", "team": "T"}],
        "root": "r",
        "plans": [
            {"id": "r", "name": "top", "team": "T"},
            {"id": "a", "name": "the-job", "team": "T", "parent": "r",
             "first_child": True, "lambda": lam},
        ],
        "transitions": [{"from": "a", "to": "TERMINATE", "pi": 1.0, "mu": 0.0}],
    })


def test_config_validation():
    with pytest.raises(SimulationError):
        SimConfig(ticks=0)
    with pytest.raises(SimulationError):
        SimConfig(comm_policy="SOMETIMES")
    with pytest.raises(SimulationError):
        SimConfig(send_prob=1.5)


@pytest.mark.parametrize("window", [{"fail_from": -1}, {"fail_ticks": -1},
                                    {"fail_from": -5, "fail_ticks": 10}],
                         ids=["from", "ticks", "from-with-length"])
def test_config_rejects_negative_outage_window(window):
    with pytest.raises(SimulationError, match="must be nonnegative"):
        SimConfig(fail_agent="alpha1", **window)


@pytest.mark.parametrize("outage, message", [
    ({"fail_ticks": 10}, "needs a fail_agent"),
    ({"fail_ticks": 10, "fail_from": 5}, "needs a fail_agent"),
    ({"fail_agent": "alpha1"}, "fail agent 'alpha1' needs fail_ticks > 0"),
    ({"fail_agent": "alpha1", "fail_from": 5}, "needs fail_ticks > 0"),
], ids=["window", "placed-window", "agent", "placed-agent"])
def test_config_rejects_half_an_outage(outage, message):
    # either half alone would silently run no outage at all
    with pytest.raises(SimulationError, match=message):
        SimConfig(**outage)


@pytest.mark.parametrize("team_mode", [False, True])
def test_unknown_fail_agent_rejected(team_mode):
    tp = team_program(0)
    cfg = SimConfig(seed=9, ticks=50, team_mode=team_mode, fail_agent="nobody",
                    fail_ticks=10)
    with pytest.raises(SimulationError, match="fail agent 'nobody'"):
        simulate(tp if team_mode else tp.single_agent_view(), cfg)


def test_program_without_agents_rejected():
    doc = {**program_to_document(_single_leaf()), "agents": []}
    with pytest.raises(SimulationError, match="program has no agents to simulate"):
        simulate(program_from_document(doc), SimConfig(seed=1, ticks=10))


def test_team_mode_needs_team_program(evac_team, evac_mini_single):
    # a program loaded without team mode has one group of all first
    # children, so it cannot drive a team run
    with pytest.raises(SimulationError, match="program loaded in team mode"):
        simulate(evac_mini_single, SimConfig(seed=1, ticks=10, team_mode=True))
    single = evac_team.single_agent_view()
    with pytest.raises(SimulationError, match="program loaded in team mode"):
        simulate(single, SimConfig(seed=1, ticks=10, team_mode=True))
    trace, _ = simulate(single, SimConfig(seed=1, ticks=10))
    assert trace.ticks == 10


def test_determinism(evac_team):
    cfg = SimConfig(seed=11, ticks=250, team_mode=True, send_prob=0.4)
    t1, l1 = simulate(evac_team, cfg)
    t2, l2 = simulate(evac_team, cfg)
    assert t1 == t2
    assert l1 == l2
    t3, _ = simulate(evac_team, SimConfig(seed=12, ticks=250, team_mode=True,
                                          send_prob=0.4))
    assert t3 != t1


def test_trace_round_trip(evac_team):
    trace, _ = simulate(evac_team, SimConfig(seed=3, ticks=100, team_mode=True))
    again = parse_trace(format_trace(trace))
    assert again.seed == trace.seed
    assert again.steps == trace.steps


def test_parse_trace_rejects_missing_agent(evac_team):
    trace, _ = simulate(evac_team, SimConfig(seed=3, ticks=10, team_mode=True))
    text = format_trace(trace)
    lines = [l for l in text.splitlines() if not l.endswith("0 escort1")]
    broken = "\n".join(l for l in text.splitlines()
                       if not (l.startswith("0 ") and " escort1 " in l))
    with pytest.raises(SimulationError):
        parse_trace(broken)


@pytest.mark.parametrize("text, message", [
    ("0 a p\nx a p\n", "line 2: tick must be an integer"),
    ("# seed 7.5\n0 a p\n", "line 1: seed must be an integer"),
    # ticks and seeds are ASCII decimal digits, as format_trace writes them
    ("1_0 a p\n", "line 1: tick must be an integer"),
    ("0 a p\n+1 a p\n", "line 2: tick must be an integer"),
    ("\u0665 a p\n", "line 1: tick must be an integer"),
    ("# seed 1_2\n0 a p\n", "line 1: seed must be an integer"),
    ("# seed +5\n0 a p\n", "line 1: seed must be an integer"),
    ("-1 a p\n", "line 1: tick -1 is negative"),
    ("0 a p\n-1 a p\n", "line 2: tick -1 is negative"),
    ("0 a p\n0 a q\n", "line 2: agent 'a' already has a state at tick 0"),
    ("0 a p\n2 a p\n", "line 2: tick 2 is past the trace's 2 lines"),
    # a tick's lines need not form one block, nor share one spelling
    ("0 a p\n1 a p\n0 a q\n", "line 3: agent 'a' already has a state at tick 0"),
    ("0 a p\n00 a q\n", "line 2: agent 'a' already has a state at tick 0"),
    ("0 a p\n0 b p\n1 a p\n1 b p\n1 b q\n", "line 5: agent 'b' already has a state at tick 1"),
    ("0 a p\n1 a p\n0 b p\n1 b p\n9 a p\n", "line 5: tick 9 is past the trace's 5 lines"),
])
def test_parse_trace_rejects_bad_lines(text, message):
    with pytest.raises(SimulationError, match=message):
        parse_trace(text)


def _reference_format(trace) -> str:
    """``format_trace`` one line at a time."""
    lines = [f"# seed {trace.seed}"]
    for tick, step in enumerate(trace.steps):
        for agent in trace.agents:
            names, blocked = step[agent]
            lines.append(f"{tick} {agent} {'/'.join(names)}{'!' if blocked else ''}")
    return "\n".join(lines) + "\n"


def _shared_row_runs():
    """team_program(0) in team mode, and agent mode with an outage."""
    tp = team_program(0)
    for seed in (1, 2, 3):
        yield tp, SimConfig(seed=seed, ticks=300, team_mode=True, send_prob=0.6)
        yield tp.single_agent_view(), SimConfig(seed=seed, ticks=300, send_prob=0.6,
                                                fail_agent="alpha1", fail_from=40,
                                                fail_ticks=100)


def test_shared_rows_hold_each_ticks_truth(monkeypatch):
    # consecutive ticks share a row only while no run moves; a reference run
    # that walks every truth afresh never fills a run's truths, so it builds
    # a new row on every tick
    runs = list(_shared_row_runs())
    shared = [simulate(p, cfg) for p, cfg in runs]
    monkeypatch.setattr(sim._Run, "truth", lambda run, chain: run._walk(chain))
    for (p, cfg), (trace, log) in zip(runs, shared):
        fresh, fresh_log = simulate(p, cfg)
        assert len({id(row) for row in fresh.steps}) == fresh.ticks
        assert trace == fresh and log == fresh_log
        reused = [t for t in range(1, trace.ticks) if trace.steps[t] is trace.steps[t - 1]]
        if cfg.team_mode:
            assert reused
        assert all(fresh.steps[t] == fresh.steps[t - 1] for t in reused)


def test_format_trace_matches_the_per_line_reference():
    for p, cfg in _shared_row_runs():
        trace, _ = simulate(p, cfg)
        assert format_trace(trace) == _reference_format(trace)
    for trace in (GroundTruthTrace(seed=5, agents=(), steps=[{}, {}]),
                  GroundTruthTrace(seed=-1, agents=("a",), steps=[])):
        assert format_trace(trace) == _reference_format(trace)


def test_never_policy_is_silent(evac_team):
    _, log = simulate(evac_team, SimConfig(seed=5, ticks=300, team_mode=True,
                                           comm_policy=NEVER))
    assert log == []


def test_always_policy_announces_every_transition():
    tp = team_program(0, chatter=0.25)
    for seed in range(10):
        trace, log = simulate(tp, SimConfig(seed=seed, ticks=120, team_mode=True,
                                            comm_policy=ALWAYS))
        assert len(log) == trace.transition_count
        assert len(log) > 0


def test_single_mode_runs_each_agent_independently(evac_mini_single):
    trace, log = simulate(evac_mini_single,
                          SimConfig(seed=2, ticks=200, send_prob=1.0))
    assert set(trace.steps[0]) == {"escort1", "escort2", "transport1",
                                   "transport2"}
    # all messages carry a known sender
    assert {m.sender for m in log} <= set(trace.steps[0])
    # ticks must be sorted for downstream parsers
    assert [m.tick for m in log] == sorted(m.tick for m in log)


def test_leaf_duration_matches_hazard_mean():
    lam = 0.25
    p = _single_leaf(lam)
    durations = []
    for seed in range(4000):
        trace, _ = simulate(p, SimConfig(seed=seed, ticks=200))
        run = 0
        for t in range(trace.ticks):
            names, blocked = trace.steps[t]["solo"]
            if names[-1] == "the-job" and not blocked:
                run += 1
            else:
                break
        durations.append(run)
    expected = 1.0 / hazard(lam)
    assert statistics.mean(durations) == pytest.approx(expected, rel=0.1)


def test_pending_resolution_speeds_up_with_send_prob(evac_team):
    # high send probability resolves pending announcements faster, so the
    # mission settles into its final state sooner
    def mean_finish(send_prob):
        finishes = []
        for seed in range(20):
            trace, _ = simulate(evac_team, SimConfig(
                seed=seed, ticks=300, team_mode=True, send_prob=send_prob))
            last = trace.steps[-1]
            t = trace.ticks - 1
            while t > 0 and trace.steps[t - 1] == last:
                t -= 1
            finishes.append(t)
        return statistics.mean(finishes)
    assert mean_finish(1.0) < mean_finish(0.1)


def test_team_trace_is_coherent():
    tp = team_program(0, chatter=0.25)
    h = tp.team_hierarchy
    trace, _ = simulate(tp, SimConfig(seed=4, ticks=400, team_mode=True,
                                      send_prob=0.5))
    for t in range(0, trace.ticks, 25):
        # members of one leaf team always share their whole path
        for team in ("ALPHA", "BRAVO", "CHARLIE"):
            members = h.members(team)
            paths = {trace.steps[t][a] for a in members}
            assert len(paths) == 1


def test_message_drop_window():
    # an outage loses the failed agent's messages inside the window and
    # nothing else, in both modes: the runs, so the ground truth, go on
    tp = team_program(0)
    for team_mode, p in ((True, tp), (False, tp.single_agent_view())):
        base_trace, base_log = simulate(p, SimConfig(seed=9, ticks=400, team_mode=team_mode,
                                                     send_prob=0.5))
        fail_trace, fail_log = simulate(p, SimConfig(seed=9, ticks=400, team_mode=team_mode,
                                                     send_prob=0.5, fail_agent="alpha1",
                                                     fail_from=50, fail_ticks=300))
        assert fail_trace == base_trace
        dropped = [m for m in base_log if m not in fail_log]
        assert dropped
        assert all(m.sender == "alpha1" and 50 <= m.tick < 350 for m in dropped)
        assert fail_log == [m for m in base_log if m not in dropped]
        assert not [m for m in fail_log if m.sender == "alpha1" and 50 <= m.tick < 350]


def test_state_changes_counts_path_switches(evac_team):
    trace, _ = simulate(evac_team, SimConfig(seed=1, ticks=100, team_mode=True))
    n = state_changes(trace)
    manual = 0
    for t in range(1, trace.ticks):
        manual += sum(1 for a in trace.steps[t]
                      if trace.steps[t][a] != trace.steps[t - 1][a])
    assert n == manual


def test_checkpoints_delay_and_clipping(evac_team):
    trace, log = simulate(evac_team, SimConfig(seed=11, ticks=60, team_mode=True,
                                               send_prob=0.9,
                                               comm_policy=ALWAYS))
    assert log, "need at least one exchange for this seed"
    cps0 = checkpoints(trace, log)
    cps1 = checkpoints(trace, log, delay=1)
    assert len(cps0) == len(cps1) == len({m.tick for m in log})
    for (t0, s0), (t1, s1) in zip(cps0, cps1):
        assert t1 == min(t0 + 1, trace.ticks - 1)
        assert s0 == trace.steps[t0]
        assert s1 == trace.steps[t1]


@pytest.mark.parametrize("delay", [-1, -200])
def test_checkpoints_reject_negative_delay(evac_team, delay):
    # a checkpoint must not come before its message or before the trace
    trace, log = simulate(evac_team, SimConfig(seed=7, ticks=120, team_mode=True))
    assert log
    with pytest.raises(SimulationError, match=f"delay must be nonnegative, got {delay}$"):
        checkpoints(trace, log, delay)


@pytest.mark.parametrize("ticks", [0, 60])
def test_checkpoints_reject_messages_past_the_trace(evac_team, ticks):
    # an empty trace raised a bare IndexError, and a longer one scored a late
    # message at its last tick
    trace, log = simulate(evac_team, SimConfig(seed=11, ticks=60, team_mode=True,
                                               send_prob=0.9, comm_policy=ALWAYS))
    trace = parse_trace(format_trace(trace) if ticks else "")
    assert trace.ticks == ticks
    late = [m for m in log if m.tick < ticks] + [dataclasses.replace(log[-1], tick=ticks)]
    with pytest.raises(SimulationError, match=f"^message at tick {ticks} is past the trace's "
                                              f"{ticks} ticks$"):
        checkpoints(trace, late, 1)


def test_message_rate_calibration():
    # scarce coordination traffic: about one message per twenty state changes
    tp = team_program(0, chatter=0.25)
    ratios = []
    for seed in range(10):
        trace, log = simulate(tp, SimConfig(seed=seed, ticks=900, team_mode=True,
                                            send_prob=0.3))
        assert len(log) >= 30
        ratios.append(state_changes(trace) / len(log))
    for r in ratios:
        assert 10.0 <= r <= 30.0
    assert 15.0 <= statistics.mean(ratios) <= 25.0


def _dead_end_split(dead_end_rate, task_rate):
    """``split`` (TF) runs LEFT's ``left-dead-end``, which has no transition
    out, beside RIGHT's ``right-task``, which completes; then ``after``."""
    return program_from_document({
        "teams": [{"name": "TF", "parent": None}, {"name": "LEFT", "parent": "TF"},
                  {"name": "RIGHT", "parent": "TF"}],
        "agents": [{"name": "l1", "team": "LEFT"}, {"name": "r1", "team": "RIGHT"}],
        "root": "m",
        "plans": [
            {"id": "m", "name": "mission", "team": "TF"},
            {"id": "split", "name": "split", "team": "TF", "parent": "m", "first_child": True},
            {"id": "after", "name": "after", "team": "TF", "parent": "m", "lambda": 0.1},
            {"id": "dead", "name": "left-dead-end", "team": "LEFT", "parent": "split",
             "first_child": True, "lambda": dead_end_rate},
            {"id": "task", "name": "right-task", "team": "RIGHT", "parent": "split",
             "first_child": True, "lambda": task_rate},
        ],
        "transitions": [{"from": "task", "to": "TERMINATE", "pi": 1.0, "mu": 0.0},
                        {"from": "split", "to": "after", "pi": 1.0, "mu": 0.0}],
    }, team_mode=True)


@pytest.mark.parametrize("dead_end_rate, task_rate", [(5.0, 0.1), (0.1, 5.0)],
                         ids=["dead-end-first", "dead-end-last"])
def test_stuck_group_never_completes_its_parent(dead_end_rate, task_rate):
    # a group whose plan has no way out is stuck there, blocked, as an agent
    # run is: it never counts toward its parent's completion, in either order
    p = _dead_end_split(dead_end_rate, task_rate)
    for seed in range(20):
        trace, _ = simulate(p, SimConfig(seed=seed, ticks=300, team_mode=True))
        assert all(s[a][0] != ("mission", "after") for s in trace.steps for a in s)
        assert trace.steps[-1] == {"l1": (("mission", "split", "left-dead-end"), True),
                                   "r1": (("mission", "split", "right-task"), True)}


def _root_edge(mu):
    """``mission`` runs ``task`` and then takes its own TERMINATE edge, whose
    announcement probability is ``mu``."""
    return program_from_document({
        "teams": [{"name": "T", "parent": None}],
        "agents": [{"name": n, "team": "T"} for n in ("t1", "t2", "t3")],
        "root": "m",
        "plans": [{"id": "m", "name": "mission", "team": "T"},
                  {"id": "task", "name": "task", "team": "T", "parent": "m",
                   "first_child": True, "lambda": 0.3}],
        "transitions": [{"from": "task", "to": "TERMINATE", "pi": 1.0, "mu": 0.0},
                        {"from": "m", "to": "TERMINATE", "pi": 1.0, "mu": mu}],
    }, team_mode=True)


@pytest.mark.parametrize("team_mode, mu", [(True, 0.0), (True, 1.0), (False, 0.0), (False, 1.0)],
                         ids=["0.0", "1.0", "agent-0.0", "agent-1.0"])
def test_team_run_root_edge_ends_the_run(team_mode, mu):
    # the root's own edge completes the run at once: announced, it goes into
    # the void, with no message and no count; silent, it is counted.  An
    # agent mode run is one such run per agent, over the single-agent view
    for seed in range(10):
        trace, log = simulate(_root_edge(mu), SimConfig(seed=seed, ticks=80, team_mode=team_mode))
        assert log == []
        runs = 1 if team_mode else len(trace.agents)
        assert trace.transition_count == runs * (1 if mu else 2)
        ends = set()
        for a in trace.agents:
            end = next(t for t, s in enumerate(trace.steps) if s[a][0] == ("mission",))
            assert all(s[a] == (("mission",), True) for s in trace.steps[end:])
            assert all(s[a] == (("mission", "task"), False) for s in trace.steps[:end])
            ends.add(end)
        if team_mode:
            assert len(ends) == 1  # one shared run ends for every agent at once
