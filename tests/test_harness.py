import dataclasses
import random

import numpy as np
import pytest

from overhear.belief import MonitoringError, VisitCounter
from overhear.ingest import INIT, TERM, ObservedMessage, messages_by_tick
from overhear.harness import (_anchor, _silent_closure, bench_scalability, evaluate_run,
                              hypothesis_count_curve, render_bench, render_report, score_run)
from overhear.compiled import _compile
from overhear.model import TERMINATE, program_from_document, program_to_document
from overhear.progen import random_program, team_program
from overhear.recognizer import make_recognizer
from overhear.sim import ALWAYS, SimConfig, simulate
from overhear.social import CommModel, learn_comm_model

from conftest import snapshot
from oracles import MAX_ORACLE_STATES, engine_vector, exact_filter, oracle_states
from test_digest import TICKS, table_programs


def _solo_doc(plans, transitions):
    return program_from_document({
        "teams": [{"name": "T", "parent": None}],
        "agents": [{"name": "solo", "team": "T"}],
        "root": "r",
        "plans": [{"id": "r", "name": "top", "team": "T"}] + plans,
        "transitions": transitions,
    })


def _engine_beliefs(p, ticks, log=()):
    """The array layout's belief of the one agent, "solo", after each tick 0..ticks."""
    rec = make_recognizer(p, "array")
    return [snapshot(rec.beliefs["solo"]) for _ in rec.replay(log, ticks + 1)]


def _chain3(mu=0.7):
    plans = [
        {"id": "a", "name": "one", "team": "T", "parent": "r",
         "first_child": True, "lambda": 0.3},
        {"id": "b", "name": "two", "team": "T", "parent": "r", "lambda": 0.25},
        {"id": "c", "name": "three", "team": "T", "parent": "r", "lambda": 0.2},
    ]
    transitions = [
        {"from": "a", "to": "b", "pi": 1.0, "mu": mu},
        {"from": "b", "to": "c", "pi": 1.0, "mu": mu},
        {"from": "c", "to": "TERMINATE", "pi": 1.0, "mu": 0.0},
    ]
    return _solo_doc(plans, transitions)


# --- exact oracle ---------------------------------------------------------------


def test_oracle_idle_leaf_stays_put():
    p = _solo_doc([{"id": "a", "name": "only", "team": "T", "parent": "r",
                    "first_child": True, "lambda": 0.0}], [])
    states, vectors = exact_filter(p, 25)
    i = states.index(("exec", p.index["a"]))
    for v in vectors:
        assert v[i] == pytest.approx(1.0)
        assert v.sum() == pytest.approx(1.0)


def test_oracle_even_split_between_successors():
    plans = [
        {"id": "a", "name": "src", "team": "T", "parent": "r",
         "first_child": True, "lambda": 5.0},
        {"id": "b", "name": "left", "team": "T", "parent": "r", "lambda": 0.0},
        {"id": "c", "name": "right", "team": "T", "parent": "r", "lambda": 0.0},
    ]
    transitions = [
        {"from": "a", "to": "b", "pi": 0.5, "mu": 0.0},
        {"from": "a", "to": "c", "pi": 0.5, "mu": 0.0},
    ]
    p = _solo_doc(plans, transitions)
    states, vectors = exact_filter(p, 100)
    ib, ic = states.index(("exec", p.index["b"])), states.index(("exec", p.index["c"]))
    assert vectors[-1][ib] == pytest.approx(0.5, abs=1e-6)
    assert vectors[-1][ic] == pytest.approx(0.5, abs=1e-6)
    # the belief engine lands on the same split
    beliefs = _engine_beliefs(p, 100)
    assert beliefs[-1].active["b"] == pytest.approx(0.5, abs=1e-6)
    assert beliefs[-1].active["c"] == pytest.approx(0.5, abs=1e-6)


def test_engine_tracks_oracle_through_messages():
    p = _chain3()
    _, log = simulate(p, SimConfig(seed=3, ticks=50, send_prob=0.6))
    states, vectors = exact_filter(p, 50, log)
    beliefs = _engine_beliefs(p, 50, log)
    worst = 0.0
    for v, b in zip(vectors, beliefs):
        worst = max(worst, float(np.max(np.abs(engine_vector(p, states, b) - v))))
    assert worst <= 1e-9


def test_engine_tracks_oracle_when_the_root_terminates():
    # C1's check on a program whose root carries a TERMINATE edge: a finished
    # mission blocks the root in both the compiled step and the oracle
    doc = program_to_document(_chain3())
    doc["transitions"].append({"from": "r", "to": "TERMINATE", "pi": 1.0, "mu": 0.6})
    p = program_from_document(doc)
    for seed in range(5):
        _, log = simulate(p, SimConfig(seed=seed, ticks=60, send_prob=0.6))
        states, vectors = exact_filter(p, 60, log)
        beliefs = _engine_beliefs(p, 60, log)
        for v, b in zip(vectors, beliefs):
            ev = engine_vector(p, states, b)
            assert float(np.max(np.abs(ev - v))) <= 1e-9
            order = np.argsort(v)
            if v[order[-1]] - v[order[-2]] > 1e-6:
                assert int(np.argmax(ev)) == int(order[-1])
        assert beliefs[-1].blocked["r"] > 0.0


def test_engine_tracks_oracle_when_evidence_names_a_chain():
    # plan name x sits on b and on b2, b's non-first child; at tick 6 both
    # hold credit (blocked a feeds b, blocked b1 feeds b2), so evidence must
    # prune b2 under its ancestor b in the engine as in the oracle
    plans = [
        {"id": "a", "name": "a", "team": "T", "parent": "r",
         "first_child": True, "lambda": 0.3},
        {"id": "b", "name": "x", "team": "T", "parent": "r"},
        {"id": "b1", "name": "b1", "team": "T", "parent": "b",
         "first_child": True, "lambda": 0.4},
        {"id": "b2", "name": "x", "team": "T", "parent": "b", "lambda": 0.2},
    ]
    transitions = [
        {"from": "a", "to": "b", "pi": 1.0, "mu": 0.5},
        {"from": "b1", "to": "b2", "pi": 1.0, "mu": 0.5},
        {"from": "b", "to": "a", "pi": 1.0, "mu": 0.5},
        {"from": "b2", "to": "TERMINATE", "pi": 1.0, "mu": 0.0},
    ]
    p = _solo_doc(plans, transitions)
    log = [ObservedMessage(tick=6, sender="solo", team="T", kind=INIT, plan="x")]
    states, vectors = exact_filter(p, 10, log)
    beliefs = _engine_beliefs(p, 10, log)
    assert beliefs[5].blocked["a"] > 0.0 and beliefs[5].blocked["b1"] > 0.0
    for v, b in zip(vectors, beliefs):
        assert float(np.max(np.abs(engine_vector(p, states, b) - v))) <= 1e-9


def test_oracle_state_space_is_bounded():
    tp = team_program(0, chatter=0.25)
    with pytest.raises(MonitoringError, match="limit"):
        oracle_states(tp.single_agent_view())
    small = _chain3()
    assert len(oracle_states(small)) <= MAX_ORACLE_STATES


def test_oracle_rejects_unknown_plan_message():
    p = _chain3()
    bogus = [ObservedMessage(tick=2, sender="solo", team="T", kind=INIT,
                             plan="no-such-step")]
    with pytest.raises(MonitoringError, match="unknown plan"):
        exact_filter(p, 5, bogus)


# --- scoring --------------------------------------------------------------------


def _paths(*names):
    return {u: (("mission",) + (n,)) if isinstance(n, str) else ("mission",) + n
            for u, n in names}


def test_score_run_all_correct():
    truth = [_paths(("u1", "a"), ("u2", "b"))] * 4
    rep = score_run(truth, truth)
    assert rep.accuracy == 1.0
    assert rep.comparisons == 8
    assert rep.correct == 8
    assert rep.error_curve == (0, 0, 0, 0)


def test_score_run_alternating():
    truth = [_paths(("u", "a"))] * 10
    hyp = [_paths(("u", "a" if i % 2 == 0 else "b")) for i in range(10)]
    rep = score_run(hyp, truth)
    assert rep.accuracy == pytest.approx(0.5)
    assert rep.error_curve == (0, 1, 1, 2, 2, 3, 3, 4, 4, 5)


def test_score_run_hand_tally():
    truth = [_paths(("x", "a"), ("y", "b")),
             _paths(("x", "a"), ("y", "b")),
             _paths(("x", "c"), ("y", "b")),
             _paths(("x", "c"), ("y", "d")),
             _paths(("x", "c"), ("y", "d"))]
    hyp = [_paths(("x", "a"), ("y", "b")),
           _paths(("x", "a"), ("y", "z")),
           _paths(("x", "c"), ("y", "b")),
           _paths(("x", "a"), ("y", "d")),
           _paths(("x", "c"), ("y", "d"))]
    rep = score_run(hyp, truth)
    assert rep.comparisons == 10
    assert rep.correct == 8
    assert rep.accuracy == pytest.approx(0.8)
    assert rep.error_curve == (0, 1, 1, 2, 2)


def test_score_run_shape_errors():
    truth = [_paths(("u", "a"))]
    with pytest.raises(MonitoringError, match="checkpoints"):
        score_run([], truth)
    with pytest.raises(MonitoringError, match="missing"):
        score_run([_paths(("other", "a"))], truth)


# --- end-to-end evaluation --------------------------------------------------------


def test_evaluate_run_validates_options(evac_team):
    trace, log = simulate(evac_team, SimConfig(seed=2, ticks=100, team_mode=True,
                                               send_prob=0.5, comm_policy=ALWAYS))
    with pytest.raises(MonitoringError, match="mode"):
        evaluate_run(evac_team, trace, log, mode="exact")
    with pytest.raises(MonitoringError, match="coherent"):
        evaluate_run(evac_team, trace, log, mode="yoyo", coherent=False)
    with pytest.raises(MonitoringError, match="delay must be nonnegative, got -1"):
        evaluate_run(evac_team, trace, log, delay=-1)
    # an agent-mode run lets a team's members part ways, so no team path is true
    trace, log = simulate(evac_team, SimConfig(seed=2, ticks=150, send_prob=0.5))
    with pytest.raises(MonitoringError, match="disagree in the ground truth; run is not coherent"):
        evaluate_run(evac_team, trace, log, mode="yoyo")


def test_evaluate_run_rejects_messages_past_the_trace():
    # the replay stops at the trace's last tick, so a late message was once
    # scored at a checkpoint clipped to that tick without ever being replayed
    tp = team_program(0)
    trace, log = simulate(tp, SimConfig(seed=0, ticks=60, team_mode=True))
    assert len(log) > 3 and evaluate_run(tp, trace, log).exchanges > 0
    late = log[:-3] + [dataclasses.replace(m, tick=m.tick + 500) for m in log[-3:]]
    first = late[-3]
    with pytest.raises(MonitoringError, match=(
            rf"^message at tick {first.tick} \({first.sender} {first.kind} {first.plan}\) "
            r"is past the truth trace's last tick, 59$")):
        evaluate_run(tp, trace, late)
    edge = log[:-1] + [dataclasses.replace(log[-1], tick=trace.ticks)]
    with pytest.raises(MonitoringError, match=f"at tick {trace.ticks} "):
        evaluate_run(tp, trace, edge)


def test_evaluate_run_report_shape(evac_team):
    trace, log = simulate(evac_team, SimConfig(seed=2, ticks=150, team_mode=True,
                                               send_prob=0.5, comm_policy=ALWAYS))
    hyps = []
    rep = evaluate_run(evac_team, trace, log, mode="yoyo", hypotheses_out=hyps)
    assert rep.units == ("ESCORT", "TRANSPORT")
    assert rep.exchanges == len({m.tick for m in log})
    assert rep.comparisons == 2 * rep.exchanges
    assert 0.0 <= rep.accuracy <= 1.0
    assert len(rep.error_curve) == rep.exchanges
    assert rep.error_curve[-1] == rep.comparisons - rep.correct
    assert len(rep.hypothesis_counts) == rep.exchanges
    assert rep.visits > 0
    assert len(hyps) == rep.exchanges
    assert set(hyps[0]) == {"ESCORT", "TRANSPORT"}
    assert rep.config["mode"] == "yoyo"
    assert rep.config["seed"] == 2


def test_evaluate_run_array_modes_agree_without_chatter():
    tp = team_program(3, chatter=0.0)
    cfg = SimConfig(seed=3, ticks=300, team_mode=True, send_prob=1.0)
    trace, log = simulate(tp, cfg)
    ya, aa = [], []
    yrep = evaluate_run(tp, trace, log, mode="yoyo", hypotheses_out=ya)
    arep = evaluate_run(tp, trace, log, mode="array", coherent=True,
                        hypotheses_out=aa)
    assert ya == aa
    assert yrep.accuracy == arep.accuracy


def test_evaluate_run_incoherent_array_scores_agents(evac_team):
    trace, log = simulate(evac_team, SimConfig(seed=5, ticks=150, team_mode=True,
                                               send_prob=0.5, comm_policy=ALWAYS))
    rep = evaluate_run(evac_team, trace, log, mode="array", coherent=False)
    assert rep.units == ("escort1", "escort2", "transport1", "transport2")
    assert rep.comparisons == 4 * rep.exchanges


# --- hypothesis counting -----------------------------------------------------------


def test_count_curve_shrinks_on_terminating_chain():
    p = _chain3()
    script = [ObservedMessage(tick=1, sender="solo", team="T", kind=TERM, plan="one"),
              ObservedMessage(tick=2, sender="solo", team="T", kind=TERM, plan="two")]
    assert hypothesis_count_curve(p, script) == [2, 1]


def test_count_curve_rules_never_hurt():
    tp = team_program(0, chatter=0.25)
    _, log = simulate(tp, SimConfig(seed=1, ticks=400, team_mode=True,
                                    send_prob=0.3))
    assert len(log) >= 5
    rules = learn_comm_model(log)
    base = hypothesis_count_curve(tp, log)
    informed = hypothesis_count_curve(tp, log, rules=rules)
    online = hypothesis_count_curve(tp, log, online=True)
    assert len(base) == len(informed) == len(online)
    assert base[0] == 35  # every leaf of the forty-plan mission program
    for no_rules, with_rules, learned in zip(base, informed, online):
        assert with_rules <= no_rules
        assert with_rules <= learned <= no_rules


def test_count_curve_respects_tick_cutoff():
    p = _chain3()
    script = [ObservedMessage(tick=1, sender="solo", team="T", kind=TERM, plan="one"),
              ObservedMessage(tick=9, sender="solo", team="T", kind=TERM, plan="two")]
    assert hypothesis_count_curve(p, script, up_to_tick=5) == [2]



def _set_closure(p, start, rules) -> set:
    """The positions a set of nodes closes to, walked as one set: a work
    list of ``enter`` and ``step`` ops shared by every start node."""
    current, stepped = set(), set()
    work = [("enter", x) for x in sorted(start)]
    while work:
        op, x = work.pop()
        if op == "enter":
            if x not in current:
                current.add(x)
                work += [("enter", c) for c in p.children_at[x] if p.plans[c].is_first_child]
                work.append(("step", x))
        elif x not in stepped:
            stepped.add(x)
            if rules is not None and rules.predicts(p.plans[x].name, TERM):
                continue
            for t in p.out_at[x]:
                if t.dst != TERMINATE:
                    y = p.index[t.dst]
                    if rules is None or not rules.predicts(p.plans[y].name, INIT):
                        work.append(("enter", y))
                elif p.ancestors_at[x]:
                    work.append(("step", p.ancestors_at[x][0]))
    return current


def _reference_curve(p, messages, rules, online) -> list:
    """``hypothesis_count_curve`` with each exchange's anchor set walked as
    one set and counted afresh."""
    counts, learned = [], CommModel(frozenset())
    for _, batch in sorted(messages_by_tick(messages).items()):
        if online:
            learned = learn_comm_model(batch, learned)
        anchors = [_anchor(p, m) for m in batch]
        joined = set.intersection(*anchors) or set().union(*anchors)
        possible = _set_closure(p, joined, learned if online else rules)
        counts.append(sum(1 for x in possible if not p.children_at[x]))
    return counts


def test_count_curves_close_each_set_as_the_union_of_its_nodes():
    # every table program on its own logs (the runs ``HYPOTHESIS_SHA256``
    # pins), with no rules, learned rules and online rules, against the
    # curve that walks each anchor set as one set; and random node sets
    # under each program's learned rules
    rng = random.Random(19)
    for p in table_programs():
        for seed in range(3):
            _, log = simulate(p, SimConfig(seed=seed, ticks=TICKS, team_mode=p.team_mode,
                                           send_prob=0.5))
            learned = learn_comm_model(log)
            for rules in (None, learned):
                for online in (False, True):
                    assert (hypothesis_count_curve(p, log, rules=rules, online=online)
                            == _reference_curve(p, log, rules, online)), (p.root, seed, online)
        nodes = range(len(p.node_ids))
        for rules in (None, learned):
            for _ in range(5):
                start = set(rng.sample(nodes, rng.randint(1, min(len(nodes), 6))))
                leaves = {x for x in _set_closure(p, start, rules) if not p.children_at[x]}
                assert leaves == set().union(*(_silent_closure(p, x, rules) for x in start))

# --- rendering and benchmarks -------------------------------------------------------


def test_render_report_layout(evac_team):
    trace, log = simulate(evac_team, SimConfig(seed=2, ticks=150, team_mode=True,
                                               send_prob=0.5, comm_policy=ALWAYS))
    rep = evaluate_run(evac_team, trace, log, mode="yoyo")
    text = render_report(rep)
    lines = text.splitlines()
    assert "config mode yoyo" in lines
    assert f"config seed 2" in lines
    assert f"metric exchanges {rep.exchanges}" in lines
    acc = [l for l in lines if l.startswith("metric accuracy ")]
    assert len(acc) == 1 and len(acc[0].split()[2].split(".")[1]) == 6
    assert sum(1 for l in lines if l.startswith("curve errors ")) == rep.exchanges
    assert sum(1 for l in lines if l.startswith("curve hypotheses ")) == rep.exchanges
    assert text.endswith("\n")


def test_bench_scalability_layout_sizes(evac_team):
    rows = bench_scalability(evac_team, [4, 5, 6], ticks=10)
    nv = len(evac_team.single_agent_view().node_ids)
    np_ = len(evac_team.node_ids)
    teams = len(evac_team.team_hierarchy.teams)
    for row, n in zip(rows, [4, 5, 6]):
        assert set(row) == {"agents", "array_nodes", "yoyo_nodes", "array_visits",
                            "yoyo_visits"}
        assert row["agents"] == n
        assert row["array_nodes"] == n * nv
        assert row["yoyo_nodes"] == np_ + teams + n
        assert row["array_visits"] == 10 * n * nv
        assert row["yoyo_visits"] == 10 * np_
    with pytest.raises(MonitoringError, match="shrink"):
        bench_scalability(evac_team, [3])


def test_bench_scalability_compiles_one_kernel_per_layout():
    # growing the team adds agents, which never change a step table, so
    # every size shares the team program's compiled object and its view's
    _compile.cache_clear()
    bench_scalability(team_program(0), range(11, 21), ticks=2)
    assert _compile.cache_info().misses == 2


def test_render_bench_layout(evac_team):
    rows = bench_scalability(evac_team, [4, 5], ticks=5)
    text = render_bench(rows)
    lines = text.splitlines()
    assert lines[0] == "agents array_nodes yoyo_nodes array_visits yoyo_visits"
    assert len(lines) == 3
    assert all(len(l.split()) == 5 for l in lines[1:])


def test_oracle_matches_engine_on_random_programs():
    # a miniature version of the acceptance sweep, kept fast
    for pid in range(3):
        p = random_program(pid, max_nodes=8)
        for seed in range(3):
            _, log = simulate(p, SimConfig(seed=seed, ticks=40, send_prob=0.5))
            states, vectors = exact_filter(p, 40, log)
            beliefs = _engine_beliefs(p, 40, log)
            for v, b in zip(vectors, beliefs):
                err = float(np.max(np.abs(engine_vector(p, states, b) - v)))
                assert err <= 1e-9
