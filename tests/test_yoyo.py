import dataclasses
import os
import pathlib
import subprocess
import sys

import pytest

from overhear import compiled, yoyo
from overhear.belief import BeliefState, VisitCounter, init_beliefs
from overhear.ingest import INIT, TERM, ObservedMessage, messages_by_tick
from overhear.model import ProgramError, program_from_document, program_to_document
from overhear.progen import team_program
from overhear.recognizer import make_recognizer
from overhear.sim import SimConfig, simulate
from overhear.yoyo import _rescale, team_most_likely, yoyo_tick

from conftest import brute_leaves, propagate_down, propagate_forward
from test_digest import SWEEP_SHA256, TICKS, sweep_replays, warm_replays


def _two_team_doc():
    """Root with one joint phase, then a parallel split over two teams."""
    return {
        "teams": [{"name": "TF", "parent": None},
                  {"name": "LEFT", "parent": "TF"},
                  {"name": "RIGHT", "parent": "TF"}],
        "agents": [{"name": "l1", "team": "LEFT"}, {"name": "l2", "team": "LEFT"},
                   {"name": "r1", "team": "RIGHT"}],
        "root": "m",
        "plans": [
            {"id": "m", "name": "mission", "team": "TF"},
            {"id": "j", "name": "joint-prep", "team": "TF", "parent": "m",
             "first_child": True, "lambda": 0.2},
            {"id": "s", "name": "split-work", "team": "TF", "parent": "m"},
            {"id": "la", "name": "left-a", "team": "LEFT", "parent": "s",
             "first_child": True, "lambda": 0.2},
            {"id": "lb", "name": "left-b", "team": "LEFT", "parent": "s",
             "lambda": 0.2},
            {"id": "ra", "name": "right-a", "team": "RIGHT", "parent": "s",
             "first_child": True, "lambda": 0.2},
        ],
        "transitions": [
            {"from": "j", "to": "s", "pi": 1.0, "mu": 0.9, "teams": ["TF"]},
            {"from": "la", "to": "lb", "pi": 1.0, "mu": 0.5, "teams": ["LEFT"]},
            {"from": "lb", "to": "TERMINATE", "pi": 1.0, "mu": 0.0,
             "teams": ["LEFT"]},
            {"from": "ra", "to": "TERMINATE", "pi": 1.0, "mu": 0.0,
             "teams": ["RIGHT"]},
            {"from": "s", "to": "TERMINATE", "pi": 1.0, "mu": 0.0, "teams": ["TF"]},
        ],
    }


@pytest.fixture
def two_team():
    return program_from_document(_two_team_doc(), team_mode=True)


def test_down_duplicates_across_teams(evac_mini):
    act = list(evac_mini.zeros)
    propagate_down(evac_mini.index["n3"], 0.6, act, evac_mini)
    active = dict(zip(evac_mini.node_ids, act))
    # one first child per team group: each team gets the full mass
    assert active["n4"] == pytest.approx(0.6)
    assert active["n5"] == pytest.approx(0.6)


def test_down_splits_within_one_team():
    doc = _two_team_doc()
    doc["plans"].append({"id": "la2", "name": "left-a-alt", "team": "LEFT",
                         "parent": "s", "first_child": True, "lambda": 0.2})
    doc["transitions"].append({"from": "la2", "to": "TERMINATE", "pi": 1.0,
                               "mu": 0.0, "teams": ["LEFT"]})
    p = program_from_document(doc, team_mode=True)
    act = list(p.zeros)
    propagate_down(p.index["s"], 0.6, act, p)
    active = dict(zip(p.node_ids, act))
    assert active["la"] == pytest.approx(0.3)
    assert active["la2"] == pytest.approx(0.3)
    assert active["ra"] == pytest.approx(0.6)


def test_team_init(evac_mini):
    b = init_beliefs(evac_mini)
    assert b.active["n0"] == 1.0
    assert b.active["n1"] == 1.0
    assert b.active["n4"] == 0.0


def test_transitions_tagged_for_other_teams_are_rejected():
    # TF's plan start cannot hand one edge to LEFT and another to RIGHT: the
    # team that executes a plan takes its transitions
    doc = {
        "teams": [{"name": "TF", "parent": None},
                  {"name": "LEFT", "parent": "TF"},
                  {"name": "RIGHT", "parent": "TF"}],
        "agents": [{"name": "l1", "team": "LEFT"}, {"name": "r1", "team": "RIGHT"}],
        "root": "m",
        "plans": [
            {"id": "m", "name": "mission", "team": "TF"},
            {"id": "a", "name": "start", "team": "TF", "parent": "m",
             "first_child": True, "lambda": 10.0},
            {"id": "l", "name": "left-task", "team": "LEFT", "parent": "m",
             "lambda": 0.0},
            {"id": "r", "name": "right-task", "team": "RIGHT", "parent": "m",
             "lambda": 0.0},
        ],
        "transitions": [
            {"from": "a", "to": "l", "pi": 1.0, "mu": 0.0, "teams": ["LEFT"]},
            {"from": "a", "to": "r", "pi": 1.0, "mu": 0.0, "teams": ["RIGHT"]},
        ],
    }
    with pytest.raises(ProgramError, match=r"\['TF'\], the team of source plan 'a' "
                                           r"\[transition a->l\]$"):
        program_from_document(doc, team_mode=True)


def test_forward_splits_within_team(two_team):
    p = two_team
    sp = p.single_agent_view()
    # with a single team the yoyo forward pass must agree with the
    # single-agent pass on the LEFT chain
    doc = _two_team_doc()
    doc["teams"] = [{"name": "TF", "parent": None}]
    doc["agents"] = [{"name": "l1", "team": "TF"}]
    for plan in doc["plans"]:
        plan["team"] = "TF"
    for t in doc["transitions"]:
        t["teams"] = ["TF"]
    mono = program_from_document(doc, team_mode=True)
    b_team = init_beliefs(mono)
    b_single = init_beliefs(sp)
    for _ in range(40):
        yoyo_tick(mono, b_team, [])
        propagate_forward(b_single, sp)
    for x in mono.node_ids:
        assert b_team.active[x] == b_single.active[x]
        assert b_team.blocked[x] == b_single.blocked[x]


def test_no_message_tick_is_forward_only(two_team):
    a = init_beliefs(two_team)
    b = init_beliefs(two_team)
    yoyo_tick(two_team, a, [])
    propagate_forward(b, two_team)
    assert a.active == b.active
    assert a.blocked == b.blocked


def test_duplicate_messages_merge(two_team):
    msgs1 = [ObservedMessage(6, "l1", "TF", TERM, "joint-prep")]
    msgs3 = [ObservedMessage(6, "l1", "TF", TERM, "joint-prep"),
             ObservedMessage(6, "l2", "TF", TERM, "joint-prep"),
             ObservedMessage(6, "r1", "TF", TERM, "joint-prep")]
    states = []
    for msgs in (msgs1, msgs3):
        b = init_beliefs(two_team)
        for _ in range(6):
            yoyo_tick(two_team, b, [])
        yoyo_tick(two_team, b, msgs)
        states.append(b)
    assert states[0].active == states[1].active
    assert states[0].blocked == states[1].blocked


def test_evidence_lights_up_parallel_subtrees(two_team):
    b = init_beliefs(two_team)
    for _ in range(6):
        yoyo_tick(two_team, b, [])
    yoyo_tick(two_team, b, [ObservedMessage(6, "l1", "TF", TERM, "joint-prep")])
    # the split phase and both teams' first tasks all carry the full belief
    assert b.active["s"] == pytest.approx(1.0)
    assert b.active["la"] == pytest.approx(1.0)
    assert b.active["ra"] == pytest.approx(1.0)
    assert b.active["j"] == 0.0
    assert team_most_likely(b, two_team, "LEFT") == two_team.index["la"]
    assert team_most_likely(b, two_team, "RIGHT") == two_team.index["ra"]


def test_sibling_team_keeps_prior_share_of_parent(two_team):
    # LEFT finishing left-a re-aligns RIGHT's subtree to the parent's new
    # belief, preserving RIGHT's share of the parent rather than its shape
    b = init_beliefs(two_team)
    for _ in range(6):
        yoyo_tick(two_team, b, [])
    yoyo_tick(two_team, b, [ObservedMessage(6, "l1", "TF", TERM, "joint-prep")])
    for _ in range(4):
        yoyo_tick(two_team, b, [])
    share_before = b.active["ra"] / b.active["s"]
    yoyo_tick(two_team, b, [ObservedMessage(11, "l2", "LEFT", TERM, "left-a")])
    assert b.active["lb"] == pytest.approx(1.0)
    assert b.active["s"] == pytest.approx(1.0)
    assert b.active["ra"] / b.active["s"] == pytest.approx(share_before, abs=1e-9)


def _rescale_into(parent, child, b, prior, p) -> BeliefState:
    """b after the rescale a climb from ``child`` runs as it steps into
    ``parent``, run on copies of b's tables."""
    (walk,) = [walk for _, par, walk in p.evidence_climbs[p.index[child]]
               if par == p.index[parent]]
    act, blk = list(b.act), list(b.blk)
    _rescale(walk, act, blk, prior.act, prior.blk, set())
    return BeliefState(act, blk, p.index)


def _state(p, active):
    """A state holding ``active``, node id -> mass, and 0.0 everywhere else."""
    act = list(p.zeros)
    for x, mass in active.items():
        act[p.index[x]] = mass
    return BeliefState(act, p.zeros, p.index)


def test_scale_rescales_sibling_team_subtree(evac_mini):
    p = evac_mini
    # hand-built prior: landing-zone-maneuvers at 0.5, both tasks under it
    prior = _state(p, {"n0": 1.0, "n3": 0.5, "n4": 0.5, "n5": 0.5})
    b = _state(p, {"n0": 1.0, "n3": 1.0, "n4": 1.0})
    b = _rescale_into("n3", "n4", b, prior, p)
    # ESCORT's subtree is re-aligned to the parent's new mass
    assert b.active["n5"] == pytest.approx(1.0)


def test_scale_prior_shares_are_preserved():
    # two leaves at prior 0.25/0.25 under a prior parent of 0.5: when the
    # parent rises to 1.0 the leaves keep their shares, becoming 0.5/0.5
    doc = _two_team_doc()
    doc["plans"].append({"id": "rb", "name": "right-b", "team": "RIGHT",
                         "parent": "s", "first_child": True, "lambda": 0.2})
    doc["transitions"].append({"from": "rb", "to": "TERMINATE", "pi": 1.0,
                               "mu": 0.0, "teams": ["RIGHT"]})
    p = program_from_document(doc, team_mode=True)
    prior = _state(p, {"m": 1.0, "s": 0.5, "la": 0.5, "ra": 0.25, "rb": 0.25})
    b = _state(p, {"m": 1.0, "s": 1.0, "la": 1.0})
    b = _rescale_into("s", "la", b, prior, p)
    assert b.active["ra"] == pytest.approx(0.5)
    assert b.active["rb"] == pytest.approx(0.5)
    assert b.active["ra"] + b.active["rb"] == pytest.approx(b.active["s"])


def test_scale_skips_plans_of_ancestor_teams(evac_team):
    # after FLIGHT-TEAM evidence, the TASK-FORCE-owned predecessor must not
    # be resurrected from the prior
    p = evac_team
    b = init_beliefs(p)
    for _ in range(5):
        yoyo_tick(p, b, [])
    yoyo_tick(p, b, [ObservedMessage(5, "escort1", "TASK-FORCE", TERM,
                                     "process-orders")])
    assert b.active["n1"] == 0.0
    assert b.blocked["n1"] == 0.0
    assert b.active["n6"] == pytest.approx(1.0)
    assert team_most_likely(b, p, "ESCORT") == p.index["n6"]


def _skip_level_doc(left_owner):
    """``_two_team_doc`` with LEFT's agents in a new subteam LEFT1 and LEFT's
    plans owned by ``left_owner``."""
    doc = _two_team_doc()
    doc["teams"].append({"name": "LEFT1", "parent": "LEFT"})
    for agent in doc["agents"]:
        if agent["team"] == "LEFT":
            agent["team"] = "LEFT1"
    for plan in doc["plans"]:
        if plan["team"] == "LEFT":
            plan["team"] = left_owner
    for t in doc["transitions"]:
        if t["teams"] == ["LEFT"]:
            t["teams"] = [left_owner]
    return doc


def test_rescale_crosses_a_skipped_team_level():
    # split-work (TF) runs LEFT1's and RIGHT's plans in parallel, two team
    # levels apart: evidence about LEFT1's plan rescales RIGHT's subtree
    # exactly as it does when LEFT, one level below TF, owns the plan
    right = {}
    for owner in ("LEFT", "LEFT1"):
        p = program_from_document(_skip_level_doc(owner), team_mode=True)
        b = init_beliefs(p)
        for _ in range(6):
            yoyo_tick(p, b, [])
        yoyo_tick(p, b, [ObservedMessage(6, "l1", "TF", TERM, "joint-prep")])
        for _ in range(4):
            yoyo_tick(p, b, [])
        share_before = b.active["ra"] / b.active["s"]
        yoyo_tick(p, b, [ObservedMessage(11, "l2", owner, TERM, "left-a")])
        assert b.active["ra"] / b.active["s"] == pytest.approx(share_before, abs=1e-9)
        right[owner] = (b.active["ra"], b.blocked["ra"])
    assert right["LEFT1"] == right["LEFT"]


def test_term_of_sink_keeps_named_nodes(two_team):
    b = init_beliefs(two_team)
    for _ in range(6):
        yoyo_tick(two_team, b, [])
    yoyo_tick(two_team, b, [ObservedMessage(6, "l1", "TF", TERM, "joint-prep")])
    for _ in range(3):
        yoyo_tick(two_team, b, [])
    # right-a can only TERMINATE; announcing its end must not zero the state
    yoyo_tick(two_team, b, [ObservedMessage(10, "r1", "RIGHT", TERM, "right-a")])
    assert b.active["ra"] == pytest.approx(1.0)
    assert team_most_likely(b, two_team, "RIGHT") == two_team.index["ra"]


def test_parallel_sibling_mass_matches_parent(two_team):
    # while no sibling mass has drained off through completions, every
    # evidence step leaves the parallel subtrees carrying the parent's mass
    b = init_beliefs(two_team)
    for _ in range(6):
        yoyo_tick(two_team, b, [])
    yoyo_tick(two_team, b, [ObservedMessage(6, "l1", "TF", TERM, "joint-prep")])
    left = b.active["la"] + b.active["lb"] + b.blocked["la"] + b.blocked["lb"]
    right = b.active["ra"] + b.blocked["ra"]
    assert left == pytest.approx(b.active["s"], abs=1e-9)
    assert right == pytest.approx(b.active["s"], abs=1e-9)


def test_unknown_message_team_reads_as_senders_team(two_team):
    # a team the program does not know falls back to the sender's leaf team
    final = {}
    for team in ("LEFT", "NO-SUCH-TEAM", "RIGHT"):
        b = init_beliefs(two_team)
        for _ in range(6):
            yoyo_tick(two_team, b, [])
        yoyo_tick(two_team, b, [ObservedMessage(6, "l1", "TF", TERM, "joint-prep")])
        yoyo_tick(two_team, b, [ObservedMessage(7, "l2", team, TERM, "left-a")])
        final[team] = (b.active, b.blocked)
    assert final["NO-SUCH-TEAM"] == final["LEFT"]
    assert final["RIGHT"] != final["LEFT"]  # the team the message names matters


def test_each_team_keeps_its_own_evidence_in_a_crowded_tick():
    # A team-mode run of team_program(2) whose log, quantized by five ticks,
    # puts raw ticks 40-44 on tick 8: INIT and TERM of phase-04, and TERM of
    # BRAVO's and CHARLIE's step 0 in phase-05.  The TERM of phase-04 makes
    # phase-05 a candidate with no credit (phase-04 held no blocked mass);
    # it must not prune the step-1 plans that BRAVO's and CHARLIE's
    # messages credit, since the truth one tick later is on both.
    p = team_program(2)
    trace, log = simulate(p, SimConfig(seed=2, ticks=50, team_mode=True, send_prob=0.6))
    by_tick = messages_by_tick([dataclasses.replace(m, tick=m.tick // 5) for m in log])
    assert sorted((m.kind, m.plan) for m in by_tick[8]) == [
        (INIT, "phase-04"), (TERM, "bravo-05-step0"), (TERM, "charlie-05-step0"),
        (TERM, "phase-04")]
    rec = make_recognizer(p, "yoyo")
    for t in range(9):
        rec.step(by_tick.get(t, []))
    for team in ("bravo", "charlie"):
        (step1,) = [n.id for n in p.plans if n.name == f"{team}-05-step1"]
        assert rec.belief.active[step1] == 1.0
        for t in (45, 46):
            assert trace.steps[t][f"{team}1"][0] == ("mission", "phase-05", f"{team}-05-step1")


def test_unknown_plan_diagnostic(two_team):
    from overhear.belief import MonitoringError
    b = init_beliefs(two_team)
    with pytest.raises(MonitoringError, match="incoherently"):
        yoyo_tick(two_team, b, [ObservedMessage(0, "l1", "TF", INIT, "no-plan")])


def test_state_size_independent_of_agents():
    tp = team_program(0)
    doc = program_to_document(tp)
    doc["agents"].append({"name": "extra", "team": "ALPHA"})
    bigger = program_from_document(doc, team_mode=True)
    assert len(init_beliefs(tp).active) == len(init_beliefs(bigger).active)


def test_quiet_tick_visits_bounded():
    tp = team_program(0)
    b = init_beliefs(tp)
    counter = VisitCounter()
    for _ in range(10):
        yoyo_tick(tp, b, [], counter)
    assert counter.visits == 10 * len(tp.node_ids)


def test_quiet_ticks_reuse_groups_and_kernels():
    # every derived table is a cached property of the program or its team
    # hierarchy, kept in the instance's __dict__; one warm-up tick and one
    # query per unit build the groups, the compiled object, the path and
    # team-leaf tables, and 50 more queried quiet ticks in any layout must
    # neither add a table nor replace one; the step memo starts empty, so
    # the warm-up computes its step and queries rather than looking them up
    compiled._compile.cache_clear()
    tp = team_program(0)
    recognizers = [make_recognizer(tp, "yoyo"), make_recognizer(tp, "array"),
                   make_recognizer(tp, "array", coherent=True)]

    def query(rec):
        units = rec.teams if rec is recognizers[0] else rec.teams + rec.agents
        return {u: rec.path(u) for u in units}

    warm = []
    for rec in recognizers:
        rec.step([])
        warm.append(query(rec))
    programs = [tp] + [rec.view for rec in recognizers[1:]]
    for q in programs:
        assert {"compiled", "groups_at", "name_paths_at", "leaves_by_team"} <= set(vars(q))
    owners = [o for q in programs for o in (q, q.team_hierarchy)]
    tables = [dict(vars(o)) for o in owners]
    for rec, first in zip(recognizers, warm):
        for _ in range(50):
            rec.step([])
            paths = query(rec)
            assert set(paths) == set(first)
            assert all(path[0] == "mission" for path in paths.values())
        beliefs = 1 if rec is recognizers[0] else len(rec.agents)
        assert rec.counter.visits == 51 * len(tp.node_ids) * beliefs
    for o, before in zip(owners, tables):
        assert vars(o).keys() == before.keys()
        assert all(vars(o)[k] is v for k, v in before.items())


def _leak_doc():
    """A phase whose first children run in two teams, with a third team's
    non-first child among its children."""
    teams = ["A", "B", "C"]
    return {
        "teams": [{"name": "T", "parent": None}]
                 + [{"name": t, "parent": "T"} for t in teams],
        "agents": [{"name": t.lower() + "1", "team": t} for t in teams],
        "root": "mission",
        "plans": [
            {"id": "mission", "name": "mission", "team": "T"},
            {"id": "phase", "name": "phase", "team": "T", "parent": "mission",
             "first_child": True},
            {"id": "a-step", "name": "a-step", "team": "A", "parent": "phase",
             "first_child": True, "lambda": 0.5},
            {"id": "b-step", "name": "b-step", "team": "B", "parent": "phase",
             "first_child": True, "lambda": 0.5},
            {"id": "c-step", "name": "c-step", "team": "C", "parent": "phase",
             "lambda": 0.5},
        ],
        "transitions": [
            {"from": "a-step", "to": "c-step", "pi": 1.0, "mu": 0.0, "teams": ["A"]},
            {"from": "c-step", "to": "TERMINATE", "pi": 1.0, "mu": 0.0, "teams": ["C"]},
            {"from": "b-step", "to": "TERMINATE", "pi": 1.0, "mu": 0.0, "teams": ["B"]},
            {"from": "phase", "to": "TERMINATE", "pi": 1.0, "mu": 0.0, "teams": ["T"]},
        ],
    }


def test_terminate_flow_divides_by_first_child_groups():
    # mass enters phase's two first-child groups, so each group's TERMINATE
    # must return half of it; a third, from the three teams among all of
    # phase's children, would lose a third of the mission
    tp = program_from_document(_leak_doc(), team_mode=True)
    shared = make_recognizer(tp, "yoyo")
    array = make_recognizer(tp, "array")
    for _ in range(200):
        shared.step([])
        array.step([])
    internal = [x for x in tp.node_ids if x not in brute_leaves(tp)]
    for b in [shared.belief] + list(array.beliefs.values()):
        assert b.blocked["mission"] == pytest.approx(1.0, abs=1e-9)
        assert all(b.active[x] == pytest.approx(0.0, abs=1e-9) for x in internal)
    assert {u: shared.path(u) for u in shared.teams} == {u: array.path(u) for u in array.teams}
    assert [tuple(tp.node_ids[c] for c in g) for g in tp.groups_at[tp.index["phase"]]] == [
        ("a-step",), ("b-step",)]


# One team: ``start`` moves to one of b1..b5 with unequal pi, announced with
# mu 0.7.  A TERM of ``start`` makes all five candidates of one team, so the
# evidence tick normalizes over five raw masses.
_HASH_ORDER_SCRIPT = """
from overhear.ingest import TERM, ObservedMessage
from overhear.model import program_from_document
from overhear.recognizer import make_recognizer
pis = (0.11, 0.23, 0.17, 0.29, 0.20)
p = program_from_document({
    "teams": [{"name": "T", "parent": None}],
    "agents": [{"name": "t1", "team": "T"}],
    "root": "r",
    "plans": [{"id": "r", "name": "root", "team": "T"},
              {"id": "a", "name": "start", "team": "T", "parent": "r",
               "first_child": True, "lambda": 0.3}]
             + [{"id": f"b{i}", "name": f"b{i}", "team": "T", "parent": "r", "lambda": 0.2}
                for i in range(1, 6)],
    "transitions": [{"from": "a", "to": f"b{i}", "pi": pi, "mu": 0.7}
                    for i, pi in enumerate(pis, 1)]
                   + [{"from": f"b{i}", "to": "TERMINATE", "pi": 1.0, "mu": 0.0}
                      for i in range(1, 6)],
}, team_mode=True)
rec = make_recognizer(p, "yoyo")
for _ in range(7):
    rec.step([])
rec.step([ObservedMessage(7, "t1", "T", TERM, "start")])
print(" ".join(rec.belief.active[f"b{i}"].hex() for i in range(1, 6)))
"""


def test_evidence_tick_does_not_depend_on_string_hashing():
    # the evidence tick sums each team's candidates in id order; summed in
    # set order, these five masses came out in three bit patterns over
    # hash seeds 0-11
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    outputs = set()
    for seed in range(6):
        done = subprocess.run([sys.executable, "-c", _HASH_ORDER_SCRIPT],
                              env=dict(os.environ, PYTHONPATH=str(src),
                                       PYTHONHASHSEED=str(seed)),
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        outputs.add(done.stdout)
    assert len(outputs) == 1


@pytest.mark.parametrize("memo", ["cold", "warm"])
@pytest.mark.parametrize("key", [key for key in SWEEP_SHA256 if key[1] == "yoyo"],
                         ids=lambda key: "/".join(map(str, key)))
def test_every_yoyo_tick_leaves_values_in_0_1(key, memo, monkeypatch):
    # every quiet and evidence tick of the sweep leaves a state whose
    # entries lie in [0, 1], an evidence tick the tables ``_climb`` returned.
    # The step memo starts empty, so an evidence tick is computed, by
    # ``_climb``, where the sweep first meets it: cold, in the replays
    # checked; warm, in the equal replay before each, so the ticks checked
    # are lookups, which compute nothing
    compiled._compile.cache_clear()
    climb, fired = yoyo._climb, []  # fired: what each computed evidence tick returned

    def probe(*args):
        act, blk = climb(*args)
        assert min(act) >= 0.0 and min(blk) >= 0.0
        fired.append((tuple(act), tuple(blk)))
        return act, blk

    monkeypatch.setattr(yoyo, "_climb", probe)
    states = 0
    for _, rec, by_tick in (sweep_replays if memo == "cold" else warm_replays)(*key):
        b = rec.belief
        for t in range(TICKS):
            before = len(fired)
            rec.step(by_tick.get(t, []))
            if len(fired) > before:  # an evidence tick computed
                assert (b.act, b.blk) == fired[-1], (key, t)
            assert all(0.0 <= v <= 1.0 for v in b.act + b.blk), (key, t)
            states += 1
    assert states and fired, key  # the probe ran on this key's evidence ticks
