import copy
import json
import random

import pytest

from overhear.model import (ProgramError, TERMINATE, is_allowed, load_program,
                            program_from_document, program_to_document,
                            serialize_program, topmost_teams)
from overhear.progen import random_program, team_program


def _mini_doc():
    return {
        "teams": [{"name": "T", "parent": None}],
        "agents": [{"name": "a1", "team": "T"}],
        "root": "r",
        "plans": [
            {"id": "r", "name": "root", "team": "T"},
            {"id": "a", "name": "first", "team": "T", "parent": "r",
             "first_child": True, "lambda": 0.2},
            {"id": "b", "name": "second", "team": "T", "parent": "r", "lambda": 0.1},
        ],
        "transitions": [
            {"from": "a", "to": "b", "pi": 1.0, "mu": 0.5},
        ],
    }


def test_basic_structure(evac_mini):
    p = evac_mini
    assert p.root == "n0"
    assert set(p.leaves) == {"n1", "n2", "n4", "n5"}
    assert p.path_to("n4") == ("n0", "n3", "n4")
    assert p.path_names(p.path_to("n4")) == ("evacuate", "landing-zone-maneuvers",
                                             "transport-ops")
    # children before parents
    order = {x: i for i, x in enumerate(p.postorder)}
    for x in p.node_ids:
        parent = p.node(x).parent
        if parent is not None:
            assert order[x] < order[parent]


def test_hierarchy_queries(evac_team):
    h = evac_team.team_hierarchy
    assert h.size == 4 + 4
    assert h.members("FLIGHT-TEAM") == ("escort1", "escort2", "transport1",
                                        "transport2")
    assert h.members("ESCORT") == ("escort1", "escort2")
    assert h.agent_team("escort1") == "ESCORT"
    assert h.ancestors_or_self("ESCORT") == ("ESCORT", "FLIGHT-TEAM", "TASK-FORCE")
    assert h.covers("TASK-FORCE", "ESCORT")
    assert not h.covers("ESCORT", "TASK-FORCE")
    assert topmost_teams(h, ["TRANSPORT", "ESCORT", "FLIGHT-TEAM"]) == {"FLIGHT-TEAM"}


def test_is_allowed(evac_mini):
    h = evac_mini.team_hierarchy
    (t,) = [t for t in evac_mini.transitions if t.src == "n1"]
    assert is_allowed(t, "TASK-FORCE", h)
    assert is_allowed(t, "ESCORT", h)  # subteam of the tagged team
    (t4,) = [t for t in evac_mini.transitions if t.src == "n4"]
    assert is_allowed(t4, "TRANSPORT", h)
    assert not is_allowed(t4, "ESCORT", h)


def test_document_round_trip(evac_team):
    doc = program_to_document(evac_team)
    again = program_from_document(doc, team_mode=True)
    assert again == evac_team
    # serialized twice -> identical bytes
    assert serialize_program(evac_team) == serialize_program(again)


def test_round_trip_generated_programs():
    for seed in range(25):
        p = random_program(seed)
        doc = program_to_document(p)
        assert program_from_document(doc) == p
    tp = team_program(3)
    assert program_from_document(program_to_document(tp), team_mode=True) == tp


def test_plan_order_does_not_matter():
    doc = _mini_doc()
    p1 = program_from_document(copy.deepcopy(doc))
    doc["plans"].reverse()
    doc["transitions"].reverse()
    p2 = program_from_document(doc)
    assert p1 == p2


def test_single_agent_view(evac_team):
    view = evac_team.single_agent_view()
    assert not view.team_mode
    assert view.node("n4").team == "TRANSPORT"  # plan ownership survives
    for t in view.transitions:
        assert t.teams == ()
    for x in view.node_ids:
        out = view.out_transitions(x)
        if out:
            assert sum(t.pi for t in out) == pytest.approx(1.0)


def test_duplicate_plan_names_allowed():
    doc = _mini_doc()
    doc["plans"].append({"id": "c", "name": "second", "team": "T", "parent": "r",
                         "lambda": 0.1})
    doc["transitions"] = [
        {"from": "a", "to": "b", "pi": 0.5, "mu": 0.5},
        {"from": "a", "to": "c", "pi": 0.5, "mu": 0.5},
    ]
    p = program_from_document(doc)
    assert p.nodes_named("second") == ("b", "c")
    assert p.nodes_named("nothing") == ()


@pytest.mark.parametrize("mutate,fragment", [
    (lambda d: d["plans"].append({"id": "a", "name": "dup", "team": "T",
                                  "parent": "r", "lambda": 0.1}),
     "duplicate plan id"),
    (lambda d: d["plans"][1].pop("lambda"), "leaf plan must carry lambda"),
    (lambda d: d["plans"][0].update({"lambda": 0.5}), "only valid on leaf"),
    (lambda d: d["plans"][1].update({"first_child": False}), "first child"),
    (lambda d: d["plans"][1].update({"team": "NOPE"}), "unknown team"),
    (lambda d: d.update({"root": "zz"}), "not a plan id"),
    (lambda d: d["plans"][0].update({"parent": "a"}),
     "root plan must not have a parent"),
    (lambda d: d["transitions"][0].update({"pi": 0.25}), "sums to 0.25"),
    (lambda d: d["transitions"][0].update({"mu": 1.5}), "must be a probability"),
    (lambda d: d["transitions"][0].update({"to": "zz"}),
     "must be a plan id or TERMINATE"),
    (lambda d: d["transitions"][0].update({"surprise": 1}), "unknown keys"),
    (lambda d: d["agents"][0].update({"team": "NOPE"}), "unknown team"),
    (lambda d: d["agents"][0].update({"name": "T"}), "name of a team"),
    (lambda d: d["teams"].append({"name": "X", "parent": None}), "exactly one root"),
])
def test_validation_rejects(mutate, fragment):
    doc = _mini_doc()
    mutate(doc)
    with pytest.raises(ProgramError) as err:
        program_from_document(doc)
    assert fragment in str(err.value)


def test_cyclic_parents_rejected():
    doc = _mini_doc()
    doc["plans"][1]["parent"] = "b"
    doc["plans"][2]["parent"] = "a"
    with pytest.raises(ProgramError, match="cyclic"):
        program_from_document(doc)
    doc = _mini_doc()
    doc["teams"] = [{"name": "T", "parent": "U"}, {"name": "U", "parent": "T"}]
    with pytest.raises(ProgramError):
        program_from_document(doc)


def test_agent_must_sit_at_leaf_team(evac_team):
    doc = program_to_document(evac_team)
    doc["agents"].append({"name": "x", "team": "FLIGHT-TEAM"})
    with pytest.raises(ProgramError, match="leaf team"):
        program_from_document(doc, team_mode=True)


def test_team_mode_needs_transition_teams():
    doc = _mini_doc()
    with pytest.raises(ProgramError, match="teams on every transition"):
        program_from_document(doc, team_mode=True)
    # and the very same document is fine in single mode
    program_from_document(doc)


def test_team_mode_pi_sums_are_per_team(evac_team):
    doc = program_to_document(evac_team)
    doc["transitions"].append({"from": "n6", "to": "n6", "pi": 1.0, "mu": 0.1,
                               "teams": ["TRANSPORT"]})
    # TRANSPORT's options from n6 sum to 2 (the TERMINATE is FLIGHT-TEAM wide)
    with pytest.raises(ProgramError, match="sums to 2"):
        program_from_document(doc, team_mode=True)


def test_load_program_reports_json_errors():
    with pytest.raises(ProgramError):
        load_program("{not json")


def test_temporal_cycles_are_legal():
    doc = _mini_doc()
    doc["transitions"] = [
        {"from": "a", "to": "b", "pi": 1.0, "mu": 0.5},
        {"from": "b", "to": "a", "pi": 1.0, "mu": 0.5},
    ]
    p = program_from_document(doc)
    assert len(p.out_transitions("b")) == 1


def test_cycles_allowed_by_generator():
    rng = random.Random(0)
    seeds = [rng.randrange(10_000) for _ in range(10)]
    for seed in seeds:
        p = random_program(seed)
        assert len(p.node_ids) <= 10
        for t in p.transitions:
            assert t.src in p.node_ids
            assert t.dst == TERMINATE or t.dst in p.node_ids
