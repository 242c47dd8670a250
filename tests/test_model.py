import copy
import json
import random
from dataclasses import replace

import pytest

from overhear import compiled
from overhear.compiled import _compile, step_plan
from overhear.model import (ProgramError, TERMINATE, hazard, load_program, load_program_path,
                            program_from_document, program_to_document, serialize_program,
                            topmost_teams)
from overhear.progen import flatten_mu, grow_team, team_program
from overhear.recognizer import make_recognizer
from overhear.social import INIT, CommModel, apply_comm_model
from overhear.yoyo import team_leaves

from conftest import DATA, brute_leaves
from programs import random_program


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
    assert _ids(p, p.leaf_index) == ("n1", "n2", "n4", "n5")
    assert _ids(p, p.ancestors_at[p.index["n4"]]) == ("n3", "n0")
    assert p.path_names(p.index["n4"]) == ("evacuate", "landing-zone-maneuvers",
                                           "transport-ops")
    # children before parents
    order = {p.node_ids[x]: i for i, x in enumerate(p.postorder)}
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
    assert view.plans == evac_team.plans  # plan ownership survives
    assert view.transitions == evac_team.transitions
    n3 = view.index["n3"]
    assert [_ids(view, g) for g in view.groups_at[n3]] == [("n4", "n5")]
    assert [_ids(evac_team, g) for g in evac_team.groups_at[n3]] == [("n5",), ("n4",)]


def test_duplicate_plan_names_allowed():
    doc = _mini_doc()
    doc["plans"].append({"id": "c", "name": "second", "team": "T", "parent": "r",
                         "lambda": 0.1})
    doc["transitions"] = [
        {"from": "a", "to": "b", "pi": 0.5, "mu": 0.5},
        {"from": "a", "to": "c", "pi": 0.5, "mu": 0.5},
    ]
    p = program_from_document(doc)
    assert _ids(p, p.named_index["second"]) == ("b", "c")
    assert "nothing" not in p.named_index


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
    (lambda d: d["teams"].append({"name": "T", "parent": None}), "duplicate team 'T'"),
    (lambda d: d["teams"].append({"name": "U", "parent": "NOPE"}),
     "team 'U' names unknown parent 'NOPE'"),
    (lambda d: d["agents"].append({"name": "a1", "team": "T"}), "duplicate agent 'a1'"),
    (lambda d: d["plans"][2].update({"parent": "zz"}), "unknown parent 'zz' [plan 'b']"),
    (lambda d: d["plans"][2].pop("parent"), "only the root plan may omit a parent"),
    (lambda d: d["transitions"][0].update({"from": "zz"}), "unknown source plan"),
    # wrong types once escaped as a bare TypeError, and an integer lambda too
    # large for a float as an OverflowError on the first forward step
    (lambda d: d.update({"teams": 5}), "'teams' must be a list, not int [document]"),
    (lambda d: d.update({"plans": {"id": "r"}}), "'plans' must be a list, not dict"),
    (lambda d: d["teams"][0].update({"name": ["T"]}),
     "'name' must be a string, not list [teams[0]]"),
    (lambda d: d["teams"][0].update({"parent": 7}), "'parent' must be a string, not int"),
    (lambda d: d["plans"][1].update({"team": ["T"]}),
     "'team' must be a string, not list [plan 'a']"),
    (lambda d: d["plans"][1].update({"id": 3}), "'id' must be a string, not int [plans[1]]"),
    (lambda d: d["agents"][0].update({"name": 1}),
     "'name' must be a string, not int [agents[0]]"),
    (lambda d: d.update({"root": {"id": "r"}}), "'root' must be a string, not dict"),
    (lambda d: d["transitions"][0].update({"teams": [["T"]]}),
     "teams must be omitted, [] or ['T']"),
    # a flat-mode document follows the transition rule too
    (lambda d: (d["teams"].append({"name": "U", "parent": "T"}),
                d["agents"][0].update({"team": "U"}),
                d["transitions"][0].update({"teams": ["U"]})),
     "teams must be omitted, [] or ['T'], the team of source plan 'a' [transition a->b]"),
    (lambda d: d["transitions"][0].update({"to": None}), "'to' must be a string"),
    (lambda d: d["plans"][1].update({"lambda": 10 ** 400}),
     "lambda must be a nonnegative number [plan 'a']"),
    # read as truthy or as 1, these were silently accepted
    (lambda d: d["plans"][2].update({"first_child": "false"}),
     "first_child must be true or false [plan 'b']"),
    (lambda d: d["plans"][1].update({"lambda": True}), "lambda must be a nonnegative number"),
    (lambda d: d["transitions"][0].update({"pi": True}), "pi must be a probability"),
    # a name a trace or log line cannot carry: read back as another path, or
    # as a line that does not parse
    (lambda d: d["plans"][1].update({"name": "a/b"}), "name 'a/b' is empty or holds"),
    (lambda d: d["plans"][1].update({"name": "done!"}), "cannot carry [plan 'a']"),
    (lambda d: d["plans"][2].update({"name": ""}), "name '' is empty"),
    (lambda d: d["plans"][2].update({"name": "tab\there"}), "name 'tab\\there'"),
    (lambda d: d["agents"][0].update({"name": "agent one"}), "cannot carry [agents[0]]"),
    (lambda d: d["teams"][0].update({"name": "T#1"}), "name 'T#1' is empty or holds"),
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
    # a root team, so the check that runs is the cycle check, not the root count
    doc = _mini_doc()
    doc["teams"] = [{"name": "R", "parent": None}, {"name": "T", "parent": "U"},
                    {"name": "U", "parent": "T"}]
    with pytest.raises(ProgramError, match="team parent chain of 'T' is cyclic"):
        program_from_document(doc)


def test_document_must_be_an_object():
    for text in ("[]", "3", '"program"'):
        with pytest.raises(ProgramError, match="program document must be a JSON object"):
            load_program(text)


@pytest.mark.parametrize("plan, team, named", [("n6", "TASK-FORCE", "n6"),
                                               ("n3", "TRANSPORT", "n5")],
                         ids=["ancestor-team", "sibling-team"])
def test_plan_team_must_nest_under_its_parents(evac_team, plan, team, named):
    # n2 (FLIGHT-TEAM) holds n6; n3 holds n4 (TRANSPORT) and n5 (ESCORT)
    doc = program_to_document(evac_team)
    next(e for e in doc["plans"] if e["id"] == plan)["team"] = team
    with pytest.raises(ProgramError, match=rf"nor one of its subteams \[plan '{named}'\]"):
        program_from_document(doc, team_mode=True)


def _two_subtree_doc(extra):
    # r's children x and y each hold one leaf, x1 and y1
    plans = [("x", "r", True), ("y", "r", False), ("x1", "x", True), ("y1", "y", True)]
    return {
        "teams": [{"name": "T", "parent": None}],
        "agents": [{"name": "a1", "team": "T"}],
        "root": "r",
        "plans": [{"id": "r", "name": "root", "team": "T"}]
        + [{"id": x, "name": x, "team": "T", "parent": parent, "first_child": first,
            **({"lambda": 0.2} if x.endswith("1") else {})} for x, parent, first in plans],
        "transitions": [{"from": "x", "to": "y", "pi": 1.0, "mu": 0.5},
                        {"from": "y1", "to": "TERMINATE", "pi": 1.0, "mu": 0.0}] + extra,
    }


@pytest.mark.parametrize("src, dst", [("x1", "y1"), ("x1", "x"), ("r", "r")],
                         ids=["cousins", "child-to-parent", "root-loop"])
def test_transition_must_join_children_of_one_parent(src, dst):
    # an edge between plans that are not siblings moves mass from one
    # subtree into another past their parents, and beliefs leave [0, 1]
    program_from_document(_two_subtree_doc([]))
    doc = _two_subtree_doc([{"from": src, "to": dst, "pi": 1.0, "mu": 0.5}])
    with pytest.raises(ProgramError, match=rf"children of one parent \[transition {src}->{dst}\]"):
        program_from_document(doc)


def test_a_plan_whose_id_is_terminate_is_rejected():
    # read as a plan, its edge in would complete the parent and no edge
    # could ever enter it
    doc = _mini_doc()
    doc["plans"][2]["id"] = TERMINATE
    doc["transitions"] = [{"from": "a", "to": TERMINATE, "pi": 1.0, "mu": 0.5},
                          {"from": TERMINATE, "to": "a", "pi": 1.0, "mu": 0.5}]
    with pytest.raises(ProgramError, match=r"TERMINATE is reserved.* \[plan 'TERMINATE'\]"):
        program_from_document(doc)


def test_agent_must_sit_at_leaf_team(evac_team):
    doc = program_to_document(evac_team)
    doc["agents"].append({"name": "x", "team": "FLIGHT-TEAM"})
    with pytest.raises(ProgramError, match="leaf team"):
        program_from_document(doc, team_mode=True)


def test_team_mode_transition_teams_are_optional(evac_team):
    # a transition's team is its source plan's, so a tag only restates it
    doc = program_to_document(evac_team)
    for t in doc["transitions"]:
        del t["teams"]
    untagged = program_from_document(doc, team_mode=True)
    assert untagged == evac_team
    assert serialize_program(untagged) == serialize_program(evac_team)
    for t in doc["transitions"]:
        t["teams"] = []
    assert program_from_document(doc, team_mode=True) == evac_team


def test_pi_sums_are_per_plan(evac_team):
    doc = program_to_document(evac_team)
    doc["transitions"].append({"from": "n6", "to": "n6", "pi": 1.0, "mu": 0.1,
                               "teams": ["FLIGHT-TEAM"]})
    # n6's options, its TERMINATE and the new loop, sum to 2 in either mode
    for team_mode in (False, True):
        with pytest.raises(ProgramError, match=r"sums to 2, expected 1 \[plan 'n6'\]"):
            program_from_document(doc, team_mode=team_mode)


def test_load_program_reports_json_errors():
    with pytest.raises(ProgramError):
        load_program("{not json")


def test_nan_lambda_rejected():
    # json reads NaN and Infinity; NaN would poison every belief, while an
    # infinite rate is a leaf that always ends at once (hazard 1)
    text = json.dumps(_mini_doc()).replace('"lambda": 0.1', '"lambda": NaN')
    with pytest.raises(ProgramError) as err:
        load_program(text)
    assert str(err.value) == "lambda must be a nonnegative number [plan 'b']"
    p = load_program(json.dumps(_mini_doc()).replace('"lambda": 0.1', '"lambda": Infinity'))
    assert hazard(p.node("b").rate) == 1.0


def test_temporal_cycles_are_legal():
    doc = _mini_doc()
    doc["transitions"] = [
        {"from": "a", "to": "b", "pi": 1.0, "mu": 0.5},
        {"from": "b", "to": "a", "pi": 1.0, "mu": 0.5},
    ]
    p = program_from_document(doc)
    assert len(p.out_at[p.index["b"]]) == 1


def test_cycles_allowed_by_generator():
    rng = random.Random(0)
    seeds = [rng.randrange(10_000) for _ in range(10)]
    for seed in seeds:
        p = random_program(seed)
        assert len(p.node_ids) <= 10
        for t in p.transitions:
            assert t.src in p.node_ids
            assert t.dst == TERMINATE or t.dst in p.node_ids


def _brute_chain(h, team):
    parent = dict(h.teams)
    chain = [team]
    while parent[chain[-1]] is not None:
        chain.append(parent[chain[-1]])
    return tuple(chain)


def _brute_path(p, x):
    path = [x]
    while p.node(path[-1]).parent is not None:
        path.append(p.node(path[-1]).parent)
    return tuple(reversed(path))


@pytest.mark.parametrize("p", [team_program(k) for k in range(7)]
                         + [grow_team(team_program(0), 1000)],
                         ids=[f"team_program({k})" for k in range(7)] + ["grown-1011"])
def test_structure_tables_match_definitions(p):
    h = p.team_hierarchy
    teams = [t for t, _ in h.teams]
    assert h.agent_names == tuple(a for a, _ in h.agents)
    for team in teams:
        chain = _brute_chain(h, team)
        assert h.ancestors_or_self(team) == chain
        assert h.members(team) == tuple(a for a, t in h.agents
                                        if team in _brute_chain(h, t))
        for other in teams:
            assert h.covers(other, team) == (other in chain)
        owned = [x for x in brute_leaves(p) if p.node(x).team in chain]
        assert _ids(p, team_leaves(p, team)) == tuple(owned or brute_leaves(p))
    assert h.members("no-such-team") == ()
    assert p.node_ids == tuple(sorted(n.id for n in p.plans))
    assert _ids(p, p.leaf_index) == brute_leaves(p)
    assert _ids(p, p.postorder) == _brute_postorder(p, p.root)
    for i, x in enumerate(p.node_ids):
        path = _brute_path(p, x)
        assert p.index[x] == i
        assert p.node(x).id == x
        assert _ids(p, p.children_at[i]) == tuple(_brute_kids(p, x))
        assert p.out_at[i] == tuple(t for t in p.transitions if t.src == x)
        assert _ids(p, p.ancestors_at[i]) == tuple(reversed(path[:-1]))
        assert p.name_paths_at[i] == tuple(p.node(y).name for y in path)
        assert p.owner_at[i] == p.node(x).team
    for name in {n.name for n in p.plans}:
        assert _ids(p, p.named_index[name]) == tuple(sorted(n.id for n in p.plans
                                                            if n.name == name))
    for q in (p, p.single_agent_view()):
        for i, x in enumerate(q.node_ids):
            assert tuple(_ids(q, g) for g in q.groups_at[i]) == _brute_groups(q, x)


def _ids(p, positions):
    return tuple(p.node_ids[i] for i in positions)


def _edge(p, t):
    """A transition as the engine's tables hold it: (src, dst, mu, pi), by position."""
    return (p.index[t.src], p.index[t.dst], t.mu, t.pi)


def _climb_ids(p, climb):
    """An ``evidence_climbs`` entry with every position written as its node id."""
    ids = p.node_ids
    return tuple((ids[node], ids[par], tuple((ids[y], ids[q], split) for y, q, split in walk))
                 for node, par, walk in climb)


def _brute_groups(p, x):
    first = [c for c in p.node_ids if p.node(c).parent == x and p.node(c).is_first_child]
    if not first:
        return ()
    if not p.team_mode:
        return (tuple(first),)
    h = p.team_hierarchy
    owners = {p.node(c).team for c in first}
    tops = [t for t in owners if not any(u in _brute_chain(h, t)[1:] for u in owners)]
    return tuple(tuple(c for c in first if p.node(c).team == t) for t in sorted(tops))


def _brute_kids(p, x):
    return [c for c in p.node_ids if p.node(c).parent == x]


def _brute_postorder(p, x):
    return tuple(y for c in _brute_kids(p, x) for y in _brute_postorder(p, c)) + (x,)


def _brute_walk(p, parent, team):
    """The rescale walk as ``yoyo.scale`` once recursed it, node by node."""
    h = p.team_hierarchy

    def visit(y, steps):
        yteam = p.node(y).team
        if team in _brute_chain(h, yteam) or yteam in _brute_chain(h, team):
            return
        par = p.node(y).parent
        split = [len(g) for g in _brute_groups(p, par) if y in g]
        steps.append((y, par, split[0] if split else 0))
        for c in _brute_kids(p, y):
            visit(c, steps)

    steps = []
    for c in _brute_kids(p, parent):
        visit(c, steps)
    return tuple(steps)


def _brute_climb(p, x):
    """The climb as it once tracked an evidencing team, rescaling only into its parent team.

    That rule agrees with ownership keying wherever each step up changes the
    owner by at most one team level, as it does in every program here.
    """
    h = p.team_hierarchy
    team, steps = p.node(x).team, []
    while p.node(x).parent is not None:
        par = p.node(x).parent
        walk = ()
        if p.node(par).team == dict(h.teams)[team]:
            walk = _brute_walk(p, par, team)
            team = p.node(par).team
        steps.append((x, par, walk))
        x = par
    return tuple(steps)


def _nested_doc():
    # evidence about LOW rescales LOW2's plan under s, then, now about MID,
    # OTHER's subtree under m, whose first children o1 and o2 split one group
    teams = {"TOP": None, "MID": "TOP", "OTHER": "TOP", "LOW": "MID", "LOW2": "MID"}
    plans = [("m", "TOP", None, False), ("s", "MID", "m", True), ("o", "OTHER", "m", True),
             ("o1", "OTHER", "o", True), ("o2", "OTHER", "o", True),
             ("l", "LOW", "s", True), ("k", "LOW2", "s", True)]
    return {
        "teams": [{"name": t, "parent": parent} for t, parent in teams.items()],
        "agents": [{"name": "a1", "team": "LOW"}, {"name": "a2", "team": "LOW2"},
                   {"name": "a3", "team": "OTHER"}],
        "root": "m",
        "plans": [{"id": x, "name": x, "team": team,
                   **({"parent": parent, "first_child": first} if parent else {}),
                   **({"lambda": 0.2} if x in ("o1", "o2", "l", "k") else {})}
                  for x, team, parent, first in plans],
        "transitions": [{"from": "o1", "to": "o2", "pi": 1.0, "mu": 0.5, "teams": ["OTHER"]},
                        {"from": "l", "to": "TERMINATE", "pi": 1.0, "mu": 0.5,
                         "teams": ["LOW"]},
                        {"from": "s", "to": "TERMINATE", "pi": 1.0, "mu": 0.5,
                         "teams": ["MID"]}],
    }


_EVIDENCE_PROGRAMS = ([team_program(k) for k in range(7)]
                      + [load_program_path(DATA / name, team_mode=True)
                         for name in ("evac_team.json", "evac_mini.json")]
                      + [program_from_document(_nested_doc(), team_mode=True)])


@pytest.mark.parametrize("p", _EVIDENCE_PROGRAMS,
                         ids=[f"team_program({k})" for k in range(7)]
                         + ["evac_team", "evac_mini", "nested"])
def test_evidence_tables_match_definitions(p):
    h = p.team_hierarchy
    assert (tuple(_climb_ids(p, climb) for climb in p.evidence_climbs)
            == tuple(_brute_climb(p, x) for x in p.node_ids))
    # the single-agent view's one key, None, opens every transition
    view = p.single_agent_view()
    for q, teams in ((p, [team for team, _ in h.teams]), (view, [None])):
        assert list(q.team_edges) == teams
        for team in teams:
            into, out = q.team_edges[team]
            allowed = [t for t in p.transitions if t.dst != TERMINATE
                       and (team is None or p.node(t.src).team in _brute_chain(h, team))]
            for x in p.node_ids:
                i = p.index[x]
                assert into.get(i, ()) == tuple(_edge(p, t) for t in allowed if t.dst == x)
                assert out.get(i, ()) == tuple(_edge(p, t) for t in allowed if t.src == x)
            assert () not in into.values() and () not in out.values()
    assert p.unit_at == tuple(p.node(x).team for x in p.node_ids)
    assert view.unit_at == (None,) * len(p.node_ids)


def test_evidence_climb_rescales_at_each_team_boundary():
    p = program_from_document(_nested_doc(), team_mode=True)
    assert _climb_ids(p, p.evidence_climbs[p.index["l"]]) == (
        ("l", "s", (("k", "s", 1),)),
        ("s", "m", (("o", "m", 1), ("o1", "o", 2), ("o2", "o", 2))))


def test_warm_tables_leave_equality_and_hash_alone():
    # derived tables are cached properties in the instance __dict__, outside
    # the dataclass fields that equality, hashing and repr read; an empty
    # memo makes the team queries compute, and so build ``leaves_by_team``,
    # rather than follow links an earlier equal program left
    _compile.cache_clear()
    warm = team_program(0)
    rec = make_recognizer(warm, "yoyo")
    rec.step([])
    {u: rec.path(u) for u in rec.teams}
    fresh = load_program(serialize_program(warm), team_mode=True)
    assert {"compiled", "name_paths_at", "leaves_by_team"} <= set(vars(warm))
    assert "compiled" not in vars(fresh)
    assert warm == fresh and hash(warm) == hash(fresh) and repr(warm) == repr(fresh)
    assert "_chain" in vars(warm.team_hierarchy)
    assert warm.team_hierarchy == fresh.team_hierarchy
    assert hash(warm.team_hierarchy) == hash(fresh.team_hierarchy)


def _table(q) -> tuple:
    """What q's forward step walks: its step table and whether it caps."""
    c = q.compiled
    return c.nodes, c.floored, c.capped


def test_equal_programs_share_one_compiled_object():
    p = team_program(0)
    view = p.single_agent_view()
    assert p.compiled is not view.compiled and _table(p) != _table(view)
    # an equal program, and a fresh load of its document, share it
    assert team_program(0).compiled is p.compiled
    text = serialize_program(p)
    assert (load_program(text, team_mode=True).compiled
            is load_program(text, team_mode=True).compiled is p.compiled)


def test_only_the_team_kernel_caps_and_it_caps_every_entry():
    # tables above 1 everywhere: the team step's cap also reaches the
    # entries no move writes, and the view step keeps every excess
    p = team_program(0)
    for q in (p, p.single_agent_view()):
        nodes, _, capped = _table(q)
        size = len(q.node_ids)
        assert capped is q.team_mode
        written = {c for *_, moves in nodes for _, _, table, c, _, _ in moves if table == 1}
        unwritten = set(range(size)).difference(written)
        assert unwritten
        act, blk = q.compiled.forward([1.5] * size, [2.0] * size)
        if q.team_mode:
            assert max(act) == max(blk) == 1.0
            assert all(blk[i] == 1.0 for i in unwritten)
        else:
            assert max(act) > 1.0
            assert all(blk[i] == 2.0 for i in unwritten)


def test_forward_is_shared_only_by_equal_tables():
    p = team_program(0)
    announced = p.node(p.transitions[0].dst).name
    variants = [p.single_agent_view(), flatten_mu(p, 0.05),
                apply_comm_model(p, CommModel(frozenset({(announced, INIT)}), 0.9))]
    # the view compares equal to the program, yet steps differently
    assert variants[0] == p
    objects = [p.compiled, *(q.compiled for q in variants)]
    assert len({id(c) for c in objects}) == len(objects)
    assert len({_table(q) for q in (p, *variants)}) == len(objects)


def test_forward_cache_is_bounded():
    size = _compile.cache_info().maxsize
    p = team_program(0)
    first = p.compiled
    # size distinct objects, each one flat message probability
    for k in range(size):
        flatten_mu(p, (k + 1) / (size + 2)).compiled
    before = _compile.cache_info().misses
    again = team_program(0).compiled
    assert _compile.cache_info().misses == before + 1
    assert again is not first and again.memo is not first.memo
    assert _table(team_program(0)) == (first.nodes, first.floored, first.capped)


def test_programs_of_one_table_keep_their_own_objects():
    # programs that differ only in plan names build one table under two
    # keys; each has its own object and memo, and the one left cached
    # stays when the other is dropped
    _compile.cache_clear()
    p = team_program(0)
    renamed = replace(p, plans=tuple(replace(n, name=f"{n.name}-x") for n in p.plans))
    kept, dropped = p.compiled, renamed.compiled
    assert kept is not dropped and kept.memo is not dropped.memo
    assert _table(p) == _table(renamed)
    size = _compile.cache_info().maxsize
    assert team_program(0).compiled is kept  # now the most recently used
    for k in range(size - 1):
        flatten_mu(p, (k + 1) / (size + 3)).compiled
    assert team_program(0).compiled is kept
    assert replace(p, plans=renamed.plans).compiled is not dropped  # a fresh program's


def _family(p):
    """p and its copies by ``dataclasses.replace``: its single-agent view, a
    flat-mu copy and a comm-applied copy, in that order."""
    comm = CommModel(frozenset({(p.plans[-1].name, INIT)}), 0.9)
    return [p, p.single_agent_view(), flatten_mu(p, 0.05), apply_comm_model(p, comm)]


_KERNEL_FAMILIES = {
    **{f"team_program({k})": lambda k=k: _family(team_program(k)) for k in range(7)},
    **{name: lambda name=name: _family(load_program_path(DATA / f"{name}.json", team_mode=True))
       for name in ("evac_team", "evac_mini")},
    "random_program(0..39)": lambda: [random_program(k) for k in range(40)],
    "grown-1011": lambda: [team_program(0), grow_team(team_program(0), 1000)],
}

# the tables that read mu or team_mode, and two that read the structure alone
_COPIED_TABLES = ("out_at", "groups_at", "initial", "evidence_climbs", "team_edges", "unit_at",
                  "name_paths_at", "leaves_by_team")


@pytest.mark.parametrize("family", _KERNEL_FAMILIES)
def test_step_table_is_keyed_on_the_fields_it_reads(family):
    # each program in a family may find its object cached under the key of
    # one before it; its table must still be the one its own fields build
    for q in _KERNEL_FAMILIES[family]():
        assert _table(q) == (*step_plan(q), q.team_mode)
        # a copy by replace is the program a fresh load builds, tables and step
        fresh = load_program(serialize_program(q), team_mode=q.team_mode)
        assert fresh == q and fresh.compiled is q.compiled
        for table in _COPIED_TABLES:
            assert getattr(fresh, table) == getattr(q, table), table


def test_forward_hit_builds_no_table(monkeypatch):
    p = team_program(0)
    comm = CommModel(frozenset({(p.plans[-1].name, INIT)}), 0.9)
    seen = (p.compiled, apply_comm_model(p, comm).compiled)
    calls = []
    build = compiled.step_plan
    monkeypatch.setattr(compiled, "step_plan", lambda q: calls.append(q) or build(q))
    for _ in range(3):
        assert (team_program(0).compiled, apply_comm_model(p, comm).compiled) == seen
    # agents are not in the key: a grown team's object is its team's
    assert grow_team(p, 1000).compiled is p.compiled
    assert calls == []
    # a miss builds once, from a program built from the key, with no agent
    flatten_mu(p, 0.0123457).compiled
    assert len(calls) == 1 and calls[0].team_hierarchy.agents == ()


def _mini(rate, mu):
    doc = _mini_doc()
    doc["plans"][1]["lambda"] = rate
    doc["transitions"][0]["mu"] = mu
    return program_from_document(doc)


def test_equal_keys_build_equal_tables():
    # the key compares numbers by value, so an int rate and a -0.0 mu share
    # the object of the float rate and the 0.0 mu, and must build its table
    # bit for bit
    p, q = _mini(1.0, 0.0), _mini(1, -0.0)
    assert p == q and q.compiled is p.compiled
    assert repr(step_plan(q)) == repr(step_plan(p)) == repr(_table(q)[:2])


@pytest.mark.parametrize("value", [1.5, -0.25, float("nan"), True, "0.5", None, 10 ** 400],
                         ids=["1.5", "-0.25", "nan", "True", "str", "None", "10**400"])
def test_flatten_mu_takes_only_a_probability(value):
    # the loader's rule for a pi or mu: a number in [0, 1], not a bool or NaN
    with pytest.raises(ProgramError, match=r"^flat mu must be a probability in \[0, 1\]$"):
        flatten_mu(team_program(0), value)


def test_flatten_mu_sets_a_float_on_every_announceable_edge():
    p = team_program(0)
    for value in (0, 1, 0.25):
        q = flatten_mu(p, value)
        assert [(t.src, t.dst, t.pi) for t in q.transitions] == [
            (t.src, t.dst, t.pi) for t in p.transitions]
        assert [t.mu for t in q.transitions] == [
            t.mu if t.dst == TERMINATE else value for t in p.transitions]
        assert all(type(t.mu) is float for t in q.transitions)


@pytest.mark.parametrize("extra", [-3, 1.0, True], ids=["negative", "float", "bool"])
def test_grow_team_takes_a_nonnegative_int(extra):
    # -3 once returned the program as it was, and 1.0 raised a bare TypeError
    with pytest.raises(ProgramError, match=f"^extra agents must be a nonnegative int, "
                                           f"got {extra!r}$"):
        grow_team(team_program(0), extra)
