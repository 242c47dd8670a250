"""Team-oriented program model.

A program couples a plan hierarchy (a decomposition tree whose siblings are
linked by probabilistic temporal transitions) with a team hierarchy (a tree of
teams with agents at the leaf teams).  Programs are loaded from a JSON
document, validated, and exposed with precomputed structural indexes so the
recognizers never walk raw lists.

All structures are immutable after load, except each node's forward step
table (``TeamOrientedProgram.step_table``), which is filled on first use.
Filling is idempotent: two threads that race on a node build equal tables,
so instances are safe to share across threads.  Mutable run state lives in
the belief containers, not here.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import NamedTuple

TERMINATE = "TERMINATE"

# Tolerance for probability-sum validation.
SUM_TOL = 1e-9


class ProgramError(ValueError):
    """A program document failed schema or consistency checks."""

    def __init__(self, message: str, location: str = ""):
        self.location = location
        super().__init__(f"{message} [{location}]" if location else message)


@dataclass(frozen=True)
class PlanNode:
    """One plan in the decomposition tree.

    ``rate`` is the per-tick termination rate of a leaf (the chance the plan
    ends on any tick is 1 - e**-rate); it must be absent on internal nodes.
    """

    id: str
    name: str
    team: str
    parent: str | None = None
    is_first_child: bool = False
    rate: float | None = None


@dataclass(frozen=True)
class TemporalTransition:
    """A temporal edge between sibling plans, or out of the last sibling.

    ``dst`` is a plan id, or TERMINATE for an edge that completes the parent.
    ``pi`` is the prior probability the edge is taken on termination of
    ``src``; ``mu`` the probability that taking it is announced in a message.
    ``teams`` lists the teams allowed to take the edge (may be empty for
    single-agent programs).
    """

    src: str
    dst: str
    pi: float
    mu: float
    teams: tuple[str, ...] = ()


@dataclass(frozen=True)
class TeamHierarchy:
    """Tree of teams plus the agent -> leaf-team assignment."""

    teams: tuple[tuple[str, str | None], ...]  # (team, parent) sorted by team
    agents: tuple[tuple[str, str], ...]        # (agent, team) sorted by agent

    _parent: dict = field(default_factory=dict, compare=False, repr=False)
    _agent_team: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_parent", dict(self.teams))
        object.__setattr__(self, "_agent_team", dict(self.agents))

    @property
    def agent_names(self) -> tuple[str, ...]:
        return tuple(a for a, _ in self.agents)

    @property
    def size(self) -> int:
        """Total node count of the hierarchy: teams plus agents."""
        return len(self.teams) + len(self.agents)

    def has_team(self, team: str) -> bool:
        return team in self._parent

    def parent_team(self, team: str) -> str | None:
        return self._parent[team]

    def agent_team(self, agent: str) -> str:
        return self._agent_team[agent]

    def ancestors_or_self(self, team: str) -> tuple[str, ...]:
        """Chain from ``team`` up to the root team, inclusive."""
        chain = []
        cur: str | None = team
        while cur is not None:
            chain.append(cur)
            cur = self._parent[cur]
        return tuple(chain)

    def covers(self, ancestor: str, team: str) -> bool:
        """True when ``ancestor`` is ``team`` itself or one of its ancestors."""
        return ancestor in self.ancestors_or_self(team)

    def members(self, team: str) -> tuple[str, ...]:
        """Agents whose leaf team lies at or below ``team``."""
        return tuple(a for a, t in self.agents if self.covers(team, t))


def hazard(rate: float) -> float:
    """Per-tick termination probability of a leaf with the given rate."""
    return 1.0 - math.exp(-rate)


def topmost_teams(h: TeamHierarchy, teams) -> set[str]:
    """Drop every team that has an ancestor in the same set."""
    chosen = set()
    for t in teams:
        if not any(u != t and h.covers(u, t) for u in teams):
            chosen.add(t)
    return chosen


def _first_child_groups(p: TeamOrientedProgram, x: str) -> list[tuple[str, tuple[str, ...]]]:
    """First children of x grouped by owning team, topmost teams only."""
    first = p.first_children(x)
    if not first:
        return []
    tops = topmost_teams(p.team_hierarchy, {p.node(c).team for c in first})
    return [(team, tuple(c for c in first if p.node(c).team == team))
            for team in sorted(tops)]


def is_allowed(t: TemporalTransition, team: str, h: TeamHierarchy) -> bool:
    """A transition is open to ``team`` when it lists the team or an ancestor."""
    chain = h.ancestors_or_self(team)
    return any(listed in chain for listed in t.teams)


class NodeStep(NamedTuple):
    """What one forward tick needs of a node (``TeamOrientedProgram.step_table``)."""

    groups: tuple[tuple[str, ...], ...]  # first children, one tuple per parallel group
    teams: tuple  # per topmost acting team: (eta, ((dst, 1 - mu, pi), ...))
    eta: float  # mean eta (unannounced share) over ``teams``
    parent: str | None
    parent_groups: int  # the parent's parallel group count; divides TERMINATE flow
    hazard: float | None  # a leaf's per-tick termination probability


@dataclass(frozen=True)
class TeamOrientedProgram:
    """Validated plan + team hierarchy with structural indexes."""

    plans: tuple[PlanNode, ...]
    transitions: tuple[TemporalTransition, ...]
    team_hierarchy: TeamHierarchy
    root: str
    team_mode: bool = field(default=False, compare=False)

    _node: dict = field(default_factory=dict, compare=False, repr=False)
    _children: dict = field(default_factory=dict, compare=False, repr=False)
    _first_children: dict = field(default_factory=dict, compare=False, repr=False)
    _out: dict = field(default_factory=dict, compare=False, repr=False)
    _into: dict = field(default_factory=dict, compare=False, repr=False)
    _by_name: dict = field(default_factory=dict, compare=False, repr=False)
    _postorder: tuple = field(default=(), compare=False, repr=False)
    _leaves: tuple = field(default=(), compare=False, repr=False)
    _steps: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        node = {n.id: n for n in self.plans}
        children: dict[str, list[str]] = {i: [] for i in node}
        for n in self.plans:
            if n.parent is not None:
                children[n.parent].append(n.id)
        children = {k: sorted(v) for k, v in children.items()}
        first = {k: tuple(c for c in v if node[c].is_first_child) for k, v in children.items()}
        out: dict[str, list[TemporalTransition]] = {i: [] for i in node}
        into: dict[str, list[TemporalTransition]] = {i: [] for i in node}
        for t in self.transitions:
            out[t.src].append(t)
            if t.dst != TERMINATE:
                into[t.dst].append(t)
        by_name: dict[str, list[str]] = {}
        for n in self.plans:
            by_name.setdefault(n.name, []).append(n.id)
        post: list[str] = []

        def walk(x: str):
            for c in children[x]:
                walk(c)
            post.append(x)

        walk(self.root)
        object.__setattr__(self, "_node", node)
        object.__setattr__(self, "_children", {k: tuple(v) for k, v in children.items()})
        object.__setattr__(self, "_first_children", first)
        object.__setattr__(self, "_out", {k: tuple(v) for k, v in out.items()})
        object.__setattr__(self, "_into", {k: tuple(v) for k, v in into.items()})
        object.__setattr__(self, "_by_name", {k: tuple(sorted(v)) for k, v in by_name.items()})
        object.__setattr__(self, "_postorder", tuple(post))
        object.__setattr__(self, "_leaves", tuple(i for i in sorted(node) if not children[i]))

    # -- structure ---------------------------------------------------------

    def node(self, node_id: str) -> PlanNode:
        return self._node[node_id]

    @property
    def node_ids(self) -> tuple[str, ...]:
        return tuple(sorted(self._node))

    @property
    def leaves(self) -> tuple[str, ...]:
        return self._leaves

    @property
    def postorder(self) -> tuple[str, ...]:
        """Every node id with children listed before their parent."""
        return self._postorder

    def children(self, node_id: str) -> tuple[str, ...]:
        return self._children[node_id]

    def first_children(self, node_id: str) -> tuple[str, ...]:
        return self._first_children[node_id]

    def is_leaf(self, node_id: str) -> bool:
        return not self._children[node_id]

    def out_transitions(self, node_id: str) -> tuple[TemporalTransition, ...]:
        return self._out[node_id]

    def in_transitions(self, node_id: str) -> tuple[TemporalTransition, ...]:
        return self._into[node_id]

    def nodes_named(self, name: str) -> tuple[str, ...]:
        return self._by_name.get(name, ())

    def ancestors(self, node_id: str) -> tuple[str, ...]:
        """Strict ancestors from parent up to the root."""
        chain = []
        cur = self._node[node_id].parent
        while cur is not None:
            chain.append(cur)
            cur = self._node[cur].parent
        return tuple(chain)

    def path_to(self, node_id: str) -> tuple[str, ...]:
        """Node ids from the root down to ``node_id`` inclusive."""
        return tuple(reversed((node_id,) + self.ancestors(node_id)))

    def path_names(self, path) -> tuple[str, ...]:
        return tuple(self._node[x].name for x in path)

    def step_table(self, x: str) -> NodeStep:
        """x's forward step table, built on first use.

        Each first-child group gets the full mass entering x and splits it
        among its members.  Outside team mode there is one group of all first
        children and one team taking every edge: the single-agent engine.
        """
        table = self._steps.get(x)
        if table is not None:
            return table
        node, outgoing = self._node[x], self._out[x]
        if self.team_mode:
            h = self.team_hierarchy
            groups = tuple(g for _, g in _first_child_groups(self, x))
            acting = sorted(topmost_teams(h, {team for t in outgoing for team in t.teams}))
            allowed = [[t for t in outgoing if is_allowed(t, team, h)] for team in acting]
            kids = self._children.get(node.parent, ())
            parent_groups = max(1, len(topmost_teams(h, {self._node[c].team for c in kids})))
        else:
            groups = (self._first_children[x],) if self._first_children[x] else ()
            allowed, parent_groups = ([outgoing] if outgoing else []), 1
        teams = tuple((sum((1.0 - t.mu) * t.pi for t in edges),
                       tuple((t.dst, 1.0 - t.mu, t.pi) for t in edges)) for edges in allowed)
        eta = sum(e for e, _ in teams) / len(teams) if teams else 0.0
        leaf_hazard = None if self._children[x] else hazard(node.rate)
        table = NodeStep(groups, teams, eta, node.parent, parent_groups, leaf_hazard)
        self._steps[x] = table
        return table

    def single_agent_view(self) -> "TeamOrientedProgram":
        """Strip team restrictions for the per-agent recognizer baseline.

        Team-mode programs normalize transition priors per team, so the
        union over teams can exceed 1 at a node.  The view renormalizes each
        node's priors over all of its outgoing edges and drops the team tags.
        """
        totals: dict[str, float] = {}
        for t in self.transitions:
            totals[t.src] = totals.get(t.src, 0.0) + t.pi
        flat = tuple(
            TemporalTransition(t.src, t.dst, t.pi / totals[t.src] if totals[t.src] > 0 else 0.0,
                               t.mu, ())
            for t in self.transitions
        )
        return TeamOrientedProgram(self.plans, flat, self.team_hierarchy, self.root,
                                   team_mode=False)


# -- document loading -------------------------------------------------------

_TOP_KEYS = {"teams", "agents", "plans", "transitions", "root"}
_TEAM_KEYS = {"name", "parent"}
_AGENT_KEYS = {"name", "team"}
_PLAN_KEYS = {"id", "name", "team", "parent", "first_child", "lambda"}
_TRANS_KEYS = {"from", "to", "pi", "mu", "teams"}


def _reject_unknown(entry: dict, allowed: set[str], loc: str):
    extra = set(entry) - allowed
    if extra:
        raise ProgramError(f"unknown keys {sorted(extra)}", loc)


def _require(entry: dict, key: str, loc: str):
    if key not in entry:
        raise ProgramError(f"missing required key '{key}'", loc)
    return entry[key]


def _load_hierarchy(doc: dict) -> TeamHierarchy:
    seen: dict[str, str | None] = {}
    for i, entry in enumerate(doc.get("teams", [])):
        loc = f"teams[{i}]"
        if not isinstance(entry, dict):
            raise ProgramError("team entry must be an object", loc)
        _reject_unknown(entry, _TEAM_KEYS, loc)
        name = _require(entry, "name", loc)
        if name in seen:
            raise ProgramError(f"duplicate team '{name}'", loc)
        seen[name] = entry.get("parent")
    roots = [t for t, p in seen.items() if p is None]
    for t, p in seen.items():
        if p is not None and p not in seen:
            raise ProgramError(f"team '{t}' names unknown parent '{p}'", "teams")
    if seen and len(roots) != 1:
        raise ProgramError(f"team hierarchy must have exactly one root, found {sorted(roots)}",
                           "teams")
    # Parent chains must terminate at the root (no cycles).
    for t in seen:
        hops, cur = 0, t
        while cur is not None:
            cur = seen[cur]
            hops += 1
            if hops > len(seen):
                raise ProgramError(f"team parent chain of '{t}' is cyclic", "teams")
    agents: dict[str, str] = {}
    children = {t for t, p in seen.items() if p is not None for t in [p]}
    for i, entry in enumerate(doc.get("agents", [])):
        loc = f"agents[{i}]"
        if not isinstance(entry, dict):
            raise ProgramError("agent entry must be an object", loc)
        _reject_unknown(entry, _AGENT_KEYS, loc)
        name = _require(entry, "name", loc)
        team = _require(entry, "team", loc)
        if name in agents:
            raise ProgramError(f"duplicate agent '{name}'", loc)
        if name in seen:  # a unit name must say whether it is a team or an agent
            raise ProgramError(f"agent '{name}' has the name of a team", loc)
        if team not in seen:
            raise ProgramError(f"agent '{name}' names unknown team '{team}'", loc)
        if team in children:
            raise ProgramError(f"agent '{name}' must sit at a leaf team, '{team}' has subteams",
                               loc)
        agents[name] = team
    return TeamHierarchy(tuple(sorted(seen.items())), tuple(sorted(agents.items())))


def program_from_document(doc: dict, *, team_mode: bool = False) -> TeamOrientedProgram:
    if not isinstance(doc, dict):
        raise ProgramError("program document must be a JSON object")
    _reject_unknown(doc, _TOP_KEYS, "document")
    hierarchy = _load_hierarchy(doc)

    plans: dict[str, PlanNode] = {}
    for i, entry in enumerate(doc.get("plans", [])):
        loc = f"plans[{i}]"
        if not isinstance(entry, dict):
            raise ProgramError("plan entry must be an object", loc)
        _reject_unknown(entry, _PLAN_KEYS, loc)
        pid = _require(entry, "id", loc)
        loc = f"plan '{pid}'"
        if pid in plans:
            raise ProgramError("duplicate plan id", loc)
        team = _require(entry, "team", loc)
        if not hierarchy.has_team(team):
            raise ProgramError(f"unknown team '{team}'", loc)
        rate = entry.get("lambda")
        if rate is not None and (not isinstance(rate, (int, float)) or rate < 0):
            raise ProgramError("lambda must be a nonnegative number", loc)
        plans[pid] = PlanNode(
            id=pid,
            name=_require(entry, "name", loc),
            team=team,
            parent=entry.get("parent"),
            is_first_child=bool(entry.get("first_child", False)),
            rate=rate,
        )
    if not plans:
        raise ProgramError("program has no plans", "plans")

    root = _require(doc, "root", "document")
    if root not in plans:
        raise ProgramError(f"root '{root}' is not a plan id", "document")
    if plans[root].parent is not None:
        raise ProgramError("root plan must not have a parent", f"plan '{root}'")
    children: dict[str, list[str]] = {pid: [] for pid in plans}
    for n in plans.values():
        if n.parent is not None:
            if n.parent not in plans:
                raise ProgramError(f"unknown parent '{n.parent}'", f"plan '{n.id}'")
            children[n.parent].append(n.id)
    for pid, n in plans.items():
        hops, cur = 0, n.parent
        while cur is not None:
            cur = plans[cur].parent
            hops += 1
            if hops > len(plans):
                raise ProgramError("decomposition parent chain is cyclic", f"plan '{pid}'")
        if n.parent is None and pid != root:
            raise ProgramError("only the root plan may omit a parent", f"plan '{pid}'")
    for pid, kids in children.items():
        is_leaf = not kids
        if is_leaf and plans[pid].rate is None:
            raise ProgramError("leaf plan must carry lambda", f"plan '{pid}'")
        if not is_leaf and plans[pid].rate is not None:
            raise ProgramError("lambda is only valid on leaf plans", f"plan '{pid}'")
        if not is_leaf and not any(plans[c].is_first_child for c in kids):
            raise ProgramError("non-leaf plan needs at least one first child", f"plan '{pid}'")

    transitions: list[TemporalTransition] = []
    for i, entry in enumerate(doc.get("transitions", [])):
        loc = f"transitions[{i}]"
        if not isinstance(entry, dict):
            raise ProgramError("transition entry must be an object", loc)
        _reject_unknown(entry, _TRANS_KEYS, loc)
        src = _require(entry, "from", loc)
        dst = _require(entry, "to", loc)
        loc = f"transition {src}->{dst}"
        if src not in plans:
            raise ProgramError("unknown source plan", loc)
        if dst != TERMINATE and dst not in plans:
            raise ProgramError("destination must be a plan id or TERMINATE", loc)
        pi = _require(entry, "pi", loc)
        mu = _require(entry, "mu", loc)
        for label, v in (("pi", pi), ("mu", mu)):
            if not isinstance(v, (int, float)) or not 0.0 <= v <= 1.0:
                raise ProgramError(f"{label} must be a probability in [0, 1]", loc)
        teams = entry.get("teams", [])
        if not isinstance(teams, list):
            raise ProgramError("teams must be a list", loc)
        for team in teams:
            if not hierarchy.has_team(team):
                raise ProgramError(f"unknown team '{team}'", loc)
        if team_mode and not teams:
            raise ProgramError("team-mode programs need teams on every transition", loc)
        transitions.append(TemporalTransition(src, dst, float(pi), float(mu),
                                              tuple(sorted(set(teams)))))
    transitions.sort(key=lambda t: (t.src, t.dst, t.teams))

    program = TeamOrientedProgram(
        plans=tuple(plans[pid] for pid in sorted(plans)),
        transitions=tuple(transitions),
        team_hierarchy=hierarchy,
        root=root,
        team_mode=team_mode,
    )
    _validate_pi_sums(program, team_mode)
    return program


def _validate_pi_sums(p: TeamOrientedProgram, team_mode: bool):
    for x in p.node_ids:
        out = p.out_transitions(x)
        if not out:
            continue
        if team_mode:
            listed = {team for t in out for team in t.teams}
            for team in sorted(listed):
                total = sum(t.pi for t in out if is_allowed(t, team, p.team_hierarchy))
                if abs(total - 1.0) > SUM_TOL:
                    raise ProgramError(
                        f"outgoing pi for team '{team}' sums to {total:.6g}, expected 1",
                        f"plan '{x}'")
        else:
            total = sum(t.pi for t in out)
            if abs(total - 1.0) > SUM_TOL:
                raise ProgramError(f"outgoing pi sums to {total:.6g}, expected 1", f"plan '{x}'")


def load_program(text: str, *, team_mode: bool = False) -> TeamOrientedProgram:
    """Parse and validate a JSON program document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProgramError(f"invalid JSON: {exc}") from None
    return program_from_document(doc, team_mode=team_mode)


def load_program_path(path, *, team_mode: bool = False) -> TeamOrientedProgram:
    with open(path, encoding="utf-8") as fh:
        return load_program(fh.read(), team_mode=team_mode)


def program_to_document(p: TeamOrientedProgram) -> dict:
    doc: dict = {
        "teams": [{"name": t, "parent": parent} for t, parent in p.team_hierarchy.teams],
        "agents": [{"name": a, "team": t} for a, t in p.team_hierarchy.agents],
        "plans": [],
        "transitions": [],
        "root": p.root,
    }
    for n in p.plans:
        entry: dict = {"id": n.id, "name": n.name, "team": n.team}
        if n.parent is not None:
            entry["parent"] = n.parent
            entry["first_child"] = n.is_first_child
        if n.rate is not None:
            entry["lambda"] = n.rate
        doc["plans"].append(entry)
    for t in p.transitions:
        doc["transitions"].append({"from": t.src, "to": t.dst, "pi": t.pi, "mu": t.mu,
                                   "teams": list(t.teams)})
    return doc


def serialize_program(p: TeamOrientedProgram) -> str:
    """Canonical JSON text; load_program(serialize_program(p)) == p."""
    return json.dumps(program_to_document(p), indent=2) + "\n"
