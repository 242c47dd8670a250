"""Team-oriented program model.

A program couples a plan hierarchy (a decomposition tree whose siblings are
linked by probabilistic temporal transitions) with a team hierarchy (a tree of
teams with agents at the leaf teams).  Programs are loaded from a JSON
document, validated, and exposed with structural indexes so the recognizers
never walk raw lists.

Every derived table of ``TeamHierarchy`` and ``TeamOrientedProgram`` is a
``functools.cached_property``: built whole from the dataclass fields on first
use, kept in the instance's ``__dict__`` and left out of equality, hashing
and ``repr``.  The hierarchy's are the team -> parent, agent -> team,
ancestor-or-self chain and members tables and the agent names.  No other
module writes to a program.

The program has one table layer, keyed by a node's position in ``plans``,
which the loader sorts by id: a belief table is a list with one entry per
node in that order, so every table names a node by its position, and
positions ascend in id order.  The tables are each node's children
(``children_at``), transitions out (``out_at``), ancestors, root path as
plan names (``name_paths_at``), owner and first-child groups
(``groups_at``, the one place that decides which subteams run in
parallel) and first-child descent (``descents_at``, which ``descend``
walks); the postorder and the leaves; plan name -> positions
(``named_index``); the zero table (``zeros``), the initial state
(``initial``) and each team's candidate leaves (``leaves_by_team``); the
evidence tables that ``belief.evidence`` reads in both modes (each
team's open transitions as ``(src, dst, mu, pi)`` edges, ``team_edges``,
and each node's normalizing unit, ``unit_at``); the shared layout's climb
(``evidence_climbs``, which holds the walk of every rescale it runs); and
the compiled object of the program's fields (``compiled``): the forward
step (``compiled.forward``), which walks a step table read once from these
tables, steps list copies and returns them, and the step memo of both
layouts.  They are built on first use, so loading a program pays for none
of them.  Node ids remain only at the document boundary: ``node_ids`` and
``index`` map between ids and positions, ``node(id)`` reads a plan record,
and the transition records (``out_at``) name their plans by id.  A query
answers with a leaf's position, and ``path_names`` gives its root path as
plan names.  The step table and its cache live in ``compiled``: the
compiled object is built once per distinct set of the fields the table
reads, in a bounded cache kept in that module, so programs equal in those
fields share one object and a hit builds nothing.

A transition is taken by the team that executes its source plan, in both
modes; the simulator and both recognizers share that one rule.  Loading
checks, besides schema and references:

- each plan's outgoing ``pi`` sums to 1;
- a transition's ``teams``, an optional restatement of that rule, is
  absent, ``[]`` or exactly ``[<source plan's team>]``;
- a plan's team is its parent plan's team or one of that team's subteams,
  so the shared layout can decide where to rescale from plan ownership
  alone;
- a transition other than TERMINATE joins two children of one parent;
  no plan's id is TERMINATE;
- every plan, team and agent name fits one field of a trace or log line:
  it is not empty and holds no whitespace, ``/``, ``!`` or ``#``.

A table is a pure function of the fields, so two threads racing on its first
use build equal tables, and instances are safe to share across threads.  So
is the compiled object shared by programs with equal fields: its step
touches nothing but its arguments and the lists it makes, two threads
building one key at once get equal objects, and every entry its memo
stores is a function of the fields and the entry's key.  Mutable run
state lives in the belief containers, not here.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field, replace
from functools import cached_property

TERMINATE = "TERMINATE"

# Tolerance for probability-sum validation.
SUM_TOL = 1e-9

# Leaf masses within this relative distance of the best one tie in a
# most-likely pick (``belief.pick_leaf``): ``descend`` splits
# mass evenly, so exact ties are common, and summation order must not
# decide between them.
TIE_TOLERANCE = 1e-9


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
    The team that executes ``src`` takes the edge.
    """

    src: str
    dst: str
    pi: float
    mu: float


@dataclass(frozen=True)
class TeamHierarchy:
    """Tree of teams plus the agent -> leaf-team assignment."""

    teams: tuple[tuple[str, str | None], ...]  # (team, parent) sorted by team
    agents: tuple[tuple[str, str], ...]        # (agent, team) sorted by agent

    @cached_property
    def _parent(self) -> dict[str, str | None]:
        return dict(self.teams)

    @cached_property
    def _agent_team(self) -> dict[str, str]:
        return dict(self.agents)

    @cached_property
    def agent_names(self) -> tuple[str, ...]:
        return tuple(a for a, _ in self.agents)

    @cached_property
    def _chain(self) -> dict[str, tuple[str, ...]]:
        """Each team's chain up to the root team, inclusive."""
        chain: dict[str, tuple[str, ...]] = {}
        for team in self._parent:
            hops: list[str] = []
            cur = team
            while cur is not None:
                hops.append(cur)
                cur = self._parent[cur]
            chain[team] = tuple(hops)
        return chain

    @cached_property
    def _members(self) -> dict[str, tuple[str, ...]]:
        """Each team's members; ``agents`` is sorted by name, so each tuple is too."""
        members: dict[str, list[str]] = {}
        for agent, team in self.agents:
            for t in self._chain[team]:
                members.setdefault(t, []).append(agent)
        return {t: tuple(v) for t, v in members.items()}

    @property
    def size(self) -> int:
        """Total node count of the hierarchy: teams plus agents."""
        return len(self.teams) + len(self.agents)

    def has_team(self, team: str) -> bool:
        return team in self._parent

    def has_agent(self, agent: str) -> bool:
        return agent in self._agent_team

    def agent_team(self, agent: str) -> str:
        return self._agent_team[agent]

    def ancestors_or_self(self, team: str) -> tuple[str, ...]:
        """Chain from ``team`` up to the root team, inclusive."""
        return self._chain[team]

    def covers(self, ancestor: str, team: str) -> bool:
        """True when ``ancestor`` is ``team`` itself or one of its ancestors."""
        return ancestor in self._chain[team]

    def members(self, team: str) -> tuple[str, ...]:
        """Agents whose leaf team lies at or below ``team``, sorted by name."""
        return self._members.get(team, ())


def hazard(rate: float) -> float:
    """Per-tick termination probability of a leaf with the given rate."""
    return 1.0 - math.exp(-rate)


def descend(descent, rho: float, act: list[float]):
    """Add ``rho``, a node's mass, down its ``descents_at`` entry into
    ``act``: each first-child group gets its parent's full share (parallel
    subteams carry duplicated mass) and splits it evenly.  The one descent
    of the initial state, the forward step and both evidence commits."""
    shares = [rho] * (len(descent) + 1)  # no slot exceeds the entries
    for c, slot, divisor in descent:
        if divisor is not None:
            shares[slot] = shares[slot - 1] / divisor
        act[c] += shares[slot]


def topmost_teams(h: TeamHierarchy, teams) -> set[str]:
    """Drop every team that has an ancestor in the same set."""
    chosen = set()
    for t in teams:
        if not any(u != t and h.covers(u, t) for u in teams):
            chosen.add(t)
    return chosen


@dataclass(frozen=True)
class TeamOrientedProgram:
    """Validated plan + team hierarchy with structural indexes.

    ``plans`` is sorted by id, as the loader builds it, so a node's position
    is also its rank by id."""

    plans: tuple[PlanNode, ...]
    transitions: tuple[TemporalTransition, ...]
    team_hierarchy: TeamHierarchy
    root: str
    team_mode: bool = field(default=False, compare=False)

    # -- structure, by node position ---------------------------------------

    @cached_property
    def node_ids(self) -> tuple[str, ...]:
        """Every node id in ``plans`` order, which the loader sorts by id."""
        return tuple(n.id for n in self.plans)

    @cached_property
    def index(self) -> dict[str, int]:
        """Each node id's position in ``node_ids``, which is its entry in a belief table."""
        return dict(zip(self.node_ids, range(len(self.node_ids))))

    def node(self, node_id: str) -> PlanNode:
        return self.plans[self.index[node_id]]

    @cached_property
    def children_at(self) -> tuple[tuple[int, ...], ...]:
        """Each node's children by position, ascending."""
        index, children = self.index, [[] for _ in self.plans]
        for i, n in enumerate(self.plans):
            if n.parent is not None:
                children[index[n.parent]].append(i)
        return tuple(map(tuple, children))

    @cached_property
    def out_at(self) -> tuple[tuple[TemporalTransition, ...], ...]:
        """Each node's transitions out, by position, in ``transitions`` order."""
        index, out = self.index, [[] for _ in self.plans]
        for t in self.transitions:
            out[index[t.src]].append(t)
        return tuple(map(tuple, out))

    @cached_property
    def postorder(self) -> tuple[int, ...]:
        """Every node's position, children listed before their parent."""
        post: list[int] = []

        def walk(i: int):
            for c in self.children_at[i]:
                walk(c)
            post.append(i)

        walk(self.index[self.root])
        return tuple(post)

    @cached_property
    def leaf_index(self) -> tuple[int, ...]:
        """The leaves' positions, ascending, so in id order."""
        return tuple(i for i, kids in enumerate(self.children_at) if not kids)

    @cached_property
    def ancestors_at(self) -> tuple[tuple[int, ...], ...]:
        """Each node's strict ancestors from parent up to the root, by position."""
        plans, index, ancestors = self.plans, self.index, [()] * len(self.plans)
        for i in reversed(self.postorder):  # every parent before its children
            parent = plans[i].parent
            if parent is not None:
                j = index[parent]
                ancestors[i] = (j, *ancestors[j])
        return tuple(ancestors)

    @cached_property
    def name_paths_at(self) -> tuple[tuple[str, ...], ...]:
        """Each position's root path as plan names, as traces and queries write it."""
        plans, index, paths = self.plans, self.index, [()] * len(self.plans)
        for i in reversed(self.postorder):  # every parent before its children
            n = plans[i]
            paths[i] = (n.name,) if n.parent is None else (*paths[index[n.parent]], n.name)
        return tuple(paths)

    def path_names(self, i: int) -> tuple[str, ...]:
        """The plan names on the root path of the node at position i, which a
        query (``belief.most_likely_state``, ``yoyo.team_most_likely``) returns."""
        return self.name_paths_at[i]

    @cached_property
    def owner_at(self) -> tuple[str, ...]:
        """The team that owns each node, by position."""
        return tuple(n.team for n in self.plans)

    @cached_property
    def named_index(self) -> dict[str, tuple[int, ...]]:
        """Plan name -> the positions of the nodes it names, ascending."""
        named: dict[str, list[int]] = {}
        for i, n in enumerate(self.plans):
            named.setdefault(n.name, []).append(i)
        return {name: tuple(v) for name, v in named.items()}

    @cached_property
    def groups_at(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """Each node's first children by position, one tuple per parallel group.

        This is the one place that decides which subteams run in parallel.
        In team mode each topmost team among the first children's owners is
        one group, in team order, holding the first children that team owns;
        a first child of a team nested under another group's team is in no
        group.  Otherwise all first children form one group.
        """
        h, plans, owner, groups = self.team_hierarchy, self.plans, self.owner_at, []
        for kids in self.children_at:
            first = [c for c in kids if plans[c].is_first_child]
            if first and self.team_mode:
                tops = topmost_teams(h, {owner[c] for c in first})
                groups.append(tuple(tuple(c for c in first if owner[c] == team)
                                    for team in sorted(tops)))
            else:
                groups.append((tuple(first),) if first else ())
        return tuple(groups)

    @cached_property
    def descents_at(self) -> tuple[tuple[tuple[int, int, int | None], ...], ...]:
        """Each node's first-child descent (``descend``), by position: its
        ``groups_at`` subtree in preorder as ``(child, slot, divisor)``.
        Slot 0 holds the node's mass; a group of more than one takes the
        next slot, which its first child fills by dividing its parent's
        share by the group's size; every other divisor is None."""
        groups_at = self.groups_at
        descents = [()] * len(groups_at)

        def fill(y: int) -> tuple:
            out = []
            for group in groups_at[y]:
                shift = int(len(group) > 1)
                divisor = len(group) if shift else None
                for c in group:
                    out.append((c, shift, divisor))
                    divisor = None  # the rest of the group reads the first child's share
                    below = descents[c] or (fill(c) if groups_at[c] else ())
                    out += [(d, slot + 1, div) for d, slot, div in below] if shift else below
            descents[y] = out = tuple(out)
            return out

        for y, groups in enumerate(groups_at):
            if groups and not descents[y]:  # a node with groups has a nonempty descent
                fill(y)
        return tuple(descents)

    @cached_property
    def zeros(self) -> tuple[float, ...]:
        """0.0 for every node, by position; ``list`` it to get a fresh state table."""
        return (0.0,) * len(self.node_ids)

    @cached_property
    def initial(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """The initial (active, blocked) tables, which ``belief.init_beliefs`` uses.

        All mass is on the root and, by its descent, on the initial leaves;
        the descent runs once per program, not per state.
        """
        active = list(self.zeros)
        root = self.index[self.root]
        active[root] = 1.0
        descend(self.descents_at[root], 1.0, active)
        return tuple(active), self.zeros

    @cached_property
    def leaves_by_team(self) -> dict[str, tuple[int, ...]]:
        """Each team's candidate leaves by position: those it or an ancestor
        team owns, else every leaf."""
        chain, owner = self.team_hierarchy.ancestors_or_self, self.owner_at
        return {team: tuple(i for i in self.leaf_index if owner[i] in chain(team))
                or self.leaf_index for team, _ in self.team_hierarchy.teams}

    # -- the shared layout's evidence tick ----------------------------------

    @cached_property
    def evidence_climbs(self) -> tuple[tuple[tuple[int, int, tuple], ...], ...]:
        """Each node's climb to the root in the shared layout's evidence tick, by position.

        Evidence committed at node x climbs one ``(node, parent, walk)`` step
        per ancestor, every node a position.  A step into a parent owned by
        another team than node rescales; every other step's ``walk`` is
        ``()``.  The loader nests
        each plan's team at or under its parent plan's, so node's owner is
        then a subteam of the parent's owner, and the walk visits the
        parent's subtrees that node's owner does not execute itself.  It is
        the pre-order ``(y, y's parent, split)`` steps of the parent's
        children's subtrees, in id order, where ``split`` is the size of the
        first-child group under y's parent that holds y (0 if none does).
        A subtree owned by node's owner, a subteam or an ancestor team is
        left out whole, with all it holds; node's own subtree is one of
        them.  Walks are built once per (parent, owner) pair a climb uses.
        """
        h, owner, children = self.team_hierarchy, self.owner_at, self.children_at
        split = {c: len(g) for groups in self.groups_at for g in groups for c in g}
        walks: dict[tuple[int, str], tuple] = {}

        def visit(y: int, parent: int, team: str, steps: list):
            if h.covers(team, owner[y]) or h.covers(owner[y], team):
                return
            steps.append((y, parent, split.get(y, 0)))
            for c in children[y]:
                visit(c, y, team, steps)

        def walk(parent: int, team: str) -> tuple:
            if (parent, team) not in walks:
                steps: list = []
                for c in children[parent]:
                    visit(c, parent, team, steps)
                walks[parent, team] = tuple(steps)
            return walks[parent, team]

        climbs = []
        for x, ancestors in enumerate(self.ancestors_at):
            y, steps = x, []
            for parent in ancestors:
                team = owner[y]
                steps.append((y, parent, walk(parent, team) if owner[parent] != team else ()))
                y = parent
            climbs.append(tuple(steps))
        return tuple(climbs)

    @cached_property
    def team_edges(self) -> dict[str | None, tuple[dict, dict]]:
        """Each team's open transitions, as (into, out of) tables keyed by position.

        In team mode a transition is open to a team when its source plan's
        owner is that team or an ancestor; the single-agent view has one
        agent execute every plan, so its one key, None, opens them all.
        ``into[x]`` and ``out[x]`` hold the ``(src, dst, mu, pi)`` edges into
        and out of node x, TERMINATE edges left out, in ``transitions``
        order; a node with none is absent.
        """
        h, owner, index, edges = self.team_hierarchy, self.owner_at, self.index, {}
        teams = [team for team, _ in h.teams] if self.team_mode else [None]
        for team in teams:
            into: dict[int, list] = {}
            out: dict[int, list] = {}
            for t in self.transitions:
                if t.dst != TERMINATE and (team is None or h.covers(owner[index[t.src]], team)):
                    edge = (index[t.src], index[t.dst], t.mu, t.pi)
                    into.setdefault(edge[1], []).append(edge)
                    out.setdefault(edge[0], []).append(edge)
            edges[team] = ({x: tuple(v) for x, v in into.items()},
                           {x: tuple(v) for x, v in out.items()})
        return edges

    @cached_property
    def unit_at(self) -> tuple[str | None, ...]:
        """Each node's evidence normalizer, by position: its owning team in
        team mode, and one unit, None, for all nodes in the single-agent view."""
        return self.owner_at if self.team_mode else (None,) * len(self.node_ids)

    # -- the compiled step -------------------------------------------------

    @cached_property
    def compiled(self):
        """The compiled object of the program's fields, shared by every
        program with equal plans, transitions, root, team tree and team mode
        (``compiled.CompiledProgram``): the forward step (``forward``) and
        the step memo of both layouts (``memo``).  ``compiled._compile``
        builds it only for fields not in its cache, so loading a program or
        building a state compiles nothing."""
        from .compiled import _compile  # which imports this module
        return _compile(self.plans, self.transitions, self.root,
                        self.team_hierarchy.teams, self.team_mode)

    def single_agent_view(self) -> "TeamOrientedProgram":
        """The program with team mode off, for the per-agent recognizer baseline.

        It has the same plans and transitions; only the first-child groups
        differ, one group per node.  Built once, it is shared by every array
        recognizer over the program.
        """
        return self._view

    @cached_property
    def _view(self) -> "TeamOrientedProgram":
        return replace(self, team_mode=False)


# -- document loading -------------------------------------------------------

_TOP_KEYS = {"teams", "agents", "plans", "transitions", "root"}
_TEAM_KEYS = {"name", "parent"}
_AGENT_KEYS = {"name", "team"}
_PLAN_KEYS = {"id", "name", "team", "parent", "first_child", "lambda"}
_TRANS_KEYS = {"from", "to", "pi", "mu", "teams"}


def _reject_unknown(entry: dict, allowed: set[str], loc: str):
    if not allowed.issuperset(entry):
        raise ProgramError(f"unknown keys {sorted(set(entry) - allowed)}", loc)


def _require(entry: dict, key: str, loc: str):
    if key not in entry:
        raise ProgramError(f"missing required key '{key}'", loc)
    return entry[key]


def _string(entry: dict, key: str, loc: str, optional: bool = False) -> str | None:
    """entry[key], which must be a string; an optional key may be absent or null."""
    value = entry.get(key)
    if isinstance(value, str) or (optional and value is None):
        return value
    value = _require(entry, key, loc)
    raise ProgramError(f"'{key}' must be a string, not {type(value).__name__}", loc)


# A trace line is 'tick agent plan/plan[!]' and a log line 'tick agent team
# kind plan', split on whitespace, and '#' starts a log comment.
_UNWRITABLE = re.compile(r"[\s/!#]")


def _name(entry: dict, loc: str) -> str:
    """entry["name"], a string that a trace or log line can carry as one field."""
    name = _string(entry, "name", loc)
    if not name or _UNWRITABLE.search(name):
        raise ProgramError(f"name {name!r} is empty or holds whitespace, '/', '!' or '#', "
                           "which a trace or log line cannot carry", loc)
    return name


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def probability(value, label: str, loc: str = "") -> float:
    """``value`` as a float if it is a number in [0, 1] and not a bool (NaN fails)."""
    if not _is_number(value) or not 0.0 <= value <= 1.0:
        raise ProgramError(f"{label} must be a probability in [0, 1]", loc)
    return float(value)


def _nonnegative_number(v) -> bool:
    # json reads NaN, and a NaN rate would poison every belief it touches;
    # an integer too large for a float would fail the first forward step
    try:
        return _is_number(v) and float(v) >= 0
    except OverflowError:
        return False


def _section(doc: dict, key: str) -> list:
    entries = doc.get(key, [])
    if not isinstance(entries, list):
        raise ProgramError(f"'{key}' must be a list, not {type(entries).__name__}",
                           "document")
    return entries


def _load_hierarchy(doc: dict) -> TeamHierarchy:
    seen: dict[str, str | None] = {}
    for i, entry in enumerate(_section(doc, "teams")):
        loc = f"teams[{i}]"
        if not isinstance(entry, dict):
            raise ProgramError("team entry must be an object", loc)
        _reject_unknown(entry, _TEAM_KEYS, loc)
        name = _name(entry, loc)
        if name in seen:
            raise ProgramError(f"duplicate team '{name}'", loc)
        seen[name] = _string(entry, "parent", loc, optional=True)
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
    for i, entry in enumerate(_section(doc, "agents")):
        loc = f"agents[{i}]"
        if not isinstance(entry, dict):
            raise ProgramError("agent entry must be an object", loc)
        _reject_unknown(entry, _AGENT_KEYS, loc)
        name = _name(entry, loc)
        team = _string(entry, "team", loc)
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
    for i, entry in enumerate(_section(doc, "plans")):
        loc = f"plans[{i}]"
        if not isinstance(entry, dict):
            raise ProgramError("plan entry must be an object", loc)
        _reject_unknown(entry, _PLAN_KEYS, loc)
        pid = _string(entry, "id", loc)
        loc = f"plan '{pid}'"
        if pid in plans:
            raise ProgramError("duplicate plan id", loc)
        if pid == TERMINATE:
            raise ProgramError("the id TERMINATE is reserved for completing a parent", loc)
        team = _string(entry, "team", loc)
        if not hierarchy.has_team(team):
            raise ProgramError(f"unknown team '{team}'", loc)
        rate = entry.get("lambda")
        if rate is not None and not _nonnegative_number(rate):
            raise ProgramError("lambda must be a nonnegative number", loc)
        first_child = entry.get("first_child", False)
        if not isinstance(first_child, bool):
            raise ProgramError("first_child must be true or false", loc)
        plans[pid] = PlanNode(
            id=pid,
            name=_name(entry, loc),
            team=team,
            parent=_string(entry, "parent", loc, optional=True),
            is_first_child=first_child,
            rate=rate,
        )
    if not plans:
        raise ProgramError("program has no plans", "plans")

    root = _string(doc, "root", "document")
    if root not in plans:
        raise ProgramError(f"root '{root}' is not a plan id", "document")
    if plans[root].parent is not None:
        raise ProgramError("root plan must not have a parent", f"plan '{root}'")
    children: dict[str, list[str]] = {pid: [] for pid in plans}
    for n in plans.values():
        if n.parent is not None:
            if n.parent not in plans:
                raise ProgramError(f"unknown parent '{n.parent}'", f"plan '{n.id}'")
            owner = plans[n.parent].team
            if not hierarchy.covers(owner, n.team):
                raise ProgramError(f"team '{n.team}' is neither '{owner}', the team of parent "
                                   f"plan '{n.parent}', nor one of its subteams", f"plan '{n.id}'")
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
    for i, entry in enumerate(_section(doc, "transitions")):
        loc = f"transitions[{i}]"
        if not isinstance(entry, dict):
            raise ProgramError("transition entry must be an object", loc)
        _reject_unknown(entry, _TRANS_KEYS, loc)
        src = _string(entry, "from", loc)
        dst = _string(entry, "to", loc)
        loc = f"transition {src}->{dst}"
        if src not in plans:
            raise ProgramError("unknown source plan", loc)
        if dst != TERMINATE and dst not in plans:
            raise ProgramError("destination must be a plan id or TERMINATE", loc)
        if dst != TERMINATE and (plans[src].parent is None
                                 or plans[src].parent != plans[dst].parent):
            raise ProgramError("a transition must join two children of one parent", loc)
        pi = probability(_require(entry, "pi", loc), "pi", loc)
        mu = probability(_require(entry, "mu", loc), "mu", loc)
        owner = plans[src].team
        if entry.get("teams", []) not in ([], [owner]):
            raise ProgramError(f"teams must be omitted, [] or ['{owner}'], the team of "
                               f"source plan '{src}'", loc)
        transitions.append(TemporalTransition(src, dst, pi, mu))
    transitions.sort(key=lambda t: (t.src, t.dst))

    program = TeamOrientedProgram(
        plans=tuple(plans[pid] for pid in sorted(plans)),
        transitions=tuple(transitions),
        team_hierarchy=hierarchy,
        root=root,
        team_mode=team_mode,
    )
    _validate_pi_sums(program)
    return program


def _validate_pi_sums(p: TeamOrientedProgram):
    for x, out in zip(p.node_ids, p.out_at):
        total = sum(t.pi for t in out)
        if out and abs(total - 1.0) > SUM_TOL:
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
                                   "teams": [p.node(t.src).team]})
    return doc


def serialize_program(p: TeamOrientedProgram) -> str:
    """Canonical JSON text; load_program(serialize_program(p)) == p."""
    return json.dumps(program_to_document(p), indent=2) + "\n"
