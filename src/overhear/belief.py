"""Belief engine over a plan hierarchy, shared by both recognizer layouts.

Per plan node the engine keeps two masses: active (the agent is executing
the node, or a descendant for internal nodes) and blocked (the node has
terminated but no successor has begun, typically because the announcing
message has not been seen yet).  Ticks without an observed message apply a
linear forward propagation driven by leaf termination rates; ticks with a
message collapse the state onto the nodes consistent with it.

What a tick's messages are evidence for is one function for both layouts,
``evidence``; the program's mode alone decides which transitions a message
opens and which candidates share a normalizer.  The array layout commits
evidence one message at a time (``apply_messages``), the shared layout in
``yoyo.yoyo_tick``.

A state holds the two masses as plain lists, ``act`` and ``blk``, with one
entry per node in ``node_ids`` order; the engine names a node by that
position (``TeamOrientedProgram.index``) and reads only the program's
position-keyed tables.  Node ids appear at the boundary alone: a query
returns a root path of ids, and ``BeliefState.active`` and ``.blocked`` are
read-only id-keyed views of the lists (``b.active["p12"]``), for readers
outside the engine.

Both layouts step a state in place.  ``init_beliefs`` alone builds one;
``propagate_forward``, ``apply_messages``, ``array_overseer_tick`` and
``yoyo.yoyo_tick`` replace its ``act`` and ``blk`` with new lists and
return None, so a caller holds one state object for the whole run and
copies the lists to keep a tick's masses.

Mass entering a node is copied into each of its first-child groups
(``TeamOrientedProgram.groups_at``).  On a team-mode program a group is one
parallel subteam, which makes the quiet tick of the shared (yoyo) layout;
otherwise there is one group, and the step is the single-agent engine that
the array layout runs once per agent.  It runs as the program's compiled
kernel (``TeamOrientedProgram.forward``), one generated Python function
over local variables: it unpacks both prior lists into locals, runs each
shedding node's updates only when the node sheds a nonzero mass, and
returns two new lists built from the locals.  ``propagate_forward`` calls
it, and is the quiet tick of both layouts.

A most-likely query is compiled too.  The pick rule is one generated
function per leaf tuple (``model._compile_scan``), with one unrolled test
per leaf, held on the program over every leaf (``best_leaf``, which
``most_likely_state`` calls) and over each team's candidate leaves
(``team_best_leaf``).  This module only calls the program's functions and
never writes to a program.

Nothing here clips a value.  Every mass stays at or above 0 exactly: the
kernel keeps it so by construction (see ``TeamOrientedProgram.forward``),
and an evidence commit only adds non-negative shares of normalized masses.
A value may exceed 1 by rounding, by an ulp or so, and is left as it is.
Only the shared (yoyo) layout clips, capping values at 1 in ``yoyo._clamp``
and ``yoyo._clamp_entries``.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

from .ingest import INIT, TERM, ObservedMessage
from .model import TIE_TOLERANCE, TeamOrientedProgram

# Evidence posteriors below the floor are truncated to zero to stop dead
# hypotheses from drifting along indefinitely.
PROB_FLOOR = 1e-12


class MonitoringError(ValueError):
    """An observation could not be reconciled with the program."""


class VisitCounter:
    """Counts node visits inside propagation loops (scalability probes)."""

    __slots__ = ("visits",)

    def __init__(self):
        self.visits = 0

    def visit(self, n: int = 1):
        self.visits += n


class _IdView(Mapping):
    """One belief table, read by node id; it follows the list it wraps."""

    __slots__ = ("_index", "_table")

    def __init__(self, index: dict[str, int], table: list[float]):
        self._index, self._table = index, table

    def __getitem__(self, x: str) -> float:
        return self._table[self._index[x]]

    def __iter__(self):
        return iter(self._index)

    def __len__(self) -> int:
        return len(self._table)


@dataclass(slots=True)
class BeliefState:
    """Belief over a plan state, stepped in place.

    ``act`` and ``blk`` hold the active and blocked mass of every node, in
    ``node_ids`` order; ``index`` is the program's node id -> position table.
    A step replaces both lists with new ones.  ``active`` and ``blocked``
    are read-only views of the two lists keyed by node id, made anew on
    each access so they follow a replaced list.
    """

    act: list[float]
    blk: list[float]
    index: dict[str, int] = field(repr=False, compare=False)

    @property
    def active(self) -> Mapping[str, float]:
        return _IdView(self.index, self.act)

    @property
    def blocked(self) -> Mapping[str, float]:
        return _IdView(self.index, self.blk)


def init_beliefs(p: TeamOrientedProgram) -> BeliefState:
    """All mass on the root and, through first children, on the initial leaves.

    The state copies the program's ``initial`` tables, built once per program.
    """
    active, blocked = p.initial
    return BeliefState(list(active), list(blocked), p.index)


def propagate_down(x: int, rho: float, active: list[float], p: TeamOrientedProgram,
                   updated: set[int] | None = None):
    """Credit ``rho`` to the first children of the node at position x, recursively.

    Each first-child group gets the full ``rho`` (parallel subteams carry
    duplicated mass) and splits it evenly among its members.  Mutates the
    ``active`` table in place, and adds every credited position to
    ``updated`` when given; callers pass the table under construction.
    """
    for group in p.groups_at[x]:
        share = rho / len(group)
        for c in group:
            active[c] += share
            if updated is not None:
                updated.add(c)
            propagate_down(c, share, active, p, updated)


def _prune_redundant_ancestors(p: TeamOrientedProgram, nodes) -> list[int]:
    """Keep only the topmost node of any decomposition chain in ``nodes``, sorted.

    Nodes are positions, so sorted is id order.  A node is dropped when one
    of its ancestors is also in ``nodes``: committing the ancestor already
    spreads its mass down over the descendant, so the two must not compete
    in normalization.
    """
    nodes = set(nodes)
    ancestors = p.ancestors_at
    return sorted(x for x in nodes if nodes.isdisjoint(ancestors[x]))


def _resolve_message_team(m: ObservedMessage, p: TeamOrientedProgram) -> str | None:
    """The ``team_edges`` key of the transitions a message opens: in team mode
    its team, else its sender's; in the single-agent view None, which opens all."""
    if not p.team_mode:
        return None
    h = p.team_hierarchy
    if m.team and h.has_team(m.team):
        return m.team
    if h.has_agent(m.sender):
        return h.agent_team(m.sender)
    raise MonitoringError(
        f"message at tick {m.tick} carries unknown team '{m.team}' and unknown "
        f"sender '{m.sender}'")


def _message_order(m: ObservedMessage) -> tuple:
    """The order a tick's messages are read in: TERM before INIT, then by plan and sender."""
    return (0 if m.kind == TERM else 1, m.plan, m.sender)


def evidence(b: BeliefState, p: TeamOrientedProgram, msgs) -> dict[int, float]:
    """What one tick's messages are evidence for: a mass per position.

    The messages are one set of INIT targets and TERM sources, so a repeat
    adds nothing, and each opens its team's transitions (``team_edges``).
    The candidates are the INIT targets and the TERM sources' successors,
    else the TERM sources; an edge credits its source's prior blocked mass
    times mu times pi, and an INIT target takes credit only from its edges
    in.  Each unit (``unit_at``) splits a mass of 1 over its candidates: the
    credited ones by credit, or all evenly when none is (the surprise
    fallback), less any with an ancestor among such candidates of any unit
    (``_prune_redundant_ancestors``), dropping shares below ``PROB_FLOOR``.
    Positions go in id order, so no mass depends on string hashing.
    """
    initiated: dict[int, str | None] = {}
    terminated: dict[int, str | None] = {}
    for m in sorted(msgs, key=_message_order):
        team = _resolve_message_team(m, p)
        nodes = p.named_index.get(m.plan)
        if not nodes:
            raise MonitoringError(
                f"message at tick {m.tick} names plan '{m.plan}' which matches no node; "
                f"either the program is stale or the team is acting incoherently")
        target = initiated if m.kind == INIT else terminated
        for x in nodes:
            target.setdefault(x, team)
    edges, blocked = p.team_edges, b.blk
    raw: dict[int, float] = {}  # candidate -> credit
    for x, team in sorted(initiated.items()):
        raw[x] = 0.0
        for src, _, mu, pi in edges[team][0].get(x, ()):
            raw[x] += blocked[src] * mu * pi
    for x, team in sorted(terminated.items()):
        for src, dst, mu, pi in edges[team][1].get(x, ()):
            if dst not in initiated:
                raw[dst] = raw.get(dst, 0.0) + blocked[src] * mu * pi
    if not raw:
        raw = dict.fromkeys(terminated, 0.0)
    unit_at = p.unit_at
    credited = set()
    for x, c in raw.items():
        if c > 0.0:
            credited.add(unit_at[x])
    weight: dict[int, float] = {}  # a unit with no credit weighs its candidates evenly
    for x, c in raw.items():
        if c > 0.0 or unit_at[x] not in credited:
            weight[x] = c or 1.0
    keep = _prune_redundant_ancestors(p, weight)
    total: dict[str | None, float] = {}
    for x in keep:
        total[unit_at[x]] = total.get(unit_at[x], 0.0) + weight[x]
    scratch: dict[int, float] = {}
    for x in keep:
        mass = weight[x] / total[unit_at[x]]
        if mass >= PROB_FLOOR:
            scratch[x] = mass
    return scratch


def _commit_evidence(b: BeliefState, scratch: dict[int, float], p: TeamOrientedProgram):
    """Replace b's lists with ``scratch`` committed on fresh zero tables."""
    active, ancestors = list(p.zeros), p.ancestors_at
    for x in sorted(scratch):
        mass = scratch[x]
        active[x] += mass
        propagate_down(x, mass, active, p)
        for anc in ancestors[x]:
            active[anc] += mass
    b.act, b.blk = active, list(p.zeros)


def propagate_forward(b: BeliefState, p: TeamOrientedProgram,
                      counter: VisitCounter | None = None):
    """Advance b one tick with no observation, in place.

    Leaves shed mass at their termination hazard.  The team executing a
    node takes its outgoing transitions: shed mass follows edges that need
    no message, parks as ``blocked`` in the proportion that does, and climbs
    to the parent along TERMINATE edges.  The map is linear; with one
    first-child group per node it conserves leaf-active plus blocked mass
    as long as no TERMINATE edge leaves the root's own children.
    The step runs as p's compiled kernel (``TeamOrientedProgram.forward``).
    The counter takes one visit per node: a node that can shed is visited by
    one test of its shed mass, and runs its updates only when that is
    nonzero.
    """
    if counter is not None:
        counter.visit(len(p.postorder))
    b.act, b.blk = p.forward(b.act, b.blk)


def most_likely_state(b: BeliefState, p: TeamOrientedProgram) -> tuple[str, ...]:
    """Root-to-leaf path of the leaf holding the most active+blocked mass.

    The leaf is the program's compiled pick over every leaf
    (``TeamOrientedProgram.best_leaf``), so masses within ``TIE_TOLERANCE``
    of each other tie toward the lowest node id.  Raises on an all-zero
    state.
    """
    best = p.best_leaf(b.act, b.blk)
    if not b.act[best] + b.blk[best] > 0.0:
        raise MonitoringError("belief state carries no mass on any leaf")
    return p.paths_at[best]


def apply_messages(b: BeliefState, msgs, p: TeamOrientedProgram):
    """Fold several same-tick messages into b in place, one at a time, TERM before INIT."""
    for m in sorted(msgs, key=_message_order):
        _commit_evidence(b, evidence(b, p, [m]), p)


def array_overseer_tick(beliefs: dict[str, BeliefState],
                        programs: dict[str, TeamOrientedProgram],
                        msgs, counter: VisitCounter | None = None,
                        recipients=None):
    """Step every agent's recognizer one tick.

    Agents that a message is routed to incorporate it; everyone else runs
    forward propagation.  By default a message updates only its sender's
    recognizer; pass ``recipients`` (message -> iterable of agent names) to
    widen that, e.g. to the sending team under a coherence assumption.
    ``beliefs`` maps agent name to state, and each state is stepped in
    place; ``programs`` maps agent name to that agent's plan view.
    """
    inbox: dict[str, list[ObservedMessage]] = {}
    for m in msgs:
        targets = [m.sender] if recipients is None else list(recipients(m))
        for agent in targets:
            if agent not in beliefs:
                raise MonitoringError(
                    f"message at tick {m.tick} routed to unknown agent '{agent}'")
            inbox.setdefault(agent, []).append(m)
    for agent, b in beliefs.items():
        if agent in inbox:
            apply_messages(b, inbox[agent], programs[agent])
        else:
            propagate_forward(b, programs[agent], counter)
