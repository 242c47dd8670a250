"""Belief engine over a plan hierarchy, shared by both recognizer layouts.

Per plan node the engine keeps two masses: ``active`` (the agent is executing
the node, or a descendant for internal nodes) and ``blocked`` (the node has
terminated but no successor has begun, typically because the announcing
message has not been seen yet).  Ticks without an observed message apply a
linear forward propagation driven by leaf termination rates; ticks with a
message collapse the state onto the nodes consistent with it.

Mass entering a node is copied into each of its first-child groups
(``TeamOrientedProgram.first_child_groups``).  On a team-mode program a
group is one parallel subteam, which makes the quiet tick of the shared
(yoyo) layout; otherwise there is one group, and the step is the
single-agent engine that the array layout runs once per agent.  It runs as
the program's compiled kernel (``TeamOrientedProgram.forward``), one
generated Python function over local variables: it copies the prior tables,
runs each shedding node's updates only when the node sheds a nonzero mass,
and writes back into the copies just the entries those updates changed.
This module only calls it and never writes to a program.

Nothing here clips a value.  Every mass stays at or above 0 exactly: the
kernel keeps it so by construction (see ``TeamOrientedProgram.forward``),
and an evidence commit only adds non-negative shares of normalized masses.
A value may exceed 1 by rounding, by an ulp or so, and is left as it is.
Only the shared (yoyo) layout clips, in ``yoyo._clamp``.

States are value objects; the update functions return fresh states and never
mutate their input, so recognizer arrays can be stepped from worker threads
as long as each agent's state is owned by one worker at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .ingest import INIT, TERM, ObservedMessage
from .model import TERMINATE, TeamOrientedProgram, TemporalTransition

# Evidence posteriors below the floor are truncated to zero to stop dead
# hypotheses from drifting along indefinitely.
PROB_FLOOR = 1e-12

# Leaf masses within this relative distance of the best one tie in
# ``best_leaf``: ``propagate_down`` splits mass evenly, so exact ties are
# common, and summation order must not decide between them.
TIE_TOLERANCE = 1e-9
_TIE_SCALE = 1.0 + TIE_TOLERANCE


class MonitoringError(ValueError):
    """An observation could not be reconciled with the program."""


class VisitCounter:
    """Counts node visits inside propagation loops (scalability probes)."""

    __slots__ = ("visits",)

    def __init__(self):
        self.visits = 0

    def visit(self, n: int = 1):
        self.visits += n


@dataclass
class BeliefState:
    """Belief over a plan state at a given tick."""

    time: int
    active: dict[str, float]
    blocked: dict[str, float]


def _zeros(p: TeamOrientedProgram) -> dict[str, float]:
    return p.zeros.copy()


def init_beliefs(p: TeamOrientedProgram) -> BeliefState:
    """All mass on the root and, through first children, on the initial leaves."""
    b = BeliefState(0, _zeros(p), _zeros(p))
    b.active[p.root] = 1.0
    propagate_down(p.root, 1.0, b, p)
    return b


def propagate_down(x: str, rho: float, b: BeliefState, p: TeamOrientedProgram,
                   updated: set[str] | None = None):
    """Credit ``rho`` to x's first children, recursively.

    Each first-child group gets the full ``rho`` (parallel subteams carry
    duplicated mass) and splits it evenly among its members.  Mutates
    ``b.active`` in place, and adds every credited node to ``updated`` when
    given; callers pass the state under construction.
    """
    for group in p.first_child_groups(x):
        share = rho / len(group)
        for c in group:
            b.active[c] += share
            if updated is not None:
                updated.add(c)
            propagate_down(c, share, b, p, updated)


def _prune_redundant_ancestors(p: TeamOrientedProgram, nodes) -> list[str]:
    """Keep only the deepest node of any decomposition chain in ``nodes``.

    A message naming both an ancestor and its descendant carries no extra
    information in the ancestor: its activity is implied, so it must not
    compete in normalization.
    """
    nodes = set(nodes)
    return sorted(x for x in nodes if not any(a in nodes for a in p.ancestors(x)))


def credit_raw(raw: dict[str, float], t: TemporalTransition,
               blocked: dict[str, float]):
    """Add the raw evidence mass that ``t`` carries to ``raw[t.dst]``.

    That mass is the source's blocked mass times the chance the transition is
    announced (mu) and taken (pi); both layouts' evidence steps weigh their
    candidates by it before normalizing.
    """
    raw[t.dst] = raw.get(t.dst, 0.0) + blocked[t.src] * t.mu * t.pi


def _evidence_scratch(m: ObservedMessage, b: BeliefState,
                      p: TeamOrientedProgram) -> dict[str, float]:
    """Unnormalized-to-normalized evidence masses for one message."""
    consistent = p.nodes_named(m.plan)
    if not consistent:
        raise MonitoringError(
            f"message at tick {m.tick} names plan '{m.plan}' which matches no node")
    raw: dict[str, float] = {}
    if m.kind == INIT:
        # Mass enters each consistent node from predecessors stuck awaiting
        # the announcement of their outgoing transition.
        candidates = set(consistent)
        for x in consistent:
            for t in p.in_transitions(x):
                credit_raw(raw, t, b.blocked)
    else:
        # Termination releases the named nodes' pending mass into successors.
        candidates = set()
        for x in consistent:
            for t in p.out_transitions(x):
                if t.dst == TERMINATE:
                    continue
                candidates.add(t.dst)
                credit_raw(raw, t, b.blocked)
    positive = [x for x in raw if raw[x] > 0.0]
    if positive:
        keep = _prune_redundant_ancestors(p, positive)
        total = sum(raw[x] for x in keep)
        scratch = {x: raw[x] / total for x in keep}
    else:
        # Surprise message: no pending mass anywhere.  Fall back to an even
        # split over the consistent targets; for TERM that means the named
        # nodes' successors when any exist.
        base = _prune_redundant_ancestors(p, candidates or set(consistent))
        scratch = {x: 1.0 / len(base) for x in base}
    return {x: v for x, v in scratch.items() if v >= PROB_FLOOR}


def _commit_evidence(scratch: dict[str, float], time: int,
                     p: TeamOrientedProgram) -> BeliefState:
    nxt = BeliefState(time, _zeros(p), _zeros(p))
    for x in sorted(scratch):
        mass = scratch[x]
        nxt.active[x] += mass
        propagate_down(x, mass, nxt, p)
        for anc in p.ancestors(x):
            nxt.active[anc] += mass
    return nxt


def propagate_forward(b: BeliefState, p: TeamOrientedProgram,
                      counter: VisitCounter | None = None) -> BeliefState:
    """Advance one tick with no observation.

    Leaves shed mass at their termination hazard.  Each team acting on a
    node's outgoing transitions sends the full shed mass along its own
    edges: mass follows edges that need no message, parks as ``blocked`` in
    the mean proportion that does, and climbs to the parent along TERMINATE
    edges.  The map is linear; with one team it conserves leaf-active plus
    blocked mass as long as no TERMINATE edge leaves the root's own children.
    The step runs as p's compiled kernel (``TeamOrientedProgram.forward``).
    The counter takes one visit per node: a node that can shed is visited by
    one test of its shed mass, and runs its updates only when that is
    nonzero.
    """
    if counter is not None:
        counter.visit(len(p.postorder))
    active, blocked = p.forward(b.active, b.blocked)
    return BeliefState(b.time + 1, active, blocked)


def best_leaf(leaves, active: dict[str, float], blocked: dict[str, float]) -> str:
    """The leaf of ``leaves`` holding the most active+blocked mass.

    This is the one pick rule every most-likely query uses.  Leaves are
    scanned in the given order (callers pass them sorted by id) and the first
    is the initial pick; a later leaf replaces the pick only when its mass
    exceeds the pick's by more than the relative ``TIE_TOLERANCE``.  Masses
    that a reordered float sum could swap therefore tie, and a tie goes to the
    earliest leaf; with no mass anywhere that is the first leaf.
    """
    best, bar = None, -math.inf
    for leaf in leaves:
        mass = active[leaf] + blocked[leaf]
        if mass > bar:
            best, bar = leaf, mass * _TIE_SCALE
    return best


def most_likely_state(b: BeliefState, p: TeamOrientedProgram) -> tuple[str, ...]:
    """Root-to-leaf path of the leaf holding the most active+blocked mass.

    The leaf is ``best_leaf``'s pick over every leaf, so masses within
    ``TIE_TOLERANCE`` of each other tie toward the lowest node id.  Raises on
    an all-zero state.
    """
    best = best_leaf(p.leaves, b.active, b.blocked)
    if not b.active[best] + b.blocked[best] > 0.0:
        raise MonitoringError("belief state carries no mass on any leaf")
    return p.path_to(best)


def apply_messages(b: BeliefState, msgs, p: TeamOrientedProgram) -> BeliefState:
    """Fold several same-tick messages into one time step, TERM before INIT."""
    ordered = sorted(msgs, key=lambda m: (0 if m.kind == TERM else 1, m.plan, m.sender))
    state = b
    for m in ordered:
        state = _commit_evidence(_evidence_scratch(m, state, p), b.time + 1, p)
    return state


def array_overseer_tick(beliefs: dict[str, BeliefState],
                        programs: dict[str, TeamOrientedProgram],
                        msgs, counter: VisitCounter | None = None,
                        recipients=None):
    """Step every agent's recognizer one tick.

    Agents that a message is routed to incorporate it; everyone else runs
    forward propagation.  By default a message updates only its sender's
    recognizer; pass ``recipients`` (message -> iterable of agent names) to
    widen that, e.g. to the sending team under a coherence assumption.
    ``beliefs`` maps agent name to state and is updated in place;
    ``programs`` maps agent name to that agent's plan view.
    """
    inbox: dict[str, list[ObservedMessage]] = {}
    for m in msgs:
        targets = [m.sender] if recipients is None else list(recipients(m))
        for agent in targets:
            if agent not in beliefs:
                raise MonitoringError(
                    f"message at tick {m.tick} routed to unknown agent '{agent}'")
            inbox.setdefault(agent, []).append(m)
    for agent in beliefs:
        if agent in inbox:
            beliefs[agent] = apply_messages(beliefs[agent], inbox[agent], programs[agent])
        else:
            beliefs[agent] = propagate_forward(beliefs[agent], programs[agent], counter)
