"""Team recognizer over a single shared plan hierarchy.

Instead of one belief array per agent, one belief array covers the whole
team: plans executed in parallel by sibling teams carry duplicated mass, and
evidence about one team's plan is reconciled with the rest of the hierarchy
by walking up to the common parent and rescaling the other teams' subtrees to
the parent's new belief.  State grows with plans plus team-hierarchy nodes,
not with plans times agents.

A quiet tick is ``belief.propagate_forward``, the engine both layouts share;
this module holds the evidence and rescale steps.  Like every program table,
the structure those steps follow is built by the program itself, on the
first evidence tick: each team's open transitions (``team_edges``) and each
node's climb to the root (``evidence_climbs``), with the walk of every
rescale the climb runs.  Only the mass arithmetic runs per tick.  The
team -> candidate-leaves table that most-likely queries read is
``TeamOrientedProgram.leaves_by_team``.

Plan ownership alone decides where to rescale: a climb step from a node
into a parent owned by another team rescales the parent's subtrees that
the node's owner does not execute itself, however many team levels lie
between the two owners.

This is the one layout that clips.  The evidence climb and the rescale do
not conserve mass and can push a value above 1, so each such value is
silently set to 1: by ``_clamp``, over the whole state, after every quiet
step, and by ``_clamp_entries``, over the entries the tick wrote, at the
end of every evidence tick.  No value is ever below 0 (``_clamp`` says
why), so neither has a lower bound to enforce.  The narrower clamp is
exact.  An evidence tick builds its state on fresh zero tables and adds
every entry it writes to its ``updated`` set, so every other entry is an
exact 0.0, which a clamp leaves as it is.  Every value a tick leaves is in
[0, 1].
"""

from __future__ import annotations

from .belief import (BeliefState, MonitoringError, PROB_FLOOR, VisitCounter,
                     _prune_redundant_ancestors, _zeros, best_leaf, credit_raw, init_beliefs,
                     propagate_down, propagate_forward)
from .ingest import INIT, ObservedMessage
from .model import TeamOrientedProgram


def _clamp(state: BeliefState):
    """Cap every value of the state at 1.

    No value is ever below 0, so there is no lower bound to enforce: the
    forward step keeps non-negative mass non-negative (its kernel floors
    the one place rounding could break that), and an evidence tick only
    adds, multiplies, divides and takes the max of non-negative values.
    """
    for table in (state.active, state.blocked):
        for k, v in table.items():
            if v > 1.0:
                table[k] = 1.0


def _clamp_entries(state: BeliefState, keys):
    """``_clamp`` over the entries ``keys`` names only."""
    for table in (state.active, state.blocked):
        for k in keys:
            if table[k] > 1.0:
                table[k] = 1.0


def team_init_beliefs(p: TeamOrientedProgram) -> BeliefState:
    """Full mass on the root and on every topmost team's first-child chain."""
    return init_beliefs(p)


def _rescale(walk, b: BeliefState, prior: BeliefState, updated: set[str]):
    """Rescale the subtrees a climb's ``walk`` visits to their parents' new belief.

    ``prior`` is the state the tick started from.  Each visited node keeps
    its prior share of its parent's prior active mass, reapplied to the
    parent's new mass, parents before their children; a node already in
    ``updated`` is left as the evidence set it.
    """
    active, blocked, prior_active, prior_blocked = b.active, b.blocked, prior.active, prior.blocked
    for y, par, split in walk:
        if y in updated:
            continue
        denom = prior_active[par]
        new_parent = active[par]
        if denom > 0.0:
            active[y] += (prior_active[y] / denom) * new_parent
            blocked[y] += (prior_blocked[y] / denom) * new_parent
        elif split:
            # No prior shape to preserve: spread the parent's new mass
            # evenly over the first-child group that holds this node.
            active[y] += new_parent / split
        updated.add(y)


def _resolve_message_team(m: ObservedMessage, p: TeamOrientedProgram) -> str:
    h = p.team_hierarchy
    if m.team and h.has_team(m.team):
        return m.team
    if h.has_agent(m.sender):
        return h.agent_team(m.sender)
    raise MonitoringError(
        f"message at tick {m.tick} carries unknown team '{m.team}' and unknown "
        f"sender '{m.sender}'")


def _team_evidence_scratch(b: BeliefState, p: TeamOrientedProgram,
                           initiated: dict[str, str], terminated: dict[str, str]
                           ) -> dict[str, float]:
    """Evidence masses, normalized per owning team of the candidate nodes.

    A message's candidates are reached along the transitions open to its
    team, which the program lists once (``team_edges``).
    """
    edges = p.team_edges
    raw: dict[str, float] = {}
    cand_team: dict[str, str] = {}
    for x in sorted(initiated):
        cand_team.setdefault(x, p.node(x).team)
        into, _ = edges[initiated[x]]
        for t in into.get(x, ()):
            credit_raw(raw, t, b.blocked)
    for x in sorted(terminated):
        _, out = edges[terminated[x]]
        for t in out.get(x, ()):
            if t.dst not in initiated:
                cand_team.setdefault(t.dst, p.node(t.dst).team)
                credit_raw(raw, t, b.blocked)
    if not cand_team:
        # Termination of a node with no announceable successor: keep the
        # named nodes as candidates rather than zeroing the whole belief.
        for x in sorted(terminated):
            cand_team[x] = p.node(x).team
    keep = set(_prune_redundant_ancestors(p, cand_team))
    scratch: dict[str, float] = {}
    by_team: dict[str, list[str]] = {}
    for x in keep:
        by_team.setdefault(cand_team[x], []).append(x)
    # Evidence about different teams does not compete: normalize per team.
    for team, members in sorted(by_team.items()):
        total = sum(raw.get(x, 0.0) for x in members)
        if total > 0.0:
            for x in members:
                v = raw.get(x, 0.0) / total
                if v >= PROB_FLOOR:
                    scratch[x] = v
        else:
            for x in members:
                scratch[x] = 1.0 / len(members)
    return scratch


def yoyo_tick(p: TeamOrientedProgram, b: BeliefState, msgs,
              counter: VisitCounter | None = None):
    """Advance the shared belief one tick, in place.

    With no messages this is the shared forward step.  Otherwise the
    batched messages are folded in together: committed evidence propagates
    down its subtree, climbs toward the root, and triggers a cross-team
    rescale whenever the climb steps into a plan another team owns.  The
    climb's steps, and where it rescales, are the program's
    ``evidence_climbs``; each step raises the parent to at least the
    child's mass.  The tick then clamps only the entries it wrote.
    """
    if not msgs:
        nxt = propagate_forward(b, p, counter)
        b.time, b.active, b.blocked = nxt.time, nxt.active, nxt.blocked
        _clamp(b)
        return
    initiated: dict[str, str] = {}
    terminated: dict[str, str] = {}
    seen: set[tuple[str, str]] = set()
    for m in sorted(msgs, key=lambda m: (m.kind, m.plan, m.sender)):
        team = _resolve_message_team(m, p)
        nodes = p.nodes_named(m.plan)
        if not nodes:
            raise MonitoringError(
                f"message at tick {m.tick} names plan '{m.plan}' which matches no node; "
                f"either the program is stale or the team is acting incoherently")
        if (m.kind, m.plan) in seen:
            continue  # duplicate announcements of one event merge
        seen.add((m.kind, m.plan))
        target = initiated if m.kind == INIT else terminated
        for x in nodes:
            target[x] = team
    scratch = _team_evidence_scratch(b, p, initiated, terminated)

    prior = BeliefState(b.time, b.active, b.blocked)
    active = b.active = _zeros(p)
    b.blocked = _zeros(p)
    updated: set[str] = set()
    climbs = p.evidence_climbs
    for x in sorted(scratch):
        active[x] = max(active[x], scratch[x])
        updated.add(x)
        propagate_down(x, active[x], b, p, updated)
        for node, par, walk in climbs[x]:
            active[par] = max(active[par], active[node])
            updated.add(par)
            if walk:
                _rescale(walk, b, prior, updated)
    b.time += 1
    _clamp_entries(b, updated)


def team_leaves(p: TeamOrientedProgram, team: str) -> tuple[str, ...]:
    """Leaves owned by ``team`` or an ancestor team, else every leaf."""
    try:
        return p.leaves_by_team[team]
    except KeyError:
        raise MonitoringError(f"unknown unit '{team}'") from None


def team_most_likely(b: BeliefState, p: TeamOrientedProgram, team: str) -> tuple[str, ...]:
    """Most likely root-to-leaf path among leaves the team can be executing.

    The leaf is ``belief.best_leaf``'s pick, so near-ties, and a team with no
    mass on any of its leaves, go to the lowest node id.
    """
    return p.path_to(best_leaf(team_leaves(p, team), b.active, b.blocked))
