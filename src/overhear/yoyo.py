"""Team recognizer over a single shared plan hierarchy.

Instead of one belief array per agent, one belief array covers the whole
team: plans executed in parallel by sibling teams carry duplicated mass, and
evidence about one team's plan is reconciled with the rest of the hierarchy
by walking up to the common parent and rescaling the other teams' subtrees to
the parent's new belief.  State grows with plans plus team-hierarchy nodes,
not with plans times agents.

A quiet tick is ``belief.propagate_forward``, the engine both layouts share;
this module holds the evidence and rescale steps.  Like every program table,
the team -> candidate-leaves table that most-likely queries read is built by
the program itself (``TeamOrientedProgram.leaves_by_team``).

This is the one layout that clips.  The evidence climb and the rescale do
not conserve mass and can push a value well outside [0, 1], so ``_clamp``
silently sets each such value to the nearer bound, after every quiet step
and at the end of every evidence tick; every value a tick leaves is in
[0, 1].
"""

from __future__ import annotations

from .belief import (BeliefState, MonitoringError, PROB_FLOOR, VisitCounter,
                     _prune_redundant_ancestors, _zeros, best_leaf, credit_raw, init_beliefs,
                     propagate_down, propagate_forward)
from .ingest import INIT, ObservedMessage
from .model import TERMINATE, TeamOrientedProgram, is_allowed


def _clamp(state: BeliefState):
    for table in (state.active, state.blocked):
        for k, v in table.items():
            if v < 0.0:
                table[k] = 0.0
            elif v > 1.0:
                table[k] = 1.0


def team_init_beliefs(p: TeamOrientedProgram) -> BeliefState:
    """Full mass on the root and on every topmost team's first-child chain."""
    return init_beliefs(p)


def scale(parent: str, team: str, child: str, b: BeliefState, prior: BeliefState,
          p: TeamOrientedProgram, updated: set[str] | None = None):
    """Rescale parallel teams' subplans under ``parent`` to its new belief.

    ``child``'s subtree was just updated by evidence; ``prior`` is the state
    the tick started from.  Plans owned by ``team``, its subteams, or its
    ancestor teams are all executed by the evidencing team itself, so the
    evidence already decided them; they are left alone.  Every subtree owned
    by a team disjoint from ``team`` (a sibling executing in parallel) keeps
    its prior share of its parent's prior active mass, reapplied to the
    parent's new mass, parents before their children (pre-order).
    """
    h = p.team_hierarchy
    if updated is None:
        updated = set()

    def walk(y: str):
        if y == child:
            return
        yteam = p.node(y).team
        if h.covers(team, yteam) or h.covers(yteam, team):
            return  # the evidencing team executes these plans itself
        if y not in updated:
            par = p.node(y).parent
            denom = prior.active.get(par, 0.0)
            new_parent = b.active[par]
            if denom > 0.0:
                b.active[y] += (prior.active[y] / denom) * new_parent
                b.blocked[y] += (prior.blocked[y] / denom) * new_parent
            else:
                # No prior shape to preserve: spread the parent's new mass
                # evenly over the first-child group that holds this node.
                for group in p.first_child_groups(par):
                    if y in group:
                        b.active[y] += new_parent / len(group)
            updated.add(y)
        for c in p.children(y):
            walk(c)

    for c in p.children(parent):
        walk(c)


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
    """Evidence masses, normalized per owning team of the candidate nodes."""
    h = p.team_hierarchy
    raw: dict[str, float] = {}
    cand_team: dict[str, str] = {}
    for x in sorted(initiated):
        team = initiated[x]
        cand_team.setdefault(x, p.node(x).team)
        for t in p.in_transitions(x):
            if is_allowed(t, team, h):
                credit_raw(raw, t, b.blocked)
    for x in sorted(terminated):
        team = terminated[x]
        for t in p.out_transitions(x):
            if t.dst == TERMINATE or t.dst in initiated:
                continue
            if is_allowed(t, team, h):
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
    rescale whenever the walk crosses into the parent team's plan.
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

    h = p.team_hierarchy
    prior = BeliefState(b.time, b.active, b.blocked)
    b.active, b.blocked = _zeros(p), _zeros(p)
    updated: set[str] = set()
    for x in sorted(scratch):
        mass = scratch[x]
        b.active[x] = max(b.active[x], mass)
        updated.add(x)
        propagate_down(x, b.active[x], b, p, updated)
        team = p.node(x).team
        node = x
        while p.node(node).parent is not None:
            par = p.node(node).parent
            b.active[par] = max(b.active[par], b.active[node])
            updated.add(par)
            if p.node(par).team == h.parent_team(team):
                scale(par, team, node, b, prior, p, updated)
                team = p.node(par).team
            node = par
    b.time += 1
    _clamp(b)


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
