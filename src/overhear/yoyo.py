"""Team recognizer over a single shared plan hierarchy.

Instead of one belief array per agent, one belief array covers the whole
team: plans executed in parallel by sibling teams carry duplicated mass, and
evidence about one team's plan is reconciled with the rest of the hierarchy
by walking up to the common parent and rescaling the other teams' subtrees to
the parent's new belief.  State grows with plans plus team-hierarchy nodes,
not with plans times agents.

A quiet tick is ``belief.propagate_forward``, and what a tick's messages
are evidence for is ``belief.evidence``; both are shared by the two
layouts, and this module commits that evidence and rescales.  As in the
array layout, a tick steps the state in place, replacing its ``act`` and
``blk`` with new lists.  The structure those steps follow is a program
table like every other: each node's climb to the root
(``evidence_climbs``), with the walk of every rescale the climb runs.
Only the mass arithmetic runs per tick, and every node these steps name
is a position in the state's lists.  A team's
most-likely query is its compiled pick over its candidate leaves
(``TeamOrientedProgram.team_best_leaf`` over ``leaves_by_team``).

Plan ownership alone decides where to rescale: a climb step from a node
into a parent owned by another team rescales the parent's subtrees that
the node's owner does not execute itself, however many team levels lie
between the two owners.

This is the one layout that clips.  The evidence climb and the rescale do
not conserve mass and can push a value above 1, so each such value is
silently set to 1: by ``_clamp``, over the whole state, after every quiet
step, and by ``_clamp_entries``, over the entries the tick wrote, at the
end of every evidence tick.  ``_clamp`` walks a table only when its
``max`` exceeds 1, which is exact: no value is NaN, so the max exceeds 1
exactly when some entry does.  No value is ever below 0 (``_clamp`` says
why), so neither has a lower bound to enforce.  The narrower clamp is
exact.  An evidence tick builds its state on fresh zero tables and adds
every entry it writes to its ``updated`` set, so every other entry is an
exact 0.0, which a clamp leaves as it is.  Every value a tick leaves is in
[0, 1].
"""

from __future__ import annotations

from .belief import (BeliefState, MonitoringError, VisitCounter, evidence, init_beliefs,
                     propagate_down, propagate_forward)
from .model import TeamOrientedProgram


def _clamp(state: BeliefState):
    """Cap every value of the state at 1.

    No value is ever below 0, so there is no lower bound to enforce: the
    forward step keeps non-negative mass non-negative (its kernel floors
    the one place rounding could break that), and an evidence tick only
    adds, multiplies, divides and takes the max of non-negative values.
    A table whose max is at most 1 is left without a walk.
    """
    for table in (state.act, state.blk):
        if max(table) > 1.0:
            for i, v in enumerate(table):
                if v > 1.0:
                    table[i] = 1.0


def _clamp_entries(state: BeliefState, keys):
    """``_clamp`` over the positions ``keys`` names only."""
    for table in (state.act, state.blk):
        for i in keys:
            if table[i] > 1.0:
                table[i] = 1.0


def team_init_beliefs(p: TeamOrientedProgram) -> BeliefState:
    """``belief.init_beliefs`` under the name perfbench calls; nothing in ``overhear`` does."""
    return init_beliefs(p)


def _rescale(walk, b: BeliefState, prior_active: list[float], prior_blocked: list[float],
             updated: set[int]):
    """Rescale the subtrees a climb's ``walk`` visits to their parents' new belief.

    ``prior_active`` and ``prior_blocked`` are the lists the tick started
    from.  Each visited node keeps its prior share of its parent's prior
    active mass, reapplied to the parent's new mass, parents before their
    children; a node already in ``updated`` is left as the evidence set it.
    """
    active, blocked = b.act, b.blk
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


def yoyo_tick(p: TeamOrientedProgram, b: BeliefState, msgs,
              counter: VisitCounter | None = None):
    """Advance the shared belief one tick, in place.

    With no messages this is ``belief.propagate_forward``, then ``_clamp``.
    Otherwise the tick's messages are one observation (``belief.evidence``),
    committed at once on fresh lists: each mass propagates down its subtree,
    climbs toward the root, and triggers a cross-team rescale whenever the
    climb steps into a plan another team owns.  The climb's steps, and
    where it rescales, are the program's ``evidence_climbs``; each step
    raises the parent to at least the child's mass.  The tick then clamps
    only the entries it wrote.
    """
    if not msgs:
        propagate_forward(b, p, counter)
        _clamp(b)
        return
    scratch = evidence(b, p, msgs)
    prior_active, prior_blocked = b.act, b.blk
    active = b.act = list(p.zeros)
    b.blk = list(p.zeros)
    updated: set[int] = set()
    climbs = p.evidence_climbs
    for x in sorted(scratch):
        active[x] = max(active[x], scratch[x])
        updated.add(x)
        propagate_down(x, active[x], active, p, updated)
        for node, par, walk in climbs[x]:
            active[par] = max(active[par], active[node])
            updated.add(par)
            if walk:
                _rescale(walk, b, prior_active, prior_blocked, updated)
    _clamp_entries(b, updated)


def _team_entry(table: dict, team: str):
    try:
        return table[team]
    except KeyError:
        raise MonitoringError(f"unknown unit '{team}'") from None


def team_leaves(p: TeamOrientedProgram, team: str) -> tuple[int, ...]:
    """Positions of the leaves owned by ``team`` or an ancestor team, else of every leaf."""
    return _team_entry(p.leaves_by_team, team)


def team_most_likely(b: BeliefState, p: TeamOrientedProgram, team: str) -> tuple[str, ...]:
    """Most likely root-to-leaf path among leaves the team can be executing.

    The leaf is the team's compiled pick over ``team_leaves(p, team)``
    (``TeamOrientedProgram.team_best_leaf``), so near-ties, and a team with
    no mass on any of its leaves, go to the lowest node id.
    """
    return p.paths_at[_team_entry(p.team_best_leaf, team)(b.act, b.blk)]
