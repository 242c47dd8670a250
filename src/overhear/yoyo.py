"""The shared-hierarchy layout: one belief for the whole team.

Plans that sibling teams execute in parallel carry duplicated mass, so the
state grows with plans plus team-hierarchy nodes, not with plans times
agents.  A quiet tick is ``belief.quiet_step``.  An evidence tick is a
``belief.commit`` by ``_shared_rule``: the tick's ``belief.evidence``
committed by ``_climb``, which climbs to the root and rescales the other
teams' subtrees wherever it steps into a plan another team owns
(``_rescale``).  A reader starts at ``yoyo_tick`` and ``team_most_likely``.
"""

from __future__ import annotations

from .belief import (BeliefState, MonitoringError, VisitCounter, _message_keys, adopt, commit,
                     evidence, init_beliefs, pick_leaf, quiet_step)
from .compiled import cap
from .model import TeamOrientedProgram, descend


def team_init_beliefs(p: TeamOrientedProgram) -> BeliefState:
    """``belief.init_beliefs`` under the name perfbench calls; nothing in ``overhear`` does."""
    return init_beliefs(p)


def _rescale(walk, active: list[float], blocked: list[float], prior_active, prior_blocked,
             updated: set[int]):
    """Rescale the subtrees a climb's ``walk`` visits, in the tables
    ``active`` and ``blocked``, to their parents' new belief.

    ``prior_active`` and ``prior_blocked`` are the tables the tick started
    from.  Each visited node keeps its prior share of its parent's prior
    active mass, reapplied to the parent's new mass, parents before their
    children; a node already in ``updated`` is left as the evidence set it.
    """
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


def _climb(scratch: dict[int, float], prior, p: TeamOrientedProgram) -> tuple[list, list]:
    """The tables ``(act, blk)`` of a tick's evidence, ``scratch``
    (``belief.evidence``), committed against ``prior``, the value the tick
    started from: the shared layout's commit, as ``belief._commit_evidence``
    is the array layout's.  It writes no state.

    Each mass is set on fresh zero tables, goes down its node's descent
    (``model.descend``), whose children join ``updated``, and climbs toward
    the root along ``evidence_climbs``, each step raising the parent to at
    least the child's mass.  Where the climb steps into a plan another team
    owns, ``_rescale`` brings the other teams' subtrees to the parent's new
    mass by their shares in ``prior``.  The tables are then capped (see
    ``compiled.cap``).
    """
    active, blocked = list(p.zeros), list(p.zeros)
    updated: set[int] = set()
    for x in sorted(scratch):
        active[x] = max(active[x], scratch[x])
        updated.add(x)
        descent = p.descents_at[x]
        descend(descent, active[x], active)
        updated.update([c for c, _, _ in descent])
        for node, par, walk in p.evidence_climbs[x]:
            active[par] = max(active[par], active[node])
            updated.add(par)
            if walk:
                _rescale(walk, active, blocked, prior.act, prior.blk, updated)
    return cap(active, blocked)


def _shared_rule(prior, p: TeamOrientedProgram, keys) -> tuple[list, list]:
    """The shared layout's commit rule (``belief.commit``): ``_climb`` of
    the tick's ``belief.evidence``, all its keys at once."""
    return _climb(evidence(prior.blk, p, keys), prior, p)


def yoyo_tick(p: TeamOrientedProgram, b: BeliefState, msgs,
              counter: VisitCounter | None = None):
    """Advance the shared belief one tick, in place.

    With no messages this is ``belief.quiet_step``, the quiet step of both
    layouts.  Otherwise the tick's messages, as their
    ``belief._message_keys``, are one observation, a ``belief.commit`` by
    ``_shared_rule``.
    """
    if msgs:
        commit(b, p, _message_keys(p, msgs), _shared_rule)
    else:
        quiet_step(p, (b,), counter)


def team_leaves(p: TeamOrientedProgram, team: str) -> tuple[int, ...]:
    """Positions of the leaves owned by ``team`` or an ancestor team, else of every leaf."""
    try:
        return p.leaves_by_team[team]
    except KeyError:
        raise MonitoringError(f"unknown unit '{team}'") from None


def team_most_likely(b: BeliefState, p: TeamOrientedProgram, team: str) -> int:
    """The position of the most likely leaf among those the team can be
    executing: ``belief.pick_leaf`` over ``team_leaves(p, team)``, and a
    ``teams`` link (``belief.Value``).

    ``p.path_names`` of the answer is its root path of plan names.
    """
    value = b.value
    memo = p.compiled.memo
    if value.memo is not memo:
        value = adopt(b, p)
    best = value.teams.get(team)
    if best is None:
        best = pick_leaf(team_leaves(p, team), value.act, value.blk)
        memo.link("best", value)
        value.teams = {**value.teams, team: best}
    return best
