"""Team recognizer over a single shared plan hierarchy.

Instead of one belief array per agent, one belief array covers the whole
team: plans executed in parallel by sibling teams carry duplicated mass, and
evidence about one team's plan is reconciled with the rest of the hierarchy
by walking up to the common parent and rescaling the other teams' subtrees to
the parent's new belief.  State grows with plans plus team-hierarchy nodes,
not with plans times agents.

A quiet tick is ``belief.quiet_step``, the program's compiled forward
step.  What a tick's messages are evidence for is ``belief.evidence``;
this module commits that evidence and rescales.  The structure those
steps follow is a program table like every other: each node's climb to
the root (``evidence_climbs``), with the walk of every rescale the climb
runs.  Only the mass arithmetic runs per tick, and every node these steps
name is a position in the state's tables.  A team's most-likely query is
``belief.pick_leaf`` over its candidate leaves (``leaves_by_team``), the
rule of every most-likely query.

States are step-memo values here as in the array layout
(``belief.Value``): the quiet tick, the evidence tick and the team query
each keep what they computed from a value on the value, so one taken
before from the same value is an attribute load, or a dict lookup by the
tick's keys or the team.

Plan ownership alone decides where to rescale: a climb step from a node
into a parent owned by another team rescales the parent's subtrees that
the node's owner does not execute itself, however many team levels lie
between the two owners.

This is the one layout that clips, and it caps at 1 by one function,
``compiled.cap``, with two callers: the team-mode forward step
(``compiled.CompiledProgram.forward``), on a quiet tick, and ``_climb``, on
an evidence tick, each end with it over both tables.  The evidence climb
and the rescale do not conserve mass and can push a value above 1, which
the cap silently sets to 1.  No value is ever below
0, so neither has a lower bound to enforce: the forward step keeps
non-negative mass non-negative (it floors the one place rounding could
break that), and an evidence tick only adds, multiplies, divides and
takes the max of non-negative values.  Every value a tick leaves is in
[0, 1].
"""

from __future__ import annotations

from .belief import (BeliefState, MonitoringError, VisitCounter, _message_keys, adopt,
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
    mass by their shares in ``prior``.  Both tables end with ``compiled.cap``.
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


def yoyo_tick(p: TeamOrientedProgram, b: BeliefState, msgs,
              counter: VisitCounter | None = None):
    """Advance the shared belief one tick, in place.

    With no messages this is ``belief.quiet_step``, the quiet step of both
    layouts, whose team-mode forward steps cap every value at 1.
    Otherwise the tick's messages are one observation (``belief.evidence``),
    committed at once by ``_climb``.

    An evidence tick taken before from the same value with the same keys
    (``belief._message_keys``) is a link of the value's ``commits``
    (``belief.Value``).  Any other is computed by ``_climb``, and its
    result interned in ``p.compiled.memo`` and linked.
    """
    if not msgs:
        quiet_step(p, (b,), counter)
        return
    signature = _message_keys(p, msgs)
    memo = p.compiled.memo
    prior = b.value
    if prior.memo is not memo:
        prior = adopt(b, p)
    after = prior.commits.get(signature)
    if after is not None:
        b.value = after
        return
    after = b.value = memo.intern(*_climb(evidence(prior.blk, p, signature), prior, p))
    memo.link("commit", prior)
    prior.commits = {**prior.commits, signature: after}


def team_leaves(p: TeamOrientedProgram, team: str) -> tuple[int, ...]:
    """Positions of the leaves owned by ``team`` or an ancestor team, else of every leaf."""
    try:
        return p.leaves_by_team[team]
    except KeyError:
        raise MonitoringError(f"unknown unit '{team}'") from None


def team_most_likely(b: BeliefState, p: TeamOrientedProgram, team: str) -> int:
    """The position of the most likely leaf among those the team can be executing.

    The leaf is ``belief.pick_leaf`` over ``team_leaves(p, team)``, so
    near-ties, and a team with no mass on any of its leaves, go to the
    lowest node id.  ``p.path_names`` of the answer is its root path of
    plan names.

    An answer taken before from the same value is a link of the value's
    ``teams`` (``belief.Value``); any other is linked.
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
