"""The belief engine both recognizer layouts share, and the array layout's tick.

A state (``BeliefState``) holds, per plan node, an active mass (the node or
a descendant is executing) and a blocked mass (the node has ended and no
successor has begun, typically because its announcement is not yet heard).
A quiet tick steps states forward (``quiet_step``).  A tick with messages
reads them once into keys (``_message_keys``), which ``evidence`` turns
into masses that ``commit`` commits by a layout's rule: the array
layout's folds the keys one at a time (``_array_rule``), the shared
one's takes the whole tick at once (``yoyo._shared_rule``).  Every step
and query runs from a value of the step memo and keeps its result there
as a link (``Value``); every most-likely query picks by ``pick_leaf``.
A reader starts at ``array_overseer_tick``.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from types import MappingProxyType

from .ingest import INIT, TERM, ObservedMessage
from .model import TIE_TOLERANCE, TeamOrientedProgram, descend

# Evidence posteriors below the floor are truncated to zero to stop dead
# hypotheses from drifting along indefinitely.
PROB_FLOOR = 1e-12


class MonitoringError(ValueError):
    """An observation could not be reconciled with the program."""


class VisitCounter:
    """Counts the node visits of quiet steps (scalability probes).

    A step adds the nodes it covers, every node of the program, not the
    tests its forward step runs, and a step followed from the step memo counts
    the same as one computed."""

    __slots__ = ("visits",)

    def __init__(self):
        self.visits = 0


# The links of a value with none: shared, and never written (a link
# replaces the slot's table with a new one).
NO_LINKS: dict = {}


class Value:
    """One belief value, a state of the step memo's automaton: its two
    tables, ``act`` and ``blk`` (see ``BeliefState``), and its links.

    The value holds each table as a tuple, converting any other sequence
    once, here, so no one writes a table a value holds.  ``memo`` is the
    ``compiled.StepMemo`` that made the value, or None for one built
    outside it (``BeliefState``'s constructor).

    This class keeps the link rule.  Every step and query of a program runs
    from a value of its memo, first adopting any other value a state holds
    (``adopt``) as the memo's value of equal bits.  What a step or query
    computes from a value is kept on the value as a link, so taking it
    again from the same value is one attribute load, or one dict lookup by
    its key; each link counts against the memo's bound
    (``compiled.StepMemo``).  Only a memo's own values hold links.  A link
    is the value a step gives, or the answer a query gives:

    - ``quiet``: the value after the forward step (``quiet_step``);
    - ``commits``: per commit rule and tick's tuple of ``_message_keys``,
      the value after it (``commit``);
    - ``best``: the most likely leaf (``most_likely_state``);
    - ``teams``: per team, its most likely leaf (``yoyo.team_most_likely``).

    A table slot with no link holds ``NO_LINKS``, and a link replaces the
    slot's table with a new one.
    """

    __slots__ = ("act", "blk", "memo", "quiet", "commits", "best", "teams")

    def __init__(self, act, blk, memo=None):
        self.act, self.blk, self.memo = tuple(act), tuple(blk), memo
        self.quiet = self.best = None
        self.commits = self.teams = NO_LINKS


class BeliefState:
    """Belief over a plan state, stepped in place.

    ``act`` and ``blk`` hold the active and blocked mass of every node, in
    ``node_ids`` order, as tuples; ``index`` is the program's node id ->
    position table.  The state holds the two as one ``value`` (``Value``),
    and ``act`` and ``blk`` read through it.  ``init_beliefs`` alone builds
    a state for a run; every step replaces its value and returns None, so a
    caller holds one state for the whole run and keeps a tick's masses by
    keeping its tables, and a step that raises leaves every state as it
    was.  ``active`` and ``blocked`` are read-only snapshots of the two
    tables keyed by node id, built on each read, for readers outside the
    engine.  Two states are equal when their masses are.
    """

    __slots__ = ("value", "index")

    def __init__(self, act: Sequence[float], blk: Sequence[float], index: dict[str, int]):
        self.value = Value(act, blk)
        self.index = index

    @property
    def act(self) -> tuple[float, ...]:
        return self.value.act

    @property
    def blk(self) -> tuple[float, ...]:
        return self.value.blk

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.act, self.blk) == (other.act, other.blk)

    __hash__ = None  # a state is stepped in place

    def __repr__(self) -> str:
        return f"BeliefState(act={self.act!r}, blk={self.blk!r})"

    @property
    def active(self) -> Mapping[str, float]:
        return MappingProxyType(dict(zip(self.index, self.act)))

    @property
    def blocked(self) -> Mapping[str, float]:
        return MappingProxyType(dict(zip(self.index, self.blk)))


def adopt(b: BeliefState, p: TeamOrientedProgram) -> Value:
    """b's value, first replaced by ``p.compiled.memo``'s value of equal
    bits when another memo, or none, made it.

    The memo's own values are returned as they are: a quiet step's result
    is linked, not interned, so interning it again would make a twin with
    no links.  Adopting is the one way into the memo, so it is the one
    place a state's tables are checked against p: a table that does not
    hold one entry per node raises ``ValueError``, and b is left as it was.
    """
    value, memo = b.value, p.compiled.memo
    if value.memo is memo:
        return value
    size = len(p.node_ids)
    if len(value.act) != size or len(value.blk) != size:
        raise ValueError(f"a program of {size} nodes got a belief state of "
                         f"{len(value.act)} and {len(value.blk)} entries")
    b.value = value = memo.intern(value.act, value.blk)
    return value


def init_beliefs(p: TeamOrientedProgram) -> BeliefState:
    """All mass on the root and, through first children, on the initial leaves.

    The state holds the program's ``initial`` tables, built once per
    program, as they are.
    """
    return BeliefState(*p.initial, p.index)


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


def _message_order(m: ObservedMessage) -> tuple:
    """The order a tick's messages are read in: TERM before INIT, then by plan and sender."""
    return (0 if m.kind == TERM else 1, m.plan, m.sender)


def _message_keys(p: TeamOrientedProgram, msgs) -> tuple[tuple, ...]:
    """A tick's messages resolved once into the keys both layouts commit
    by: the one place the engine reads a message.

    Each key is ``(kind, plan, team)``, in ``_message_order``.  The team
    is the ``team_edges`` key of the transitions the message opens: in
    team mode its team, else its sender's; in the single-agent view None,
    which opens all, so the view never reads a sender.  The tuple is
    what ``commit`` keys its link by and hands its rule.  Raises
    ``MonitoringError`` for the first message, in this order, whose team
    or plan is unknown, so a step that reads its keys first raises before
    any state changes.

    A key resolved without the sender is kept in the memo's ``keys``
    (``compiled.StepMemo``) by the message's ``(kind, plan, team)``, so a
    later message with the same fields is one lookup.  The memo is shared
    by programs whose agents differ, so a team taken from the sender is
    resolved every time.
    """
    memo = p.compiled.memo
    known, named, keys = memo.keys, p.named_index, []
    for m in sorted(msgs, key=_message_order) if len(msgs) > 1 else msgs:
        fields = (m.kind, m.plan, m.team)
        key = known.get(fields)
        if key is None:
            team = None
            if p.team_mode:
                h = p.team_hierarchy
                if m.team and h.has_team(m.team):
                    team = m.team
                elif h.has_agent(m.sender):
                    team = h.agent_team(m.sender)
                else:
                    raise MonitoringError(
                        f"message at tick {m.tick} carries unknown team '{m.team}' and "
                        f"unknown sender '{m.sender}'")
            if m.plan not in named:
                raise MonitoringError(
                    f"message at tick {m.tick} names plan '{m.plan}' which matches no "
                    f"node; either the program is stale or the team is acting incoherently")
            key = (m.kind, m.plan, team)
            if team is None or team == m.team:
                memo.store(known, fields, key)
        keys.append(key)
    return tuple(keys)


def evidence(blk: tuple[float, ...], p: TeamOrientedProgram,
             keys) -> dict[int, float]:
    """What one tick's messages, as their ``_message_keys``, are evidence
    for, given the prior blocked table ``blk``: a mass per position.

    The keys are one set of INIT targets and TERM sources, so a repeat
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
    named = p.named_index
    for kind, plan, team in keys:
        target = initiated if kind == INIT else terminated
        for x in named[plan]:
            target.setdefault(x, team)
    edges = p.team_edges
    raw: dict[int, float] = {}  # candidate -> credit
    for x, team in sorted(initiated.items()):
        raw[x] = 0.0
        for src, _, mu, pi in edges[team][0].get(x, ()):
            raw[x] += blk[src] * mu * pi
    for x, team in sorted(terminated.items()):
        for src, dst, mu, pi in edges[team][1].get(x, ()):
            if dst not in initiated:
                raw[dst] = raw.get(dst, 0.0) + blk[src] * mu * pi
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


def _commit_evidence(scratch: dict[int, float], p: TeamOrientedProgram) -> list[float]:
    """The active table of ``scratch`` committed on a fresh zero table:
    the array layout's commit, which clips nothing (see ``compiled.cap``).

    Each mass goes down its node's descent (``model.descend``) and onto
    every ancestor; every blocked mass is 0.
    """
    active, ancestors, descents = list(p.zeros), p.ancestors_at, p.descents_at
    for x, mass in sorted(scratch.items()):
        active[x] += mass
        descend(descents[x], mass, active)
        for anc in ancestors[x]:
            active[anc] += mass
    return active


def _array_rule(prior: Value, p: TeamOrientedProgram, keys) -> tuple[list, tuple]:
    """The array layout's commit rule (see ``commit``): each key's
    ``evidence`` alone, in turn, against the blocked table the key before
    left, committed by ``_commit_evidence``.  The tables the last key
    gives are the rule's."""
    blk = prior.blk
    for key in keys:
        act, blk = _commit_evidence(evidence(blk, p, (key,)), p), p.zeros
    return act, blk


def commit(b: BeliefState, p: TeamOrientedProgram, keys, rule):
    """Commit one tick's ``_message_keys``, ``keys``, into b by ``rule``:
    the one place a ``commits`` link (``Value``) is looked up and made.

    The link is keyed by the rule and the tuple of keys, so two rules that
    step one memo never answer for each other; a miss interns the tables
    ``rule(prior, p, keys)`` gives for the value b held.  The rules are
    ``_array_rule`` and the shared layout's ``yoyo._shared_rule``.
    """
    memo = p.compiled.memo
    prior = b.value
    if prior.memo is not memo:
        prior = adopt(b, p)
    key = rule, keys
    after = prior.commits.get(key)
    if after is None:
        after = memo.intern(*rule(prior, p, keys))
        memo.link("commit", prior)
        prior.commits = {**prior.commits, key: after}
    b.value = after


def quiet_step(p: TeamOrientedProgram, states, counter: VisitCounter | None = None):
    """Advance each of ``states``, beliefs over p, one tick with no
    observation, in place: the quiet tick of both layouts.

    Leaves shed mass at their termination hazard.  The team executing a
    node takes its outgoing transitions: shed mass follows edges that need
    no message, parks as ``blocked`` in the proportion that does, and climbs
    to the parent along TERMINATE edges.  The map is linear; with one
    first-child group per node it conserves leaf-active plus blocked mass
    as long as no TERMINATE edge leaves the root's own children.  On a
    team-mode program it is then capped (see ``compiled.cap``).

    The step is ``compiled.CompiledProgram.forward``, and a ``quiet`` link
    (``Value``).  The counter takes one visit per node of p and state, the
    nodes a step covers, whether the step is linked or computed and
    whatever tests the forward step runs.
    """
    if counter is not None:
        counter.visits += len(p.postorder) * len(states)
    compiled = p.compiled
    memo = compiled.memo
    for b in states:
        prior = b.value
        if prior.memo is not memo:
            prior = adopt(b, p)
        after = prior.quiet
        if after is None:
            after = Value(*compiled.forward(prior.act, prior.blk), memo)
            memo.link("quiet", prior)
            prior.quiet = after
        b.value = after


_TIE_SCALE = 1.0 + TIE_TOLERANCE


def pick_leaf(leaves, A, B) -> int:
    """The most likely leaf among ``leaves``, a non-empty sequence of
    ascending positions: the one rule of every most-likely query.

    A and B are the ``act`` and ``blk`` tables, tuples or position-keyed
    dicts, and a leaf's mass is ``A[i] + B[i]``.  The first
    leaf is the initial pick, and a later leaf replaces the pick only when
    its mass exceeds the pick's by more than the relative ``TIE_TOLERANCE``.
    Masses that a reordered float sum could swap therefore tie, and a tie
    goes to the earliest leaf, the lowest node id; with no mass on any
    leaf the answer is the first.  No table holds NaN, so the first leaf
    needs no test.
    """
    k = leaves[0]
    bar = (A[k] + B[k]) * _TIE_SCALE
    for i in leaves[1:]:
        m = A[i] + B[i]
        if m > bar:
            k, bar = i, m * _TIE_SCALE
    return k


def most_likely_state(b: BeliefState, p: TeamOrientedProgram) -> int:
    """The position of the leaf holding the most active+blocked mass:
    ``pick_leaf`` over every leaf, and a ``best`` link (``Value``).

    ``p.path_names`` of it is its root path of plan names.  Raises
    ``MonitoringError`` when the pick holds no mass, which happens only on
    a state with no mass on any leaf.
    """
    value = b.value
    memo = p.compiled.memo
    if value.memo is not memo:
        value = adopt(b, p)
    best = value.best
    if best is not None:
        return best
    best = pick_leaf(p.leaf_index, value.act, value.blk)
    if not (value.act[best] or value.blk[best]):
        raise MonitoringError("belief state carries no mass on any leaf")
    memo.link("best", value)
    value.best = best
    return best


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
    place; ``programs`` maps agent name to that agent's plan view, which
    must be one program object for every agent.  Every message is routed
    and checked, and every agent's program found and checked, before any
    state is stepped, so a tick that raises leaves every state as it was.

    The quiet agents' states take one ``quiet_step``, so the counter takes
    every node of the program per quiet agent; each other agent's state
    takes a ``commit`` by ``_array_rule``.
    """
    inbox: dict[str, list[ObservedMessage]] = {}
    for m in msgs:
        targets = [m.sender] if recipients is None else list(recipients(m))
        for agent in targets:
            if agent not in beliefs:
                raise MonitoringError(
                    f"message at tick {m.tick} routed to unknown agent '{agent}'")
            inbox.setdefault(agent, []).append(m)
    p, quiet, heard = None, [], []
    for agent, b in beliefs.items():
        view = programs.get(agent)
        if view is not p or view is None:
            if view is None:
                raise MonitoringError(f"no program for agent '{agent}'")
            if p is not None:
                raise MonitoringError(
                    f"agent '{agent}' maps to a second program; an array tick runs one")
            p = view
        if agent in inbox:
            heard.append((b, _message_keys(p, inbox[agent])))
        else:
            quiet.append(b)
    if quiet:
        quiet_step(p, quiet, counter)
    for b, keys in heard:
        commit(b, p, keys, _array_rule)
