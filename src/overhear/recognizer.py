"""One interface over both recognizer layouts, and the one monitor loop.

``make_recognizer`` checks a layout and coherence pair and returns a
recognizer that ``recognize``, ``evaluate`` and ``bench`` all drive through
``replay(messages, ticks)``: it yields each tick ``t = 0..ticks-1`` once the
messages heard at ``t`` are in.  Tick 0 is the initial belief, stepped only
when it carries messages; every later tick is one ``step(msgs)``, and
``counter`` (a ``VisitCounter``) counts the forward steps' node visits.
``path(unit)`` gives the plan names on a unit's most likely root-to-leaf
path.  ``teams`` and ``agents`` list the populated leaf teams and the
agents, sorted; ``units``, what a monitor reports on, is the teams when
coherent, else the agents.

The shared layout keeps one belief over the plan and team hierarchies and
answers for teams.  The array layout keeps one belief per agent over the
program's single-agent view; it answers for an agent from that agent's
belief and for a team from its members' summed beliefs.

Every message must resolve to a known unit.  The shared layout takes the
message's team, or else its sender's team.  The array layout routes a
message to its sender, or, under coherence, to every member of its team
when that team has members.  Anything else raises ``MonitoringError`` naming
the message's tick; ``path`` raises it naming an unknown unit.
"""

from __future__ import annotations

from .belief import (MonitoringError, VisitCounter, array_overseer_tick, init_beliefs,
                     most_likely_state, pick_leaf)
from .ingest import messages_by_tick
from .model import TeamOrientedProgram
from .yoyo import team_leaves, team_most_likely, yoyo_tick

MODES = ("array", "yoyo")


class _Recognizer:
    def __init__(self, p: TeamOrientedProgram, coherent: bool):
        h = p.team_hierarchy
        self.coherent = coherent
        self.agents = h.agent_names
        self.teams = tuple(sorted({h.agent_team(a) for a in self.agents}))
        self.units = self.teams if coherent else self.agents
        self.counter = VisitCounter()

    def replay(self, messages, ticks: int):
        """Yield ``t = 0..ticks-1``, each once tick ``t``'s messages are in."""
        by_tick = messages_by_tick(messages)
        for t in range(ticks):
            msgs = by_tick.get(t, ())
            if t or msgs:
                self.step(msgs)
            yield t


class SharedRecognizer(_Recognizer):
    """One belief over the shared hierarchy (the yoyo layout)."""

    def __init__(self, p: TeamOrientedProgram):
        super().__init__(p, True)
        self.p = p
        self.belief = init_beliefs(p)

    @property
    def state_nodes(self) -> int:
        return len(self.belief.act) + self.p.team_hierarchy.size

    def step(self, msgs):
        yoyo_tick(self.p, self.belief, msgs, self.counter)

    def path(self, team: str) -> tuple[str, ...]:
        return self.p.path_names(team_most_likely(self.belief, self.p, team))


class ArrayRecognizer(_Recognizer):
    """One single-agent belief per agent (the array layout)."""

    def __init__(self, p: TeamOrientedProgram, coherent: bool):
        super().__init__(p, coherent)
        self.view = p.single_agent_view()
        self.beliefs = {a: init_beliefs(self.view) for a in self.agents}
        self.programs = {a: self.view for a in self.agents}

    @property
    def state_nodes(self) -> int:
        return sum(len(b.act) for b in self.beliefs.values())

    def recipients(self, m) -> list[str]:
        if self.coherent:
            members = self.view.team_hierarchy.members(m.team)  # sorted; () for an unknown team
            if members:
                return list(members)
        return [m.sender]

    def step(self, msgs):
        array_overseer_tick(self.beliefs, self.programs, msgs, self.counter, self.recipients)

    def path(self, unit: str) -> tuple[str, ...]:
        """An agent's own most likely path, or a team's from its members.

        A team's leaf is ``pick_leaf`` over the members' summed masses of
        its candidate leaves that hold mass in some member's value
        (``belief.Value``, each distinct one tested once), so near-ties go
        to the lowest node id.  With no such candidate it is the team's
        first candidate, as a pick over every candidate would give.
        """
        view = self.view
        if unit in self.beliefs:
            return view.path_names(most_likely_state(self.beliefs[unit], view))
        candidates = team_leaves(view, unit)
        members = [self.beliefs[a] for a in view.team_hierarchy.members(unit)]  # sorted
        held = {x for v in {b.value for b in members} for x in candidates if v.act[x] or v.blk[x]}
        mass = {x: sum(b.act[x] + b.blk[x] for b in members) for x in candidates if x in held}
        if not mass:
            return view.name_paths_at[candidates[0]]
        # ``mass`` already holds active+blocked, so the blocked table is all zeros
        return view.name_paths_at[pick_leaf(tuple(mass), mass, view.zeros)]


def make_recognizer(p: TeamOrientedProgram, mode: str, coherent: bool | None = None):
    """A recognizer of layout ``mode`` over ``p``.

    ``coherent`` defaults to the layout's own: on for ``yoyo``, which cannot
    run without it, and off for ``array``.
    """
    if mode not in MODES:
        raise MonitoringError(f"unknown recognizer mode '{mode}'")
    if coherent is None:
        coherent = mode == "yoyo"
    if mode == "array":
        return ArrayRecognizer(p, coherent)
    if not coherent:
        raise MonitoringError("the shared-hierarchy recognizer is inherently coherent")
    if not p.team_mode:
        raise MonitoringError("yoyo mode needs a team program (--team-mode)")
    return SharedRecognizer(p)
