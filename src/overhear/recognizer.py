"""One interface over both recognizer layouts.

``make_recognizer`` checks a layout and coherence pair and returns a
recognizer that ``recognize``, ``evaluate`` and ``bench`` all drive the same
way: ``step(msgs, counter=None)`` advances it one tick, ``path(unit)`` gives
the plan names on a unit's most likely root-to-leaf path, and ``teams`` and
``agents`` list the populated leaf teams and the agents, sorted.

The shared layout keeps one belief over the plan and team hierarchies and
answers for teams.  The array layout keeps one belief per agent over the
program's single-agent view; it answers for an agent from that agent's
belief and for a team from its members' summed beliefs.

Every message must resolve to a known unit.  The shared layout takes the
message's team, or else its sender's team.  The array layout routes a
message to its sender, or, under coherence, to every member of its team
when that team is known.  Anything else raises ``MonitoringError`` naming
the message's tick; ``path`` raises it naming an unknown unit.
"""

from __future__ import annotations

from .belief import MonitoringError, array_overseer_tick, init_beliefs, most_likely_state
from .model import TeamOrientedProgram
from .yoyo import team_init_beliefs, team_leaves, team_most_likely, yoyo_tick

MODES = ("array", "yoyo")


class _Recognizer:
    def __init__(self, p: TeamOrientedProgram, coherent: bool):
        h = p.team_hierarchy
        self.coherent = coherent
        self.agents = h.agent_names
        self.teams = tuple(sorted({h.agent_team(a) for a in self.agents}))


class SharedRecognizer(_Recognizer):
    """One belief over the shared hierarchy (the yoyo layout)."""

    def __init__(self, p: TeamOrientedProgram):
        super().__init__(p, True)
        self.p = p
        self.belief = team_init_beliefs(p)

    @property
    def state_nodes(self) -> int:
        return len(self.belief.active) + self.p.team_hierarchy.size

    def step(self, msgs, counter=None):
        yoyo_tick(self.p, self.belief, msgs, counter)

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
        return sum(len(b.active) for b in self.beliefs.values())

    def recipients(self, m) -> list[str]:
        h = self.view.team_hierarchy
        if self.coherent and h.has_team(m.team):
            return sorted(h.members(m.team))
        return [m.sender]

    def step(self, msgs, counter=None):
        array_overseer_tick(self.beliefs, self.programs, msgs, counter, self.recipients)

    def path(self, unit: str) -> tuple[str, ...]:
        """An agent's own most likely path, or a team's from its members."""
        view = self.view
        if unit in self.beliefs:
            return view.path_names(most_likely_state(self.beliefs[unit], view))
        candidates = team_leaves(view, unit)
        members = sorted(view.team_hierarchy.members(unit))
        best, best_mass = None, -1.0
        for x in candidates:
            mass = sum(self.beliefs[a].active[x] + self.beliefs[a].blocked[x] for a in members)
            if mass > best_mass + 1e-15:
                best, best_mass = x, mass
        return view.path_names(view.path_to(best))


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
