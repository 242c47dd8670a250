"""Seeded program generators for tests, calibration runs, and benchmarks.

``team_program`` is a fixed-shape team mission (parallel phases over three
subteams) whose rates and message probabilities are calibrated so simulated
runs overhear roughly one message per twenty individual state changes.
``grow_team`` adds agents to a program and ``flatten_mu`` replaces its
message probabilities.
"""

from __future__ import annotations

import random
from dataclasses import replace

from .model import (TERMINATE, ProgramError, TeamOrientedProgram, probability,
                    program_from_document, program_to_document)


# Team mission shape: 12 phases in an endless cycle, 8 whole-team leaf tasks
# and 4 parallel phases where each subteam runs its own task chain.  40 plans.
_PHASE_CHAINS = {2: 3, 5: 2, 8: 2, 11: 2}  # parallel phase -> chain length
_TEAM_SPEC = (("ALPHA", 4), ("BRAVO", 4), ("CHARLIE", 3))
_ANNOUNCE = 0.95


def team_program(seed: int = 0, chatter: float = 0.25) -> TeamOrientedProgram:
    """Fixed-shape three-subteam mission with seeded rates.

    Phase transitions are announced with probability ``_ANNOUNCE`` (the
    team's reliable protocol traffic); ``chatter`` is the message
    probability on within-team task steps.  Phase order cycles forever, so
    runs of any length stay live.
    """
    rng = random.Random(seed)
    teams = [{"name": "TASK-FORCE"}]
    agents = []
    for team, n in _TEAM_SPEC:
        teams.append({"name": team, "parent": "TASK-FORCE"})
        for i in range(1, n + 1):
            agents.append({"name": f"{team.lower()}{i}", "team": team})

    plans = [{"id": "p00", "name": "mission", "team": "TASK-FORCE"}]
    transitions = []
    phase_ids = []
    for i in range(12):
        pid = f"p{len(plans):02d}"
        phase_ids.append(pid)
        rec = {"id": pid, "name": f"phase-{i:02d}", "team": "TASK-FORCE",
               "parent": "p00", "first_child": i == 0}
        if i in _PHASE_CHAINS:
            plans.append(rec)
            length = _PHASE_CHAINS[i]
            for team, _ in _TEAM_SPEC:
                prev = None
                for k in range(length):
                    tid = f"p{len(plans):02d}"
                    plans.append({
                        "id": tid, "name": f"{team.lower()}-{i:02d}-step{k}",
                        "team": team, "parent": pid, "first_child": k == 0,
                        "lambda": round(rng.uniform(0.25, 0.45), 3),
                    })
                    if prev is not None:
                        transitions.append({"from": prev, "to": tid, "pi": 1.0,
                                            "mu": chatter, "teams": [team]})
                    prev = tid
                transitions.append({"from": prev, "to": TERMINATE, "pi": 1.0,
                                    "mu": 0.0, "teams": [team]})
        else:
            rec["lambda"] = round(rng.uniform(0.2, 0.35), 3)
            plans.append(rec)
    for i, pid in enumerate(phase_ids):
        transitions.append({
            "from": pid, "to": phase_ids[(i + 1) % len(phase_ids)],
            "pi": 1.0, "mu": _ANNOUNCE, "teams": ["TASK-FORCE"],
        })

    doc = {"teams": teams, "agents": agents, "root": "p00",
           "plans": plans, "transitions": transitions}
    return program_from_document(doc, team_mode=True)


def grow_team(p: TeamOrientedProgram, extra: int) -> TeamOrientedProgram:
    """Same program with ``extra`` additional agents on its first populated
    leaf team (sorted by name).  Raises ``ProgramError`` if ``extra`` is not
    a nonnegative int or p has no agents."""
    if isinstance(extra, bool) or not isinstance(extra, int) or extra < 0:
        raise ProgramError(f"extra agents must be a nonnegative int, got {extra!r}")
    team = min((t for _, t in p.team_hierarchy.agents), default=None)
    if team is None:
        raise ProgramError("cannot grow the team of a program with no agents")
    doc = program_to_document(p)
    for i in range(1, extra + 1):
        doc["agents"].append({"name": f"{team.lower()}-x{i}", "team": team})
    return program_from_document(doc, team_mode=p.team_mode)


def flatten_mu(p: TeamOrientedProgram, value: float) -> TeamOrientedProgram:
    """Copy of the program with every announceable transition's message
    probability replaced by ``value``, which ``model.probability`` checks.

    Models a monitor that knows the plan structure but not the team's
    communication protocol; TERMINATE edges stay silent.
    """
    mu = probability(value, "flat mu")
    return replace(p, transitions=tuple(t if t.dst == TERMINATE else replace(t, mu=mu)
                                        for t in p.transitions))
