"""Seeded program generators for tests, calibration runs, and benchmarks.

Two families: small single-agent programs with random branching, cycles, and
occasional duplicate plan names (for engine-vs-oracle equivalence sweeps), and
a fixed-shape team mission (parallel phases over three subteams) whose rates
and message probabilities are calibrated so simulated runs overhear roughly
one message per twenty individual state changes.
"""

from __future__ import annotations

import random
from dataclasses import replace

from .model import (TERMINATE, TeamOrientedProgram, probability, program_from_document,
                    program_to_document)


def random_program(seed: int, max_nodes: int = 10,
                   allow_completion: bool = True) -> TeamOrientedProgram:
    """Random small single-agent program.

    ``allow_completion=False`` removes TERMINATE edges from the root's own
    children, so total leaf-active plus blocked mass can never pool at the
    root: useful for long conservation runs.  Some programs give two nodes
    in different root subtrees one plan name, never on one decomposition
    chain.
    """
    rng = random.Random(seed)
    budget = rng.randint(4, max(4, max_nodes))
    plans = [{"id": "n00", "name": "plan00", "team": "SOLO"}]
    children: dict[str, list[str]] = {"n00": []}

    def add_node(parent: str) -> str:
        nid = f"n{len(plans):02d}"
        plans.append({"id": nid, "name": f"plan{len(plans):02d}", "team": "SOLO",
                      "parent": parent})
        children[parent].append(nid)
        children[nid] = []
        return nid

    top = [add_node("n00") for _ in range(rng.randint(2, min(4, budget - 1)))]
    spare = budget - 1 - len(top)
    for nid in top:
        if spare >= 2 and rng.random() < 0.4:
            take = rng.randint(2, min(3, spare))
            for _ in range(take):
                add_node(nid)
            spare -= take

    transitions = []
    for parent, kids in children.items():
        if not kids:
            continue
        firsts = {kids[0]}
        if len(kids) > 2 and rng.random() < 0.3:
            firsts.add(kids[1])  # parallel-looking uniform split
        for k in firsts:
            plans[int(k[1:])]["first_child"] = True
        may_finish = allow_completion or parent != "n00"
        for src in kids:
            targets: list[str] = []
            pool = [d for d in kids]
            rng.shuffle(pool)
            for d in pool[:rng.randint(1, 2)]:
                targets.append(d)
            if may_finish and rng.random() < 0.5:
                targets.append(TERMINATE)
            if not targets:
                targets = [kids[0]]
            weights = [rng.uniform(0.2, 1.0) for _ in targets]
            total = sum(weights)
            for dst, w in zip(targets, weights):
                transitions.append({
                    "from": src, "to": dst, "pi": w / total,
                    "mu": 0.0 if dst == TERMINATE else round(rng.uniform(0.1, 0.9), 3),
                })
    for rec in plans:
        nid = rec["id"]
        if not children[nid]:
            rec["lambda"] = round(rng.uniform(0.05, 0.4), 3)

    if rng.random() < 0.3 and len(top) >= 2:
        # Same plan name in two different root subtrees: legal ambiguity.
        a, b = rng.sample(top, 2)
        pick = lambda t: rng.choice(children[t] or [t])
        na, nb = pick(a), pick(b)
        if na != nb:
            shared = "shared-step"
            plans[int(na[1:])]["name"] = shared
            plans[int(nb[1:])]["name"] = shared

    doc = {
        "teams": [{"name": "SOLO"}],
        "agents": [{"name": "solo", "team": "SOLO"}],
        "root": "n00",
        "plans": plans,
        "transitions": transitions,
    }
    return program_from_document(doc)


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
    leaf team (sorted by name)."""
    team = min(t for _, t in p.team_hierarchy.agents)
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
