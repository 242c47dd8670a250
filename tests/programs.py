"""Program generators that only tests call.

``random_program`` makes the small single-agent programs of the
engine-against-oracle sweeps (C1) and the digest corpora: random branching,
cycles, and occasional duplicate plan names.
"""

from __future__ import annotations

import random

from overhear.model import TERMINATE, TeamOrientedProgram, program_from_document


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
