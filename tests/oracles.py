"""Exact referees that check the belief engine (C1): test-side code only.

``exact_filter`` enumerates the full state space of a small single-agent
program (executing-leaf and blocked-node states) and filters it exactly with
a dense transition kernel, which checks the engine's node-local recursions
against a straightforward matrix implementation of the same probabilistic
model.  It keeps its own evidence and pruning code and shares none with the
recognizers, so a fault in theirs cannot hide in both.
"""

from __future__ import annotations

import numpy as np

from overhear.belief import BeliefState, MonitoringError, PROB_FLOOR
from overhear.ingest import INIT, TERM, ObservedMessage, messages_by_tick
from overhear.model import TERMINATE, TeamOrientedProgram, hazard

MAX_ORACLE_STATES = 64


def _parent(p: TeamOrientedProgram, x: int) -> int | None:
    parent = p.plans[x].parent
    return None if parent is None else p.index[parent]


def _leafdist(p: TeamOrientedProgram, x: int, acc, weight: float = 1.0):
    first = [c for c in p.children_at[x] if p.plans[c].is_first_child]
    if not first:
        acc[x] = acc.get(x, 0.0) + weight
        return
    for c in first:
        _leafdist(p, c, acc, weight / len(first))


def oracle_states(p: TeamOrientedProgram) -> list[tuple[str, int]]:
    """("exec", leaf) states then ("blocked", node) states, nodes by position."""
    states = ([("exec", x) for x in p.leaf_index]
              + [("blocked", x) for x in range(len(p.node_ids))])
    if len(states) > MAX_ORACLE_STATES:
        raise MonitoringError(
            f"oracle state space has {len(states)} states, limit {MAX_ORACLE_STATES}")
    return states


def _oracle_kernel(p: TeamOrientedProgram, states) -> np.ndarray:
    index = {s: i for i, s in enumerate(states)}
    K = np.zeros((len(states), len(states)))

    def cascade(row: int, x: int, q: float):
        ts = p.out_at[x]
        if not ts:
            K[row, index[("blocked", x)]] += q
            return
        for t in ts:
            w = q * t.pi
            K[row, index[("blocked", x)]] += w * t.mu
            silent = w * (1.0 - t.mu)
            if silent == 0.0:
                continue
            if t.dst == TERMINATE:
                parent = _parent(p, x)
                if parent is None:
                    K[row, index[("blocked", x)]] += silent
                else:
                    cascade(row, parent, silent)
            else:
                dist: dict[int, float] = {}
                _leafdist(p, p.index[t.dst], dist)
                for leaf, share in dist.items():
                    K[row, index[("exec", leaf)]] += silent * share
    for i, (kind, x) in enumerate(states):
        if kind == "blocked":
            K[i, i] = 1.0
        else:
            h = hazard(p.plans[x].rate)
            K[i, i] += 1.0 - h
            if h > 0.0:
                cascade(i, x, h)
    return K


def _oracle_prune(p: TeamOrientedProgram, nodes) -> list[int]:
    """The positions in ``nodes`` with no ancestor in ``nodes``, sorted: the
    engine's pruning rule, restated on parent chains so that C1 checks it too."""
    nodes = set(nodes)

    def covered(x: int) -> bool:
        while (x := _parent(p, x)) is not None:
            if x in nodes:
                return True
        return False

    return sorted(x for x in nodes if not covered(x))


def _oracle_evidence(p: TeamOrientedProgram, states, v: np.ndarray,
                     m: ObservedMessage) -> np.ndarray:
    index = {s: i for i, s in enumerate(states)}
    named = [x for x, n in enumerate(p.plans) if n.name == m.plan]
    if not named:
        raise MonitoringError(f"oracle: message names unknown plan '{m.plan}'")
    raw: dict[int, float] = {}
    if m.kind == INIT:
        base = set(named)
        for t in p.transitions:
            if t.dst != TERMINATE and (y := p.index[t.dst]) in base:
                blocked = v[index[("blocked", p.index[t.src])]]
                raw[y] = raw.get(y, 0.0) + blocked * t.mu * t.pi
    else:
        base = set()
        for x in named:
            for t in p.out_at[x]:
                if t.dst == TERMINATE:
                    continue
                y = p.index[t.dst]
                base.add(y)
                raw[y] = raw.get(y, 0.0) + v[index[("blocked", x)]] * t.mu * t.pi
    positive = [y for y in raw if raw[y] > 0.0]
    if positive:
        keep = _oracle_prune(p, positive)
        total = sum(raw[y] for y in keep)
        scratch = {y: raw[y] / total for y in keep}
    else:
        fallback = _oracle_prune(p, base or set(named))
        scratch = {y: 1.0 / len(fallback) for y in fallback}
    out = np.zeros(len(states))
    for y, mass in scratch.items():
        if mass < PROB_FLOOR:
            continue
        dist: dict[int, float] = {}
        _leafdist(p, y, dist)
        for leaf, share in dist.items():
            out[index[("exec", leaf)]] += mass * share
    return out


def exact_filter(p: TeamOrientedProgram, ticks: int, messages=()):
    """Exact per-tick beliefs over the enumerated states.

    Returns (states, vectors) with vectors[t] the belief after processing
    tick t; vectors[0] is the initial uniform first-child distribution.
    Message ticks apply the evidence update in place of the kernel, exactly
    as the recognizer does.
    """
    states = oracle_states(p)
    K = _oracle_kernel(p, states)
    by_tick = messages_by_tick(messages)
    v = np.zeros(len(states))
    index = {s: i for i, s in enumerate(states)}
    dist: dict[int, float] = {}
    _leafdist(p, p.index[p.root], dist)
    for leaf, share in dist.items():
        v[index[("exec", leaf)]] = share
    vectors = [v]
    for t in range(1, ticks + 1):
        msgs = by_tick.get(t, [])
        if msgs:
            for m in sorted(msgs, key=lambda m: (0 if m.kind == TERM else 1, m.plan, m.sender)):
                v = _oracle_evidence(p, states, v, m)
        else:
            v = v @ K
        vectors.append(v)
    return states, vectors


def engine_vector(p: TeamOrientedProgram, states, b: BeliefState) -> np.ndarray:
    """Project an engine belief onto the oracle's state axis."""
    v = np.zeros(len(states))
    for i, (kind, x) in enumerate(states):
        v[i] = b.act[x] if kind == "exec" else b.blk[x]
    return v
