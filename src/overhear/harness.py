"""Evaluation harness: exact oracle, replay runners, scoring, and benchmarks.

The oracle side enumerates the full state space of a small single-agent
program (executing-leaf and blocked-node states) and filters it exactly with
a dense transition kernel, which checks the belief engine's node-local
recursions against a straightforward matrix implementation of the same
probabilistic model.  The rest of the module replays message logs through
the recognizers, scores most-likely hypotheses against ground truth at
checkpoints, produces hypothesis-count curves, and measures the size and
per-tick work of both recognizer layouts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .belief import (BeliefState, MonitoringError, PROB_FLOOR,
                     _prune_redundant_ancestors, apply_messages, init_beliefs, propagate_forward)
from .ingest import INIT, TERM, ObservedMessage, messages_by_tick
from .model import TERMINATE, TeamOrientedProgram, hazard
from .recognizer import MODES, make_recognizer
from .sim import GroundTruthTrace, checkpoints as truth_checkpoints
from .social import CommModel, apply_comm_model, learn_comm_model

MAX_ORACLE_STATES = 64


# --- exact filtering over the enumerated state space -------------------------

def _leafdist(p: TeamOrientedProgram, x: str, acc, weight: float = 1.0):
    first = p.first_children(x)
    if not first:
        acc[x] = acc.get(x, 0.0) + weight
        return
    for c in first:
        _leafdist(p, c, acc, weight / len(first))


def oracle_states(p: TeamOrientedProgram) -> list[tuple[str, str]]:
    """("exec", leaf) states then ("blocked", node) states, in program order."""
    states = [("exec", x) for x in p.leaves] + [("blocked", x) for x in p.node_ids]
    if len(states) > MAX_ORACLE_STATES:
        raise MonitoringError(
            f"oracle state space has {len(states)} states, limit {MAX_ORACLE_STATES}")
    return states


def _oracle_kernel(p: TeamOrientedProgram, states) -> np.ndarray:
    index = {s: i for i, s in enumerate(states)}
    K = np.zeros((len(states), len(states)))

    def cascade(row: int, x: str, q: float):
        ts = p.out_transitions(x)
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
                parent = p.node(x).parent
                if parent is None:
                    K[row, index[("blocked", x)]] += silent
                else:
                    cascade(row, parent, silent)
            else:
                dist: dict[str, float] = {}
                _leafdist(p, t.dst, dist)
                for leaf, share in dist.items():
                    K[row, index[("exec", leaf)]] += silent * share
    for i, (kind, x) in enumerate(states):
        if kind == "blocked":
            K[i, i] = 1.0
        else:
            h = hazard(p.node(x).rate)
            K[i, i] += 1.0 - h
            if h > 0.0:
                cascade(i, x, h)
    return K


def _oracle_evidence(p: TeamOrientedProgram, states, v: np.ndarray,
                     m: ObservedMessage) -> np.ndarray:
    index = {s: i for i, s in enumerate(states)}
    named = p.nodes_named(m.plan)
    if not named:
        raise MonitoringError(f"oracle: message names unknown plan '{m.plan}'")
    raw: dict[str, float] = {}
    if m.kind == INIT:
        base = set(named)
        for y in named:
            for t in p.in_transitions(y):
                raw[y] = raw.get(y, 0.0) + v[index[("blocked", t.src)]] * t.mu * t.pi
    else:
        base = set()
        for x in named:
            for t in p.out_transitions(x):
                if t.dst == TERMINATE:
                    continue
                base.add(t.dst)
                raw[t.dst] = raw.get(t.dst, 0.0) + v[index[("blocked", x)]] * t.mu * t.pi
    positive = [y for y in raw if raw[y] > 0.0]
    if positive:
        keep = _prune_redundant_ancestors(p, positive)
        total = sum(raw[y] for y in keep)
        scratch = {y: raw[y] / total for y in keep}
    else:
        fallback = _prune_redundant_ancestors(p, base or set(named))
        scratch = {y: 1.0 / len(fallback) for y in fallback}
    out = np.zeros(len(states))
    for y, mass in scratch.items():
        if mass < PROB_FLOOR:
            continue
        dist: dict[str, float] = {}
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
    dist: dict[str, float] = {}
    _leafdist(p, p.root, dist)
    for leaf, share in dist.items():
        v[index[("exec", leaf)]] = share
    vectors = [v]
    for t in range(1, ticks + 1):
        msgs = by_tick.get(t, [])
        if msgs:
            cur = v
            ordered = sorted(msgs, key=lambda m: (0 if m.kind == TERM else 1,
                                                  m.plan, m.sender))
            for m in ordered:
                cur = _oracle_evidence(p, states, cur, m)
            v = cur
        else:
            v = v @ K
        vectors.append(v)
    return states, vectors


def replay_single(p: TeamOrientedProgram, ticks: int, messages=()):
    """Belief-engine states per tick on the same schedule as exact_filter."""
    by_tick = messages_by_tick(messages)
    b = init_beliefs(p)
    out = [b]
    for t in range(1, ticks + 1):
        msgs = by_tick.get(t, [])
        if msgs:
            b = apply_messages(b, msgs, p)
        else:
            b = propagate_forward(b, p)
        out.append(b)
    return out


def engine_vector(p: TeamOrientedProgram, states, b: BeliefState) -> np.ndarray:
    """Project an engine belief onto the oracle's state axis."""
    v = np.zeros(len(states))
    for i, (kind, x) in enumerate(states):
        v[i] = b.active[x] if kind == "exec" else b.blocked[x]
    return v


# --- scoring ------------------------------------------------------------------

@dataclass
class RunReport:
    """Scored replay of one run.

    ``comparisons`` counts (checkpoint, unit) pairs; the error curve is the
    cumulative number of wrong comparisons after each checkpoint.
    """

    units: tuple[str, ...]
    exchanges: int
    comparisons: int
    correct: int
    error_curve: tuple[int, ...]
    hypothesis_counts: tuple[int, ...] = ()
    visits: int = 0
    config: dict = field(default_factory=dict)

    @property
    def accuracy(self) -> float:
        return self.correct / self.comparisons if self.comparisons else 0.0


def score_run(hypotheses, truths, units=None) -> RunReport:
    """Score per-checkpoint hypothesis dicts against truth dicts.

    Both arguments are sequences of {unit: path} mappings, one per
    checkpoint; a comparison is correct when the paths match exactly.
    """
    if len(hypotheses) != len(truths):
        raise MonitoringError(
            f"{len(hypotheses)} hypothesis checkpoints vs {len(truths)} truth checkpoints")
    if units is None:
        units = tuple(sorted(truths[0])) if truths else ()
    errors = 0
    correct = 0
    curve = []
    for hyp, truth in zip(hypotheses, truths):
        for unit in units:
            if unit not in hyp or unit not in truth:
                raise MonitoringError(f"unit '{unit}' missing from a checkpoint")
            if tuple(hyp[unit]) == tuple(truth[unit]):
                correct += 1
            else:
                errors += 1
        curve.append(errors)
    return RunReport(units=tuple(units), exchanges=len(truths),
                     comparisons=len(truths) * len(units), correct=correct,
                     error_curve=tuple(curve))


# --- replay runners -----------------------------------------------------------

def _unit_truth(p: TeamOrientedProgram, step, unit: str) -> tuple[str, ...]:
    """An agent's true path, or the one path a team's members all share."""
    h = p.team_hierarchy
    paths = {step[a][0] for a in (h.members(unit) if h.has_team(unit) else (unit,))}
    if len(paths) != 1:
        raise MonitoringError(
            f"members of '{unit}' disagree in the ground truth; run is not coherent")
    return next(iter(paths))


def evaluate_run(p: TeamOrientedProgram, trace: GroundTruthTrace, messages,
                 mode: str = "yoyo", coherent: bool | None = True,
                 comm_model: CommModel | None = None,
                 delay: int = 1, hypotheses_out: list | None = None) -> RunReport:
    """Replay a log against ground truth and score checkpoint hypotheses.

    The recognizer's ``replay`` runs the log; each of its ``units`` is scored
    at every checkpoint, ``delay`` ticks after an exchange.  ``coherent=None``
    takes the layout's default (see ``make_recognizer``).  The recognizer
    runs on ``p`` after ``comm_model`` rewrites its message probabilities;
    truth reads only ``p``'s team hierarchy, so ``p`` may be a degraded copy
    of the real program (e.g. ``flatten_mu``).  A negative delay, or a trace
    that lacks one of the program's agents, raises ``MonitoringError``.
    """
    if delay < 0:
        raise MonitoringError(f"checkpoint delay must be nonnegative, got {delay}")
    traced = set(trace.agents)
    for agent in p.team_hierarchy.agent_names:
        if agent not in traced:
            raise MonitoringError(f"truth trace has no state for agent '{agent}'")
    if comm_model is not None:
        p = apply_comm_model(p, comm_model)
    recognizer = make_recognizer(p, mode, coherent)
    units = recognizer.units
    cps = dict(truth_checkpoints(trace, messages, delay))
    last = max(cps) if cps else 0

    hypotheses = []
    truths = []
    for t in recognizer.replay(messages, last + 1):
        if t in cps:
            hypotheses.append({u: recognizer.path(u) for u in units})
            truths.append({u: _unit_truth(p, cps[t], u) for u in units})

    if hypotheses_out is not None:
        hypotheses_out.extend(hypotheses)
    report = score_run(hypotheses, truths, units)
    report.visits = recognizer.counter.visits
    report.hypothesis_counts = tuple(
        hypothesis_count_curve(p, messages, rules=comm_model, up_to_tick=last))
    report.config = {"mode": mode, "coherent": int(recognizer.coherent),
                     "comm": int(comm_model is not None), "delay": delay,
                     "seed": trace.seed}
    return report


# --- hypothesis counting (no temporal probabilities) ---------------------------

def _silent_closure(p: TeamOrientedProgram, start: set[str],
                    rules: CommModel | None) -> set[str]:
    """Nodes possibly current after any number of unannounced steps.

    A transition the communication model predicts an announcement for
    cannot have fired silently, so the closure stops there; unpredicted
    TERMINATE edges hand control to the parent's own transitions.
    """

    def predicted(t) -> bool:
        if rules is None:
            return False
        if rules.predicts(p.node(t.src).name, TERM):
            return True
        return t.dst != TERMINATE and rules.predicts(p.node(t.dst).name, INIT)

    current: set[str] = set()
    stepped: set[str] = set()
    work: list[tuple[str, str]] = [("enter", x) for x in sorted(start)]
    while work:
        op, x = work.pop()
        if op == "enter":
            if x in current:
                continue
            current.add(x)
            for c in p.first_children(x):
                work.append(("enter", c))
            work.append(("step", x))
            continue
        if x in stepped:
            continue
        stepped.add(x)
        for t in p.out_transitions(x):
            if predicted(t):
                continue
            if t.dst == TERMINATE:
                parent = p.node(x).parent
                if parent is not None:
                    work.append(("step", parent))
            else:
                work.append(("enter", t.dst))
    return current


def _anchor(p: TeamOrientedProgram, m: ObservedMessage) -> set[str]:
    named = p.nodes_named(m.plan)
    if m.kind == INIT:
        return set(named)
    succ = {t.dst for x in named for t in p.out_transitions(x) if t.dst != TERMINATE}
    return succ or set(named)


def hypothesis_count_curve(p: TeamOrientedProgram, messages,
                           rules: CommModel | None = None, online: bool = False,
                           up_to_tick: int | None = None) -> list[int]:
    """Per-exchange count of leaves possibly current, temporal weights off.

    After each exchange (messages grouped by tick) the possibility set is
    re-anchored on the exchange's messages and closed over transitions the
    communication model does not predict an announcement for.  ``online``
    grows the rule set from the messages seen so far instead of using the
    full model from the start.
    """
    counts = []
    learned = CommModel(frozenset())
    for tick, batch in sorted(messages_by_tick(messages).items()):
        if up_to_tick is not None and tick > up_to_tick:
            break
        if online:
            learned = learn_comm_model(batch, learned)
            active_rules = learned
        else:
            active_rules = rules
        anchors = [_anchor(p, m) for m in batch]
        joined = set.intersection(*anchors) if anchors else set()
        if not joined:
            joined = set().union(*anchors)
        possible = _silent_closure(p, joined, active_rules)
        counts.append(sum(1 for x in possible if p.is_leaf(x)))
    return counts


# --- scalability benchmark ------------------------------------------------------

def bench_scalability(base: TeamOrientedProgram, agent_counts,
                      ticks: int = 100) -> list[dict]:
    """Allocation sizes and per-tick propagation visits for both layouts."""
    from .progen import grow_team
    rows = []
    base_n = len(base.team_hierarchy.agent_names)
    for n in agent_counts:
        if n < base_n:
            raise MonitoringError(f"cannot shrink the team below {base_n} agents")
        p = grow_team(base, n - base_n) if n > base_n else base
        row = {"agents": n}
        for mode in MODES:
            recognizer = make_recognizer(p, mode)
            for _ in recognizer.replay((), ticks + 1):  # tick 0 is the initial belief
                pass
            row[f"{mode}_nodes"] = recognizer.state_nodes
            row[f"{mode}_visits"] = recognizer.counter.visits
        rows.append(row)
    return rows


def render_bench(rows) -> str:
    lines = ["agents array_nodes yoyo_nodes array_visits yoyo_visits"]
    for r in rows:
        lines.append(f"{r['agents']} {r['array_nodes']} {r['yoyo_nodes']} "
                     f"{r['array_visits']} {r['yoyo_visits']}")
    return "\n".join(lines) + "\n"


# --- report rendering -----------------------------------------------------------

def render_report(r: RunReport) -> str:
    lines = []
    for key in sorted(r.config):
        lines.append(f"config {key} {r.config[key]}")
    lines.append(f"metric exchanges {r.exchanges}")
    lines.append(f"metric comparisons {r.comparisons}")
    lines.append(f"metric correct {r.correct}")
    lines.append(f"metric accuracy {r.accuracy:.6f}")
    lines.append(f"metric visits {r.visits}")
    for i, e in enumerate(r.error_curve):
        lines.append(f"curve errors {i} {e}")
    for i, c in enumerate(r.hypothesis_counts):
        lines.append(f"curve hypotheses {i} {c}")
    return "\n".join(lines) + "\n"
