"""Evaluation harness: exact oracle, replay runners, scoring, and benchmarks.

The oracle side enumerates the full state space of a small single-agent
program (executing-leaf and blocked-node states) and filters it exactly with
a dense transition kernel, which checks the belief engine's node-local
recursions against a straightforward matrix implementation of the same
probabilistic model.  The rest of the module replays message logs through
the recognizers, scores most-likely hypotheses against ground truth at
checkpoints, produces hypothesis-count curves, and measures the size and
per-tick work of both recognizer layouts.

Only the oracle needs numpy, and it imports numpy inside its own functions,
so no ``overhear`` command loads it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .belief import BeliefState, MonitoringError, PROB_FLOOR
from .ingest import INIT, TERM, ObservedMessage, messages_by_tick
from .model import TERMINATE, TeamOrientedProgram, hazard
from .recognizer import MODES, make_recognizer
from .sim import GroundTruthTrace, checkpoints as truth_checkpoints
from .social import CommModel, apply_comm_model, learn_comm_model

if TYPE_CHECKING:
    import numpy as np

MAX_ORACLE_STATES = 64


# --- exact filtering over the enumerated state space -------------------------

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
    import numpy as np
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
    import numpy as np
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
    import numpy as np
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
    import numpy as np
    v = np.zeros(len(states))
    for i, (kind, x) in enumerate(states):
        v[i] = b.act[x] if kind == "exec" else b.blk[x]
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

def _unit_truth(step, unit: str, members: tuple[str, ...]) -> tuple[str, ...]:
    """The one true path the unit's ``members`` (a team's agents, or an agent
    alone) all share at ``step``."""
    if members:
        path = step[members[0]][0]
        for agent in members:
            if step[agent][0] != path:
                break
        else:
            return path
    raise MonitoringError(
        f"members of '{unit}' disagree in the ground truth; run is not coherent")


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
    that lacks one of the program's agents, raises ``MonitoringError``; so
    does a message at or past the trace's end, naming the first in log
    order, as it has no truth to score and the replay would never reach it.
    """
    if delay < 0:
        raise MonitoringError(f"checkpoint delay must be nonnegative, got {delay}")
    traced = set(trace.agents)
    for agent in p.team_hierarchy.agent_names:
        if agent not in traced:
            raise MonitoringError(f"truth trace has no state for agent '{agent}'")
    for m in messages:
        if m.tick >= trace.ticks:
            raise MonitoringError(
                f"message at tick {m.tick} ({m.sender} {m.kind} {m.plan}) is past the "
                f"truth trace's last tick, {trace.ticks - 1}")
    if comm_model is not None:
        p = apply_comm_model(p, comm_model)
    recognizer = make_recognizer(p, mode, coherent)
    units = recognizer.units
    cps = dict(truth_checkpoints(trace, messages, delay))
    last = max(cps) if cps else 0

    h = p.team_hierarchy
    members = [(u, h.members(u) if h.has_team(u) else (u,)) for u in units]

    hypotheses = []
    truths = []
    for t in recognizer.replay(messages, last + 1):
        if t in cps:
            hypotheses.append({u: recognizer.path(u) for u in units})
            truths.append({u: _unit_truth(cps[t], u, m) for u, m in members})

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

def _silent_closure(p: TeamOrientedProgram, x: int, rules: CommModel | None) -> frozenset[int]:
    """Positions of the leaves possibly current after any number of
    unannounced steps from the node at position x.

    A transition the communication model predicts an announcement for
    cannot have fired silently, so the closure stops there; unpredicted
    TERMINATE edges hand control to the parent's own transitions.  Each
    edge of the walk depends only on its node and the rules, so a set's
    closure is the union of its nodes' closures.
    """
    plans, index = p.plans, p.index
    current: set[int] = set()
    stepped: set[int] = set()
    work: list[tuple[str, int]] = [("enter", x)]
    while work:
        op, x = work.pop()
        if op == "enter":
            if x in current:
                continue
            current.add(x)
            for c in p.children_at[x]:
                if plans[c].is_first_child:
                    work.append(("enter", c))
            work.append(("step", x))
            continue
        if x in stepped:
            continue
        stepped.add(x)
        if rules is not None and rules.predicts(plans[x].name, TERM):
            continue  # every edge out of x is predicted
        for t in p.out_at[x]:
            if t.dst != TERMINATE:
                y = index[t.dst]
                if rules is None or not rules.predicts(plans[y].name, INIT):
                    work.append(("enter", y))
            elif p.ancestors_at[x]:  # the parent's own transitions
                work.append(("step", p.ancestors_at[x][0]))
    return frozenset(x for x in current if not p.children_at[x])


def _anchor(p: TeamOrientedProgram, m: ObservedMessage) -> set[int]:
    named = p.named_index.get(m.plan, ())
    if m.kind == INIT:
        return set(named)
    succ = {p.index[t.dst] for x in named for t in p.out_at[x] if t.dst != TERMINATE}
    return succ or set(named)


def hypothesis_count_curve(p: TeamOrientedProgram, messages,
                           rules: CommModel | None = None, online: bool = False,
                           up_to_tick: int | None = None) -> list[int]:
    """Per-exchange count of leaves possibly current, temporal weights off.

    After each exchange (messages grouped by tick) the possibility set is
    re-anchored on the exchange's messages and closed over transitions the
    communication model does not predict an announcement for.  ``online``
    grows the rule set from the messages seen so far instead of using the
    full model from the start.  A set's closure is the union of its
    nodes' (``_silent_closure``), so each node is closed once per call
    under each rule set met, and each anchor set counted once.
    """
    counts = []
    closures: dict[CommModel | None, dict[int, frozenset[int]]] = {}
    memo: dict[tuple[frozenset[int], CommModel | None], int] = {}
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
        key = (frozenset(joined), active_rules)
        if key not in memo:
            closed = closures.setdefault(active_rules, {})
            for x in joined:
                if x not in closed:
                    closed[x] = _silent_closure(p, x, active_rules)
            memo[key] = len(frozenset().union(*(closed[x] for x in joined)))
        counts.append(memo[key])
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
