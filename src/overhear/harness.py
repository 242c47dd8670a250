"""Evaluation harness: replay runners, scoring, and benchmarks.

It replays message logs through the recognizers, scores most-likely
hypotheses against ground truth at checkpoints, produces hypothesis-count
curves, and measures the size and per-tick work of both recognizer layouts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .belief import MonitoringError
from .ingest import INIT, TERM, ObservedMessage, messages_by_tick
from .model import TERMINATE, TeamOrientedProgram
from .recognizer import MODES, make_recognizer
from .sim import GroundTruthTrace, checkpoints as truth_checkpoints
from .social import CommModel, apply_comm_model, learn_comm_model


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
                 mode: str = "yoyo", coherent: bool | None = None,
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
