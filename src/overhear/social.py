"""Social-knowledge heuristics layered on top of the recognizers.

Teams constrain hypotheses in ways no single-agent model can: members of a
team execute the same team plan (coherence), agents only take plans assigned
to their team or its ancestors (roles), and coordinated transitions are
announced in predictable messages (a rote-learned communication model).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .ingest import INIT, TERM, IngestError
from .model import TERMINATE, TeamOrientedProgram, TemporalTransition

# Transitions the communication model says nothing about keep a small chance
# of being announced anyway.
DEFAULT_UNPREDICTED_MU = 0.05


def coherent_hypotheses(candidate_sets) -> set[tuple]:
    """Joint hypotheses in which every agent picks the same shared plan.

    ``candidate_sets`` holds one candidate set per agent.  Only unanimous
    tuples are coherent, so the result can never exceed the smallest set.
    """
    sets = [set(s) for s in candidate_sets]
    if not sets:
        return set()
    common = set.intersection(*sets)
    n = len(sets)
    return {(c,) * n for c in common}


def count_hypotheses(set_sizes) -> tuple[int, int]:
    """(coherent bound, incoherent count) for per-agent candidate set sizes.

    At most min(k) joint hypotheses can be unanimous; everything else in the
    full product space is incoherent.
    """
    sizes = list(set_sizes)
    if not sizes or any(k < 0 for k in sizes):
        raise ValueError(f"set sizes must be nonnegative and nonempty, got {sizes}")
    coherent = min(sizes)
    return coherent, math.prod(sizes) - coherent


# -- communication model -----------------------------------------------------

@dataclass(frozen=True)
class CommModel:
    """Rote-learned announcement rules: (plan name, INIT|TERM) pairs."""

    rules: frozenset[tuple[str, str]] = frozenset()
    confidence: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.confidence <= 1.0:
            raise ValueError(f"confidence must be in (0, 1], got {self.confidence}")

    def predicts(self, plan: str, kind: str) -> bool:
        return (plan, kind) in self.rules


def learn_comm_model(messages, model: CommModel | None = None,
                     confidence: float | None = None) -> CommModel:
    """Fold observed announcements into the rule set.

    Learning is monotone and idempotent: replaying the same log never changes
    the result of the first pass.
    """
    base = model or CommModel()
    rules = set(base.rules)
    for m in messages:
        rules.add((m.plan, m.kind))
    return CommModel(frozenset(rules),
                     base.confidence if confidence is None else confidence)


def apply_comm_model(p: TeamOrientedProgram, model: CommModel) -> TeamOrientedProgram:
    """A copy of ``p`` whose announcement probabilities come from learned rules.

    Every transition entering a plan with an INIT rule, or leaving a plan
    with a TERM rule, is expected to be announced with the model's
    confidence; all other transitions fall back to ``DEFAULT_UNPREDICTED_MU``.
    Completion edges stay silent (mu 0): programs never announce TERMINATE
    itself, only the transition out of the finished plan.  The copy differs
    from ``p`` in ``mu`` alone.
    """
    def mu(t: TemporalTransition) -> float:
        if t.dst == TERMINATE:
            return 0.0
        predicted = (model.predicts(p.node(t.src).name, TERM)
                     or model.predicts(p.node(t.dst).name, INIT))
        return model.confidence if predicted else DEFAULT_UNPREDICTED_MU

    return replace(p, transitions=tuple(replace(t, mu=mu(t)) for t in p.transitions))


def format_comm_model(model: CommModel) -> str:
    lines = [f"CONFIDENCE {model.confidence}"]
    for plan, kind in sorted(model.rules):
        lines.append(f"PLAN {plan} {kind}")
    return "".join(line + "\n" for line in lines)


def parse_comm_model(text: str) -> CommModel:
    """Read a model written by ``format_comm_model``; '#' starts a comment.

    Raises ``IngestError`` naming the line of a bad confidence or an
    unrecognized line.
    """
    confidence = 1.0
    rules: set[tuple[str, str]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "CONFIDENCE" and len(parts) == 2:
            try:
                confidence = float(parts[1])
            except ValueError:
                raise IngestError(f"line {lineno}: confidence must be a number, "
                                  f"got {parts[1]!r}") from None
            if not 0.0 < confidence <= 1.0:
                raise IngestError(f"line {lineno}: confidence must be in (0, 1], "
                                  f"got {parts[1]!r}")
        elif parts[0] == "PLAN" and len(parts) == 3 and parts[2] in (INIT, TERM):
            rules.add((parts[1], parts[2]))
        else:
            raise IngestError(f"line {lineno}: unrecognized communication-model line {raw!r}")
    return CommModel(frozenset(rules), confidence)
