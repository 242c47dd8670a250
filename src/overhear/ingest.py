"""Observed-message ingestion.

Two on-disk formats feed the recognizers: a canonical whitespace-delimited
log line, and raw KQML broadcast records as logged by agent middleware.  Both
normalize to ObservedMessage.  Message loss for robustness experiments is
applied here so every consumer sees the same censoring.
"""

from __future__ import annotations

import calendar
import random
import time
from dataclasses import dataclass, field

INIT = "INIT"
TERM = "TERM"

# KQML performative verbs that announce plan-state changes.
_VERB_KIND = {
    "establish-commitment": INIT,
    "terminate-jpg": TERM,
}


class IngestError(ValueError):
    """A log line or KQML record could not be understood."""


@dataclass(frozen=True)
class ObservedMessage:
    """One overheard announcement: a plan was initiated or terminated."""

    tick: int
    sender: str
    team: str
    kind: str  # INIT or TERM
    plan: str
    # Opaque trailing payload from rich formats; excluded from identity so
    # canonical-format round-trips stay exact.
    extra: str = field(default="", compare=False)

    def __post_init__(self):
        if self.kind not in (INIT, TERM):
            raise IngestError(f"message kind must be INIT or TERM, got {self.kind!r}")


def format_log_line(m: ObservedMessage) -> str:
    return f"{m.tick} {m.sender} {m.team} {m.kind} {m.plan}"


def parse_log_line(line: str, lineno: int = 0) -> ObservedMessage:
    parts = line.split()
    where = f"line {lineno}" if lineno else "line"
    if len(parts) != 5:
        raise IngestError(f"{where}: expected '<tick> <sender> <team> <INIT|TERM> <plan>', "
                          f"got {line!r}")
    tick_text, sender, team, kind, plan = parts
    try:
        tick = int(tick_text)
    except ValueError:
        raise IngestError(f"{where}: tick must be an integer, got {tick_text!r}") from None
    if tick < 0:
        raise IngestError(f"{where}: tick must be nonnegative")
    if kind not in (INIT, TERM):
        raise IngestError(f"{where}: kind must be INIT or TERM, got {kind!r}")
    return ObservedMessage(tick, sender, team, kind, plan)


def parse_log(text: str) -> list[ObservedMessage]:
    """Parse a canonical log. '#' starts a comment; blank lines are skipped.

    Ticks must be monotonically nondecreasing.
    """
    messages: list[ObservedMessage] = []
    last_tick = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = parse_log_line(line, lineno)
        if m.tick < last_tick:
            raise IngestError(f"line {lineno}: tick {m.tick} goes backwards (previous "
                              f"{last_tick})")
        last_tick = m.tick
        messages.append(m)
    return messages


def format_log(messages) -> str:
    return "".join(format_log_line(m) + "\n" for m in messages)


# -- KQML records ------------------------------------------------------------

_KQML_TIME_FORMAT = "%a %b %d %H:%M:%S %Y"


def _parse_kqml_fields(block: str) -> tuple[float, dict[str, str]]:
    """Split one logged record into its timestamp and :field values.

    A field value may continue over indented lines until the next :field.
    """
    stamp = None
    fields: dict[str, list[str]] = {}
    current: str | None = None
    for raw in block.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("Log Message Received"):
            _, _, rest = line.partition(";")
            rest = rest.strip().rstrip(":")
            try:
                # Stamps carry no zone: read as UTC, not the host's local time
                stamp = calendar.timegm(time.strptime(rest, _KQML_TIME_FORMAT))
            except ValueError:
                raise IngestError(f"unreadable record timestamp {rest!r}") from None
            continue
        if line.startswith("Logging Agent:") or line.startswith("Message==>"):
            continue
        if line.startswith(":"):
            key, _, value = line.partition(" ")
            current = key[1:]
            fields[current] = value.split()
            continue
        if current is not None:
            fields[current].extend(line.split())
            continue
        raise IngestError(f"unexpected record line {line!r}")
    if stamp is None:
        raise IngestError("record is missing its 'Log Message Received' timestamp")
    return stamp, {k: " ".join(v) for k, v in fields.items()}


def parse_kqml_record(block: str, *, epoch: float | None = None,
                      tick_seconds: float = 1.0) -> ObservedMessage:
    """Normalize one KQML broadcast record.

    Ticks count elapsed seconds since ``epoch`` (the record's own timestamp
    when epoch is None), quantized by ``tick_seconds``.  The :content field
    is '<speaker> <verb> [constant] <plan> <trailing ...>'; the verb selects
    INIT or TERM and everything after the plan name is kept as opaque extra
    payload.
    """
    stamp, fields = _parse_kqml_fields(block)
    if "content" not in fields:
        raise IngestError("record has no :content field")
    tokens = fields["content"].split()
    if len(tokens) < 3:
        raise IngestError(f"unparseable :content {fields['content']!r}")
    verb = tokens[1]
    if verb not in _VERB_KIND:
        raise IngestError(f"unknown content verb {verb!r}")
    rest = tokens[2:]
    if rest[0] == "constant":  # terminate-jpg interposes a type tag
        rest = rest[1:]
    if not rest:
        raise IngestError(f"content {fields['content']!r} carries no plan name")
    plan, extra = rest[0], " ".join(rest[1:])
    sender = fields.get("sender", tokens[0]).split()[0]
    if "team" not in fields:
        raise IngestError("record has no :team field")
    team = fields["team"].split()[0]
    base = stamp if epoch is None else epoch
    tick = int((stamp - base) / tick_seconds)
    return ObservedMessage(tick, sender, team, _VERB_KIND[verb], plan, extra=extra)


def parse_kqml_log(text: str, *, tick_seconds: float = 1.0) -> list[ObservedMessage]:
    """Parse a stream of KQML records; ticks are relative to the first record."""
    blocks: list[list[str]] = []
    for raw in text.splitlines():
        if raw.strip().startswith("Log Message Received"):
            blocks.append([raw])
        elif blocks and raw.strip():
            blocks[-1].append(raw)
    if not blocks:
        return []
    first_stamp, _ = _parse_kqml_fields("\n".join(blocks[0]))
    return [parse_kqml_record("\n".join(b), epoch=first_stamp, tick_seconds=tick_seconds)
            for b in blocks]


# -- message loss ------------------------------------------------------------

def apply_loss(messages, rate: float, seed: int) -> list[ObservedMessage]:
    """Drop an exact fraction of messages, chosen without replacement.

    Exactly floor(rate * n) messages are removed; survivor order is kept.
    """
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"loss rate must be in [0, 1], got {rate}")
    messages = list(messages)
    k = int(rate * len(messages))
    drop = set(random.Random(seed).sample(range(len(messages)), k))
    return [m for i, m in enumerate(messages) if i not in drop]


def messages_by_tick(messages) -> dict[int, list[ObservedMessage]]:
    grouped: dict[int, list[ObservedMessage]] = {}
    for m in messages:
        grouped.setdefault(m.tick, []).append(m)
    return grouped
