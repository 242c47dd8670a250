"""Observed-message ingestion.

Two on-disk formats feed the recognizers: a canonical whitespace-delimited
log line, and raw KQML broadcast records as logged by agent middleware.  Both
normalize to ObservedMessage.  Message loss for robustness experiments is
applied here so every consumer sees the same censoring.
"""

from __future__ import annotations

import calendar
import random
import re
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


def parse_decimal(text: str) -> int:
    """``text`` as an int if it is ASCII decimal digits after an optional '-',
    as ``format_log`` and ``format_trace`` write integers; else ValueError.

    ``int`` alone would also read underscores, a '+' and non-ASCII digits.
    """
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not a decimal integer: {text!r}")
    return int(text)


def parse_log_line(line: str, lineno: int = 0) -> ObservedMessage:
    parts = line.split()
    where = f"line {lineno}" if lineno else "line"
    if len(parts) != 5:
        raise IngestError(f"{where}: expected '<tick> <sender> <team> <INIT|TERM> <plan>', "
                          f"got {line!r}")
    tick_text, sender, team, kind, plan = parts
    try:
        tick = parse_decimal(tick_text)
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

# Record stamps look like 'Fri Sep 17 18:27:54 1999'.  Day and month names
# come from this fixed English table: time.strptime's %a and %b would follow
# the host's LC_TIME.
_DAYS = ("mon", "tue", "wed", "thu", "fri", "sat", "sun")
_MONTHS = ("jan", "feb", "mar", "apr", "may", "jun",
           "jul", "aug", "sep", "oct", "nov", "dec")
_STAMP = re.compile(r"([A-Za-z]+)\s+([A-Za-z]+)\s+([0-9]{1,2})\s+"
                    r"([0-9]{1,2}):([0-9]{1,2}):([0-9]{1,2})\s+([0-9]{4})")


def _read_stamp(text: str) -> int:
    """Seconds since the epoch of a record stamp; stamps carry no zone, so UTC."""
    match = _STAMP.fullmatch(text)
    if match is None:
        raise IngestError(f"unreadable record timestamp {text!r}")
    day, month, mday, hour, minute, second, year = match.groups()
    if day.lower() not in _DAYS:
        raise IngestError(f"unknown day name {day!r} in record timestamp {text!r}")
    if month.lower() not in _MONTHS:
        raise IngestError(f"unknown month name {month!r} in record timestamp {text!r}")
    year, mon = int(year), _MONTHS.index(month.lower()) + 1
    mday, hour, minute, second = int(mday), int(hour), int(minute), int(second)
    # the ranges time.strptime accepted: no year 0, and leap seconds up to 61
    last_day = calendar.monthrange(year, mon)[1] if year else 0
    if not (1 <= mday <= last_day and hour <= 23 and minute <= 59 and second <= 61):
        raise IngestError(f"record timestamp {text!r} is out of range")
    return calendar.timegm((year, mon, mday, hour, minute, second))


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
            stamp = _read_stamp(rest.strip().rstrip(":"))
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
    when epoch is None), quantized by ``tick_seconds``, which must be
    positive; a record stamped before the epoch is an error.  The :content field
    is '<speaker> <verb> [constant] <plan> <trailing ...>'; the verb selects
    INIT or TERM and everything after the plan name is kept as opaque extra
    payload.
    """
    _check_tick_seconds(tick_seconds)
    stamp, fields = _parse_kqml_fields(block)
    return _kqml_message(stamp, fields, stamp if epoch is None else epoch, tick_seconds)


def _check_tick_seconds(tick_seconds: float):
    if not tick_seconds > 0:
        raise IngestError(f"tick_seconds must be positive, got {tick_seconds}")


def _first_word(fields: dict[str, str], key: str, default: str | None = None) -> str:
    value = fields.get(key, default)
    if value is None:
        raise IngestError(f"record has no :{key} field")
    words = value.split()
    if not words:
        raise IngestError(f"record has an empty :{key} field")
    return words[0]


def _kqml_message(stamp: float, fields: dict[str, str], epoch: float,
                  tick_seconds: float) -> ObservedMessage:
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
    sender = _first_word(fields, "sender", tokens[0])
    team = _first_word(fields, "team")
    if stamp < epoch:
        raise IngestError(f"record is stamped {epoch - stamp:g} s before the epoch")
    tick = int((stamp - epoch) / tick_seconds)
    return ObservedMessage(tick, sender, team, _VERB_KIND[verb], plan, extra=extra)


def parse_kqml_log(text: str, *, tick_seconds: float = 1.0) -> list[ObservedMessage]:
    """Parse a stream of KQML records; ticks are relative to the first record.

    The first record's stamp is the epoch, so a later record stamped before
    it is an error, as is a ``tick_seconds`` that is not positive.  Record
    errors start ``record N (line L):``, L being the record's first line."""
    _check_tick_seconds(tick_seconds)
    blocks: list[tuple[int, list[str]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if raw.strip().startswith("Log Message Received"):
            blocks.append((lineno, [raw]))
        elif blocks and raw.strip():
            blocks[-1][1].append(raw)
    messages: list[ObservedMessage] = []
    epoch = None
    for n, (lineno, block) in enumerate(blocks, start=1):
        try:
            stamp, fields = _parse_kqml_fields("\n".join(block))
            epoch = stamp if epoch is None else epoch
            messages.append(_kqml_message(stamp, fields, epoch, tick_seconds))
        except IngestError as exc:
            raise IngestError(f"record {n} (line {lineno}): {exc}") from None
    return messages


# -- message loss ------------------------------------------------------------

def apply_loss(messages, rate: float, seed: int) -> list[ObservedMessage]:
    """Drop an exact fraction of messages, chosen without replacement.

    Exactly floor(rate * n) messages are removed, for the rate as written
    (its shortest decimal form, so 0.29 of 100 drops 29, where the float
    product would drop 28); survivor order is kept.
    """
    from fractions import Fraction  # here: with decimal, it would slow every command's start

    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"loss rate must be in [0, 1], got {rate}")
    messages = list(messages)
    k = int(Fraction(str(rate)) * len(messages))
    drop = set(random.Random(seed).sample(range(len(messages)), k))
    return [m for i, m in enumerate(messages) if i not in drop]


def messages_by_tick(messages) -> dict[int, list[ObservedMessage]]:
    grouped: dict[int, list[ObservedMessage]] = {}
    for m in messages:
        grouped.setdefault(m.tick, []).append(m)
    return grouped
