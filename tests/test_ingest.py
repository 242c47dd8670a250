import calendar
import dataclasses
import datetime
import math
import pathlib
import random
import time

import pytest

from overhear.ingest import (INIT, TERM, IngestError, ObservedMessage, apply_loss,
                             format_log, format_log_line, messages_by_tick,
                             parse_kqml_log, parse_kqml_record, parse_log,
                             parse_log_line)

KQML_SAMPLE = pathlib.Path(__file__).parent / "data" / "sample_kqml.log"


def test_line_round_trip():
    m = ObservedMessage(42, "escort1", "ESCORT", TERM, "escort-ops")
    assert parse_log_line(format_log_line(m)) == m


def test_parse_log_comments_and_blanks():
    text = "# header\n\n3 a T INIT go\n5 b T TERM go  # trailing note\n"
    msgs = parse_log(text)
    assert [(m.tick, m.sender, m.kind) for m in msgs] == [(3, "a", INIT),
                                                          (5, "b", TERM)]


@pytest.mark.parametrize("bad", [
    "x a T INIT go",         # non-integer tick
    "-1 a T INIT go",        # negative tick
    "1_0 a T INIT go",       # underscore, which int() reads as 10
    "+3 a T INIT go",        # plus sign
    "\u0665 a T INIT go",    # Arabic-Indic five
    "1 a T WHAT go",         # unknown kind
    "1 a T INIT",            # short line
    "1 a T INIT go extra",   # long line
])
def test_parse_log_line_rejects(bad):
    with pytest.raises(IngestError):
        parse_log_line(bad)


def test_parse_log_rejects_backwards_ticks():
    with pytest.raises(IngestError, match="backwards"):
        parse_log("5 a T INIT go\n4 b T INIT go\n")


def test_kind_validated_on_construction():
    with pytest.raises(IngestError):
        ObservedMessage(0, "a", "T", "START", "go")


def test_tick_validated_on_construction():
    # a negative tick was once accepted here, then dropped by the replay
    # and read as a checkpoint counted from the trace's end
    with pytest.raises(IngestError, match="^message tick must be nonnegative, got -3$"):
        ObservedMessage(-3, "a", "T", INIT, "go")
    with pytest.raises(IngestError, match="^message tick must be nonnegative, got -1$"):
        dataclasses.replace(ObservedMessage(0, "a", "T", INIT, "go"), tick=-1)
    with pytest.raises(IngestError, match="^line 2: tick must be nonnegative$"):
        parse_log("0 a T INIT go\n-3 a T INIT go\n")


def test_kqml_published_records():
    msgs = parse_kqml_log(KQML_SAMPLE.read_text())
    assert len(msgs) == 2
    first, second = msgs
    assert (first.sender, first.team, first.kind, first.plan) == (
        "teamquickset", "TEAM-EVAC", TERM, "determine-number-of-helos")
    assert (second.sender, second.team, second.kind, second.plan) == (
        "TEAM_auto2", "TEAM-ESCORT-FOLLOW", INIT, "prepare-to-execute-mission")
    # 18:27:54 -> 18:30:35 is 161 seconds at one tick per second
    assert first.tick == 0
    assert second.tick == 161
    assert first.extra == "number-of-helos-determined *yes* 4 4 98 kqml_string"


def test_kqml_tick_quantization():
    text = KQML_SAMPLE.read_text()
    msgs = parse_kqml_log(text, tick_seconds=60.0)
    assert [m.tick for m in msgs] == [0, 2]


def test_kqml_single_record_epoch():
    block = KQML_SAMPLE.read_text().split("\n\n")[0]
    m = parse_kqml_record(block)
    assert m.tick == 0
    assert m.kind == TERM


@pytest.mark.parametrize("zone", ["UTC", "America/New_York",
                                  "EST5EDT,M3.2.0,M11.1.0"])  # New York's rule, no tzdata
def test_kqml_ticks_ignore_host_time_zone(zone, monkeypatch):
    # New York skips 02:00-03:00 on this date: read as local time, the two
    # records would be 60 s apart instead of 3660 s
    block = KQML_SAMPLE.read_text().split("\n\n")[0].split("\n", 1)[1]
    text = "".join(f"Log Message Received; {stamp}:\n{block}\n\n"
                   for stamp in ("Sun Mar 13 01:59:30 2011", "Sun Mar 13 03:00:30 2011"))
    monkeypatch.setenv("TZ", zone)
    time.tzset()
    try:
        ticks = [m.tick for m in parse_kqml_log(text)]
    finally:
        monkeypatch.undo()
        time.tzset()
    assert ticks == [0, 3660]


_DAY_NAMES = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
_MONTH_NAMES = ("Jan", "Feb", "Mar", "Apr", "May", "Jun",
                "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")


def _stamped(stamp):
    block = KQML_SAMPLE.read_text().split("\n\n")[0].split("\n", 1)[1]
    return f"Log Message Received; {stamp}:\n{block}\n"


def test_kqml_stamps_read_every_day_and_month():
    # names come from a fixed English table, not the host's LC_TIME; ticks
    # from epoch 0 are the stamp's seconds since the epoch
    dates = [datetime.datetime(2024, 1, d, 9, 5, 7) for d in range(1, 8)]  # Mon..Sun
    dates += [datetime.datetime(1999, m, 28, 23, 59, 58) for m in range(1, 13)]
    for d in dates:
        stamp = (f"{_DAY_NAMES[d.weekday()]} {_MONTH_NAMES[d.month - 1]} {d.day:02d} "
                 f"{d.hour:02d}:{d.minute:02d}:{d.second:02d} {d.year}")
        m = parse_kqml_record(_stamped(stamp), epoch=0)
        assert m.tick == calendar.timegm(d.timetuple()), stamp
        # the names are matched whatever their case
        assert parse_kqml_record(_stamped(stamp.upper()), epoch=0).tick == m.tick
    assert {d.weekday() for d in dates[:7]} == set(range(7))


@pytest.mark.parametrize("stamp, message", [
    ("Fry Sep 17 18:27:54 1999", "unknown day name 'Fry'"),
    ("Fri Spt 17 18:27:54 1999", "unknown month name 'Spt'"),
    ("Friday Sep 17 18:27:54 1999", "unknown day name 'Friday'"),
    ("Fri Feb 30 18:27:54 1999", "out of range"),
    ("Fri Sep 17 24:27:54 1999", "out of range"),
    ("Fri Sep 17 18:27 1999", "unreadable record timestamp"),
])
def test_kqml_bad_stamps_rejected(stamp, message):
    with pytest.raises(IngestError, match=message):
        parse_kqml_record(_stamped(stamp))


def test_kqml_record_without_stamp_rejected():
    # parse_kqml_log starts a record at each stamp, so only a lone record can lack one
    with pytest.raises(IngestError, match="missing its 'Log Message Received' timestamp"):
        parse_kqml_record("  :content a1 establish-commitment p 1 kqml_string\n"
                          "  :team X 1 kqml_word\n")


def test_kqml_missing_content():
    with pytest.raises(IngestError, match="content"):
        parse_kqml_record("Log Message Received; Fri Sep 17 18:27:54 1999:\n"
                          "  :team X 1 kqml_word\n")


@pytest.mark.parametrize("field", ["sender", "team"])
def test_kqml_empty_sender_or_team_named(field):
    # the field is there but holds no word to take as the name
    fields = {"team": "X 1 kqml_word", "sender": "a1 2 kqml_word", field: ""}
    record = ("Log Message Received; Fri Sep 17 18:27:54 1999:\n"
              "  :content a1 establish-commitment p 1 kqml_string\n"
              + "".join(f"  :{key} {value}\n" for key, value in fields.items()))
    for parse in (parse_kqml_record, parse_kqml_log):
        with pytest.raises(IngestError, match=f"empty :{field} field"):
            parse(record)


@pytest.mark.parametrize("old, new, message", [
    (":team TEAM-ESCORT-FOLLOW 18 kqml_word", ":team", "record has an empty :team field"),
    ("establish-commitment", "bogus-verb", "unknown content verb 'bogus-verb'"),
    ("establish-commitment prepare-to-execute-mission\n    58 kqml_string",
     "establish-commitment constant",
     "content 'TEAM_auto2 establish-commitment constant' carries no plan name"),
])
def test_kqml_log_errors_name_the_record(old, new, message):
    text = KQML_SAMPLE.read_text()
    assert text.count(old) == 1
    with pytest.raises(IngestError) as err:
        parse_kqml_log(text.replace(old, new))
    assert str(err.value) == f"record 2 (line 12): {message}"


def test_kqml_record_stamped_before_the_first_is_rejected():
    # swapped, the second record is stamped 161 s before the first one: its
    # tick would be -161, a line parse_log rejects and replay would drop
    first, second = KQML_SAMPLE.read_text().split("\n\n")
    with pytest.raises(IngestError) as err:
        parse_kqml_log(f"{second.rstrip()}\n\n{first}\n")
    assert str(err.value) == "record 2 (line 12): record is stamped 161 s before the epoch"
    with pytest.raises(IngestError, match="161 s before the epoch"):
        parse_kqml_record(first, epoch=calendar.timegm((1999, 9, 17, 18, 30, 35)))


@pytest.mark.parametrize("tick_seconds", [0.0, -60.0, math.nan])
def test_kqml_tick_seconds_must_be_positive(tick_seconds):
    text = KQML_SAMPLE.read_text()
    for parse, arg in ((parse_kqml_log, text), (parse_kqml_log, ""),
                       (parse_kqml_record, text.split("\n\n")[0])):
        with pytest.raises(IngestError, match="tick_seconds must be positive"):
            parse(arg, tick_seconds=tick_seconds)


def _fuzz_corpus(n, seed=0):
    rng = random.Random(seed)
    pool = ["alpha", "b-2", "TEAM_auto2", "x.y", "determine-number-of-helos",
            "wait-at-point", "p", "UPPER", "mixed-Case_09"]
    tick = 0
    msgs = []
    for _ in range(n):
        tick += rng.randrange(0, 3)
        msgs.append(ObservedMessage(tick, rng.choice(pool), rng.choice(pool),
                                    rng.choice((INIT, TERM)), rng.choice(pool)))
    return msgs


def test_canonical_round_trip_fuzz():
    msgs = _fuzz_corpus(10_000)
    assert parse_log(format_log(msgs)) == msgs


def test_apply_loss_exact_and_deterministic():
    msgs = _fuzz_corpus(200, seed=5)
    kept = apply_loss(msgs, 0.1, seed=3)
    assert len(kept) == 180
    assert kept == apply_loss(msgs, 0.1, seed=3)
    assert apply_loss(msgs, 0.0, seed=3) == msgs
    # survivors keep their order
    it = iter(msgs)
    assert all(any(m == n for n in it) for m in kept)


def test_apply_loss_drops_the_fraction_as_written():
    # as floats, 0.29 * 100 and 0.57 * 100 fall just below 29 and 57
    msgs = _fuzz_corpus(100, seed=5)
    for rate, dropped in ((0.29, 29), (0.57, 57), (0.1, 10), (0.005, 0), (1.0, 100)):
        assert len(apply_loss(msgs, rate, seed=3)) == 100 - dropped, rate


def test_apply_loss_seed_changes_selection():
    msgs = _fuzz_corpus(200, seed=5)
    assert apply_loss(msgs, 0.1, seed=1) != apply_loss(msgs, 0.1, seed=2)


def test_apply_loss_rejects_bad_rate():
    with pytest.raises(ValueError):
        apply_loss([], 1.5, seed=0)


def test_messages_by_tick():
    msgs = _fuzz_corpus(50, seed=9)
    table = messages_by_tick(msgs)
    assert sum(len(v) for v in table.values()) == 50
    for tick, group in table.items():
        assert all(m.tick == tick for m in group)
