"""Self-tests of the benchmark's tail-percentile rule and self-time arithmetic.

    python3 -m pytest -q perfbench
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from spans import (TAIL_BEYOND, Span, SpanRecorder, best_per_step,  # noqa: E402
                   covered_ns, percentile, self_times, tail_percentile)


def _beyond(samples, value):
    return sum(1 for x in samples if x > value)


def test_tail_leaves_ten_samples_beyond():
    for n in (21, 60, 300, 2000):
        samples = list(range(n))
        pct = tail_percentile(n)
        assert _beyond(samples, percentile(samples, pct)) == TAIL_BEYOND
    assert tail_percentile(2000) == 99.5
    assert tail_percentile(60) == 100.0 * 50 / 60


def test_tail_is_highest_such_percentile():
    samples = list(range(300))
    pct = tail_percentile(300)
    # one rank higher leaves fewer than ten beyond
    assert _beyond(samples, percentile(samples, pct + 100.0 / 300)) == TAIL_BEYOND - 1


def test_best_per_step_takes_each_steps_least_latency():
    replays = [{1: 5.0, 2: 1.0, 3: 9.0}, {1: 4.0, 2: 3.0}, {1: 6.0, 2: 2.0, 3: 7.0}]
    assert best_per_step(replays) == [4.0, 1.0, 7.0]
    assert best_per_step([]) == []


def test_tail_of_short_replay_is_the_median():
    assert tail_percentile(5) == 50.0
    assert tail_percentile(20) == 50.0
    assert percentile([3, 1, 2], 50) == 2


def test_covered_merges_overlaps_and_clips():
    assert covered_ns(0, 100, []) == 0
    assert covered_ns(0, 100, [(10, 30), (20, 50)]) == 40
    assert covered_ns(0, 100, [(90, 120), (-5, 5)]) == 15
    assert covered_ns(0, 100, [(40, 60), (10, 20)]) == 30


def _span(sid, parent, start, end):
    return Span(sid, parent, f"m.f{sid}", start, end, "r")


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span(0, -1, 0, 100),
        _span(1, 0, 10, 40),
        _span(2, 1, 15, 35),   # grandchild: inside its parent, not counted twice
        _span(3, 0, 50, 70),
    ]
    selfs = self_times(spans)
    assert selfs == {0: 50, 1: 10, 2: 20, 3: 20}
    assert sum(selfs.values()) == spans[0].duration_ns


def test_recorder_nests_spans_and_restores_bindings():
    from overhear import cli, ingest

    original = ingest.parse_log
    rec = SpanRecorder()
    rec.install(ingest, "parse_log")
    try:
        assert cli.parse_log is not original and ingest.parse_log is not original
        outer = rec.wrap("test.outer", lambda text: cli.parse_log(text))
        rec.run_id = "r1"
        messages = outer("3 a T INIT p\n")
    finally:
        rec.uninstall()
    assert cli.parse_log is original and ingest.parse_log is original
    assert len(messages) == 1
    inner, top = sorted(rec.finished(), key=lambda s: s.parent)[::-1]
    assert (top.name, top.parent) == ("test.outer", -1)
    assert (inner.name, inner.parent, inner.run_id) == ("ingest.parse_log", top.id, "r1")
    assert top.start_ns <= inner.start_ns <= inner.end_ns <= top.end_ns
