"""Self-test of ``tools/ab.py``: one tree against itself, a few rounds."""

import importlib.util
import pathlib
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _ab():
    spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_ab_compares_a_tree_with_itself(capsys, monkeypatch):
    ab = _ab()
    monkeypatch.setattr(ab, "REPEATS", 1)
    monkeypatch.setattr(ab, "TICKS", 60)  # still quiet and evidence ticks in each replay
    monkeypatch.setattr(ab, "ONLINE_TICKS", 120)
    monkeypatch.setattr(ab, "CROWD", 20)
    monkeypatch.setattr(ab, "HORDE", 20)
    monkeypatch.setattr(ab, "HORDE_TICKS", 60)
    monkeypatch.setattr(ab, "ONLINE_REPLAYS", 2)
    calls = []
    measure, measure_online = ab.measure, ab.measure_online

    def counted(side):
        calls.append(side.harness.__package__)
        return measure(side)

    def counted_online(side, seed):
        calls.append((side.harness.__package__, seed))
        return measure_online(side, seed)

    monkeypatch.setattr(ab, "measure", counted)
    monkeypatch.setattr(ab, "measure_online", counted_online)
    start = time.perf_counter()
    report = ab.compare(ROOT, ROOT, rounds=2)
    assert time.perf_counter() - start < 5.0
    # one untimed pass per side, then the timed rounds in alternating order,
    # then the online rounds, each on runs of its own
    first, replays = ab.ONLINE_SEED, ab.ONLINE_REPLAYS
    assert calls == ["ab_parent", "ab_change", "ab_parent", "ab_change", "ab_change",
                     "ab_parent", ("ab_parent", first), ("ab_change", first),
                     ("ab_change", first + replays), ("ab_parent", first + replays)]
    workloads = ("setup", "forward", "quiet_tick", "evidence_tick", "evaluate_run", "stream",
                 "query", "online")
    assert set(report) == {f"{layout}.{workload}" for layout in ab.LAYOUTS
                           for workload in workloads} | {"parse_trace", "array.online_1011",
                                                         "array.coherent_online_1011",
                                                         "array.online_10011"}
    for row in report.values():
        assert row["equal"] and row["rounds"] == 2 and 0 <= row["wins"] <= 2
        assert row["parent_min"] > 0.0 and row["change_min"] > 0.0
        lo, hi = row["ratio_range"]
        assert 0.0 < lo <= row["median_ratio"] <= hi
    online = [name for name in report if "online" in name]
    assert [name for name, row in report.items() if "counts" in row] == online
    for name in online:
        for counts in report[name]["counts"]:
            # this tree compiles neither, so prints no count of them
            assert "live kernels" not in counts and "evidence functions" not in counts
            hits = [v for k, v in counts.items() if k.endswith(" hits")]
            # an array team query links no answer, so has no hit rate
            assert len(hits) == (2 if name == "array.coherent_online_1011" else 3)
            assert all(0.0 <= v <= 1.0 for v in hits)
            misses = [k for k in counts if k.endswith(" misses")]
            assert len(misses) == len(hits) and "evictions" in counts
    # both packages are gone
    assert not [name for name in sys.modules if name.startswith(("ab_parent", "ab_change"))]
    assert ab.main([str(ROOT), str(ROOT), "--rounds", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split()[0] == "workload" and len(lines) == 1 + len(report) + 2 * len(online)
    assert lines[-1].startswith("array.online_10011 change: quiet hits ")
    assert "quiet misses " in lines[-1] and "evictions 0" in lines[-1]
