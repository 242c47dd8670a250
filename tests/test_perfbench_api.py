"""The library calls perfbench makes, checked without running the benchmark.

perfbench times functions below the recognizer interface, so renaming one
would otherwise surface only when the benchmark runs.
"""

import importlib.util
import math
import pathlib
import sys

import pytest

from overhear.ingest import messages_by_tick
from overhear.progen import team_program
from overhear.sim import SimConfig, simulate

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # bench.py imports its sibling spans.py
    spec = importlib.util.spec_from_file_location("perfbench_bench", PERFBENCH / "bench.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_exist(bench):
    for module, name, _ in bench.TRACED:
        assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"


def _bad_mass(states) -> int:
    """perfbench's ``bad_mass``, read off the final states as it reads them."""
    return sum(1 for s in states for part in (s.active, s.blocked)
               for v in part.values() if not (math.isfinite(v) and v >= 0.0))


def test_stream_calls_run(bench):
    # the streamed replay's calls, with the positional arguments perfbench
    # passes, and its reads of the belief tables outside the timed step
    yoyo, belief = bench.yoyo, bench.belief
    p = team_program(0)
    _, log = simulate(p, SimConfig(seed=1, ticks=60, team_mode=True))
    by_tick = messages_by_tick(log)
    assert any(by_tick.get(t) for t in range(1, 60))
    h = p.team_hierarchy
    teams = sorted({h.agent_team(a) for a in h.agent_names})

    counter = belief.VisitCounter()
    b = yoyo.team_init_beliefs(p)
    assert len(b.active) == len(p.node_ids)
    for t in range(1, 60):
        yoyo.yoyo_tick(p, b, by_tick.get(t, []), counter)
        for team in teams:
            assert p.path_names(yoyo.team_most_likely(b, p, team))[0] == "mission"
    assert _bad_mass([b]) == 0

    view = p.single_agent_view()
    beliefs = {a: belief.init_beliefs(view) for a in h.agent_names}
    programs = {a: view for a in h.agent_names}
    assert sum(len(s.active) for s in beliefs.values()) == len(h.agent_names) * len(p.node_ids)
    for t in range(1, 60):
        belief.array_overseer_tick(beliefs, programs, by_tick.get(t, []), counter)
        for a in h.agent_names:
            assert view.path_names(belief.most_likely_state(beliefs[a], view))[0] == "mission"
    assert _bad_mass(beliefs.values()) == 0
    assert counter.visits > 0
