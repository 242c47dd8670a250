import pathlib

import pytest

from overhear.belief import BeliefState
from overhear.model import load_program_path

DATA = pathlib.Path(__file__).resolve().parent.parent / "src" / "overhear" / "data"


def brute_leaves(p) -> tuple[str, ...]:
    """The ids of the plans that no plan names as its parent, sorted."""
    parents = {n.parent for n in p.plans}
    return tuple(sorted(n.id for n in p.plans if n.id not in parents))


def snapshot(b: BeliefState) -> BeliefState:
    """A copy of state b, which the steps that later move b leave as it is."""
    return BeliefState(list(b.act), list(b.blk), b.index)


@pytest.fixture
def evac_mini():
    return load_program_path(DATA / "evac_mini.json", team_mode=True)


@pytest.fixture
def evac_mini_single():
    return load_program_path(DATA / "evac_mini.json")


@pytest.fixture
def evac_team():
    return load_program_path(DATA / "evac_team.json", team_mode=True)


def pytest_terminal_summary(terminalreporter):
    import sys

    mod = next((m for name, m in sys.modules.items()
                if name.rsplit(".", 1)[-1] == "test_acceptance"), None)
    lines = getattr(mod, "CRITERION_LINES", ())
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
