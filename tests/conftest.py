import math
import pathlib

import pytest

from overhear.belief import BeliefState, Value, _array_rule, _message_keys, commit
from overhear.model import TIE_TOLERANCE, load_program_path

DATA = pathlib.Path(__file__).resolve().parent.parent / "src" / "overhear" / "data"


def brute_leaves(p) -> tuple[str, ...]:
    """The ids of the plans that no plan names as its parent, sorted."""
    parents = {n.parent for n in p.plans}
    return tuple(sorted(n.id for n in p.plans if n.id not in parents))


def snapshot(b: BeliefState) -> BeliefState:
    """A state of b's masses that the steps that later move b leave as it is."""
    return BeliefState(b.act, b.blk, b.index)


def commit_messages(b: BeliefState, msgs, p):
    """Commit one tick's messages into b, one at a time, TERM before INIT:
    the array layout's commit (``belief.commit`` by ``_array_rule``) of
    their ``_message_keys``, which checks every message before b changes."""
    commit(b, p, _message_keys(p, msgs), _array_rule)


def held_leaves(p, b) -> tuple[int, ...]:
    """The positions of p's leaves where b, a state or a value, holds mass,
    ascending: the leaves whose ``act`` or ``blk`` entry is nonzero."""
    return tuple(x for x in p.leaf_index if b.act[x] or b.blk[x])


def propagate_down(x: int, rho: float, active: list[float], p, updated: set[int] | None = None):
    """Credit ``rho`` to the first children of the node at position x,
    recursively: the reference that ``model.descend`` of
    ``p.descents_at[x]`` follows bit for bit.

    Each first-child group gets the full ``rho`` (parallel subteams carry
    duplicated mass) and splits it evenly among its members.  Mutates the
    ``active`` table in place, and adds every credited position to
    ``updated`` when given.
    """
    for group in p.groups_at[x]:
        share = rho / len(group)
        for c in group:
            active[c] += share
            if updated is not None:
                updated.add(c)
            propagate_down(c, share, active, p, updated)


def _reference_pick(leaves, active, blocked):
    """The most-likely pick rule as a plain loop over ``leaves``, the
    reference that ``belief.pick_leaf`` and every query must agree with."""
    best, bar = None, -math.inf
    for leaf in leaves:
        mass = active[leaf] + blocked[leaf]
        if mass > bar:
            best, bar = leaf, mass * (1.0 + TIE_TOLERANCE)
    return best


def propagate_forward(b: BeliefState, p):
    """Advance b one tick with no observation, in place, with no memo: the
    memo-free reference that ``belief.quiet_step`` follows bit for bit.

    The step is p's forward step (``p.compiled.forward``, the walk of its
    step table), and b takes a value of the tables it returns.
    """
    b.value = Value(*p.compiled.forward(b.act, b.blk))


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
