"""Property tests: program, trace, log, KQML and communication-model loaders
raise only their documented error types, traces survive a text round trip,
the per-agent belief stays in [0, 1] without being clipped, no belief
value of either layout is ever -0.0, no negative value reaches the
shared layout's clips, which only cap at 1, and only a team-mode forward
step caps what it returns."""

import copy
import math
import pathlib
import random
import string

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from overhear import yoyo
from overhear.belief import init_beliefs
from overhear.ingest import INIT, TERM, IngestError, ObservedMessage, parse_kqml_log, parse_log
from overhear.model import ProgramError, program_from_document, program_to_document
from overhear.progen import team_program
from overhear.sim import (GroundTruthTrace, SimulationError, format_trace,
                          parse_trace)
from overhear.social import parse_comm_model
from overhear.yoyo import yoyo_tick

from conftest import commit_messages, propagate_forward
from programs import random_program

_BASE = program_to_document(team_program(0))
_NAMES = sorted({e["name"] for e in _BASE["teams"]} | {e["name"] for e in _BASE["agents"]}
                | {e["id"] for e in _BASE["plans"]} | {"TERMINATE"})
_SECTIONS = ("teams", "agents", "plans", "transitions", "root")

# JSON values, with names the document already uses so mutations can also
# rewire references (parents, teams, transition ends) into cycles and clashes
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.just(10 ** 400)
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=3)
    | st.sampled_from(_NAMES),
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.sampled_from(["name", "id", "team", "x"]), kids, max_size=2),
    max_leaves=5)


@st.composite
def _mutated_documents(draw):
    doc = copy.deepcopy(_BASE)
    for _ in range(draw(st.integers(1, 3))):
        section = draw(st.sampled_from(_SECTIONS))
        entries = doc.get(section)
        if section == "root" or not isinstance(entries, list) or not entries:
            doc[section] = draw(_JSON)
            continue
        i = draw(st.integers(0, len(entries) - 1))
        entry = entries[i]
        op = draw(st.sampled_from(["section", "entry", "value", "drop"]))
        if op == "section":
            doc[section] = draw(_JSON)
        elif op == "entry" or not isinstance(entry, dict) or not entry:
            entries[i] = draw(_JSON)
        elif op == "value":
            entry[draw(st.sampled_from(sorted(entry)))] = draw(_JSON)
        else:
            del entry[draw(st.sampled_from(sorted(entry)))]
    return doc


@settings(max_examples=300, deadline=None)
@given(_mutated_documents(), st.booleans())
def test_mutated_programs_raise_only_program_error(doc, team_mode):
    try:
        program_from_document(doc, team_mode=team_mode)
    except ProgramError:
        pass


# Trace tokens: no whitespace, and no '/' or '!' inside plan names.
_TOKEN = st.text(alphabet=string.ascii_letters + string.digits + "-_.#", min_size=1,
                 max_size=5)


@st.composite
def _traces(draw, shared=False):
    """A trace; when ``shared``, each row dict may stand for several
    consecutive ticks, as ``simulate``'s rows do while no run moves."""
    agents = draw(st.lists(_TOKEN, min_size=1, max_size=4, unique=True))
    state = st.tuples(st.lists(_TOKEN, min_size=1, max_size=3).map(tuple), st.booleans())
    steps = draw(st.lists(st.fixed_dictionaries({a: state for a in agents}),
                          min_size=1, max_size=5))
    if shared:
        steps = [row for row in steps for _ in range(draw(st.integers(1, 4)))]
    return GroundTruthTrace(seed=draw(st.integers(-10 ** 6, 10 ** 6)),
                            agents=tuple(agents), steps=steps)


@settings(max_examples=200, deadline=None)
@given(st.one_of(_traces(), _traces(shared=True)))
def test_trace_text_round_trip(trace):
    assert parse_trace(format_trace(trace)) == trace


# Values that loaders must reject or take in their stride: negative, huge and
# non-numeric numbers, empty tokens, comment and separator characters, and
# keywords of the formats in the wrong place.
_ODD_TOKENS = ["-1", "x", "99999999999", "9" * 5000, "", "a/b!", "##", "nan", "1e999",
               "INIT", "PLAN", ":team", "constant"]


@st.composite
def _mutated(draw, text: str) -> str:
    """Up to three line edits of ``text``: drop, repeat, replace one token,
    keep only the first token (so a ':field' line loses its value), or
    replace the whole line."""
    lines = text.splitlines()
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(["drop", "repeat", "token", "truncate", "line"]))
        if op == "drop":
            del lines[i]
        elif op == "repeat":
            lines.insert(i, lines[i])
        elif op == "token":
            parts = lines[i].split() or [""]
            parts[draw(st.integers(0, len(parts) - 1))] = draw(st.sampled_from(_ODD_TOKENS))
            lines[i] = " ".join(parts)
        elif op == "truncate":
            lines[i] = " ".join(lines[i].split()[:1])
        else:
            lines[i] = draw(st.text(max_size=12))
    return "\n".join(lines)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_traces().map(format_trace).flatmap(_mutated), st.text(max_size=40)))
def test_fuzzed_trace_text_raises_only_simulation_error(text):
    try:
        parse_trace(text)
    except SimulationError:
        pass


_LOG = "0 a1 ALPHA INIT mission\n3 a1 ALPHA TERM scout  # comment\n\n3 b2 BRAVO INIT hold\n"
_KQML = (pathlib.Path(__file__).parent / "data" / "sample_kqml.log").read_text()
_COMM = "CONFIDENCE 0.9\nPLAN scout INIT\n# learned\nPLAN hold TERM\n"


@pytest.mark.parametrize("parse,base", [(parse_log, _LOG), (parse_kqml_log, _KQML),
                                        (parse_comm_model, _COMM)],
                         ids=["parse_log", "parse_kqml_log", "parse_comm_model"])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_fuzzed_message_loaders_raise_only_ingest_error(parse, base, data):
    text = data.draw(st.one_of(_mutated(base), st.text(max_size=40)))
    try:
        out = parse(text)
    except IngestError:
        return
    if parse is not parse_comm_model:
        assert all(m.tick >= 0 for m in out)


def _stressed_program(seed: int, rate: float | None, silenced: int | None):
    """random_program(seed, max_nodes=14), with every leaf's lambda set to
    ``rate`` and, for a ``silenced`` seed, half its transitions' mu set to 0.

    High rates and silent edges make the forward step round where it can:
    hazards near 1 shed a leaf's whole mass, and a node whose edges are all
    silent keeps a blocked share ``1 - sum(pi)`` that rounds to about -1e-16.
    """
    doc = program_to_document(random_program(seed, max_nodes=14))
    for plan in doc["plans"]:
        if rate is not None and "lambda" in plan:
            plan["lambda"] = rate
    if silenced is not None:
        edges = doc["transitions"]
        for t in random.Random(silenced).sample(edges, len(edges) // 2):
            t["mu"] = 0.0
    return program_from_document(doc)


_ARRAY_PROGRAMS = st.one_of(
    st.builds(_stressed_program, st.integers(0, 299),
              st.sampled_from([None, 5.0, 40.0, 1000.0]), st.none() | st.integers(0, 3)),
    st.integers(0, 6).map(lambda seed: team_program(seed).single_agent_view()))
# a quiet tick, or one message of a kind about the n-th plan name
_TICKS = st.lists(st.none() | st.tuples(st.sampled_from([INIT, TERM]), st.integers(0, 99)),
                  max_size=60)


@settings(max_examples=300, deadline=None)
@given(_ARRAY_PROGRAMS, _TICKS)
# the root's active mass rounds below 0 after 31 ticks unless the step floors it
@example(_stressed_program(174, 40.0, 1), [None] * 40)
# a leaf's blocked share rounds below 0 unless the step floors ``keep``
@example(_stressed_program(213, 5.0, 1), [None])
def test_array_belief_stays_in_bounds_unclipped(p, ticks):
    names = sorted({n.name for n in p.plans})
    b = init_beliefs(p)
    for t, tick in enumerate(ticks, 1):
        if tick is None:
            propagate_forward(b, p)
        else:
            kind, i = tick
            commit_messages(b, [ObservedMessage(t, "solo", "SOLO", kind,
                                                names[i % len(names)])], p)
        for table in (b.active, b.blocked):
            for x, v in table.items():
                assert 0.0 <= v <= 1.0 + 1e-12, (t, x, v)
                # the step skips nodes that shed 0.0, exact only with no -0.0
                assert math.copysign(1.0, v) == 1.0, (t, x, v)


_TEAM_PROGRAMS = tuple(team_program(seed) for seed in range(7))
# a quiet tick, or up to three messages: (kind, n-th agent, n-th plan name)
_TEAM_TICKS = st.lists(st.none() | st.lists(
    st.tuples(st.sampled_from([INIT, TERM]), st.integers(0, 99), st.integers(0, 99)),
    min_size=1, max_size=3), max_size=60)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_TEAM_PROGRAMS), _TEAM_TICKS)
def test_shared_belief_stays_in_bounds_without_negative_zero(p, ticks):
    names = sorted({n.name for n in p.plans})
    agents = p.team_hierarchy.agents
    b = init_beliefs(p)
    for t, msgs in enumerate(ticks, 1):
        heard = []
        for kind, i, j in msgs or ():
            agent, team = agents[i % len(agents)]
            heard.append(ObservedMessage(t, agent, team, kind, names[j % len(names)]))
        yoyo_tick(p, b, heard)
        for table in (b.active, b.blocked):
            for x, v in table.items():
                assert 0.0 <= v <= 1.0 and math.copysign(1.0, v) == 1.0, (t, x, v)


def _checked(step, reached: list, tables):
    """``step``, then asserting that no value of the tables it leaves is
    negative; ``tables`` picks them from the step's result and arguments."""
    def checked(*args):
        result = step(*args)
        for table in tables(result, *args):
            for x, v in enumerate(table):
                assert v >= 0.0, (step.__name__, x, v)
        reached.append(step.__name__)
        return result
    return checked


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_TEAM_PROGRAMS), _TEAM_TICKS)
def test_shared_belief_reaches_the_clamps_non_negative(p, ticks):
    # both clips only cap at 1, which is exact only if nothing below 0 reaches
    # them; a cap moves no value below 1, so check what each capped step
    # leaves: the states a quiet step steps, and the tables an evidence
    # tick's commit (``_climb``) returns.  The step memo is cleared before
    # every tick, so each tick is computed and reaches its clip rather than
    # following a linked step.
    names = sorted({n.name for n in p.plans})
    agents = p.team_hierarchy.agents
    reached: list[str] = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(yoyo, "quiet_step", _checked(
            yoyo.quiet_step, reached,
            lambda result, p, states, *args: [t for b in states for t in (b.act, b.blk)]))
        mp.setattr(yoyo, "_climb", _checked(yoyo._climb, reached, lambda result, *args: result))
        b = init_beliefs(p)
        for t, msgs in enumerate(ticks, 1):
            heard = [ObservedMessage(t, *agents[i % len(agents)], kind, names[j % len(names)])
                     for kind, i, j in msgs or ()]
            p.compiled.memo.clear()
            yoyo_tick(p, b, heard)
    assert len(reached) == len(ticks)


@settings(max_examples=50, deadline=None)
@given(st.sampled_from(_TEAM_PROGRAMS), st.randoms(use_true_random=False))
def test_only_the_team_mode_kernel_caps_at_one(p, rng):
    # every entry above 1: the team-mode step caps all it returns, and the
    # view's stays linear, so doubling its input doubles its output exactly
    size = len(p.node_ids)
    active, blocked = ([1.0 + rng.random() for _ in range(size)] for _ in range(2))
    team_active, team_blocked = p.compiled.forward(active, blocked)
    assert max(team_active + team_blocked) == 1.0
    view = p.single_agent_view().compiled.forward
    view_active, view_blocked = view(active, blocked)
    assert max(view_active + view_blocked) > 1.0
    doubled = view([2.0 * v for v in active], [2.0 * v for v in blocked])
    assert doubled == ([2.0 * v for v in view_active], [2.0 * v for v in view_blocked])
