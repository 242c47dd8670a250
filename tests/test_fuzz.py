"""Property tests: program and trace loaders raise only their documented error
types, and traces survive a text round trip."""

import copy
import string

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from overhear.model import ProgramError, program_from_document, program_to_document
from overhear.progen import team_program
from overhear.sim import (GroundTruthTrace, SimulationError, format_trace,
                          parse_trace)

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
def _traces(draw):
    agents = draw(st.lists(_TOKEN, min_size=1, max_size=4, unique=True))
    state = st.tuples(st.lists(_TOKEN, min_size=1, max_size=3).map(tuple), st.booleans())
    steps = draw(st.lists(st.fixed_dictionaries({a: state for a in agents}),
                          min_size=1, max_size=5))
    return GroundTruthTrace(seed=draw(st.integers(-10 ** 6, 10 ** 6)),
                            agents=tuple(agents), steps=steps)


@settings(max_examples=200, deadline=None)
@given(_traces())
def test_trace_text_round_trip(trace):
    assert parse_trace(format_trace(trace)) == trace


@st.composite
def _mutated_trace_text(draw):
    lines = format_trace(draw(_traces())).splitlines()
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(["drop", "repeat", "token", "line"]))
        if op == "drop":
            del lines[i]
        elif op == "repeat":
            lines.insert(i, lines[i])
        elif op == "token":
            parts = lines[i].split() or [""]
            parts[draw(st.integers(0, len(parts) - 1))] = draw(
                st.sampled_from(["-1", "x", "99999999999", "9" * 5000, "", "a/b!", "##"]))
            lines[i] = " ".join(parts)
        else:
            lines[i] = draw(st.text(max_size=12))
        if not lines:
            break
    return "\n".join(lines)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_mutated_trace_text(), st.text(max_size=40)))
def test_fuzzed_trace_text_raises_only_simulation_error(text):
    try:
        parse_trace(text)
    except SimulationError:
        pass
