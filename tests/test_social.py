import itertools
import math
import random

import pytest

from overhear.ingest import INIT, TERM, IngestError, ObservedMessage
from overhear.model import TERMINATE
from overhear.social import (CommModel, apply_comm_model, coherent_hypotheses,
                             count_hypotheses, format_comm_model, learn_comm_model,
                             parse_comm_model, DEFAULT_UNPREDICTED_MU)


def test_coherent_hypotheses_examples():
    assert coherent_hypotheses([{"A", "B"}, {"A", "C"}]) == {("A", "A")}
    assert coherent_hypotheses([{"A"}, {"A"}, {"A"}]) == {("A", "A", "A")}
    assert coherent_hypotheses([{"A"}, {"B"}]) == set()


def test_count_examples():
    assert count_hypotheses((2, 3, 2)) == (2, 10)
    assert count_hypotheses((1, 1, 1, 1)) == (1, 0)
    assert count_hypotheses((4, 4, 4, 4)) == (4, 252)


def _enumerate(sets):
    return {tup for tup in itertools.product(*sets)
            if len(set(tup)) == 1}


def test_counting_matches_enumeration_on_nested_sets():
    rng = random.Random(13)
    universe = [f"plan{i}" for i in range(12)]
    for _ in range(60):
        n = rng.randrange(1, 5)
        ks = [rng.randrange(1, 9) for _ in range(n)]
        while math.prod(ks) > 10_000:
            ks[ks.index(max(ks))] -= 1
        # nested prefixes of one ranked list: the setup the formula is exact for
        sets = [set(universe[:k]) for k in ks]
        coherent = coherent_hypotheses(sets)
        assert coherent == _enumerate(sets)
        bound, incoherent = count_hypotheses(ks)
        assert len(coherent) == bound == min(ks)
        assert incoherent == math.prod(ks) - min(ks)


def test_coherent_bound_holds_on_arbitrary_sets():
    rng = random.Random(14)
    universe = [f"plan{i}" for i in range(8)]
    for _ in range(100):
        sets = [set(rng.sample(universe, rng.randrange(1, 6)))
                for _ in range(rng.randrange(1, 4))]
        coherent = coherent_hypotheses(sets)
        assert coherent == _enumerate(sets)
        assert len(coherent) <= min(len(s) for s in sets)


def test_learn_comm_model_idempotent():
    msgs = [ObservedMessage(0, "a", "T", TERM, "determine-number-of-helos"),
            ObservedMessage(3, "b", "T", INIT, "fly-flight-plan")]
    model = learn_comm_model(msgs)
    assert model.predicts("determine-number-of-helos", TERM)
    assert model.predicts("fly-flight-plan", INIT)
    assert not model.predicts("fly-flight-plan", TERM)
    again = learn_comm_model(msgs, model)
    assert again.rules == model.rules
    assert learn_comm_model([], model).rules == model.rules


def test_comm_model_round_trip():
    model = CommModel(rules=frozenset({("a-plan", INIT), ("b-plan", TERM)}),
                      confidence=0.9)
    assert parse_comm_model(format_comm_model(model)) == model
    assert format_comm_model(model) == format_comm_model(
        parse_comm_model(format_comm_model(model)))


@pytest.mark.parametrize("text, message", [
    ("PLAN a INIT\nCONFIDENCE abc\n", "line 2: confidence must be a number, got 'abc'"),
    ("CONFIDENCE 2\n", "line 1: confidence must be in (0, 1], got '2'"),
    ("# model\n\nCONFIDENCE nan\n", "line 3: confidence must be in (0, 1], got 'nan'"),
    ("CONFIDENCE 0.5\nPLAN a DONE\n", "line 2: unrecognized communication-model line"),
    ("RULE a INIT\n", "line 1: unrecognized communication-model line 'RULE a INIT'"),
    ("CONFIDENCE 0.5\n# again\nCONFIDENCE 0.9\n",
     "line 3: a second CONFIDENCE line; the first is line 1"),
])
def test_parse_comm_model_errors_name_the_line(text, message):
    with pytest.raises(IngestError) as exc:
        parse_comm_model(text)
    assert message in str(exc.value)


def test_apply_comm_model_rewrites_mu(evac_team):
    model = CommModel(rules=frozenset({("process-orders", TERM)}), confidence=0.9)
    q = apply_comm_model(evac_team, model)
    assert q.team_mode
    for t in q.transitions:
        if t.dst == TERMINATE:
            assert t.mu == 0.0  # completion edges never announce
        elif t.src == "n1":
            assert t.mu == 0.9
        else:
            assert t.mu == DEFAULT_UNPREDICTED_MU


def test_apply_comm_model_init_rule(evac_team):
    model = CommModel(rules=frozenset({("fly-flight-plan", INIT)}), confidence=1.0)
    q = apply_comm_model(evac_team, model)
    (t,) = [t for t in q.transitions if t.dst == "n2"]
    assert t.mu == 1.0


def test_apply_comm_model_ignores_unknown_plans(evac_team):
    model = CommModel(rules=frozenset({("not-a-plan", INIT)}), confidence=1.0)
    q = apply_comm_model(evac_team, model)
    for t in q.transitions:
        if t.dst != TERMINATE:
            assert t.mu == DEFAULT_UNPREDICTED_MU


def test_confidence_validation():
    with pytest.raises(ValueError):
        CommModel(rules=frozenset(), confidence=0.0)
    with pytest.raises(ValueError):
        CommModel(rules=frozenset(), confidence=1.5)
