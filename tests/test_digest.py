"""Belief states and simulator output pinned bit for bit across commits.

A fixed replay sweep hashes every belief state that each recognizer layout
produces, tick by tick.  Its quantized corpora replay logs whose ticks are
divided by ``QUANTUM``, so one tick often holds several messages for one
agent or team, which the raw logs almost never do.  A change to the engine that should not move any
number (a faster forward step, say) must leave every pin unchanged; a
reordered float sum that flips one exact tie between leaves changes the pin
of each layout it reaches, and only those.

The same replay hashes what a monitor reads off those states: every unit's
``rec.path`` after every tick, and each team's ``team_most_likely`` (shared
layout) or each agent's ``most_likely_state`` (array layout) through
``path_names``, as a streaming monitor asks for them.  ``QUERY_SHA256``
pins these answers, so a faster query must name every pick the same.

A second sweep hashes the simulator's own output (trace text, log text and
transition count) in both modes, so a refactor of the simulator that should
not move one random draw must leave ``SIM_SHA256`` unchanged.  It is split
in two: ``SIM_MOVED_SHA256`` holds the agent-mode runs that an outage or a
TERMINATE edge out of the root reaches, and ``SIM_SHA256`` every other run.

A third pin, ``KERNEL_SHA256``, hashes each program's forward step
(``p.compiled.forward``, the walk of its step table) on seeded tables that
no run reaches, so a rewrite of the step or of how its table is built must
keep every floor and every zero-skip exact.

Two more pin what the program builds and counts: ``TABLES_SHA256`` hashes
the engine's position-keyed tables, so a rewrite of how the tables are
derived must build every one the same, and
``HYPOTHESIS_SHA256`` hashes the hypothesis-count curves, which no belief
state reaches.
"""

import dataclasses
import functools
import hashlib
import pathlib
import random
import struct

from overhear.belief import most_likely_state
from overhear.harness import hypothesis_count_curve
from overhear.ingest import format_log, messages_by_tick
from overhear.model import load_program_path, program_from_document
from overhear.progen import random_program, team_program
from overhear.recognizer import make_recognizer
from overhear.sim import (ALWAYS, MU_SAMPLED, NEVER, SimConfig, format_trace,
                          simulate)
from overhear.social import apply_comm_model, learn_comm_model
from overhear.yoyo import team_most_likely

DATA = pathlib.Path(__file__).resolve().parent.parent / "src" / "overhear" / "data"

TICKS = 150
RANDOM_PROGRAMS = 40
# quantized corpus -> (corpus whose programs it replays, team-mode logs); its
# logs' ticks are divided by QUANTUM
QUANTIZED = {"team_program//5": ("team_program", True),
             "team_program/agent//5": ("team_program", False)}
QUANTUM = 5
# (corpus, layout, coherent) -> sha256 of every state the layout steps through
SWEEP_SHA256 = {
    ("team_program", "yoyo", None):
        "ecfe753e0e32082719fe5696a5457f968ad2d521ba4ecb8c84e1fb7e51fbf9ae",
    ("team_program", "array", False):
        "f4a371ab635ef272a2d8d56f4b120f3d87ae1cf3e0fd63720c474f24f3abe0cd",
    ("team_program", "array", True):
        "6f52b308a098400de329b19303b021f52e3edbb164e9c40e6dc6b0a0f672bf65",
    ("nested", "yoyo", None):
        "b043cf8176ccf10b1105d85cd5b7ba3a90f5a61b23dae60c0e920c6a83311b4e",
    ("nested", "array", False):
        "4bfa195d6b40916bf215ab7908546e2b374998b536aaf752085923969e43d605",
    ("nested", "array", True):
        "72ae5b855fa8dc0efb7bc7b24bf2185247d4ed3bb0f3fda6c1b0fa9864512970",
    ("random_program", "array", False):
        "ccf468c182562f10818a95635e0c78639ed19f8a7f582d6f8557b6510a9da7d6",
    ("team_program//5", "yoyo", None):
        "2c0a8f3a6a5bf2bf5d5442260e4c6cb17a04206482673f15310b5e4241fae2a3",
    ("team_program/agent//5", "array", False):
        "2715f29f981c53c8bb0c35aea996edf646381115b47bdae25276eea3e4631b4f",
    ("team_program//5", "array", True):
        "730656db7baaadb6c864b5b6dff7ed555e87ec33c1d2c052c37a5121491fde21",
}

# (corpus, layout, coherent) -> sha256 of every answer read off those states
QUERY_SHA256 = {
    ("team_program", "yoyo", None):
        "7ee88bf1250c1fa24ab3f301c385744f2cdfae484f1e45aeececdeb36a165b23",
    ("team_program", "array", False):
        "43ecbc1715d0a932f15e4232c4874b37b0f4cf817aca8a9caf4623fceda54bdb",
    ("team_program", "array", True):
        "3899a0e66fef140eede3bb04b48e8028bf8b7ceda8b87e19becc7b2df590783a",
    ("nested", "yoyo", None):
        "1b9d56b752a58bed52bc597c93cf14e691c1ba17317dcbb460409e7540395049",
    ("nested", "array", False):
        "9a67b4540ab8426e7939d11053f5ad504f58a39cdaeee4bcb61b06c97527bd78",
    ("nested", "array", True):
        "e262a86e8b5f849f1bd9093b7a0e0de4d2b6cd2b6893654383ed21ecb13531fb",
    ("random_program", "array", False):
        "9e4c61d7009d48c0c1030f8a4600d4ef284f0933dd2045685c062fcdcbe5f852",
    ("team_program//5", "yoyo", None):
        "596385b20aaae0e7908a7b0735e02c832aaecac1c7ec7422be116298835f9754",
    ("team_program/agent//5", "array", False):
        "80ac922152350c425977b0558ba5607f63fa5193f6c1ccea22bc20247d63ba52",
    ("team_program//5", "array", True):
        "3f109757be5237f30eea151c4e7bc204d133cc1039b40fa693c1aa1e11612de4",
}

SIM_SHA256 = "9bfe566a4808e27250ff62b5931eb958c40cc3cb285db408ce208a03ea3ce6ac"
SIM_MOVED_SHA256 = "2db5e45f1d3ee4810753a2ef67f317dfc4fc56c3f3639125a460d87f8ee56c8e"
SIM_TICKS = 150

# sha256 of every program's forward step (and its view's) on arbitrary tables
KERNEL_SHA256 = "a4220434f57d9b338dbca4bf4a1feb8294bf58e6fadf0037ab544682926ce6a9"
KERNEL_STATES = 50
# the kinds of table ``digest_table`` draws
TABLE_KINDS = ("uniform", "sparse", "subnormal", "over")

# sha256 of every table program's position-keyed tables, and of its
# hypothesis-count curves
TABLES_SHA256 = "7f1a630bef3ed18a3e5971029048b86e7964bc4ad38506e97556ed73eb393d43"
HYPOTHESIS_SHA256 = "ea3923a3d4d1761b1fefa3c5c47846b8cf574570ff0455d12057029f20552cd9"


def _hash_state(h, b, steps: int):
    h.update(struct.pack("<q", steps))
    for table in (b.active, b.blocked):
        keys = sorted(table)
        h.update("\0".join(keys).encode())
        h.update(struct.pack(f"<{len(keys)}d", *(table[k] for k in keys)))


def sweep_programs(corpus: str) -> tuple[list, bool]:
    """The corpus's programs, and whether its logs come from team-mode runs.

    A ``QUANTIZED`` corpus gives the programs of the corpus it names, with
    the log mode it names.

    ``team_program(0..2)`` varies only the rates of one shape: one team
    level, every pi 1.  ``nested`` adds a second team level (evac_team and a
    climb that skips one, ``root_edge_program("LEFT1")``), a TERMINATE edge
    out of the root, and internal nodes that shed and so get the forward
    step's floors.  ``random_program`` adds pi < 1, duplicate plan names and
    completing roots, replayed from agent-mode runs.
    """
    if corpus in QUANTIZED:
        base, team_mode = QUANTIZED[corpus]
        return sweep_programs(base)[0], team_mode
    if corpus == "team_program":
        return [team_program(k) for k in range(3)], True
    if corpus == "nested":
        return [load_program_path(DATA / f"{name}.json", team_mode=True)
                for name in ("evac_team", "evac_mini")] + [
                    root_edge_program(), root_edge_program("LEFT1")], True
    return [random_program(k) for k in range(RANDOM_PROGRAMS)], False


def _hash_answers(h, rec, mode: str):
    """Every unit's ``rec.path``, then each team's (shared layout) or each
    agent's (array layout) most likely path through ``path_names``."""
    paths = [rec.path(unit) for unit in rec.units]
    if mode == "yoyo":
        p, b = rec.p, rec.belief
        paths += [p.path_names(team_most_likely(b, p, team)) for team in rec.teams]
    else:
        view = rec.view
        paths += [view.path_names(most_likely_state(rec.beliefs[agent], view))
                  for agent in rec.agents]
    h.update("".join("/".join(path) + "\n" for path in paths).encode())


def sweep_replays(corpus: str, mode: str, coherent: bool | None):
    """Each (label, recognizer, tick-grouped log) of the sweep: the corpus's
    programs x 2 seeds x 150 ticks, with and without a learned comm model.
    A ``QUANTIZED`` corpus replays each log with its ticks divided by
    ``QUANTUM``; the comm model still learns from the raw sibling log."""
    programs, team_mode = sweep_programs(corpus)
    quantum = QUANTUM if corpus in QUANTIZED else 1
    for prog, tp in enumerate(programs):
        for seed in range(2):
            _, log = simulate(tp, SimConfig(seed=seed, ticks=TICKS, team_mode=team_mode,
                                            send_prob=0.5))
            _, sibling = simulate(tp, SimConfig(seed=seed + 100, ticks=TICKS,
                                                team_mode=team_mode, send_prob=0.5))
            by_tick = messages_by_tick(
                [dataclasses.replace(m, tick=m.tick // quantum) for m in log])
            for rec_program in (tp, apply_comm_model(tp, learn_comm_model(sibling))):
                yield (f"{prog}/{seed}/{mode}/{coherent}".encode(),
                       make_recognizer(rec_program, mode, coherent), by_tick)


def warm_replays(corpus: str, mode: str, coherent: bool | None):
    """``sweep_replays``, each recognizer yielded after an equal one (same
    program fields, so the same step memo) has stepped through its log: the
    yielded replay meets only steps already taken."""
    for (_, warm, by_tick), replay in zip(sweep_replays(corpus, mode, coherent),
                                          sweep_replays(corpus, mode, coherent)):
        for t in range(TICKS):
            warm.step(by_tick.get(t, []))
        yield replay


def replay_digests(replays, mode: str) -> tuple[str, str]:
    """sha256 over every state that one layout steps through in
    ``replays``, (label, recognizer, tick-grouped log) triples such as
    ``sweep_replays`` yields, and sha256 over the answers read off each."""
    h, answers = hashlib.sha256(), hashlib.sha256()
    for label, rec, by_tick in replays:
        h.update(label)
        answers.update(label)
        for t in range(TICKS):
            rec.step(by_tick.get(t, []))
            if mode == "yoyo":
                _hash_state(h, rec.belief, t + 1)
            else:
                for agent in rec.agents:
                    _hash_state(h, rec.beliefs[agent], t + 1)
            _hash_answers(answers, rec, mode)
    return h.hexdigest(), answers.hexdigest()


@functools.cache
def sweep_digests(corpus: str, mode: str, coherent: bool | None) -> tuple[str, str]:
    """``replay_digests`` of ``sweep_replays``."""
    return replay_digests(sweep_replays(corpus, mode, coherent), mode)


def sweep_digest(corpus: str, mode: str, coherent: bool | None) -> str:
    """The state half of ``sweep_digests``."""
    return sweep_digests(corpus, mode, coherent)[0]


def query_digest(corpus: str, mode: str, coherent: bool | None) -> str:
    """The answer half of ``sweep_digests``, from the same replay."""
    return sweep_digests(corpus, mode, coherent)[1]


def root_edge_program(left: str = "LEFT"):
    """``mission`` has a TERMINATE edge of its own (mu 0.5).  Its first child
    ``split`` runs LEFT beside RIGHT; LEFT starts at ``left-task``, which
    completes, or at ``left-dead-end``, which has no transition out.

    ``left="LEFT1"`` moves LEFT's agents and plans into LEFT1, a subteam of
    LEFT, so evidence about them climbs into ``split`` past a team level
    that owns no plan."""
    subteam = [{"name": "LEFT1", "parent": "LEFT"}] if left == "LEFT1" else []
    return program_from_document({
        "teams": [{"name": "TF", "parent": None}, {"name": "LEFT", "parent": "TF"},
                  {"name": "RIGHT", "parent": "TF"}, *subteam],
        "agents": [{"name": "l1", "team": left}, {"name": "l2", "team": left},
                   {"name": "r1", "team": "RIGHT"}],
        "root": "m",
        "plans": [
            {"id": "m", "name": "mission", "team": "TF"},
            {"id": "split", "name": "split", "team": "TF", "parent": "m", "first_child": True},
            {"id": "after", "name": "after", "team": "TF", "parent": "m", "lambda": 0.1},
            {"id": "lt", "name": "left-task", "team": left, "parent": "split",
             "first_child": True, "lambda": 0.2},
            {"id": "dead", "name": "left-dead-end", "team": left, "parent": "split",
             "first_child": True, "lambda": 0.3},
            {"id": "rt", "name": "right-task", "team": "RIGHT", "parent": "split",
             "first_child": True, "lambda": 0.15},
        ],
        "transitions": [{"from": "lt", "to": "TERMINATE", "pi": 1.0, "mu": 0.6},
                        {"from": "rt", "to": "TERMINATE", "pi": 1.0, "mu": 0.3},
                        {"from": "split", "to": "after", "pi": 1.0, "mu": 0.5},
                        {"from": "after", "to": "TERMINATE", "pi": 1.0, "mu": 0.4},
                        {"from": "m", "to": "TERMINATE", "pi": 1.0, "mu": 0.5}],
    }, team_mode=True)


def sim_runs(moved: bool):
    """The simulator sweep's runs, as (label, program, SimConfig) pairs.

    ``moved=False`` gives the runs that the outage and root-edge rules do not
    reach: every team-mode run of ``team_program(0..2)`` and the ``nested``
    corpus, and every agent-mode run without an outage of the programs
    without a TERMINATE edge out of the root, ``team_program(0..2)``,
    evac_team, evac_mini and ``random_program(0..39)``.  ``moved=True`` gives
    the rest of the agent-mode runs: those with an outage, and every run of
    the two ``root_edge_program``s.  Each cell runs 2 seeds x 150 ticks.
    """
    team, nested = sweep_programs("team_program")[0], sweep_programs("nested")[0]
    plain = team + nested[:2] + sweep_programs("random_program")[0]  # no root edge
    if moved:
        cells = [(p, False, 4) for p in plain] + [(p, False, k) for p in nested[2:]
                                                  for k in range(5)]
    else:
        cells = [(p, True, k) for p in team + nested for k in range(5)] + [
            (p, False, k) for p in plain for k in range(4)]
    for i, (p, team_mode, k) in enumerate(cells):
        outage = {"fail_agent": p.team_hierarchy.agent_names[0],
                  "fail_from": 20, "fail_ticks": 40}
        setting = [{"comm_policy": MU_SAMPLED}, {"comm_policy": MU_SAMPLED, "send_prob": 0.5},
                   {"comm_policy": ALWAYS, "send_prob": 0.5}, {"comm_policy": NEVER},
                   {"comm_policy": MU_SAMPLED, "send_prob": 0.5, **outage}][k]
        for seed in range(2):
            yield f"{i}/{team_mode}/{k}/{seed}", p, SimConfig(
                seed=seed, ticks=SIM_TICKS, team_mode=team_mode, **setting)


def sim_digest(moved: bool = False) -> str:
    """sha256 over the trace text, log text and transition count of every
    run ``sim_runs(moved)`` gives."""
    h = hashlib.sha256()
    for label, p, cfg in sim_runs(moved):
        trace, log = simulate(p, cfg)
        h.update(f"{label}/{trace.transition_count}\n".encode())
        h.update(format_trace(trace).encode())
        h.update(format_log(log).encode())
    return h.hexdigest()


def digest_table(rng: random.Random, kind: str, size: int) -> list[float]:
    """A seeded belief table of one of ``TABLE_KINDS``."""
    if kind == "uniform":
        return [rng.random() for _ in range(size)]
    if kind == "sparse":  # mostly exact zeros, so most blocks skip
        return [rng.random() if rng.random() < 0.3 else 0.0 for _ in range(size)]
    if kind == "subnormal":  # about half below the smallest normal float
        return [rng.random() * 4e-308 for _ in range(size)]
    return [1.0 + rng.random() for _ in range(size)]  # every entry above 1


def kernel_digest() -> str:
    """sha256 over ``forward``'s output, as ``float.hex``, on seeded tables.

    The replay sweep only visits states reachable from the initial belief;
    here every program of the three sweep corpora, and its single-agent
    view, steps ``KERNEL_STATES`` tables of each kind: uniform in [0, 1),
    sparse with exact zeros, near-subnormal, and every entry above 1.  So
    the floors and the zero-skips run under masses no run produces.

    A team-mode program's step caps what it returns at 1, and the
    single-agent view's does not, so the pin covers both the cap and its absence.
    """
    h = hashlib.sha256()
    for corpus in ("team_program", "nested", "random_program"):
        for prog, p in enumerate(sweep_programs(corpus)[0]):
            for view, q in enumerate((p, p.single_agent_view())):
                rng = random.Random(f"{corpus}/{prog}/{view}")
                size = len(q.node_ids)
                for kind in TABLE_KINDS:
                    for _ in range(KERNEL_STATES):
                        active, blocked = q.compiled.forward(digest_table(rng, kind, size),
                                                    digest_table(rng, kind, size))
                        h.update(f"{corpus}/{prog}/{view}/{kind}\n".encode())
                        h.update(" ".join(map(float.hex, [*active, *blocked])).encode())
    return h.hexdigest()


def table_programs() -> list:
    """``team_program(0..6)``, ``random_program(0..39)``, evac_team and
    evac_mini; each is hashed with its single-agent view."""
    return ([team_program(k) for k in range(7)]
            + [random_program(k) for k in range(RANDOM_PROGRAMS)]
            + sweep_programs("nested")[0][:2])


def tables_digest() -> str:
    """sha256 over the engine's tables of every ``table_programs()``
    program and its single-agent view."""
    h = hashlib.sha256()
    for prog, p in enumerate(table_programs()):
        for view, q in enumerate((p, p.single_agent_view())):
            h.update(f"{prog}/{view}\n".encode())
            for table in (q.groups_at, q.evidence_climbs, q.team_edges, q.ancestors_at,
                          q.name_paths_at, q.leaves_by_team, q.named_index):
                h.update(repr(table).encode())
    return h.hexdigest()


def hypothesis_digest() -> str:
    """sha256 over ``hypothesis_count_curve`` of every ``table_programs()``
    program on its own log (seeds 0-2, team-mode runs of team-mode
    programs), with no rules and with rules learned from that log, each
    with ``online`` off and on."""
    h = hashlib.sha256()
    for prog, p in enumerate(table_programs()):
        for seed in range(3):
            _, log = simulate(p, SimConfig(seed=seed, ticks=TICKS, team_mode=p.team_mode,
                                           send_prob=0.5))
            for rules in (None, learn_comm_model(log)):
                for online in (False, True):
                    curve = hypothesis_count_curve(p, log, rules=rules, online=online)
                    h.update(f"{prog}/{seed}/{rules is None}/{online}:{curve}\n".encode())
    return h.hexdigest()


def test_belief_states_bit_identical():
    assert {key: sweep_digest(*key) for key in SWEEP_SHA256} == SWEEP_SHA256


def test_query_answers_bit_identical():
    assert {key: query_digest(*key) for key in SWEEP_SHA256} == QUERY_SHA256


def test_simulator_output_bit_identical():
    assert sim_digest() == SIM_SHA256


def test_simulator_outage_and_root_edge_output_bit_identical():
    assert sim_digest(moved=True) == SIM_MOVED_SHA256


def test_kernel_output_bit_identical():
    assert kernel_digest() == KERNEL_SHA256


def test_program_tables_bit_identical():
    assert tables_digest() == TABLES_SHA256


def test_hypothesis_counts_bit_identical():
    assert hypothesis_digest() == HYPOTHESIS_SHA256


if __name__ == "__main__":
    for key in SWEEP_SHA256:
        print(key, sweep_digest(*key))
    for key in SWEEP_SHA256:
        print("query", key, query_digest(*key))
    print("sim", sim_digest())
    print("sim moved", sim_digest(moved=True))
    print("kernel", kernel_digest())
    print("tables", tables_digest())
    print("hypotheses", hypothesis_digest())
