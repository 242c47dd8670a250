"""Belief states and simulator output pinned bit for bit across commits.

A fixed replay sweep hashes every belief state that each recognizer layout
produces, tick by tick.  A change to the engine that should not move any
number (a faster forward step, say) must leave every pin unchanged; a
reordered float sum that flips one exact tie between leaves changes the pin
of each layout it reaches, and only those.

A second sweep hashes the simulator's own output (trace text, log text and
transition count) in both modes, so a refactor of the simulator that should
not move one random draw must leave ``SIM_SHA256`` unchanged.
"""

import hashlib
import pathlib
import struct

from overhear.ingest import format_log, messages_by_tick
from overhear.model import load_program_path, program_from_document
from overhear.progen import team_program
from overhear.recognizer import make_recognizer
from overhear.sim import (ALWAYS, MU_SAMPLED, NEVER, SimConfig, format_trace,
                          simulate)
from overhear.social import apply_comm_model, learn_comm_model

DATA = pathlib.Path(__file__).resolve().parent.parent / "src" / "overhear" / "data"

TICKS = 150
SWEEP_SHA256 = {
    ("yoyo", None): "ecfe753e0e32082719fe5696a5457f968ad2d521ba4ecb8c84e1fb7e51fbf9ae",
    ("array", False): "f4a371ab635ef272a2d8d56f4b120f3d87ae1cf3e0fd63720c474f24f3abe0cd",
    ("array", True): "6f52b308a098400de329b19303b021f52e3edbb164e9c40e6dc6b0a0f672bf65",
}

SIM_SHA256 = "bea8b88384fc33b0aab6bb4f35d892dd302954e25fefabded98fd622e8ee2ac8"
SIM_TICKS = 150


def _hash_state(h, b):
    h.update(struct.pack("<q", b.time))
    for table in (b.active, b.blocked):
        keys = sorted(table)
        h.update("\0".join(keys).encode())
        h.update(struct.pack(f"<{len(keys)}d", *(table[k] for k in keys)))


def sweep_digest(mode: str, coherent: bool | None) -> str:
    """sha256 over every state of team_program(0..2) x 2 seeds x 150 ticks,
    with and without a learned comm model, as one layout steps through it."""
    h = hashlib.sha256()
    for prog in range(3):
        tp = team_program(prog)
        for seed in range(2):
            _, log = simulate(tp, SimConfig(seed=seed, ticks=TICKS, team_mode=True,
                                            send_prob=0.5))
            _, sibling = simulate(tp, SimConfig(seed=seed + 100, ticks=TICKS,
                                                team_mode=True, send_prob=0.5))
            by_tick = messages_by_tick(log)
            for rec_program in (tp, apply_comm_model(tp, learn_comm_model(sibling))):
                rec = make_recognizer(rec_program, mode, coherent)
                h.update(f"{prog}/{seed}/{mode}/{coherent}".encode())
                for t in range(TICKS):
                    rec.step(by_tick.get(t, []))
                    if mode == "yoyo":
                        _hash_state(h, rec.belief)
                    else:
                        for agent in rec.agents:
                            _hash_state(h, rec.beliefs[agent])
    return h.hexdigest()


def root_edge_program():
    """``mission`` has a TERMINATE edge of its own (mu 0.5).  Its first child
    ``split`` runs LEFT beside RIGHT; LEFT starts at ``left-task``, which
    completes, or at ``left-dead-end``, which has no transition out."""
    return program_from_document({
        "teams": [{"name": "TF", "parent": None}, {"name": "LEFT", "parent": "TF"},
                  {"name": "RIGHT", "parent": "TF"}],
        "agents": [{"name": "l1", "team": "LEFT"}, {"name": "l2", "team": "LEFT"},
                   {"name": "r1", "team": "RIGHT"}],
        "root": "m",
        "plans": [
            {"id": "m", "name": "mission", "team": "TF"},
            {"id": "split", "name": "split", "team": "TF", "parent": "m", "first_child": True},
            {"id": "after", "name": "after", "team": "TF", "parent": "m", "lambda": 0.1},
            {"id": "lt", "name": "left-task", "team": "LEFT", "parent": "split",
             "first_child": True, "lambda": 0.2},
            {"id": "dead", "name": "left-dead-end", "team": "LEFT", "parent": "split",
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


def sim_digest() -> str:
    """sha256 over the trace text, log text and transition count of every
    run in a fixed sweep: team_program(0..2), evac_team, evac_mini and
    ``root_edge_program`` x both modes x comm policy, send probability and
    outage x 2 seeds x 150 ticks."""
    programs = [team_program(i) for i in range(3)]
    programs += [load_program_path(DATA / f"{name}.json", team_mode=True)
                 for name in ("evac_team", "evac_mini")]
    programs.append(root_edge_program())
    h = hashlib.sha256()
    for i, p in enumerate(programs):
        outage = {"fail_agent": p.team_hierarchy.agent_names[0],
                  "fail_from": 20, "fail_ticks": 40}
        settings = [{"comm_policy": MU_SAMPLED}, {"comm_policy": MU_SAMPLED, "send_prob": 0.5},
                    {"comm_policy": ALWAYS, "send_prob": 0.5}, {"comm_policy": NEVER},
                    {"comm_policy": MU_SAMPLED, "send_prob": 0.5, **outage}]
        for team_mode in (False, True):
            for k, setting in enumerate(settings):
                for seed in range(2):
                    trace, log = simulate(p, SimConfig(seed=seed, ticks=SIM_TICKS,
                                                       team_mode=team_mode, **setting))
                    h.update(f"{i}/{team_mode}/{k}/{seed}/{trace.transition_count}\n"
                             .encode())
                    h.update(format_trace(trace).encode())
                    h.update(format_log(log).encode())
    return h.hexdigest()


def test_belief_states_bit_identical():
    assert {layout: sweep_digest(*layout) for layout in SWEEP_SHA256} == SWEEP_SHA256


def test_simulator_output_bit_identical():
    assert sim_digest() == SIM_SHA256


if __name__ == "__main__":
    for layout in SWEEP_SHA256:
        print(layout, sweep_digest(*layout))
    print("sim", sim_digest())
