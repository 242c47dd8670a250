"""Belief states pinned bit for bit across commits, one pin per layout.

A fixed replay sweep hashes every belief state that each recognizer layout
produces, tick by tick.  A change to the engine that should not move any
number (a faster forward step, say) must leave every pin unchanged; a
reordered float sum that flips one exact tie between leaves changes the pin
of each layout it reaches, and only those.
"""

import hashlib
import struct

from overhear.ingest import messages_by_tick
from overhear.progen import team_program
from overhear.recognizer import make_recognizer
from overhear.sim import SimConfig, simulate
from overhear.social import apply_comm_model, learn_comm_model

TICKS = 150
SWEEP_SHA256 = {
    ("yoyo", None): "ecfe753e0e32082719fe5696a5457f968ad2d521ba4ecb8c84e1fb7e51fbf9ae",
    ("array", False): "f4a371ab635ef272a2d8d56f4b120f3d87ae1cf3e0fd63720c474f24f3abe0cd",
    ("array", True): "6f52b308a098400de329b19303b021f52e3edbb164e9c40e6dc6b0a0f672bf65",
}


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


def test_belief_states_bit_identical():
    assert {layout: sweep_digest(*layout) for layout in SWEEP_SHA256} == SWEEP_SHA256

if __name__ == "__main__":
    for layout in SWEEP_SHA256:
        print(layout, sweep_digest(*layout))
