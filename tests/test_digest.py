"""Belief states pinned bit for bit across commits.

A fixed replay sweep hashes every belief state that both recognizer layouts
produce, tick by tick.  A change to the engine that should not move any
number (a faster forward step, say) must leave the digest unchanged; a
reordered float sum that flips one exact tie between leaves changes it.
"""

import hashlib
import struct

from overhear.ingest import messages_by_tick
from overhear.progen import team_program
from overhear.recognizer import make_recognizer
from overhear.sim import SimConfig, simulate
from overhear.social import apply_comm_model, learn_comm_model

TICKS = 150
LAYOUTS = (("yoyo", None), ("array", False), ("array", True))
SWEEP_SHA256 = "4ff9316995504424d6ee9d94d9444cfb564f911ad66dd20db6c65215059136c0"


def _hash_state(h, b):
    h.update(struct.pack("<q", b.time))
    for table in (b.active, b.blocked):
        keys = sorted(table)
        h.update("\0".join(keys).encode())
        h.update(struct.pack(f"<{len(keys)}d", *(table[k] for k in keys)))


def sweep_digest() -> str:
    """sha256 over every state of team_program(0..2) x 2 seeds x 150 ticks,
    with and without a learned comm model, in yoyo, array and coherent array."""
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
                for mode, coherent in LAYOUTS:
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
    assert sweep_digest() == SWEEP_SHA256


if __name__ == "__main__":
    print(sweep_digest())
