"""Acceptance gate: one test per release criterion, each printing a verdict line.

Run with ``pytest -v tests/test_acceptance.py``; the per-criterion verdicts are
echoed again in the terminal summary.  Parameters here are frozen: changing
seeds, run lengths, or tolerances changes what is being promised.
"""

import itertools
import math
import random
import statistics
import time

import numpy as np

from overhear import belief, compiled
from overhear.belief import init_beliefs
from overhear.cli import run_command
from overhear.harness import bench_scalability, evaluate_run, hypothesis_count_curve
from overhear.ingest import (INIT, TERM, ObservedMessage, apply_loss, format_log,
                             parse_kqml_log, parse_log)
from overhear.model import hazard, program_from_document
from overhear.progen import flatten_mu, grow_team, random_program, team_program
from overhear.recognizer import make_recognizer
from overhear.sim import SimConfig, simulate
from overhear.social import coherent_hypotheses, count_hypotheses, learn_comm_model

from conftest import DATA, brute_leaves, propagate_forward, snapshot
from oracles import engine_vector, exact_filter
from test_ingest import KQML_SAMPLE

CRITERION_LINES = []


def _record(num: int, label: str, ok: bool, details: str):
    line = f"C{num} {label}: {'PASS' if ok else 'FAIL'} ({details})"
    CRITERION_LINES.append(line)
    print(line)
    assert ok, line


def _solo(plans, transitions):
    return program_from_document({
        "teams": [{"name": "T", "parent": None}],
        "agents": [{"name": "solo", "team": "T"}],
        "root": "r",
        "plans": [{"id": "r", "name": "top", "team": "T"}] + plans,
        "transitions": transitions,
    })


def test_c01_oracle_equivalence():
    start = time.perf_counter()
    worst = 0.0
    mismatches = 0
    ticks_checked = 0
    for pid in range(20):
        p = random_program(pid, max_nodes=10)
        for seed in range(20):
            _, log = simulate(p, SimConfig(seed=seed, ticks=100, send_prob=0.5))
            states, vectors = exact_filter(p, 100, log)
            rec = make_recognizer(p, "array")  # one agent, "solo"
            beliefs = [snapshot(rec.beliefs["solo"]) for _ in rec.replay(log, 101)]
            for v, b in zip(vectors, beliefs):
                ev = engine_vector(p, states, b)
                worst = max(worst, float(np.max(np.abs(ev - v))))
                order = np.argsort(v)
                gap = v[order[-1]] - (v[order[-2]] if len(v) > 1 else 0.0)
                if gap > 1e-6 and int(np.argmax(ev)) != int(order[-1]):
                    mismatches += 1
                ticks_checked += 1
    secs = time.perf_counter() - start
    ok = worst <= 1e-6 and mismatches == 0 and secs < 60.0
    _record(1, "oracle equivalence", ok,
            f"L_inf={worst:.2e} argmax_mismatches={mismatches} "
            f"ticks={ticks_checked} runtime={secs:.1f}s")


def test_c02_analytic_decay():
    p = _solo(
        [{"id": "a", "name": "first-step", "team": "T", "parent": "r",
          "first_child": True, "lambda": 0.05},
         {"id": "b", "name": "second-step", "team": "T", "parent": "r",
          "lambda": 0.0}],
        [{"from": "a", "to": "b", "pi": 1.0, "mu": 0.0}])
    b = init_beliefs(p)
    worst = 0.0
    for k in range(1, 1001):
        propagate_forward(b, p)
        worst = max(worst, abs(b.active["a"] - math.exp(-0.05 * k)))
    ok = worst <= 1e-9
    _record(2, "analytic decay", ok, f"max_error={worst:.2e} over 1000 ticks")


def test_c03_mass_conservation():
    worst = 0.0
    for pid in range(10):
        p = random_program(100 + pid, allow_completion=False)
        b = init_beliefs(p)
        for _ in range(1000):
            propagate_forward(b, p)
            total = (sum(b.active[x] for x in brute_leaves(p))
                     + sum(b.blocked.values()))
            worst = max(worst, abs(total - 1.0))
    ok = worst <= 1e-9
    _record(3, "mass conservation", ok,
            f"max_drift={worst:.2e} over 10 programs x 1000 ticks")


def test_c04_full_block_special_case():
    lam = 0.3
    p = _solo(
        [{"id": "a", "name": "mute-step", "team": "T", "parent": "r",
          "first_child": True, "lambda": lam},
         {"id": "b", "name": "after-step", "team": "T", "parent": "r",
          "lambda": 0.0}],
        [{"from": "a", "to": "b", "pi": 1.0, "mu": 1.0}])
    b = init_beliefs(p)
    worst = 0.0
    leaked = 0.0
    for k in range(1, 301):
        propagate_forward(b, p)
        worst = max(worst, abs(b.blocked["a"] - (1.0 - math.exp(-lam * k))))
        leaked = max(leaked, b.active["b"])
    ok = worst <= 1e-12 and leaked == 0.0
    _record(4, "full-block special case", ok,
            f"blocked_error={worst:.2e} leaked_forward={leaked}")


def test_c05_hypothesis_counting_formula():
    universe = [f"plan{i}" for i in range(10_000)]

    def agrees(ks):
        sets = [set(universe[:k]) for k in ks]
        enumerated = {tup for tup in itertools.product(*sets)
                      if len(set(tup)) == 1}
        bound, incoherent = count_hypotheses(ks)
        return (coherent_hypotheses(sets) == enumerated
                and bound == len(enumerated) == min(ks)
                and incoherent == math.prod(ks) - min(ks))

    checked = 0
    ok = True
    for n in range(1, 5):
        for ks in itertools.product(range(1, 8), repeat=n):
            ok = ok and agrees(list(ks))
            checked += 1
    rng = random.Random(5)
    for _ in range(40):
        ks = [rng.randrange(1, 101) for _ in range(rng.randrange(1, 4))]
        while math.prod(ks) > 10_000:
            ks[ks.index(max(ks))] = max(1, ks[ks.index(max(ks))] // 2)
        ok = ok and agrees(ks)
        checked += 1
    for ks in ([10_000], [100, 100], [2, 5_000], [1, 1, 1, 1, 9_999]):
        ok = ok and agrees(ks)
        checked += 1
    _record(5, "hypothesis counting formula", ok,
            f"{checked} size vectors, products up to 10^4")


def test_c06_shared_hierarchy_agreement():
    mismatched = 0
    compared = 0
    for seed in range(10):
        tp = team_program(seed, chatter=0.0)
        trace, log = simulate(tp, SimConfig(seed=seed, ticks=400, team_mode=True,
                                            send_prob=1.0))
        ya, aa = [], []
        evaluate_run(tp, trace, log, mode="yoyo", hypotheses_out=ya)
        evaluate_run(tp, trace, log, mode="array", coherent=True,
                     hypotheses_out=aa)
        mismatched += abs(len(ya) - len(aa))
        mismatched += sum(1 for x, y in zip(ya, aa) if x != y)
        compared += len(ya)
    ok = compared >= 100 and mismatched == 0
    _record(6, "shared-hierarchy vs per-agent agreement", ok,
            f"{compared} checkpoints over 10 runs, {mismatched} mismatches")


def _ordering_runs():
    tp = team_program(0, chatter=0.25)
    rec = flatten_mu(tp, 0.2)
    for seed in range(10):
        trace, log = simulate(tp, SimConfig(seed=seed, ticks=900, team_mode=True,
                                            send_prob=0.3))
        _, sibling = simulate(tp, SimConfig(seed=seed + 100, ticks=900,
                                            team_mode=True, send_prob=0.3))
        yield rec, trace, log, sibling


def test_c07_technique_ordering():
    t_only, ct, ctm = [], [], []
    strict = 0
    for rec, trace, log, sibling in _ordering_runs():
        model = learn_comm_model(sibling, confidence=1.0)
        a_t = evaluate_run(rec, trace, log, mode="array", coherent=False).accuracy
        a_ct = evaluate_run(rec, trace, log, mode="array", coherent=True).accuracy
        a_ctm = evaluate_run(rec, trace, log, mode="array", coherent=True,
                             comm_model=model).accuracy
        t_only.append(a_t)
        ct.append(a_ct)
        ctm.append(a_ctm)
        if a_ctm > a_t:
            strict += 1
    m_t = statistics.mean(t_only)
    m_ct = statistics.mean(ct)
    m_ctm = statistics.mean(ctm)
    ok = m_ctm > m_ct > m_t and strict >= 8 and m_t < 0.3
    _record(7, "technique ordering", ok,
            f"means temporal={m_t:.3f} +coherence={m_ct:.3f} "
            f"+announcements={m_ctm:.3f}, strict {strict}/10")


def test_c08_loss_degradation():
    tp = team_program(0, chatter=0.25)
    rec = flatten_mu(tp, 0.2)
    drops = []
    ranges = []
    for seed in range(5):
        trace, log = simulate(tp, SimConfig(seed=seed, ticks=900, team_mode=True,
                                            send_prob=0.3))
        _, sibling = simulate(tp, SimConfig(seed=seed + 100, ticks=900,
                                            team_mode=True, send_prob=0.3))
        model = learn_comm_model(sibling, confidence=0.9)
        base = evaluate_run(rec, trace, log, mode="array", coherent=True,
                            comm_model=model).accuracy
        accs = []
        for loss_seed in (0, 1, 2):
            lossy = apply_loss(log, 0.1, loss_seed)
            accs.append(evaluate_run(rec, trace, lossy, mode="array",
                                     coherent=True, comm_model=model).accuracy)
        drops.extend(base - a for a in accs)
        ranges.append(max(accs) - min(accs))
    mean_drop = statistics.mean(drops)
    worst_range = max(ranges)
    ok = mean_drop <= 0.15 and worst_range <= 0.10
    _record(8, "loss degradation", ok,
            f"mean_drop={mean_drop * 100:.1f}pp "
            f"worst_seed_range={worst_range * 100:.1f}pp")


def test_c09_learning_curve_ordering():
    tp = team_program(0, chatter=0.25)
    _, log = simulate(tp, SimConfig(seed=1, ticks=400, team_mode=True,
                                    send_prob=0.3))
    rules = learn_comm_model(log, confidence=1.0)
    none = hypothesis_count_curve(tp, log)
    after = hypothesis_count_curve(tp, log, rules=rules)
    online = hypothesis_count_curve(tp, log, online=True)
    pointwise = all(a <= n for a, n in zip(after, none))
    between = sum(1 for a, o, n in zip(after, online, none) if a <= o <= n)
    started_wide = none[0] == len(brute_leaves(tp))
    ok = (len(none) >= 10 and pointwise and started_wide
          and between >= 0.8 * len(none))
    _record(9, "learning curve ordering", ok,
            f"{len(none)} exchanges, informed<=uninformed pointwise: {pointwise}, "
            f"online between at {between}/{len(none)}, first count {none[0]}")


def test_c10_scalability(monkeypatch):
    start = time.perf_counter()
    tp = team_program(0, chatter=0.25)
    m = len(tp.node_ids)
    teams = len(tp.team_hierarchy.teams)
    rows = bench_scalability(tp, range(11, 21), ticks=100)
    ok = m == 40 and len(rows) == 10
    for row, n in zip(rows, range(11, 21)):
        ok = ok and row["agents"] == n
        ok = ok and row["array_nodes"] == m * n
        ok = ok and row["yoyo_nodes"] == m + teams + n
        ok = ok and row["yoyo_visits"] == rows[0]["yoyo_visits"] == 100 * m
        ok = ok and row["array_visits"] == 100 * m * n
    grow = [b["yoyo_nodes"] - a["yoyo_nodes"] for a, b in zip(rows, rows[1:])]
    ok = ok and grow == [1] * 9

    # One log with messages, replayed on the program grown to each size from a
    # cold step memo: the steps yoyo computes must not depend on team size.
    _, log = simulate(tp, SimConfig(seed=1, ticks=300, team_mode=True))
    reads = []  # states the array layout's steps take, this tick
    quiet_step, commit_messages = belief.quiet_step, belief._commit_messages

    def counted_quiet_step(p, states, counter=None):
        reads.append(len(states))
        quiet_step(p, states, counter)

    def counted_commit(b, p, keys):
        reads.append(1)
        commit_messages(b, p, keys)

    monkeypatch.setattr(belief, "quiet_step", counted_quiet_step)
    monkeypatch.setattr(belief, "_commit_messages", counted_commit)
    misses, array_reads = {}, {}
    for n in (11, 1011):
        compiled._compile.cache_clear()  # and with it the step memo
        p = grow_team(tp, n - 11)  # a fresh program, so p.compiled is looked up again
        rec = make_recognizer(p, "yoyo")
        for _ in rec.replay(log, 300):
            for team in rec.units:
                rec.path(team)
        misses[n] = dict(p.compiled.memo.misses)
        rec = make_recognizer(p, "array")
        per_tick = set()
        for t in rec.replay(log, 300):
            if t:
                per_tick.add(sum(reads))
            reads.clear()
        array_reads[n] = "/".join(map(str, sorted(per_tick)))
    ok = ok and len(log) > 0 and misses[11]["commit"] > 0 and misses[11] == misses[1011]
    secs = time.perf_counter() - start
    ok = ok and secs < 10.0
    counts = ", ".join(f"{n} agents {'/'.join(map(str, misses[n].values()))}" for n in misses)
    _record(10, "scalability", ok,
            f"40-plan program, 11..20 agents, shared layout +1 node/agent, "
            f"flat shared visits; one {len(log)}-message log, yoyo memo misses "
            f"quiet/commit/best {counts}; array states read per tick "
            f"{array_reads[11]} and {array_reads[1011]}; runtime={secs:.2f}s")


def test_c11_wire_format_fidelity():
    msgs = parse_kqml_log(KQML_SAMPLE.read_text())
    tuples = [(m.sender, m.team, m.kind, m.plan) for m in msgs]
    records_ok = tuples == [
        ("teamquickset", "TEAM-EVAC", TERM, "determine-number-of-helos"),
        ("TEAM_auto2", "TEAM-ESCORT-FOLLOW", INIT, "prepare-to-execute-mission"),
    ] and [m.tick for m in msgs] == [0, 161]
    rng = random.Random(0)
    pool = ["alpha", "b-2", "TEAM_auto2", "x.y", "determine-number-of-helos",
            "wait-at-point", "p", "UPPER", "mixed-Case_09"]
    tick = 0
    corpus = []
    for _ in range(10_000):
        tick += rng.randrange(0, 3)
        corpus.append(ObservedMessage(tick, rng.choice(pool), rng.choice(pool),
                                      rng.choice((INIT, TERM)), rng.choice(pool)))
    round_trip_ok = parse_log(format_log(corpus)) == corpus
    ok = records_ok and round_trip_ok
    _record(11, "wire-format fidelity", ok,
            f"2 published records exact: {records_ok}, "
            f"10000-line round-trip: {round_trip_ok}")


def test_c12_command_determinism(tmp_path):
    program = str(DATA / "evac_team.json")
    outputs = []
    for name in ("one", "two"):
        run_dir = tmp_path / name
        assert run_command(["simulate", "--program", program, "--team-mode",
                            "--seed", "7", "--ticks", "300",
                            "--send-prob", "0.6", "--out", str(run_dir)]) == 0
        report = tmp_path / f"report-{name}.txt"
        assert run_command(["evaluate", "--program", program, "--team-mode",
                            "--log", str(run_dir / "log.txt"),
                            "--truth", str(run_dir / "trace.txt"),
                            "--out", str(report)]) == 0
        outputs.append(((run_dir / "trace.txt").read_bytes(),
                        (run_dir / "log.txt").read_bytes(),
                        report.read_bytes()))
    ok = outputs[0] == outputs[1] and all(len(part) > 0 for part in outputs[0])
    _record(12, "command determinism", ok,
            "simulate + evaluate byte-identical across two invocations")
