#!/usr/bin/env python3
"""In-process A/B timing of two source trees of overhear.

    python3 tools/ab.py PARENT_DIR CHANGE_DIR [--rounds N]

Each directory is a checkout of the repository; a parent commit's tree can
be had without a network with ``git archive <rev> | tar -x -C PARENT_DIR``.
Both trees' ``src/overhear`` packages are loaded into this one process,
each under its own package name (no module imports ``overhear`` by its
absolute name, so each side's relative imports stay within it), and every
workload is built from each side's own modules:

- ``<layout>.quiet_tick`` and ``<layout>.evidence_tick``: the mean time of
  a step without and with messages, over one replay of a seeded run of
  ``team_program(0)`` of ``TICKS`` ticks, for the shared layout (``yoyo``,
  a team-mode run) and the array layout (``array``, an agent-mode run on
  the program loaded without team mode, one belief per agent);
- ``<layout>.setup``: perfbench's set-up, what a user pays before the
  first tick: ``model.load_program`` of ``team_program(0)``'s document
  text, in the layout's mode, and the layout's initial states, one for
  ``yoyo`` and one per agent on the single-agent view for ``array``;
- ``<layout>.evaluate_run``: one ``harness.evaluate_run`` of that run with
  a comm model learned from a second run, on a fresh program load;
- ``parse_trace``: ``sim.parse_trace`` of the ``yoyo`` run's trace text;
- ``<layout>.stream``: perfbench's streamed step, one tick plus every
  unit's most-likely query (``path``), replaying that run on the program
  with the learned comm model applied.  Each tick's time is its best of
  ``REPEATS`` replays and the sample is the median over ticks, the
  in-process counterpart of perfbench's ``tick_p50_us``;
- ``<layout>.query``: the queries of that same replay alone, every unit's
  ``path`` on each tick's states, timed apart from the step, so the query
  layer has a ratio of its own;
- ``<layout>.online``: the on-line case, runs that never repeat.  Each
  round replays ``ONLINE_REPLAYS`` fresh runs of ``ONLINE_TICKS`` ticks,
  each with a seed no other replay uses, and samples the median of their
  times.  Each replay simulates its run, clears every compile cache of
  the side's ``compiled`` module (and with them the step memo, which
  hangs on a cached object), loads the program afresh and replays the
  run once: each tick's step and every unit's ``path``.
  ``array.online_1011`` does the same for the array layout in agent mode
  (not coherent: one belief per agent, each message routed to its sender
  alone, an agent-mode run) on ``grow_team(team_program(0), CROWD)``,
  1,011 agents, over ``TICKS`` ticks.  After the table the report prints, per side and online
  workload, the step memo's hit rates in the last replay of the last
  round.

Each side first runs every workload once, untimed, so that the timed
rounds start from warm caches: every compile cache, and the step memo, is
kept per set of program fields, so without this pass the first rounds
would pay for compiles and steps that later rounds look up.
The sides then run in alternating order for ``--rounds`` rounds, each
workload best of ``REPEATS`` per round (per tick for ``stream`` and
``query``), and then, as each online replay clears the caches the others
keep warm, ``--rounds`` rounds of the online workloads alone, each the
median of ``ONLINE_REPLAYS`` replays.  For each
workload the report gives each side's minimum, the median of the
per-round ratios change/parent, the rounds the change won, and whether
both sides gave equal outputs (the replay's final states, the initial
tables, the rendered report, the parsed trace, the answers).  Both sides
share one interpreter, allocator and collector, so a ratio is trustworthy
only when its rounds agree.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import statistics
import sys
import time
from pathlib import Path

LAYOUTS = ("yoyo", "array")
# Each workload's runs per round, of which a round takes the best.
REPEATS = 3
# Ticks of each replayed run.
TICKS = 300
# Ticks of each online run, the online runs each round replays, and the
# first online run's seed; round r replays the runs of the next
# ``ONLINE_REPLAYS`` seeds from ``ONLINE_SEED + r * ONLINE_REPLAYS``, so no
# replay meets a run another met.
ONLINE_TICKS = 3000
ONLINE_REPLAYS = 5
ONLINE_SEED = 1000
# Agents ``array.online_1011`` adds to team_program(0)'s 11.
CROWD = 1000


def load_tree(tree: Path, name: str):
    """``tree``'s ``src/overhear`` as the package ``name``."""
    pkg = Path(tree) / "src" / "overhear"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def unload(name: str):
    """Drop the package ``name`` and its modules, and with them their
    compile caches and the ``linecache`` entries those hold."""
    for key in [k for k in sys.modules if k == name or k.startswith(name + ".")]:
        del sys.modules[key]
    gc.collect()


class Side:
    """One tree's modules and the inputs its workloads replay."""

    def __init__(self, tree: Path, name: str):
        load_tree(tree, name)
        mod = {m: importlib.import_module(f"{name}.{m}")
               for m in ("belief", "compiled", "harness", "ingest", "model", "progen",
                         "recognizer", "sim", "social")}
        self.__dict__.update(mod)
        base = self.progen.team_program(0)
        self.text = self.model.serialize_program(base)
        self.runs = {}
        for layout in LAYOUTS:
            team_mode = layout == "yoyo"
            p = self.model.load_program(self.text, team_mode=team_mode)
            cfg = self.sim.SimConfig
            trace, log = self.sim.simulate(p, cfg(seed=1, ticks=TICKS, team_mode=team_mode))
            _, train = self.sim.simulate(p, cfg(seed=2, ticks=TICKS, team_mode=team_mode))
            self.runs[layout] = (trace, log, self.social.learn_comm_model(train))
        self.trace_text = self.sim.format_trace(self.runs["yoyo"][0])

    def setup(self, layout: str):
        """(seconds, every initial table) of a program load in the layout's
        mode and the layout's initial states."""
        start = time.perf_counter()
        p = self.model.load_program(self.text, team_mode=layout == "yoyo")
        if layout == "yoyo":
            states = [self.belief.init_beliefs(p)]
        else:
            view = p.single_agent_view()
            states = {a: self.belief.init_beliefs(view)
                      for a in p.team_hierarchy.agent_names}.values()
        seconds = time.perf_counter() - start
        return seconds, [v for b in states for v in (*b.act, *b.blk)]

    def parse_trace(self):
        """(seconds, the parsed trace's fields) of ``sim.parse_trace`` of the
        yoyo run's trace text."""
        start = time.perf_counter()
        trace = self.sim.parse_trace(self.trace_text)
        seconds = time.perf_counter() - start
        return seconds, (trace.seed, trace.agents, trace.steps, trace.transition_count)

    def replay(self, layout: str):
        """(quiet seconds per tick, evidence seconds per tick, final state)."""
        _, log, _ = self.runs[layout]
        p = self.model.load_program(self.text, team_mode=layout == "yoyo")
        rec = self.recognizer.make_recognizer(p, layout)
        by_tick = self.ingest.messages_by_tick(log)
        spent = {False: [0.0, 0], True: [0.0, 0]}
        clock = time.perf_counter
        for t in range(1, TICKS):
            msgs = by_tick.get(t, [])
            start = clock()
            rec.step(msgs)
            cell = spent[bool(msgs)]
            cell[0] += clock() - start
            cell[1] += 1
        states = [rec.belief] if layout == "yoyo" else rec.beliefs.values()
        final = [v for b in states for v in (*b.act, *b.blk)]
        return spent[False][0] / spent[False][1], spent[True][0] / spent[True][1], final

    def stream(self, layout: str):
        """(median over ticks of each step's best of ``REPEATS`` replays,
        the same of its queries alone, every answer of the last replay)."""
        _, log, comm = self.runs[layout]
        p = self.social.apply_comm_model(
            self.model.load_program(self.text, team_mode=layout == "yoyo"), comm)
        by_tick = self.ingest.messages_by_tick(log)
        best = [float("inf")] * (TICKS - 1)
        best_query = list(best)
        clock = time.perf_counter
        for _ in range(REPEATS):
            rec = self.recognizer.make_recognizer(p, layout)
            answers = []
            for t in range(1, TICKS):
                msgs = by_tick.get(t, [])
                start = clock()
                rec.step(msgs)
                stepped = clock()
                paths = [rec.path(u) for u in rec.units]
                end = clock()
                best[t - 1] = min(best[t - 1], end - start)
                best_query[t - 1] = min(best_query[t - 1], end - stepped)
                answers.append(paths)
        return statistics.median(best), statistics.median(best_query), answers

    def online(self, layout: str, seed: int, crowd: int = 0, ticks: int | None = None):
        """(median seconds, every replay's answers and final states, the
        last replay's counts) of ``ONLINE_REPLAYS`` cold replays, of the
        runs of seeds ``seed`` on (``replay_online``)."""
        runs = [self.replay_online(layout, s, crowd, ticks)
                for s in range(seed, seed + ONLINE_REPLAYS)]
        return statistics.median(r[0] for r in runs), [r[1] for r in runs], runs[-1][2]

    def replay_online(self, layout: str, seed: int, crowd: int = 0, ticks: int | None = None):
        """(seconds, every answer and the final states, counts) of one cold
        replay of a fresh run: ``ONLINE_TICKS`` ticks, or ``ticks``, of
        ``team_program(0)`` grown by ``crowd`` agents."""
        ticks = ticks or ONLINE_TICKS
        team_mode = layout == "yoyo"

        def program():
            p = self.model.load_program(self.text, team_mode=team_mode)
            return self.progen.grow_team(p, crowd) if crowd else p

        _, log = self.sim.simulate(program(), self.sim.SimConfig(seed=seed, ticks=ticks,
                                                                 team_mode=team_mode))
        for cached in vars(self.compiled).values():
            if hasattr(cached, "cache_clear"):
                cached.cache_clear()
        rec = self.recognizer.make_recognizer(program(), layout)
        by_tick = self.ingest.messages_by_tick(log)
        answers = []
        clock = time.perf_counter
        start = clock()
        for t in range(1, ticks):
            rec.step(by_tick.get(t, []))
            answers.append([rec.path(u) for u in rec.units])
        seconds = clock() - start
        states = [rec.belief] if team_mode else rec.beliefs.values()
        answers.append([v for b in states for v in (*b.act, *b.blk)])
        return seconds, answers, self.counts(rec, by_tick, ticks)

    def counts(self, rec, by_tick, ticks: int) -> dict:
        """The hit rates of the step memo in one replay of ``rec`` (a replay
        misses at least its first step): of the quiet steps, the evidence
        steps (one per tick in the shared layout, one per message and
        recipient in the array layout) and the queries, the share that no
        step computed."""
        shared = isinstance(rec, self.recognizer.SharedRecognizer)
        q = rec.p if shared else rec.view
        memo = q.compiled.memo
        heard = [by_tick.get(t, ()) for t in range(1, ticks)]
        steps = {"quiet": rec.counter.visits // len(q.postorder),
                 "commit": sum(map(bool, heard)) if shared else
                 sum(len(rec.recipients(m)) for msgs in heard for m in msgs),
                 "best": len(rec.units) * (ticks - 1)}
        out = {f"{kind} hits": 1.0 - memo.misses[kind] / n if n else None
               for kind, n in steps.items()}
        out["evictions"] = memo.evictions
        return out

    def evaluate(self, layout: str):
        """(seconds, rendered report)."""
        trace, log, comm = self.runs[layout]
        start = time.perf_counter()
        p = self.model.load_program(self.text, team_mode=layout == "yoyo")
        report = self.harness.evaluate_run(p, trace, log, mode=layout, coherent=None,
                                           comm_model=comm)
        return time.perf_counter() - start, self.harness.render_report(report)


def best(timed, *args) -> tuple:
    """The best seconds of ``REPEATS`` calls of ``timed(*args)``, each
    giving (seconds, output), and the first call's output."""
    runs = [timed(*args) for _ in range(REPEATS)]
    return min(r[0] for r in runs), runs[0][1]


def measure(side: Side) -> dict:
    """Each workload's best time of ``REPEATS``, and its output."""
    out = {}
    for layout in LAYOUTS:
        out[f"{layout}.setup"] = best(side.setup, layout)
        runs = [side.replay(layout) for _ in range(REPEATS)]
        out[f"{layout}.quiet_tick"] = (min(r[0] for r in runs), runs[0][2])
        out[f"{layout}.evidence_tick"] = (min(r[1] for r in runs), runs[0][2])
        out[f"{layout}.evaluate_run"] = best(side.evaluate, layout)
        stream, query, answers = side.stream(layout)
        out[f"{layout}.stream"] = (stream, answers)
        out[f"{layout}.query"] = (query, answers)
    out["parse_trace"] = best(side.parse_trace)
    return out


def measure_online(side: Side, seed: int) -> dict:
    """Each online workload's median time over the runs of seeds ``seed``
    on, its output and its counts.  ``array.online_1011`` runs the array
    layout in agent mode, not coherent, as ``array.online`` does."""
    out = {f"{layout}.online": side.online(layout, seed) for layout in LAYOUTS}
    out["array.online_1011"] = side.online("array", seed, CROWD, TICKS)
    return out


def compare(parent: Path, change: Path, rounds: int = 20) -> dict:
    """Per workload: each side's minimum seconds, the median and the range
    of the change/parent ratios, the rounds the change won, and whether
    every round gave equal outputs.  The two packages are unloaded after."""
    samples: dict = {}
    try:
        sides = (Side(parent, "ab_parent"), Side(change, "ab_change"))
        for side in sides:  # untimed: warm each side's caches and step memo
            measure(side)
        # the online rounds last, as each clears the caches the others keep warm
        phases = (lambda side, r: measure(side),
                  lambda side, r: measure_online(side, ONLINE_SEED + r * ONLINE_REPLAYS))
        for phase in phases:
            for r in range(rounds):
                order = (0, 1) if r % 2 == 0 else (1, 0)
                got = {i: phase(sides[i], r) for i in order}
                for name in got[0]:
                    samples.setdefault(name, []).append((got[0][name], got[1][name]))
    finally:
        sides = side = got = None
        unload("ab_parent")
        unload("ab_change")
    report = {}
    for name, pairs in samples.items():
        ratios = [c[0] / a[0] for a, c in pairs]
        report[name] = {"parent_min": min(a[0] for a, _ in pairs),
                        "change_min": min(c[0] for _, c in pairs),
                        "median_ratio": statistics.median(ratios),
                        "ratio_range": (min(ratios), max(ratios)),
                        "wins": sum(x < 1.0 for x in ratios), "rounds": len(ratios),
                        "equal": all(a[1] == c[1] for a, c in pairs)}
        if len(pairs[-1][0]) > 2:  # an online workload's counts, of the last round
            report[name]["counts"] = (pairs[-1][0][2], pairs[-1][1][2])
    return report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--rounds", type=int, default=20)
    args = ap.parse_args(argv)
    report = compare(args.parent, args.change, args.rounds)
    print(f"{'workload':24} {'parent_min':>11} {'change_min':>11} {'ratio':>6} "
          f"{'range':>13} {'wins':>6} equal")
    for name, r in report.items():
        unit, scale = ("ms", 1e3) if name.endswith("evaluate_run") else ("us", 1e6)
        lo, hi = r["ratio_range"]
        print(f"{name:24} {r['parent_min'] * scale:8.2f} {unit} {r['change_min'] * scale:8.2f} "
              f"{unit} {r['median_ratio']:6.3f} {lo:6.3f}-{hi:5.3f} "
              f"{r['wins']:>3}/{r['rounds']:<2} {r['equal']}")
    for name, r in report.items():
        for side, counts in zip(("parent", "change"), r.get("counts", ())):
            print(f"{name} {side}: " + ", ".join(
                f"{k} {v:.1%}" if isinstance(v, float) else f"{k} {v}"
                for k, v in counts.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
