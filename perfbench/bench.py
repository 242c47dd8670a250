"""Workloads, the measured pipeline, output checks and metric derivation.

A run builds its program document with progen from the workload seed, then
repeats a fixed number of rounds.  A round is the user-facing
pipeline, called in-process through ``overhear.cli.run_command``:

    simulate (workload seed) -> learn (training-seed log) -> evaluate

followed by a streamed replay of the same log on ``evaluate_run``'s
schedule (ticks 1..T) that times every monitor step: one recognizer tick
plus the most-likely query for every scored unit.  One process and one
thread; every command and step starts when the previous one has ended.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy

from overhear import belief, cli, harness, ingest, model, progen, sim, social, yoyo
from overhear.belief import MonitoringError
from overhear.ingest import IngestError
from overhear.model import ProgramError
from overhear.sim import SimulationError

from spans import SpanRecorder, best_per_step, percentile, self_times, tail_percentile

# Typed errors a recognizer step may raise; each counts as a failed step.
STEP_ERRORS = (MonitoringError, IngestError, ProgramError, SimulationError)
# Set-ups measured after every round, so their median spans the whole run.
SETUP_PER_ROUND = 5
# Fewest rounds a run makes, so every step has a best of several replays.
MIN_ROUNDS = 3
# Simulation seeds derived from the workload seed: seed * STRIDE + k.
SEED_STRIDE = 1000
SEED_TRIES = 200
TRAIN_OFFSET = SEED_STRIDE - 1
# Agents the C10 structure check adds to team_program(0)'s 11.
CROWD_EXTRA = 1000


@dataclass(frozen=True)
class Workload:
    name: str
    team_mode: bool
    mode: str           # recognizer layout: "yoyo" or "array"
    coherent: bool
    replay_ticks: int   # evaluate replays ticks 1..replay_ticks
    round_s: float      # one round's time on a 2-vCPU Xeon VM in its slow spells

    def rounds(self, seconds: float) -> int:
        """Rounds in a run of ``seconds``: fixed by the workload, not by how
        fast the code runs, so every commit takes its best of the same N."""
        return max(MIN_ROUNDS, round(seconds / self.round_s))


WORKLOADS = {w.name: w for w in (
    Workload("mission-11-yoyo", True, "yoyo", True, 250, 0.21),
    Workload("solo-11-array", False, "array", False, 75, 0.22),
)}

# Per-layer metric -> span whose self time is summed over one round.
ROUND_SECONDS = {
    "sim.run_s": "sim.simulate",
    "sim.format_trace_s": "sim.format_trace",
    "sim.parse_trace_s": "sim.parse_trace",
    "ingest.parse_log_s": "ingest.parse_log",
    "ingest.format_log_s": "ingest.format_log",
    "harness.evaluate_run_s": "harness.evaluate_run",
    "harness.hypothesis_curve_s": "harness.hypothesis_count_curve",
    "harness.score_s": "harness.score_run",
    "social.learn_s": "social.learn_comm_model",
    "social.apply_comm_s": "social.apply_comm_model",
    "cli.self_s": "cli.run_command",
}
# Per-layer metric -> span whose self time is taken per set-up.
SETUP_SECONDS = {
    "model.load_s": "model.load_program_path",
}


def _tick_tag(args) -> str:
    """yoyo_tick(p, b, msgs) and array_overseer_tick(beliefs, programs, msgs)."""
    return "evidence" if args[2] else "quiet"


TRACED = (
    (cli, "run_command", None),
    (model, "load_program_path", None),
    (sim, "simulate", None),
    (sim, "format_trace", None),
    (sim, "parse_trace", None),
    (ingest, "parse_log", None),
    (ingest, "format_log", None),
    (harness, "evaluate_run", None),
    (harness, "hypothesis_count_curve", None),
    (harness, "score_run", None),
    (social, "learn_comm_model", None),
    (social, "apply_comm_model", None),
    (yoyo, "yoyo_tick", _tick_tag),
    (yoyo, "team_most_likely", None),
    (belief, "array_overseer_tick", _tick_tag),
    (belief, "most_likely_state", None),
)
TICK_SPANS = {"yoyo": "yoyo.yoyo_tick", "array": "belief.array_overseer_tick"}
QUERY_SPANS = ("yoyo.team_most_likely", "belief.most_likely_state")


def pick_sim_seed(p, seed: int, ticks: int, team_mode: bool) -> int:
    """First derived seed whose run has a message on one of its last two ticks.

    ``evaluate`` replays up to the last checkpoint, one tick after the last
    message; pinning it to the final tick makes every seed replay exactly
    ``ticks`` ticks, so times compare across seeds.
    """
    for k in range(SEED_TRIES):
        cand = seed * SEED_STRIDE + k
        _, log = sim.simulate(p, sim.SimConfig(seed=cand, ticks=ticks + 1,
                                               team_mode=team_mode))
        if log and log[-1].tick >= ticks - 1:
            return cand
    raise SimulationError(f"no seed in {SEED_TRIES} tries ends on a message")


def parse_report(text: str) -> dict:
    out = {"errors": []}
    for line in text.splitlines():
        parts = line.split()
        if parts[0] == "metric" and parts[1] != "accuracy":
            out[parts[1]] = int(parts[2])
        elif parts[:2] == ["curve", "errors"]:
            out["errors"].append(int(parts[3]))
    return out


def environment(w: Workload, seed: int, sim_seed: int, train_seed: int,
                root: Path) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu or "unknown",
            "python": platform.python_version(), "numpy": numpy.__version__,
            "commit": git_commit(root), "workload": w.name, "seed": seed,
            "sim_seed": sim_seed, "train_seed": train_seed,
            "sim_ticks": w.replay_ticks + 1, "replay_ticks": w.replay_ticks}


def git_commit(root: Path) -> str:
    """HEAD's commit read from .git, or "unknown" outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


@dataclass
class Stream:
    """One streamed replay: step latencies and what the checks compare."""

    latencies: dict = field(default_factory=dict)    # tick -> seconds
    hypotheses: dict = field(default_factory=dict)   # checkpoint tick -> {unit: path}
    quiet: int = 0
    evidence: int = 0
    quiet_visits: int = 0
    state_nodes: int = 0
    bad_mass: int = 0

    def counts(self) -> tuple:
        return (self.quiet, self.evidence, self.quiet_visits, self.state_nodes,
                self.bad_mass, repr(sorted(self.hypotheses.items())))


@dataclass
class Round:
    simulate_s: float | None
    learn_s: float | None
    evaluate_s: float | None
    stream_s: float
    stream: Stream | None
    report: dict | None
    fingerprint: str

    @property
    def wall_s(self) -> float:
        return sum(t or 0.0 for t in (self.simulate_s, self.learn_s,
                                      self.evaluate_s)) + self.stream_s

    def record(self) -> dict:
        return {"simulate_s": self.simulate_s, "learn_s": self.learn_s,
                "evaluate_s": self.evaluate_s, "stream_s": self.stream_s}


class Bench:
    def __init__(self, w: Workload, seed: int, root: Path):
        self.w = w
        self.seed = seed
        self.root = root
        self.out_dir = root / ".perfbench"
        self.work = self.out_dir / f"{w.name}-s{seed}-p{os.getpid()}"
        self.attempted = 0
        self.failed = 0
        self.checks: list[tuple[str, bool, str]] = []
        self.recorder: SpanRecorder | None = None
        self.inputs = None
        self.setups: list[float] = []
        self.peak_rss_mb: float | None = None

    # -- bookkeeping ---------------------------------------------------------

    def check(self, name: str, ok: bool, detail: str = ""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check FAILED {name}: {detail}", file=sys.stderr)
        self.checks.append((name, ok, detail))

    def command(self, *argv) -> float | None:
        """One CLI command in-process; its wall time, or None if it failed."""
        argv = [str(a) for a in argv]
        self.attempted += 1
        start = time.perf_counter()
        try:
            code = cli.run_command(argv)
        except Exception:  # a crash is one failed operation; the run goes on
            traceback.print_exc()
            code = -1
        elapsed = time.perf_counter() - start
        if code != 0:
            self.failed += 1
            print(f"command failed ({code}): overhear {' '.join(argv)}", file=sys.stderr)
            return None
        return elapsed

    def child_command(self, *argv) -> bool:
        """One CLI command in a child process, as a user runs it."""
        argv = [str(a) for a in argv]
        self.attempted += 1
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        proc = subprocess.run([sys.executable, "-m", "overhear.cli", *argv],
                              env=env, stdout=subprocess.DEVNULL, check=False)
        if proc.returncode != 0:
            self.failed += 1
            print(f"command failed ({proc.returncode}): overhear {' '.join(argv)}",
                  file=sys.stderr)
        return proc.returncode == 0

    def evaluate_args(self) -> list:
        w, work = self.w, self.work
        return ["evaluate", *self.prog_args, "--log", work / "run" / "log.txt",
                "--truth", work / "run" / "trace.txt", "--mode", w.mode,
                "--coherent" if w.coherent else "--no-coherent",
                "--comm", work / "comm.cm", "--out", work / "report.txt"]

    # -- inputs --------------------------------------------------------------

    def prepare(self):
        w = self.w
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.base = progen.team_program(0)
        doc = model.program_to_document(self.base)
        self.program_path = self.work / "program.json"
        self.program_path.write_text(json.dumps(doc, indent=1))
        self.program = model.load_program_path(self.program_path, team_mode=w.team_mode)
        self.sim_seed = pick_sim_seed(self.program, self.seed, w.replay_ticks, w.team_mode)
        self.train_seed = self.seed * SEED_STRIDE + TRAIN_OFFSET
        self.prog_args = ["--program", self.program_path] + (
            ["--team-mode"] if w.team_mode else [])
        self.sim_args = ["--seed", self.sim_seed, "--ticks", w.replay_ticks + 1,
                         "--out", self.work / "run"]
        self.learn_args = ["--log", self.work / "train" / "log.txt",
                           "--out", self.work / "comm.cm"]
        # The pipeline once in child processes: its files are the inputs of
        # the rounds, and the children's peak RSS is the pipeline's own.
        if (self.child_command("simulate", *self.prog_args, "--seed", self.train_seed,
                               "--ticks", w.replay_ticks + 1, "--out", self.work / "train")
                and self.child_command("simulate", *self.prog_args, *self.sim_args)
                and self.child_command("learn", *self.learn_args)
                and self.child_command(*self.evaluate_args())):
            self.peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
            self.load_stream_inputs()
        # Keep the held inputs out of the collector's full passes, so the
        # measured commands pay only for the objects they make themselves.
        gc.collect()
        gc.freeze()

    def setup_once(self) -> float:
        """Set-up a user pays before the first tick: load, init state."""
        w = self.w
        start = time.perf_counter()
        p = model.load_program_path(self.program_path, team_mode=w.team_mode)
        if w.mode == "yoyo":
            yoyo.team_init_beliefs(p)
        else:
            view = p.single_agent_view()
            {a: belief.init_beliefs(view) for a in p.team_hierarchy.agent_names}
        return time.perf_counter() - start

    def set_up(self, n: int):
        for _ in range(n):
            if self.recorder:
                self.recorder.run_id = f"setup{len(self.setups)}"
            self.setups.append(self.setup_once())

    def structure_check(self):
        """C10 from outside, at CROWD_EXTRA more agents: shared state +1 node
        per agent, flat visits; the array layout +1 plan tree per agent."""
        if not self.w.team_mode:
            return
        small, big = self.base, progen.grow_team(self.base, CROWD_EXTRA)
        extra = len(big.team_hierarchy.agent_names) - len(small.team_hierarchy.agent_names)

        def shared(p):
            b = yoyo.team_init_beliefs(p)
            counter = belief.VisitCounter()
            yoyo.yoyo_tick(p, b, [], counter)
            return len(b.active) + p.team_hierarchy.size, counter.visits

        def array_nodes(p):
            view = p.single_agent_view()
            return sum(len(belief.init_beliefs(view).active)
                       for _ in p.team_hierarchy.agent_names)

        (small_nodes, small_visits), (big_nodes, big_visits) = shared(small), shared(big)
        tree = len(small.node_ids)
        self.check("c10.shared_visits_flat", small_visits == big_visits,
                   f"{small_visits} vs {big_visits} visits per quiet tick")
        self.check("c10.shared_nodes_per_agent", big_nodes - small_nodes == extra,
                   f"+{big_nodes - small_nodes} nodes for +{extra} agents")
        grow = array_nodes(big) - array_nodes(small)
        self.check("c10.array_tree_per_agent", grow == extra * tree,
                   f"+{grow} nodes for +{extra} agents x {tree}-node tree")

    def load_stream_inputs(self):
        """Parse the pipeline's files once; every round must reproduce them."""
        w = self.w
        trace = sim.parse_trace((self.work / "run" / "trace.txt").read_text())
        log = ingest.parse_log((self.work / "run" / "log.txt").read_text())
        comm = social.parse_comm_model((self.work / "comm.cm").read_text())
        p = model.load_program_path(self.program_path, team_mode=w.team_mode)
        rec = social.apply_comm_model(p, comm)
        cps: dict = {}
        for tick, step in sim.checkpoints(trace, log, 1):
            cps.setdefault(tick, step)
        h = p.team_hierarchy
        if w.coherent:
            units = tuple(sorted({h.agent_team(a) for a in h.agent_names}))
            members = {u: sorted(h.members(u)) for u in units}
            truth = {t: {u: step[members[u][0]][0] for u in units}
                     for t, step in cps.items()}
        else:
            units = h.agent_names
            truth = {t: {a: step[a][0] for a in units} for t, step in cps.items()}
        self.inputs = dict(trace=trace, log=log, comm=comm, p=p, rec=rec,
                           by_tick=ingest.messages_by_tick(log), cps=cps,
                           units=units, truth=truth,
                           last=max(cps) if cps else 0)
        self.check("replay_ticks_pinned", self.inputs["last"] == w.replay_ticks,
                   f"last checkpoint {self.inputs['last']}, want {w.replay_ticks}")

    # -- the measured round --------------------------------------------------

    def stream(self) -> Stream:
        """Replay ticks 1..T as a streaming monitor, timing every step."""
        w, inp = self.w, self.inputs
        rec, units, by_tick, cps = inp["rec"], inp["units"], inp["by_tick"], inp["cps"]
        h = rec.team_hierarchy
        counter = belief.VisitCounter()
        if w.mode == "yoyo":
            b = yoyo.team_init_beliefs(rec)
            step = lambda msgs: yoyo.yoyo_tick(rec, b, msgs, counter)
            query = lambda u: rec.path_names(yoyo.team_most_likely(b, rec, u))
            state_nodes = len(b.active) + h.size
        else:
            view = rec.single_agent_view()
            beliefs = {a: belief.init_beliefs(view) for a in h.agent_names}
            programs = {a: view for a in h.agent_names}
            state_nodes = sum(len(s.active) for s in beliefs.values())
            # No workload runs the coherent array layout, so nothing is routed.
            query = lambda u: view.path_names(belief.most_likely_state(beliefs[u], view))
            step = lambda msgs: belief.array_overseer_tick(beliefs, programs, msgs, counter)
        out = Stream(state_nodes=state_nodes)
        for t in range(1, inp["last"] + 1):
            msgs = by_tick.get(t, [])
            visits = counter.visits
            self.attempted += 1
            start = time.perf_counter()
            try:
                step(msgs)
                paths = {u: query(u) for u in units}
            except STEP_ERRORS as exc:
                self.failed += 1
                print(f"step failed at tick {t}: {exc!r}", file=sys.stderr)
                continue
            out.latencies[t] = time.perf_counter() - start
            if t in cps:
                out.hypotheses[t] = paths
            if msgs:
                out.evidence += 1
            else:
                out.quiet += 1
                out.quiet_visits += counter.visits - visits
        final = [b] if w.mode == "yoyo" else beliefs.values()
        out.bad_mass = sum(1 for s in final for part in (s.active, s.blocked)
                           for v in part.values() if not (math.isfinite(v) and v >= 0.0))
        return out

    def round(self) -> Round:
        work = self.work
        t_sim = self.command("simulate", *self.prog_args, *self.sim_args)
        t_learn = self.command("learn", *self.learn_args)
        t_eval = self.command(*self.evaluate_args())
        digest = hashlib.sha256()
        report = None
        for name in ("run/trace.txt", "run/log.txt", "comm.cm", "report.txt"):
            path = work / name
            if path.exists():
                digest.update(path.read_bytes())
        if t_eval is not None:
            report = parse_report((work / "report.txt").read_text())
        stream, stream_s = None, 0.0
        if self.inputs is not None:
            start = time.perf_counter()
            stream = self.stream()
            stream_s = time.perf_counter() - start
        return Round(t_sim, t_learn, t_eval, stream_s, stream, report, digest.hexdigest())

    def rounds(self, n: int, first: int = 0) -> list[Round]:
        """``n`` rounds, each followed by its set-ups."""
        done = []
        for i in range(first, first + n):
            if self.recorder:
                self.recorder.run_id = f"round{i}"
            done.append(self.round())
            self.set_up(SETUP_PER_ROUND)
        return done

    # -- checks over the rounds ------------------------------------------------

    def output_checks(self, rounds: list[Round]):
        first = rounds[0]
        self.check("rounds_repeat_exactly",
                   all(r.fingerprint == first.fingerprint for r in rounds)
                   and all(r.report == first.report for r in rounds)
                   and len({r.stream.counts() for r in rounds if r.stream}) <= 1,
                   f"{len(rounds)} rounds: trace, log, model, report and stream counts")
        stream, report = first.stream, first.report
        if stream is None or report is None:
            self.check("outputs_present", False, "a pipeline command failed")
            return
        self.check("final_mass_finite_nonnegative", stream.bad_mass == 0,
                   f"{stream.bad_mass} bad values")
        truth = self.inputs["truth"]
        units = self.inputs["units"]
        errors, correct, curve = 0, 0, []
        for t in sorted(truth):
            hyp = stream.hypotheses.get(t, {})
            for u in units:
                if hyp.get(u) == tuple(truth[t][u]):
                    correct += 1
                else:
                    errors += 1
            curve.append(errors)
        self.check("stream_scores_match_evaluate",
                   correct == report["correct"] and curve == report["errors"],
                   f"stream {correct} correct, evaluate {report['correct']}")
        if self.w.mode == "yoyo":
            inp = self.inputs
            want: list = []
            harness.evaluate_run(inp["p"], inp["trace"], inp["log"], mode="yoyo",
                                 coherent=True, comm_model=inp["comm"],
                                 hypotheses_out=want)
            got = [stream.hypotheses.get(t, {}) for t in sorted(inp["cps"])]
            same = sum(1 for g, e in zip(got, want) for u in units
                       if g.get(u) == tuple(e[u]))
            total = len(want) * len(units)
            self.check("stream_paths_match_evaluate_run",
                       len(got) == len(want) and same == total,
                       f"{same} of {total} checkpoint paths equal")

    # -- runs -----------------------------------------------------------------

    def run(self, seconds: float, trace: bool) -> dict:
        self.prepare()
        self.structure_check()
        result = self.traced(seconds) if trace else self.untraced(seconds)
        env = environment(self.w, self.seed, self.sim_seed, self.train_seed, self.root)
        result["env"] = env
        result["checks"] = [{"name": n, "ok": ok, "detail": d} for n, ok, d in self.checks]
        shutil.rmtree(self.work, ignore_errors=True)
        return result

    def untraced(self, seconds: float) -> dict:
        rounds = self.rounds(self.w.rounds(seconds))
        self.output_checks(rounds)
        report = rounds[0].report or {}
        metrics = {}

        def put(name, value, unit, note):
            metrics[name] = {"value": value, "unit": unit, "note": note}

        # The host slows some slices of CPU time by up to 2x, in bursts from
        # milliseconds to seconds.  Commands and steps are timed as the best
        # of the run's fixed number of rounds, which are spread over the run.
        def best(name, values, unit, note):
            values = [v for v in values if v is not None]
            put(name, min(values) if values else None, unit,
                f"{note}, best of {len(values)} rounds")

        put("setup_s", statistics.median(self.setups), "s",
            f"median of {len(self.setups)} set-ups")
        best("simulate_s", [r.simulate_s for r in rounds], "s", "one command")
        best("evaluate_s", [r.evaluate_s for r in rounds], "s", "one command")
        steps = best_per_step([r.stream.latencies for r in rounds if r.stream])
        tail_pct = tail_percentile(len(steps))
        note = f"of {len(steps)} steps, each the best of {len(rounds)} replays"
        put("tick_p50_us", percentile(steps, 50) * 1e6 if steps else None, "us", "p50 " + note)
        put("tick_tail_us", percentile(steps, tail_pct) * 1e6 if steps else None, "us",
            f"p{tail_pct:.2f} {note}")
        comparisons = report.get("comparisons", 0)
        put("accuracy", report.get("correct", 0) / comparisons if comparisons else None, "frac",
            f"{report.get('correct')} of {comparisons} checkpoint comparisons")
        put("peak_rss_mb", self.peak_rss_mb, "MB",
            "largest ru_maxrss of the pipeline's commands run as child processes")
        return {"metrics": metrics, "rounds": [r.record() for r in rounds],
                "setups_s": self.setups}

    def traced(self, seconds: float) -> dict:
        # Untraced rounds first: the tracing overhead is measured against them.
        # Half a run's rounds of each, so a traced run takes as long as an
        # untraced one.
        n = max(MIN_ROUNDS, self.w.rounds(seconds) // 2)
        baseline = self.rounds(n)
        rec = self.recorder = SpanRecorder()
        for module, func, tag in TRACED:
            rec.install(module, func, tag)
        try:
            traced_rounds = self.rounds(n, first=n)
        finally:
            rec.uninstall()
        self.output_checks(baseline + traced_rounds)
        spans = rec.finished()
        self.out_dir.mkdir(exist_ok=True)
        rec.write(self.out_dir / f"spans-{self.w.name}-s{self.seed}.jsonl")
        metrics = self.layer_metrics(spans, traced_rounds)
        overhead = (min(r.wall_s for r in traced_rounds) - min(r.wall_s for r in baseline))
        metrics["trace.overhead_s"] = {
            "value": overhead, "unit": "s",
            "note": f"best traced round minus best untraced round, {n} of each"}
        return {"metrics": metrics, "rounds": [r.record() for r in baseline + traced_rounds],
                "spans": len(spans)}

    def layer_metrics(self, spans, rounds: list[Round]) -> dict:
        selfs = self_times(spans)
        totals: dict[tuple[str, str], int] = {}
        for s in spans:
            key = (s.name, s.run_id)
            totals[key] = totals.get(key, 0) + selfs[s.id]
        run_ids = {s.run_id for s in spans}
        round_ids = sorted(r for r in run_ids if r.startswith("round"))
        setup_ids = sorted(r for r in run_ids if r.startswith("setup"))
        metrics = {}

        def put(name, value, unit, note):
            metrics[name] = {"value": value, "unit": unit, "note": note}

        for name, span in ROUND_SECONDS.items():
            vals = [totals.get((span, r), 0) / 1e9 for r in round_ids]
            put(name, statistics.median(vals), "s",
                f"self time of {span}, median of {len(vals)} rounds")
        for name, span in SETUP_SECONDS.items():
            vals = [totals.get((span, r), 0) / 1e9 for r in setup_ids]
            put(name, statistics.median(vals), "s",
                f"self time of {span}, median of {len(vals)} set-ups")

        tick_name = TICK_SPANS[self.w.mode]
        stream = rounds[0].stream or Stream()
        replays = 2 * len(rounds)  # evaluate_run's replay and the streamed one
        for tag, per_replay in (("quiet", stream.quiet), ("evidence", stream.evidence)):
            durations = [s.duration_ns / 1e3 for s in spans
                         if s.name == tick_name and s.tag == tag]
            # Pooled over k replays, this percentile leaves 10k ticks beyond it.
            pct = tail_percentile(per_replay)
            note = f"{tick_name}, n={len(durations)} in {replays} replays"
            put(f"recognizer.{tag}_tick_us_p50",
                percentile(durations, 50) if durations else None, "us", "p50, " + note)
            put(f"recognizer.{tag}_tick_us_tail",
                percentile(durations, pct) if durations else None, "us", f"p{pct:.2f}, " + note)
            put(f"recognizer.{tag}_ticks", per_replay, "count", "ticks in one replay")
        queries = [s.duration_ns / 1e3 for s in spans if s.name in QUERY_SPANS]
        put("recognizer.most_likely_us_p50", percentile(queries, 50) if queries else None,
            "us", f"p50 of {len(queries)} most-likely queries")
        put("recognizer.visits_per_tick",
            stream.quiet_visits / stream.quiet if stream.quiet else 0.0, "count",
            "node visits per quiet tick")
        put("recognizer.state_nodes", stream.state_nodes, "count", "belief entries held")

        inp = self.inputs
        trace_text = (self.work / "run" / "trace.txt")
        log = inp["log"]
        T = self.w.replay_ticks + 1
        put("sim.trace_bytes", trace_text.stat().st_size, "bytes", "trace.txt size")
        put("sim.messages", len(log), "count", "messages in the log")
        put("sim.quiet_frac", 1.0 - len({m.tick for m in log}) / T, "frac",
            f"ticks without a message, of {T}")
        log_text = (self.work / "run" / "log.txt").read_text()
        put("ingest.log_lines", log_text.count("\n"), "count", "log.txt lines")
        put("harness.exchanges", (rounds[0].report or {}).get("exchanges", 0), "count",
            "exchanges scored by evaluate")
        p = inp["p"]
        put("model.nodes", len(p.node_ids), "count", "plan nodes")
        put("model.agents", len(p.team_hierarchy.agent_names), "count", "agents")
        return metrics
