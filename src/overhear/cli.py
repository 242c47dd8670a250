"""Command-line front end.

One binary, six subcommands:

    simulate    run the team simulator, write trace + message log
    learn       build a rote communication model from message logs
    lose        drop an exact fraction of a log's messages
    recognize   stream a log, emit per-tick most-likely states
    evaluate    score a recognizer against a ground-truth trace
    bench       recognizer scalability table across team sizes

``recognize``, ``evaluate`` and ``bench`` drive the recognizer's one monitor
loop (``replay``) and report on its ``units``.  ``recognize``'s line ``t`` and
``evaluate``'s checkpoint at tick ``t`` read one belief, which has seen ticks
``0..t``.

The grammar is built per subcommand: ``COMMANDS`` holds each one's help,
the function that adds its arguments and its body, and ``build_parser``
builds only the subparser that ``argv[0]`` names (every one when it names
none), so a command pays for its own flags alone.  Help, usage and error
text are those of the full grammar.

Exit status: 0 on success, 1 on file or validation errors (diagnostic on
stderr), 2 on bad flags (argparse usage text).  Identical arguments always
produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import os
import stat
import sys

from .belief import MonitoringError
from .harness import bench_scalability, evaluate_run, render_bench, render_report
from .ingest import IngestError, apply_loss, format_log, parse_log
from .model import ProgramError, load_program_path
from .progen import flatten_mu
from .recognizer import MODES, make_recognizer
from .sim import (COMM_POLICIES, MU_SAMPLED, SimConfig, SimulationError,
                  format_trace, parse_trace, simulate)
from .social import (apply_comm_model, format_comm_model, learn_comm_model,
                     parse_comm_model)

def _positive_ticks(ticks: int) -> int:
    if ticks < 1:
        raise MonitoringError(f"ticks must be positive, got {ticks}")
    return ticks


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _emit(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
    else:
        # Write over the old bytes, then cut what is left of them.  Opening
        # with "w" truncates first, and on ext4 truncating a file whose
        # blocks are already on disk waits for the disk (about 40 ms).  Only
        # a regular file has old bytes; a device, pipe or FIFO cannot be cut.
        with open(os.open(out, os.O_WRONLY | os.O_CREAT, 0o666), "w",
                  encoding="utf-8") as fh:
            fh.write(text)
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate()


def _load_comm(args):
    if getattr(args, "comm", None) is None:
        return None
    return parse_comm_model(_read(args.comm))


# --- subcommand bodies ------------------------------------------------------


def _cmd_simulate(args) -> int:
    p = load_program_path(args.program, team_mode=args.team_mode)
    cfg = SimConfig(seed=args.seed, ticks=args.ticks, team_mode=args.team_mode,
                    comm_policy=args.comm_policy, send_prob=args.send_prob,
                    fail_agent=args.fail_agent, fail_from=args.fail_from,
                    fail_ticks=args.fail_ticks)
    trace, log = simulate(p, cfg)
    os.makedirs(args.out, exist_ok=True)
    _emit(format_trace(trace), os.path.join(args.out, "trace.txt"))
    _emit(format_log(log), os.path.join(args.out, "log.txt"))
    return 0


def _cmd_learn(args) -> int:
    model = None
    for path in args.log:
        model = learn_comm_model(parse_log(_read(path)), model,
                                 confidence=args.confidence)
    if model is None:
        raise IngestError("no logs given")
    _emit(format_comm_model(model), args.out)
    return 0


def _cmd_lose(args) -> int:
    survivors = apply_loss(parse_log(_read(args.log)), args.rate, args.seed)
    header = f"# loss rate={args.rate} seed={args.seed}\n"
    _emit(header + format_log(survivors), args.out)
    return 0


def _cmd_recognize(args) -> int:
    p = load_program_path(args.program, team_mode=args.team_mode)
    if args.flat_mu is not None:
        p = flatten_mu(p, args.flat_mu)
    model = _load_comm(args)
    if model is not None:
        p = apply_comm_model(p, model)
    log = parse_log(_read(args.log))
    ticks = _positive_ticks(args.ticks if args.ticks is not None else (
        (max(m.tick for m in log) + 2) if log else 200))
    rec = make_recognizer(p, args.mode, args.coherent)
    _emit("".join(f"{t} {unit} {'/'.join(rec.path(unit))}\n"
                  for t in rec.replay(log, ticks) for unit in rec.units), args.out)
    return 0


def _cmd_evaluate(args) -> int:
    p = load_program_path(args.program, team_mode=args.team_mode)
    if args.flat_mu is not None:
        p = flatten_mu(p, args.flat_mu)
    trace = parse_trace(_read(args.truth))
    log = parse_log(_read(args.log))
    report = evaluate_run(p, trace, log, mode=args.mode, coherent=args.coherent,
                          comm_model=_load_comm(args), delay=args.delay)
    _emit(render_report(report), args.out)
    return 0


def _cmd_bench(args) -> int:
    p = load_program_path(args.program, team_mode=True)
    try:
        lo, hi = args.agents.split(":")
        counts = range(int(lo), int(hi) + 1)
    except ValueError:
        raise MonitoringError(f"--agents wants MIN:MAX, got {args.agents!r}") from None
    if not counts:
        raise MonitoringError(f"--agents range {args.agents!r} is empty")
    rows = bench_scalability(p, counts, ticks=_positive_ticks(args.ticks))
    _emit(render_bench(rows), args.out)
    return 0


# --- argument grammar ---------------------------------------------------------


def _add_program(sub, required=True):
    sub.add_argument("--program", required=required, help="program document (JSON)")
    sub.add_argument("--team-mode", action="store_true",
                     help="load the program in team mode: subteams run in parallel")


def _add_mu_source(sub, flat_help: str):
    # a communication model sets every mu, so a flat mu given with it would
    # never reach the recognizer
    mu = sub.add_mutually_exclusive_group()
    mu.add_argument("--comm", default=None, help="communication model file")
    mu.add_argument("--flat-mu", type=float, default=None, help=flat_help)


def _add_out(sub, help_text="output file (default stdout)"):
    sub.add_argument("--out", default=None, help=help_text)


def _simulate_args(sim):
    _add_program(sim)
    sim.add_argument("--seed", type=int, required=True, help="simulation seed")
    sim.add_argument("--ticks", type=int, default=200,
                     help="run length (default 200)")
    sim.add_argument("--send-prob", type=float, default=1.0,
                     help="per-tick chance a blocked sender speaks")
    sim.add_argument("--comm-policy", choices=COMM_POLICIES, default=MU_SAMPLED,
                     help="announce transitions per mu, always, or never")
    sim.add_argument("--fail-agent", default=None,
                     help="agent whose messages are lost during the outage; in "
                          "both modes it keeps running (needs --fail-ticks)")
    sim.add_argument("--fail-from", type=int, default=0,
                     help="first tick of the outage window")
    sim.add_argument("--fail-ticks", type=int, default=0,
                     help="outage length in ticks: above 0 with --fail-agent, "
                          "0 (the default) without")
    sim.add_argument("--out", required=True,
                     help="directory for trace.txt and log.txt")


def _learn_args(lrn):
    lrn.add_argument("--log", action="append", required=True,
                     help="message log (repeatable)")
    lrn.add_argument("--confidence", type=float, default=None,
                     help="mu assigned to predicted announcements (default 1.0)")
    _add_out(lrn)


def _lose_args(lose):
    lose.add_argument("--log", required=True, help="message log to filter")
    lose.add_argument("--rate", type=float, required=True,
                      help="fraction of messages to drop")
    lose.add_argument("--seed", type=int, required=True, help="loss seed")
    _add_out(lose)


def _recognize_args(rec):
    _add_program(rec)
    rec.add_argument("--log", required=True, help="message log to stream")
    rec.add_argument("--mode", choices=MODES, default="array",
                     help="recognizer structure")
    rec.add_argument("--ticks", type=int, default=None,
                     help="ticks to replay (default: last message tick + 2, "
                          "or 200 on an empty log)")
    rec.add_argument("--coherent", action=argparse.BooleanOptionalAction,
                     default=None,
                     help="route team messages to every member "
                          "(default: on for yoyo, off for array)")
    _add_mu_source(rec, "replace every non-completion mu with this value")
    _add_out(rec)


def _evaluate_args(ev):
    _add_program(ev)
    ev.add_argument("--log", required=True, help="message log")
    ev.add_argument("--truth", required=True, help="ground-truth trace file")
    ev.add_argument("--mode", choices=MODES, default="yoyo",
                    help="recognizer structure")
    ev.add_argument("--coherent", action=argparse.BooleanOptionalAction,
                    default=None,
                    help="apply the coherence heuristic "
                         "(default: on for yoyo, off for array)")
    _add_mu_source(ev, "degrade the recognizer's mu values to this constant")
    ev.add_argument("--delay", type=int, default=1,
                    help="checkpoint delay after each exchange")
    _add_out(ev)


def _bench_args(ben):
    ben.add_argument("--program", required=True, help="team program document")
    ben.add_argument("--agents", default="11:20",
                     help="agent count range MIN:MAX inclusive (default 11:20)")
    ben.add_argument("--ticks", type=int, default=100,
                     help="quiet ticks to instrument per size")
    _add_out(ben)


# name -> (help, function that adds its arguments, body), in help order
COMMANDS = {
    "simulate": ("run the simulator, write trace + log", _simulate_args, _cmd_simulate),
    "learn": ("build a communication model from logs", _learn_args, _cmd_learn),
    "lose": ("drop an exact fraction of a log", _lose_args, _cmd_lose),
    "recognize": ("emit per-tick most-likely states", _recognize_args, _cmd_recognize),
    "evaluate": ("score a recognizer against ground truth", _evaluate_args, _cmd_evaluate),
    "bench": ("scalability table across team sizes", _bench_args, _cmd_bench),
}


def build_parser(argv=()) -> argparse.ArgumentParser:
    """The grammar that parses ``argv``: when ``argv[0]`` names a subcommand,
    only that subparser is built, since no other one ever sees the rest of
    ``argv``; otherwise (help, no arguments, a typo) all of them are."""
    ap = argparse.ArgumentParser(
        prog="overhear",
        description="Infer the execution state of an agent team from its "
                    "overheard coordination messages.")
    name = argv[0] if argv else None
    if name in COMMANDS:
        # The top-level parser still reports leftover arguments under its own
        # usage line, which must name every subcommand as the full grammar
        # does.  (A metavar also renames the argument in the errors about a
        # missing or unknown subcommand, which cannot arise here.)
        sp = ap.add_subparsers(dest="subcommand", required=True,
                               metavar="{" + ",".join(COMMANDS) + "}")
        names = (name,)
    else:
        sp = ap.add_subparsers(dest="subcommand", required=True)
        names = COMMANDS
    for name in names:
        help_text, add_arguments, body = COMMANDS[name]
        sub = sp.add_parser(name, help=help_text)
        add_arguments(sub)
        sub.set_defaults(fn=body)
    return ap


def run_command(argv) -> int:
    ap = build_parser(argv)
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (ProgramError, IngestError, MonitoringError, SimulationError,
            OSError, ValueError) as exc:
        print(f"overhear {args.subcommand}: error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
