import argparse
import os
import shutil
import subprocess
import sys

import pytest

from overhear.cli import COMMANDS, build_parser, run_command
from overhear.harness import evaluate_run, render_report
from overhear.ingest import apply_loss, parse_log
from overhear import compiled
from overhear.compiled import _compile
from overhear.model import load_program_path
from overhear.progen import flatten_mu
from overhear.recognizer import make_recognizer
from overhear.sim import parse_trace
from overhear.social import apply_comm_model, parse_comm_model

from conftest import DATA

TEAM = str(DATA / "evac_team.json")
MINI = str(DATA / "evac_mini.json")
ROOT = DATA.parents[2]


def _simulate(out, seed=4, extra=()):
    rc = run_command(["simulate", "--program", TEAM, "--team-mode",
                      "--seed", str(seed), "--ticks", "150",
                      "--send-prob", "0.6", *extra, "--out", str(out)])
    assert rc == 0
    return out / "trace.txt", out / "log.txt"


def test_help_everywhere():
    for argv in (["--help"], ["simulate", "--help"], ["learn", "--help"],
                 ["lose", "--help"], ["recognize", "--help"],
                 ["evaluate", "--help"], ["bench", "--help"]):
        with pytest.raises(SystemExit) as exc:
            run_command(argv)
        assert exc.value.code == 0


def test_bad_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run_command(["simulate", "--no-such-flag"])
    assert exc.value.code == 2
    assert "usage" in capsys.readouterr().err


def _subparser(ap, name):
    """The subparser that ``ap`` built for subcommand ``name``."""
    action = next(a for a in ap._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices[name]


# Each subcommand's required flags, with values that parse.
_REQUIRED = {
    "simulate": ["--program", TEAM, "--seed", "1", "--out", "run"],
    "learn": ["--log", "log.txt"],
    "lose": ["--log", "log.txt", "--rate", "0.5", "--seed", "1"],
    "recognize": ["--program", TEAM, "--log", "log.txt"],
    "evaluate": ["--program", TEAM, "--log", "log.txt", "--truth", "trace.txt"],
    "bench": ["--program", TEAM],
}


@pytest.mark.parametrize("name", COMMANDS)
def test_grammar_built_alone_prints_the_full_grammars_text(name):
    alone, full = build_parser([name]), build_parser()
    assert alone.format_usage() == full.format_usage()
    sub, full_sub = _subparser(alone, name), _subparser(full, name)
    assert sub.format_usage() == full_sub.format_usage()
    assert sub.format_help() == full_sub.format_help()
    with pytest.raises(KeyError):  # and nothing else was built
        _subparser(alone, next(other for other in COMMANDS if other != name))


@pytest.mark.parametrize("name", COMMANDS)
@pytest.mark.parametrize("case", ["bad-flag", "missing-required"])
def test_grammar_built_alone_reports_the_full_grammars_errors(capsys, name, case):
    # a bad flag after all required ones is reported by the top-level parser,
    # under its own usage line; a missing flag by the subparser
    argv = [name, *_REQUIRED[name], "--no-such-flag"] if case == "bad-flag" else [name]
    errors = []
    for ap in (build_parser(argv), build_parser()):
        with pytest.raises(SystemExit) as exc:
            ap.parse_args(argv)
        assert exc.value.code == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert ("unrecognized arguments: --no-such-flag" if case == "bad-flag"
            else "the following arguments are required") in errors[0]


def test_simulate_builds_only_its_own_grammar(tmp_path, monkeypatch):
    # the top-level parser's -h, then simulate's subparser, and nothing more
    simulate = _subparser(build_parser(), "simulate")
    expected = ["-h"] + [a.option_strings[0] for a in simulate._actions]
    calls = []
    add_argument = argparse.ArgumentParser.add_argument

    def counted(self, *names, **kwargs):
        calls.append(names[0])
        return add_argument(self, *names, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counted)
    _simulate(tmp_path / "run")
    assert calls == expected


def test_missing_file_is_runtime_error(capsys):
    rc = run_command(["recognize", "--program", TEAM, "--team-mode",
                      "--log", "/nonexistent/overheard.log"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("overhear recognize: error:")


def test_simulate_writes_parseable_outputs(tmp_path):
    trace_path, log_path = _simulate(tmp_path / "run")
    trace = parse_trace(trace_path.read_text())
    log = parse_log(log_path.read_text())
    assert trace.ticks == 150
    assert trace.seed == 4
    assert all(0 <= m.tick < 150 for m in log)


@pytest.mark.parametrize("flags, message", [
    (["--fail-agent", "nobody", "--fail-ticks", "10"], "fail agent 'nobody'"),
    (["--fail-agent", "escort1", "--fail-from", "-3", "--fail-ticks", "10"], "fail_from"),
    (["--fail-agent", "escort1", "--fail-ticks", "-10"], "fail_ticks"),
    (["--fail-ticks", "10"], "needs a fail_agent"),
    (["--fail-agent", "escort1"], "fail agent 'escort1' needs fail_ticks > 0"),
], ids=["unknown-agent", "negative-from", "negative-ticks", "no-agent", "no-length"])
def test_simulate_rejects_an_outage_that_cannot_happen(tmp_path, capsys, flags, message):
    rc = run_command(["simulate", "--program", TEAM, "--team-mode", "--seed", "4",
                      "--ticks", "20", *flags, "--out", str(tmp_path / "run")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("overhear simulate: error:") and message in err
    assert not (tmp_path / "run").exists()


def test_simulate_is_reproducible(tmp_path):
    a = _simulate(tmp_path / "a")
    b = _simulate(tmp_path / "b")
    assert a[0].read_bytes() == b[0].read_bytes()
    assert a[1].read_bytes() == b[1].read_bytes()


def test_learn_round_trip(tmp_path):
    _, log_path = _simulate(tmp_path / "run", extra=["--comm-policy", "ALWAYS"])
    model_path = tmp_path / "model.txt"
    rc = run_command(["learn", "--log", str(log_path),
                      "--confidence", "0.9", "--out", str(model_path)])
    assert rc == 0
    model = parse_comm_model(model_path.read_text())
    assert model.confidence == 0.9
    assert model.rules
    for m in parse_log(log_path.read_text()):
        assert model.predicts(m.plan, m.kind)


def test_lose_drops_exact_fraction(tmp_path):
    _, log_path = _simulate(tmp_path / "run", extra=["--comm-policy", "ALWAYS"])
    n = len(parse_log(log_path.read_text()))
    out_path = tmp_path / "lossy.log"
    rc = run_command(["lose", "--log", str(log_path), "--rate", "0.3",
                      "--seed", "7", "--out", str(out_path)])
    assert rc == 0
    text = out_path.read_text()
    assert text.startswith("# loss rate=0.3 seed=7\n")
    survivors = parse_log(text)
    assert len(survivors) == n - int(0.3 * n)


def test_recognize_yoyo_lines(tmp_path):
    _, log_path = _simulate(tmp_path / "run")
    out_path = tmp_path / "states.txt"
    rc = run_command(["recognize", "--program", TEAM, "--team-mode",
                      "--mode", "yoyo", "--log", str(log_path),
                      "--ticks", "30", "--out", str(out_path)])
    assert rc == 0
    lines = out_path.read_text().splitlines()
    assert len(lines) == 30 * 2  # two populated leaf teams
    tick, unit, path = lines[0].split()
    assert tick == "0"
    assert unit in ("ESCORT", "TRANSPORT")
    assert path.startswith("evacuate/")
    assert {l.split()[1] for l in lines} == {"ESCORT", "TRANSPORT"}


def test_recognize_array_lines(tmp_path):
    _, log_path = _simulate(tmp_path / "run")
    out_path = tmp_path / "states.txt"
    rc = run_command(["recognize", "--program", TEAM, "--team-mode",
                      "--mode", "array", "--log", str(log_path),
                      "--ticks", "20", "--out", str(out_path)])
    assert rc == 0
    lines = out_path.read_text().splitlines()
    assert len(lines) == 20 * 4  # one line per agent per tick
    assert {l.split()[1] for l in lines} == {"escort1", "escort2",
                                             "transport1", "transport2"}


def test_recognize_default_ticks_follow_log(tmp_path):
    _, log_path = _simulate(tmp_path / "run")
    log = parse_log(log_path.read_text())
    assert log
    out_path = tmp_path / "states.txt"
    rc = run_command(["recognize", "--program", TEAM, "--team-mode",
                      "--mode", "yoyo", "--log", str(log_path),
                      "--out", str(out_path)])
    assert rc == 0
    lines = out_path.read_text().splitlines()
    assert len(lines) == (max(m.tick for m in log) + 2) * 2


def _recognized(p, log_path, mode, ticks):
    """What ``recognize`` prints for program ``p``, computed in process."""
    rec = make_recognizer(p, mode)
    return "".join(f"{t} {unit} {'/'.join(rec.path(unit))}\n"
                   for t in rec.replay(parse_log(log_path.read_text()), ticks)
                   for unit in rec.units)


@pytest.mark.parametrize("mode", ["yoyo", "array"])
def test_recognize_reads_the_program_through_flat_mu_and_comm(tmp_path, mode):
    _, log_path = _simulate(tmp_path / "run")
    model_path = tmp_path / "model.txt"
    assert run_command(["learn", "--log", str(log_path), "--confidence", "0.05",
                        "--out", str(model_path)]) == 0
    p = load_program_path(TEAM, team_mode=True)
    model = parse_comm_model(model_path.read_text())
    outs = {}
    for name, flags, q in [("plain", [], p),
                           ("flat", ["--flat-mu", "0.05"], flatten_mu(p, 0.05)),
                           ("comm", ["--comm", str(model_path)], apply_comm_model(p, model))]:
        out_path = tmp_path / f"{name}.txt"
        assert run_command(["recognize", "--program", TEAM, "--team-mode", "--mode", mode,
                            "--log", str(log_path), "--ticks", "150", *flags,
                            "--out", str(out_path)]) == 0
        outs[name] = out_path.read_text()
        assert outs[name] == _recognized(q, log_path, mode, 150)
    assert outs["flat"] != outs["plain"] and outs["comm"] != outs["plain"]


def test_evaluate_reads_the_program_through_flat_mu(tmp_path):
    trace_path, log_path = _simulate(tmp_path / "run")
    out_path = tmp_path / "report.txt"
    assert run_command(["evaluate", "--program", TEAM, "--team-mode", "--flat-mu", "0.05",
                        "--log", str(log_path), "--truth", str(trace_path),
                        "--out", str(out_path)]) == 0
    p = flatten_mu(load_program_path(TEAM, team_mode=True), 0.05)
    report = evaluate_run(p, parse_trace(trace_path.read_text()),
                          parse_log(log_path.read_text()), mode="yoyo", coherent=None)
    assert out_path.read_text() == render_report(report)


@pytest.mark.parametrize("value", ["1.5", "nan"])
def test_evaluate_rejects_a_flat_mu_that_is_no_probability(tmp_path, capsys, value):
    trace_path, log_path = _simulate(tmp_path / "run")
    assert run_command(["evaluate", "--program", TEAM, "--team-mode", "--flat-mu", value,
                        "--log", str(log_path), "--truth", str(trace_path)]) == 1
    assert capsys.readouterr().err == ("overhear evaluate: error: "
                                       "flat mu must be a probability in [0, 1]\n")


@pytest.mark.parametrize("name", ["recognize", "evaluate"])
def test_flat_mu_and_comm_are_exclusive(tmp_path, capsys, name):
    # a communication model sets every mu, so the flat value would never be read
    argv = [name, *_REQUIRED[name], "--comm", "model.txt", "--flat-mu", "0.1"]
    with pytest.raises(SystemExit) as exc:
        run_command(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage" in err and "--flat-mu: not allowed with argument --comm" in err


@pytest.mark.parametrize("flag", [["--loss", "0.1"], ["--loss-seed", "3"]])
def test_evaluate_leaves_message_loss_to_lose(tmp_path, capsys, flag):
    # ``lose`` is the one message-loss step; evaluate scores the log it is given
    trace_path, log_path = _simulate(tmp_path / "run")
    with pytest.raises(SystemExit) as exc:
        run_command(["evaluate", "--program", TEAM, "--team-mode", "--log", str(log_path),
                     "--truth", str(trace_path), *flag])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


def test_evaluate_report_and_reproducibility(tmp_path):
    trace_path, log_path = _simulate(tmp_path / "run")
    outs = []
    for name in ("r1.txt", "r2.txt"):
        out_path = tmp_path / name
        rc = run_command(["evaluate", "--program", TEAM, "--team-mode",
                          "--log", str(log_path), "--truth", str(trace_path),
                          "--out", str(out_path)])
        assert rc == 0
        outs.append(out_path.read_bytes())
    assert outs[0] == outs[1]
    text = outs[0].decode()
    assert "config mode yoyo" in text
    assert "config delay 1" in text
    assert "metric accuracy " in text


def test_evaluate_has_no_temporal_switch(tmp_path, capsys):
    # scoring always uses the temporal engine; turning it off is not an option
    trace_path, log_path = _simulate(tmp_path / "run")
    with pytest.raises(SystemExit) as exc:
        run_command(["evaluate", "--program", TEAM, "--team-mode",
                     "--log", str(log_path), "--truth", str(trace_path),
                     "--no-temporal"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --no-temporal" in capsys.readouterr().err


def test_evaluate_of_a_lost_log_with_a_model(tmp_path):
    # ``lose`` then ``evaluate`` writes the report of the log that
    # ``apply_loss`` leaves, scored with the learned model
    trace_path, log_path = _simulate(tmp_path / "run")
    model_path, lossy_path = tmp_path / "model.txt", tmp_path / "lossy.txt"
    assert run_command(["learn", "--log", str(log_path),
                        "--out", str(model_path)]) == 0
    assert run_command(["lose", "--log", str(log_path), "--rate", "0.1",
                        "--seed", "3", "--out", str(lossy_path)]) == 0
    out_path = tmp_path / "report.txt"
    rc = run_command(["evaluate", "--program", TEAM, "--team-mode",
                      "--log", str(lossy_path), "--truth", str(trace_path),
                      "--comm", str(model_path), "--out", str(out_path)])
    assert rc == 0
    text = out_path.read_text()
    assert "config comm 1" in text
    p = load_program_path(TEAM, team_mode=True)
    lossy = apply_loss(parse_log(log_path.read_text()), 0.1, 3)
    assert lossy == parse_log(lossy_path.read_text())
    report = evaluate_run(p, parse_trace(trace_path.read_text()), lossy, mode="yoyo",
                          comm_model=parse_comm_model(model_path.read_text()))
    assert text == render_report(report)


def test_evaluate_runs_share_one_kernel(tmp_path):
    # each run builds a fresh comm-applied program; equal programs share one
    # compiled object and kernel, generated and compiled once per process
    trace_path, log_path = _simulate(tmp_path / "run")
    model_path = tmp_path / "model.txt"
    assert run_command(["learn", "--log", str(log_path), "--out", str(model_path)]) == 0
    argv = ["evaluate", "--program", TEAM, "--team-mode", "--log", str(log_path),
            "--truth", str(trace_path), "--comm", str(model_path)]
    _compile.cache_clear()
    for name in ("first.txt", "second.txt"):
        assert run_command([*argv, "--out", str(tmp_path / name)]) == 0
    assert _compile.cache_info().misses == 1
    assert (tmp_path / "first.txt").read_bytes() == (tmp_path / "second.txt").read_bytes()


@pytest.mark.parametrize("mode", ["yoyo", "array"])
def test_evaluate_runs_share_one_step_memo(tmp_path, monkeypatch, mode):
    # each run loads a fresh program and a fresh comm-applied copy; the step
    # memo is kept per set of program fields, so a second run builds no memo
    # and computes no step: each state's fresh lists are adopted as the
    # memo's value of the first run's equal start, and followed from there
    trace_path, log_path = _simulate(tmp_path / "run")
    model_path = tmp_path / "model.txt"
    assert run_command(["learn", "--log", str(log_path), "--out", str(model_path)]) == 0
    argv = ["evaluate", "--program", TEAM, "--team-mode", "--log", str(log_path),
            "--truth", str(trace_path), "--comm", str(model_path), "--mode", mode]
    memos = []

    class Counted(compiled.StepMemo):
        __slots__ = ()

        def __init__(self, leaves):
            super().__init__(leaves)
            memos.append(self)

    monkeypatch.setattr(compiled, "StepMemo", Counted)
    _compile.cache_clear()
    counts, misses = [], []
    for name in ("first.txt", "second.txt"):
        assert run_command([*argv, "--out", str(tmp_path / name)]) == 0
        counts.append(len(memos))
        misses.append({kind: sum(m.misses[kind] for m in memos) for kind in memos[0].misses})
    assert counts[0] > 0 and counts[1] == counts[0]
    assert misses[1] == misses[0]
    assert (tmp_path / "first.txt").read_bytes() == (tmp_path / "second.txt").read_bytes()


@pytest.mark.parametrize("mode", ["yoyo", "array"])
def test_evaluate_rejects_trace_without_program_agents(tmp_path, capsys, mode):
    # a truth trace for other agents must be a clean error, not a KeyError
    trace_path, log_path = _simulate(tmp_path / "run")
    text = trace_path.read_text()
    for agent in ("escort1", "escort2", "transport1", "transport2"):
        text = text.replace(f" {agent} ", f" other-{agent} ")
    trace_path.write_text(text)
    rc = run_command(["evaluate", "--program", TEAM, "--team-mode", "--mode", mode,
                      "--log", str(log_path), "--truth", str(trace_path)])
    assert rc == 1
    assert "truth trace has no state for agent 'escort1'" in capsys.readouterr().err


@pytest.mark.parametrize("delay", ["-1", "-200"])
def test_evaluate_rejects_negative_delay(tmp_path, capsys, delay):
    # -1 would score the state before each message and -200 ran off the trace
    trace_path, log_path = _simulate(tmp_path / "run")
    rc = run_command(["evaluate", "--program", TEAM, "--team-mode", "--delay", delay,
                      "--log", str(log_path), "--truth", str(trace_path)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("overhear evaluate: error: checkpoint delay must be "
                            f"nonnegative, got {delay}\n")


def test_recognize_rejects_bad_comm_model(tmp_path, capsys):
    _, log_path = _simulate(tmp_path / "run")
    model_path = tmp_path / "model.txt"
    model_path.write_text("CONFIDENCE 0.9\nCONFIDENCE abc\n")
    rc = run_command(["recognize", "--program", TEAM, "--team-mode",
                      "--log", str(log_path), "--comm", str(model_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("overhear recognize: error: line 2: confidence must be a number")


def test_output_files_are_rewritten_whole(tmp_path):
    _, log_path = _simulate(tmp_path / "run")
    fresh = tmp_path / "fresh.txt"
    assert run_command(["learn", "--log", str(log_path), "--out", str(fresh)]) == 0
    model = fresh.read_text()
    # a longer old file keeps none of its tail
    out = tmp_path / "model.txt"
    out.write_text("x" * 100_000)
    assert run_command(["learn", "--log", str(log_path), "--out", str(out)]) == 0
    assert out.read_text() == model
    # a symlink is written through to its target, as with open(..., "w")
    link = tmp_path / "link.txt"
    link.symlink_to(out)
    out.write_text("y" * 100_000)
    assert run_command(["learn", "--log", str(log_path), "--out", str(link)]) == 0
    assert link.is_symlink()
    assert out.read_text() == model


def test_out_may_be_a_device_or_a_pipe():
    argv = [sys.executable, "-m", "overhear.cli", "bench", "--program", TEAM,
            "--agents", "4:5", "--ticks", "5"]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    runs = [subprocess.run([*argv, *extra], env=env, stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE, timeout=60)
            for extra in ((), ("--out", os.devnull), ("--out", "/dev/stdout"))]
    for done in runs:
        assert done.returncode == 0, done.stderr
        assert done.stderr == b""
    assert runs[0].stdout.startswith(b"agents ")
    assert runs[1].stdout == b""
    assert runs[2].stdout == runs[0].stdout


def test_bench_table(tmp_path, capsys):
    rc = run_command(["bench", "--program", TEAM, "--agents", "4:6",
                      "--ticks", "5"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "agents array_nodes yoyo_nodes array_visits yoyo_visits"
    assert len(lines) == 4
    assert [int(l.split()[0]) for l in lines[1:]] == [4, 5, 6]


def test_bench_rejects_bad_range(capsys):
    rc = run_command(["bench", "--program", TEAM, "--agents", "7"])
    assert rc == 1
    assert "MIN:MAX" in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (["recognize", "--program", TEAM, "--team-mode", "--ticks", "-3"], "ticks must be positive"),
    (["recognize", "--program", TEAM, "--team-mode", "--ticks", "0"], "ticks must be positive"),
    (["bench", "--program", TEAM, "--agents", "4:5", "--ticks", "-5"], "ticks must be positive"),
    (["bench", "--program", TEAM, "--agents", "6:4"], "range '6:4' is empty"),
    (["bench", "--program", TEAM, "--agents", "12:"], "--agents wants MIN:MAX, got '12:'"),
    (["bench", "--program", TEAM, "--agents", "12:x"], "--agents wants MIN:MAX, got '12:x'"),
])
def test_runs_with_nothing_to_do_are_errors(tmp_path, capsys, argv, message):
    if argv[0] == "recognize":
        log = tmp_path / "log.txt"
        log.write_text("")
        argv = [*argv, "--log", str(log)]
    rc = run_command(argv)
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.startswith(f"overhear {argv[0]}: error:")
    assert message in captured.err


def test_cli_import_leaves_numpy_out():
    # only the C1 oracle needs numpy; every command starts without it
    done = subprocess.run(
        [sys.executable, "-c", "import sys, overhear.cli; print('numpy' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


@pytest.fixture
def installed_overhear(tmp_path, monkeypatch):
    """Install this checkout with pip into a scratch directory, as a user
    would, and put that install first on PATH and PYTHONPATH.

    Offline and without build isolation: the in-tree build backend needs
    nothing beyond the standard library (and ``tomli`` on Python 3.10,
    which pytest requires there too).
    """
    target = tmp_path / "site"
    done = subprocess.run(
        [sys.executable, "-m", "pip", "install", "--no-index", "--no-deps",
         "--no-build-isolation", "--no-cache-dir", "--disable-pip-version-check",
         "--quiet", "--target", str(target), str(ROOT)],
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    monkeypatch.setenv("PATH", os.pathsep.join([str(target / "bin"), os.environ["PATH"]]))
    monkeypatch.setenv("PYTHONPATH", str(target))


def test_installed_entry_point(installed_overhear):
    exe = shutil.which("overhear")
    assert exe, "console script should be installed"
    done = subprocess.run([exe, "--help"], capture_output=True, text=True)
    assert done.returncode == 0
    assert "simulate" in done.stdout
