import pytest

from overhear.belief import MonitoringError, apply_messages
from overhear.cli import run_command
from overhear.ingest import TERM, ObservedMessage, format_log, parse_log
from overhear.recognizer import ArrayRecognizer, SharedRecognizer, make_recognizer

from conftest import DATA

TEAM = str(DATA / "evac_team.json")
AGENTS = ("escort1", "escort2", "transport1", "transport2")


def _quiet(rec, ticks=5):
    for _ in range(ticks):
        rec.step([])


@pytest.mark.parametrize("mode, coherent", [("yoyo", None), ("array", False),
                                            ("array", True)])
def test_unit_lists(evac_team, mode, coherent):
    rec = make_recognizer(evac_team, mode, coherent)
    assert rec.teams == ("ESCORT", "TRANSPORT")  # populated leaf teams only
    assert rec.agents == AGENTS
    for unit in rec.teams + (rec.agents if mode == "array" else ()):
        assert rec.path(unit)[0] == "evacuate"


@pytest.mark.parametrize("mode, coherent", [("yoyo", None), ("array", False),
                                            ("array", True)])
def test_path_of_unknown_unit(evac_team, mode, coherent):
    rec = make_recognizer(evac_team, mode, coherent)
    with pytest.raises(MonitoringError, match="unknown unit 'nobody'"):
        rec.path("nobody")


def test_layout_defaults_and_checks(evac_team, evac_mini_single):
    assert isinstance(make_recognizer(evac_team, "yoyo"), SharedRecognizer)
    assert make_recognizer(evac_team, "yoyo").coherent
    assert isinstance(make_recognizer(evac_team, "array"), ArrayRecognizer)
    assert not make_recognizer(evac_team, "array").coherent
    with pytest.raises(MonitoringError, match="mode 'exact'"):
        make_recognizer(evac_team, "exact")
    with pytest.raises(MonitoringError, match="inherently coherent"):
        make_recognizer(evac_team, "yoyo", coherent=False)
    with pytest.raises(MonitoringError, match="team program"):
        make_recognizer(evac_mini_single, "yoyo")


def test_coherent_routing_reaches_every_member(evac_team):
    rec = make_recognizer(evac_team, "array", coherent=True)
    _quiet(rec)
    before = dict(rec.beliefs)
    msg = ObservedMessage(5, "escort1", "TASK-FORCE", TERM, "process-orders")
    assert rec.recipients(msg) == list(AGENTS)
    rec.step([msg])
    for a in AGENTS:
        want = apply_messages(before[a], [msg], rec.view)
        assert rec.beliefs[a].active == want.active
        assert rec.beliefs[a].active["n2"] == pytest.approx(1.0)


def test_coherent_routing_stays_inside_the_team(evac_team):
    rec = make_recognizer(evac_team, "array", coherent=True)
    _quiet(rec)
    msg = ObservedMessage(5, "escort1", "ESCORT", TERM, "process-orders")
    assert rec.recipients(msg) == ["escort1", "escort2"]
    rec.step([msg])
    assert rec.beliefs["escort2"].active["n2"] == pytest.approx(1.0)
    assert rec.beliefs["transport1"].active["n2"] < 1.0


def test_incoherent_routing_reaches_only_the_sender(evac_team):
    rec = make_recognizer(evac_team, "array")
    msg = ObservedMessage(5, "escort1", "TASK-FORCE", TERM, "process-orders")
    assert rec.recipients(msg) == ["escort1"]
    # an unknown team under coherence also falls back to the sender
    coherent = make_recognizer(evac_team, "array", coherent=True)
    assert coherent.recipients(ObservedMessage(5, "escort1", "NOBODY", TERM,
                                               "process-orders")) == ["escort1"]


@pytest.mark.parametrize("mode, coherent", [("yoyo", None), ("array", False),
                                            ("array", True)])
def test_unknown_sender_raises_with_its_tick(evac_team, mode, coherent):
    rec = make_recognizer(evac_team, mode, coherent)
    with pytest.raises(MonitoringError, match="tick 3 .*'stranger'"):
        rec.step([ObservedMessage(3, "stranger", "NOBODY", TERM, "process-orders")])


# --- the commands agree -----------------------------------------------------------


@pytest.fixture
def run_with_stranger(tmp_path):
    """A team-mode run: its trace, its log, and a copy of the log with one
    more message, from an unknown agent, plus that message's tick."""
    out = tmp_path / "run"
    assert run_command(["simulate", "--program", TEAM, "--team-mode", "--seed", "4",
                        "--ticks", "150", "--send-prob", "0.6", "--out", str(out)]) == 0
    log = parse_log((out / "log.txt").read_text())
    first = log[0]
    stranger = ObservedMessage(first.tick, "stranger", "NOBODY", first.kind, first.plan)
    path = tmp_path / "stranger.log"
    path.write_text(format_log([first, stranger] + log[1:]))
    return out / "trace.txt", out / "log.txt", path, first.tick


@pytest.mark.parametrize("layout", [["--mode", "yoyo"],
                                    ["--mode", "array", "--no-coherent"],
                                    ["--mode", "array", "--coherent"]])
@pytest.mark.parametrize("command", ["recognize", "evaluate"])
def test_unknown_sender_fails_both_commands(run_with_stranger, capsys, layout, command):
    trace, _, log, tick = run_with_stranger
    argv = [command, "--program", TEAM, "--team-mode", *layout, "--log", str(log)]
    if command == "evaluate":
        argv += ["--truth", str(trace)]
    assert run_command(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"overhear {command}: error: message at tick {tick} ")
    assert "'stranger'" in err


@pytest.mark.parametrize("command", ["recognize", "evaluate"])
def test_yoyo_without_coherence_is_rejected(run_with_stranger, capsys, command):
    trace, log, _, _ = run_with_stranger
    argv = [command, "--program", TEAM, "--team-mode", "--mode", "yoyo",
            "--no-coherent", "--log", str(log)]
    if command == "evaluate":
        argv += ["--truth", str(trace)]
    assert run_command(argv) == 1
    assert "inherently coherent" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["recognize", "evaluate"])
def test_yoyo_without_team_mode_is_rejected(run_with_stranger, capsys, command):
    trace, log, _, _ = run_with_stranger
    argv = [command, "--program", TEAM, "--mode", "yoyo", "--log", str(log)]
    if command == "evaluate":
        argv += ["--truth", str(trace)]
    assert run_command(argv) == 1
    assert "needs a team program" in capsys.readouterr().err
