import pytest

from overhear.belief import MonitoringError, Value, most_likely_state, quiet_step
from overhear.cli import run_command
from overhear.harness import evaluate_run
from overhear.ingest import TERM, ObservedMessage, format_log, parse_log
from overhear.model import program_from_document, program_to_document, serialize_program
from overhear.progen import team_program
from overhear.recognizer import ArrayRecognizer, SharedRecognizer, make_recognizer
from overhear.sim import SimConfig, checkpoints, simulate
from overhear.yoyo import team_most_likely

from conftest import (DATA, _reference_pick, commit_messages, held_leaves, propagate_forward,
                      snapshot)
from test_digest import SWEEP_SHA256, TICKS, sweep_replays

TEAM = str(DATA / "evac_team.json")
AGENTS = ("escort1", "escort2", "transport1", "transport2")
LAYOUTS = [("yoyo", None), ("array", False), ("array", True)]
LAYOUT_FLAGS = {("yoyo", None): ["--mode", "yoyo"],
                ("array", False): ["--mode", "array", "--no-coherent"],
                ("array", True): ["--mode", "array", "--coherent"]}


def _quiet(rec, ticks=5):
    for _ in range(ticks):
        rec.step([])


@pytest.mark.parametrize("mode, coherent", LAYOUTS)
def test_unit_lists(evac_team, mode, coherent):
    rec = make_recognizer(evac_team, mode, coherent)
    assert rec.teams == ("ESCORT", "TRANSPORT")  # populated leaf teams only
    assert rec.agents == AGENTS
    assert rec.units == (AGENTS if coherent is False else rec.teams)
    for unit in rec.teams + (rec.agents if mode == "array" else ()):
        assert rec.path(unit)[0] == "evacuate"


@pytest.mark.parametrize("mode, coherent", LAYOUTS)
def test_path_of_unknown_unit(evac_team, mode, coherent):
    rec = make_recognizer(evac_team, mode, coherent)
    with pytest.raises(MonitoringError, match="unknown unit 'nobody'"):
        rec.path("nobody")


@pytest.mark.parametrize("mode, coherent", LAYOUTS)
def test_replay_steps_tick_zero_only_on_messages(evac_team, mode, coherent):
    quiet = make_recognizer(evac_team, mode, coherent)
    replay = quiet.replay([], 4)
    assert next(replay) == 0
    assert quiet.counter.visits == 0  # tick 0 is the initial belief
    assert list(replay) == [1, 2, 3]
    beliefs = 1 if mode == "yoyo" else len(AGENTS)
    assert quiet.counter.visits == 3 * len(evac_team.node_ids) * beliefs

    heard = make_recognizer(evac_team, mode, coherent)
    stepped = make_recognizer(evac_team, mode, coherent)
    msg = ObservedMessage(0, "escort1", "TASK-FORCE", TERM, "process-orders")
    for t in heard.replay([msg], 3):
        stepped.step([msg] if t == 0 else [])
        assert {u: heard.path(u) for u in heard.units} == \
            {u: stepped.path(u) for u in stepped.units}
    assert heard.counter.visits == stepped.counter.visits


def test_array_recognizers_share_one_view(evac_team):
    first, second = make_recognizer(evac_team, "array"), make_recognizer(evac_team, "array")
    assert first.view is second.view is evac_team.single_agent_view()
    assert make_recognizer(evac_team, "array", coherent=True).view is first.view


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
    before = {a: snapshot(b) for a, b in rec.beliefs.items()}
    msg = ObservedMessage(5, "escort1", "TASK-FORCE", TERM, "process-orders")
    assert rec.recipients(msg) == list(AGENTS)
    rec.step([msg])
    for a in AGENTS:
        commit_messages(before[a], [msg], rec.view)
        assert rec.beliefs[a].active == before[a].active
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


def test_coherent_routing_of_a_team_without_agents_reaches_the_sender():
    # a known team with no agents routes to the sender under coherence, as
    # an unknown team does, so the message is committed as it is without
    # coherence and never dropped
    doc = program_to_document(team_program(0))
    doc["teams"].append({"name": "DELTA", "parent": "TASK-FORCE"})
    q = program_from_document(doc)
    msg = ObservedMessage(1, "alpha1", "DELTA", TERM, q.plans[q.leaf_index[0]].name)
    coherent, alone, quiet = (make_recognizer(q, "array", c) for c in (True, False, True))
    assert coherent.recipients(msg) == alone.recipients(msg) == ["alpha1"]
    coherent.step([msg])
    alone.step([msg])
    quiet.step([])
    assert coherent.beliefs == alone.beliefs
    assert coherent.beliefs["alpha1"] != quiet.beliefs["alpha1"]


def _bits(b):
    return ([(x, v.hex()) for x, v in b.active.items()],
            [(x, v.hex()) for x, v in b.blocked.items()])


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("prog", range(7))
def test_coherent_array_rows_stay_identical(prog, seed):
    """Under coherence every member of a leaf team hears the same messages
    from the same start, so each holds a belief bit-identical to the others'."""
    p = team_program(prog)
    ticks = 150
    _, log = simulate(p, SimConfig(seed=seed, ticks=ticks, team_mode=True))
    rec = make_recognizer(p, "array", True)
    members = [p.team_hierarchy.members(team) for team in rec.teams]
    assert all(len(team) > 1 for team in members)
    for _ in rec.replay(log, ticks):
        for team in members:
            first = _bits(rec.beliefs[team[0]])
            assert all(_bits(rec.beliefs[a]) == first for a in team[1:])


def _pick_over_every_candidate(rec, team: str) -> tuple[str, ...]:
    """A coherent array team's path as the reference pick over every candidate leaf."""
    view = rec.view
    leaves = view.leaves_by_team[team]
    members = [rec.beliefs[a] for a in view.team_hierarchy.members(team)]
    mass = {x: sum(b.act[x] + b.blk[x] for b in members) for x in leaves}
    return view.name_paths_at[_reference_pick(leaves, mass, view.zeros)]


@pytest.mark.parametrize("key", [key for key in SWEEP_SHA256 if key[1:] == ("array", True)],
                         ids=lambda key: "/".join(map(str, key)))
def test_coherent_array_team_path_is_the_pick_over_every_candidate(key):
    answers = 0
    for _, rec, by_tick in sweep_replays(*key):
        for t in range(TICKS):
            rec.step(by_tick.get(t, []))
            for team in rec.teams:
                assert rec.path(team) == _pick_over_every_candidate(rec, team), (key, t, team)
                answers += 1
    assert answers > 0


def test_coherent_array_team_path_sums_the_members_live_candidates():
    rec = make_recognizer(team_program(0), "array", coherent=True)
    view, team = rec.view, "ALPHA"
    candidates = view.leaves_by_team[team]
    outside = [x for x in view.leaf_index if x not in candidates]
    members = [rec.beliefs[a] for a in view.team_hierarchy.members(team)]

    def put(b, masses: dict):
        act = list(view.zeros)
        for x, mass in masses.items():
            act[x] = mass
        b.value = Value(act, view.zeros)

    def path():
        answer = rec.path(team)
        assert answer == _pick_over_every_candidate(rec, team)
        return answer

    for k, b in enumerate(members):
        put(b, {outside[k]: 1.0})
    # no candidate holds mass in any member: the first candidate
    assert path() == view.name_paths_at[candidates[0]]
    put(members[0], {outside[0]: 1.0, candidates[-1]: 0.0})
    assert path() == view.name_paths_at[candidates[0]]
    # candidates live in different members are summed: 0.3 + 0.3 beats 0.5
    x, y = candidates[-1], candidates[-2]
    put(members[0], {x: 0.3, y: 0.5})
    put(members[1], {x: 0.3})
    assert path() == view.name_paths_at[x]


def _point_mass(p, x: int) -> list:
    """An active table with all mass on node x and its ancestors, as a commit leaves it."""
    active = list(p.zeros)
    for y in (x, *p.ancestors_at[x]):
        active[y] = 1.0
    return active


@pytest.mark.parametrize("layout", ["array", "yoyo"])
def test_mass_assigned_to_a_leaf_without_mass_is_read_by_every_query(layout):
    # a state's act replaced, and nothing else, by a point mass on a team's
    # leaf that held no mass: every query reads it as a pick over every
    # leaf would, and one quiet step from it gives the memo-free step's
    # bits; then the array team's members hold different values, with mass
    # on disjoint candidates, and the team query is the member-sum pick
    rec = make_recognizer(team_program(0), layout, coherent=True)
    q, team = (rec.p if layout == "yoyo" else rec.view), "ALPHA"
    states = ([rec.belief] if layout == "yoyo"
              else [rec.beliefs[a] for a in q.team_hierarchy.members(team)])
    x = next(x for x in q.leaves_by_team[team][1:] if x not in held_leaves(q, states[0]))
    for b in states:
        b.value = Value(_point_mass(q, x), b.blk)
    b = states[0]
    if layout == "yoyo":
        for unit in rec.teams:
            leaves = q.leaves_by_team[unit]
            assert team_most_likely(b, q, unit) == _reference_pick(leaves, b.act, b.blk), unit
        assert rec.path(team) == q.name_paths_at[x]
    else:
        assert most_likely_state(b, q) == _reference_pick(q.leaf_index, b.act, b.blk) == x
        assert rec.path(team) == _pick_over_every_candidate(rec, team) == q.name_paths_at[x]
    expected = snapshot(b)
    quiet_step(q, [b])
    propagate_forward(expected, q)
    assert [v.hex() for v in (*b.act, *b.blk)] == [v.hex() for v in (*expected.act, *expected.blk)]
    if layout == "array":
        y, z = [c for c in q.leaves_by_team[team] if c != x][:2]
        answers = []
        for spread in ((x, x, y, z), (x, y, y, z), (y, z, x, z)):
            for member, c in zip(states, spread, strict=True):
                member.value = Value(_point_mass(q, c), q.zeros)
            answers.append(rec.path(team))
            assert answers[-1] == _pick_over_every_candidate(rec, team), spread
        assert answers == [q.name_paths_at[c] for c in (x, y, z)]


@pytest.mark.parametrize("mode, coherent", LAYOUTS)
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


def _recognize(tmp_path, program, log, flags, *extra):
    """``recognize``'s lines as {tick: {unit: path}}."""
    out = tmp_path / "recognize.txt"
    assert run_command(["recognize", "--program", str(program), "--team-mode", *flags,
                        "--log", str(log), *extra, "--out", str(out)]) == 0
    lines: dict[int, dict[str, str]] = {}
    for line in out.read_text().splitlines():
        tick, unit, path = line.split()
        lines.setdefault(int(tick), {})[unit] = path
    return lines


@pytest.mark.parametrize("layout", LAYOUTS, ids=["yoyo", "array", "coherent-array"])
def test_tick_zero_message_reaches_both_commands(tmp_path, evac_team, layout):
    # the log's first tick is 0 (as in every KQML log); evaluate must apply
    # that message before its first checkpoint, as recognize does
    trace, _ = simulate(evac_team, SimConfig(seed=7, ticks=20, team_mode=True))
    log = [ObservedMessage(0, "escort1", "TASK-FORCE", TERM, "process-orders")]
    log_path = tmp_path / "log.txt"
    log_path.write_text(format_log(log))
    mode, coherent = layout
    hyps: list = []
    evaluate_run(evac_team, trace, log, mode=mode, coherent=coherent, hypotheses_out=hyps)
    lines = _recognize(tmp_path, TEAM, log_path, LAYOUT_FLAGS[layout])
    assert len(hyps) == 1
    assert lines[1] == {u: "/".join(path) for u, path in hyps[0].items()}
    heard = "escort1" if layout == ("array", False) else "ESCORT"
    assert lines[1][heard] == "evacuate/fly-flight-plan/travel"


@pytest.mark.parametrize("layout", LAYOUTS, ids=["yoyo", "array", "coherent-array"])
def test_recognize_lines_match_evaluate_checkpoints(tmp_path, layout):
    tp = team_program(0)
    program = tmp_path / "team.json"
    program.write_text(serialize_program(tp))
    trace, log = simulate(tp, SimConfig(seed=3, ticks=200, team_mode=True, send_prob=0.6))
    log_path = tmp_path / "log.txt"
    log_path.write_text(format_log(log))
    mode, coherent = layout
    hyps: list = []
    evaluate_run(tp, trace, log, mode=mode, coherent=coherent, hypotheses_out=hyps)
    lines = _recognize(tmp_path, program, log_path, LAYOUT_FLAGS[layout])
    ticks = sorted({tick for tick, _ in checkpoints(trace, log, 1)})
    assert len(ticks) == len(hyps) > 10
    for tick, hyp in zip(ticks, hyps):
        assert lines[tick] == {u: "/".join(path) for u, path in hyp.items()}


def test_coherent_array_recognize_prints_teams(tmp_path, run_with_stranger):
    _, log, _, _ = run_with_stranger
    lines = _recognize(tmp_path, TEAM, log, LAYOUT_FLAGS[("array", True)], "--ticks", "30")
    assert sorted(lines) == list(range(30))
    assert all(tuple(units) == ("ESCORT", "TRANSPORT") for units in lines.values())
