"""Ground-truth simulator for team-oriented programs.

Executes a program tick by tick and emits the coordination messages an
overhearer would catch.  Two modes mirror the two recognizers: independent
per-agent execution (every agent walks its own copy of the plan tree) and
team execution (one shared run in which sibling teams advance in parallel
and exactly one member of the acting team announces each transition).

Both modes keep one run state.  A unit (an agent run, or one parallel group
of a team run) executes its plan while its ``pending`` is None.  Otherwise
it is blocked at that plan, and ``pending`` says why: the transition it
waits to announce, ``_DONE`` (the plan completed its parent, or the root
completed) or ``_NO_EXIT`` (the plan has no transition out).

Timeline convention, chosen to match the belief engine: a leaf that
terminates during tick t is recorded as blocked from tick t+1 on, the
announcement (if any) is observed at tick t+1, and the successor starts
executing at tick t+2.  Silent transitions skip the blocked tick entirely.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .ingest import INIT, TERM, ObservedMessage
from .model import TERMINATE, TeamOrientedProgram, hazard

MU_SAMPLED = "MU_SAMPLED"
ALWAYS = "ALWAYS"
NEVER = "NEVER"
COMM_POLICIES = (MU_SAMPLED, ALWAYS, NEVER)


class SimulationError(Exception):
    pass


@dataclass(frozen=True)
class SimConfig:
    seed: int = 0
    ticks: int = 200
    team_mode: bool = False
    comm_policy: str = MU_SAMPLED
    send_prob: float = 1.0
    fail_agent: str | None = None
    fail_from: int = 0
    fail_ticks: int = 0

    def __post_init__(self):
        if self.comm_policy not in COMM_POLICIES:
            raise SimulationError(f"unknown comm policy '{self.comm_policy}'")
        if self.ticks < 1:
            raise SimulationError("ticks must be positive")
        if not 0.0 <= self.send_prob <= 1.0:
            raise SimulationError("send_prob must lie in [0, 1]")
        if self.fail_from < 0:
            raise SimulationError(f"fail_from must be nonnegative, got {self.fail_from}")
        if self.fail_ticks < 0:
            raise SimulationError(f"fail_ticks must be nonnegative, got {self.fail_ticks}")
        if self.fail_ticks and self.fail_agent is None:
            raise SimulationError("an outage of fail_ticks > 0 needs a fail_agent")
        if self.fail_agent is not None and not self.fail_ticks:
            raise SimulationError(f"fail agent '{self.fail_agent}' needs fail_ticks > 0")

    def fails_at(self, agent: str, tick: int) -> bool:
        return (agent == self.fail_agent
                and self.fail_from <= tick < self.fail_from + self.fail_ticks)


@dataclass
class GroundTruthTrace:
    """Per-tick, per-agent truth: (root-to-locus name path, blocked flag)."""
    seed: int
    agents: tuple[str, ...]
    steps: list[dict[str, tuple[tuple[str, ...], bool]]]
    transition_count: int = -1

    @property
    def ticks(self) -> int:
        return len(self.steps)


def format_trace(trace: GroundTruthTrace) -> str:
    lines = [f"# seed {trace.seed}"]
    paths: dict[tuple[tuple[str, ...], bool], str] = {}  # each distinct state once
    for tick, step in enumerate(trace.steps):
        stamp = f"{tick} "  # formatted once per tick, not once per line
        for agent in trace.agents:
            state = step[agent]
            path = paths.get(state)
            if path is None:
                names, blocked = state
                path = paths[state] = "/".join(names) + ("!" if blocked else "")
            lines.append(f"{stamp}{agent} {path}")
    return "\n".join(lines) + "\n"


def parse_trace(text: str) -> GroundTruthTrace:
    """Read a trace written by ``format_trace``; bad text raises ``SimulationError``."""
    seed = 0
    steps: list[dict[str, tuple[tuple[str, ...], bool]]] = []
    agents: list[str] = []  # in order of first appearance
    seen: set[str] = set()
    states: dict[str, tuple[tuple[str, ...], bool]] = {}  # path text -> state
    ticks: dict[str, int] = {}  # tick text -> checked tick
    lines = text.splitlines()
    for lineno, line in enumerate(lines, start=1):
        parts = line.split()
        if not parts:
            continue
        if parts[0].startswith("#"):
            comment = line.split("#", 1)[1].split()
            if len(comment) == 2 and comment[0] == "seed":
                seed = _trace_int(comment[1], "seed", lineno)
            continue
        if len(parts) != 3:
            raise SimulationError(f"trace line {lineno}: expected 'tick agent path'")
        raw_tick, agent, path = parts
        tick = ticks.get(raw_tick)
        if tick is None:
            tick = _trace_int(raw_tick, "tick", lineno)
            if tick < 0:
                raise SimulationError(f"trace line {lineno}: tick {tick} is negative")
            if tick >= len(lines):  # ticks 0..tick would need more lines than there are
                raise SimulationError(f"trace line {lineno}: tick {tick} is past the "
                                      f"trace's {len(lines)} lines")
            ticks[raw_tick] = tick
        state = states.get(path)
        if state is None:
            state = states[path] = (tuple(path.rstrip("!").split("/")), path.endswith("!"))
        while len(steps) <= tick:
            steps.append({})
        step = steps[tick]
        if agent in step:
            raise SimulationError(
                f"trace line {lineno}: agent '{agent}' already has a state at tick {tick}")
        step[agent] = state
        if agent not in seen:
            seen.add(agent)
            agents.append(agent)
    for tick, step in enumerate(steps):
        if len(step) < len(agents):
            missing = next(a for a in agents if a not in step)
            raise SimulationError(f"trace is missing agent '{missing}' at tick {tick}")
    return GroundTruthTrace(seed=seed, agents=tuple(agents), steps=steps)


def _trace_int(text: str, what: str, lineno: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise SimulationError(f"trace line {lineno}: {what} must be an integer, "
                              f"got {text!r}") from None


def _descend(p: TeamOrientedProgram, rng: random.Random, node_id: str) -> str:
    """Walk to a leaf, picking uniformly among first children at each level."""
    while not p.is_leaf(node_id):
        node_id = rng.choice(sorted(p.first_children(node_id)))
    return node_id


def _sample_transition(p: TeamOrientedProgram, rng: random.Random, node_id: str):
    ts = p.out_transitions(node_id)
    if not ts:
        return None
    total = sum(t.pi for t in ts)
    r = rng.random() * total
    acc = 0.0
    for t in ts:
        acc += t.pi
        if r <= acc:
            return t
    return ts[-1]


def _wants_announce(cfg: SimConfig, rng: random.Random, mu: float) -> bool:
    if cfg.comm_policy == ALWAYS:
        return True
    if cfg.comm_policy == NEVER:
        return False
    return rng.random() < mu


def _make_message(rng: random.Random, tick: int, sender: str, team: str,
                  p: TeamOrientedProgram, src: str, t) -> ObservedMessage:
    # One announcement per transition; a terminating edge can only name its
    # source, otherwise the kind is an even coin between the two endpoints.
    if t.dst == TERMINATE or rng.random() < 0.5:
        return ObservedMessage(tick, sender, team, TERM, p.node(src).name)
    return ObservedMessage(tick, sender, team, INIT, p.node(t.dst).name)


# --- execution (the run-state rule is in the module docstring) --------------

# Tested with ``is``: ``==`` against a pending transition would run its
# dataclass ``__eq__``.
_DONE = "done"
_NO_EXIT = "no exit"


class _AgentRun:
    """One agent stepping through its own copy of the plan tree."""

    __slots__ = ("name", "p", "cfg", "rng", "node", "pending", "count")

    def __init__(self, name: str, p: TeamOrientedProgram, cfg: SimConfig):
        self.name = name
        self.p = p
        self.cfg = cfg
        self.rng = random.Random(f"{cfg.seed}:{name}")
        self.node = _descend(p, self.rng, p.root)
        self.pending = None
        self.count = 0  # transitions taken

    def truth(self) -> tuple[tuple[str, ...], bool]:
        return self.p.name_path(self.node), self.pending is not None

    def _end_plan(self, node_id: str) -> None:
        """The plan ``node_id`` finished: take a transition out, or block there."""
        self.node = node_id
        t = _sample_transition(self.p, self.rng, node_id)
        if t is None:
            self.pending = _NO_EXIT
        elif _wants_announce(self.cfg, self.rng, t.mu):
            self.pending = t
        else:
            self._resolve(t)

    def _resolve(self, t) -> None:
        # Counted here, not at sampling: a transition still waiting on its
        # announcement has not moved the state machine yet.
        self.count += 1
        if t.dst != TERMINATE:
            self.node, self.pending = _descend(self.p, self.rng, t.dst), None
        elif (parent := self.p.node(self.node).parent) is None:
            self.pending = _DONE
        else:
            self._end_plan(parent)

    def step(self, tick: int) -> ObservedMessage | None:
        """Advance one tick; returns the message sent during it, if any."""
        t = self.pending
        if t is None:
            if self.rng.random() < hazard(self.p.node(self.node).rate or 0.0):
                self._end_plan(self.node)
            return None
        if t is _DONE or t is _NO_EXIT or self.rng.random() >= self.cfg.send_prob:
            return None
        msg = _make_message(self.rng, tick, self.name, self.p.node(self.node).team,
                            self.p, self.node, t)
        self._resolve(t)
        return msg


class _Group:
    """One parallel branch: a sibling team working under a shared parent.

    ``current`` is the group's plan instance: executing while ``pending`` is
    None, else blocked there.
    """

    __slots__ = ("team", "owner", "current", "pending")

    def __init__(self, team: str, owner: "_Active"):
        self.team = team
        self.owner = owner
        self.current: _Active  # set by _TeamRun._spawn
        self.pending = None


class _Active:
    """A plan instance on some team's execution stack."""

    __slots__ = ("plan", "group", "groups")

    def __init__(self, plan: str, group: _Group | None):
        self.plan = plan
        self.group = group
        self.groups: list[_Group] = []


class _TeamRun:
    """One shared run of the whole team.  The root plan instance is the one
    unit that is no group; the run's own ``pending`` is its state."""

    def __init__(self, p: TeamOrientedProgram, cfg: SimConfig):
        self.p = p
        self.cfg = cfg
        self.rng = random.Random(cfg.seed)
        self.root = self._spawn(p.root, None)
        self.pending = None
        self.count = 0  # transitions taken

    def _spawn(self, plan: str, group: _Group | None) -> _Active:
        node = _Active(plan, group)
        for members in self.p.first_child_groups(plan):  # each sorted, one team
            g = _Group(self.p.node(members[0]).team, node)
            g.current = self._spawn(self.rng.choice(members), g)
            node.groups.append(g)
        return node

    def truth(self, team: str) -> tuple[tuple[str, ...], bool]:
        """The state of every agent on leaf team ``team``."""
        p = self.p
        if self.pending is not None:
            return p.name_path(p.root), True
        chain = p.team_hierarchy.ancestors_or_self(team)
        a = self.root
        while True:
            for g in a.groups:
                if g.team in chain:
                    break
            else:
                return p.name_path(a.plan), False
            a = g.current
            if g.pending is not None:
                return p.name_path(a.plan), True

    def _frontier(self, a: _Active, leaves: list[_Active], waiting: list[_Group]) -> None:
        """Collect, in walk order, the executing leaves under ``a`` and the
        groups there that wait to announce."""
        if not a.groups:  # a non-leaf plan has a first child, so a group
            leaves.append(a)
        for g in a.groups:
            t = g.pending
            if t is None:
                self._frontier(g.current, leaves, waiting)
            elif t is not _DONE and t is not _NO_EXIT:
                waiting.append(g)

    def _end_plan(self, a: _Active) -> None:
        """``a``'s plan finished: its unit takes a transition out, or blocks."""
        t = _sample_transition(self.p, self.rng, a.plan)
        g = a.group
        if g is None:
            # The root ends the run.  Its announcement would go into the
            # void, so only a silent edge out of it is counted.
            if t is not None and not _wants_announce(self.cfg, self.rng, t.mu):
                self.count += 1
            self.pending = _NO_EXIT if t is None else _DONE
        elif t is None:
            g.pending = _NO_EXIT  # never completes its owner
        elif _wants_announce(self.cfg, self.rng, t.mu):
            g.pending = t
        else:
            self._resolve(g, t)

    def _resolve(self, g: _Group, t) -> None:
        self.count += 1
        if t.dst != TERMINATE:
            g.pending, g.current = None, self._spawn(t.dst, g)
            return
        g.pending = _DONE
        owner = g.owner
        for sibling in owner.groups:
            if sibling.pending is not _DONE:
                return
        self._end_plan(owner)

    def step(self, tick: int) -> list[ObservedMessage]:
        msgs: list[ObservedMessage] = []
        if self.pending is not None:
            return msgs
        p, cfg, rng = self.p, self.cfg, self.rng
        h = p.team_hierarchy
        leaves: list[_Active] = []
        waiting: list[_Group] = []
        self._frontier(self.root, leaves, waiting)
        # Pending announcements first: the group stays blocked until one
        # member of the acting team gets a word in.
        waiting.sort(key=lambda g: g.current.plan)
        for g in waiting:
            if rng.random() >= cfg.send_prob:
                continue
            src = g.current.plan
            team = p.node(src).team
            members = h.members(team) or h.agent_names  # both sorted
            sender = rng.choice(members)
            msg = _make_message(rng, tick, sender, team, p, src, g.pending)
            if not cfg.fails_at(sender, tick):
                msgs.append(msg)
            self._resolve(g, g.pending)
        for leaf in leaves:
            if rng.random() < hazard(p.node(leaf.plan).rate or 0.0):
                self._end_plan(leaf)
        return msgs


def simulate(p: TeamOrientedProgram, cfg: SimConfig
             ) -> tuple[GroundTruthTrace, list[ObservedMessage]]:
    """Run the program for cfg.ticks ticks.

    Returns the ground-truth trace (state at the start of every tick) and
    the overheard message log, both fully determined by cfg.seed.  A
    team-mode run needs a program loaded in team mode, and ``cfg.fail_agent``
    must be one of the program's agents (``SimulationError``).
    """
    h = p.team_hierarchy
    agents = h.agent_names
    if not agents:
        raise SimulationError("program has no agents to simulate")
    if cfg.team_mode and not p.team_mode:
        # a team run forks into the program's parallel groups, and only a
        # team-mode program groups first children by team
        raise SimulationError("team-mode simulation needs a program loaded in team mode")
    if cfg.fail_agent is not None and not h.has_agent(cfg.fail_agent):
        raise SimulationError(f"fail agent '{cfg.fail_agent}' is not an agent of the program")
    steps: list[dict[str, tuple[tuple[str, ...], bool]]] = []
    messages: list[ObservedMessage] = []
    if cfg.team_mode:
        run = _TeamRun(p, cfg)
        leaf_teams = sorted({t for _, t in h.agents})
        for tick in range(cfg.ticks):
            # an agent's state depends only on its leaf team: one walk per team
            truth = {team: run.truth(team) for team in leaf_teams}
            steps.append({a: truth[t] for a, t in h.agents})
            messages += run.step(tick)
        count = run.count
    else:
        runs = [_AgentRun(a, p, cfg) for a in agents]
        for tick in range(cfg.ticks):
            steps.append({run.name: run.truth() for run in runs})
            for run in runs:
                if cfg.fails_at(run.name, tick):
                    continue  # a failed agent neither acts nor reports
                m = run.step(tick)
                if m is not None:
                    messages.append(m)
        count = sum(run.count for run in runs)
    messages.sort(key=lambda m: (m.tick, m.sender, m.kind, m.plan))
    return (GroundTruthTrace(seed=cfg.seed, agents=agents, steps=steps,
                             transition_count=count),
            messages)


def checkpoints(trace: GroundTruthTrace, messages, delay: int = 0
                ) -> list[tuple[int, dict[str, tuple[tuple[str, ...], bool]]]]:
    """Exchange checkpoints: one per distinct message tick, plus a grace delay."""
    if delay < 0:
        raise SimulationError(f"checkpoint delay must be nonnegative, got {delay}")
    out = []
    for tick in sorted({m.tick for m in messages}):
        cp = min(tick + delay, trace.ticks - 1)
        out.append((cp, trace.steps[cp]))
    return out
