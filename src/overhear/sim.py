"""Ground-truth simulator for team-oriented programs.

Executes a program tick by tick and emits the coordination messages an
overhearer would catch.  Two modes mirror the two recognizers: independent
per-agent execution (every agent walks its own copy of the plan tree) and
team execution (one shared run in which sibling teams advance in parallel
and exactly one member of the acting team announces each transition).

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


# --- single-agent execution -------------------------------------------------

_EXEC = "exec"
_BLOCKED = "blocked"
_STUCK = "stuck"
_END = "end"


class _AgentRun:
    """One agent stepping through its own copy of the plan tree."""

    __slots__ = ("name", "p", "rng", "kind", "node", "pending")

    def __init__(self, name: str, p: TeamOrientedProgram, rng: random.Random):
        self.name = name
        self.p = p
        self.rng = rng
        self.kind = _EXEC
        self.node = _descend(p, rng, p.root)
        self.pending = None

    def truth(self) -> tuple[tuple[str, ...], bool]:
        if self.kind == _END:
            return self.p.name_path(self.p.root), True
        return self.p.name_path(self.node), self.kind != _EXEC

    def _cascade(self, cfg: SimConfig, node_id: str, out: list[int]) -> None:
        t = _sample_transition(self.p, self.rng, node_id)
        if t is None:
            self.kind, self.node = _STUCK, node_id
            return
        if _wants_announce(cfg, self.rng, t.mu):
            self.kind, self.node, self.pending = _BLOCKED, node_id, t
            return
        self._resolve(cfg, node_id, t, out)

    def _resolve(self, cfg: SimConfig, node_id: str, t, out: list[int]) -> None:
        # Counted here, not at sampling: a transition still waiting on its
        # announcement has not moved the state machine yet.
        out[0] += 1
        if t.dst == TERMINATE:
            parent = self.p.node(node_id).parent
            if parent is None:
                self.kind = _END
            else:
                self._cascade(cfg, parent, out)
        else:
            self.kind = _EXEC
            self.node = _descend(self.p, self.rng, t.dst)
            self.pending = None

    def step(self, cfg: SimConfig, tick: int, out: list[int]) -> ObservedMessage | None:
        """Advance one tick; returns the message sent during it, if any."""
        msg = None
        if self.kind == _BLOCKED:
            if self.rng.random() < cfg.send_prob:
                msg = _make_message(self.rng, tick, self.name,
                                    self.p.node(self.node).team, self.p,
                                    self.node, self.pending)
                t, src = self.pending, self.node
                self.pending = None
                self._resolve(cfg, src, t, out)
        elif self.kind == _EXEC:
            node = self.p.node(self.node)
            if self.rng.random() < hazard(node.rate or 0.0):
                self._cascade(cfg, self.node, out)
        return msg


# --- team execution ----------------------------------------------------------

class _Group:
    """One parallel branch: a sibling team working under a shared parent.

    A group that is not ``done`` and has no ``current`` plan is stuck: its
    plan ``last`` had no transition out, so it stays blocked there.
    """

    __slots__ = ("team", "owner", "current", "pending", "pending_src", "last", "done")

    def __init__(self, team: str, owner: "_Active"):
        self.team = team
        self.owner = owner
        self.current: _Active | None = None
        self.pending = None
        self.pending_src: str | None = None
        self.last: str | None = None
        self.done = False


class _Active:
    """A plan instance currently on some team's execution stack."""

    __slots__ = ("plan", "group", "groups")

    def __init__(self, plan: str, group: _Group | None):
        self.plan = plan
        self.group = group
        self.groups: list[_Group] = []


class _TeamRun:
    def __init__(self, p: TeamOrientedProgram, rng: random.Random):
        self.p = p
        self.rng = rng
        self.root: _Active | None = self._spawn(p.root, None)
        self.finished = False

    def _spawn(self, plan: str, group: _Group | None) -> "_Active":
        node = _Active(plan, group)
        for members in self.p.first_child_groups(plan):  # each sorted, one team
            g = _Group(self.p.node(members[0]).team, node)
            child = self.rng.choice(members)
            g.current = self._spawn(child, g)
            node.groups.append(g)
        return node

    def _walk_groups(self) -> list[_Group]:
        found: list[_Group] = []

        def visit(a: _Active):
            for g in a.groups:
                found.append(g)
                if g.current is not None and not g.done:
                    visit(g.current)

        if self.root is not None:
            visit(self.root)
        return found

    def truth(self, team: str) -> tuple[tuple[str, ...], bool]:
        """The state of every agent on leaf team ``team``."""
        p = self.p
        chain = p.team_hierarchy.ancestors_or_self(team)
        if self.finished or self.root is None:
            return p.name_path(p.root), True
        a = self.root
        while True:
            match = None
            for g in a.groups:
                if g.team in chain:
                    match = g
                    break
            if match is None:
                return p.name_path(a.plan), False
            if match.done or match.current is None:  # complete, or stuck
                return p.name_path(match.last or a.plan), True
            if match.pending is not None:
                return p.name_path(match.pending_src or a.plan), True
            a = match.current

    def _complete(self, cfg: SimConfig, group: _Group, src: str, out: list[int]) -> None:
        group.done = True
        group.last = src
        group.current = None
        group.pending = None
        owner = group.owner
        if all(g.done for g in owner.groups):
            self._terminate(cfg, owner, out)

    def _terminate(self, cfg: SimConfig, active: _Active, out: list[int]) -> None:
        t = _sample_transition(self.p, self.rng, active.plan)
        g = active.group
        if t is None:
            # No outgoing transition: like an agent run's _STUCK, the group
            # stays blocked at this plan and never completes its owner.
            if g is not None:
                g.last, g.current = active.plan, None
            else:
                self.finished = True
            return
        if _wants_announce(cfg, self.rng, t.mu):
            if g is None:
                # The root announces into the void; treat as final.
                self.finished = True
                return
            g.pending, g.pending_src = t, active.plan
            return
        self._resolve(cfg, g, active.plan, t, out)

    def _resolve(self, cfg: SimConfig, g: _Group | None, src: str, t, out: list[int]) -> None:
        out[0] += 1
        if t.dst == TERMINATE:
            if g is None:
                self.finished = True
            else:
                self._complete(cfg, g, src, out)
        else:
            if g is None:
                self.root = self._spawn(t.dst, None)
            else:
                g.pending, g.pending_src = None, None
                g.current = self._spawn(t.dst, g)

    def _exec_leaves(self) -> list[_Active]:
        leaves: list[_Active] = []

        def visit(a: _Active):
            if not a.groups:
                if self.p.is_leaf(a.plan):
                    leaves.append(a)
                return
            for g in a.groups:
                if not g.done and g.pending is None and g.current is not None:
                    visit(g.current)

        if self.root is not None and not self.finished:
            visit(self.root)
        return leaves

    def step(self, cfg: SimConfig, tick: int, out: list[int]) -> list[ObservedMessage]:
        msgs: list[ObservedMessage] = []
        h = self.p.team_hierarchy
        hazards = self._exec_leaves()
        # Pending announcements first: the group stays blocked until one
        # member of the acting team gets a word in.
        for g in sorted(self._walk_groups(), key=lambda g: g.pending_src or ""):
            if g.pending is None or g.done:
                continue
            if self.rng.random() >= cfg.send_prob:
                continue
            src = g.pending_src
            team = self.p.node(src).team
            members = h.members(team) or h.agent_names  # both sorted
            sender = self.rng.choice(members)
            msg = _make_message(self.rng, tick, sender, team, self.p, src, g.pending)
            if not cfg.fails_at(sender, tick):
                msgs.append(msg)
            self._resolve(cfg, g, src, g.pending, out)
        for leaf in hazards:
            node = self.p.node(leaf.plan)
            if self.rng.random() < hazard(node.rate or 0.0):
                self._terminate(cfg, leaf, out)
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
    count = [0]
    if cfg.team_mode:
        run = _TeamRun(p, random.Random(cfg.seed))
        leaf_teams = sorted({t for _, t in h.agents})
        for tick in range(cfg.ticks):
            # an agent's state depends only on its leaf team: one walk per team
            truth = {team: run.truth(team) for team in leaf_teams}
            steps.append({a: truth[t] for a, t in h.agents})
            for m in run.step(cfg, tick, count):
                messages.append(m)
    else:
        runs = {a: _AgentRun(a, p, random.Random(f"{cfg.seed}:{a}")) for a in agents}
        for tick in range(cfg.ticks):
            steps.append({a: runs[a].truth() for a in agents})
            for a in agents:
                if cfg.fails_at(a, tick):
                    continue  # a failed agent neither acts nor reports
                m = runs[a].step(cfg, tick, count)
                if m is not None:
                    messages.append(m)
    messages.sort(key=lambda m: (m.tick, m.sender, m.kind, m.plan))
    return (GroundTruthTrace(seed=cfg.seed, agents=agents, steps=steps,
                             transition_count=count[0]),
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
