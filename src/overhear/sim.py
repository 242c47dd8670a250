"""Ground-truth simulator for team-oriented programs.

Executes a program tick by tick and emits the coordination messages an
overhearer would catch.  Two modes mirror the two recognizers.  A team-mode
run is one shared run in which sibling teams advance in parallel, and a
member of the acting team, drawn at random, sends each announcement.  An
agent-mode run is that run once per agent over the single-agent view, with
its own random stream (seeded ``f"{seed}:{agent}"``) and the agent as the
sender of every message.

A run is a tree of units.  A unit descends from its plan through each node
whose first children form one group, picking one member uniformly, down to
a leaf or to a node of several groups, where it forks one unit per group;
so an agent's run, where every node has one group, is a single unit.  A
unit executes its plan while its ``pending`` is None.  Otherwise it is
blocked there, and ``pending`` says why: the transition it waits to
announce, ``_DONE`` (its plan completed the node it was forked at, or the
root completed) or ``_NO_EXIT`` (the plan has no transition out).  A plan
that completes its parent ends the parent, up through the nodes the unit
descended through; a fork node ends when all its units are ``_DONE``.

In both modes a TERMINATE edge out of the root ends the run: announced, it
is neither sent nor counted; silent, it is counted.  And an outage loses
the failed agent's messages during it and nothing else, so the trace is the
one the run gives without it.

Timeline convention, chosen to match the belief engine: a leaf that
terminates during tick t is recorded as blocked from tick t+1 on, the
announcement (if any) is observed at tick t+1, and the successor starts
executing at tick t+2.  Silent transitions skip the blocked tick entirely.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .ingest import INIT, TERM, ObservedMessage, parse_decimal
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
    """Per-tick, per-agent truth: (root-to-locus name path, blocked flag).

    Consecutive ticks may share one row dict (``simulate`` reuses a row until
    a run moves), so treat every row as read-only.
    """
    seed: int
    agents: tuple[str, ...]
    steps: list[dict[str, tuple[tuple[str, ...], bool]]]
    transition_count: int = -1

    @property
    def ticks(self) -> int:
        return len(self.steps)


def format_trace(trace: GroundTruthTrace) -> str:
    parts = [f"# seed {trace.seed}\n"]
    paths: dict[tuple[tuple[str, ...], bool], str] = {}  # each distinct state once
    row = cells = None
    for tick, step in enumerate(trace.steps):
        if step is not row:  # a shared row is formatted once
            row, cells = step, [""]  # the leading "" puts a stamp before the first cell
            for agent in trace.agents:
                state = step[agent]
                path = paths.get(state)
                if path is None:
                    names, blocked = state
                    path = paths[state] = "/".join(names) + ("!" if blocked else "")
                cells.append(f"{agent} {path}\n")
        parts.append(f"{tick} ".join(cells))
    return "".join(parts)


def parse_trace(text: str) -> GroundTruthTrace:
    """Read a trace written by ``format_trace``; bad text raises ``SimulationError``."""
    seed = 0
    steps: list[dict[str, tuple[tuple[str, ...], bool]]] = []
    agents: list[str] = []  # in order of first appearance
    seen: set[str] = set()
    states: dict[str, tuple[tuple[str, ...], bool]] = {}  # path text -> state
    raw_tick = None  # the tick text of the block of lines being read
    lines = text.splitlines()
    for lineno, line in enumerate(lines, start=1):
        parts = line.split()
        if len(parts) != 3 or parts[0] != raw_tick:  # not a line of the current block
            if not parts:
                continue
            if parts[0].startswith("#"):
                comment = line.split("#", 1)[1].split()
                if len(comment) == 2 and comment[0] == "seed":
                    seed = _trace_int(comment[1], "seed", lineno)
                continue
            if len(parts) != 3:
                raise SimulationError(f"trace line {lineno}: expected 'tick agent path'")
            raw_tick = parts[0]  # the first line of a block: look its tick up once
            tick = _trace_int(raw_tick, "tick", lineno)
            if tick < 0:
                raise SimulationError(f"trace line {lineno}: tick {tick} is negative")
            if tick >= len(lines):  # ticks 0..tick would need more lines than there are
                raise SimulationError(f"trace line {lineno}: tick {tick} is past the "
                                      f"trace's {len(lines)} lines")
            while len(steps) <= tick:
                steps.append({})
            step = steps[tick]
        _, agent, path = parts
        state = states.get(path)
        if state is None:
            state = states[path] = (tuple(path.rstrip("!").split("/")), path.endswith("!"))
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
        return parse_decimal(text)
    except ValueError:
        raise SimulationError(f"trace line {lineno}: {what} must be an integer, "
                              f"got {text!r}") from None


def _sample_transition(p: TeamOrientedProgram, rng: random.Random, plan: int):
    ts = p.out_at[plan]
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
                  p: TeamOrientedProgram, t) -> ObservedMessage:
    # One announcement per transition; a terminating edge can only name its
    # source, otherwise the kind is an even coin between the two endpoints.
    if t.dst == TERMINATE or rng.random() < 0.5:
        return ObservedMessage(tick, sender, team, TERM, p.node(t.src).name)
    return ObservedMessage(tick, sender, team, INIT, p.node(t.dst).name)


# --- execution (the run-state rule is in the module docstring) --------------

# Tested with ``is``: ``==`` against a pending transition would run its
# dataclass ``__eq__``.
_DONE = "done"
_NO_EXIT = "no exit"


class _Unit:
    """One line of execution: it executes, forks at, or is blocked at ``plan``.

    ``owner`` forked it for a group of ``team``.  ``_Run._descend`` sets the
    rest: ``units``, the units forked at ``plan``, one per group there, and
    for a leaf, its hazard ``chance``.
    """

    __slots__ = ("plan", "pending", "owner", "team", "units", "chance")

    def __init__(self, owner: "_Unit | None", team: str | None):
        self.owner = owner
        self.team = team


class _Run:
    """One run of a program: the whole team's, or one agent's over the
    single-agent view, with that agent as the fixed ``sender``."""

    def __init__(self, p: TeamOrientedProgram, cfg: SimConfig, rng: random.Random,
                 sender: str | None):
        self.p = p
        self.cfg = cfg
        self.rng = rng
        self.sender = sender
        self.count = 0  # transitions taken
        self.root = self._descend(_Unit(None, None), p.index[p.root])
        # Kept until a step changes the state: the executing leaves and the
        # units waiting to announce, in plan order, and each chain's truth.
        self.frontier: tuple[list[_Unit], list[_Unit]] | None = None
        self.truths: dict = {}

    def _descend(self, u: _Unit, plan: int) -> _Unit:
        """Start ``u`` at ``plan``: down through every node with one group,
        picking uniformly among its members, then one unit per group."""
        groups_at, owner_at, choice = self.p.groups_at, self.p.owner_at, self.rng.choice
        while len(groups := groups_at[plan]) == 1:
            plan = choice(groups[0])
        u.plan, u.pending = plan, None
        if groups:
            u.units = [self._descend(_Unit(u, owner_at[g[0]]), choice(g)) for g in groups]
        else:
            u.units = []
            u.chance = hazard(self.p.plans[plan].rate or 0.0)
        return u

    def truth(self, chain) -> tuple[tuple[str, ...], bool]:
        """The state of an agent that follows the groups of the teams in ``chain``."""
        state = self.truths.get(chain)
        if state is None:
            state = self.truths[chain] = self._walk(chain)
        return state

    def _walk(self, chain) -> tuple[tuple[str, ...], bool]:
        p, u = self.p, self.root
        groups_at, owner_at = p.groups_at, p.owner_at
        while True:
            # the topmost node of u's own descent whose one group the agent
            # does not follow; the descent starts below u's owner's plan
            at, top = u.plan, -1 if u.owner is None else u.owner.plan
            for y in p.ancestors_at[u.plan]:
                if y == top:
                    break
                if owner_at[groups_at[y][0][0]] not in chain:
                    at = y
            if at != u.plan or u.pending is not None:  # blocked only at its own plan
                return p.name_paths_at[at], at == u.plan
            for v in u.units:
                if v.team in chain:
                    u = v
                    break
            else:
                return p.name_paths_at[at], False

    def _frontier(self, u: _Unit, leaves: list[_Unit], waiting: list[_Unit]) -> None:
        """Collect the executing leaves and waiting units under ``u``, in walk order."""
        t = u.pending
        if t is None:
            if not u.units:  # a non-leaf plan has a first child, so a group
                leaves.append(u)
            for v in u.units:
                self._frontier(v, leaves, waiting)
        elif t is not _DONE and t is not _NO_EXIT:
            waiting.append(u)

    def _end_plan(self, u: _Unit) -> None:
        """``u``'s plan finished: ``u`` takes a transition out, or blocks."""
        p = self.p
        t = _sample_transition(p, self.rng, u.plan)
        if t is None:
            u.pending = _NO_EXIT  # never completes its owner
        elif not _wants_announce(self.cfg, self.rng, t.mu):
            self._resolve(u, t)
        elif p.ancestors_at[u.plan]:
            u.pending = t
        else:
            u.pending = _DONE  # the root's announcement would go into the void

    def _resolve(self, u: _Unit, t) -> None:
        # Counted here, not at sampling: a transition still waiting on its
        # announcement has not moved the run yet.
        self.count += 1
        p = self.p
        if t.dst != TERMINATE:
            self._descend(u, p.index[t.dst])
            return
        up = p.ancestors_at[u.plan]
        if not up:
            u.pending = _DONE  # the root completed
        elif u.owner is None or up[0] != u.owner.plan:
            u.plan = up[0]  # the parent u descended through completed
            self._end_plan(u)
        else:
            u.pending = _DONE
            if all(v.pending is _DONE for v in u.owner.units):
                self._end_plan(u.owner)

    def step(self, tick: int, msgs: list[ObservedMessage]) -> None:
        """Advance one tick, appending the messages sent during it to ``msgs``."""
        p, cfg, rng = self.p, self.cfg, self.rng
        if self.frontier is None:
            leaves: list[_Unit] = []
            waiting: list[_Unit] = []
            self._frontier(self.root, leaves, waiting)
            if len(waiting) > 1:
                waiting.sort(key=lambda u: u.plan)
            self.frontier = leaves, waiting
        leaves, waiting = self.frontier
        # Pending announcements first: the unit stays blocked until one
        # member of the acting team gets a word in.
        for u in waiting:
            if rng.random() >= cfg.send_prob:
                continue
            team = p.owner_at[u.plan]
            h = p.team_hierarchy  # a team's run draws the sender from a sorted list
            sender = self.sender or rng.choice(h.members(team) or h.agent_names)
            msg = _make_message(rng, tick, sender, team, p, u.pending)
            if not cfg.fails_at(sender, tick):
                msgs.append(msg)
            self._resolve(u, u.pending)
            self.frontier = None
        for u in leaves:
            if rng.random() < u.chance:
                self._end_plan(u)
                self.frontier = None
        if self.frontier is None:
            self.truths.clear()


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
    # each agent's run, and the teams whose groups it follows there
    if cfg.team_mode:
        runs = [_Run(p, cfg, random.Random(cfg.seed), None)]
        follows = {a: (runs[0], h.ancestors_or_self(team)) for a, team in h.agents}
    else:
        view, every = p.single_agent_view(), frozenset(team for team, _ in h.teams)
        runs = [_Run(view, cfg, random.Random(f"{cfg.seed}:{a}"), a) for a in agents]
        follows = {run.sender: (run, every) for run in runs}
    for tick in range(cfg.ticks):
        # A run's truths are cleared exactly when it moves, so while every
        # run still holds them the previous row is still the truth.  (A loop,
        # not all() over a generator: agent-mode runs move on most ticks.)
        for run in runs:
            if not run.truths:
                row = {a: r.truth(chain) for a, (r, chain) in follows.items()}
                break
        steps.append(row)
        for run in runs:
            run.step(tick, messages)
    messages.sort(key=lambda m: (m.tick, m.sender, m.kind, m.plan))
    return (GroundTruthTrace(seed=cfg.seed, agents=agents, steps=steps,
                             transition_count=sum(run.count for run in runs)),
            messages)


def checkpoints(trace: GroundTruthTrace, messages, delay: int = 0
                ) -> list[tuple[int, dict[str, tuple[tuple[str, ...], bool]]]]:
    """Exchange checkpoints: one per distinct message tick, plus a grace
    delay clipped to the trace's last tick.

    A message at or past the trace's end has no truth to score and raises
    ``SimulationError``, as does a negative delay."""
    if delay < 0:
        raise SimulationError(f"checkpoint delay must be nonnegative, got {delay}")
    out = []
    for tick in sorted({m.tick for m in messages}):
        if tick >= trace.ticks:
            raise SimulationError(f"message at tick {tick} is past the trace's "
                                  f"{trace.ticks} ticks")
        cp = min(tick + delay, trace.ticks - 1)
        out.append((cp, trace.steps[cp]))
    return out
