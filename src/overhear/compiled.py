"""Generated code: the compiled forward step, leaf scans and evidence step,
and the live-step table that steps each live set with a kernel of its own.

Each generator writes Python source from a program's tables, and
``_Kernel`` compiles it and registers it with ``linecache``, so tracebacks,
profilers and ``inspect.getsource`` show the generated text.  Each cache
below is bounded, lives in this module and is keyed on what its generator
reads, never on a program object: every program equal in those (a fresh
load, a comm-applied copy) shares one function, and a hit generates no
source.  A source stays in ``linecache`` only while its function is cached.

- ``_compile_forward`` and ``forward_source``: the forward (quiet) step,
  ``TeamOrientedProgram.forward``, one function per set of the fields it
  reads.  The single-agent view's function steps list copies and tests
  each leaf's prior mass, so a sparse belief runs few updates; a team-mode
  function steps locals and returns capped list displays.
- ``_next_live`` and ``NextLive``: the live-step table,
  ``TeamOrientedProgram.next_live``, one per set of the fields
  ``forward_source`` reads.  It maps a live set to the next one, which
  follows the forward step's rules, and to the function that steps it:
  the full kernel until the set's ``LIVE_COMPILE_AT``-th use, then the
  set's live kernel, ``forward_source(p, live)``, which holds only the
  blocks the set's leaves can run, on list copies in either mode.  The
  table also carries the step memo (``StepMemo``) of both layouts, whose
  states are shared immutable tuples.
- ``_compile_scan``: the most-likely pick rule over a leaf tuple, each
  team's candidate leaves in ``TeamOrientedProgram.team_best_leaf``.
- ``_evidence_table`` and ``evidence_source``: the evidence step,
  ``TeamOrientedProgram.evidence_functions``, one table per set of the
  fields it reads; in it one function per tick signature (the shared
  layout's evidence) and one per message (the array layout's evidence and
  commit), each kind held in an ``lru_cache`` of at most
  ``EVIDENCE_SIGNATURES``.  A key compiles on its ``COMPILE_AT``-th use, so
  a signature a run meets a few times never pays a compile.

``model`` holds documents and tables and reaches this module only from the
properties that return compiled functions.
"""

from __future__ import annotations

import linecache
import re
from array import array
from functools import lru_cache
from itertools import count

from .belief import PROB_FLOOR
from .ingest import INIT
from .model import TERMINATE, TIE_TOLERANCE, TeamHierarchy, TeamOrientedProgram, hazard

# The keys each table of ``EvidenceFunctions`` counts, and the compiled
# functions it keeps.
EVIDENCE_SIGNATURES = 256
# The use of a key that compiles its evidence function; the uses before it
# run the interpreted ``belief.evidence``.  On team_program(0) a compile
# takes 150-210 us and saves 3.5-6 us per later use, so by the 32nd use the
# interpreted uses have cost about one compile, and a run pays at most about
# twice the cheaper of the two; a one-shot ``evaluate`` compiles almost none.
COMPILE_AT = 32
# The live sets a ``NextLive`` table holds before it starts over.
LIVE_SETS = 1024
# The use of a live set that compiles its live kernel; the uses before it
# run the full kernel.  Generating and compiling a live kernel takes
# 100-270 us, and it saves about 0.4 us per use over the single-agent
# view's full kernel (solo-11-array) and 1.5 us over a team-mode one
# (mission-11-yoyo), so by the 256th use the full kernel has cost about
# one compile.  At ``COMPILE_AT`` a one-shot solo-11-array ``evaluate``
# compiled 9 sets that its later uses never repaid.
LIVE_COMPILE_AT = 256
# The entries each table of a ``StepMemo`` holds before it starts over.
MEMO_STATES = 4096


class _Kernel:
    """A compiled generated function and its source's ``linecache`` entry.

    ``src`` defines one function, ``name``.  The file name holds ``label``
    and the kernel's id, so kernels of equal source (the forward kernels of
    programs that differ in plan names, say) keep one entry each; it hashes
    no source, which would cost a one-shot command the ``hashlib`` import.
    Only a compile cache holds a kernel, so the entry is dropped when the
    kernel leaves its cache, and ``linecache`` holds no more sources than
    the caches hold functions.
    """

    def __init__(self, src: str, name: str, label: str):
        self.filename = f"<{label} at {id(self):#x}>"
        self.entry = (len(src), None, src.splitlines(True), self.filename)
        linecache.cache[self.filename] = self.entry
        scope: dict = {}
        exec(compile(src, self.filename, "exec"), scope)
        self.function = scope[name]

    def __del__(self, cache=linecache.cache):
        if cache.get(self.filename) is self.entry:  # not re-registered since
            del cache[self.filename]


@lru_cache(maxsize=16)
def _key_program(plans, transitions, root, teams, team_mode) -> TeamOrientedProgram:
    """A program with these fields and no agent, which no generator reads;
    the forward kernel, the live-step table and the evidence table of one
    set of fields share it, so its tables are built once for the three."""
    return TeamOrientedProgram(plans, transitions, TeamHierarchy(teams, ()), root, team_mode)


@lru_cache(maxsize=64)
def _compile_forward(plans, transitions, root, teams, team_mode) -> _Kernel:
    """The forward kernel of every program with these fields, the ones
    ``forward_source`` reads: a miss compiles the source of a program built
    from them, and a hit generates nothing.

    Equal keys give equal source: the loader stores ``mu`` and ``pi`` as
    floats, and an int rate, or a -0.0 ``mu``, ``pi`` or rate, writes the
    text of the equal float.  ``team_mode`` is in the key, as a program and
    its single-agent view compare equal but step differently.  Agents are
    not: the groups read only the team tree, so a grown team shares its kernel.
    """
    p = _key_program(plans, transitions, root, teams, team_mode)
    return _Kernel(forward_source(p), "forward", "forward step")


def _descend(groups_at, y: int, rho: str, depth: int, body: list[str], slot: str = "a{}"):
    """``belief.propagate_down`` of the mass named ``rho`` from position y,
    unrolled into ``body``: each group's share is ``s<depth>``, a division
    of its parent's share, written only for a group of more than one.  A
    share is added to ``slot`` formatted with the child's position."""
    for group in groups_at[y]:
        share = rho
        if len(group) > 1:
            share = f"s{depth}"
            body.append(f"{share} = {rho} / {len(group)}")
        for c in group:
            body.append(f"{slot.format(c)} += {share}")
            _descend(groups_at, c, share, depth + 1, body, slot)


def _carriers(outgoing) -> tuple[float, list]:
    """eta, the share of a node's shed mass that its edges take silently, and
    the edges that carry some of it: none when eta <= 0, and none whose
    silent share (1 - mu) or pi is exactly 0, which would add an exact 0.0."""
    eta = sum((1.0 - t.mu) * t.pi for t in outgoing)
    if not eta > 0.0:
        return eta, []
    return eta, [t for t in outgoing if 1.0 - t.mu != 0.0 and t.pi != 0.0]


def forward_source(p: TeamOrientedProgram, live: tuple[int, ...] | None = None) -> str:
    """The source of ``p.forward``'s function, generated from p's fields, or
    with ``live`` that of the live kernel of one live set.

    Both shapes that ``TeamOrientedProgram.forward`` describes share the
    walk, one guarded block per shedding node in postorder, and differ in
    what a block writes to (list entries or locals), how a leaf's block is
    guarded, and the head and tail around the blocks.

    ``live`` is a live set (``NextLive``), a sorted tuple of leaf positions.
    Its kernel holds only the blocks of ``live``'s leaves and of the
    internal nodes their TERMINATE edges reach, in the same postorder, with
    the list shape's text and float order, so it steps every state whose
    leaves outside ``live`` hold exactly 0.0 as ``p.forward`` does: a
    left-out leaf's block would be skipped, and a left-out internal node's
    shed would stay 0.0.  A team-mode live kernel steps list copies too,
    caps at 1 only the entries its blocks add to and floors the internal
    nodes it steps, as the full kernel does; it equals the full kernel on
    states whose entries all lie in [0, 1], which the full kernel's cap
    and floor leave as they are.
    """
    n, groups_at, team = p.index, p.groups_at, p.team_mode
    unpack = team and live is None  # the locals shape
    act, blk = ("a{}", "b{}") if unpack else ("act[{}]", "blk[{}]")
    shed: list[str] = []  # each o<i> set before any block runs
    blocks: list[str] = []
    rates = {i: hazard(p.plans[i].rate) for i in p.leaf_index}
    sheds = {i for i, rate in rates.items() if rate and (live is None or i in live)}
    floored: list[int] = []  # the internal nodes that shed
    if unpack:
        shed += [f"o{i} = a{i} * {rates[i]!r}" for i in p.leaf_index if i in sheds]

    for i in p.postorder:
        if i not in sheds:
            continue
        up, outgoing, body = p.ancestors_at[i], p.out_at[i], []
        if unpack or i not in rates:
            guard = f"if o{i}:"
        else:  # read the prior mass once; compute o<i> only where it is nonzero
            guard = f"if x := A[{i}]:"
            body.append(f"o{i} = x * {rates[i]!r}")
        eta, carriers = _carriers(outgoing)
        for t in carriers:
            factors = "".join(f" * {f!r}" for f in (1.0 - t.mu, t.pi) if f != 1.0)
            r = "r" if factors else f"o{i}"
            if factors:
                body.append(f"r = o{i}{factors}")
            if t.dst != TERMINATE:
                body.append(f"{act.format(n[t.dst])} += {r}")
                _descend(groups_at, n[t.dst], r, 0, body, act)
            elif not up:
                body.append(f"{blk.format(i)} += {r}")  # program complete
            else:
                j, groups = up[0], len(groups_at[up[0]])
                body.append(f"o{j} += " + (r if groups == 1 else f"{r} / {groups}"))
                if j not in sheds:
                    sheds.add(j)
                    floored.append(j)
                    shed.append(f"o{j} = 0.0")
        keep = max(0.0, 1.0 - eta)
        if keep != 0.0:
            body.append(f"{blk.format(i)} += o{i}" + ("" if keep == 1.0 else f" * {keep!r}"))
        body.append(f"{act.format(i)} -= o{i}")
        blocks.append(f"{guard}\n        " + "\n        ".join(body))

    size = len(n)
    if unpack:
        def entry(v: str, floor: bool = False) -> str:  # one returned value
            text = f"0.0 if {v} < 0.0 else {v}" if floor else v
            return f"1.0 if {v} > 1.0 else {text}"

        active = ", ".join(entry(f"a{i}", i in floored) for i in range(size))
        blocked = ", ".join(entry(f"b{i}") for i in range(size))
        head = ["".join(f"a{i}, " for i in range(size)) + "= A",
                "".join(f"b{i}, " for i in range(size)) + "= B"]
        tail = [f"return [{active}], [{blocked}]"]
    else:
        head = [f"if len(A) != {size} or len(B) != {size}:",
                f"    raise ValueError(f'forward step of {size} nodes got tables of "
                "{len(A)} and {len(B)} entries')",
                "act = list(A)", "blk = list(B)"]
        tail = [f"if act[{j}] < 0.0:\n        act[{j}] = 0.0" for j in floored]
        if team:  # cap each entry a block adds to; an entry it only lowers stays <= 1
            writes = re.findall(r"((?:act|blk)\[(\d+)\]) ([-+])=", "\n".join(blocks))
            added = {(v, int(i)) for v, i, op in writes if op == "+"}
            tail = [f"if {v} > 1.0:\n        {v} = 1.0" for v, _ in sorted(
                added, key=lambda w: (w[0][0], w[1]))] + tail
        tail.append("return act, blk")
    body = [*head, *shed, *blocks, *tail]
    return "\n".join(["def forward(A, B):", *(f"    {line}" for line in body)]) + "\n"


class StepMemo:
    """The steps of states already met, one entry per step, in both layouts.

    A state (``belief.BeliefState``) that a step built holds its two tables
    as tuples, which no step writes, so a state is a value and a step taken
    from it once is a lookup after.  Each entry holds its key's tuples, so
    no other object takes their id while it is a key, and a hit checks
    ``is`` on them:

    - ``quiet[id(act)]`` is ``(act, blk, (act', blk', live'))``, the
      forward step of the state ``(act, blk)`` and its next live set
      (``belief.quiet_step``);
    - ``commit`` holds evidence steps.  The array layout's
      ``[(id(blk), key)]`` is ``(blk, (act', blk', live'))``, the commit of
      one message, ``key`` its ``(kind, plan, team)``, which reads only the
      prior blocked table.  The shared layout's ``[(id(act), signature)]``
      is ``(act, blk, (act', blk', live'))``, the evidence tick of a tick
      signature (``belief.tick_signature``), whose rescale reads both prior
      tables;
    - ``best`` holds most-likely answers: the array layout's ``[id(act)]``
      is ``(act, blk, leaf)``, and the shared layout's ``[(id(act), team)]``
      the same for one team;
    - ``interned`` maps the exact bits of a pair of tables to one pair of
      tuples.  Evidence results, and steps taken from lists, are interned,
      so states that start equal, or commit to equal values, share one pair
      and step once; ``0.0`` and ``-0.0`` would be two keys, and no engine
      state holds ``-0.0``;
    - ``keys`` maps a message's ``(kind, plan, team)`` to its evidence key
      (``belief._message_keys``).

    A stored step is one the engine computed from the same values.  Its
    live set may come from another route to those values (a cold commit's
    is a subset of the compiled one's); any such set is valid for them.
    Every table holds at most ``MEMO_STATES`` entries; a store into a full
    one clears them all and counts an eviction.  ``misses`` counts, by
    kind, the steps computed from a state with a live set and the answers
    stored; a hit counts nothing.
    """

    __slots__ = ("quiet", "commit", "best", "interned", "keys", "misses", "evictions")

    def __init__(self):
        self.quiet: dict[int, tuple] = {}
        self.commit: dict[tuple, tuple] = {}
        self.best: dict = {}
        self.interned: dict[bytes, tuple] = {}
        self.keys: dict[tuple, tuple] = {}
        self.misses = dict.fromkeys(("quiet", "commit", "best"), 0)
        self.evictions = 0

    def store(self, table: dict, key, entry):
        """``table[key] = entry``, first clearing every table if ``table`` is full."""
        if len(table) >= MEMO_STATES:
            for full in (self.quiet, self.commit, self.best, self.interned, self.keys):
                full.clear()
            self.evictions += 1
        table[key] = entry

    def intern(self, act, blk) -> tuple[tuple, tuple]:
        """The one pair of tuples holding the exact bits of ``act`` and ``blk``."""
        bits = array("d", act).tobytes() + array("d", blk).tobytes()
        pair = self.interned.get(bits)
        if pair is None:
            pair = (tuple(act), tuple(blk))
            self.store(self.interned, bits, pair)
        return pair


class NextLive(dict):
    """Each live set mapped to its forward step: the next live set, and the
    function that steps a state holding it.

    A live set (``belief.BeliefState.live``) is a sorted tuple of leaf
    positions outside which every leaf's active and blocked mass is exactly
    0.0.  ``next_live[live]`` is ``(after, forward)``.  ``after`` is the
    live set after ``p.forward``: ``live`` and every leaf that the block of
    a leaf in it can write, by ``forward_source``'s own rules, group by
    group in either mode.  A leaf with hazard 0 has no block, and a block
    sends only along ``_carriers``' edges: into a sibling, which writes it
    and every leaf ``_descend`` reaches from it, or along a TERMINATE edge
    into the parent's block, which sends along its own.  A leaf's guard
    reads its prior mass, so a leaf that gains mass in a step writes
    nothing until the next.

    ``forward`` is ``p.forward`` until the set's ``LIVE_COMPILE_AT``-th use,
    which compiles ``forward_source(p, live)``, the live kernel, and swaps
    it into the entry, so later uses call it with no count.  A set that
    holds every shedding leaf keeps ``p.forward``: the live kernel would
    run the same blocks, and in team mode on list copies, slower than the
    locals kernel on dense states.  The live kernel equals ``p.forward``
    on every state whose leaves outside the set hold 0.0 and, in team
    mode, whose entries lie in [0, 1]; both layouts' states do.

    A live set is looked up once per computed quiet step, so this is a
    dict whose misses (``__missing__``) compute and store the step; it
    holds at most ``LIVE_SETS`` sets and starts over when full, dropping
    their kernels.  Every entry is a function of the fields and its key,
    so threads that fill or compile one entry at once store equal steps.

    ``memo`` is the ``StepMemo`` of both layouts for these fields; it has
    a bound of its own and outlives a clear of the live sets.
    """

    def __init__(self, p: TeamOrientedProgram):
        super().__init__()
        n, children, groups_at, up = p.index, p.children_at, p.groups_at, p.ancestors_at

        def under(y: int) -> set[int]:  # y if a leaf, and the leaves ``_descend`` reaches
            leaves = set() if children[y] else {y}
            for group in groups_at[y]:
                for c in group:
                    leaves |= under(c)
            return leaves

        def sends(i: int) -> set[int]:  # the leaves node i's block writes, i aside
            leaves: set[int] = set()
            for t in _carriers(p.out_at[i])[1]:
                if t.dst != TERMINATE:
                    leaves |= under(n[t.dst])
                elif up[i]:
                    leaves |= sends(up[i][0])
            return leaves

        self.writes = {i: frozenset(sends(i)) for i in p.leaf_index if hazard(p.plans[i].rate)}
        self.p = p
        self.kernels: dict[tuple[int, ...], _Kernel] = {}  # what keeps each live kernel's source
        self.memo = StepMemo()

    def __missing__(self, live: tuple[int, ...]) -> tuple:
        if len(self) >= LIVE_SETS:
            self.clear()
            self.kernels.clear()
        after = tuple(sorted(set(live).union(*(self.writes.get(i, ()) for i in live))))
        full = self.p.forward
        if self.writes.keys() <= set(live):
            step = self[live] = (after, full)
            return step
        uses = count(1)

        def cold(A, B):
            if next(uses) < LIVE_COMPILE_AT:
                return full(A, B)
            kernel = self.kernels[live] = _Kernel(
                forward_source(self.p, live), "forward", "live forward step")
            self[live] = (after, kernel.function)
            return kernel.function(A, B)

        step = self[live] = (after, cold)
        return step


@lru_cache(maxsize=16)
def _next_live(plans, transitions, root, teams, team_mode) -> NextLive:
    """The live-step table of every program with these fields, the ones
    ``forward_source`` reads; ``TeamOrientedProgram.next_live`` is this
    table.  Like ``_evidence_table`` it is keyed on fields, so a fresh load
    or a comm-applied copy finds the live sets, and the live kernels, that
    an earlier run stepped."""
    return NextLive(_key_program(plans, transitions, root, teams, team_mode))


@lru_cache(maxsize=256)
def _compile_scan(leaves: tuple[int, ...]) -> _Kernel:
    """The compiled pick rule over ``leaves``, a non-empty tuple of positions.

    This is the one pick rule every most-likely query uses: the leaf
    holding the most active+blocked mass.  The shared layout's team picks
    run it compiled; ``belief.pick_leaf`` runs it interpreted over a live
    set, which is too short and varied to repay a compile.  The generated
    ``scan(A, B)`` reads the ``active`` and ``blocked`` tables, lists or
    position-keyed dicts.  It scans the leaves in the given order, one
    unrolled block per leaf (callers pass them ascending, so in id order),
    and the first is the initial pick; a later leaf replaces the pick only
    when its mass exceeds the pick's by more than the relative
    ``TIE_TOLERANCE``:

        m = A[i] + B[i]
        if m > bar:
            k, bar = i, m * <1 + TIE_TOLERANCE>

    Masses that a reordered float sum could swap therefore tie, and a tie
    goes to the earliest leaf; with no mass anywhere that is the first
    leaf.  The scan returns the picked position.  No table holds NaN, so
    the first leaf needs no test.

    The source is a function of the leaf tuple alone, so the cache is keyed
    on it: programs with equal leaf tuples, such as every comm-applied copy
    of one program, share one scan and never generate it again.  The cache
    keeps the 256 most recently used scans, registered with ``linecache``
    like the forward kernels.
    """
    first, *rest = leaves
    scale = repr(1.0 + TIE_TOLERANCE)
    body = [f"k, bar = {first}, (A[{first}] + B[{first}]) * {scale}"]
    for i in rest:
        body += [f"m = A[{i}] + B[{i}]", "if m > bar:", f"    k, bar = {i}, m * {scale}"]
    return _Kernel("\n".join(["def scan(A, B):", *(f"    {line}" for line in body),
                              "    return k"]) + "\n", "scan", "leaf scan")


class _Tier:
    """One kind of compiled evidence function, by key: interpreted until the
    key's ``COMPILE_AT``-th use, then compiled from ``generate(key)``.

    A key's uses and its kernel are each held in an ``lru_cache`` of at
    most ``EVIDENCE_SIGNATURES`` keys, which evicts the least recently used
    and stores no call that raises; a kernel leaving its cache takes its
    ``linecache`` entry with it.
    """

    def __init__(self, generate, label: str):
        self.uses = lru_cache(EVIDENCE_SIGNATURES)(lambda key: count(1))
        self.kernel = lru_cache(EVIDENCE_SIGNATURES)(
            lambda key: _Kernel(generate(key), "evidence", label))

    def __call__(self, key):
        """key's compiled function, or None while the key is cold; counts a use."""
        return self.kernel(key).function if next(self.uses(key)) >= COMPILE_AT else None


class EvidenceFunctions:
    """The compiled evidence step of every program with one set of fields.

    ``step(signature)`` is the function of ``belief.evidence`` for a tick
    signature, a tuple of ``(kind, plan, team)``; ``commit((kind, plan,
    team))`` is that of one message's evidence and its array commit.  Both
    are ``evidence_source``'s, and each is None while its key is cold.
    """

    def __init__(self, p: TeamOrientedProgram):
        self.step = _Tier(lambda signature: evidence_source(p, signature, False),
                          "evidence step")
        self.commit = _Tier(lambda message: evidence_source(p, (message,), True),
                            "evidence commit")


@lru_cache(maxsize=16)
def _evidence_table(plans, transitions, root, teams, team_mode) -> EvidenceFunctions:
    """The compiled evidence step of every program with these fields, the
    ones ``evidence_source`` reads; ``TeamOrientedProgram.evidence_functions``
    is this table.  It is keyed on fields, as ``_compile_forward`` is, so
    every ``evaluate`` run's fresh load and comm-applied copy finds the
    functions an earlier run compiled."""
    return EvidenceFunctions(_key_program(plans, transitions, root, teams, team_mode))


def _credit(src: int, mu: float, pi: float) -> str | None:
    """The credit an edge gives, ``B[src] * mu * pi``; None when a factor is 0.

    A factor of exactly 1 is not written, and a term with a zero factor is
    an exact 0.0, which adds nothing to a non-negative sum."""
    if mu == 0.0 or pi == 0.0:
        return None
    return f"B[{src}]" + "".join(f" * {f!r}" for f in (mu, pi) if f != 1.0)


def evidence_source(p: TeamOrientedProgram, signature: tuple, commit: bool) -> str:
    """The source of ``belief.evidence`` for one tick signature, straight-line.

    ``signature`` is the tick's messages as ``(kind, plan, team)`` in
    ``belief._message_order``, each team resolved (None in the single-agent
    view), every plan a name in ``p.named_index``.  The generated
    ``evidence(B)`` reads the prior blocked list and follows
    ``belief.evidence`` step by step, in its float order:

    - ``c<x> = B[s] * mu * pi + ...``, candidate x's credit, summed in
      edge order (a sum from 0.0 equals one from its first term, as no
      credit is -0.0);
    - per unit, when no candidate is credited, every candidate's weight is
      1.0 (the even fallback); otherwise an uncredited candidate keeps
      weight 0.0, which stands for "not a candidate";
    - a candidate with a weighted ancestor among the candidates gets weight
      0.0 (the prune); which candidates lie on one chain is known here, so
      only those tests are written;
    - each unit's total sums its weights in position order, and a candidate
      with weight keeps ``weight / total`` when it is at least
      ``PROB_FLOOR``.  Adding a 0.0 weight to the total changes no bit.

    It returns the ``{position: mass}`` dict that ``belief.evidence`` does.
    With ``commit`` the function instead returns the array layout's new
    (active, blocked) lists: each kept mass added to its node, spread down
    its first-child groups with ``belief.propagate_down``'s successive
    divisions (``_descend``) and added to each ancestor, candidates in
    position order, on locals that start at 0.0; every blocked mass is 0.0.
    It returns the live set too (``belief.BeliefState.live``): the leaves
    under the signature's candidates, the same for every call.
    """
    initiated: dict[int, str | None] = {}
    terminated: dict[int, str | None] = {}
    for kind, plan, team in signature:
        target = initiated if kind == INIT else terminated
        for x in p.named_index[plan]:
            target.setdefault(x, team)
    edges = p.team_edges
    terms: dict[int, list] = {}  # candidate -> its credit's terms, in the engine's order
    for x, team in sorted(initiated.items()):
        terms[x] = [_credit(src, mu, pi) for src, _, mu, pi in edges[team][0].get(x, ())]
    for x, team in sorted(terminated.items()):
        for src, dst, mu, pi in edges[team][1].get(x, ()):
            if dst not in initiated:
                terms.setdefault(dst, []).append(_credit(src, mu, pi))
    if not terms:
        terms = {x: [] for x in terminated}
    candidates = sorted(terms)
    units: dict = {}
    for x in candidates:
        units.setdefault(p.unit_at[x], []).append(x)

    body = []
    for x in candidates:
        body.append(f"c{x} = " + (" + ".join(t for t in terms[x] if t) or "0.0"))
    for xs in units.values():
        fallback = " = ".join(f"c{x}" for x in xs) + " = 1.0"
        credited = [f"c{x} > 0.0" for x in xs if any(terms[x])]
        if credited:
            body += [f"if not ({' or '.join(credited)}):", f"    {fallback}"]
        else:
            body.append(fallback)
    for x in candidates:
        above = [f"c{a} > 0.0" for a in p.ancestors_at[x] if a in terms]
        if above:
            body += [f"if {' or '.join(above)}:", f"    c{x} = 0.0"]
    for k, xs in enumerate(units.values()):
        body.append(f"t{k} = " + " + ".join(f"c{x}" for x in xs))

    unit_of = {x: k for k, xs in enumerate(units.values()) for x in xs}
    floor = repr(PROB_FLOOR)
    touched: set[int] = set()
    tail = [] if commit else ["E = {}"]
    for x in candidates:
        tail += [f"if c{x} > 0.0:", f"    m = c{x} / t{unit_of[x]}", f"    if m >= {floor}:"]
        if not commit:
            tail.append(f"        E[{x}] = m")
            continue
        adds = [f"a{x} += m"]
        _descend(p.groups_at, x, "m", 0, adds)
        adds += [f"a{a} += m" for a in p.ancestors_at[x]]
        # every line but a share's is ``a<i> += ...``
        touched.update(int(line[1:line.index(" ")]) for line in adds if line[0] == "a")
        tail += [f"        {line}" for line in adds]
    if commit:
        written = sorted(touched)
        tail.insert(0, " = ".join(f"a{i}" for i in written) + " = 0.0")
        live = tuple(i for i in written if not p.children_at[i])
        tail += [f"A = [0.0] * {len(p.plans)}", *(f"A[{i}] = a{i}" for i in written),
                 f"return A, [0.0] * {len(p.plans)}, {live!r}"]
    else:
        tail.append("return E")
    return "\n".join(["def evidence(B):", *(f"    {line}" for line in body + tail)]) + "\n"
